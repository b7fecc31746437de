//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] records every operation of a forward pass; calling
//! [`Graph::backward`] walks the tape in reverse, accumulating gradients
//! into the tape and finally into the [`Params`] store for parameter
//! leaves. Build a fresh graph per forward pass.
//!
//! The tape is the numerics reference, not a production path: inference
//! and training run the tape-free [`crate::InferCtx`] forward and the
//! layers' hand-derived `backward`, which the oracle tests hold to this
//! tape bit for bit, while this tape's own gradients are checked
//! against finite differences.

use crate::{Matrix, ParamId, Params};

/// Handle to one value on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(usize);

enum Op {
    /// Constant input; no gradient flows out.
    Input,
    /// Leaf bound to a parameter; gradients accumulate into `Params`.
    Param(ParamId),
    MatMul(VarId, VarId),
    Add(VarId, VarId),
    Sub(VarId, VarId),
    Mul(VarId, VarId),
    /// Broadcast a 1×c bias over every row of x.
    AddBias(VarId, VarId),
    /// Broadcast an r×1 column over every column of x (elementwise).
    ColMul(VarId, VarId),
    Scale(VarId, f32),
    LeakyRelu(VarId, f32),
    Relu(VarId),
    Tanh(VarId),
    ConcatCols(VarId, VarId),
    /// out[i] = a[idx[i]].
    GatherRows(VarId, Vec<usize>),
    /// out[r] = Σ_{i: idx[i]==r} a[i]; `rows` rows in the output.
    ScatterAddRows(VarId, Vec<usize>),
    /// Softmax over rows of an E×1 column grouped by segment id.
    SegmentSoftmax(VarId, Vec<usize>),
    MeanRows(VarId),
    SumAll(VarId),
    /// Log-softmax over a single row with a boolean mask; masked
    /// entries output a large negative constant and receive no gradient.
    LogSoftmaxMasked(VarId, Vec<bool>),
}

struct TapeNode {
    op: Op,
    value: Matrix,
    grad: Matrix,
}

/// The autograd tape.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<TapeNode>,
}

/// Large negative stand-in for −∞ inside masked softmax.
use crate::NEG_INF;

impl Graph {
    /// Empty tape.
    #[must_use]
    pub fn new() -> Self {
        Graph::default()
    }

    fn push(&mut self, op: Op, value: Matrix) -> VarId {
        let grad = Matrix::zeros(value.rows(), value.cols());
        self.nodes.push(TapeNode { op, value, grad });
        VarId(self.nodes.len() - 1)
    }

    /// Value of a variable.
    #[must_use]
    pub fn value(&self, id: VarId) -> &Matrix {
        &self.nodes[id.0].value
    }

    /// Gradient of a variable (valid after [`Graph::backward`]).
    #[must_use]
    pub fn grad(&self, id: VarId) -> &Matrix {
        &self.nodes[id.0].grad
    }

    /// Number of tape entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Add a constant input.
    pub fn input(&mut self, value: Matrix) -> VarId {
        self.push(Op::Input, value)
    }

    /// Add a leaf bound to a parameter (copies the current value).
    pub fn param(&mut self, params: &Params, id: ParamId) -> VarId {
        self.push(Op::Param(id), params.value(id).clone())
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).matmul(self.value(b));
        self.push(Op::MatMul(a, b), v)
    }

    /// Element-wise sum (same shape).
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let mut v = self.value(a).clone();
        v.add_assign(self.value(b));
        self.push(Op::Add(a, b), v)
    }

    /// Element-wise difference (same shape).
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        let va = self.value(a);
        let vb = self.value(b);
        assert_eq!((va.rows(), va.cols()), (vb.rows(), vb.cols()), "shape mismatch");
        let data: Vec<f32> = va.data().iter().zip(vb.data()).map(|(x, y)| x - y).collect();
        let v = Matrix::from_vec(va.rows(), va.cols(), data);
        self.push(Op::Sub(a, b), v)
    }

    /// Element-wise product (same shape). `mul(x, x)` squares with the
    /// correct doubled gradient.
    pub fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        let va = self.value(a);
        let vb = self.value(b);
        assert_eq!((va.rows(), va.cols()), (vb.rows(), vb.cols()), "shape mismatch");
        let data: Vec<f32> = va.data().iter().zip(vb.data()).map(|(x, y)| x * y).collect();
        let v = Matrix::from_vec(va.rows(), va.cols(), data);
        self.push(Op::Mul(a, b), v)
    }

    /// Broadcast-add a 1×c bias to every row of an r×c matrix.
    pub fn add_bias(&mut self, x: VarId, bias: VarId) -> VarId {
        let vx = self.value(x);
        let vb = self.value(bias);
        assert_eq!(vb.rows(), 1, "bias must be a row vector");
        assert_eq!(vb.cols(), vx.cols(), "bias width mismatch");
        let mut v = vx.clone();
        for r in 0..v.rows() {
            for c in 0..v.cols() {
                v[(r, c)] += vb[(0, c)];
            }
        }
        self.push(Op::AddBias(x, bias), v)
    }

    /// Multiply every row of `x` (r×c) by the matching entry of the
    /// column vector `col` (r×1).
    pub fn col_mul(&mut self, col: VarId, x: VarId) -> VarId {
        let vc = self.value(col);
        let vx = self.value(x);
        assert_eq!(vc.cols(), 1, "col must be a column vector");
        assert_eq!(vc.rows(), vx.rows(), "column length mismatch");
        let mut v = vx.clone();
        for r in 0..v.rows() {
            let k = vc[(r, 0)];
            for c in 0..v.cols() {
                v[(r, c)] *= k;
            }
        }
        self.push(Op::ColMul(col, x), v)
    }

    /// Scale by a constant.
    pub fn scale(&mut self, a: VarId, k: f32) -> VarId {
        let v = self.value(a).map(|x| x * k);
        self.push(Op::Scale(a, k), v)
    }

    /// Leaky ReLU with the given negative slope (Eq. 7).
    pub fn leaky_relu(&mut self, a: VarId, slope: f32) -> VarId {
        let v = self.value(a).map(|x| if x >= 0.0 { x } else { slope * x });
        self.push(Op::LeakyRelu(a, slope), v)
    }

    /// ReLU.
    pub fn relu(&mut self, a: VarId) -> VarId {
        let v = self.value(a).map(|x| x.max(0.0));
        self.push(Op::Relu(a), v)
    }

    /// Hyperbolic tangent (the same kernel as [`crate::InferCtx::tanh`], so the
    /// tape and tape-free forwards stay bit-identical).
    pub fn tanh(&mut self, a: VarId) -> VarId {
        let mut v = self.value(a).clone();
        crate::simd::tanh_map(v.data_mut());
        self.push(Op::Tanh(a), v)
    }

    /// Concatenate along columns (same row count).
    pub fn concat_cols(&mut self, a: VarId, b: VarId) -> VarId {
        let va = self.value(a);
        let vb = self.value(b);
        assert_eq!(va.rows(), vb.rows(), "row count mismatch");
        let rows = va.rows();
        let cols = va.cols() + vb.cols();
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            data.extend_from_slice(va.row_slice(r));
            data.extend_from_slice(vb.row_slice(r));
        }
        let v = Matrix::from_vec(rows, cols, data);
        self.push(Op::ConcatCols(a, b), v)
    }

    /// Gather rows: `out[i] = a[idx[i]]`.
    ///
    /// # Panics
    /// Panics if any index is out of range or `idx` is empty.
    pub fn gather_rows(&mut self, a: VarId, idx: &[usize]) -> VarId {
        let va = self.value(a);
        assert!(!idx.is_empty(), "gather needs at least one index");
        let cols = va.cols();
        let mut data = Vec::with_capacity(idx.len() * cols);
        for &i in idx {
            assert!(i < va.rows(), "gather index {i} out of range");
            data.extend_from_slice(va.row_slice(i));
        }
        let v = Matrix::from_vec(idx.len(), cols, data);
        self.push(Op::GatherRows(a, idx.to_vec()), v)
    }

    /// Scatter-add rows: `out[r] = Σ_{i: idx[i]==r} a[i]` with `rows`
    /// output rows.
    ///
    /// # Panics
    /// Panics if `idx.len() != a.rows()` or any index ≥ `rows`.
    pub fn scatter_add_rows(&mut self, a: VarId, idx: &[usize], rows: usize) -> VarId {
        let va = self.value(a);
        assert_eq!(idx.len(), va.rows(), "one target per input row");
        let mut v = Matrix::zeros(rows, va.cols());
        for (i, &r) in idx.iter().enumerate() {
            assert!(r < rows, "scatter index {r} out of range");
            for c in 0..va.cols() {
                v[(r, c)] += va[(i, c)];
            }
        }
        self.push(Op::ScatterAddRows(a, idx.to_vec()), v)
    }

    /// Per-segment softmax over an E×1 column (Eq. 6): rows sharing a
    /// segment id are normalized together.
    ///
    /// # Panics
    /// Panics if `a` is not a column or `seg.len() != a.rows()`.
    pub fn segment_softmax(&mut self, a: VarId, seg: &[usize]) -> VarId {
        let va = self.value(a);
        assert_eq!(va.cols(), 1, "segment softmax expects a column");
        assert_eq!(seg.len(), va.rows(), "one segment id per row");
        let nseg = seg.iter().copied().max().map_or(0, |m| m + 1);
        let mut max = vec![f32::NEG_INFINITY; nseg];
        for (i, &s) in seg.iter().enumerate() {
            max[s] = max[s].max(va[(i, 0)]);
        }
        let mut sum = vec![0.0f32; nseg];
        let mut exps: Vec<f32> =
            seg.iter().enumerate().map(|(i, &s)| va[(i, 0)] - max[s]).collect();
        // Same exp kernel as the fused GAT pass, so tape and tape-free
        // softmax stay bit-identical.
        crate::simd::exp_neg_map(&mut exps);
        for (&e, &s) in exps.iter().zip(seg) {
            sum[s] += e;
        }
        let data: Vec<f32> =
            exps.iter().zip(seg).map(|(&e, &s)| e / sum[s].max(f32::MIN_POSITIVE)).collect();
        let v = Matrix::from_vec(seg.len(), 1, data);
        self.push(Op::SegmentSoftmax(a, seg.to_vec()), v)
    }

    /// Mean over rows: (r×c) → (1×c).
    pub fn mean_rows(&mut self, a: VarId) -> VarId {
        let va = self.value(a);
        let n = va.rows() as f32;
        let mut v = Matrix::zeros(1, va.cols());
        for r in 0..va.rows() {
            for c in 0..va.cols() {
                v[(0, c)] += va[(r, c)] / n;
            }
        }
        self.push(Op::MeanRows(a), v)
    }

    /// Sum of all entries → 1×1.
    pub fn sum_all(&mut self, a: VarId) -> VarId {
        let s: f32 = self.value(a).data().iter().sum();
        self.push(Op::SumAll(a), Matrix::scalar(s))
    }

    /// Log-softmax over a single row with masking: entries where
    /// `mask[i]` is false are excluded from the normalization and output
    /// a large negative value.
    ///
    /// # Panics
    /// Panics unless `a` is a row vector of the mask's length with at
    /// least one unmasked entry.
    pub fn log_softmax_masked(&mut self, a: VarId, mask: &[bool]) -> VarId {
        let va = self.value(a);
        assert_eq!(va.rows(), 1, "expects a row vector");
        assert_eq!(mask.len(), va.cols(), "one mask bit per logit");
        assert!(mask.iter().any(|&m| m), "at least one action must be legal");
        let mut max = f32::NEG_INFINITY;
        for (i, &m) in mask.iter().enumerate() {
            if m {
                max = max.max(va[(0, i)]);
            }
        }
        let mut sum = 0.0f32;
        for (i, &m) in mask.iter().enumerate() {
            if m {
                sum += (va[(0, i)] - max).exp();
            }
        }
        let lse = max + sum.ln();
        let data: Vec<f32> = (0..mask.len())
            .map(|i| if mask[i] { va[(0, i)] - lse } else { NEG_INF })
            .collect();
        let v = Matrix::from_vec(1, mask.len(), data);
        self.push(Op::LogSoftmaxMasked(a, mask.to_vec()), v)
    }

    /// Run the backward pass from a scalar loss, accumulating parameter
    /// gradients into `params`.
    ///
    /// # Panics
    /// Panics if `loss` is not 1×1.
    pub fn backward(&mut self, loss: VarId, params: &mut Params) {
        {
            let node = &mut self.nodes[loss.0];
            assert_eq!(
                (node.value.rows(), node.value.cols()),
                (1, 1),
                "loss must be a scalar"
            );
            node.grad.fill(1.0);
        }
        for i in (0..=loss.0).rev() {
            // Take the gradient out to satisfy the borrow checker.
            let grad = std::mem::replace(
                &mut self.nodes[i].grad,
                Matrix::zeros(1, 1),
            );
            self.backprop_node(i, &grad, params);
            self.nodes[i].grad = grad;
        }
    }

    fn add_grad(&mut self, id: VarId, delta: &Matrix) {
        self.nodes[id.0].grad.add_assign(delta);
    }

    #[allow(clippy::too_many_lines)]
    fn backprop_node(&mut self, i: usize, g: &Matrix, params: &mut Params) {
        // Input deltas are computed against shared borrows of the tape
        // values and applied afterwards via `Todo`, so no forward value
        // is ever cloned here.
        enum Todo {
            None,
            One(VarId, Matrix),
            Two(VarId, Matrix, VarId, Matrix),
        }
        let todo = match &self.nodes[i].op {
            Op::Input => Todo::None,
            Op::Param(pid) => {
                params.grad_mut(*pid).add_assign(g);
                Todo::None
            }
            Op::MatMul(a, b) => {
                // Transpose-aware products: no materialized transpose
                // and no defensive clones of the forward values. The
                // fused-order row-dot kernel is fine here: the tape's
                // gradients are checked against finite differences, and
                // the tape-free backward uses the same per-cell `dot`.
                let va = &self.nodes[a.0].value;
                let vb = &self.nodes[b.0].value;
                let da = g.matmul_transposed_fast(vb);
                let db = va.transpose_matmul(g);
                Todo::Two(*a, da, *b, db)
            }
            Op::Add(a, b) => Todo::Two(*a, g.clone(), *b, g.clone()),
            Op::Sub(a, b) => {
                let mut neg = g.clone();
                neg.scale_assign(-1.0);
                Todo::Two(*a, g.clone(), *b, neg)
            }
            Op::Mul(a, b) => {
                let va = &self.nodes[a.0].value;
                let vb = &self.nodes[b.0].value;
                let da = Matrix::from_vec(
                    g.rows(),
                    g.cols(),
                    g.data().iter().zip(vb.data()).map(|(x, y)| x * y).collect(),
                );
                let db = Matrix::from_vec(
                    g.rows(),
                    g.cols(),
                    g.data().iter().zip(va.data()).map(|(x, y)| x * y).collect(),
                );
                Todo::Two(*a, da, *b, db)
            }
            Op::AddBias(x, bias) => {
                let mut db = Matrix::zeros(1, g.cols());
                for r in 0..g.rows() {
                    for c in 0..g.cols() {
                        db[(0, c)] += g[(r, c)];
                    }
                }
                Todo::Two(*x, g.clone(), *bias, db)
            }
            Op::ColMul(col, x) => {
                let vc = &self.nodes[col.0].value;
                let vx = &self.nodes[x.0].value;
                let mut dcol = Matrix::zeros(vc.rows(), 1);
                let mut dx = Matrix::zeros(vx.rows(), vx.cols());
                for r in 0..vx.rows() {
                    let k = vc[(r, 0)];
                    for c in 0..vx.cols() {
                        dcol[(r, 0)] += vx[(r, c)] * g[(r, c)];
                        dx[(r, c)] = k * g[(r, c)];
                    }
                }
                Todo::Two(*col, dcol, *x, dx)
            }
            Op::Scale(a, k) => {
                let mut da = g.clone();
                da.scale_assign(*k);
                Todo::One(*a, da)
            }
            Op::LeakyRelu(a, slope) => {
                let va = &self.nodes[a.0].value;
                let data: Vec<f32> = va
                    .data()
                    .iter()
                    .zip(g.data())
                    .map(|(&x, &gd)| if x >= 0.0 { gd } else { slope * gd })
                    .collect();
                Todo::One(*a, Matrix::from_vec(g.rows(), g.cols(), data))
            }
            Op::Relu(a) => {
                let va = &self.nodes[a.0].value;
                let data: Vec<f32> = va
                    .data()
                    .iter()
                    .zip(g.data())
                    .map(|(&x, &gd)| if x > 0.0 { gd } else { 0.0 })
                    .collect();
                Todo::One(*a, Matrix::from_vec(g.rows(), g.cols(), data))
            }
            Op::Tanh(a) => {
                let vy = &self.nodes[i].value;
                let data: Vec<f32> = vy
                    .data()
                    .iter()
                    .zip(g.data())
                    .map(|(&y, &gd)| (1.0 - y * y) * gd)
                    .collect();
                Todo::One(*a, Matrix::from_vec(g.rows(), g.cols(), data))
            }
            Op::ConcatCols(a, b) => {
                let ca = self.nodes[a.0].value.cols();
                let cb = self.nodes[b.0].value.cols();
                let rows = g.rows();
                let mut da = Matrix::zeros(rows, ca);
                let mut db = Matrix::zeros(rows, cb);
                for r in 0..rows {
                    for c in 0..ca {
                        da[(r, c)] = g[(r, c)];
                    }
                    for c in 0..cb {
                        db[(r, c)] = g[(r, ca + c)];
                    }
                }
                Todo::Two(*a, da, *b, db)
            }
            Op::GatherRows(a, idx) => {
                let va_rows = self.nodes[a.0].value.rows();
                let mut da = Matrix::zeros(va_rows, g.cols());
                for (r, &src) in idx.iter().enumerate() {
                    for c in 0..g.cols() {
                        da[(src, c)] += g[(r, c)];
                    }
                }
                Todo::One(*a, da)
            }
            Op::ScatterAddRows(a, idx) => {
                let va = &self.nodes[a.0].value;
                let mut da = Matrix::zeros(va.rows(), va.cols());
                for (r, &dst) in idx.iter().enumerate() {
                    for c in 0..va.cols() {
                        da[(r, c)] = g[(dst, c)];
                    }
                }
                Todo::One(*a, da)
            }
            Op::SegmentSoftmax(a, seg) => {
                let vy = &self.nodes[i].value;
                let nseg = seg.iter().copied().max().map_or(0, |m| m + 1);
                let mut dot = vec![0.0f32; nseg];
                for (r, &s) in seg.iter().enumerate() {
                    dot[s] += g[(r, 0)] * vy[(r, 0)];
                }
                let mut da = Matrix::zeros(vy.rows(), 1);
                for (r, &s) in seg.iter().enumerate() {
                    da[(r, 0)] = vy[(r, 0)] * (g[(r, 0)] - dot[s]);
                }
                Todo::One(*a, da)
            }
            Op::MeanRows(a) => {
                let va = &self.nodes[a.0].value;
                let n = va.rows() as f32;
                let mut da = Matrix::zeros(va.rows(), va.cols());
                for r in 0..va.rows() {
                    for c in 0..va.cols() {
                        da[(r, c)] = g[(0, c)] / n;
                    }
                }
                Todo::One(*a, da)
            }
            Op::SumAll(a) => {
                let va = &self.nodes[a.0].value;
                let da = Matrix::filled(va.rows(), va.cols(), g[(0, 0)]);
                Todo::One(*a, da)
            }
            Op::LogSoftmaxMasked(a, mask) => {
                let vy = &self.nodes[i].value;
                let mut gsum = 0.0f32;
                for (c, &m) in mask.iter().enumerate() {
                    if m {
                        gsum += g[(0, c)];
                    }
                }
                let mut da = Matrix::zeros(1, mask.len());
                for (c, &m) in mask.iter().enumerate() {
                    if m {
                        da[(0, c)] = g[(0, c)] - vy[(0, c)].exp() * gsum;
                    }
                }
                Todo::One(*a, da)
            }
        };
        match todo {
            Todo::None => {}
            Todo::One(a, da) => self.add_grad(a, &da),
            Todo::Two(a, da, b, db) => {
                self.add_grad(a, &da);
                self.add_grad(b, &db);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference gradient check helper: perturbs each entry of a
    /// parameter and compares the numeric derivative of `f` with the
    /// autograd gradient.
    fn grad_check<F>(init: Matrix, f: F)
    where
        F: Fn(&mut Graph, VarId) -> VarId,
    {
        let mut params = Params::new();
        let pid = params.register(init);
        // Analytic gradient.
        let mut g = Graph::new();
        let x = g.param(&params, pid);
        let loss = f(&mut g, x);
        g.backward(loss, &mut params);
        let analytic = params.grad(pid).clone();
        // Numeric gradient.
        let eps = 1e-3f32;
        let (rows, cols) = (analytic.rows(), analytic.cols());
        let mut numeric = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                let eval = |params: &Params| -> f32 {
                    let mut g = Graph::new();
                    let x = g.param(params, pid);
                    let loss = f(&mut g, x);
                    g.value(loss)[(0, 0)]
                };
                let orig = params.value(pid)[(r, c)];
                params.value_mut(pid)[(r, c)] = orig + eps;
                let hi = eval(&params);
                params.value_mut(pid)[(r, c)] = orig - eps;
                let lo = eval(&params);
                params.value_mut(pid)[(r, c)] = orig;
                numeric[(r, c)] = (hi - lo) / (2.0 * eps);
            }
        }
        let diff = analytic.max_abs_diff(&numeric);
        assert!(diff < 2e-2, "gradient mismatch: {diff}\n{analytic:?}\n{numeric:?}");
    }

    fn test_matrix(rows: usize, cols: usize, scale: f32) -> Matrix {
        let data: Vec<f32> =
            (0..rows * cols).map(|i| ((i as f32 * 0.7).sin()) * scale).collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn grad_matmul() {
        grad_check(test_matrix(3, 4, 1.0), |g, x| {
            let w = g.input(test_matrix(4, 2, 0.5));
            let y = g.matmul(x, w);
            g.sum_all(y)
        });
    }

    #[test]
    fn grad_matmul_rhs() {
        grad_check(test_matrix(4, 2, 1.0), |g, w| {
            let x = g.input(test_matrix(3, 4, 0.5));
            let y = g.matmul(x, w);
            let y2 = g.mul(y, y);
            g.sum_all(y2)
        });
    }

    #[test]
    fn grad_add_sub_mul() {
        grad_check(test_matrix(2, 3, 1.0), |g, x| {
            let c = g.input(test_matrix(2, 3, 0.3));
            let a = g.add(x, c);
            let s = g.sub(a, x);
            let m = g.mul(a, s);
            g.sum_all(m)
        });
    }

    #[test]
    fn grad_square_via_mul_self() {
        grad_check(test_matrix(2, 2, 1.0), |g, x| {
            let y = g.mul(x, x);
            g.sum_all(y)
        });
    }

    #[test]
    fn grad_bias_and_colmul() {
        grad_check(test_matrix(1, 3, 1.0), |g, bias| {
            let x = g.input(test_matrix(4, 3, 0.8));
            let y = g.add_bias(x, bias);
            let col = g.input(test_matrix(4, 1, 0.6));
            let z = g.col_mul(col, y);
            g.sum_all(z)
        });
    }

    #[test]
    fn grad_colmul_column() {
        grad_check(test_matrix(4, 1, 1.0), |g, col| {
            let x = g.input(test_matrix(4, 3, 0.8));
            let z = g.col_mul(col, x);
            let z2 = g.mul(z, z);
            g.sum_all(z2)
        });
    }

    #[test]
    fn grad_activations() {
        // Offset away from zero: ReLU/LeakyReLU kinks break the
        // finite-difference comparison exactly at x = 0.
        let mut init = test_matrix(3, 3, 2.0);
        for v in init.data_mut() {
            *v += if *v >= 0.0 { 0.25 } else { -0.25 };
        }
        grad_check(init, |g, x| {
            let a = g.leaky_relu(x, 0.2);
            let b = g.tanh(a);
            let c = g.relu(b);
            g.sum_all(c)
        });
    }

    #[test]
    fn grad_concat_and_scale() {
        grad_check(test_matrix(2, 2, 1.0), |g, x| {
            let y = g.input(test_matrix(2, 3, 0.4));
            let c = g.concat_cols(x, y);
            let s = g.scale(c, 1.7);
            let s2 = g.mul(s, s);
            g.sum_all(s2)
        });
    }

    #[test]
    fn grad_gather_scatter() {
        grad_check(test_matrix(4, 3, 1.0), |g, x| {
            let gth = g.gather_rows(x, &[0, 2, 2, 3, 1]);
            let sc = g.scatter_add_rows(gth, &[1, 0, 1, 2, 2], 3);
            let sq = g.mul(sc, sc);
            g.sum_all(sq)
        });
    }

    #[test]
    fn grad_segment_softmax() {
        grad_check(test_matrix(6, 1, 1.5), |g, x| {
            let sm = g.segment_softmax(x, &[0, 0, 1, 1, 1, 2]);
            let w = g.input(test_matrix(6, 1, 0.9));
            let y = g.mul(sm, w);
            g.sum_all(y)
        });
    }

    #[test]
    fn grad_mean_rows() {
        grad_check(test_matrix(5, 2, 1.0), |g, x| {
            let m = g.mean_rows(x);
            let sq = g.mul(m, m);
            g.sum_all(sq)
        });
    }

    #[test]
    fn grad_log_softmax_masked() {
        grad_check(test_matrix(1, 5, 1.0), |g, x| {
            let mask = [true, false, true, true, false];
            let lp = g.log_softmax_masked(x, &mask);
            // Weighted NLL over the legal entries.
            let w = g.input(Matrix::row(&[0.5, 0.0, 0.3, 0.2, 0.0]));
            let y = g.mul(lp, w);
            let s = g.sum_all(y);
            g.scale(s, -1.0)
        });
    }

    #[test]
    fn segment_softmax_sums_to_one_per_group() {
        let mut g = Graph::new();
        let x = g.input(test_matrix(5, 1, 2.0));
        let sm = g.segment_softmax(x, &[0, 0, 0, 1, 1]);
        let v = g.value(sm);
        let s0: f32 = (0..3).map(|i| v[(i, 0)]).sum();
        let s1: f32 = (3..5).map(|i| v[(i, 0)]).sum();
        assert!((s0 - 1.0).abs() < 1e-5);
        assert!((s1 - 1.0).abs() < 1e-5);
    }

    #[test]
    fn masked_softmax_is_distribution_over_legal_actions() {
        let mut g = Graph::new();
        let x = g.input(Matrix::row(&[1.0, 5.0, 2.0, 3.0]));
        let mask = [true, false, true, true];
        let lp = g.log_softmax_masked(x, &mask);
        let v = g.value(lp);
        let total: f32 = (0..4).filter(|&i| mask[i]).map(|i| v[(0, i)].exp()).sum();
        assert!((total - 1.0).abs() < 1e-5);
        // Masked entry is effectively -inf.
        assert!(v[(0, 1)] < -1e8);
    }

    #[test]
    fn backward_through_shared_subexpression_accumulates() {
        // loss = sum(x + x) => dx = 2.
        let mut params = Params::new();
        let pid = params.register(Matrix::filled(2, 2, 3.0));
        let mut g = Graph::new();
        let x = g.param(&params, pid);
        let y = g.add(x, x);
        let loss = g.sum_all(y);
        g.backward(loss, &mut params);
        assert_eq!(params.grad(pid), &Matrix::filled(2, 2, 2.0));
    }

    #[test]
    #[should_panic(expected = "loss must be a scalar")]
    fn backward_rejects_non_scalar() {
        let mut params = Params::new();
        let mut g = Graph::new();
        let x = g.input(Matrix::zeros(2, 2));
        g.backward(x, &mut params);
    }

    #[test]
    #[should_panic(expected = "at least one action must be legal")]
    fn fully_masked_softmax_panics() {
        let mut g = Graph::new();
        let x = g.input(Matrix::row(&[1.0, 2.0]));
        let _ = g.log_softmax_masked(x, &[false, false]);
    }
}
