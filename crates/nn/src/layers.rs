//! Network layers: fully-connected, MLP, and multi-head graph attention.

use crate::infer::{BufId, GatMemo, InferCtx, MessageIndex};
use crate::{Graph, Matrix, ParamId, Params, SeedRng, VarId};

/// A fully-connected layer `y = x W + b`.
#[derive(Debug, Clone, Copy)]
pub struct Linear {
    /// Weight parameter (`in_dim x out_dim`).
    pub weight: ParamId,
    /// Bias parameter (`1 x out_dim`).
    pub bias: ParamId,
}

impl Linear {
    /// Create a layer with Xavier-initialized weights and zero bias.
    #[must_use]
    pub fn new(params: &mut Params, in_dim: usize, out_dim: usize, rng: &mut SeedRng) -> Self {
        Linear {
            weight: params.register(rng.xavier(in_dim, out_dim)),
            bias: params.register(Matrix::zeros(1, out_dim)),
        }
    }

    /// Forward pass for a batch `x` of shape `(n x in_dim)`.
    pub fn forward(&self, g: &mut Graph, params: &Params, x: VarId) -> VarId {
        let w = g.param(params, self.weight);
        let b = g.param(params, self.bias);
        let xw = g.matmul(x, w);
        g.add_bias(xw, b)
    }

    /// Tape-free forward pass; bit-identical to [`Linear::forward`].
    /// Allocates exactly one slot, its output.
    pub fn infer(&self, ctx: &mut InferCtx, params: &Params, x: BufId) -> BufId {
        let y = ctx.matmul(x, params.value(self.weight));
        ctx.add_bias(y, params.value(self.bias));
        y
    }

    /// Backward of [`Linear::infer`] from `x` to `y`, after
    /// [`InferCtx::begin_backward`] with `y`'s gradient in place: adds
    /// the bias and weight gradients into `params` and, with
    /// `input_grad`, `x`'s gradient into the context. Bit-identical to
    /// the tape's [`Linear::forward`] + [`Graph::backward`].
    pub fn backward(
        &self,
        ctx: &mut InferCtx,
        params: &mut Params,
        x: BufId,
        y: BufId,
        input_grad: bool,
    ) {
        params.grad_mut(self.bias).add_assign(ctx.add_bias_backward(y));
        let gw = ctx.matmul_backward(x, y, params.value(self.weight), input_grad);
        params.grad_mut(self.weight).add_assign(gw);
    }
}

/// A multilayer perceptron with ReLU between layers (linear output).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Create an MLP with the given layer widths, e.g. `[64, 32, 1]`
    /// builds `in -> 64 -> 32 -> 1`.
    ///
    /// # Panics
    /// Panics if `widths` is empty.
    #[must_use]
    pub fn new(params: &mut Params, in_dim: usize, widths: &[usize], rng: &mut SeedRng) -> Self {
        assert!(!widths.is_empty(), "MLP needs at least one layer");
        let mut layers = Vec::with_capacity(widths.len());
        let mut prev = in_dim;
        for &w in widths {
            layers.push(Linear::new(params, prev, w, rng));
            prev = w;
        }
        Mlp { layers }
    }

    /// Forward pass; ReLU after every layer except the last.
    pub fn forward(&self, g: &mut Graph, params: &Params, mut x: VarId) -> VarId {
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward(g, params, x);
            if i + 1 < self.layers.len() {
                x = g.relu(x);
            }
        }
        x
    }

    /// Tape-free forward pass; bit-identical to [`Mlp::forward`].
    /// Each layer allocates one slot, so layer `i`'s output sits
    /// `depth − 1 − i` slots below the returned one.
    pub fn infer(&self, ctx: &mut InferCtx, params: &Params, mut x: BufId) -> BufId {
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.infer(ctx, params, x);
            if i + 1 < self.layers.len() {
                ctx.relu(x);
            }
        }
        x
    }

    /// Backward of [`Mlp::infer`] from `x` to `out`, layer by layer
    /// in reverse (see [`Linear::backward`]).
    pub fn backward(
        &self,
        ctx: &mut InferCtx,
        params: &mut Params,
        x: BufId,
        out: BufId,
        input_grad: bool,
    ) {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let y = BufId(out.0 - (last - i));
            if i < last {
                ctx.relu_backward(y);
            }
            let (input, want) = if i == 0 { (x, input_grad) } else { (BufId(y.0 - 1), true) };
            layer.backward(ctx, params, input, y, want);
        }
    }

    /// Number of layers.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.layers.len()
    }
}

/// One multi-head graph attention layer (Eqs. 5–8 of the paper).
///
/// Per head `k`: scores `e_uv = LeakyReLU(a_dstᵀ W h_u + a_srcᵀ W h_v)`
/// are normalized with a per-destination softmax (Eq. 6) and aggregated
/// as `h'_u = σ(Σ_v α_uv W h_v)`; heads are concatenated (Eq. 8).
/// Self-loops are appended so every node attends to itself.
#[derive(Debug, Clone)]
pub struct GatLayer {
    heads: Vec<GatHead>,
    negative_slope: f32,
}

#[derive(Debug, Clone)]
struct GatHead {
    weight: ParamId,
    att_dst: ParamId,
    att_src: ParamId,
}

impl GatLayer {
    /// Create a layer with `heads` attention heads, each producing
    /// `head_dim` features (output width = `heads * head_dim`).
    ///
    /// # Panics
    /// Panics if `heads == 0`.
    #[must_use]
    pub fn new(
        params: &mut Params,
        in_dim: usize,
        head_dim: usize,
        heads: usize,
        rng: &mut SeedRng,
    ) -> Self {
        assert!(heads > 0, "need at least one attention head");
        let heads = (0..heads)
            .map(|_| GatHead {
                weight: params.register(rng.xavier(in_dim, head_dim)),
                att_dst: params.register(rng.uniform(head_dim, 1, 0.3)),
                att_src: params.register(rng.uniform(head_dim, 1, 0.3)),
            })
            .collect();
        GatLayer { heads, negative_slope: 0.2 }
    }

    /// Forward pass.
    ///
    /// `x` is the `(n x in_dim)` node-feature matrix; `edges` lists
    /// `(src, dst)` pairs meaning *messages flow src → dst*. Self-loops
    /// `(u, u)` are appended automatically. Output is
    /// `(n x heads*head_dim)` after an ELU-like nonlinearity (tanh is
    /// used as σ for bounded embeddings).
    pub fn forward(
        &self,
        g: &mut Graph,
        params: &Params,
        x: VarId,
        edges: &[(usize, usize)],
    ) -> VarId {
        let n = g.value(x).rows();
        let mut src_idx: Vec<usize> = edges.iter().map(|&(s, _)| s).collect();
        let mut dst_idx: Vec<usize> = edges.iter().map(|&(_, d)| d).collect();
        for u in 0..n {
            src_idx.push(u);
            dst_idx.push(u);
        }
        let mut head_outputs = Vec::with_capacity(self.heads.len());
        for head in &self.heads {
            let w = g.param(params, head.weight);
            let hw = g.matmul(x, w); // (n x d)
            let a_dst = g.param(params, head.att_dst); // (d x 1)
            let a_src = g.param(params, head.att_src);
            let score_dst = g.matmul(hw, a_dst); // (n x 1)
            let score_src = g.matmul(hw, a_src);
            let e_dst = g.gather_rows(score_dst, &dst_idx); // (E x 1)
            let e_src = g.gather_rows(score_src, &src_idx);
            let e_sum = g.add(e_dst, e_src);
            let e = g.leaky_relu(e_sum, self.negative_slope);
            let alpha = g.segment_softmax(e, &dst_idx); // per-dst softmax
            let msg_in = g.gather_rows(hw, &src_idx); // (E x d)
            let msg = g.col_mul(alpha, msg_in);
            let agg = g.scatter_add_rows(msg, &dst_idx, n); // (n x d)
            head_outputs.push(g.tanh(agg));
        }
        let mut out = head_outputs[0];
        for &h in &head_outputs[1..] {
            out = g.concat_cols(out, h);
        }
        out
    }

    /// Tape-free forward pass; bit-identical to [`GatLayer::forward`].
    ///
    /// `index` must have been rebuilt for the same edge list and node
    /// count; `x` may stack several copies of that graph row-wise (the
    /// batched forward), each of which is bit-identical to its own
    /// single-graph pass. Each head's message pass is one fused kernel
    /// over the index's CSR, written into the head's column block of the
    /// layer output.
    ///
    /// **Incremental.** Each copy is computed from the one before it —
    /// the first from the last copy of the previous call through `memo`,
    /// if that call ran under the same parameters, layer and index.
    /// Only input rows that differ bit for bit get their `hw` and
    /// attention scores recomputed, and only destinations with such an
    /// in-source get their messages re-aggregated; every other row is
    /// copied. Every row's numerics depend only on its own inputs (the
    /// matmul is row-position independent, the message pass and σ run
    /// per destination and per element), so the output is bit-identical
    /// to computing every row, which is what a cold `memo` does.
    /// `candidates`, when given, lists every stacked row of `x` that can
    /// differ from the copy before it (the previous layer's
    /// [`GatMemo::dirty`]); other rows are not compared. Graphs of fewer
    /// than 32 nodes recompute every row and keep no memo: there the
    /// diffing and copying cost more than the rows they save.
    ///
    /// Slot layout, which [`GatLayer::backward`] relies on: the output,
    /// then per head `hw`, `score_dst`, `score_src` — every row filled.
    pub fn infer(
        &self,
        ctx: &mut InferCtx,
        params: &Params,
        x: BufId,
        index: &MessageIndex,
        memo: &mut GatMemo,
        candidates: Option<&[usize]>,
    ) -> BufId {
        let key = (params.fingerprint(), self.heads[0].weight.0, index.stamp());
        let head = |h: usize| {
            let head = &self.heads[h];
            [head.weight, head.att_dst, head.att_src].map(|id| params.value(id))
        };
        let slope = self.negative_slope;
        ctx.gat_layer(x, self.heads.len(), head, index, slope, memo, key, candidates)
    }

    /// Backward of [`GatLayer::infer`] from `x` to `out` (see
    /// [`Linear::backward`] for the contract). Heads run in reverse, so
    /// `x`'s gradient sums their terms in the tape's order; within a
    /// head, `hw`'s gradient takes the message term, then the
    /// `att_src` projection's, then `att_dst`'s.
    pub fn backward(
        &self,
        ctx: &mut InferCtx,
        params: &mut Params,
        x: BufId,
        out: BufId,
        index: &MessageIndex,
        input_grad: bool,
    ) {
        let d = params.value(self.heads[0].weight).cols();
        ctx.tanh_backward(out);
        for (h, head) in self.heads.iter().enumerate().rev() {
            let hw = BufId(out.0 + 1 + 3 * h);
            let (score_dst, score_src) = (BufId(hw.0 + 1), BufId(hw.0 + 2));
            ctx.gat_aggregate_backward(hw, score_dst, score_src, index, self.negative_slope, out, h * d);
            for (score, att) in [(score_src, head.att_src), (score_dst, head.att_dst)] {
                let g = ctx.matmul_backward(hw, score, params.value(att), true);
                params.grad_mut(att).add_assign(g);
            }
            let g = ctx.matmul_backward(x, hw, params.value(head.weight), input_grad);
            params.grad_mut(head.weight).add_assign(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_shapes() {
        let mut params = Params::new();
        let mut rng = SeedRng::new(0);
        let l = Linear::new(&mut params, 5, 3, &mut rng);
        let mut g = Graph::new();
        let x = g.input(Matrix::zeros(7, 5));
        let y = l.forward(&mut g, &params, x);
        assert_eq!((g.value(y).rows(), g.value(y).cols()), (7, 3));
    }

    #[test]
    fn mlp_depth_and_shapes() {
        let mut params = Params::new();
        let mut rng = SeedRng::new(0);
        let mlp = Mlp::new(&mut params, 8, &[16, 4, 1], &mut rng);
        assert_eq!(mlp.depth(), 3);
        let mut g = Graph::new();
        let x = g.input(Matrix::zeros(2, 8));
        let y = mlp.forward(&mut g, &params, x);
        assert_eq!((g.value(y).rows(), g.value(y).cols()), (2, 1));
    }

    #[test]
    fn gat_output_shape_is_heads_times_dim() {
        let mut params = Params::new();
        let mut rng = SeedRng::new(3);
        let gat = GatLayer::new(&mut params, 6, 4, 2, &mut rng);
        let mut g = Graph::new();
        let x = g.input(Matrix::filled(5, 6, 0.1));
        let y = gat.forward(&mut g, &params, x, &[(0, 1), (1, 2), (3, 4)]);
        assert_eq!((g.value(y).rows(), g.value(y).cols()), (5, 8));
    }

    #[test]
    fn gat_isolated_node_attends_to_itself() {
        // Node 2 has no edges; self-loop keeps its output finite.
        let mut params = Params::new();
        let mut rng = SeedRng::new(3);
        let gat = GatLayer::new(&mut params, 4, 4, 1, &mut rng);
        let mut g = Graph::new();
        let x = g.input(Matrix::filled(3, 4, 0.5));
        let y = gat.forward(&mut g, &params, x, &[(0, 1)]);
        assert!(g.value(y).data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn gat_gradients_flow_to_all_parameters() {
        let mut params = Params::new();
        let mut rng = SeedRng::new(9);
        let gat = GatLayer::new(&mut params, 4, 3, 2, &mut rng);
        let mut g = Graph::new();
        let data: Vec<f32> = (0..20).map(|i| (i as f32 * 0.37).sin()).collect();
        let x = g.input(Matrix::from_vec(5, 4, data));
        let y = gat.forward(&mut g, &params, x, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let sq = g.mul(y, y);
        let loss = g.sum_all(sq);
        g.backward(loss, &mut params);
        for id in params.ids() {
            assert!(params.grad(id).norm() > 0.0, "no gradient reached {id:?}");
        }
    }

    #[test]
    fn infer_paths_match_graph_forward_bitwise() {
        let mut params = Params::new();
        let mut rng = SeedRng::new(21);
        let gat = GatLayer::new(&mut params, 6, 4, 2, &mut rng);
        let mlp = Mlp::new(&mut params, 8, &[5, 3], &mut rng);
        let edges = [(0usize, 1usize), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4)];
        let xdata: Vec<f32> = (0..30).map(|i| (i as f32 * 0.43).sin()).collect();
        let x = Matrix::from_vec(5, 6, xdata);

        let mut ctx = InferCtx::new();
        let mut index = MessageIndex::new();
        index.rebuild(&edges, 5);

        // GAT
        let mut g = Graph::new();
        let gx = g.input(x.clone());
        let gy = gat.forward(&mut g, &params, gx, &edges);
        ctx.begin();
        let cx = ctx.load(&x);
        let cy = gat.infer(&mut ctx, &params, cx, &index, &mut GatMemo::new(), None);
        assert_eq!(ctx.value(cy), g.value(gy), "GAT infer diverged");

        // MLP (ReLU between layers)
        let mdata: Vec<f32> = (0..16).map(|i| (i as f32 * 0.61).cos()).collect();
        let mx = Matrix::from_vec(2, 8, mdata);
        let mut g = Graph::new();
        let gx = g.input(mx.clone());
        let gy = mlp.forward(&mut g, &params, gx);
        ctx.begin();
        let cx = ctx.load(&mx);
        let cy = mlp.infer(&mut ctx, &params, cx);
        assert_eq!(ctx.value(cy), g.value(gy), "MLP infer diverged");
    }

    #[test]
    fn gat_message_direction_matters() {
        // A lone directed edge 0 -> 1 must change node 1's embedding,
        // not node 0's (beyond its self-loop).
        let mut params = Params::new();
        let mut rng = SeedRng::new(11);
        let gat = GatLayer::new(&mut params, 3, 3, 1, &mut rng);
        let base = Matrix::from_rows(&[&[0.1, 0.2, 0.3], &[0.4, 0.5, 0.6]]);
        let run = |edges: &[(usize, usize)], params: &Params| {
            let mut g = Graph::new();
            let x = g.input(base.clone());
            let y = gat.forward(&mut g, params, x, edges);
            g.value(y).clone()
        };
        let with_edge = run(&[(0, 1)], &params);
        let without = run(&[], &params);
        // Node 0's row is unchanged, node 1's differs.
        let row0_diff: f32 =
            (0..3).map(|c| (with_edge[(0, c)] - without[(0, c)]).abs()).sum();
        let row1_diff: f32 =
            (0..3).map(|c| (with_edge[(1, c)] - without[(1, c)]).abs()).sum();
        assert!(row0_diff < 1e-6);
        assert!(row1_diff > 1e-6);
    }
}
