//! Tape-free inference and training: a reusable scratch workspace for
//! forward passes and their hand-derived backward.
//!
//! [`crate::Graph`] records every op so it can differentiate; at search
//! time MapZero only needs values, yet each `predict` used to pay for a
//! fresh tape (one value *and* one zeroed gradient matrix per op, plus
//! cloned parameter leaves). [`InferCtx`] replaces the tape with a bump
//! arena of [`Matrix`] slots that are reshaped in place and reused
//! across forward passes, so a warmed-up context runs the whole network
//! without touching the allocator. Training reuses the same forward and
//! keeps one gradient per slot for the backward walk (see
//! [`InferCtx::begin_backward`]).
//!
//! Every op here is **bit-identical** to its tape counterpart (or, for
//! the fused message passes, to the tape op chain it replaces): the
//! same accumulation order, the same zero-skips, the same clamping. The
//! proptests in `mapzero-core`'s `network` tests,
//! `crates/nn/tests/message_passing_oracle.rs`,
//! `crates/nn/tests/backward_oracle.rs` and the equivalence tests below
//! hold the two paths equal, so the Graph remains the single source of
//! truth for numerics.
//!
//! Slot handles ([`BufId`]) are only valid until the next
//! [`InferCtx::begin`]; ops that produce a new value always allocate a
//! slot *after* their inputs, which is what lets the arena hand out
//! disjoint borrows without interior mutability.

use crate::{Matrix, NEG_INF};

/// Handle to one scratch matrix inside an [`InferCtx`]. Invalidated by
/// [`InferCtx::begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufId(pub(crate) usize);

/// Bump-arena workspace for tape-free forward passes and, through
/// [`InferCtx::begin_backward`], their gradients.
#[derive(Default)]
pub struct InferCtx {
    slots: Vec<Matrix>,
    /// One gradient per slot, sized by [`InferCtx::begin_backward`].
    grads: Vec<Matrix>,
    used: usize,
    /// Per-message attention scores of the current GAT head.
    edge_scratch: Vec<f32>,
    /// Per-message score gradients of the current GAT head (backward).
    edge_grad: Vec<f32>,
    /// The last parameter gradient a backward op produced.
    param_grad: Matrix,
}

impl InferCtx {
    /// Empty workspace.
    #[must_use]
    pub fn new() -> Self {
        InferCtx::default()
    }

    /// Start a new forward pass: previously handed-out [`BufId`]s are
    /// invalidated, slot storage is retained for reuse.
    pub fn begin(&mut self) {
        self.used = 0;
    }

    /// Allocate a zeroed `rows x cols` slot, reusing storage when the
    /// arena already holds a matrix at this position.
    fn alloc(&mut self, rows: usize, cols: usize) -> BufId {
        if self.used == self.slots.len() {
            self.slots.push(Matrix::zeros(rows, cols));
        } else {
            self.slots[self.used].resize_to(rows, cols);
        }
        let id = BufId(self.used);
        self.used += 1;
        id
    }

    /// Copy an external matrix into a fresh slot.
    pub fn load(&mut self, m: &Matrix) -> BufId {
        let id = self.alloc(m.rows(), m.cols());
        self.slots[id.0].copy_from(m);
        id
    }

    /// Stack several equal-width matrices row-wise into one fresh slot
    /// — the disjoint-union load of the batched forward pass: K graph
    /// observations become one `(Σ rows) x cols` node-feature matrix.
    ///
    /// # Panics
    /// Panics on an empty input or a width mismatch.
    pub fn load_stacked(&mut self, mats: &[&Matrix]) -> BufId {
        assert!(!mats.is_empty(), "load_stacked needs at least one matrix");
        let cols = mats[0].cols();
        let rows = mats.iter().map(|m| m.rows()).sum();
        let id = self.alloc(rows, cols);
        let out = &mut self.slots[id.0];
        let mut r = 0;
        for m in mats {
            assert_eq!(m.cols(), cols, "load_stacked width mismatch");
            for i in 0..m.rows() {
                out.row_slice_mut(r + i).copy_from_slice(m.row_slice(i));
            }
            r += m.rows();
        }
        id
    }

    /// Read a slot's current value.
    ///
    /// # Panics
    /// Panics on a stale handle (from before the last [`InferCtx::begin`]).
    #[must_use]
    pub fn value(&self, id: BufId) -> &Matrix {
        assert!(id.0 < self.used, "stale BufId");
        &self.slots[id.0]
    }

    /// Disjoint (&mut write, &read) access to two distinct slots.
    fn pair_mut(&mut self, write: BufId, read: BufId) -> (&mut Matrix, &Matrix) {
        assert_ne!(write.0, read.0, "aliasing slot access");
        if write.0 < read.0 {
            let (lo, hi) = self.slots.split_at_mut(read.0);
            (&mut lo[write.0], &hi[0])
        } else {
            let (lo, hi) = self.slots.split_at_mut(write.0);
            (&mut hi[0], &lo[read.0])
        }
    }

    /// `x @ w` into a fresh slot (`w` is an external matrix, typically
    /// a parameter value).
    pub fn matmul(&mut self, x: BufId, w: &Matrix) -> BufId {
        let out = self.alloc(1, 1);
        let (o, xv) = self.pair_mut(out, x);
        xv.matmul_into(w, o);
        out
    }

    /// Broadcast-add a `1 x c` bias onto every row of `x`, in place.
    ///
    /// # Panics
    /// Panics unless `bias` is a row vector of `x`'s width.
    pub fn add_bias(&mut self, x: BufId, bias: &Matrix) {
        let xv = &mut self.slots[x.0];
        assert_eq!(bias.rows(), 1, "bias must be a row vector");
        assert_eq!(bias.cols(), xv.cols(), "bias width mismatch");
        let brow = bias.row_slice(0);
        for r in 0..xv.rows() {
            for (v, &b) in xv.row_slice_mut(r).iter_mut().zip(brow) {
                *v += b;
            }
        }
    }

    /// ReLU in place.
    pub fn relu(&mut self, x: BufId) {
        self.slots[x.0].map_assign(|v| v.max(0.0));
    }

    /// tanh in place (kernel-dispatched, see [`crate::simd::tanh_map`]).
    pub fn tanh(&mut self, x: BufId) {
        crate::simd::tanh_map(self.slots[x.0].data_mut());
    }

    /// Per-group mean over rows into a fresh `groups x c` slot: row `g`
    /// is the mean of the `rows/groups` consecutive input rows of group
    /// `g`, accumulated as ascending-row `x / n` exactly like
    /// [`crate::Graph::mean_rows`] — so each group of the batched
    /// forward pools bit-identically to the single-graph tape pass.
    ///
    /// # Panics
    /// Panics unless `groups` divides the row count.
    pub fn mean_rows_grouped(&mut self, a: BufId, groups: usize) -> BufId {
        let (rows, cols) = (self.slots[a.0].rows(), self.slots[a.0].cols());
        assert!(groups > 0 && rows % groups == 0, "groups must divide {rows} rows");
        let per = rows / groups;
        let out = self.alloc(groups, cols);
        let (o, av) = self.pair_mut(out, a);
        let n = per as f32;
        for g in 0..groups {
            for r in 0..per {
                for (v, &x) in o.row_slice_mut(g).iter_mut().zip(av.row_slice(g * per + r)) {
                    *v += x / n;
                }
            }
        }
        out
    }

    /// Concatenate two slots along columns into a fresh slot.
    ///
    /// # Panics
    /// Panics on row-count mismatch.
    pub fn concat_cols(&mut self, a: BufId, b: BufId) -> BufId {
        let (ra, ca) = (self.slots[a.0].rows(), self.slots[a.0].cols());
        let (rb, cb) = (self.slots[b.0].rows(), self.slots[b.0].cols());
        assert_eq!(ra, rb, "row count mismatch");
        let out = self.alloc(ra, ca + cb);
        let (o, av) = self.pair_mut(out, a);
        for r in 0..ra {
            o.row_slice_mut(r)[..ca].copy_from_slice(av.row_slice(r));
        }
        let (o, bv) = self.pair_mut(out, b);
        for r in 0..ra {
            o.row_slice_mut(r)[ca..].copy_from_slice(bv.row_slice(r));
        }
        out
    }

    /// Allocate a zeroed `rows x cols` slot, for ops that fill it in
    /// column blocks ([`InferCtx::gat_aggregate`]).
    pub fn zeros(&mut self, rows: usize, cols: usize) -> BufId {
        self.alloc(rows, cols)
    }

    /// One GAT head's message pass (Eqs. 6–7), before the output
    /// nonlinearity, written into columns `col..col + d` of `out`
    /// (zero there on entry): per destination `v`, the scores
    /// `LeakyReLU(score_dst[v] + score_src[u])` over its in-edges are
    /// softmax-normalized and `Σ α_uv · hw[u]` is accumulated. Writing
    /// each head into its block of one layer output is the tape's
    /// per-head `concat_cols`, without the copies.
    ///
    /// `hw` (`rows x d`) and the `rows x 1` score columns hold one or
    /// more stacked copies of `index`'s graph (`rows` a multiple of
    /// `index.n()`); each copy runs over the same index with its own
    /// row offset. Bit-identical per copy to the tape chain
    /// `gather_rows` → `add` → `leaky_relu` → `segment_softmax` →
    /// `col_mul` → `scatter_add_rows` under either [`crate::simd::SimdKind`]:
    /// the CSR keeps every destination's messages in ascending edge
    /// order, so each output element sees the same operations on the
    /// same values in the same order. See `simd::gat_aggregate`.
    ///
    /// # Panics
    /// Panics on shape mismatches, if `rows` is not a positive multiple
    /// of the index's node count, or if `out` aliases an input.
    #[allow(clippy::too_many_arguments)]
    pub fn gat_aggregate(
        &mut self,
        hw: BufId,
        score_dst: BufId,
        score_src: BufId,
        index: &MessageIndex,
        slope: f32,
        out: BufId,
        col: usize,
    ) {
        assert!(
            out.0 < self.used && ![hw, score_dst, score_src].contains(&out),
            "bad output slot"
        );
        let mut o = std::mem::take(&mut self.slots[out.0]);
        let hwv = &self.slots[hw.0];
        let (sd, ss) = (&self.slots[score_dst.0], &self.slots[score_src.0]);
        let (rows, d) = (hwv.rows(), hwv.cols());
        index.check_rows(rows);
        assert!(sd.data().len() == rows && ss.data().len() == rows, "one score per node row");
        assert!(o.rows() == rows && col + d <= o.cols(), "output block out of bounds");
        let stride = o.cols();
        crate::simd::gat_aggregate(
            o.data_mut(),
            stride,
            col,
            hwv.data(),
            d,
            (sd.data(), ss.data()),
            index,
            slope,
            &mut self.edge_scratch,
        );
        self.slots[out.0] = o;
    }
}

/// # Backward
///
/// The training step runs one forward per sample, then walks it back
/// by hand: [`InferCtx::begin_backward`] gives every live slot a zeroed
/// gradient, and each op below accumulates its input gradients the way
/// the tape's `Graph::backward` does — same kernels, same order, same
/// zero-skips — so parameter gradients are bit-identical to the tape's.
/// In-place forward ops (bias, ReLU, tanh) are walked back in place on
/// their slot's gradient: ReLU reads `y > 0` and tanh `1 − y²` off the
/// output, exactly the tape's rules. Where the tape would add a fresh
/// delta into a zero gradient, these ops write the same value; the two
/// can differ only in the sign of an exact zero, which no later sum,
/// product or parameter update can observe.
impl InferCtx {
    /// Start the backward pass of the forward recorded since the last
    /// [`InferCtx::begin`]: every live slot gets a zeroed gradient of
    /// its shape, addressed by the slot's [`BufId`].
    pub fn begin_backward(&mut self) {
        for i in 0..self.used {
            let (rows, cols) = (self.slots[i].rows(), self.slots[i].cols());
            if i == self.grads.len() {
                self.grads.push(Matrix::zeros(rows, cols));
            } else {
                self.grads[i].resize_to(rows, cols);
            }
        }
    }

    /// A slot's gradient.
    ///
    /// # Panics
    /// Panics on a stale handle or before [`InferCtx::begin_backward`].
    #[must_use]
    pub fn grad(&self, id: BufId) -> &Matrix {
        assert!(id.0 < self.used, "stale BufId");
        &self.grads[id.0]
    }

    /// A slot's gradient, for seeding the backward pass.
    ///
    /// # Panics
    /// Same contract as [`InferCtx::grad`].
    pub fn grad_mut(&mut self, id: BufId) -> &mut Matrix {
        assert!(id.0 < self.used, "stale BufId");
        &mut self.grads[id.0]
    }

    /// ReLU backward, in place on `y`'s gradient: kept where the output
    /// is positive (`max(x, 0) > 0` exactly when `x > 0`).
    pub fn relu_backward(&mut self, y: BufId) {
        for (g, &v) in self.grads[y.0].data_mut().iter_mut().zip(self.slots[y.0].data()) {
            *g = if v > 0.0 { *g } else { 0.0 };
        }
    }

    /// tanh backward, in place on `y`'s gradient: `g ← (1 − y²) · g`.
    pub fn tanh_backward(&mut self, y: BufId) {
        for (g, &v) in self.grads[y.0].data_mut().iter_mut().zip(self.slots[y.0].data()) {
            *g *= 1.0 - v * v;
        }
    }

    /// Bias backward of [`InferCtx::add_bias`] on `y`: the column sums
    /// of `y`'s gradient in ascending row order. The slot's own
    /// gradient passes through unchanged.
    pub fn add_bias_backward(&mut self, y: BufId) -> &Matrix {
        let g = &self.grads[y.0];
        self.param_grad.resize_to(1, g.cols());
        for r in 0..g.rows() {
            for (acc, &v) in self.param_grad.data_mut().iter_mut().zip(g.row_slice(r)) {
                *acc += v;
            }
        }
        &self.param_grad
    }

    /// Backward of `y = x @ w` ([`InferCtx::matmul`]): returns the
    /// weight gradient `xᵀ · gy` ([`Matrix::transpose_matmul`]) and,
    /// with `input_grad`, adds `gy · wᵀ`
    /// ([`Matrix::matmul_transposed_fast`]) into `x`'s gradient. Skip
    /// the input side for raw features nothing consumes.
    pub fn matmul_backward(&mut self, x: BufId, y: BufId, w: &Matrix, input_grad: bool) -> &Matrix {
        assert_ne!(x, y, "aliasing slot access");
        if input_grad {
            let mut gx = std::mem::take(&mut self.grads[x.0]);
            self.grads[y.0].matmul_transposed_fast_acc(w, &mut gx);
            self.grads[x.0] = gx;
        }
        self.slots[x.0].transpose_matmul_into(&self.grads[y.0], &mut self.param_grad);
        &self.param_grad
    }

    /// Backward of [`InferCtx::mean_rows_grouped`]: every input row of
    /// group `g` gets `gout[g] / n`.
    pub fn mean_rows_grouped_backward(&mut self, a: BufId, out: BufId, groups: usize) {
        assert_ne!(a, out, "aliasing slot access");
        let mut ga = std::mem::take(&mut self.grads[a.0]);
        let go = &self.grads[out.0];
        let per = ga.rows() / groups;
        let n = per as f32;
        for r in 0..ga.rows() {
            for (acc, &g) in ga.row_slice_mut(r).iter_mut().zip(go.row_slice(r / per)) {
                *acc += g / n;
            }
        }
        self.grads[a.0] = ga;
    }

    /// Backward of [`InferCtx::concat_cols`]: `out`'s gradient splits
    /// back into `a`'s columns and `b`'s.
    pub fn concat_cols_backward(&mut self, a: BufId, b: BufId, out: BufId) {
        assert!(a != out && b != out && a != b, "aliasing slot access");
        let go = std::mem::take(&mut self.grads[out.0]);
        let ca = self.grads[a.0].cols();
        for (id, cols) in [(a, 0..ca), (b, ca..go.cols())] {
            let gx = &mut self.grads[id.0];
            for r in 0..go.rows() {
                for (acc, &g) in gx.row_slice_mut(r).iter_mut().zip(&go.row_slice(r)[cols.clone()]) {
                    *acc += g;
                }
            }
        }
        self.grads[out.0] = go;
    }

    /// Backward of one [`InferCtx::gat_aggregate`] head: reads the
    /// gradient of `out`'s columns `col..col + d` (already through the
    /// output tanh) and accumulates into the gradients of `hw`,
    /// `score_dst` and `score_src` — the tape's chain from
    /// `scatter_add_rows` back to the score gathers, in its order (see
    /// `simd::gat_aggregate_backward`).
    ///
    /// Call it before the score projections' [`InferCtx::matmul_backward`]:
    /// the tape's `hw` takes its message term first.
    #[allow(clippy::too_many_arguments)]
    pub fn gat_aggregate_backward(
        &mut self,
        hw: BufId,
        score_dst: BufId,
        score_src: BufId,
        index: &MessageIndex,
        slope: f32,
        out: BufId,
        col: usize,
    ) {
        assert!(
            ![hw, score_dst, score_src].contains(&out)
                && hw != score_dst
                && hw != score_src
                && score_dst != score_src,
            "aliasing slot access"
        );
        let mut ghw = std::mem::take(&mut self.grads[hw.0]);
        let mut gsd = std::mem::take(&mut self.grads[score_dst.0]);
        let mut gss = std::mem::take(&mut self.grads[score_src.0]);
        let go = &self.grads[out.0];
        let hwv = &self.slots[hw.0];
        let (sd, ss) = (&self.slots[score_dst.0], &self.slots[score_src.0]);
        let (rows, d) = (hwv.rows(), hwv.cols());
        index.check_rows(rows);
        assert!(sd.data().len() == rows && ss.data().len() == rows, "one score per node row");
        assert!(go.rows() == rows && col + d <= go.cols(), "output block out of bounds");
        crate::simd::gat_aggregate_backward(
            (go.data(), go.cols(), col),
            hwv.data(),
            d,
            (sd.data(), ss.data()),
            index,
            slope,
            (ghw.data_mut(), gsd.data_mut(), gss.data_mut()),
            (&mut self.edge_scratch, &mut self.edge_grad),
        );
        self.grads[hw.0] = ghw;
        self.grads[score_dst.0] = gsd;
        self.grads[score_src.0] = gss;
    }

}

/// Masked log-softmax over one row of logits, written into a
/// caller-provided buffer; same numerics (and the same `NEG_INF`
/// stand-in for masked entries) as [`crate::Graph::log_softmax_masked`].
///
/// # Panics
/// Panics unless `logits.len() == mask.len()` with at least one
/// unmasked entry.
pub fn log_softmax_masked_into(logits: &[f32], mask: &[bool], out: &mut Vec<f32>) {
    assert_eq!(mask.len(), logits.len(), "one mask bit per logit");
    assert!(mask.iter().any(|&m| m), "at least one action must be legal");
    let mut max = f32::NEG_INFINITY;
    for (&v, &m) in logits.iter().zip(mask) {
        if m {
            max = max.max(v);
        }
    }
    let mut sum = 0.0f32;
    for (&v, &m) in logits.iter().zip(mask) {
        if m {
            sum += (v - max).exp();
        }
    }
    let lse = max + sum.ln();
    out.clear();
    out.extend(
        logits.iter().zip(mask).map(|(&v, &m)| if m { v - lse } else { NEG_INF }),
    );
}

/// SIMD variant of [`log_softmax_masked_into`]: the masked max runs
/// through the order-insensitive [`crate::simd::max_masked`] reduction
/// (bit-exact) and the normalizer through the fused-order
/// [`crate::simd::sum_exp_masked`] reduction, which reassociates the
/// sum. Results therefore match the scalar form only within the kernel
/// tolerance contract (≤1e-5); masked entries are still exactly
/// `NEG_INF`. Used by the K>1 batched forward, whose contract is
/// tolerance- rather than bit-governed; honors `MAPZERO_SIMD=scalar`,
/// under which it degrades to the scalar form exactly.
///
/// # Panics
/// Same contract as [`log_softmax_masked_into`].
pub fn log_softmax_masked_fused_into(logits: &[f32], mask: &[bool], out: &mut Vec<f32>) {
    assert_eq!(mask.len(), logits.len(), "one mask bit per logit");
    assert!(mask.iter().any(|&m| m), "at least one action must be legal");
    let max = crate::simd::max_masked(logits, mask);
    let sum = crate::simd::sum_exp_masked(logits, mask, max);
    let lse = max + sum.ln();
    out.clear();
    out.extend(
        logits.iter().zip(mask).map(|(&v, &m)| if m { v - lse } else { NEG_INF }),
    );
}

/// Precomputed message routing for one graph, in compressed sparse
/// row (CSR) form grouped by destination: the messages are the
/// `(src, dst)` edges with one self-loop per node appended — exactly
/// what [`crate::GatLayer::forward`] rebuilds on every tape pass — and
/// node `v`'s in-sources are `sources[offsets[v]..offsets[v + 1]]`, in
/// ascending message order (its in-edges in edge-list order, then its
/// self-loop). Also carries the same messages grouped by source, which
/// the training backward walks to accumulate per-source gradients in the
/// tape's order.
///
/// [`MessageIndex::rebuild`] keeps the index while the edge list and
/// node count are unchanged, so a search that queries one problem's
/// graphs over and over builds each index once.
#[derive(Debug, Default, Clone)]
pub struct MessageIndex {
    edges: Vec<(usize, usize)>,
    offsets: Vec<usize>,
    sources: Vec<usize>,
    /// Per-source ranges of `by_source`.
    source_offsets: Vec<usize>,
    /// `(CSR position, dst)` of every message, grouped by source, each
    /// source's in original message order (edges in list order, then
    /// the self-loop).
    by_source: Vec<(usize, usize)>,
}

impl MessageIndex {
    /// Empty index; call [`MessageIndex::rebuild`] before use.
    #[must_use]
    pub fn new() -> Self {
        MessageIndex::default()
    }

    /// Populate for `n` nodes and the given `(src, dst)` edge list,
    /// reusing existing storage. A no-op when the index was last built
    /// from an equal edge list (compared element by element) for the
    /// same `n`.
    ///
    /// The CSR comes from a stable counting sort by destination, so
    /// within each destination the messages keep their ascending
    /// original order — the accumulation order of the tape path.
    ///
    /// # Panics
    /// Panics if an edge endpoint is `>= n`.
    pub fn rebuild(&mut self, edges: &[(usize, usize)], n: usize) {
        if self.offsets.len() == n + 1 && self.edges == edges {
            return;
        }
        self.edges.clear();
        self.edges.extend_from_slice(edges);
        // Counts land one slot right so the prefix sum yields starts.
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for &(s, d) in edges {
            assert!(s < n && d < n, "edge ({s}, {d}) out of range for {n} nodes");
            self.offsets[d + 1] += 1;
        }
        for v in 0..n {
            self.offsets[v + 1] += self.offsets[v] + 1; // + the self-loop
        }
        // Scatter with `offsets[v]` as v's write cursor: edges in list
        // order, then the self-loops, which follow every edge.
        self.sources.clear();
        self.sources.resize(edges.len() + n, 0);
        // The same stable counting sort by source, over (position, dst).
        self.source_offsets.clear();
        self.source_offsets.resize(n + 1, 0);
        for &(s, _) in edges {
            self.source_offsets[s + 1] += 1;
        }
        for v in 0..n {
            self.source_offsets[v + 1] += self.source_offsets[v] + 1;
        }
        self.by_source.clear();
        self.by_source.resize(edges.len() + n, (0, 0));
        let self_loops = (0..n).map(|v| (v, v));
        for (s, d) in edges.iter().copied().chain(self_loops) {
            self.sources[self.offsets[d]] = s;
            self.by_source[self.source_offsets[s]] = (self.offsets[d], d);
            self.offsets[d] += 1;
            self.source_offsets[s] += 1;
        }
        // Each cursor now sits at the next node's start.
        for starts in [&mut self.offsets, &mut self.source_offsets] {
            starts.copy_within(0..n, 1);
            starts[0] = 0;
        }
    }

    /// Node count this index was built for.
    #[must_use]
    pub fn n(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// CSR row offsets: node `v`'s messages are
    /// `sources()[offsets()[v]..offsets()[v + 1]]`.
    #[must_use]
    pub(crate) fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Message sources grouped by destination (see [`MessageIndex`]).
    #[must_use]
    pub(crate) fn sources(&self) -> &[usize] {
        &self.sources
    }

    /// Node `v`'s message sources in ascending message order.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn in_sources(&self, v: usize) -> &[usize] {
        &self.sources[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Node `u`'s outgoing messages as `(CSR position, dst)`, in
    /// original message order: its edges in list order, then its
    /// self-loop — the order the tape's gather backward sums them in.
    #[must_use]
    pub(crate) fn out_messages(&self, u: usize) -> &[(usize, usize)] {
        &self.by_source[self.source_offsets[u]..self.source_offsets[u + 1]]
    }

    /// Assert that `rows` stacks a positive whole number of copies of
    /// this index's graph.
    fn check_rows(&self, rows: usize) {
        let n = self.n();
        assert!(
            n > 0 && rows.is_multiple_of(n),
            "{rows} rows do not stack copies of a {n}-node index"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn test_matrix(rows: usize, cols: usize, scale: f32) -> Matrix {
        let data: Vec<f32> =
            (0..rows * cols).map(|i| ((i as f32 * 0.7).sin()) * scale).collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn ops_match_graph_ops_bitwise() {
        let x = test_matrix(5, 4, 1.3);
        let w = test_matrix(4, 3, 0.7);
        let bias = test_matrix(1, 3, 0.2);

        let mut g = Graph::new();
        let gx = g.input(x.clone());
        let gw = g.input(w.clone());
        let gb = g.input(bias.clone());
        let gmm = g.matmul(gx, gw);
        let gbias = g.add_bias(gmm, gb);
        let gtanh = g.tanh(gbias);
        let gcat = g.concat_cols(gtanh, gx);
        let gmean = g.mean_rows(gcat);

        let mut ctx = InferCtx::new();
        ctx.begin();
        let cx = ctx.load(&x);
        let cmm = ctx.matmul(cx, &w);
        ctx.add_bias(cmm, &bias);
        ctx.tanh(cmm);
        let ccat = ctx.concat_cols(cmm, cx);
        let cmean = ctx.mean_rows_grouped(ccat, 1);

        assert_eq!(ctx.value(ccat), g.value(gcat));
        assert_eq!(ctx.value(cmean), g.value(gmean));
    }

    #[test]
    fn log_softmax_masked_matches_graph() {
        let logits = test_matrix(1, 6, 1.7);
        let mask = [true, false, true, true, false, true];
        let mut g = Graph::new();
        let gl = g.input(logits.clone());
        let glp = g.log_softmax_masked(gl, &mask);
        let mut out = Vec::new();
        log_softmax_masked_into(logits.row_slice(0), &mask, &mut out);
        assert_eq!(out.as_slice(), g.value(glp).row_slice(0));
    }

    #[test]
    fn slots_are_reused_across_begins() {
        let x = test_matrix(3, 3, 1.0);
        let mut ctx = InferCtx::new();
        ctx.begin();
        let a = ctx.load(&x);
        let _ = ctx.matmul(a, &x);
        let high_water = ctx.slots.len();
        for _ in 0..10 {
            ctx.begin();
            let a = ctx.load(&x);
            let _ = ctx.matmul(a, &x);
        }
        assert_eq!(ctx.slots.len(), high_water, "no new slots after warm-up");
    }

    #[test]
    fn message_index_groups_messages_by_destination_in_edge_order() {
        // A duplicate edge (0→1 twice), an explicit self-edge (2→2),
        // and node 3 with no in-edges besides its self-loop.
        let edges = [(0usize, 1usize), (2, 1), (0, 1), (2, 2), (1, 0)];
        let mut idx = MessageIndex::new();
        idx.rebuild(&edges, 4);
        assert_eq!(idx.n(), 4);
        assert_eq!(idx.offsets(), &[0, 2, 6, 8, 9]);
        // Per destination: in-edges in list order, then the self-loop.
        assert_eq!(idx.in_sources(0), &[1, 0]);
        assert_eq!(idx.in_sources(1), &[0, 2, 0, 1]);
        assert_eq!(idx.in_sources(2), &[2, 2]);
        assert_eq!(idx.in_sources(3), &[3]);
        assert_eq!(idx.sources().len(), edges.len() + 4);
        idx.rebuild(&[], 2);
        assert_eq!(idx.offsets(), &[0, 1, 2]);
        assert_eq!(idx.sources(), &[0, 1]);
        assert_eq!(idx.n(), 2);
    }

    #[test]
    fn message_index_rebuilds_only_when_edges_or_size_change() {
        let mut idx = MessageIndex::new();
        idx.rebuild(&[(0, 1)], 2);
        let first = idx.sources().as_ptr();
        idx.rebuild(&[(0, 1)], 2);
        assert_eq!(idx.sources().as_ptr(), first, "equal inputs keep the index");
        assert_eq!(idx.in_sources(1), &[0, 1]);
        // Same node count, different links.
        idx.rebuild(&[(1, 0)], 2);
        assert_eq!(idx.in_sources(0), &[1, 0]);
        assert_eq!(idx.in_sources(1), &[1]);
        // Same links, more nodes.
        idx.rebuild(&[(1, 0)], 3);
        assert_eq!(idx.offsets(), &[0, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn message_index_rejects_out_of_range_edges() {
        MessageIndex::new().rebuild(&[(0, 2)], 2);
    }

    #[test]
    fn load_stacked_and_grouped_mean_match_per_graph_ops() {
        let a = test_matrix(4, 3, 1.1);
        let b = test_matrix(4, 3, 0.6);
        let mut ctx = InferCtx::new();
        ctx.begin();
        let stacked = ctx.load_stacked(&[&a, &b]);
        assert_eq!(ctx.value(stacked).rows(), 8);
        assert_eq!(ctx.value(stacked).row_slice(5), b.row_slice(1));
        let means = ctx.mean_rows_grouped(stacked, 2);
        for (row, m) in [&a, &b].into_iter().enumerate() {
            let mut g = Graph::new();
            let gm = g.input(m.clone());
            let mean = g.mean_rows(gm);
            assert_eq!(ctx.value(means).row_slice(row), g.value(mean).row_slice(0));
        }
    }

    #[test]
    fn fused_log_softmax_stays_within_tolerance_of_scalar() {
        let logits = test_matrix(1, 21, 2.3);
        let mask: Vec<bool> = (0..21).map(|i| i % 4 != 1).collect();
        let mut scalar = Vec::new();
        log_softmax_masked_into(logits.row_slice(0), &mask, &mut scalar);
        let mut fused = Vec::new();
        log_softmax_masked_fused_into(logits.row_slice(0), &mask, &mut fused);
        for ((s, f), &m) in scalar.iter().zip(&fused).zip(&mask) {
            if m {
                assert!((s - f).abs() <= 1e-5, "unmasked entry drifted: {s} vs {f}");
            } else {
                assert_eq!(*f, NEG_INF, "masked entries must stay pinned");
            }
        }
    }

    #[test]
    #[should_panic(expected = "stale BufId")]
    fn stale_handles_panic() {
        let mut ctx = InferCtx::new();
        ctx.begin();
        let a = ctx.load(&Matrix::zeros(1, 1));
        ctx.begin();
        let _ = ctx.value(a);
    }
}
