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
//!
//! The graph-attention layer is incremental: with a [`GatMemo`] of its
//! previous call, [`crate::GatLayer::infer`] recomputes only the rows
//! whose inputs changed (and the destinations they send to) and copies
//! the rest — still bit-identical, because no row's numerics depend on
//! any other row's position or presence.

use crate::{Matrix, NEG_INF};

/// Handle to one scratch matrix inside an [`InferCtx`]. Invalidated by
/// [`InferCtx::begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufId(pub(crate) usize);

/// Bump-arena workspace for tape-free forward passes and, through
/// [`InferCtx::begin_backward`], their gradients. It also holds the
/// scratch of the incremental GAT layer; the layer's state between
/// forwards lives in a caller-owned [`GatMemo`].
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
    /// Stacked input rows of a GAT layer that differ from the copy
    /// before them.
    changed: Vec<usize>,
    /// Per stacked row: does a changed row send it a message?
    marks: Vec<bool>,
    /// Runs of rows a GAT layer copies.
    gaps: Vec<std::ops::Range<usize>>,
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

    /// One graph-attention layer (Eqs. 5–8) over the stacked copies in
    /// `x`, recomputing only what changed since the copy before: the
    /// body of [`crate::GatLayer::infer`], which documents the contract.
    /// `head(h)` gives head `h`'s `[W, a_dst, a_src]`; `key` identifies
    /// the parameters, the layer and the index the rows in `memo` were
    /// computed under.
    ///
    /// Allocates the output, then per head `hw`, `score_dst` and
    /// `score_src`, and fills every row of each.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn gat_layer<'p>(
        &mut self,
        x: BufId,
        heads: usize,
        head: impl Fn(usize) -> [&'p Matrix; 3],
        index: &MessageIndex,
        slope: f32,
        memo: &mut GatMemo,
        key: MemoKey,
        candidates: Option<&[usize]>,
    ) -> BufId {
        let (rows, in_dim) = (self.slots[x.0].rows(), self.slots[x.0].cols());
        index.check_rows(rows);
        let (n, d) = (index.n(), head(0)[0].cols());
        // The memo stays invalid until this call completes, so a panic
        // mid-layer leaves the next call cold rather than stale. Graphs
        // under `MIN_DELTA_NODES` nodes skip it: their rows are too few
        // for the bookkeeping to pay.
        let small = n < MIN_DELTA_NODES;
        let warm = memo.key.take() == Some(key) && !small;
        let out = self.alloc(rows, heads * d);
        for _ in 0..heads {
            self.alloc(rows, d);
            self.alloc(rows, 1);
            self.alloc(rows, 1);
        }
        let InferCtx { slots, edge_scratch, changed, marks, gaps, .. } = self;
        let GatMemo { key: memo_key, rows: prev, dirty } = memo;
        let (inputs, rest) = slots.split_at_mut(out.0);
        let layer = &mut rest[..1 + 3 * heads];
        let xv = inputs[x.0].data();
        let row = |r: usize| &xv[r * in_dim..(r + 1) * in_dim];

        // 1. Input rows that differ from the same row of the copy before
        // (of the last call's last copy, for the first), bit for bit.
        // Without a warm memo the first copy is all new.
        let cold = if warm { 0 } else { n };
        let differs = |&r: &usize| {
            let before = if r >= n { row(r - n) } else { prev[0].row_slice(r) };
            row(r).iter().zip(before).any(|(a, b)| a.to_bits() != b.to_bits())
        };
        changed.clear();
        match candidates {
            _ if small => changed.extend(0..rows),
            None => {
                changed.extend(0..cold);
                changed.extend((cold..rows).filter(differs));
            }
            Some(c) => {
                changed.extend(0..cold);
                changed.extend(c.iter().copied().filter(|&r| r >= cold && differs(&r)));
            }
        }

        // 2. Destinations with a changed in-source (a changed row's own
        // destination included, through its self-loop): all of them
        // when every row changed.
        dirty.clear();
        if changed.len() == rows {
            dirty.extend(0..rows);
        } else {
            marks.clear();
            marks.resize(rows, false);
            for (base, u) in by_copy(changed, n) {
                for &(_, v) in index.out_messages(u) {
                    marks[base + v] = true;
                }
            }
            dirty.extend((0..rows).filter(|&r| marks[r]));
        }

        // 3. Every head's `hw` and scores on each run of changed rows,
        // in place; then every other row from the copy before. Layer
        // slot `i` is kept at `prev[i + 1]`, after the input.
        for run in runs(changed) {
            for h in 0..heads {
                let [w, a_dst, a_src] = head(h);
                let [hw, sd, ss] = &mut layer[1 + 3 * h..4 + 3 * h] else { unreachable!() };
                let x_rows = &xv[run.start * in_dim..run.end * in_dim];
                Matrix::accumulate_rows(x_rows, in_dim, w, zeroed_rows(hw, run.clone()));
                let hw_rows = &hw.data()[run.start * d..run.end * d];
                Matrix::accumulate_rows(hw_rows, d, a_dst, zeroed_rows(sd, run.clone()));
                Matrix::accumulate_rows(hw_rows, d, a_src, zeroed_rows(ss, run.clone()));
            }
        }
        gaps_of(changed, rows, n, gaps);
        for (i, slot) in layer[1..].iter_mut().enumerate() {
            fill_gaps(slot, n, warm.then(|| &prev[i + 2]), gaps);
        }

        // 4. Their messages, each head into its column block of the
        // output, and σ on their rows; then every other row from the
        // copy before.
        let (output, per_head) = layer.split_at_mut(1);
        let (output, width) = (&mut output[0], heads * d);
        for h in 0..heads {
            let (hw, sd, ss) = (&per_head[3 * h], &per_head[3 * h + 1], &per_head[3 * h + 2]);
            crate::simd::gat_aggregate(
                output.data_mut(),
                width,
                h * d,
                hw.data(),
                d,
                (sd.data(), ss.data()),
                index,
                dirty,
                slope,
                edge_scratch,
            );
        }
        for run in runs(dirty) {
            crate::simd::tanh_map(&mut output.data_mut()[run.start * width..run.end * width]);
        }
        gaps_of(dirty, rows, n, gaps);
        fill_gaps(output, n, warm.then(|| &prev[1]), gaps);

        if small {
            return out;
        }
        // 5. Keep the last copy for the next call to diff against. A
        // warm memo already holds the copy before the first, so only
        // rows that some copy changed can differ from it.
        let last = rows - n;
        if warm && changed.len() < rows {
            touched_runs(changed, n, marks, gaps);
            copy_runs(&mut prev[0], &inputs[x.0], last, gaps);
            for (kept, slot) in prev[2..].iter_mut().zip(&layer[1..]) {
                copy_runs(kept, slot, last, gaps);
            }
            touched_runs(dirty, n, marks, gaps);
            copy_runs(&mut prev[1], &layer[0], last, gaps);
        } else {
            prev.resize_with(2 + 3 * heads, Matrix::default);
            prev[0].copy_rows_from(&inputs[x.0], last, n);
            for (kept, slot) in prev[1..].iter_mut().zip(&*layer) {
                kept.copy_rows_from(slot, last, n);
            }
        }
        *memo_key = Some(key);
        out
    }
}

/// `(copy base, node)` of each of the ascending stacked `rows` of
/// `n`-row graph copies.
fn by_copy(rows: &[usize], n: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    rows.iter().scan(0, move |base, &r| {
        while r >= *base + n {
            *base += n;
        }
        Some((*base, r - *base))
    })
}

/// The node count from which a GAT layer keeps a memo and recomputes
/// only changed rows; smaller graphs recompute every row.
const MIN_DELTA_NODES: usize = 32;

/// Maximal runs of consecutive rows in an ascending row list.
fn runs(rows: &[usize]) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
    let mut rest = rows;
    std::iter::from_fn(move || {
        let &first = rest.first()?;
        let len = rest.iter().enumerate().take_while(|&(i, &r)| r == first + i).count();
        rest = &rest[len..];
        Some(first..first + len)
    })
}

/// Zero a run of rows of `slot` and hand them out for accumulation.
fn zeroed_rows(slot: &mut Matrix, run: std::ops::Range<usize>) -> &mut [f32] {
    let w = slot.cols();
    let rows = &mut slot.data_mut()[run.start * w..run.end * w];
    rows.fill(0.0);
    rows
}

/// The runs of stacked rows (of `rows`, in `n`-row copies) missing
/// from the ascending list `fresh`, split at copy boundaries.
fn gaps_of(fresh: &[usize], rows: usize, n: usize, gaps: &mut Vec<std::ops::Range<usize>>) {
    gaps.clear();
    if fresh.len() == rows {
        return;
    }
    let mut fresh = fresh.iter().copied().peekable();
    for base in (0..rows).step_by(n) {
        let mut r = base;
        while r < base + n {
            if fresh.next_if_eq(&r).is_some() {
                r += 1;
                continue;
            }
            let end = fresh.peek().map_or(base + n, |&f| f.min(base + n));
            gaps.push(r..end);
            r = end;
        }
    }
}

/// The runs of graph nodes (rows of one `n`-row copy) that the
/// ascending stacked `rows` touch in any copy.
fn touched_runs(
    rows: &[usize],
    n: usize,
    marks: &mut Vec<bool>,
    runs: &mut Vec<std::ops::Range<usize>>,
) {
    marks.clear();
    marks.resize(n, false);
    for (_, v) in by_copy(rows, n) {
        marks[v] = true;
    }
    runs.clear();
    let mut v = 0;
    while v < n {
        let start = v;
        while v < n && marks[v] {
            v += 1;
        }
        if v > start {
            runs.push(start..v);
        }
        v += 1;
    }
}

/// Copy the `runs` of node rows of the copy starting at stacked row
/// `first` of `slot` into the same rows of `kept`.
fn copy_runs(kept: &mut Matrix, slot: &Matrix, first: usize, runs: &[std::ops::Range<usize>]) {
    let w = slot.cols();
    for run in runs {
        kept.data_mut()[run.start * w..run.end * w]
            .copy_from_slice(&slot.data()[(first + run.start) * w..(first + run.end) * w]);
    }
}

/// Fill each gap (ascending runs of stacked rows of `slot`, which
/// stacks `n`-row copies, from [`gaps_of`]) with the same rows of the
/// copy before — of `prev` in the first copy — in order, so each copy
/// starts from its predecessor's final rows. Without `prev`, no gap
/// may lie in the first copy.
fn fill_gaps(slot: &mut Matrix, n: usize, prev: Option<&Matrix>, gaps: &[std::ops::Range<usize>]) {
    let w = slot.cols();
    let data = slot.data_mut();
    for gap in gaps {
        let (lo, hi) = (gap.start * w, gap.end * w);
        if gap.start >= n {
            data.copy_within(lo - n * w..hi - n * w, lo);
        } else {
            let prev = prev.expect("a cold first copy is all fresh");
            data[lo..hi].copy_from_slice(&prev.data()[lo..hi]);
        }
    }
}

/// `(parameter fingerprint, first head weight, message-index stamp)`:
/// the identity of the values a [`GatMemo`] holds.
pub(crate) type MemoKey = (u64, usize, u64);

/// What one graph-attention layer keeps of its last forward, so that
/// the next [`crate::GatLayer::infer`] recomputes only the rows that
/// changed: the last stacked copy's input rows and every slot the layer
/// wrote for it (output, then per head `hw`, `score_dst`, `score_src`),
/// keyed on the parameters, the layer and the [`MessageIndex`] they
/// were computed under, and the stacked output rows the last call
/// recomputed — the next layer's candidates.
#[derive(Debug, Default)]
pub struct GatMemo {
    key: Option<MemoKey>,
    rows: Vec<Matrix>,
    dirty: Vec<usize>,
}

impl GatMemo {
    /// An empty memo: the first forward through it computes every row.
    #[must_use]
    pub fn new() -> Self {
        GatMemo::default()
    }

    /// The stacked output rows the last [`crate::GatLayer::infer`]
    /// through this memo recomputed, ascending. Every other output row
    /// equals the same row of the copy before it (of the previous
    /// call's last copy, for the first).
    #[must_use]
    pub fn dirty(&self) -> &[usize] {
        &self.dirty
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

    /// Backward of one [`crate::GatLayer::infer`] head: reads the
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
    /// Process-unique id of the last real rebuild (0: never built), so
    /// a [`GatMemo`] can tell an unchanged index from a new one.
    stamp: u64,
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
        static STAMPS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        self.stamp = STAMPS.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
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

    /// Identity of this index's current contents: equal stamps mean
    /// the same build (or a clone of it).
    pub(crate) fn stamp(&self) -> u64 {
        self.stamp
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
    pub(crate) fn check_rows(&self, rows: usize) {
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
    #[should_panic(expected = "stale BufId")]
    fn stale_handles_panic() {
        let mut ctx = InferCtx::new();
        ctx.begin();
        let a = ctx.load(&Matrix::zeros(1, 1));
        ctx.begin();
        let _ = ctx.value(a);
    }
}
