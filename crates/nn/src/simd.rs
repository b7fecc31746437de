//! Explicit-SIMD f32 kernels: one kernel family, with AVX2+FMA twins
//! picked once per process from the CPU.
//!
//! `std::simd` is still nightly-only, so these kernels are written as
//! manually 8-lane-unrolled loops over fixed-size `[f32; 8]` blocks —
//! the shape LLVM reliably turns into vector instructions on every
//! target the workspace builds for — plus a sequential remainder for
//! ragged tails. The kernel tests hold each body to a sequential
//! reference loop.
//!
//! # Determinism contract
//!
//! The kernels come in three flavours with different guarantees:
//!
//! - **Order-preserving** ([`axpy`]): every output element sees
//!   exactly the operations, in exactly the order, of the sequential
//!   reference loop (`axpy` touches each lane independently). These
//!   are **bit-exact** to it and are safe inside paths pinned by
//!   bit-equality tests, e.g. the forward pass that must match the tape
//!   reference. One carve-out: the matmul's register-blocked columns
//!   fuse each product into its accumulation (`mul_add`, one rounding
//!   instead of two), so for the general matmul shape it differs from a
//!   multiply-then-add loop by that rounding — but the order, the zero
//!   skip, and the per-element operation sequence are still fixed by
//!   shape alone, and every forward path (tape, tape-free, batched) runs
//!   the same kernel, so all paths remain mutually bit-identical.
//! - **Fused-order** ([`dot`]): the reduction runs
//!   in 8 parallel accumulators folded with a fixed tree, which
//!   reassociates the floating-point sum. Results match the sequential
//!   reference only within a small tolerance (the kernel proptests pin
//!   1e-5 relative), so these are reserved for paths with an explicit
//!   tolerance contract against the sequential form: the matmul input
//!   gradient (shared by the tape and the tape-free backward, which
//!   therefore agree bitwise).
//! - **Elementwise-approximate** ([`tanh1`], [`tanh_map`],
//!   [`exp_neg_map`]): a vectorizable polynomial replaces the libm call,
//!   within 1e-5 of it. The output depends only on the input bits —
//!   never on position or batch composition — so all forward paths
//!   (tape, tape-free, batched) remain mutually bit-identical.
//!
//! On x86-64 the kernels dispatch (cached runtime detection of AVX2 +
//! FMA, reported by [`kind`]) to `#[target_feature(enable = "avx2,fma")]`
//! twins of the same bodies. Bodies written as `a*b + c` stay separate
//! multiply-then-add — Rust never contracts them — so their twins
//! change throughput, never bits. Bodies written with `mul_add` (the
//! matmul column blocks) mean fused single-rounding semantics on every
//! path: hardware FMA inside the twins, libm `fmaf` in the portable
//! body — same bits either way, the portable body is just slower (it
//! only runs on pre-2013 x86-64 or non-x86 hosts). The unit test
//! `avx2_twins_match_portable_bodies_bitwise` pins this.

/// The kernel build [`kind`] detected on this CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdKind {
    /// x86-64 with AVX2 and FMA: every dispatching kernel runs its
    /// `#[target_feature(enable = "avx2,fma")]` twin.
    Avx2Fma,
    /// Any other CPU: the same bodies at the target's baseline features.
    Portable,
}

/// The kernel build in use, detected once per process from the CPU.
/// Both builds compile the same bodies and give the same bits; only
/// throughput differs.
#[must_use]
pub fn kind() -> SimdKind {
    if avx2() {
        SimdKind::Avx2Fma
    } else {
        SimdKind::Portable
    }
}

/// Cached AVX2+FMA runtime detection. The twins run the *same* Rust
/// bodies compiled for 256-bit registers: `a*b + c` bodies keep
/// separate multiply-then-add (Rust never contracts them) and `mul_add`
/// bodies are fused on either path (hardware FMA in the twin, libm
/// `fmaf` in the portable body), so the detection outcome changes
/// throughput, never bits.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    static AVX2: AtomicU8 = AtomicU8::new(0);
    match AVX2.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let detected = std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma");
            AVX2.store(if detected { 1 } else { 2 }, Ordering::Relaxed);
            detected
        }
    }
}

/// No AVX2 twins exist off x86-64.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn avx2() -> bool {
    false
}

const LANES: usize = 8;

/// `out[j] += a * x[j]` — the axpy update behind every matmul in the
/// workspace. Each lane is read-modify-written independently, so the
/// unrolled form is bit-exact to the sequential loop and safe in
/// bit-equality-pinned paths.
///
/// # Panics
/// Panics unless `out.len() == x.len()`.
#[inline]
pub fn axpy(out: &mut [f32], a: f32, x: &[f32]) {
    assert_eq!(out.len(), x.len(), "axpy length mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: `avx2()` confirmed the CPU supports AVX2.
        return unsafe { axpy_avx2(out, a, x) };
    }
    axpy_body(out, a, x)
}

/// The sequential axpy: the ragged tail of [`axpy_body`] and its
/// reference.
#[inline]
fn axpy_scalar(out: &mut [f32], a: f32, x: &[f32]) {
    for (o, &b) in out.iter_mut().zip(x) {
        *o += a * b;
    }
}

#[inline(always)]
fn axpy_body(out: &mut [f32], a: f32, x: &[f32]) {
    let mut oc = out.chunks_exact_mut(LANES);
    let mut xc = x.chunks_exact(LANES);
    for (o, b) in oc.by_ref().zip(xc.by_ref()) {
        // Fixed-size block: lane j only ever combines with lane j, so
        // vectorizing cannot reassociate anything.
        for j in 0..LANES {
            o[j] += a * b[j];
        }
    }
    axpy_scalar(oc.into_remainder(), a, xc.remainder());
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn axpy_avx2(out: &mut [f32], a: f32, x: &[f32]) {
    axpy_body(out, a, x);
}

/// `out += lhsᵀ · rhs` for row-major `lhs` (`rows x cols`), `rhs`
/// (`rows x n`) and `out` (`cols x n`): per `lhs` element in row-major
/// order, skipping zeros, one [`axpy`] of its `rhs` row into an `out`
/// row — the loop behind [`crate::Matrix::transpose_matmul`]. Each
/// output element takes its terms in ascending row order. The AVX2
/// dispatch is resolved once per product instead of once per `axpy`,
/// which dominates at the network's row widths of 1 to 16; the bodies
/// are [`axpy`]'s, so the bits are too.
pub(crate) fn transpose_matmul_acc(lhs: &[f32], cols: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: `avx2()` confirmed the CPU supports AVX2.
        return unsafe { transpose_matmul_avx2(lhs, cols, rhs, n, out) };
    }
    transpose_matmul_body(lhs, cols, rhs, n, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn transpose_matmul_avx2(lhs: &[f32], cols: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
    transpose_matmul_body(lhs, cols, rhs, n, out);
}

#[inline(always)]
fn transpose_matmul_body(lhs: &[f32], cols: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
    for (a_row, b_row) in lhs.chunks_exact(cols).zip(rhs.chunks_exact(n)) {
        for (out_row, &a) in out.chunks_exact_mut(n).zip(a_row) {
            if a == 0.0 {
                continue;
            }
            // Below one lane block the unrolled body is its sequential
            // remainder loop; skip its setup.
            if n >= LANES {
                axpy_body(out_row, a, b_row);
            } else {
                axpy_scalar(out_row, a, b_row);
            }
        }
    }
}

/// `out[i][j] += dot(lhs row i, rhs row j)` for row-major `lhs`
/// (`rows x k`), `rhs` (`m x k`) and `out` (`rows x m`), with each
/// product from [`dot`]'s body — the input-side gradient of a matmul,
/// with one AVX2 dispatch per product.
pub(crate) fn matmul_transposed_acc(lhs: &[f32], rhs: &[f32], k: usize, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: `avx2()` confirmed the CPU supports AVX2.
        return unsafe { matmul_transposed_avx2(lhs, rhs, k, out) };
    }
    matmul_transposed_body(lhs, rhs, k, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn matmul_transposed_avx2(lhs: &[f32], rhs: &[f32], k: usize, out: &mut [f32]) {
    matmul_transposed_body(lhs, rhs, k, out);
}

#[inline(always)]
fn matmul_transposed_body(lhs: &[f32], rhs: &[f32], k: usize, out: &mut [f32]) {
    let m = rhs.len() / k;
    for (a_row, out_row) in lhs.chunks_exact(k).zip(out.chunks_exact_mut(m)) {
        for (o, b_row) in out_row.iter_mut().zip(rhs.chunks_exact(k)) {
            // Below one lane block `dot_body` folds eight zero lanes
            // onto its sequential tail, i.e. returns `0.0 + dot_scalar`.
            *o += if k < LANES { 0.0 + dot_scalar(a_row, b_row) } else { dot_body(a_row, b_row) };
        }
    }
}

/// The matmul accumulation loop behind [`crate::Matrix::matmul`]:
/// `out` (`rows x n`, row-major) accumulates
/// `lhs` (`rows x cols`) times `rhs` (`cols x n`). Register-blocked:
/// output rows are processed four at a time in fixed-width column
/// chunks (16/8 columns, then a ragged tail of fewer than 8) whose
/// accumulators live in registers across the whole ascending-`k` loop
/// and are stored once — instead of the output row being loaded and
/// stored again per `k` step. The 16/8-column blocks accumulate with
/// `mul_add` (fused, one rounding per product), so this kernel differs
/// from a sequential multiply-then-add loop by at most that rounding;
/// the order and the zero skip are exactly that loop's, and which
/// columns fuse is fixed by the shape alone (`n - n % 8` leading
/// columns), never by row, batch composition, or CPU. The ragged tail
/// keeps separate multiply-then-add, so it is bit-exact to that loop.
///
/// Lives here (not in `matrix.rs`) so the whole loop gets one AVX2
/// dispatch per matmul with the block kernels inlined into the twin.
///
/// # Panics
/// Panics if the slice lengths are inconsistent with `cols`/`n`.
pub(crate) fn matmul_acc(lhs: &[f32], cols: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
    if cols == 0 {
        return;
    }
    assert_eq!(rhs.len(), cols * n, "rhs shape mismatch");
    assert_eq!(lhs.len() * n, out.len() * cols, "lhs/out shape mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: `avx2()` confirmed the CPU supports AVX2.
        return unsafe { matmul_acc_avx2(lhs, cols, rhs, n, out) };
    }
    matmul_kernel(lhs, cols, rhs, n, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn matmul_acc_avx2(lhs: &[f32], cols: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
    matmul_kernel(lhs, cols, rhs, n, out);
}

/// One accumulation step: fused (`mul_add`, one rounding) in the
/// 16/8-column blocks, separate multiply-then-add in the ragged tail.
#[inline(always)]
fn madd<const FUSED: bool>(a: f32, r: f32, acc: f32) -> f32 {
    if FUSED {
        a.mul_add(r, acc)
    } else {
        acc + a * r
    }
}

/// One register-blocked output chunk: `out_chunk` (width `W`) is held
/// in a fixed-size accumulator array — registers, once vectorized —
/// across the whole ascending-`k` loop and stored once, instead of
/// being loaded and stored again per `k` step. Per lane the
/// accumulations run in ascending `k` order with the zero skip (see
/// [`matmul_acc`] for the rounding contract).
#[inline(always)]
fn matmul_row_block<const W: usize, const FUSED: bool>(
    a_row: &[f32],
    rhs: &[f32],
    n: usize,
    c: usize,
    out_chunk: &mut [f32],
) {
    let mut acc = [0.0f32; W];
    acc.copy_from_slice(&out_chunk[..W]);
    for (k, &a) in a_row.iter().enumerate() {
        if a != 0.0 {
            let r = &rhs[k * n + c..k * n + c + W];
            for j in 0..W {
                acc[j] = madd::<FUSED>(a, r[j], acc[j]);
            }
        }
    }
    out_chunk[..W].copy_from_slice(&acc);
}

/// Four-row register tile: like [`matmul_row_block`], but columns
/// `c..c + W` of four output rows are accumulated together so the tile
/// holds `4 x W/8` independent vector accumulator chains (at `W = 16` that is eight —
/// enough to hide the FMA latency that a single row's two chains
/// cannot) and each `rhs` row is loaded once for all four lhs rows.
/// Each output element still accumulates its `k` contributions in
/// ascending order with the per-`(row, k)` zero skip; row position
/// never changes an element's numerics, so quad-tiled and remainder
/// rows agree bitwise.
#[inline(always)]
fn matmul_rows4_block<const W: usize, const FUSED: bool>(
    a: [&[f32]; 4],
    rhs: &[f32],
    n: usize,
    c: usize,
    o: [&mut [f32]; 4],
) {
    // Four named accumulator arrays (not an indexed array-of-arrays)
    // so each lowers to live vector registers rather than stack slots.
    let [a0, a1, a2, a3] = a;
    let [o0, o1, o2, o3] = o;
    let mut acc0 = [0.0f32; W];
    let mut acc1 = [0.0f32; W];
    let mut acc2 = [0.0f32; W];
    let mut acc3 = [0.0f32; W];
    acc0.copy_from_slice(&o0[c..c + W]);
    acc1.copy_from_slice(&o1[c..c + W]);
    acc2.copy_from_slice(&o2[c..c + W]);
    acc3.copy_from_slice(&o3[c..c + W]);
    for k in 0..a0.len() {
        let rr = &rhs[k * n + c..k * n + c + W];
        let v0 = a0[k];
        if v0 != 0.0 {
            for j in 0..W {
                acc0[j] = madd::<FUSED>(v0, rr[j], acc0[j]);
            }
        }
        let v1 = a1[k];
        if v1 != 0.0 {
            for j in 0..W {
                acc1[j] = madd::<FUSED>(v1, rr[j], acc1[j]);
            }
        }
        let v2 = a2[k];
        if v2 != 0.0 {
            for j in 0..W {
                acc2[j] = madd::<FUSED>(v2, rr[j], acc2[j]);
            }
        }
        let v3 = a3[k];
        if v3 != 0.0 {
            for j in 0..W {
                acc3[j] = madd::<FUSED>(v3, rr[j], acc3[j]);
            }
        }
    }
    o0[c..c + W].copy_from_slice(&acc0);
    o1[c..c + W].copy_from_slice(&acc1);
    o2[c..c + W].copy_from_slice(&acc2);
    o3[c..c + W].copy_from_slice(&acc3);
}

/// Single-row fallback for row counts not divisible by four; see
/// [`matmul_row_block`].
#[inline(always)]
fn matmul_one_row(a_row: &[f32], rhs: &[f32], n: usize, out_row: &mut [f32]) {
    let mut c = 0;
    while n - c >= 32 {
        matmul_row_block::<32, true>(a_row, rhs, n, c, &mut out_row[c..c + 32]);
        c += 32;
    }
    if n - c >= 16 {
        matmul_row_block::<16, true>(a_row, rhs, n, c, &mut out_row[c..c + 16]);
        c += 16;
    }
    if n - c >= 8 {
        matmul_row_block::<8, true>(a_row, rhs, n, c, &mut out_row[c..c + 8]);
        c += 8;
    }
    let o = &mut out_row[c..];
    match n - c {
        0 => {}
        1 => matmul_row_block::<1, false>(a_row, rhs, n, c, o),
        2 => matmul_row_block::<2, false>(a_row, rhs, n, c, o),
        3 => matmul_row_block::<3, false>(a_row, rhs, n, c, o),
        4 => matmul_row_block::<4, false>(a_row, rhs, n, c, o),
        5 => matmul_row_block::<5, false>(a_row, rhs, n, c, o),
        6 => matmul_row_block::<6, false>(a_row, rhs, n, c, o),
        _ => matmul_row_block::<7, false>(a_row, rhs, n, c, o),
    }
}

#[inline(always)]
fn matmul_kernel(lhs: &[f32], cols: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
    let mut lhs_quads = lhs.chunks_exact(4 * cols);
    let mut out_quads = out.chunks_exact_mut(4 * n);
    for (lq, oq) in lhs_quads.by_ref().zip(out_quads.by_ref()) {
        let (a0, rest) = lq.split_at(cols);
        let (a1, rest) = rest.split_at(cols);
        let (a2, a3) = rest.split_at(cols);
        let (o0, rest) = oq.split_at_mut(n);
        let (o1, rest) = rest.split_at_mut(n);
        let (o2, o3) = rest.split_at_mut(n);
        let mut c = 0;
        while n - c >= 16 {
            matmul_rows4_block::<16, true>(
                [a0, a1, a2, a3],
                rhs,
                n,
                c,
                [&mut *o0, &mut *o1, &mut *o2, &mut *o3],
            );
            c += 16;
        }
        if n - c >= 8 {
            matmul_rows4_block::<8, true>(
                [a0, a1, a2, a3],
                rhs,
                n,
                c,
                [&mut *o0, &mut *o1, &mut *o2, &mut *o3],
            );
            c += 8;
        }
        let (a, o) = ([a0, a1, a2, a3], [o0, o1, o2, o3]);
        match n - c {
            0 => {}
            1 => matmul_rows4_block::<1, false>(a, rhs, n, c, o),
            2 => matmul_rows4_block::<2, false>(a, rhs, n, c, o),
            3 => matmul_rows4_block::<3, false>(a, rhs, n, c, o),
            4 => matmul_rows4_block::<4, false>(a, rhs, n, c, o),
            5 => matmul_rows4_block::<5, false>(a, rhs, n, c, o),
            6 => matmul_rows4_block::<6, false>(a, rhs, n, c, o),
            _ => matmul_rows4_block::<7, false>(a, rhs, n, c, o),
        }
    }
    for (a_row, out_row) in lhs_quads
        .remainder()
        .chunks_exact(cols)
        .zip(out_quads.into_remainder().chunks_exact_mut(n))
    {
        matmul_one_row(a_row, rhs, n, out_row);
    }
}

/// The matvec loop behind [`crate::Matrix::matmul`] when the
/// right-hand side is a single column (the attention-score projections
/// `hw · a`): four output rows are accumulated as interleaved
/// independent chains, so one row's serial float-add latency overlaps
/// the other three. Each row still accumulates its products in
/// ascending `k` order with the zero skip and separate
/// multiply-then-add, so the result is bit-identical to the sequential
/// loop.
///
/// # Panics
/// Panics if the slice lengths are inconsistent with `cols`.
pub(crate) fn matvec_acc(lhs: &[f32], cols: usize, rhs: &[f32], out: &mut [f32]) {
    if cols == 0 {
        return;
    }
    assert_eq!(rhs.len(), cols, "rhs must be one column of length cols");
    assert_eq!(lhs.len(), out.len() * cols, "lhs/out shape mismatch");
    let mut rows = lhs.chunks_exact(4 * cols);
    let mut outs = out.chunks_exact_mut(4);
    for (quad, oc) in rows.by_ref().zip(outs.by_ref()) {
        let (r0, rest) = quad.split_at(cols);
        let (r1, rest) = rest.split_at(cols);
        let (r2, r3) = rest.split_at(cols);
        let (mut a0, mut a1, mut a2, mut a3) = (oc[0], oc[1], oc[2], oc[3]);
        for (k, &b) in rhs.iter().enumerate() {
            if r0[k] != 0.0 {
                a0 += r0[k] * b;
            }
            if r1[k] != 0.0 {
                a1 += r1[k] * b;
            }
            if r2[k] != 0.0 {
                a2 += r2[k] * b;
            }
            if r3[k] != 0.0 {
                a3 += r3[k] * b;
            }
        }
        oc[0] = a0;
        oc[1] = a1;
        oc[2] = a2;
        oc[3] = a3;
    }
    for (row, o) in rows.remainder().chunks_exact(cols).zip(outs.into_remainder()) {
        let mut acc = *o;
        for (&a, &b) in row.iter().zip(rhs) {
            if a != 0.0 {
                acc += a * b;
            }
        }
        *o = acc;
    }
}

/// The fused GAT-head message pass behind
/// [`crate::GatLayer::infer`], over the destination-grouped (CSR)
/// `index`: node `v`'s in-sources come in ascending original message
/// order. `hw` is `rows x d` and the score columns are `rows` long,
/// where `rows` stacks whole copies of the index's graph. `dests`
/// lists the stacked rows to aggregate, ascending, and each result
/// overwrites columns `col..col + d` of its row of the row-major `out`
/// (row stride `stride`); no other element is touched.
///
/// It makes three flat passes over the destinations' messages:
///
/// 1. scores `LeakyReLU(score_dst[v] + score_src[u])`, each
///    destination's running max, and the max-shifted scores;
/// 2. one elementwise `exp` over all of them, the [`exp_neg_map`]
///    polynomial;
/// 3. per destination, the sequential sum, `α = exp / max(sum,
///    MIN_POSITIVE)` and `Σ α · hw[u]` with separate multiply-then-add,
///    held in a fixed-width register accumulator at `d` = 4/8/16.
///
/// Every value a destination sees — and the order it sees them in — is
/// that of the tape's `segment_softmax` and `scatter_add_rows` over the
/// edge-ordered message list, so the result is bit-identical to the
/// composed ops, whichever other destinations the list holds. The
/// whole pass is one AVX2 dispatch.
///
/// # Panics
/// Panics if the slice lengths are inconsistent.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gat_aggregate(
    out: &mut [f32],
    stride: usize,
    col: usize,
    hw: &[f32],
    d: usize,
    scores: (&[f32], &[f32]),
    index: &crate::MessageIndex,
    dests: &[usize],
    slope: f32,
    scratch: &mut Vec<f32>,
) {
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: `avx2()` confirmed the CPU supports AVX2.
        return unsafe {
            gat_kernel_avx2(out, stride, col, hw, d, scores, index, dests, slope, scratch)
        };
    }
    gat_kernel(out, stride, col, hw, d, scores, index, dests, slope, scratch);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
fn gat_kernel_avx2(
    out: &mut [f32],
    stride: usize,
    col: usize,
    hw: &[f32],
    d: usize,
    scores: (&[f32], &[f32]),
    index: &crate::MessageIndex,
    dests: &[usize],
    slope: f32,
    scratch: &mut Vec<f32>,
) {
    gat_kernel(out, stride, col, hw, d, scores, index, dests, slope, scratch);
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gat_kernel(
    out: &mut [f32],
    stride: usize,
    col: usize,
    hw: &[f32],
    d: usize,
    scores: (&[f32], &[f32]),
    index: &crate::MessageIndex,
    dests: &[usize],
    slope: f32,
    scratch: &mut Vec<f32>,
) {
    // One pass per graph copy over its destinations (node `v` of the
    // copy is stacked row `base + v`).
    let n = index.n();
    let mut rest = dests;
    while let Some(&first) = rest.first() {
        let base = first - first % n;
        let (block, tail) = rest.split_at(rest.partition_point(|&r| r < base + n));
        rest = tail;
        let nodes = block.iter().map(|&r| r - base);
        gat_exps(scores, index, base, nodes.clone(), slope, scratch);
        match d {
            4 => gat_weighted_sum::<4>(out, stride, col, hw, scratch, index, base, nodes),
            8 => gat_weighted_sum::<8>(out, stride, col, hw, scratch, index, base, nodes),
            16 => gat_weighted_sum::<16>(out, stride, col, hw, scratch, index, base, nodes),
            _ => {
                let (offsets, sources) = (index.offsets(), index.sources());
                let mut at = 0;
                for v in nodes {
                    let (lo, hi) = (offsets[v], offsets[v + 1]);
                    let exps = &scratch[at..at + hi - lo];
                    at += hi - lo;
                    let denom = softmax_denominator(exps);
                    let at_out = (base + v) * stride + col;
                    let orow = &mut out[at_out..at_out + d];
                    orow.fill(0.0);
                    for (&e, &u) in exps.iter().zip(&sources[lo..hi]) {
                        let alpha = e / denom;
                        let m = &hw[(base + u) * d..(base + u + 1) * d];
                        for (acc, &m) in orow.iter_mut().zip(m) {
                            *acc += alpha * m;
                        }
                    }
                }
            }
        }
    }
}

/// Passes 1 and 2 of [`gat_kernel`] for the `nodes` of the graph copy
/// whose first stacked row is `base`: `scratch` receives `exp` of each
/// of their messages' LeakyReLU scores shifted by the node's maximum —
/// the segment-softmax numerators, the nodes' segments concatenated in
/// `nodes` order, each in CSR order (for every node in order, exactly
/// the CSR layout).
#[inline(always)]
fn gat_exps(
    (sd, ss): (&[f32], &[f32]),
    index: &crate::MessageIndex,
    base: usize,
    nodes: impl Iterator<Item = usize>,
    slope: f32,
    scratch: &mut Vec<f32>,
) {
    let (offsets, sources) = (index.offsets(), index.sources());
    // Room for every message of the copy; the nodes' come first.
    scratch.resize(sources.len(), 0.0);
    let mut at = 0;
    for v in nodes {
        let (lo, hi) = (offsets[v], offsets[v + 1]);
        let segment = &mut scratch[at..at + hi - lo];
        at += hi - lo;
        let mut max = f32::NEG_INFINITY;
        for (e, &u) in segment.iter_mut().zip(&sources[lo..hi]) {
            let s = sd[base + v] + ss[base + u];
            *e = if s >= 0.0 { s } else { slope * s };
            // `f32::max` without its NaN fix-up sequence (a NaN score
            // is skipped either way). Only the sign of a zero maximum
            // can differ, and `score - (±0)` then `exp` gives the same
            // bits for every score.
            if *e > max {
                max = *e;
            }
        }
        for e in segment {
            *e -= max;
        }
    }
    exp_neg_map_body(&mut scratch[..at]);
}

/// The backward of [`gat_aggregate`] for one head, behind
/// [`crate::InferCtx::gat_aggregate_backward`]: `g_out` holds the
/// gradient of the head's output block (row stride `stride`, columns
/// `col..col + d`, already through the output tanh); the gradients of
/// `hw` (`rows x d`) and the two score columns accumulate into `grads`.
///
/// Per copy it recomputes α with [`gat_aggregate`]'s own passes 1–2
/// and division (so the same bits), then walks the tape's chain back:
///
/// 1. per destination, in CSR (= ascending message) order: the
///    attention gradient `Σ_c hw[u]·g[v]`, the softmax dot `Σ ∂α·α`,
///    each score gradient `α(∂α − dot)` through the LeakyReLU, and
///    their sum into `score_dst`;
/// 2. per source, over its messages in original order (self-loop
///    last) — the tape's gather order: its score gradient into
///    `score_src` and `α · g[v]` into `hw`.
///
/// Every sum runs from zero in the tape's order with separate
/// multiply-then-add, so the result is bit-identical to
/// `Graph::backward` through the composed ops. Widths 4, 8
/// and 16 get fixed-size inner loops, like the forward.
///
/// # Panics
/// Panics if the slice lengths are inconsistent.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gat_aggregate_backward(
    (g_out, stride, col): (&[f32], usize, usize),
    hw: &[f32],
    d: usize,
    scores: (&[f32], &[f32]),
    index: &crate::MessageIndex,
    slope: f32,
    grads: (&mut [f32], &mut [f32], &mut [f32]),
    scratch: (&mut Vec<f32>, &mut Vec<f32>),
) {
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: `avx2()` confirmed the CPU supports AVX2.
        return unsafe {
            gat_backward_avx2((g_out, stride, col), hw, d, scores, index, slope, grads, scratch)
        };
    }
    gat_backward_kernel((g_out, stride, col), hw, d, scores, index, slope, grads, scratch);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
fn gat_backward_avx2(
    g_out: (&[f32], usize, usize),
    hw: &[f32],
    d: usize,
    scores: (&[f32], &[f32]),
    index: &crate::MessageIndex,
    slope: f32,
    grads: (&mut [f32], &mut [f32], &mut [f32]),
    scratch: (&mut Vec<f32>, &mut Vec<f32>),
) {
    gat_backward_kernel(g_out, hw, d, scores, index, slope, grads, scratch);
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gat_backward_kernel(
    g_out: (&[f32], usize, usize),
    hw: &[f32],
    d: usize,
    scores: (&[f32], &[f32]),
    index: &crate::MessageIndex,
    slope: f32,
    grads: (&mut [f32], &mut [f32], &mut [f32]),
    scratch: (&mut Vec<f32>, &mut Vec<f32>),
) {
    match d {
        4 => gat_backward_width::<4>(g_out, hw, d, scores, index, slope, grads, scratch),
        8 => gat_backward_width::<8>(g_out, hw, d, scores, index, slope, grads, scratch),
        16 => gat_backward_width::<16>(g_out, hw, d, scores, index, slope, grads, scratch),
        _ => gat_backward_width::<0>(g_out, hw, d, scores, index, slope, grads, scratch),
    }
}

/// [`gat_backward_kernel`] at a constant width `W` (`0`: width `d`).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gat_backward_width<const W: usize>(
    (g_out, stride, col): (&[f32], usize, usize),
    hw: &[f32],
    d: usize,
    (score_dst, score_src): (&[f32], &[f32]),
    index: &crate::MessageIndex,
    slope: f32,
    (g_hw, g_dst, g_src): (&mut [f32], &mut [f32], &mut [f32]),
    (alpha, ge): (&mut Vec<f32>, &mut Vec<f32>),
) {
    let d = if W == 0 { d } else { W };
    let (offsets, sources, n) = (index.offsets(), index.sources(), index.n());
    ge.resize(sources.len(), 0.0);
    for base in (0..score_dst.len()).step_by(n) {
        // Every destination of the copy in order: `alpha` in CSR order.
        gat_exps((score_dst, score_src), index, base, 0..n, slope, alpha);
        let (sd, ss) = (&score_dst[base..base + n], &score_src[base..base + n]);
        let g_row = |v: usize| {
            let at = (base + v) * stride + col;
            &g_out[at..at + d]
        };
        let hw_row = |u: usize| &hw[(base + u) * d..(base + u + 1) * d];
        for v in 0..n {
            let (lo, hi) = (offsets[v], offsets[v + 1]);
            let exps = &mut alpha[lo..hi];
            let denom = softmax_denominator(exps);
            for e in exps.iter_mut() {
                *e /= denom;
            }
            let gv = g_row(v);
            let mut dot = 0.0f32;
            for p in lo..hi {
                let mut ga = 0.0f32;
                for (&h, &g) in hw_row(sources[p]).iter().zip(gv) {
                    ga += h * g;
                }
                ge[p] = ga;
                dot += ga * alpha[p];
            }
            let mut sum = 0.0f32;
            for p in lo..hi {
                let t = alpha[p] * (ge[p] - dot);
                let s = sd[v] + ss[sources[p]];
                ge[p] = if s >= 0.0 { t } else { slope * t };
                sum += ge[p];
            }
            g_dst[base + v] += sum;
        }
        for u in 0..n {
            let acc = &mut g_hw[(base + u) * d..(base + u + 1) * d];
            for &(p, v) in index.out_messages(u) {
                g_src[base + u] += ge[p];
                let a = alpha[p];
                for (acc, &g) in acc.iter_mut().zip(g_row(v)) {
                    *acc += a * g;
                }
            }
        }
    }
}

/// Sequential `max(Σ exps, MIN_POSITIVE)` — the segment-softmax
/// normalizer, summed in message order.
#[inline(always)]
fn softmax_denominator(exps: &[f32]) -> f32 {
    let mut sum = 0.0f32;
    for &e in exps {
        sum += e;
    }
    sum.max(f32::MIN_POSITIVE)
}

/// Pass 3 of [`gat_kernel`] at a constant width `W`: each
/// destination's block lives in a `[f32; W]` accumulator across its
/// in-edges and is stored once, to the destination's stacked row.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gat_weighted_sum<const W: usize>(
    out: &mut [f32],
    stride: usize,
    col: usize,
    hw: &[f32],
    exps: &[f32],
    index: &crate::MessageIndex,
    base: usize,
    nodes: impl Iterator<Item = usize>,
) {
    let (offsets, sources) = (index.offsets(), index.sources());
    let mut at = 0;
    for v in nodes {
        let (lo, hi) = (offsets[v], offsets[v + 1]);
        let exps = &exps[at..at + hi - lo];
        at += hi - lo;
        let denom = softmax_denominator(exps);
        let mut acc = [0.0f32; W];
        for (&e, &u) in exps.iter().zip(&sources[lo..hi]) {
            let alpha = e / denom;
            let m = &hw[(base + u) * W..(base + u) * W + W];
            for j in 0..W {
                acc[j] += alpha * m[j];
            }
        }
        let at_out = (base + v) * stride + col;
        out[at_out..at_out + W].copy_from_slice(&acc);
    }
}

/// Fused-order dot product: 8 parallel accumulators plus a sequential
/// tail, folded pairwise. Reassociates the sum relative to the
/// sequential reference (tolerance contract, see the module docs).
/// Unlike [`crate::Matrix::matmul_transposed`] there is no zero-skip, so
/// a non-finite element always propagates.
///
/// # Panics
/// Panics unless `a.len() == b.len()`.
#[inline]
#[must_use]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    dot_body(a, b)
}

/// The sequential dot product: what [`dot_body`] reduces to below one
/// lane block, and its reference.
#[inline(always)]
fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

#[inline(always)]
fn dot_body(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; LANES];
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (x, y) in ac.by_ref().zip(bc.by_ref()) {
        for j in 0..LANES {
            lanes[j] += x[j] * y[j];
        }
    }
    let mut tail = 0.0f32;
    for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
        tail += x * y;
    }
    // Fixed pairwise fold so the result is deterministic per build.
    let l0 = (lanes[0] + lanes[4]) + (lanes[2] + lanes[6]);
    let l1 = (lanes[1] + lanes[5]) + (lanes[3] + lanes[7]);
    (l0 + l1) + tail
}

/// Hyperbolic tangent of one value: the polynomial of [`tanh_map`],
/// within `1e-5` absolute of libm — in practice ~1e-6. The function is
/// **elementwise-deterministic**: the output depends only on the input
/// bits, never on position, slice length, or batch composition, so
/// every forward path (tape, tape-free, batched) that routes through it
/// stays mutually bit-identical.
#[inline]
#[must_use]
pub fn tanh1(x: f32) -> f32 {
    tanh_fast(x)
}

/// In-place elementwise tanh over a slice.
///
/// The libm `tanhf` call was the single most expensive instruction
/// stream in the inference hot path (~11 ns/element, ~2.8k elements per
/// forward on conv3/HReA — more than the matmuls). This kernel replaces
/// it with a branch-free `exp2`-based polynomial that LLVM
/// auto-vectorizes: `tanh(|x|) = 1 − 2/(e^{2|x|} + 1)` with
/// `e^{2|x|} = 2^k · p(f)`, `p` a degree-6 Taylor/Horner evaluation of
/// `2^f` on `|f| ≤ 0.5`. Absolute error vs libm is ≤ 1e-5 (contract;
/// measured ~1e-6); NaN propagates; ±0 and saturation signs match libm.
#[inline]
pub fn tanh_map(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: `avx2()` confirmed the CPU supports AVX2.
        return unsafe { tanh_fast_map_avx2(xs) };
    }
    tanh_fast_map_body(xs)
}

#[inline(always)]
fn tanh_fast_map_body(xs: &mut [f32]) {
    for v in xs {
        *v = tanh_fast(*v);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn tanh_fast_map_avx2(xs: &mut [f32]) {
    tanh_fast_map_body(xs);
}

/// Branch-free polynomial tanh (the body of [`tanh_map`]).
#[inline]
fn tanh_fast(x: f32) -> f32 {
    // t = 2|x|·log2(e), so e^{2|x|} = 2^t. Saturation: tanh rounds to
    // ±1.0 in f32 for |x| ≥ ~9, i.e. t ≥ ~26; capping k keeps the
    // exponent construction in range for any finite input while inf
    // and NaN still propagate through `f`.
    const TWO_LOG2_E: f32 = 2.0 * std::f32::consts::LOG2_E;
    let t = x.abs() * TWO_LOG2_E;
    // Nearest integer via add-and-truncate (t ≥ 0 here, and `min`
    // clamps NaN/huge inputs to 64 — NaN still propagates through `f`
    // below). `round()` would be a libm call at the SSE2 baseline and
    // block vectorization of this loop; the unchecked conversion skips
    // the saturating `as` cast's NaN/range fix-ups, which keep LLVM from
    // vectorizing it well.
    // SAFETY: the operand lies in [0.5, 64.5] — finite and in i32 range.
    let k: i32 = unsafe { (t.min(64.0) + 0.5).to_int_unchecked() };
    let f = t - k as f32;
    // 2^f ≈ Σ ln2^i f^i / i! for |f| ≤ 0.5 (Horner, degree 6).
    const C1: f32 = std::f32::consts::LN_2;
    const C2: f32 = 0.240_226_5;
    const C3: f32 = 0.055_504_11;
    const C4: f32 = 0.009_618_13;
    const C5: f32 = 0.001_333_55;
    const C6: f32 = 0.000_154_04;
    let p = 1.0 + f * (C1 + f * (C2 + f * (C3 + f * (C4 + f * (C5 + f * C6)))));
    // 2^k by exponent-bit construction; k ∈ [0, 64] here.
    let scale = f32::from_bits(((127 + k) as u32) << 23);
    let e = p * scale; // e^{2|x|}
    let y = 1.0 - 2.0 / (e + 1.0);
    y.copysign(x)
}

/// In-place elementwise `e^x` over max-shifted softmax inputs
/// (`x ≤ 0`; every segment's maximum maps to exactly `0.0`).
///
/// Elementwise-approximate (module docs): the same branch-free
/// `2^k · p(f)` construction as [`tanh_map`], within `1e-5` relative of
/// libm (measured ~1e-7), and LLVM vectorizes the loop — libm `expf`
/// was the dominant cost of `segment_softmax`, the second hottest call
/// in the batched forward after the matmuls.
///
/// The kernel depends only on the element bits, so the tape and
/// tape-free softmax stay mutually bit-identical. Inputs below
/// `-126·ln 2` (where `e^x` is subnormal) flush toward zero; softmax
/// ratios are unaffected because every segment sum includes the shifted
/// maximum's `e^0 = 1`.
///
/// # Panics
/// Debug-panics if an element is positive (callers shift by the
/// segment max first).
#[inline]
pub fn exp_neg_map(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: `avx2()` confirmed the CPU supports AVX2.
        return unsafe { exp_neg_map_avx2(xs) };
    }
    exp_neg_map_body(xs)
}

#[inline(always)]
fn exp_neg_map_body(xs: &mut [f32]) {
    for v in xs {
        debug_assert!(*v <= 0.0 || v.is_nan(), "exp_neg_map input must be max-shifted (≤ 0)");
        *v = exp_fast_neg(*v);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn exp_neg_map_avx2(xs: &mut [f32]) {
    exp_neg_map_body(xs);
}

/// Branch-free polynomial `e^x` for `x ≤ 0` (the body of
/// [`exp_neg_map`]).
#[inline]
#[allow(clippy::manual_clamp)] // `clamp` would keep a NaN, `max` maps it to -126
fn exp_fast_neg(x: f32) -> f32 {
    // e^x = 2^t with t = x·log2(e) ≤ 0. The lower clamp keeps the
    // exponent construction in normal range (t < -126 would need a
    // subnormal); true e^x is < 1.2e-38 there, so the clamped value is
    // still zero for every softmax purpose. `max` also maps NaN to -126.
    // The upper clamp only bounds out-of-contract inputs (x > 88, where
    // e^x overflows f32 anyway) so the conversion below stays in range.
    let t = (x * std::f32::consts::LOG2_E).max(-126.0).min(127.0);
    // Nearest integer via subtract-and-truncate: t ≤ 0, so truncation
    // toward zero of `t - 0.5` rounds t to the nearest integer (ties
    // away). `round()` is a libm call at the SSE2 baseline and would
    // block vectorization, as do the saturating `as` cast's fix-ups.
    // SAFETY: the operand lies in [-126.5, 126.5] — finite and in i32
    // range.
    let k: i32 = unsafe { (t - 0.5).to_int_unchecked() };
    let f = t - k as f32;
    // 2^f ≈ Σ ln2^i f^i / i! for |f| ≤ 0.5 (Horner, degree 6) — same
    // coefficients as `tanh_fast`.
    const C1: f32 = std::f32::consts::LN_2;
    const C2: f32 = 0.240_226_5;
    const C3: f32 = 0.055_504_11;
    const C4: f32 = 0.009_618_13;
    const C5: f32 = 0.001_333_55;
    const C6: f32 = 0.000_154_04;
    let p = 1.0 + f * (C1 + f * (C2 + f * (C3 + f * (C4 + f * (C5 + f * C6)))));
    // 2^k by exponent-bit construction; k ∈ [-126, 0] here.
    let scale = f32::from_bits(((127 + k) as u32) << 23);
    p * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize, phase: f32) -> Vec<f32> {
        (0..n).map(|i| ((i as f32 + phase) * 0.37).sin() * 1.7).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn axpy_is_bit_exact_to_sequential_loop() {
        for n in [0usize, 1, 7, 8, 9, 16, 31, 64] {
            let x = series(n, 0.3);
            let mut a = series(n, 1.1);
            let mut b = a.clone();
            axpy_scalar(&mut a, 0.73, &x);
            axpy(&mut b, 0.73, &x);
            assert_eq!(a, b, "n={n}");
        }
    }

    #[test]
    fn matmul_acc_is_bit_exact_to_sequential_reference() {
        // Widths crossing the block sizes and the ragged tail, row
        // counts crossing the 4-row tile and its remainder, and zero
        // coefficients sprinkled in to exercise the skip. The reference
        // models the documented rounding contract exactly: ascending-k
        // fused accumulation (`mul_add`) on the leading `n - n % 8`
        // columns, separate multiply-then-add on the ragged tail.
        for (rows, cols, n) in
            [(3usize, 9usize, 16usize), (2, 16, 40), (5, 7, 5), (4, 12, 33), (9, 6, 24)]
        {
            let mut lhs = series(rows * cols, 0.4);
            for v in lhs.iter_mut().step_by(5) {
                *v = 0.0;
            }
            let rhs = series(cols * n, 1.3);
            let fused_cols = n - n % 8;
            let mut seq = vec![0.0f32; rows * n];
            for i in 0..rows {
                for k in 0..cols {
                    let a = lhs[i * cols + k];
                    if a != 0.0 {
                        for j in 0..n {
                            let o = &mut seq[i * n + j];
                            if j < fused_cols {
                                *o = a.mul_add(rhs[k * n + j], *o);
                            } else {
                                *o += a * rhs[k * n + j];
                            }
                        }
                    }
                }
            }
            let mut blocked = vec![0.0f32; rows * n];
            matmul_acc(&lhs, cols, &rhs, n, &mut blocked);
            assert_eq!(seq, blocked, "{rows}x{cols}x{n}");
        }
    }

    #[test]
    fn matvec_acc_is_bit_exact_to_sequential_loop() {
        // Row counts crossing the 4-row interleave and its remainder,
        // with zero coefficients sprinkled in to exercise the skip.
        for (rows, cols) in [(9usize, 16usize), (4, 7), (3, 12), (8, 1), (2, 0)] {
            let mut lhs = series(rows * cols, 0.7);
            for v in lhs.iter_mut().step_by(5) {
                *v = 0.0;
            }
            let rhs = series(cols, 1.9);
            let mut seq = vec![0.0f32; rows];
            for i in 0..rows {
                let mut acc = 0.0f32;
                for (&a, &b) in lhs[i * cols..(i + 1) * cols].iter().zip(&rhs) {
                    if a != 0.0 {
                        acc += a * b;
                    }
                }
                seq[i] = acc;
            }
            let mut quad = vec![0.0f32; rows];
            matvec_acc(&lhs, cols, &rhs, &mut quad);
            if cols == 0 {
                continue; // early return leaves `out` untouched
            }
            assert_eq!(seq, quad, "{rows}x{cols}");
        }
    }

    #[test]
    fn fast_exp_stays_within_contract_of_libm() {
        // Sweep the normal range of the softmax-shifted domain; below
        // -126·ln 2 the kernel flushes toward zero (checked separately
        // in `fast_exp_edge_cases`).
        let mut worst = 0.0f32;
        let mut i = 0i32;
        while i <= 870_000 {
            let x = -(i as f32) * 1e-4; // [-87, 0]
            let e = exp_fast_neg(x);
            let r = x.exp();
            let err = (e - r).abs() / r;
            worst = worst.max(err);
            i += 1;
        }
        assert!(worst <= 1e-5, "max relative |exp_fast_neg - exp| = {worst}");
    }

    #[test]
    fn fast_exp_edge_cases() {
        assert_eq!(exp_fast_neg(0.0), 1.0);
        assert_eq!(exp_fast_neg(-0.0), 1.0);
        assert!(exp_fast_neg(-1000.0) <= f32::MIN_POSITIVE, "deep underflow flushes to ~0");
        assert!(exp_fast_neg(f32::NEG_INFINITY) <= f32::MIN_POSITIVE);
    }

    #[test]
    fn exp_neg_map_is_elementwise() {
        let xs: Vec<f32> = (0..37).map(|i| -((i as f32) * 0.41).fract() * 20.0).collect();
        let mut mapped = xs.clone();
        exp_neg_map(&mut mapped);
        for (m, x) in mapped.iter().zip(&xs) {
            assert_eq!(m.to_bits(), exp_fast_neg(*x).to_bits());
        }
    }

    #[test]
    fn dot_matches_sequential_loop_within_tolerance() {
        for n in [0usize, 1, 7, 8, 9, 40, 129] {
            let a = series(n, 0.0);
            let b = series(n, 2.0);
            let fused = dot(&a, &b);
            let seq = dot_scalar(&a, &b);
            assert!((fused - seq).abs() <= 1e-5 * (1.0 + seq.abs()), "n={n}: {fused} vs {seq}");
        }
    }

    #[test]
    fn kind_reports_the_cpu_features() {
        #[cfg(target_arch = "x86_64")]
        let detected =
            std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma");
        #[cfg(not(target_arch = "x86_64"))]
        let detected = false;
        let want = if detected { SimdKind::Avx2Fma } else { SimdKind::Portable };
        assert_eq!(kind(), want);
    }

    /// Every `#[target_feature(enable = "avx2,fma")]` twin gives the bits
    /// of its portable body on the same inputs: the twins may change
    /// throughput, never results.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_twins_match_portable_bodies_bitwise() {
        if !avx2() {
            return;
        }
        // SAFETY (every `unsafe` below): `avx2()` confirmed AVX2 and FMA.
        // Widths crossing the 32/16/8 column blocks and every ragged
        // tail, row counts crossing the 4-row tile and its remainder,
        // and zero coefficients sprinkled in for the skip.
        let shapes =
            [(3usize, 9usize, 16usize), (2, 16, 40), (5, 7, 5), (4, 12, 33), (9, 6, 24), (7, 3, 47), (8, 5, 1)];
        for (rows, cols, n) in shapes {
            let mut lhs = series(rows * cols, 0.4);
            for v in lhs.iter_mut().step_by(5) {
                *v = 0.0;
            }
            let what = format!("{rows}x{cols}x{n}");
            // out (rows x n) += lhs · rhs (cols x n)
            let rhs = series(cols * n, 1.3);
            let mut portable = series(rows * n, 2.1);
            let mut twin = portable.clone();
            matmul_kernel(&lhs, cols, &rhs, n, &mut portable);
            unsafe { matmul_acc_avx2(&lhs, cols, &rhs, n, &mut twin) };
            assert_eq!(bits(&portable), bits(&twin), "matmul {what}");
            // out (cols x n) += lhsᵀ · rhs (rows x n)
            let rhs = series(rows * n, 0.8);
            let mut portable = series(cols * n, 0.2);
            let mut twin = portable.clone();
            transpose_matmul_body(&lhs, cols, &rhs, n, &mut portable);
            unsafe { transpose_matmul_avx2(&lhs, cols, &rhs, n, &mut twin) };
            assert_eq!(bits(&portable), bits(&twin), "transpose_matmul {what}");
            // out (rows x n) += lhs · rhsᵀ, rhs (n x cols)
            let rhs = series(n * cols, 1.7);
            let mut portable = series(rows * n, 0.6);
            let mut twin = portable.clone();
            matmul_transposed_body(&lhs, &rhs, cols, &mut portable);
            unsafe { matmul_transposed_avx2(&lhs, &rhs, cols, &mut twin) };
            assert_eq!(bits(&portable), bits(&twin), "matmul_transposed {what}");
        }
        for len in [0usize, 1, 7, 8, 9, 31, 64, 100] {
            let xs: Vec<f32> = series(len, 0.6).iter().map(|v| v * 6.0).collect();
            let (mut portable, mut twin) = (xs.clone(), xs.clone());
            tanh_fast_map_body(&mut portable);
            unsafe { tanh_fast_map_avx2(&mut twin) };
            assert_eq!(bits(&portable), bits(&twin), "tanh len {len}");
            let neg: Vec<f32> = xs.iter().map(|v| -v.abs() * 10.0).collect();
            let (mut portable, mut twin) = (neg.clone(), neg);
            exp_neg_map_body(&mut portable);
            unsafe { exp_neg_map_avx2(&mut twin) };
            assert_eq!(bits(&portable), bits(&twin), "exp len {len}");
            let (mut portable, mut twin) = (series(len, 1.1), series(len, 1.1));
            axpy_body(&mut portable, 0.73, &xs);
            unsafe { axpy_avx2(&mut twin, 0.73, &xs) };
            assert_eq!(bits(&portable), bits(&twin), "axpy len {len}");
        }
        // Two stacked copies of a 7-node graph with a duplicate edge, an
        // explicit self-edge and an isolated node; `d` = 3 takes the
        // generic width, 4/8/16 the fixed-width accumulators.
        let n = 7;
        let edges = [(0, 1), (2, 1), (1, 3), (3, 4), (4, 2), (0, 5), (0, 5), (5, 5), (2, 4)];
        let mut index = crate::MessageIndex::new();
        index.rebuild(&edges, n);
        let (rows, slope) = (2 * n, 0.2);
        let (sd, ss) = (series(rows, 1.4), series(rows, 2.6));
        for d in [3usize, 4, 8, 16] {
            let (stride, col) = (d + 5, 2);
            let hw = series(rows * d, 0.9);
            let (mut portable, mut twin) = (vec![0.0; rows * stride], vec![0.0; rows * stride]);
            let (mut s1, mut s2) = (Vec::new(), Vec::new());
            let dests: Vec<usize> = (0..rows).collect();
            let scores = (sd.as_slice(), ss.as_slice());
            gat_kernel(&mut portable, stride, col, &hw, d, scores, &index, &dests, slope, &mut s1);
            unsafe {
                gat_kernel_avx2(
                    &mut twin, stride, col, &hw, d, scores, &index, &dests, slope, &mut s2,
                );
            }
            assert_eq!(bits(&portable), bits(&twin), "gat forward d={d}");
            let g_out = series(rows * stride, 0.3);
            let mut p = (vec![0.0; rows * d], vec![0.0; rows], vec![0.0; rows]);
            let mut t = p.clone();
            let mut p_scratch = (Vec::new(), Vec::new());
            let mut t_scratch = (Vec::new(), Vec::new());
            gat_backward_kernel(
                (&g_out, stride, col),
                &hw,
                d,
                (&sd, &ss),
                &index,
                slope,
                (&mut p.0, &mut p.1, &mut p.2),
                (&mut p_scratch.0, &mut p_scratch.1),
            );
            unsafe {
                gat_backward_avx2(
                    (&g_out, stride, col),
                    &hw,
                    d,
                    (&sd, &ss),
                    &index,
                    slope,
                    (&mut t.0, &mut t.1, &mut t.2),
                    (&mut t_scratch.0, &mut t_scratch.1),
                );
            }
            assert_eq!(bits(&p.0), bits(&t.0), "gat backward hw d={d}");
            assert_eq!(bits(&p.1), bits(&t.1), "gat backward score_dst d={d}");
            assert_eq!(bits(&p.2), bits(&t.2), "gat backward score_src d={d}");
        }
    }

    #[test]
    fn fast_tanh_stays_within_contract_of_libm() {
        // Dense sweep over the active range plus the saturation zone.
        let mut worst = 0.0f32;
        let mut i = -120_000i32;
        while i <= 120_000 {
            let x = i as f32 * 1e-4; // [-12, 12]
            let err = (tanh_fast(x) - x.tanh()).abs();
            worst = worst.max(err);
            i += 1;
        }
        assert!(worst <= 1e-5, "max |tanh_fast - tanh| = {worst}");
    }

    #[test]
    fn fast_tanh_edge_cases_match_libm() {
        assert_eq!(tanh_fast(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh_fast(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh_fast(f32::INFINITY), 1.0);
        assert_eq!(tanh_fast(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh_fast(40.0), 1.0);
        assert_eq!(tanh_fast(-40.0), -1.0);
        assert_eq!(tanh_fast(1.0e30), 1.0);
        assert!(tanh_fast(f32::NAN).is_nan(), "NaN must propagate");
    }

    #[test]
    fn tanh_map_is_elementwise_tanh1() {
        let xs = series(37, 0.9);
        let mut mapped = xs.clone();
        tanh_map(&mut mapped);
        for (&m, &x) in mapped.iter().zip(&xs) {
            assert_eq!(m.to_bits(), tanh1(x).to_bits());
        }
    }
}
