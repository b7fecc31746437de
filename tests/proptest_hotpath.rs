//! Property-based equivalence tests for the inference hot path: every
//! cached/incremental/scratch-buffer shortcut must be *bit-identical*
//! to its naive counterpart over random DFGs, fabrics and episode
//! prefixes — the hot path is a pure speed optimization, never a
//! numerics change. The tape-free forward is held to its test-only
//! tape oracle in `mapzero_core::network`.

use mapzero::core::embed::{observe, Observer};
use mapzero::dfg::random::{random_dfg, RandomDfgConfig};
use mapzero::nn::Matrix;
use mapzero::prelude::*;
use mapzero::core::MapEnv;
use proptest::prelude::*;

fn dfg_strategy() -> impl Strategy<Value = Dfg> {
    (2usize..14, 0usize..8, 0usize..2, any::<u64>()).prop_map(
        |(nodes, extra, cycles, seed)| {
            random_dfg(
                "prop",
                &RandomDfgConfig {
                    nodes,
                    edges: nodes - 1 + extra,
                    self_cycles: cycles,
                    max_fanin: 3,
                    seed,
                },
            )
        },
    )
}

fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-8.0f32..8.0, rows * cols..rows * cols + 1)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Incremental featurization == full rebuild at every step of a
    /// random episode prefix, including after an undo.
    #[test]
    fn incremental_observe_is_bit_identical_to_rebuild(
        dfg in dfg_strategy(),
        choices in proptest::collection::vec(0usize..64, 10..11),
        undo_at in 0usize..10,
    ) {
        let cgra = presets::simple_mesh(3, 3);
        let Ok(mii) = Problem::mii(&dfg, &cgra) else { return Ok(()) };
        let Ok(problem) = Problem::new(&dfg, &cgra, mii) else { return Ok(()) };
        let mut env = MapEnv::new(&problem);
        let mut observer = Observer::new();
        prop_assert_eq!(observer.observe(&env), &observe(&env), "initial state");
        for (i, &c) in choices.iter().enumerate() {
            if env.done() {
                break;
            }
            let legal = env.legal_actions();
            if legal.is_empty() {
                break;
            }
            env.step(legal[c % legal.len()]);
            prop_assert_eq!(observer.observe(&env), &observe(&env), "after step {}", i);
            if i == undo_at && env.undo().is_some() {
                prop_assert_eq!(observer.observe(&env), &observe(&env), "after undo");
            }
        }
    }

    /// `matmul_transposed(b)` == `matmul(&b.transpose())`, bitwise.
    /// Output widths stay below 8: from 8 columns up the `Lanes8`
    /// matmul fuses its leading blocks (`simd::matmul_lanes8`) and the
    /// transposed form keeps separate rounding, so bitwise equality is
    /// only contracted for sub-block widths.
    #[test]
    fn matmul_transposed_matches_explicit_transpose(
        dims in (1usize..6, 1usize..6, 1usize..6),
        seed in any::<u64>(),
    ) {
        let (m, k, n) = dims;
        let a = deterministic_matrix(m, k, seed);
        let b = deterministic_matrix(n, k, seed ^ 0x9e37_79b9);
        let fast = a.matmul_transposed(&b);
        let slow = a.matmul(&b.transpose());
        prop_assert_eq!(fast.data(), slow.data());
    }

    /// `transpose_matmul(g)` == `transpose().matmul(g)`, bitwise.
    /// Output widths stay below 8 for the same reason as above.
    #[test]
    fn transpose_matmul_matches_explicit_transpose(
        dims in (1usize..6, 1usize..6, 1usize..6),
        seed in any::<u64>(),
    ) {
        let (m, k, n) = dims;
        let a = deterministic_matrix(k, m, seed);
        let g = deterministic_matrix(k, n, seed ^ 0x517c_c1b7);
        let fast = a.transpose_matmul(&g);
        let slow = a.transpose().matmul(&g);
        prop_assert_eq!(fast.data(), slow.data());
    }

    /// Random-valued variant of the transpose kernels (proptest-driven
    /// data instead of the hash-derived fill), with zeros mixed in to
    /// exercise the sparsity skips.
    #[test]
    fn transpose_kernels_match_on_random_values(
        a in matrix_strategy(3, 4),
        b in matrix_strategy(5, 4),
    ) {
        let fast = a.matmul_transposed(&b);
        let slow = a.matmul(&b.transpose());
        prop_assert_eq!(fast.data(), slow.data());
    }
}

/// Deterministic pseudo-random matrix (hash-mixed entries, ~1/8 exact
/// zeros so the sparsity skip paths are exercised).
fn deterministic_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut data = Vec::with_capacity(rows * cols);
    let mut state = seed | 1;
    for _ in 0..rows * cols {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let v = if state.is_multiple_of(8) {
            0.0
        } else {
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        data.push(v);
    }
    Matrix::from_vec(rows, cols, data)
}
