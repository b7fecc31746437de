//! Property-based tests for virtual-loss leaf batching and the SIMD
//! kernels underneath it.
//!
//! Two families of invariants are pinned here:
//!
//! * **Search level** — batched search at any `leaf_batch` produces a
//!   legal decision (and only valid solutions). That the K=1 loop is
//!   bit-identical to the one-leaf-at-a-time recursion is pinned next
//!   to its test-only oracle in `mapzero_core::mcts`.
//! * **Kernel level** — the SIMD matmul/softmax kernels obey the
//!   determinism contract in `mapzero_nn::simd`: the register-blocked
//!   matmul is bit-exact against a sequential reference that models
//!   the active kind's documented rounding split (under `Lanes8` fused
//!   `mul_add` on the leading `n - n % 8` columns and separate
//!   multiply-then-add on the ragged tail; separate everywhere under
//!   `Scalar`); fused-order kernels (dot-based transposed matmul, the
//!   fused masked log-softmax, `predict_batch` at K>1) match within
//!   1e-5 over random shapes including ragged (non-multiple-of-8)
//!   tails. `predict_batch` is held to `predict` per observation;
//!   `predict` itself is held to the tape forward in
//!   `mapzero_core::network`.

use mapzero::core::embed::observe;
use mapzero::core::mcts::{Mcts, MctsConfig};
use mapzero::core::network::{MapZeroNet, NetConfig};
use mapzero::core::MapEnv;
use mapzero::dfg::random::{random_dfg, RandomDfgConfig};
use mapzero::nn::infer::{log_softmax_masked_fused_into, log_softmax_masked_into};
use mapzero::nn::simd::{self, SimdKind};
use mapzero::nn::Matrix;
use mapzero::prelude::*;
use proptest::prelude::*;

fn dfg_strategy() -> impl Strategy<Value = Dfg> {
    (2usize..10, 0usize..6, any::<u64>()).prop_map(|(nodes, extra, seed)| {
        random_dfg(
            "prop-batch",
            &RandomDfgConfig {
                nodes,
                edges: nodes - 1 + extra,
                self_cycles: 0,
                max_fanin: 3,
                seed,
            },
        )
    })
}

/// Sequential triple-loop matmul modelling the active kernel kind's
/// rounding contract exactly (DESIGN §9): ascending `k` with the zero
/// skip; under `Lanes8` (see `mapzero_nn::simd::matmul_lanes8`) fused
/// accumulation on the leading `n - n % 8` columns and separate
/// multiply-then-add on the ragged tail, under `Scalar` separate
/// multiply-then-add everywhere.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let n = b.cols();
    let fused_cols = match simd::kind() {
        SimdKind::Lanes8 => n - n % 8,
        SimdKind::Scalar => 0,
    };
    let mut out = Matrix::zeros(a.rows(), n);
    for i in 0..a.rows() {
        for l in 0..a.cols() {
            let v = a[(i, l)];
            if v == 0.0 {
                continue;
            }
            for j in 0..n {
                if j < fused_cols {
                    out[(i, j)] = v.mul_add(b[(l, j)], out[(i, j)]);
                } else {
                    out[(i, j)] += v * b[(l, j)];
                }
            }
        }
    }
    out
}

/// Walk legal placements until `steps` states have been visited,
/// collecting the observation at each prefix of one episode (so every
/// observation shares the problem's graph shapes, like batched MCTS
/// leaves do).
fn episode_observations(env: &mut MapEnv<'_>, choices: &[usize]) -> Vec<mapzero::core::embed::Observation> {
    let mut out = vec![observe(env)];
    for &c in choices {
        if env.done() {
            break;
        }
        let legal = env.legal_actions();
        if legal.is_empty() {
            break;
        }
        env.step(legal[c % legal.len()]);
        if !env.done() && !env.legal_actions().is_empty() {
            out.push(observe(env));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batched search with virtual loss yields a legal root action and
    /// only valid solutions, for any batch size.
    #[test]
    fn batched_search_is_legal_at_any_k(
        dfg in dfg_strategy(),
        leaf_batch in 1usize..13,
        seed in any::<u64>(),
    ) {
        let cgra = presets::simple_mesh(3, 3);
        let Ok(mii) = Problem::mii(&dfg, &cgra) else { return Ok(()) };
        let Ok(problem) = Problem::new(&dfg, &cgra, mii) else { return Ok(()) };
        let env = MapEnv::new(&problem);
        if env.done() || env.legal_actions().is_empty() {
            return Ok(());
        }
        let net = MapZeroNet::new(cgra.pe_count(), NetConfig::tiny());
        let mut mcts = Mcts::new(
            &net,
            MctsConfig { leaf_batch, seed, ..MctsConfig::fast_test() },
        );
        let result = mcts.search(&env);
        prop_assert!(
            env.legal_actions().contains(&result.best_action),
            "best action {:?} must be legal at the root",
            result.best_action
        );
        let dist_total: f32 = result.visit_distribution.iter().sum();
        prop_assert!((dist_total - 1.0).abs() < 1e-4, "π must normalize, got {dist_total}");
        if let Some(solution) = &result.solution {
            prop_assert!(solution.validate(&dfg, &cgra).is_empty(), "solutions must validate");
        }
    }

    /// `Matrix::matmul` (register-blocked SIMD) is bit-exact against
    /// the sequential reference modelling its rounding contract, over
    /// random shapes including widths that leave ragged 8-lane tails.
    #[test]
    fn simd_matmul_is_bit_exact_to_naive_reference(
        dims in (1usize..7, 1usize..26, 1usize..26),
        seed in any::<u64>(),
    ) {
        let (m, k, n) = dims;
        let a = hash_matrix(m, k, seed);
        let b = hash_matrix(k, n, seed ^ 0x2545_f491_4f6c_dd1d);
        let fast = a.matmul(&b);
        let slow = naive_matmul(&a, &b);
        prop_assert_eq!(fast.data(), slow.data());
    }

    /// `matmul_transposed_fast` (dot-backed, fused-order SIMD) matches
    /// the bit-exact transposed kernel within the 1e-5 contract.
    #[test]
    fn simd_transposed_matmul_stays_within_tolerance(
        dims in (1usize..7, 1usize..34, 1usize..7),
        seed in any::<u64>(),
    ) {
        let (m, k, n) = dims;
        let a = hash_matrix(m, k, seed);
        let b = hash_matrix(n, k, seed ^ 0x9e37_79b9_7f4a_7c15);
        let fast = a.matmul_transposed_fast(&b);
        let exact = a.matmul_transposed(&b);
        for (x, y) in fast.data().iter().zip(exact.data()) {
            prop_assert!((x - y).abs() <= 1e-5 * (1.0 + y.abs()), "{x} vs {y}");
        }
    }

    /// The fused masked log-softmax matches the scalar oracle within
    /// 1e-5 on unmasked lanes and is bit-exact on masked lanes (both
    /// pin the same `NEG_INF`), over random lengths including ragged
    /// tails and sparse masks.
    #[test]
    fn fused_log_softmax_stays_within_tolerance(
        logits in proptest::collection::vec(-9.0f32..9.0, 1..40),
        mask_seed in any::<u64>(),
    ) {
        let mut state = mask_seed | 1;
        let mut mask: Vec<bool> = logits
            .iter()
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                state >> 63 == 1
            })
            .collect();
        mask[0] = true; // the kernels require at least one legal lane
        let mut fused = Vec::new();
        let mut scalar = Vec::new();
        log_softmax_masked_fused_into(&logits, &mask, &mut fused);
        log_softmax_masked_into(&logits, &mask, &mut scalar);
        for ((f, s), &keep) in fused.iter().zip(&scalar).zip(&mask) {
            if keep {
                prop_assert!((f - s).abs() <= 1e-5 * (1.0 + s.abs()), "{f} vs {s}");
            } else {
                prop_assert_eq!(f.to_bits(), s.to_bits(), "masked lanes must pin NEG_INF");
            }
        }
    }

    /// `predict_batch` honours the documented contract at both ends
    /// against the per-observation `predict`: a batch of one is
    /// bit-identical to it, and K>1 batches match it within the 1e-5
    /// softmax tolerance (values bit-identical) regardless of batch
    /// composition.
    #[test]
    fn predict_batch_matches_reference_per_observation(
        dfg in dfg_strategy(),
        choices in proptest::collection::vec(0usize..64, 6..7),
    ) {
        let cgra = presets::simple_mesh(3, 3);
        let Ok(mii) = Problem::mii(&dfg, &cgra) else { return Ok(()) };
        let Ok(problem) = Problem::new(&dfg, &cgra, mii) else { return Ok(()) };
        let mut env = MapEnv::new(&problem);
        if env.done() || env.legal_actions().is_empty() {
            return Ok(());
        }
        let observations = episode_observations(&mut env, &choices);
        let net = MapZeroNet::new(cgra.pe_count(), NetConfig::tiny());

        let single = net.predict_batch(&[&observations[0]]);
        prop_assert_eq!(&single[0], &net.predict(&observations[0]), "K=1 is bit-exact");

        let refs: Vec<&mapzero::core::embed::Observation> = observations.iter().collect();
        let batched = net.predict_batch(&refs);
        prop_assert_eq!(batched.len(), refs.len());
        for (pred, obs) in batched.iter().zip(&refs) {
            let reference = net.predict(obs);
            prop_assert_eq!(pred.value.to_bits(), reference.value.to_bits(), "values are bit-exact");
            for ((p, r), &keep) in pred.log_probs.iter().zip(&reference.log_probs).zip(&obs.mask) {
                if keep {
                    prop_assert!((p - r).abs() <= 1e-5 * (1.0 + r.abs()), "{p} vs {r}");
                } else {
                    prop_assert_eq!(p.to_bits(), r.to_bits());
                }
            }
        }
    }
}

/// Deterministic pseudo-random matrix with hash-mixed entries and ~1/8
/// exact zeros (exercises the matmul sparsity skips).
fn hash_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
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
