//! Inference hot-path benchmark: the tape-free forward + MCTS
//! prediction cache against their naive counterparts.
//!
//! Three measurements:
//!
//! 1. **Prediction throughput** — `predict_reference` (autodiff tape,
//!    per-op allocations) vs `predict` (InferCtx scratch reuse, fused
//!    message passing over a reused CSR index) on a fixed observation,
//!    in predictions/second.
//! 2. **Batched leaf evaluation scaling** — `predict_batch` at batch
//!    sizes 1/4/8/16 against the one-at-a-time scalar path over
//!    distinct episode states (the MCTS leaf workload). Each batch size
//!    is measured as interleaved scalar/batched pairs and summarized as
//!    the median of per-pair throughput ratios, which cancels slow
//!    frequency/thermal drift that a sequential A-then-B layout folds
//!    into the comparison.
//! 3. **Training throughput** — 32-sample `train_batch` steps of the
//!    tiny network on HReA over real episode states of six kernels, in
//!    samples/second (`train_samples_per_sec`), with telemetry on so
//!    the `nn.train_us` histogram lands in the metrics delta.
//! 4. **End-to-end compile time** — the Fig. 11 MapZero configuration on
//!    a workload kernel, with the MCTS prediction cache off vs on.
//!
//! Results land in `results/BENCH_hotpath.json` with the run's metric
//! deltas (including the `search.predict_cache.{hit,miss}` counters)
//! plus the `batch_scaling` table and `batch8_speedup`, so
//! `scripts/ci.sh` can schema-check the file and flag throughput
//! regressions against the committed baseline.

use mapzero_bench::{BenchMode, Harness};
use mapzero_core::embed::observe;
use mapzero_core::network::{MapZeroNet, NetConfig, TrainSample};
use mapzero_core::{Compiler, MapEnv, Problem};
use mapzero_obs::json::Json;
use std::time::{Duration, Instant};

/// Median of a sample (sorted in place).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Run `f` repeatedly for at least `budget`, returning calls/second.
fn throughput(budget: Duration, mut f: impl FnMut()) -> f64 {
    // Warm-up: fill scratch buffers and indices so steady state is measured.
    f();
    let started = Instant::now();
    let mut calls = 0u64;
    while started.elapsed() < budget {
        f();
        calls += 1;
    }
    calls as f64 / started.elapsed().as_secs_f64()
}

fn main() {
    let mode = BenchMode::from_env();
    let h = Harness::begin("hotpath", format!("Inference hot path: before/after ({mode:?} mode)"));
    let budget = match mode {
        BenchMode::Quick => Duration::from_millis(300),
        BenchMode::Full => Duration::from_secs(2),
    };

    // --- 1. Raw prediction throughput -------------------------------
    let dfg = mapzero_dfg::suite::by_name("conv3").expect("kernel exists");
    let cgra = mapzero_arch::presets::hrea();
    let mii = Problem::mii(&dfg, &cgra).expect("mappable");
    let problem = Problem::new(&dfg, &cgra, mii).expect("schedulable");
    let env = MapEnv::new(&problem);
    let obs = observe(&env);
    let net = MapZeroNet::new(cgra.pe_count(), NetConfig::default());
    assert_eq!(
        net.predict(&obs),
        net.predict_reference(&obs),
        "hot path must stay bit-identical to the reference"
    );

    h.progress("measuring predict_reference (tape-based)");
    let ref_rate = throughput(budget, || {
        std::hint::black_box(net.predict_reference(&obs));
    });
    h.progress("measuring predict (tape-free)");
    let fast_rate = throughput(budget, || {
        std::hint::black_box(net.predict(&obs));
    });
    let predict_speedup = fast_rate / ref_rate.max(f64::MIN_POSITIVE);
    h.note(format!(
        "predictions/sec: reference {ref_rate:.0}, fast {fast_rate:.0} ({predict_speedup:.1}x)"
    ));
    h.field("predictions_per_sec_reference", Json::Num(ref_rate));
    h.field("predictions_per_sec_fast", Json::Num(fast_rate));
    h.field("predict_speedup", Json::Num(predict_speedup));

    // --- 2. Batched leaf evaluation scaling --------------------------
    // The MCTS leaf workload: distinct mid-episode states of one
    // problem (real leaves all differ in placement). The scalar arm is
    // the pre-batching configuration — scalar kernels (`SimdKind::Scalar`,
    // libm tanh, sequential reductions), one `predict` per leaf. The
    // batched arm is this PR's configuration — SIMD kernels
    // (`SimdKind::Lanes8`) plus `predict_batch` over K leaves. Kernel
    // kinds are switched per arm via `simd::force_kind`, then restored.
    let mut states = Vec::new();
    {
        let mut walk = MapEnv::new(&problem);
        while states.len() < 16 && !walk.done() {
            let legal = walk.legal_actions();
            if legal.is_empty() {
                break;
            }
            states.push(observe(&walk));
            walk.step(legal[0]);
        }
    }
    assert!(!states.is_empty(), "conv3 episode yields at least one state");
    let leaf_obs: Vec<&mapzero_core::embed::Observation> = states.iter().collect();
    let default_kind = mapzero_nn::simd::kind();
    let pairs = 5usize;
    let slice = budget / 16;
    let mut scaling = Vec::new();
    let mut batch8_speedup = f64::NAN;
    for &k in &[1usize, 4, 8, 16] {
        h.progress(format!("measuring predict_batch at K={k} (interleaved pairs)"));
        // Pre-built K-chunks cycling the episode states.
        let chunks: Vec<Vec<&mapzero_core::embed::Observation>> = (0..8)
            .map(|c| (0..k).map(|j| leaf_obs[(c * k + j) % leaf_obs.len()]).collect())
            .collect();
        let mut ratios = Vec::new();
        let mut rates = Vec::new();
        for p in 0..pairs {
            let mut cursor = 0usize;
            let mut scalar_arm = || {
                mapzero_nn::simd::force_kind(mapzero_nn::simd::SimdKind::Scalar);
                let rate = throughput(slice, || {
                    std::hint::black_box(net.predict(leaf_obs[cursor % leaf_obs.len()]));
                    cursor += 1;
                });
                mapzero_nn::simd::force_kind(default_kind);
                rate
            };
            let mut chunk = 0usize;
            let mut batch_arm = || {
                mapzero_nn::simd::force_kind(mapzero_nn::simd::SimdKind::Lanes8);
                let rate = throughput(slice, || {
                    std::hint::black_box(net.predict_batch(&chunks[chunk % chunks.len()]));
                    chunk += 1;
                }) * k as f64;
                mapzero_nn::simd::force_kind(default_kind);
                rate
            };
            // Alternate arm order per pair so drift within a pair
            // cancels across the median instead of biasing one arm.
            let (scalar_rate, batch_rate) = if p % 2 == 0 {
                let s = scalar_arm();
                (s, batch_arm())
            } else {
                let b = batch_arm();
                (scalar_arm(), b)
            };
            ratios.push(batch_rate / scalar_rate.max(f64::MIN_POSITIVE));
            rates.push(batch_rate);
        }
        let speedup = median(&mut ratios);
        let rate = median(&mut rates);
        h.note(format!("batch {k}: {rate:.0} predictions/sec, {speedup:.2}x vs scalar"));
        if k == 8 {
            batch8_speedup = speedup;
        }
        scaling.push(Json::obj(vec![
            ("batch", Json::Num(k as f64)),
            ("predictions_per_sec", Json::Num(rate)),
            ("speedup_vs_scalar", Json::Num(speedup)),
        ]));
    }
    h.field("batch_scaling", Json::Arr(scaling));
    h.field("batch8_speedup", Json::Num(batch8_speedup));

    // --- 3. Training throughput ---------------------------------------
    // The self-play update: one optimizer step per 32 replay samples.
    // Samples are states along one episode of each of six kernels on
    // HReA (mixed DFG shapes, one problem per kernel), each targeting
    // the action the walk took.
    let mut train_samples = Vec::new();
    for kernel in ["sum", "mac", "conv2", "accumulate", "matmul", "conv3"] {
        let dfg = mapzero_dfg::suite::by_name(kernel).expect("kernel exists");
        let ii = Problem::mii(&dfg, &cgra).expect("mappable");
        let problem = Problem::new(&dfg, &cgra, ii).expect("schedulable");
        let mut walk = MapEnv::new(&problem);
        while train_samples.len() < 32 && !walk.done() {
            let legal = walk.legal_actions();
            let Some(&pe) = legal.first() else { break };
            let mut policy = vec![0.0; cgra.pe_count()];
            policy[pe.index()] = 1.0;
            train_samples.push(TrainSample { observation: observe(&walk), policy, value: 1.0 });
            walk.step(pe);
        }
    }
    assert_eq!(train_samples.len(), 32, "six kernel episodes yield 32 states");
    h.progress("measuring train_batch (32 samples, tiny net)");
    let telemetry = mapzero_obs::enabled();
    mapzero_obs::set_enabled(true);
    let mut trainee = MapZeroNet::new(cgra.pe_count(), NetConfig::tiny());
    let train_rate = throughput(budget, || {
        std::hint::black_box(trainee.train_batch(&train_samples, 1e-3, 5.0));
    }) * train_samples.len() as f64;
    mapzero_obs::set_enabled(telemetry);
    h.note(format!("train_batch: {train_rate:.0} samples/sec"));
    h.field("train_samples_per_sec", Json::Num(train_rate));

    // --- 4. End-to-end compile time (Fig. 11 workload) ---------------
    // Network-guided search (no playout early exit — the same search
    // the self-play trainer runs): every placement decision is a full
    // MCTS pass, so compile time is dominated by inference and the
    // prediction cache's end-to-end effect is visible.
    let kernel = match mode {
        BenchMode::Quick => "conv3",
        BenchMode::Full => "cap",
    };
    let dfg = mapzero_dfg::suite::by_name(kernel).expect("kernel exists");
    let limit = mode.time_limit();
    // `before` reproduces the pre-overhaul pipeline (tape-based forward,
    // naive featurization, no prediction cache); `after` is the full
    // hot path. Both produce bit-identical mappings.
    let compile_secs = |label: &str, before: bool| -> f64 {
        // Best of three runs per arm, damping scheduler noise on the
        // short quick-mode compiles.
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let mut config = mode.mapzero_config();
            config.agent.mcts.use_reference_forward = before;
            config.agent.mcts.cache_predictions = !before;
            config.agent.mcts.playout = false;
            // No pretraining: this measures the search path, not training.
            config.pretrain = None;
            let mut compiler = Compiler::new(config);
            let started = Instant::now();
            let report = compiler.map_with_limit(&dfg, &cgra, limit);
            let secs = started.elapsed().as_secs_f64();
            let ii = report.ok().and_then(|r| r.achieved_ii()).unwrap_or(0);
            h.note(format!(
                "compile {kernel} on {} ({label}): {secs:.3} s, II={ii}",
                cgra.name()
            ));
            best = best.min(secs);
        }
        best
    };
    h.progress(format!("compiling {kernel} with the pre-overhaul inference path"));
    let before = compile_secs("before: tape + naive observe", true);
    h.progress(format!("compiling {kernel} with the hot path + prediction cache"));
    let after = compile_secs("after: tape-free + cache", false);
    let compile_speedup = before / after.max(f64::MIN_POSITIVE);
    h.note(format!("end-to-end compile speedup: {compile_speedup:.2}x"));
    h.field("compile_kernel", Json::from(kernel));
    h.field("compile_secs_before", Json::Num(before));
    h.field("compile_secs_after", Json::Num(after));
    h.field("compile_speedup", Json::Num(compile_speedup));

    // --- 5. Candidate pruning (DESIGN.md §13) ------------------------
    // Same compile workload, full hot path in both arms; only
    // `MctsConfig::prune_candidates` flips. Interleaved pairs with
    // alternating arm order, summarized as the median per-pair ratio —
    // the same drift-cancelling layout as the batch scaling above. The
    // 16×16 headline number lives in `BENCH_search_space.json`; this
    // field tracks the small-fabric (HReA) cost/benefit so a pruning
    // regression shows up even in the quick smoke.
    let prune_arm = |prune: bool| -> f64 {
        let mut config = mode.mapzero_config();
        config.agent.mcts.prune_candidates = prune;
        config.agent.mcts.playout = false;
        config.pretrain = None;
        let mut compiler = Compiler::new(config);
        let started = Instant::now();
        let _ = compiler.map_with_limit(&dfg, &cgra, limit);
        started.elapsed().as_secs_f64()
    };
    let mut prune_ratios = Vec::new();
    for p in 0..pairs {
        h.progress(format!("compiling {kernel} prune off/on (pair {}/{pairs})", p + 1));
        let (off, on) = if p % 2 == 0 {
            let off = prune_arm(false);
            (off, prune_arm(true))
        } else {
            let on = prune_arm(true);
            (prune_arm(false), on)
        };
        prune_ratios.push(off / on.max(f64::MIN_POSITIVE));
    }
    let prune_speedup = median(&mut prune_ratios);
    h.note(format!("candidate pruning compile speedup on {}: {prune_speedup:.2}x", cgra.name()));
    h.field("prune_speedup", Json::Num(prune_speedup));

    h.finish();
}
