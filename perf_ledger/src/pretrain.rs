//! The `pretrain_hrea` workload: `Compiler::pretrain_on(HReA, ..)` over
//! a fixed set of training seeds, in an order the run seed shuffles.

use crate::compile::{self, SAFETY_LIMIT, TABLE2_BACKTRACKS};
use crate::speed::{Speed, Timeline};
use crate::stats::{geomean, mean, median, percentile};
use crate::trace::{self, Counters, Layers, Span, EPISODE_PHASES};
use crate::{record_peak_rss, run_ops, secs_since, RunCtx, RunResult, SplitMix64};
use mapzero_arch::Cgra;
use mapzero_core::{Compiler, MapZeroNet, TrainConfig};
use mapzero_obs::json::Json;
use mapzero_obs::{Phase, PhaseLedger};
use std::time::Instant;

/// Training seeds: the instance set. Each run trains from scratch.
pub const TRAIN_SEEDS: [u64; 4] = [0, 1, 2, 3];
/// Self-play worker threads. One: on a 2-vCPU VM two workers were no
/// faster (2.1 s against 1.7 s per run) and their run time varied twice
/// as much, with the other vCPU's availability (see LEDGER.md).
pub const WORKERS: usize = 1;
/// Kernels the traced run compiles with the freshly trained network.
const REPLAY_KERNELS: [&str; 6] = ["sum", "mac", "conv2", "accumulate", "matmul", "conv3"];

/// The training configuration of one run.
#[must_use]
pub fn train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        workers: WORKERS,
        seed,
        ..TrainConfig::default()
    }
}

/// What one training run produced; bit-identical on every repeat of a
/// seed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Outcome {
    final_loss: f32,
    success_rate: f64,
    epochs: usize,
}

#[derive(Default)]
struct Book {
    outcome: Option<Outcome>,
}

/// Train once from scratch; returns the wall seconds of a healthy run.
fn train_once(
    compiler: &mut Compiler,
    cgra: &Cgra,
    seed: u64,
    book: &mut Book,
    result: &mut RunResult,
) -> Option<f64> {
    result.attempted += 1;
    let t = Instant::now();
    let metrics = compiler.pretrain_on(cgra, train_config(seed));
    let secs = secs_since(t);
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            result.fail(format!("seed {seed}: {e}"));
            return None;
        }
    };
    let Some(last) = metrics.last() else {
        result.fail(format!("seed {seed}: no epoch ran"));
        return None;
    };
    if metrics.rollbacks > 0 || !last.total_loss.is_finite() {
        result.fail(format!(
            "seed {seed}: {} rollbacks, final loss {}",
            metrics.rollbacks, last.total_loss
        ));
        return None;
    }
    let outcome = Outcome {
        final_loss: last.total_loss,
        success_rate: last.success_rate,
        epochs: metrics.epochs.len(),
    };
    match book.outcome {
        None => book.outcome = Some(outcome),
        Some(first) if first != outcome => {
            result
                .unstable
                .push(format!("seed {seed}: {first:?} then {outcome:?}"));
        }
        Some(_) => {}
    }
    Some(secs)
}

/// Run the pretraining workload.
#[must_use]
pub fn run(ctx: &RunCtx) -> RunResult {
    let config = compile::quick_config(TABLE2_BACKTRACKS);
    let mut result = RunResult::default();
    let mut books: Vec<Book> = TRAIN_SEEDS.iter().map(|_| Book::default()).collect();
    let mut rng = SplitMix64::new(ctx.seed);
    let mut speed = Speed::default();
    let first = rng.permutation(TRAIN_SEEDS.len())[0];
    let build = || {
        let cgra = mapzero_arch::presets::hrea();
        let mut compiler = Compiler::new(config);
        compiler.install_net(MapZeroNet::new(cgra.pe_count(), config.net));
        if !ctx.smoke {
            let _ = train_once(
                &mut compiler,
                &cgra,
                TRAIN_SEEDS[first],
                &mut books[first],
                &mut result,
            );
        }
        (cgra, compiler)
    };
    let ((cgra, mut compiler), setup_s) = ctx.set_up(&mut speed, build, drop);
    let mut timeline = Timeline::default();
    let ops = run_ops(
        ctx.measure_seconds(),
        ctx.smoke,
        || rng.permutation(TRAIN_SEEDS.len()),
        |i| {
            timeline.run(&mut speed, i, || {
                train_once(
                    &mut compiler,
                    &cgra,
                    TRAIN_SEEDS[i],
                    &mut books[i],
                    &mut result,
                )
            });
        },
    );
    timeline.close(&mut speed);

    let samples = timeline.by_instance(TRAIN_SEEDS.len());
    // An instance's work repeats exactly, so the spread of its times is
    // machine noise, which only ever slows an operation down: the lower
    // quartile is the least disturbed estimate of its time.
    let typical: Vec<f64> = samples
        .iter()
        .map(|(_, reference)| percentile(reference, 0.25))
        .collect();
    let pooled: Vec<f64> = samples
        .iter()
        .flat_map(|(_, reference)| reference.iter().copied())
        .collect();
    let success: Vec<f64> = books
        .iter()
        .filter_map(|b| b.outcome.map(|o| o.success_rate))
        .collect();
    result.record_times(
        &speed,
        setup_s,
        geomean(&typical),
        pooled.len() as f64 / pooled.iter().sum::<f64>(),
    );
    result.metrics.insert(
        "quality",
        if success.len() == books.len() {
            mean(&success)
        } else {
            f64::NAN
        },
    );

    if ctx.trace {
        traced(
            &mut compiler,
            &cgra,
            first,
            &books,
            median(&samples[first].0),
            &mut result,
        );
    }
    record_peak_rss(&mut result);

    let labels: Vec<String> = TRAIN_SEEDS.iter().map(|s| format!("seed {s}")).collect();
    result.detail(
        "instances",
        Json::Arr(labels.iter().map(|l| Json::from(l.as_str())).collect()),
    );
    result.detail("operations", Json::from(ops as u64));
    result.detail(
        "samples",
        compile::samples_json(labels.iter().cloned(), &samples),
    );
    result.detail(
        "outcomes",
        Json::Obj(
            labels
                .iter()
                .zip(&books)
                .filter_map(|(label, b)| {
                    b.outcome.map(|o| {
                        (
                            label.clone(),
                            Json::obj(vec![
                                ("final_loss", Json::Num(f64::from(o.final_loss))),
                                ("success_rate", Json::Num(o.success_rate)),
                                ("epochs", Json::from(o.epochs as u64)),
                            ]),
                        )
                    })
                })
                .collect(),
        ),
    );
    result
}

/// The traced part: one traced training run of seed `TRAIN_SEEDS[i]`,
/// whose time splits into the phases, then a replay of the HReA kernels
/// compiled with the network it trained.
fn traced(
    compiler: &mut Compiler,
    cgra: &Cgra,
    i: usize,
    books: &[Book],
    untraced_s: f64,
    result: &mut RunResult,
) {
    let mut book = Book {
        outcome: books[i].outcome,
    };
    mapzero_obs::set_enabled(true);
    let ledger = PhaseLedger::snapshot();
    let secs = train_once(compiler, cgra, TRAIN_SEEDS[i], &mut book, result);
    let spent = PhaseLedger::snapshot().delta(&ledger);
    mapzero_obs::set_enabled(false);
    let Some(secs) = secs else { return };

    let mut phases: Vec<Span> = EPISODE_PHASES
        .iter()
        .map(|&p| Span::leaf(p.name(), trace::phase_s(&spent, p)))
        .collect();
    phases.push(Span::leaf(
        Phase::Backprop.name(),
        trace::phase_s(&spent, Phase::Backprop),
    ));
    let threads = Span::new("train.run", secs * WORKERS as f64, phases);

    let counters = Counters::new();
    let mut layers = Layers::default();
    for name in REPLAY_KERNELS {
        let label = format!("{name}/{}", cgra.name());
        let dfg = compile::kernel(name);
        let _ = trace::compile_and_replay(
            &label,
            &dfg,
            cgra,
            compiler,
            SAFETY_LIMIT,
            &counters,
            &mut layers,
            result,
        );
    }
    layers.insert_metrics(&mut result.metrics);
    trace::serve_bypassed(&mut result.metrics);
    result
        .metrics
        .insert("train.backprop_s", trace::phase_s(&spent, Phase::Backprop));
    result.metrics.insert("trace.overhead", secs / untraced_s);
    let [replay, probes] = layers.trees();
    trace::record_trees(result, &[threads, replay, probes]);
}
