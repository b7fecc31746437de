//! The compile workloads, `table2_mid` and `fig13_16x16`: passes over a
//! fixed instance set through `Compiler::map_with_limit`, in an order
//! the seed shuffles on every pass.

use crate::speed::{Speed, Timeline};
use crate::stats::{geomean, mean, median, percentile};
use crate::trace::{self, Counters, Counts, Layers, Replay};
use crate::{record_peak_rss, run_ops, secs_since, RunCtx, RunResult, SplitMix64};
use mapzero_arch::Cgra;
use mapzero_core::network::NetConfig;
use mapzero_core::{validate, AgentConfig, Compiler, MapZeroConfig, MapZeroNet, MctsConfig};
use mapzero_dfg::Dfg;
use mapzero_obs::json::Json;
use std::time::{Duration, Instant};

/// The paper's head-to-head kernels on the three fabrics of Fig. 8
/// whose compiles end on their own in the quick configuration.
/// MorphoSys `arf` is left out because its attempts end on the
/// per-attempt time slice (the work would depend on the clock), and
/// HyCube `matmul`/`mults1` because their mappings fail the validator
/// (see LEDGER.md); HyCube `mac2`/`mults2` take their place.
pub const TABLE2_MID: &[(&str, &str)] = &[
    ("mults1", "ADRES"),
    ("mac2", "ADRES"),
    ("cap", "ADRES"),
    ("mults2", "ADRES"),
    ("arf", "ADRES"),
    ("h2v2", "ADRES"),
    ("mulul", "ADRES"),
    ("mults1", "MorphoSys"),
    ("mac2", "MorphoSys"),
    ("cap", "MorphoSys"),
    ("mults2", "MorphoSys"),
    ("h2v2", "MorphoSys"),
    ("mulul", "MorphoSys"),
    ("conv3", "HyCube"),
    ("cap", "HyCube"),
    ("mulul", "HyCube"),
    ("mac2", "HyCube"),
    ("mults2", "HyCube"),
];

/// Backtrack budget of `table2_mid` (the quick configuration's).
pub const TABLE2_BACKTRACKS: u64 = 2_000_000;

/// The Fig. 13 unrolled kernels on the 16×16 baseline.
pub const FIG13: &[(&str, &str)] = &[
    ("stencil_u", "16x16 baseline"),
    ("filter_u", "16x16 baseline"),
];

/// Backtrack budget of `fig13_16x16`: every attempt ends on this cap,
/// never on the clock, so the work repeats exactly; it also keeps one
/// compile short enough for several samples per run.
pub const FIG13_BACKTRACKS: u64 = 50_000;

/// Wall-clock limit of every compile. A safety net only: an attempt
/// that reaches its slice of it is a failed operation.
pub const SAFETY_LIMIT: Duration = Duration::from_secs(60);

/// The quick benchmark configuration (tiny network, 24 simulations per
/// decision, no pretraining) with the given backtrack budget.
#[must_use]
pub fn quick_config(backtrack_budget: u64) -> MapZeroConfig {
    MapZeroConfig {
        net: NetConfig::tiny(),
        agent: AgentConfig {
            mcts: MctsConfig {
                simulations: 24,
                expansion_cap: 32,
                playout_step_limit: 96,
                ..MctsConfig::default()
            },
            backtrack_budget,
            mcts_backtrack_cutoff: 256,
            ..AgentConfig::default()
        },
        attempts_per_ii: 2,
        pretrain: None,
        ..MapZeroConfig::fast_test()
    }
}

/// A preset fabric by name.
///
/// # Panics
/// Panics on a name that is not a preset (the instance tables are
/// constants of this crate).
#[must_use]
pub fn fabric(name: &str) -> Cgra {
    mapzero_arch::presets::by_name(name).unwrap_or_else(|| panic!("no preset fabric `{name}`"))
}

/// A suite kernel by name.
///
/// # Panics
/// Panics on a name that is not in the suite.
#[must_use]
pub fn kernel(name: &str) -> Dfg {
    mapzero_dfg::suite::by_name(name).unwrap_or_else(|| panic!("no suite kernel `{name}`"))
}

/// `kernel/fabric` labels of an instance table.
#[must_use]
pub fn labels(instances: &[(&str, &str)]) -> Vec<String> {
    instances.iter().map(|(k, f)| format!("{k}/{f}")).collect()
}

/// What set-up builds: the inputs and a compiler with one network per
/// fabric size installed.
struct Inputs {
    dfgs: Vec<Dfg>,
    cgras: Vec<Cgra>,
    compiler: Compiler,
}

fn set_up(instances: &[(&str, &str)], config: MapZeroConfig) -> Inputs {
    let dfgs: Vec<Dfg> = instances.iter().map(|(k, _)| kernel(k)).collect();
    let cgras: Vec<Cgra> = instances.iter().map(|(_, f)| fabric(f)).collect();
    let mut sizes: Vec<usize> = cgras.iter().map(Cgra::pe_count).collect();
    sizes.sort_unstable();
    sizes.dedup();
    let mut compiler = Compiler::new(config);
    for size in sizes {
        compiler.install_net(MapZeroNet::new(size, config.net));
    }
    Inputs {
        dfgs,
        cgras,
        compiler,
    }
}

/// Counts of one instance.
#[derive(Default)]
struct Book {
    label: String,
    counts: Option<Counts>,
    mii: u32,
    deadline_hits: u64,
}

/// Compile instance `i` once and check the output. Returns the wall
/// seconds of a compile whose mapping passed every check.
fn compile_once(
    inputs: &mut Inputs,
    i: usize,
    book: &mut Book,
    counters: &Counters,
    result: &mut RunResult,
) -> Option<f64> {
    result.attempted += 1;
    let (dfg, cgra) = (&inputs.dfgs[i], &inputs.cgras[i]);
    let before = counters.read();
    let t = Instant::now();
    let report = inputs.compiler.map_with_limit(dfg, cgra, SAFETY_LIMIT);
    let secs = secs_since(t);
    let work = counters.since(before);
    let label = &book.label;
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            result.fail(format!("{label}: {e}"));
            return None;
        }
    };
    if report.timed_out {
        book.deadline_hits += 1;
        result.fail(format!("{label}: an attempt ended on the deadline"));
        return None;
    }
    let Some(mapping) = &report.mapping else {
        result.fail(format!("{label}: unmapped"));
        return None;
    };
    if let Err(errs) = validate::check_mapping(dfg, cgra, mapping, mapping.ii) {
        result.fail(format!("{label}: validator: {}", errs.join("; ")));
        return None;
    }
    if report.mii == 0 || report.mii > mapping.ii {
        result.fail(format!(
            "{label}: II {} below MII {}",
            mapping.ii, report.mii
        ));
        return None;
    }
    let counts = Counts::new(mapping.ii, report.backtracks, report.explored, work);
    match book.counts {
        None => book.counts = Some(counts),
        Some(first) if first != counts => result.unstable.push(format!(
            "{label}: {} then {}",
            first.to_json().to_string_compact(),
            counts.to_json().to_string_compact()
        )),
        Some(_) => {}
    }
    book.mii = report.mii;
    Some(secs)
}

/// Run a compile workload over `instances` with the given backtrack
/// budget.
#[must_use]
pub fn run(ctx: &RunCtx, instances: &[(&str, &str)], backtrack_budget: u64) -> RunResult {
    let config = quick_config(backtrack_budget);
    let mut result = RunResult::default();
    let counters = Counters::new();
    let mut books: Vec<Book> = labels(instances)
        .into_iter()
        .map(|label| Book {
            label,
            ..Book::default()
        })
        .collect();
    let mut rng = SplitMix64::new(ctx.seed);
    let mut speed = Speed::default();
    let build = || {
        let mut inputs = set_up(instances, config);
        if !ctx.smoke {
            for i in rng.permutation(instances.len()) {
                let _ = compile_once(&mut inputs, i, &mut books[i], &counters, &mut result);
            }
        }
        inputs
    };
    let (mut inputs, setup_s) = ctx.set_up(&mut speed, build, drop);
    let mut timeline = Timeline::default();
    let ops = run_ops(
        ctx.measure_seconds(),
        ctx.smoke,
        || rng.permutation(instances.len()),
        |i| {
            timeline.run(&mut speed, i, || {
                compile_once(&mut inputs, i, &mut books[i], &counters, &mut result)
            })
        },
    );
    timeline.close(&mut speed);

    let samples = timeline.by_instance(instances.len());
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
    let ratios: Vec<f64> = books
        .iter()
        .filter_map(|b| b.counts.map(|c| f64::from(b.mii) / f64::from(c.ii)))
        .collect();
    result.record_times(
        &speed,
        setup_s,
        geomean(&typical),
        pooled.len() as f64 / pooled.iter().sum::<f64>(),
    );
    result.metrics.insert(
        "quality",
        if ratios.len() == books.len() {
            mean(&ratios)
        } else {
            f64::NAN
        },
    );

    if ctx.trace {
        mapzero_obs::set_enabled(true);
        let mut layers = Layers::default();
        for (i, book) in books.iter().enumerate() {
            let Some(reference) = book.counts else {
                continue;
            };
            let (dfg, cgra) = (&inputs.dfgs[i], &inputs.cgras[i]);
            let net = inputs
                .compiler
                .net_for(cgra.pe_count())
                .expect("installed at set-up");
            let replay = Replay {
                label: &book.label,
                dfg,
                cgra,
                net,
                config: &config,
                limit: SAFETY_LIMIT,
                reference,
                untraced_s: median(&samples[i].0),
            };
            if let Some(mapping) = trace::replay(&replay, &counters, &mut layers, &mut result) {
                trace::probe(
                    &book.label,
                    dfg,
                    cgra,
                    net,
                    &mapping,
                    &mut layers,
                    &mut result,
                );
            }
        }
        mapzero_obs::set_enabled(false);
        layers.insert_metrics(&mut result.metrics);
        trace::serve_bypassed(&mut result.metrics);
        result.metrics.insert("trace.overhead", layers.overhead());
        trace::record_trees(&mut result, &layers.trees());
    }
    record_peak_rss(&mut result);

    let counts: Vec<(String, Counts)> = books
        .iter()
        .filter_map(|b| b.counts.map(|c| (b.label.clone(), c)))
        .collect();
    result.detail(
        "instances",
        Json::Arr(books.iter().map(|b| Json::from(b.label.as_str())).collect()),
    );
    result.detail("operations", Json::from(ops as u64));
    result.detail(
        "deadline_hits",
        Json::from(books.iter().map(|b| b.deadline_hits).sum::<u64>()),
    );
    result.detail("counts", trace::counts_json(&counts));
    let labels = books.iter().map(|b| b.label.clone());
    result.detail("samples", samples_json(labels, &samples));
    result
}

/// Per instance, `[raw seconds, reference seconds]` of every measured
/// operation.
pub(crate) fn samples_json(
    labels: impl Iterator<Item = String>,
    samples: &[(Vec<f64>, Vec<f64>)],
) -> Json {
    Json::Obj(
        labels
            .zip(samples)
            .map(|(label, (raw, reference))| {
                let pairs = raw.iter().zip(reference);
                let ops = pairs
                    .map(|(r, s)| Json::Arr(vec![Json::Num(*r), Json::Num(*s)]))
                    .collect();
                (label, Json::Arr(ops))
            })
            .collect(),
    )
}
