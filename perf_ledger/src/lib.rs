//! Performance ledger: one benchmark for the MapZero compiler, the
//! compile service and the trainer.
//!
//! Four workloads, each a fixed instance set whose work repeats exactly
//! (see `LEDGER.md` for why each was chosen):
//!
//! * `table2_mid` — the paper's head-to-head kernels on ADRES,
//!   MorphoSys and HyCube (network + MCTS dominated);
//! * `fig13_16x16` — the unrolled kernels on the 16×16 baseline under a
//!   backtrack cap (256-PE forwards, backtracking, dead states);
//! * `serve_mixed` — an open-loop, seeded Poisson load on `MapService`
//!   (admission, queueing, the shared prediction cache);
//! * `pretrain_hrea` — self-play pretraining on HReA (the write side of
//!   the network).
//!
//! The VM this was built on drifts in CPU speed, so the compile and
//! pretraining times are reported at a reference speed measured
//! alongside them (see [`speed`]); the service's are wall times.
//!
//! An untraced run reports the end-to-end metrics of [`END_TO_END`]; a
//! traced run replays every compile through the layers' public
//! functions and reports [`PER_LAYER`]. Every layer is timed from the
//! outside, by calls into it; nothing in the measured crates changes.

mod compile;
mod pretrain;
mod serve;
pub mod spec;
mod speed;
mod stats;
mod trace;

use mapzero_obs::json::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Measured seconds of one run when `--seconds` is absent; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 20.0;

/// Workload names, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = ["table2_mid", "fig13_16x16", "serve_mixed", "pretrain_hrea"];

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, printed by every untraced run of every workload.
/// An "operation" is one compile (`table2_mid`, `fig13_16x16`), one
/// served request (`serve_mixed`) or one pretraining run
/// (`pretrain_hrea`).
pub const END_TO_END: [MetricDef; 5] = [
    m("setup_s", "s"),
    m("latency_ms", "ms"),
    m("throughput_per_s", "1/s"),
    m("quality", "ratio"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run of every workload. A
/// layer the workload does not reach reads 0.
pub const PER_LAYER: [MetricDef; 37] = [
    m("compiler.ii_attempts", "count"),
    m("compiler.unattributed_s", "s"),
    m("problem.schedule_ms", "ms"),
    m("candidates.build_ms", "ms"),
    m("candidates.dead_states", "count"),
    m("agent.episode_s", "s"),
    m("agent.other_s", "s"),
    m("agent.backtracks", "count"),
    m("agent.steps", "count"),
    m("agent.episode_success", "ratio"),
    m("mcts.expand_s", "s"),
    m("mcts.expansions", "count"),
    m("mcts.simulations", "count"),
    m("mcts.branching", "ratio"),
    m("network.infer_s", "s"),
    m("network.predict_us", "us"),
    m("network.predict_batch_leaf_us", "us"),
    m("network.batch_mean", "count"),
    m("network.cache_hit", "ratio"),
    m("network.train_batch_ms", "ms"),
    m("train.backprop_s", "s"),
    m("embed.observe_us", "us"),
    m("embed.s", "s"),
    m("router.route_s", "s"),
    m("router.routed", "count"),
    m("router.conflicts", "count"),
    m("router.ok_ratio", "ratio"),
    m("env.step_us", "us"),
    m("env.undo_us", "us"),
    m("validate.check_ms", "ms"),
    m("serve.queue_wait_p50_ms", "ms"),
    m("serve.queue_wait_p99_ms", "ms"),
    m("serve.service_p50_ms", "ms"),
    m("serve.service_p99_ms", "ms"),
    m("serve.shed", "count"),
    m("serve.gen_late_ms", "ms"),
    m("trace.overhead", "ratio"),
];

/// What one invocation runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCtx {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed: orders instances, draws the serve arrivals.
    pub seed: u64,
    /// Measured time of the run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// One pass, no warm-up, low serve rates: the test-suite mode.
    pub smoke: bool,
}

impl RunCtx {
    /// Build the run's set-up state — inputs, networks or service, and
    /// the warm-up pass — 3 times (once in smoke mode) and keep the last
    /// one. Returns it with the median set-up time at the reference
    /// speed (the `setup_s` metric). Earlier states go to `retire`.
    pub fn set_up<T>(
        &self,
        speed: &mut speed::Speed,
        mut build: impl FnMut() -> T,
        mut retire: impl FnMut(T),
    ) -> (T, f64) {
        let repeats = if self.smoke { 1 } else { 3 };
        let mut times = Vec::with_capacity(repeats);
        let mut kept = None;
        for _ in 0..repeats {
            if let Some(old) = kept.take() {
                retire(old);
            }
            let (state, secs) = speed.timed(&mut build);
            kept = Some(state);
            times.push(secs);
        }
        (
            kept.expect("set-up runs at least once"),
            stats::median(&times),
        )
    }

    /// Time the measured loop may use: a traced run keeps half for the
    /// replay.
    #[must_use]
    pub fn measure_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// The outcome of one run of one workload.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// One reason per failed operation.
    pub failures: Vec<String>,
    /// Per-instance work counts that differed between repeats or
    /// between the untraced run and its traced replay.
    pub unstable: Vec<String>,
    /// Σ children > parent somewhere in the trace tree.
    pub tree_violations: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Everything else recorded in the ledger file: instance names,
    /// per-instance counts, operation times, the trace tree.
    pub details: Vec<(String, Json)>,
}

impl RunResult {
    /// Record one failed operation.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.failures.push(reason.into());
    }

    /// Insert the time metrics, all at the reference speed (see
    /// [`speed`]): set-up seconds, an operation's latency in seconds and
    /// operations per second. The run's speed record goes into the
    /// details.
    pub fn record_times(&mut self, speed: &speed::Speed, setup_s: f64, latency_s: f64, per_s: f64) {
        self.metrics.insert("setup_s", setup_s);
        self.metrics.insert("latency_ms", latency_s * 1e3);
        self.metrics.insert("throughput_per_s", per_s);
        self.detail("speed", speed.to_json());
    }

    /// Attach a detail field.
    pub fn detail(&mut self, key: &str, value: Json) {
        self.details.push((key.to_owned(), value));
    }

    /// Whether every output checked out and the work repeated.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.unstable.is_empty() && self.tree_violations.is_empty()
    }

    /// `defs` as a `{name: {value, unit}}` object, and whether every one
    /// was measured and finite (a missing or non-finite value reads 0).
    fn metrics_json(&self, defs: &[MetricDef]) -> (Json, bool) {
        let mut complete = true;
        let fields = defs
            .iter()
            .map(|d| {
                let value = match self.metrics.get(d.name) {
                    Some(v) if v.is_finite() => *v,
                    _ => {
                        complete = false;
                        0.0
                    }
                };
                let metric = Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::from(d.unit)),
                ]);
                (d.name.to_owned(), metric)
            })
            .collect();
        (Json::Obj(fields), complete)
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the metrics being `defs` in order. A metric that was
    /// not measured or is not finite makes the run incorrect.
    #[must_use]
    pub fn result_line(&self, defs: &[MetricDef]) -> Json {
        let (metrics, complete) = self.metrics_json(defs);
        Json::obj(vec![
            ("correct", Json::Bool(self.correct() && complete)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failures.len() as u64)),
            ("metrics", metrics),
        ])
    }

    /// The ledger record: the result line plus context and details. A
    /// traced record also carries the end-to-end metrics of its
    /// untraced passes (shorter than an untraced run's; `--compare`
    /// reads untraced records only).
    #[must_use]
    pub fn ledger_record(&self, ctx: &RunCtx) -> Json {
        let defs: &[MetricDef] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
        let Json::Obj(mut fields) = self.result_line(defs) else {
            unreachable!("result_line builds an object")
        };
        let strings = |v: &[String]| Json::Arr(v.iter().map(|s| Json::from(s.as_str())).collect());
        let mut record = vec![
            ("workload".to_owned(), Json::from(ctx.workload.as_str())),
            ("seed".to_owned(), Json::from(ctx.seed)),
            ("trace".to_owned(), Json::Bool(ctx.trace)),
            ("seconds".to_owned(), Json::Num(ctx.seconds)),
            ("smoke".to_owned(), Json::Bool(ctx.smoke)),
            ("machine".to_owned(), machine()),
        ];
        record.append(&mut fields);
        if ctx.trace {
            record.push(("end_to_end".to_owned(), self.metrics_json(&END_TO_END).0));
        }
        record.push(("failures".to_owned(), strings(&self.failures)));
        record.push((
            "counts_stable".to_owned(),
            Json::Bool(self.unstable.is_empty()),
        ));
        record.push(("unstable".to_owned(), strings(&self.unstable)));
        record.push(("tree_violations".to_owned(), strings(&self.tree_violations)));
        record.extend(self.details.iter().cloned());
        Json::Obj(record)
    }
}

/// Run one workload.
///
/// # Errors
/// Returns a message for an unknown workload name.
pub fn run_workload(ctx: &RunCtx) -> Result<RunResult, String> {
    match ctx.workload.as_str() {
        "table2_mid" => Ok(compile::run(
            ctx,
            compile::TABLE2_MID,
            compile::TABLE2_BACKTRACKS,
        )),
        "fig13_16x16" => Ok(compile::run(ctx, compile::FIG13, compile::FIG13_BACKTRACKS)),
        "serve_mixed" => Ok(serve::run(ctx)),
        "pretrain_hrea" => Ok(pretrain::run(ctx)),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {WORKLOADS:?})"
        )),
    }
}

/// Machine context recorded with every run: CPU count, CPU model and
/// the SIMD kernel kind the network runs with.
#[must_use]
pub fn machine() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    Json::obj(vec![
        ("nproc", Json::from(nproc as u64)),
        ("cpu", Json::from(cpu)),
        (
            "simd",
            Json::from(format!("{:?}", mapzero_nn::simd::kind())),
        ),
    ])
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Record the process's peak RSS as `peak_rss_mb`, failing the run when
/// it cannot be read.
pub fn record_peak_rss(result: &mut RunResult) {
    match peak_rss_mb() {
        Some(mb) => {
            result.metrics.insert("peak_rss_mb", mb);
        }
        None => result.fail("cannot read VmHWM from /proc/self/status"),
    }
}

/// Seconds since `start`.
#[must_use]
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Run operations in passes, each pass over the instance indices in the
/// order `order` returns: always one whole pass (only that in `once` mode),
/// then further operations while one as long as the longest so far
/// would still end within `seconds`. Returns the number of operations.
pub fn run_ops(
    seconds: f64,
    once: bool,
    mut order: impl FnMut() -> Vec<usize>,
    mut op: impl FnMut(usize),
) -> usize {
    let start = Instant::now();
    let mut longest = Duration::ZERO;
    let mut ops = 0;
    let mut first_pass = true;
    loop {
        for i in order() {
            if !first_pass && (start.elapsed() + longest).as_secs_f64() > seconds {
                return ops;
            }
            let t = Instant::now();
            op(i);
            ops += 1;
            longest = longest.max(t.elapsed());
        }
        if once {
            return ops;
        }
        first_pass = false;
    }
}

/// SplitMix64: the benchmark's own input generator, so the inputs a
/// seed produces never depend on the measured crates.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed ^ 0x6a09_e667_f3bc_c909)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = RunResult {
            attempted: 3,
            ..RunResult::default()
        };
        r.metrics.insert("setup_s", 0.5);
        let line = r.result_line(&END_TO_END[..1]);
        let Json::Obj(fields) = &line else {
            panic!("object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        // A metric that was never measured makes the run incorrect.
        let line = r.result_line(&END_TO_END[..2]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        r.fail("boom");
        assert_eq!(
            r.result_line(&END_TO_END[..1])
                .get("failed")
                .and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn splitmix_is_seeded_and_permutes() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut g = SplitMix64::new(7);
                move |_| g.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut g = SplitMix64::new(7);
                move |_| g.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        let mut p = SplitMix64::new(1).permutation(10);
        p.sort_unstable();
        assert_eq!(p, (0..10).collect::<Vec<_>>());
        assert_ne!(
            SplitMix64::new(1).permutation(10),
            SplitMix64::new(2).permutation(10)
        );
    }

    #[test]
    fn run_ops_always_completes_one_pass() {
        let mut seen = Vec::new();
        assert_eq!(run_ops(0.0, false, || vec![2, 0, 1], |i| seen.push(i)), 3);
        assert_eq!(seen, [2, 0, 1]);
        assert_eq!(run_ops(10.0, true, || vec![0, 1], |_| {}), 2);
    }
}
