//! Shared harness utilities for the table/figure reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §4 for the index) and prints the same
//! rows/series the paper reports, additionally writing CSV into
//! `results/`.
//!
//! Scale control: the experiments honour two environment variables so
//! the same binaries serve both a quick smoke run and a full
//! reproduction:
//!
//! * `MAPZERO_BENCH_MODE` — `quick` (default) or `full`;
//! * `MAPZERO_TIME_LIMIT_SECS` — per-attempt mapper time limit
//!   (defaults: 15 s quick, 480 s full — the paper used 8 h).

use mapzero_arch::Cgra;
use mapzero_baselines::{ExactMapper, LisaMapper, SaMapper};
use mapzero_core::network::NetConfig;
use mapzero_core::{
    AgentConfig, Compiler, MapReport, MapZeroConfig, Mapper, MctsConfig, TrainConfig,
};
use mapzero_dfg::Dfg;
use mapzero_obs::json::Json;
use std::fmt::Display;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchMode {
    /// Seconds-per-kernel smoke scale (default).
    Quick,
    /// Minutes-per-kernel reproduction scale.
    Full,
}

impl BenchMode {
    /// Read the mode from `MAPZERO_BENCH_MODE`.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("MAPZERO_BENCH_MODE").as_deref() {
            Ok("full") | Ok("FULL") => BenchMode::Full,
            _ => BenchMode::Quick,
        }
    }

    /// Per-attempt mapper time limit.
    #[must_use]
    pub fn time_limit(self) -> Duration {
        if let Ok(s) = std::env::var("MAPZERO_TIME_LIMIT_SECS") {
            if let Ok(secs) = s.parse::<u64>() {
                return Duration::from_secs(secs);
            }
        }
        match self {
            BenchMode::Quick => Duration::from_secs(15),
            BenchMode::Full => Duration::from_secs(480),
        }
    }

    /// The kernel names used for the head-to-head experiments
    /// (Figs. 8–11); quick mode uses the smaller half of the suite.
    #[must_use]
    pub fn kernels(self) -> Vec<&'static str> {
        match self {
            BenchMode::Quick => {
                vec!["sum", "mac", "conv2", "accumulate", "matmul", "conv3"]
            }
            BenchMode::Full => vec![
                "sum",
                "mac",
                "conv2",
                "accumulate",
                "matmul",
                "conv3",
                "mults1",
                "mac2",
                "cap",
                "mults2",
                "arf",
                "h2v2",
                "mulul",
            ],
        }
    }

    /// Unrolled kernels for the Fig. 13 scalability study.
    #[must_use]
    pub fn unrolled_kernels(self) -> Vec<&'static str> {
        match self {
            BenchMode::Quick => vec!["stencil_u", "filter_u"],
            BenchMode::Full => {
                vec!["stencil_u", "filter_u", "jpegdct_u", "sort_u", "huf_u"]
            }
        }
    }

    /// A MapZero compiler configuration for this scale.
    #[must_use]
    pub fn mapzero_config(self) -> MapZeroConfig {
        match self {
            BenchMode::Quick => MapZeroConfig {
                net: NetConfig::tiny(),
                agent: AgentConfig {
                    mcts: MctsConfig {
                        simulations: 24,
                        expansion_cap: 32,
                        playout_step_limit: 96,
                        ..MctsConfig::default()
                    },
                    backtrack_budget: 2_000_000,
                    mcts_backtrack_cutoff: 256,
                    ..AgentConfig::default()
                },
                attempts_per_ii: 2,
                pretrain: None,
                ..MapZeroConfig::fast_test()
            },
            BenchMode::Full => MapZeroConfig {
                agent: AgentConfig {
                    mcts: MctsConfig {
                        simulations: 64,
                        expansion_cap: 100,
                        ..MctsConfig::default()
                    },
                    backtrack_budget: 4096,
                    ..AgentConfig::default()
                },
                pretrain: Some(TrainConfig::default()),
                ..MapZeroConfig::default()
            },
        }
    }
}

/// Per-binary harness bracket: `begin` prints the title and hooks
/// telemetry up to the environment (`MAPZERO_TRACE` /
/// `MAPZERO_TELEMETRY`); `finish` folds the run's metric deltas into
/// `results/BENCH_<name>.json` and flushes any trace sink. Counters are
/// always live, so the JSON is populated even without the env vars.
///
/// The JSON lands even when the run dies before `finish`: dropping an
/// unfinished harness (panic unwinding through the binary, early
/// return) writes the same file with an `"error"` field, so a nightly
/// sweep always has one result file per bench to aggregate.
pub struct Harness {
    name: &'static str,
    before: mapzero_obs::metrics::MetricsSnapshot,
    started: Instant,
    finished: bool,
}

impl Harness {
    /// Open the harness: print the banner, initialise telemetry from
    /// the environment, snapshot the metrics baseline.
    #[must_use]
    pub fn begin(name: &'static str, title: impl Display) -> Harness {
        if let Some(path) = mapzero_obs::init_from_env() {
            println!("[tracing to {path}]");
        }
        println!("{title}\n");
        Harness {
            name,
            before: mapzero_obs::metrics::registry().snapshot(),
            started: Instant::now(),
            finished: false,
        }
    }

    /// Progress line on stderr (keeps stdout clean for tables).
    pub fn progress(&self, msg: impl Display) {
        eprintln!("{msg} …");
    }

    /// Commentary line on stdout (the qualitative claims under each
    /// table).
    pub fn note(&self, msg: impl Display) {
        println!("{msg}");
    }

    /// Close the harness: write the per-run metrics JSON and flush any
    /// installed trace sink.
    pub fn finish(mut self) {
        self.finished = true;
        self.write_result(None);
        mapzero_obs::sink::flush();
    }

    fn write_result(&self, error: Option<&str>) {
        let delta =
            mapzero_obs::metrics::registry().snapshot().delta(&self.before);
        let mut fields = vec![
            ("bench".to_owned(), Json::from(self.name)),
            ("elapsed_secs".to_owned(), Json::Num(self.started.elapsed().as_secs_f64())),
            ("metrics".to_owned(), delta.to_json()),
        ];
        if let Some(error) = error {
            fields.push(("error".to_owned(), Json::from(error)));
        }
        let json = Json::Obj(fields);
        let path = results_dir().join(format!("BENCH_{}.json", self.name));
        match fs::write(&path, json.to_string_compact() + "\n") {
            Ok(()) => println!("[metrics written to {}]", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        let error = if std::thread::panicking() {
            "bench panicked before finish"
        } else {
            "bench dropped before finish"
        };
        self.write_result(Some(error));
        mapzero_obs::sink::flush();
    }
}

/// All four mappers run on one instance, in the paper's order
/// (ILP, SA, LISA, MapZero).
pub fn run_all_mappers(
    mapzero: &mut Compiler,
    dfg: &Dfg,
    cgra: &Cgra,
    limit: Duration,
) -> Vec<MapReport> {
    let mut out = Vec::with_capacity(4);
    let mut ilp = ExactMapper::default();
    out.push(run_or_fail(&mut ilp, dfg, cgra, limit));
    let mut sa = SaMapper::default();
    out.push(run_or_fail(&mut sa, dfg, cgra, limit));
    let mut lisa = LisaMapper::default();
    out.push(run_or_fail(&mut lisa, dfg, cgra, limit));
    out.push(
        mapzero
            .map_with_limit(dfg, cgra, limit)
            .unwrap_or_else(|_| failed_report("MapZero", dfg, cgra)),
    );
    out
}

/// Run one mapper, turning structural errors into failed reports so the
/// tables always have a row.
pub fn run_or_fail(
    mapper: &mut dyn Mapper,
    dfg: &Dfg,
    cgra: &Cgra,
    limit: Duration,
) -> MapReport {
    let name = mapper.name().to_owned();
    mapper
        .map(dfg, cgra, limit)
        .unwrap_or_else(|_| failed_report(&name, dfg, cgra))
}

fn failed_report(name: &str, dfg: &Dfg, cgra: &Cgra) -> MapReport {
    MapReport {
        mapper: name.to_owned(),
        engine: name.to_owned(),
        kernel: dfg.name().to_owned(),
        fabric: cgra.name().to_owned(),
        mii: 0,
        mapping: None,
        elapsed: Duration::ZERO,
        backtracks: 0,
        explored: 0,
        timed_out: false,
        telemetry: None,
    }
}

/// A flattened mapping result, cacheable as CSV so Figs. 8–11 share one
/// set of raw runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RawResult {
    /// Mapper name.
    pub mapper: String,
    /// Kernel name.
    pub kernel: String,
    /// Fabric name.
    pub fabric: String,
    /// Minimum II bound.
    pub mii: u32,
    /// Achieved II (0 = failed, matching Fig. 8's convention).
    pub ii: u32,
    /// Wall-clock seconds.
    pub secs: f64,
    /// Backtracks (MapZero/ILP) or annealing steps (SA-family).
    pub backtracks: u64,
    /// Placement attempts / proposals explored.
    pub explored: u64,
    /// Whether the run hit the time limit.
    pub timed_out: bool,
}

impl RawResult {
    /// Convert from a full report.
    #[must_use]
    pub fn from_report(r: &MapReport) -> Self {
        RawResult {
            mapper: r.mapper.clone(),
            kernel: r.kernel.clone(),
            fabric: r.fabric.clone(),
            mii: r.mii,
            ii: r.achieved_ii().unwrap_or(0),
            secs: r.elapsed.as_secs_f64(),
            backtracks: r.backtracks,
            explored: r.explored,
            timed_out: r.timed_out,
        }
    }

    /// II ratio relative to MII (0 when failed).
    #[must_use]
    pub fn ii_ratio(&self) -> f64 {
        if self.ii == 0 || self.mii == 0 {
            0.0
        } else {
            f64::from(self.mii) / f64::from(self.ii)
        }
    }

    fn to_csv_row(&self) -> Vec<String> {
        vec![
            self.mapper.clone(),
            self.kernel.clone(),
            self.fabric.clone(),
            self.mii.to_string(),
            self.ii.to_string(),
            format!("{:.6}", self.secs),
            self.backtracks.to_string(),
            self.explored.to_string(),
            self.timed_out.to_string(),
        ]
    }

    fn from_csv_row(row: &[&str]) -> Option<Self> {
        if row.len() != 9 {
            return None;
        }
        Some(RawResult {
            mapper: row[0].to_owned(),
            kernel: row[1].to_owned(),
            fabric: row[2].to_owned(),
            mii: row[3].parse().ok()?,
            ii: row[4].parse().ok()?,
            secs: row[5].parse().ok()?,
            backtracks: row[6].parse().ok()?,
            explored: row[7].parse().ok()?,
            timed_out: row[8].parse().ok()?,
        })
    }
}

const HEADTOHEAD_HEADER: [&str; 9] =
    ["mapper", "kernel", "fabric", "mii", "ii", "secs", "backtracks", "explored", "timed_out"];

/// Run (or load from cache) the §4.2/§4.3 head-to-head experiment: all
/// four mappers × the mode's kernels × the four evaluation fabrics.
/// The raw rows are cached in `results/headtohead_raw.csv`; delete that
/// file to re-run.
pub fn headtohead_results(mode: BenchMode) -> Vec<RawResult> {
    let cache = results_dir().join("headtohead_raw.csv");
    if let Ok(text) = fs::read_to_string(&cache) {
        let rows: Vec<RawResult> = text
            .lines()
            .skip(1)
            .filter_map(|l| RawResult::from_csv_row(&l.split(',').collect::<Vec<_>>()))
            .collect();
        if !rows.is_empty() {
            println!("[loaded {} cached rows from {}]", rows.len(), cache.display());
            return rows;
        }
    }
    let limit = mode.time_limit();
    let mut compiler = Compiler::new(mode.mapzero_config());
    let mut results = Vec::new();
    for cgra in mapzero_arch::presets::evaluation_fabrics() {
        for name in mode.kernels() {
            let dfg = mapzero_dfg::suite::by_name(name).expect("kernel exists");
            eprintln!("running {} on {} …", name, cgra.name());
            for report in run_all_mappers(&mut compiler, &dfg, &cgra, limit) {
                results.push(RawResult::from_report(&report));
            }
        }
    }
    let mut csv =
        vec![HEADTOHEAD_HEADER.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>()];
    csv.extend(results.iter().map(RawResult::to_csv_row));
    write_csv("headtohead_raw", &csv);
    results
}

/// Geometric mean of a set of positive values.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    let positive: Vec<f64> = values.iter().copied().filter(|v| *v > 0.0).collect();
    if positive.is_empty() {
        return 0.0;
    }
    (positive.iter().map(|v| v.ln()).sum::<f64>() / positive.len() as f64).exp()
}

/// Resolve the `results/` directory (created on demand).
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("MAPZERO_RESULTS_DIR").map_or_else(
        |_| PathBuf::from("results"),
        PathBuf::from,
    );
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Write CSV rows (first row = header) into `results/<name>.csv`.
pub fn write_csv(name: &str, rows: &[Vec<String>]) {
    let path = results_dir().join(format!("{name}.csv"));
    let Ok(mut file) = fs::File::create(&path) else {
        eprintln!("warning: cannot write {}", path.display());
        return;
    };
    for row in rows {
        let _ = writeln!(file, "{}", row.join(","));
    }
    println!("\n[csv written to {}]", path.display());
}

/// Format a duration in seconds with millisecond precision.
#[must_use]
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Pretty-print an aligned table: `widths` per column, header first.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", cell, w = widths.get(i).copied().unwrap_or(8)));
        }
        println!("{}", s.trim_end());
    };
    line(&header.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[0.0, 0.0]), 0.0);
        assert!((geomean(&[8.0]) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn bench_mode_defaults_quick() {
        // Note: other tests may set the env var; default path only.
        if std::env::var("MAPZERO_BENCH_MODE").is_err() {
            assert_eq!(BenchMode::from_env(), BenchMode::Quick);
        }
        assert!(BenchMode::Quick.kernels().len() < BenchMode::Full.kernels().len());
    }

    #[test]
    fn harness_writes_error_json_when_dropped_by_panic() {
        let dir = std::env::temp_dir().join(format!("mapzero_bench_drop_{}", std::process::id()));
        std::env::set_var("MAPZERO_RESULTS_DIR", &dir);
        let result = std::panic::catch_unwind(|| {
            let _h = Harness::begin("drop_test", "drop test");
            panic!("boom");
        });
        // The harness was dropped by the unwind, so the JSON is already
        // on disk; restore the env before asserting.
        std::env::remove_var("MAPZERO_RESULTS_DIR");
        assert!(result.is_err());
        let text = fs::read_to_string(dir.join("BENCH_drop_test.json")).unwrap();
        assert!(text.contains("\"bench\":\"drop_test\""), "{text}");
        assert!(text.contains("\"error\":\"bench panicked before finish\""), "{text}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_all_mappers_produces_four_reports() {
        let dfg = mapzero_dfg::suite::by_name("sum").unwrap();
        let cgra = mapzero_arch::presets::hycube();
        let mut compiler = Compiler::new(MapZeroConfig::fast_test());
        let reports =
            run_all_mappers(&mut compiler, &dfg, &cgra, Duration::from_secs(20));
        assert_eq!(reports.len(), 4);
        let names: Vec<&str> = reports.iter().map(|r| r.mapper.as_str()).collect();
        assert_eq!(names, ["ILP", "SA", "LISA", "MapZero"]);
    }
}
