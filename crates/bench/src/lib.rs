//! Shared harness utilities for the table/figure reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §4 for the index), or in the case of
//! `headtohead` the four views of one run (Figs. 8–11), and prints the
//! same rows/series the paper reports, additionally writing CSV into
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
    AgentConfig, Budget, Compiler, IiBounds, MapError, MapReport, MapZeroConfig, Mapper,
    MctsConfig, Problem, TrainConfig,
};
use mapzero_dfg::Dfg;
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
/// `MAPZERO_TELEMETRY`); `finish` flushes any trace sink.
pub struct Harness;

impl Harness {
    /// Open the harness: initialise telemetry from the environment and
    /// print the banner.
    #[must_use]
    pub fn begin(title: impl Display) -> Harness {
        if let Some(path) = mapzero_obs::init_from_env() {
            println!("[tracing to {path}]");
        }
        println!("{title}\n");
        Harness
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

    /// Close the harness: flush any installed trace sink.
    pub fn finish(self) {
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
    let mappers: [&mut dyn Mapper; 4] =
        [&mut ExactMapper, &mut SaMapper, &mut LisaMapper, mapzero];
    mappers.into_iter().map(|m| run_or_fail(m, dfg, cgra, limit)).collect()
}

/// Run one mapper, turning every error into a report so the tables
/// always have a row. A timeout keeps its MII, seconds and work counts
/// and reads `timed_out`; a structural error is a row with MII 0 and no
/// work.
pub fn run_or_fail(
    mapper: &mut dyn Mapper,
    dfg: &Dfg,
    cgra: &Cgra,
    limit: Duration,
) -> MapReport {
    let start = Instant::now();
    let partial = match mapper.map(dfg, cgra, &Budget::with_deadline(limit), IiBounds::default()) {
        Ok(report) => return report,
        Err(MapError::Timeout { best_partial }) => Some(best_partial),
        Err(_) => None,
    };
    MapReport {
        mapper: mapper.name().to_owned(),
        engine: mapper.name().to_owned(),
        kernel: dfg.name().to_owned(),
        fabric: cgra.name().to_owned(),
        mii: partial.map_or(0, |_| Problem::mii(dfg, cgra).unwrap_or(0)),
        mapping: None,
        elapsed: partial.map_or(Duration::ZERO, |_| start.elapsed()),
        backtracks: partial.map_or(0, |p| p.backtracks),
        explored: partial.map_or(0, |p| p.explored),
        timed_out: partial.is_some(),
        telemetry: None,
    }
}

/// A flattened mapping result: one row of a head-to-head table.
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

    #[test]
    fn timeouts_keep_their_mii_seconds_and_work() {
        // 54 nodes cannot map in 20 ms with any engine.
        let dfg = mapzero_dfg::suite::by_name("arf").unwrap();
        let cgra = mapzero_arch::presets::hrea();
        let limit = Duration::from_millis(20);
        let mut compiler = Compiler::new(MapZeroConfig::fast_test());
        for r in run_all_mappers(&mut compiler, &dfg, &cgra, limit) {
            assert!(r.mapping.is_none() && r.timed_out, "{}: {r:?}", r.mapper);
            assert_eq!(r.mii, Problem::mii(&dfg, &cgra).unwrap(), "{}", r.mapper);
            assert!(r.elapsed >= limit, "{}: {:?}", r.mapper, r.elapsed);
            assert!(r.explored > 0, "{}: no work reported", r.mapper);
        }
    }
}
