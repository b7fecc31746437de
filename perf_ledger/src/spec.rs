//! `BENCHMARK.json`, ledger files, and `--compare`.
//!
//! A ledger file holds a set of runs: `{"runs": [record, ...]}`, one
//! record per line, each the result line plus the run's context and
//! details (see [`crate::RunResult::ledger_record`]). `--compare A B…`
//! takes set A as the base and reports, per workload and end-to-end
//! metric, each set's median and quartiles, its spread against the
//! metric's bound, and each later set's change against the bound.

use crate::stats::{median, quartiles, spread, within_bound, worsening, Better};
use mapzero_obs::json::{self, Json};
use std::fmt::Write as _;
use std::path::Path;

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Measured seconds of one run.
    pub run_seconds: f64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics with their bounds.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricSpec>,
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn string(obj: &Json, key: &str) -> Result<String, String> {
    field(obj, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("`{key}` is not a string"))
}

fn array<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match field(obj, key)? {
        Json::Arr(items) => Ok(items),
        _ => Err(format!("`{key}` is not an array")),
    }
}

fn metrics(obj: &Json, key: &str, bounded: bool) -> Result<Vec<MetricSpec>, String> {
    array(obj, key)?
        .iter()
        .map(|m| {
            let name = string(m, "name")?;
            let better = string(m, "better")?;
            Ok(MetricSpec {
                unit: string(m, "unit")?,
                better: Better::parse(&better)
                    .ok_or_else(|| format!("{name}: bad `better` {better}"))?,
                bound: if bounded {
                    Some(
                        field(m, "bound")?
                            .as_f64()
                            .ok_or_else(|| format!("{name}: bad bound"))?,
                    )
                } else {
                    None
                },
                name,
            })
        })
        .collect()
}

/// Parse `BENCHMARK.json` text.
///
/// # Errors
/// Returns a message naming the first malformed field.
pub fn parse_spec(text: &str) -> Result<Spec, String> {
    let doc = json::parse(text)?;
    Ok(Spec {
        run_seconds: field(&doc, "run_seconds")?
            .as_f64()
            .ok_or("`run_seconds` is not a number")?,
        workloads: array(&doc, "workloads")?
            .iter()
            .map(|w| string(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics(&doc, "end_to_end", true)?,
        per_layer: metrics(&doc, "per_layer", false)?,
    })
}

/// Read and parse `BENCHMARK.json`.
///
/// # Errors
/// Returns a message when the file cannot be read or parsed.
pub fn load_spec(path: &Path) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_spec(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The runs of a ledger file.
///
/// # Errors
/// Returns a message when the file cannot be read or parsed.
pub fn load_runs(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    array(&doc, "runs")
        .map(<[Json]>::to_vec)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Append one run record to a ledger file, creating it if needed.
///
/// # Errors
/// Returns a message when the file cannot be read, parsed or written.
pub fn append_run(path: &Path, record: Json) -> Result<(), String> {
    let mut runs = if path.exists() {
        load_runs(path)?
    } else {
        Vec::new()
    };
    runs.push(record);
    let lines: Vec<String> = runs.iter().map(Json::to_string_compact).collect();
    let text = format!("{{\"runs\": [\n{}\n]}}\n", lines.join(",\n"));
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn is_measured(run: &Json, workload: &str) -> bool {
    run.get("workload").and_then(Json::as_str) == Some(workload)
        && run.get("trace") == Some(&Json::Bool(false))
        && run.get("smoke") == Some(&Json::Bool(false))
}

/// Values of one end-to-end metric over the untraced, non-smoke runs of
/// one workload.
#[must_use]
pub fn metric_values(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| is_measured(r, workload))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Whether every run of `workload` across all sets recorded the same
/// work: identical per-instance counts (compile workloads), served IIs
/// (serve) or training outcomes (pretrain), and `counts_stable` within
/// each run.
#[must_use]
pub fn counts_agree(sets: &[Vec<Json>], workload: &str) -> bool {
    let runs: Vec<&Json> = sets
        .iter()
        .flatten()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .collect();
    let fingerprint = |r: &Json| ["counts", "served_ii", "outcomes"].map(|k| r.get(k).cloned());
    runs.iter()
        .all(|r| r.get("counts_stable") == Some(&Json::Bool(true)))
        && runs
            .windows(2)
            .all(|w| fingerprint(w[0]) == fingerprint(w[1]))
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Per set: (median, q1, q3, spread, number of runs).
    pub sets: Vec<(f64, f64, f64, f64, usize)>,
    /// Per later set: worsening against set A.
    pub changes: Vec<f64>,
    /// Every spread (except `setup_s`'s) and every change within the
    /// bound.
    pub pass: bool,
}

/// Compare sets of runs against the spec's bounds. The first set is the
/// base. A metric passes when every set's spread (`setup_s` exempt) is
/// within its bound and no later set's median is worse than the base
/// median by more than the bound.
#[must_use]
pub fn compare(spec: &Spec, sets: &[Vec<Json>]) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap_or(0.0);
            let values: Vec<Vec<f64>> = sets
                .iter()
                .map(|s| metric_values(s, workload, &m.name))
                .collect();
            let stats: Vec<(f64, f64, f64, f64, usize)> = values
                .iter()
                .map(|v| {
                    let [q1, _, q3] = quartiles(v);
                    (median(v), q1, q3, spread(v), v.len())
                })
                .collect();
            let base = stats.first().map_or(f64::NAN, |s| s.0);
            let changes: Vec<f64> = stats
                .iter()
                .skip(1)
                .map(|s| worsening(base, s.0, m.better))
                .collect();
            let spreads_ok = m.name == "setup_s" || stats.iter().all(|s| s.3 <= bound);
            let changes_ok = stats
                .iter()
                .skip(1)
                .all(|s| within_bound(base, s.0, m.better, bound));
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                pass: spreads_ok && changes_ok && stats.iter().all(|s| s.4 > 0),
                sets: stats,
                changes,
            });
        }
    }
    rows
}

/// Render a comparison as a text table plus the per-workload count and
/// correctness checks. Returns the text and whether everything passed.
#[must_use]
pub fn render(spec: &Spec, names: &[String], sets: &[Vec<Json>]) -> (String, bool) {
    let rows = compare(spec, sets);
    let mut out = String::new();
    let mut ok = true;
    for (name, runs) in names.iter().zip(sets) {
        let machines: Vec<String> = runs
            .iter()
            .filter_map(|r| r.get("machine").map(Json::to_string_compact))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let seeds: Vec<String> = runs
            .iter()
            .filter_map(|r| r.get("seed").and_then(Json::as_u64))
            .collect::<std::collections::BTreeSet<_>>()
            .iter()
            .map(u64::to_string)
            .collect();
        let _ = writeln!(
            out,
            "set {name}: {} runs, seeds [{}], machine {}",
            runs.len(),
            seeds.join(","),
            machines.join(" | ")
        );
    }
    let _ = writeln!(
        out,
        "\n{:<14} {:<17} {:>6}  per set: median [q1, q3] spread (runs); change vs first set",
        "workload", "metric", "bound"
    );
    for row in &rows {
        let bound = spec
            .end_to_end
            .iter()
            .find(|m| m.name == row.metric)
            .and_then(|m| m.bound)
            .unwrap_or(0.0);
        let mut line = format!(
            "{:<14} {:<17} {:>5.1}%",
            row.workload,
            row.metric,
            bound * 100.0
        );
        for (i, (med, q1, q3, sp, n)) in row.sets.iter().enumerate() {
            let _ = write!(
                line,
                "  {med:.6} [{q1:.6}, {q3:.6}] {:.1}% ({n})",
                sp * 100.0
            );
            if i > 0 {
                let _ = write!(line, " {:+.1}%", row.changes[i - 1] * 100.0);
            }
        }
        let _ = writeln!(out, "{line}  {}", if row.pass { "PASS" } else { "FAIL" });
        ok &= row.pass;
    }
    let _ = writeln!(out);
    for workload in &spec.workloads {
        let stable = counts_agree(sets, workload);
        let incorrect = sets
            .iter()
            .flatten()
            .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload.as_str()))
            .filter(|r| r.get("correct") != Some(&Json::Bool(true)))
            .count();
        let _ = writeln!(
            out,
            "{workload}: counts_stable {stable}, incorrect runs {incorrect}"
        );
        ok &= stable && incorrect == 0;
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"command": ["x"], "paths": ["p"], "run_seconds": 5,
        "workloads": [{"name": "w", "why": "because"}],
        "end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
                       {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "hits", "unit": "count", "better": "higher"}]}"#;

    fn run(latency: f64, setup: f64) -> Json {
        json::parse(&format!(
            r#"{{"workload": "w", "trace": false, "smoke": false, "correct": true, "counts_stable": true,
                "metrics": {{"latency_ms": {{"value": {latency}, "unit": "ms"}},
                             "setup_s": {{"value": {setup}, "unit": "s"}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn parses_the_spec() {
        let spec = parse_spec(SPEC).unwrap();
        assert_eq!(spec.run_seconds, 5.0);
        assert_eq!(spec.workloads, ["w"]);
        assert_eq!(spec.end_to_end[0].bound, Some(0.1));
        assert_eq!(spec.per_layer[0].better, Better::Higher);
        assert!(parse_spec("{}").is_err());
    }

    #[test]
    fn compare_applies_bounds_and_spreads() {
        let spec = parse_spec(SPEC).unwrap();
        let a: Vec<Json> = [100.0, 101.0, 99.0, 100.0, 100.5]
            .iter()
            .map(|&l| run(l, 1.0))
            .collect();
        let same: Vec<Json> = [100.2, 100.8, 99.5, 100.1, 100.0]
            .iter()
            .map(|&l| run(l, 1.0))
            .collect();
        let slower: Vec<Json> = [112.0, 111.0, 113.0, 112.5, 111.5]
            .iter()
            .map(|&l| run(l, 1.0))
            .collect();
        let rows = compare(&spec, &[a.clone(), same]);
        assert!(rows.iter().all(|r| r.pass), "{rows:?}");
        let rows = compare(&spec, &[a.clone(), slower]);
        assert!(!rows[0].pass);
        assert!((rows[0].changes[0] - 0.12).abs() < 1e-9);
        // A noisy setup_s passes on spread (exempt), not on its median.
        let noisy_setup: Vec<Json> = [0.5, 1.5, 1.0, 0.7, 1.3]
            .iter()
            .map(|&s| run(100.0, s))
            .collect();
        let rows = compare(&spec, &[noisy_setup.clone(), noisy_setup]);
        assert!(rows[1].pass, "{rows:?}");
        // Missing runs fail.
        assert!(!compare(&spec, &[Vec::new()])[0].pass);
    }

    #[test]
    fn ledger_files_round_trip() {
        let path =
            std::env::temp_dir().join(format!("perf_ledger_spec_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        append_run(&path, run(1.0, 2.0)).unwrap();
        append_run(&path, run(3.0, 4.0)).unwrap();
        let runs = load_runs(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(metric_values(&runs, "w", "latency_ms"), [1.0, 3.0]);
        assert!(counts_agree(&[runs], "w"));
    }
}
