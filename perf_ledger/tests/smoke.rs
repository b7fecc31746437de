//! `--smoke` runs of every workload through the built binary: one pass,
//! no warm-up, low serve rates and a 2 s serve phase budget.
//!
//! Each workload's traced smoke run must print every per-layer metric
//! of `BENCHMARK.json` with its unit, record every end-to-end metric in
//! its ledger record, keep Σ children ≤ parent with unattributed ≥ 0
//! in every trace tree, and count no more failures than operations.

use mapzero_obs::json::{self, Json};
use mapzero_perf_ledger::spec::{load_runs, load_spec, Spec};
use mapzero_perf_ledger::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;

fn spec() -> Spec {
    load_spec(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
        .expect("BENCHMARK.json parses")
}

/// A fresh ledger file for one test.
fn ledger(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(format!("{name}.json"));
    let _ = std::fs::remove_file(&path);
    path
}

/// Run one smoke workload; returns its result line.
fn smoke(workload: &str, seed: u64, trace: bool, out: &Path) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_perf_ledger"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "2",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke", "--out"])
        .arg(out)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{workload}: {stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).unwrap_or_else(|e| panic!("{workload}: bad result line {last}: {e}"))
}

fn number(v: &Json, key: &str) -> f64 {
    v.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("`{key}` missing in {}", v.to_string_compact()))
}

/// Every spec metric present in `metrics` with the spec's unit.
fn assert_metrics(metrics: &Json, names: &[(String, String)], what: &str) {
    for (name, unit) in names {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{what}: `{name}` missing"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{what}: unit of {name}"
        );
        assert!(number(m, "value").is_finite(), "{what}: {name}");
    }
}

fn assert_tree(span: &Json, path: &str) {
    let name = span.get("name").and_then(Json::as_str).expect("span name");
    let path = format!("{path}/{name}");
    let wall = number(span, "wall_s");
    let unattributed = number(span, "unattributed_s");
    let Some(Json::Arr(children)) = span.get("children") else {
        panic!("{path}: no children array")
    };
    let sum: f64 = children.iter().map(|c| number(c, "wall_s")).sum();
    assert!(wall >= 0.0, "{path}: negative wall");
    assert!(
        unattributed >= -1e-9 * wall.max(1.0),
        "{path}: unattributed {unattributed}"
    );
    assert!(
        sum <= wall * (1.0 + 1e-9) + 1e-9,
        "{path}: children {sum} > wall {wall}"
    );
    for child in children {
        assert_tree(child, &path);
    }
}

fn assert_contract_keys(line: &Json, workload: &str) {
    let Json::Obj(fields) = line else {
        panic!("{workload}: result line is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(
        line.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {}",
        line.to_string_compact()
    );
    let attempted = line
        .get("attempted")
        .and_then(Json::as_u64)
        .expect("attempted");
    let failed = line.get("failed").and_then(Json::as_u64).expect("failed");
    assert!(
        attempted >= 1 && attempted >= failed,
        "{workload}: {attempted} < {failed}"
    );
}

fn pairs(metrics: &[mapzero_perf_ledger::spec::MetricSpec]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect()
}

fn traced_smoke(workload: &str) {
    let spec = spec();
    let out = ledger(&format!("traced_{workload}"));
    let line = smoke(workload, 1, true, &out);
    assert_contract_keys(&line, workload);
    assert_metrics(
        line.get("metrics").expect("metrics"),
        &pairs(&spec.per_layer),
        workload,
    );
    let runs = load_runs(&out).expect("ledger file");
    assert_eq!(runs.len(), 1);
    let record = &runs[0];
    assert_metrics(
        record.get("end_to_end").expect("end_to_end"),
        &pairs(&spec.end_to_end),
        workload,
    );
    assert_eq!(
        record.get("counts_stable"),
        Some(&Json::Bool(true)),
        "{workload}"
    );
    let Some(Json::Arr(trees)) = record.get("tree") else {
        panic!("{workload}: no trace tree")
    };
    assert!(!trees.is_empty());
    for tree in trees {
        assert_tree(tree, workload);
    }
}

#[test]
fn table2_mid_traced_smoke() {
    traced_smoke("table2_mid");
}

#[test]
fn fig13_16x16_traced_smoke() {
    traced_smoke("fig13_16x16");
}

#[test]
fn serve_mixed_traced_smoke() {
    traced_smoke("serve_mixed");
}

#[test]
fn pretrain_hrea_traced_smoke() {
    traced_smoke("pretrain_hrea");
}

/// The untraced result line carries every end-to-end metric; the seed
/// changes the serve arrival sequence but no workload's instance set.
#[test]
fn untraced_smoke_and_seed_dependence() {
    let spec = spec();
    for workload in ["table2_mid", "serve_mixed"] {
        let out = ledger(&format!("untraced_{workload}"));
        for seed in [1, 2] {
            let line = smoke(workload, seed, false, &out);
            assert_contract_keys(&line, workload);
            assert_metrics(
                line.get("metrics").expect("metrics"),
                &pairs(&spec.end_to_end),
                workload,
            );
        }
        let runs = load_runs(&out).expect("ledger file");
        assert_eq!(
            runs[0].get("instances"),
            runs[1].get("instances"),
            "{workload}: instance set"
        );
        if workload == "serve_mixed" {
            let digest = |r: &Json| {
                r.get("phases")
                    .and_then(|p| p.get("nominal"))
                    .and_then(|n| n.get("arrival_digest"))
                    .cloned()
            };
            assert!(digest(&runs[0]).is_some());
            assert_ne!(
                digest(&runs[0]),
                digest(&runs[1]),
                "the seed must change the arrivals"
            );
        }
    }
}

/// `BENCHMARK.json` names exactly this benchmark's workloads and
/// metrics, with bounds inside the contract and `setup_s` the loosest.
#[test]
fn benchmark_json_matches_the_binary() {
    let spec = spec();
    assert_eq!(spec.workloads, WORKLOADS);
    assert_eq!(spec.run_seconds, RUN_SECONDS);
    let names = |defs: &[mapzero_perf_ledger::MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_owned(), d.unit.to_owned()))
            .collect()
    };
    assert_eq!(pairs(&spec.end_to_end), names(&END_TO_END));
    assert_eq!(pairs(&spec.per_layer), names(&PER_LAYER));
    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .and_then(|m| m.bound)
        .expect("setup_s");
    for m in &spec.end_to_end {
        let bound = m.bound.expect("end-to-end metrics have bounds");
        assert!(
            bound > 0.0 && bound <= 0.25 && bound <= setup,
            "{}: {bound}",
            m.name
        );
    }
}
