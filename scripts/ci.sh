#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merging.
# Usage: scripts/ci.sh (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> scalar-kernel tests (MAPZERO_SIMD=scalar)"
# The default run above takes the Lanes8 branch of every kernel; this
# reruns the kernel and hot-path suites, and the network-level gradient
# oracle (tape-free train step vs the tape), on the Scalar branch.
MAPZERO_SIMD=scalar cargo test -q -p mapzero-nn
MAPZERO_SIMD=scalar cargo test -q --test proptest_hotpath --test proptest_batch
MAPZERO_SIMD=scalar cargo test -q -p mapzero-core --lib \
    network::tests::train_batch_matches_tape_reference_bitwise

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> telemetry smoke (traced run + JSONL schema check)"
trace="$(mktemp -t mapzero-ci-trace.XXXXXX.jsonl)"
trap 'rm -f "$trace"' EXIT
MAPZERO_TRACE="$trace" cargo run --release -q --example traced_mapping
test -s "$trace" || { echo "telemetry smoke: empty trace at $trace" >&2; exit 1; }
cargo run --release -q -p mapzero-obs --bin trace_summary -- --check "$trace"

echo "==> chaos smoke (failpoint injection + kill/resume + torn-write proptest)"
# Fixed seed so the torn-write property exercises the same offsets on
# every CI run; local `just chaos` uses the same seed.
PROPTEST_SEED=20260807 cargo test --release -q --test chaos

echo "==> serve smoke (service batch with an armed worker-death failpoint)"
scripts/serve_smoke.sh

echo "==> serve recovery smoke (journal crash-replay + SIGTERM drain + validator gate)"
scripts/serve_recovery_smoke.sh

echo "==> perf smoke (hotpath bench on a tiny kernel + schema check)"
perf_dir="$(mktemp -d -t mapzero-ci-perf.XXXXXX)"
trap 'rm -f "$trace"; rm -rf "$perf_dir"' EXIT
MAPZERO_RESULTS_DIR="$perf_dir" cargo run --release -q -p mapzero-bench --bin hotpath
python3 - "$perf_dir/BENCH_hotpath.json" results/BENCH_hotpath.json <<'PY'
import json, sys

fresh_path, baseline_path = sys.argv[1], sys.argv[2]
with open(fresh_path) as f:
    fresh = json.load(f)

# Schema: the fields the nightly aggregation and the README point at.
required = [
    "bench", "elapsed_secs", "metrics",
    "predictions_per_sec_reference", "predictions_per_sec_fast",
    "predict_speedup", "batch_scaling", "batch8_speedup", "compile_kernel",
    "compile_secs_before", "compile_secs_after", "compile_speedup",
    "prune_speedup", "train_samples_per_sec",
]
missing = [k for k in required if k not in fresh]
if missing:
    sys.exit(f"perf smoke: BENCH_hotpath.json missing fields {missing}")
counters = fresh["metrics"]["counters"]
for c in ("search.predict_cache.hit", "search.predict_cache.miss",
          "search.batch.flush", "search.batch.partial",
          "search.batch.cache_short_circuit",
          "search.prune.candidate_rebuild", "search.prune.masked_actions",
          "search.prune.dead_state", "search.expand.offered"):
    if c not in counters:
        sys.exit(f"perf smoke: counter {c!r} absent from metrics delta")
for hname in ("nn.batch.size", "search.candidates.per_node", "nn.train_us"):
    if hname not in fresh["metrics"].get("histograms", {}):
        sys.exit(f"perf smoke: histogram {hname!r} absent from metrics delta")
if fresh["metrics"]["counters"]["search.prune.candidate_rebuild"] == 0:
    sys.exit("perf smoke: no candidate map was ever built (pruning inert?)")

# Batch-scaling gate: one leaf batch of 8 must not be slower than
# one-at-a-time prediction. Each K's speedup_vs_scalar is the median of
# per-pair ratios against the one-at-a-time scalar arm, interleaved
# within that K's sweep, so machine drift between the two sweeps
# cancels; the absolute predictions_per_sec medians do not cancel it.
speedup = {int(row["batch"]): row["speedup_vs_scalar"]
           for row in fresh["batch_scaling"]}
if not {1, 8} <= set(speedup):
    sys.exit(f"perf smoke: batch_scaling missing K=1/K=8 rows, got {sorted(speedup)}")
if speedup[8] < speedup[1]:
    sys.exit(f"perf smoke: batch-8 speedup {speedup[8]:.2f}x below "
             f"batch-1 {speedup[1]:.2f}x (both vs the scalar arm)")

# Regression check vs the committed baseline: warn (non-fatal) when the
# fresh run is more than 2x slower — CI machines vary, so this is a
# signal, not a gate.
try:
    with open(baseline_path) as f:
        baseline = json.load(f)
except OSError:
    print("perf smoke: no committed baseline, skipping regression check")
    sys.exit(0)
for key in ("predictions_per_sec_fast", "batch8_speedup", "train_samples_per_sec"):
    fresh_v, base_v = fresh.get(key, 0.0), baseline.get(key, 0.0)
    if base_v > 0 and fresh_v < base_v / 2:
        print(f"WARNING: perf smoke: {key} regressed >2x "
              f"({fresh_v:.0f} vs committed {base_v:.0f})")
print(f"perf smoke: OK (predict {fresh['predict_speedup']:.1f}x, "
      f"batch8 {fresh['batch8_speedup']:.2f}x, "
      f"train {fresh['train_samples_per_sec']:.0f} samples/s, "
      f"compile {fresh['compile_speedup']:.2f}x, "
      f"prune {fresh['prune_speedup']:.2f}x)")
PY

echo "==> prune smoke (search_space bench: fig13 16x16 pairs + schema check)"
# Short per-attempt limit: it caps how long each unpruned arm can burn,
# which is what dominates this smoke's wall time.
MAPZERO_RESULTS_DIR="$perf_dir" MAPZERO_TIME_LIMIT_SECS=8 \
    cargo run --release -q -p mapzero-bench --bin search_space
python3 - "$perf_dir/BENCH_search_space.json" results/BENCH_search_space.json <<'PY'
import json, sys

fresh_path, baseline_path = sys.argv[1], sys.argv[2]
with open(fresh_path) as f:
    fresh = json.load(f)

required = ["bench", "elapsed_secs", "metrics", "prune_speedup",
            "prune_speedup_per_kernel", "branching_factor_unpruned",
            "branching_factor_pruned", "fabric"]
missing = [k for k in required if k not in fresh]
if missing:
    sys.exit(f"prune smoke: BENCH_search_space.json missing fields {missing}")
counters = fresh["metrics"]["counters"]
for c in ("search.prune.candidate_rebuild", "search.prune.masked_actions",
          "search.prune.dead_state"):
    if counters.get(c) is None:
        sys.exit(f"prune smoke: counter {c!r} absent from metrics delta")
if counters["search.prune.candidate_rebuild"] == 0:
    sys.exit("prune smoke: pruned arms never built a candidate map")

# Hard gate: pruning must never make the fig13 16x16 quick compile
# slower than the unpruned arm measured in the same interleaved run.
if fresh["prune_speedup"] < 1.0:
    sys.exit(f"prune smoke: prune_speedup {fresh['prune_speedup']:.2f}x < 1.0 "
             "(pruning is a net slowdown)")
if fresh["branching_factor_pruned"] >= fresh["branching_factor_unpruned"]:
    sys.exit("prune smoke: pruning did not shrink the effective branching "
             f"factor ({fresh['branching_factor_unpruned']:.1f} -> "
             f"{fresh['branching_factor_pruned']:.1f})")

# Non-fatal drift check vs the committed baseline (CI machines vary,
# and this smoke runs with a shorter time limit than the committed run).
try:
    with open(baseline_path) as f:
        baseline = json.load(f)
except OSError:
    print("prune smoke: no committed baseline, skipping regression check")
    sys.exit(0)
base_v = baseline.get("prune_speedup", 0.0)
if base_v > 0 and fresh["prune_speedup"] < base_v / 2:
    print(f"WARNING: prune smoke: prune_speedup regressed >2x "
          f"({fresh['prune_speedup']:.2f}x vs committed {base_v:.2f}x)")
print(f"prune smoke: OK (prune {fresh['prune_speedup']:.2f}x, branching "
      f"{fresh['branching_factor_unpruned']:.1f} -> "
      f"{fresh['branching_factor_pruned']:.1f})")
PY

echo "==> serve bench smoke (tiny load run + schema + regression check)"
serve_dir="$(mktemp -d -t mapzero-ci-serve.XXXXXX)"
trap 'rm -f "$trace"; rm -rf "$perf_dir" "$serve_dir"' EXIT
MAPZERO_RESULTS_DIR="$serve_dir" MAPZERO_SERVE_LOAD_BASE=2 \
    cargo run --release -q -p mapzero-bench --bin serve_load
python3 - "$serve_dir/BENCH_serve.json" results/BENCH_serve.json <<'PY'
import json, sys

fresh_path, baseline_path = sys.argv[1], sys.argv[2]
with open(fresh_path) as f:
    fresh = json.load(f)

tiers = fresh.get("tiers", [])
if not tiers:
    sys.exit("serve bench smoke: no tiers in BENCH_serve.json")
required = ["load", "offered", "completed", "shed", "deadline_miss",
            "shed_rate", "throughput_rps", "p50_ms", "p99_ms"]
for tier in tiers:
    missing = [k for k in required if k not in tier]
    if missing:
        sys.exit(f"serve bench smoke: tier {tier.get('load')} missing {missing}")

# Regression check vs the committed baseline: warn (non-fatal) when the
# fresh run is >2x slower on latency or throughput — the CI run uses a
# smaller burst, so per-tier comparison keyed by load multiplier.
try:
    with open(baseline_path) as f:
        baseline = json.load(f)
except OSError:
    print("serve bench smoke: no committed baseline, skipping regression check")
    sys.exit(0)
base_by_load = {t["load"]: t for t in baseline.get("tiers", [])}
for tier in tiers:
    base = base_by_load.get(tier["load"])
    if not base:
        continue
    load = tier["load"]
    if base.get("p99_ms", 0) > 0 and tier["p99_ms"] > 2 * base["p99_ms"]:
        print(f"WARNING: serve bench: {load}x p99 regressed >2x "
              f"({tier['p99_ms']:.1f}ms vs committed {base['p99_ms']:.1f}ms)")
    # Throughput is only comparable at equal burst size: the CI run
    # uses a shrunken burst where startup cost dominates rps.
    if tier.get("offered") == base.get("offered") and \
            base.get("throughput_rps", 0) > 0 and \
            tier["throughput_rps"] < base["throughput_rps"] / 2:
        print(f"WARNING: serve bench: {load}x throughput regressed >2x "
              f"({tier['throughput_rps']:.0f} vs committed "
              f"{base['throughput_rps']:.0f} rps)")
print(f"serve bench smoke: OK ({len(tiers)} tiers)")
PY

echo "==> perf ledger suite (unit tests, smoke runs, traced-replay count check)"
cargo test --offline --manifest-path perf_ledger/Cargo.toml

echo "==> cargo bench --no-run"
cargo bench --workspace --no-run

echo "tier-1 gate: OK"
