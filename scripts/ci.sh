#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merging.
# Usage: scripts/ci.sh (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> delta-forward oracle under release codegen (row loops vectorise differently)"
cargo test --release -q -p mapzero-nn --test message_passing_oracle
cargo test --release -q -p mapzero-core --lib delta_forward

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy on perf_ledger (its own workspace, which --workspace does not reach)"
cargo clippy --offline --manifest-path perf_ledger/Cargo.toml --all-targets -- -D warnings

echo "==> cargo doc (warning-free: no broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> telemetry smoke (traced run + JSONL schema check)"
trace="$(mktemp -t mapzero-ci-trace.XXXXXX.jsonl)"
trap 'rm -f "$trace"' EXIT
MAPZERO_TRACE="$trace" cargo run --release -q --example traced_mapping
test -s "$trace" || { echo "telemetry smoke: empty trace at $trace" >&2; exit 1; }
cargo run --release -q -p mapzero-obs --bin trace_summary -- --check "$trace"

echo "==> engine smoke (MapZero, ILP, SA and LISA through the one Mapper trait and II search)"
cargo run --release -q --example compare_mappers

echo "==> chaos smoke (failpoint injection + kill/resume + torn-write proptest)"
# Fixed seed so the torn-write property exercises the same offsets on
# every CI run; local `just chaos` uses the same seed.
PROPTEST_SEED=20260807 cargo test --release -q --test chaos

echo "==> pruning soundness oracle and oracle walks under release codegen (two fixed proptest seeds)"
# The live sets and the doomed check must keep every conflict-free
# completion the exhaustive search enumerates, and the live-set/ledger
# split of exclusivity must match the per-PE oracle, on more cases than
# one seed draws and under optimised codegen.
for seed in 20261019 20261020; do
    PROPTEST_SEED=$seed cargo test --release -q --test prune
done
# The candidate-map build against its per-bound, scratch-copy original.
cargo test --release -q -p mapzero-core --lib build_matches_the_per_bound_scan

echo "==> largest-kernel deadline under release codegen"
# huf_u on the 16x16 baseline under 10 ms: the candidate-map build is
# not charged to the budget yet, and takes ~50 ms of the test's margin
# in the debug run above against ~5 ms here.
cargo test --release -q --test integration_robustness largest_kernel_on_the_16x16_baseline_times_out_in_time

echo "==> router, step-journal and watch-list oracles under release codegen (fixed proptest seed)"
# Routes checked against the validator both ways, scratch reuse against
# a fresh thread, step/undo walks against a fresh replay, and the
# incremental dead-state check against a full scan.
PROPTEST_SEED=20261025 cargo test --release -q --test proptest_routing
PROPTEST_SEED=20261025 cargo test --release -q -p mapzero-core --lib step_undo_route_store
cargo test --release -q -p mapzero-core --lib witness_doomed_matches_a_full_scan

echo "==> shared prediction cache under release codegen (cross-thread and chaos isolation)"
# Several workers read and write the one locked cache while others die.
cargo test --release -q -p mapzero-core --lib shared_cache_across_threads
cargo test --release -q -p mapzero-serve --test chaos_isolation

echo "==> serve smoke (service batch with an armed worker-death failpoint)"
scripts/serve_smoke.sh

echo "==> serve recovery smoke (journal crash-replay + SIGTERM drain + validator gate)"
scripts/serve_recovery_smoke.sh

echo "==> deterministic tables (Table 1, Table 2, search space) match results/"
scripts/tables_check.sh

echo "==> perf ledger suite (unit tests, smoke runs, traced-replay count check)"
cargo test --offline --manifest-path perf_ledger/Cargo.toml

echo "tier-1 gate: OK"
