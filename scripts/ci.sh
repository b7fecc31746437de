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
# reruns the kernel and hot-path suites, and the network- and
# search-level oracles (tape-free forward and train step vs the tape,
# the batched K=1 search loop vs the one-leaf loop), on the Scalar
# branch.
MAPZERO_SIMD=scalar cargo test -q -p mapzero-nn
MAPZERO_SIMD=scalar cargo test -q --test proptest_hotpath --test proptest_batch
for oracle in \
    network::tests::train_batch_matches_tape_reference_bitwise \
    network::tests::fast_predict_is_bit_identical_to_reference \
    network::tests::fast_predict_matches_reference_bitwise \
    network::tests::alternating_batch_sizes_share_one_index \
    mcts::tests::batch_of_one_is_bit_identical_to_scalar_loop; do
    MAPZERO_SIMD=scalar cargo test -q -p mapzero-core --lib -- --exact "$oracle"
done

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warning-free: no broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

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

echo "==> perf ledger suite (unit tests, smoke runs, traced-replay count check)"
cargo test --offline --manifest-path perf_ledger/Cargo.toml

echo "tier-1 gate: OK"
