# Common developer tasks. `just` (no args) lists the recipes.

default:
    @just --list

# Tier-1 gate: release build, full test suite, clippy with -D warnings.
ci:
    scripts/ci.sh

# Fast feedback loop: debug build + tests.
test:
    cargo test --workspace -q

# Lint exactly as CI does.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Chaos suite: failpoint injection, kill/resume, torn-write proptest.
chaos:
    PROPTEST_SEED=20260807 cargo test -q --test chaos

# Compile-service smoke: fixture batch through the serve binary with a
# worker-death failpoint armed; all responses must still arrive.
serve-smoke:
    scripts/serve_smoke.sh

# Durability smoke: journal crash-replay (abort mid-batch, restart,
# exactly-once), SIGTERM drain exits 0, validator gate on a corrupted
# mapping.
serve-recovery:
    scripts/serve_recovery_smoke.sh

# Launch the service on the fixture batch with an admin socket, scrape
# /status with mapzero_top, and print the per-tenant table.
serve-status:
    scripts/serve_status.sh

# Search-space table: the §2.5.1 size estimates, written to
# results/search_space.csv.
bench-searchspace:
    cargo run --release -p mapzero-bench --bin search_space

# Performance ledger: end-to-end metrics of one workload (table2_mid,
# fig13_16x16, serve_mixed or pretrain_hrea) at seed 1.
ledger W:
    cargo run --quiet --release --offline --manifest-path perf_ledger/Cargo.toml --bin perf_ledger -- --workload {{W}} --seed 1

# Regenerate every paper table/figure (quick mode).
figures:
    cargo run --release -p mapzero-bench --bin run_all

# Fold a MAPZERO_TRACE JSONL trace into a per-span table.
trace-summary file:
    cargo run --release -p mapzero-obs --bin trace_summary -- {{file}}
