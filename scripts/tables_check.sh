#!/usr/bin/env bash
# Deterministic-tables check: Table 1, Table 2 and the §2.5.1
# search-space sizes are pure functions of the source tree (no clock, no
# search), so rerunning them must reproduce the committed CSVs byte for
# byte. Fails with a diff when a committed table has gone stale.
# Usage: scripts/tables_check.sh (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

out="$(mktemp -d -t mapzero-tables.XXXXXX)"
trap 'rm -rf "$out"' EXIT

cargo build --release -q -p mapzero-bench
for table in table1_architectures table2_dfg_stats search_space; do
  MAPZERO_RESULTS_DIR="$out" "target/release/$table" > /dev/null
  diff -u "results/$table.csv" "$out/$table.csv"
done
echo "deterministic tables match results/"
