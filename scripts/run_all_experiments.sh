#!/usr/bin/env bash
# Regenerates every table and figure of the paper (see EXPERIMENTS.md).
# With no arguments the full-size run rewrites results/full_run.txt, the
# committed record scripts/check_routing_golden.sh diffs against. With any
# argument (--quick for a fast smoke run, --seed, --max-n, ...) the tables
# are not that record, so they land in target/experiments_run.txt instead.
set -euo pipefail
cd "$(dirname "$0")/.."
ARGS=("$@")
cargo build --release -p canon-bench
source scripts/figures.sh
if [ "$#" -eq 0 ]; then OUT=results/full_run.txt; else OUT=target/experiments_run.txt; fi
: > "$OUT"
for b in "${FIGURES[@]}"; do
  echo "=== $b ===" | tee -a "$OUT"
  ./target/release/"$b" "${ARGS[@]}" | tee -a "$OUT"
  echo | tee -a "$OUT"
done
echo "results written to $OUT"
