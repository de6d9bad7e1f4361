#!/usr/bin/env bash
# Golden-output regression for every committed figure: reruns all 22
# binaries of results/full_run.txt (the list in scripts/figures.sh) and diffs them against their committed
# sections. Any drift means the routing engine no longer reproduces the
# pre-refactor paths byte for byte, a construction moved (a flat network is
# `build_canonical` over a single domain; fig3_links, fig4_degree_pdf,
# balance_ratio, hierarchy_balance, ablate_condition_b, skipnet_compare
# and shape_robustness print the hierarchical ones), `CrescendoSim` counts
# or walks differently (`join_cost` and `churn_resilience` are its only
# golden: every `OpReport` count and every `lookup_hops` /
# `lookup_surviving` walk lands in their tables), or the canon-store
# placement or cache engine did (`cache_hits`, `replication_availability`).
#
# No figure reads a clock, so every output line must match exactly.
#
# Each binary is checked at every thread count in THREADS_LIST (default
# "1 4"): the parallel query sweeps must merge in deterministic index
# order, so output is byte-identical at any thread count.
set -euo pipefail
cd "$(dirname "$0")/.."

source scripts/figures.sh
THREADS_LIST=${THREADS_LIST:-"1 4"}
GOLDEN=results/full_run.txt
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# The golden file holds exactly the figures the list names, in order: a
# section the list lacks would go unchecked, a name it lacks unrecorded.
sections=$(sed -n 's/^=== \(.*\) ===$/\1/p' "$GOLDEN")
if [ "$sections" != "$(printf '%s\n' "${FIGURES[@]}")" ]; then
  echo "FAIL: the === name === sections of $GOLDEN are not scripts/figures.sh's list:" >&2
  diff -u --label scripts/figures.sh --label "$GOLDEN" \
    <(printf '%s\n' "${FIGURES[@]}") <(printf '%s\n' "$sections") >&2 || true
  exit 1
fi

cargo build --release -p canon-bench --quiet

# Extracts one `=== name ===` section from the golden file, dropping
# blank lines.
extract() {
  awk -v s="=== $1 ===" 'found && /^=== /{exit} found && NF{print} $0==s{found=1}' "$GOLDEN"
}

fail=0
checks=0
for b in "${FIGURES[@]}"; do
  # The config banner echoes the thread count under variation; normalize
  # it (and nothing else on the line) so only real output drift fails.
  extract "$b" | sed 's/^\(# config: .*\)threads=[0-9]*/\1threads=_/' > "$WORK/$b.golden"
  for t in $THREADS_LIST; do
    ./target/release/"$b" --threads "$t" | grep -v '^$' \
      | sed 's/^\(# config: .*\)threads=[0-9]*/\1threads=_/' > "$WORK/$b.actual"
    if diff -u "$WORK/$b.golden" "$WORK/$b.actual" > "$WORK/$b.diff"; then
      echo "ok: $b matches golden output (--threads $t)"
    else
      echo "FAIL: $b diverged from results/full_run.txt (--threads $t):"
      cat "$WORK/$b.diff"
      fail=1
    fi
    checks=$((checks + 1))
  done
done

if [ "$fail" -ne 0 ]; then
  echo "routing golden check FAILED" >&2
  exit 1
fi
echo "routing golden check passed: $checks runs byte-identical (threads: $THREADS_LIST)"
