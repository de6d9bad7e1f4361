#!/usr/bin/env bash
# Repeatability check: two sets of 5 untraced runs per workload, the sets
# interleaved (A1 B1 A2 B2 ...) so both see the same machine, each run i of
# a set on seed i, each run as long as BENCHMARK.json's run_seconds. Writes
# bench/out/spread.json with, per workload and end-to-end metric, each
# set's median and interquartile spread (as a share of the median, by the
# rule of Python's statistics.quantiles), the gap between the two medians in
# the metric's worse direction, and the bound from BENCHMARK.json. Exits
# non-zero if a gap or a spread exceeds its bound, if a count metric differs
# at all between two runs of one seed, or if any run fails.
#
#   bench/repeat.sh [workload ...]     (default: every workload)
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS=5
SECONDS_PER_RUN="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
WORKLOADS=("$@")
if [ ${#WORKLOADS[@]} -eq 0 ]; then
    mapfile -t WORKLOADS < <(python3 -c 'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-bench/target}"
cargo build --release --offline --manifest-path bench/Cargo.toml
BIN="$CARGO_TARGET_DIR/release/canon-serving-bench"

# Whatever is already there is stale.
rm -rf bench/out/runs
mkdir -p bench/out/runs

status=0
for w in "${WORKLOADS[@]}"; do
    for i in $(seq 1 "$RUNS"); do
        for set in A B; do
            out="bench/out/runs/${w}.${set}.${i}.json"
            echo "run: $w set $set seed $i" >&2
            if ! "$BIN" --workload "$w" --seed "$i" --seconds "$SECONDS_PER_RUN" --trace 0 | tail -n 1 > "$out"; then
                echo "FAILED: $w set $set seed $i" >&2
                status=1
            fi
        done
    done
done

python3 - "$RUNS" "${WORKLOADS[@]}" <<'EOF' || status=1
import json, statistics, sys

runs = int(sys.argv[1])
workloads = sys.argv[2:]
bench = json.load(open("BENCHMARK.json"))
COUNTS = {"msgs_per_req", "wire_bytes_per_req"}
ok = True
report = {"runs_per_set": runs, "workloads": {}}
for w in workloads:
    sets = {
        s: [json.load(open(f"bench/out/runs/{w}.{s}.{i}.json")) for i in range(1, runs + 1)]
        for s in "AB"
    }
    rows = {}
    for m in bench["end_to_end"]:
        name, bound, better = m["name"], m["bound"], m["better"]
        row = {"unit": m["unit"], "better": better, "bound": bound}
        for s, results in sets.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            row[s] = {"median": med, "iqr": q3 - q1, "spread": (q3 - q1) / med}
        a, b = row["A"]["median"], row["B"]["median"]
        worse = (b - a) / a if better == "lower" else (a - b) / a
        row["gap"] = worse
        # setup_s is held to its gap only, as the acceptance driver does.
        spread_ok = name == "setup_s" or max(row["A"]["spread"], row["B"]["spread"]) <= bound
        row["ok"] = abs(worse) <= bound and spread_ok
        if name in COUNTS:
            same = all(
                ra["metrics"][name]["value"] == rb["metrics"][name]["value"]
                for ra, rb in zip(sets["A"], sets["B"])
            )
            row["identical_per_seed"] = same
            row["ok"] = row["ok"] and same
        ok = ok and row["ok"]
        rows[name] = row
    correct = all(r["correct"] and r["failed"] == 0 for rs in sets.values() for r in rs)
    ok = ok and correct
    report["workloads"][w] = {"all_correct": correct, "metrics": rows}
report["ok"] = ok
json.dump(report, open("bench/out/spread.json", "w"), indent=1)
for w, body in report["workloads"].items():
    for name, row in body["metrics"].items():
        print(
            f"{w:16} {name:20} A {row['A']['median']:14.4f} ±{row['A']['spread']:6.3f}  "
            f"B {row['B']['median']:14.4f} ±{row['B']['spread']:6.3f}  "
            f"gap {row['gap']:+7.3f}  bound {row['bound']:.2f}  {'ok' if row['ok'] else 'OVER'}"
        )
print("spread: bench/out/spread.json", "ok" if ok else "NOT ok")
sys.exit(0 if ok else 1)
EOF
exit $status
