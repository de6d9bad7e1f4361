#!/usr/bin/env bash
# The paired protocol for a change that claims (or must not lose) speed on
# the serving benchmark: builds bench/ at a parent commit and at the work
# tree, copies both binaries out so a rebuild cannot change them
# mid-series, and runs N alternating pairs per workload — pair i on seed i,
# odd pairs parent first, even pairs change first — so both sides see the
# same machine. Prints, per workload and end-to-end metric, each side's
# median and quartiles and the pairs the change won (ties count for
# neither side) — for each paced latency also its approximate raw value,
# the scaled one times the run's median yardstick over the 26 ms reference
# — and writes the two results/history/BENCHMARK.jsonl rows
# per workload (parent, change) to target/pair_bench/rows.jsonl for the PR
# to append. When both uniform workloads ran it prints each side's
# framed/channel capacity_rps ratio.
#
# Timed runs are also held to the last `"side": "change"` row of each
# workload in results/history/BENCHMARK.jsonl, the previous PR's result:
# if that row's yardstick reading agrees with this run's within 10%, a
# yardstick-scaled median (setup_s, capacity_rps, lat_*) that is worse
# than the row's by more than its BENCHMARK.json bound fails the script;
# if the readings disagree it prints "host changed" and compares nothing.
#
# Exits non-zero if any run fails or is not `correct` with zero failed
# operations, or if a median falls outside its bound against that row.
#
# --trace N then runs N traced pairs per workload (`--trace 1`, the same
# alternation and seeds 1-N) and prints each side's median and range, over
# those runs, of the set-up layers workloads.draw_ns_per_cmd,
# canon.build_s, cluster.spawn_s and cluster.preload_s and of
# runtime.idle_round_us: where a set-up change went, layer by layer.
# setup_s is draw + build + spawn + preload, and the draw is bench/'s own
# code, so a set-up claim shows the draw did not move. They are printed
# only, never gated or recorded.
# The traced runs write their span files under target/pair_bench/traced/.
#
#   scripts/pair_bench.sh <parent-ref> [--pairs N] [--seconds S] [--smoke] [--trace N] [workload ...]
#
# Defaults: 10 pairs, BENCHMARK.json's run_seconds, every workload.
# --smoke runs 64-node smoke cycles instead of timed runs (CI: timings mean
# nothing there, both sides must still be correct) and writes no rows.
# The parent is a `git archive` of <parent-ref> under target/pair_bench/,
# so .git is left alone and nothing needs cleaning up but target/.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/pair_bench.sh <parent-ref> [--pairs N] [--seconds S] [--smoke] [--trace N] [workload ...]" >&2
    exit 2
}

PARENT_REF=""
PAIRS=10
SECONDS_PER_RUN="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
SMOKE=0
TRACE_PAIRS=0
WORKLOADS=()
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) PAIRS="${2:?--pairs needs a value}"; shift 2 ;;
        --seconds) SECONDS_PER_RUN="${2:?--seconds needs a value}"; shift 2 ;;
        --smoke) SMOKE=1; shift ;;
        --trace) TRACE_PAIRS="${2:?--trace needs a pair count}"; shift 2 ;;
        -*) usage ;;
        # The first bare word is the parent, the rest are workloads.
        *) if [ -z "$PARENT_REF" ]; then PARENT_REF="$1"; else WORKLOADS+=("$1"); fi; shift ;;
    esac
done
[ -n "$PARENT_REF" ] || usage
if [ ${#WORKLOADS[@]} -eq 0 ]; then
    mapfile -t WORKLOADS < <(python3 -c 'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi

OUT=target/pair_bench
PARENT_SHA="$(git rev-parse --short "$PARENT_REF^{commit}")"
rm -rf "$OUT/parent" "$OUT/bin" "$OUT/runs" "$OUT/traced" "$OUT/rows.jsonl"
mkdir -p "$OUT/parent" "$OUT/bin" "$OUT/runs" "$OUT/traced"

# Each side builds into a target directory of its own, kept between
# invocations, so neither build can reuse the other's artefacts. The
# parent's files are stamped with the extraction time (-m): with the
# commit's own time, a parent committed before the kept target was last
# built would look up to date there, and its binary would be a stale one.
git archive "$PARENT_SHA" | tar -x -m -C "$OUT/parent"
CARGO_TARGET_DIR="$OUT/parent-target" cargo build --release --offline --quiet \
    --manifest-path "$OUT/parent/bench/Cargo.toml"
cp "$OUT/parent-target/release/canon-serving-bench" "$OUT/bin/parent"
CARGO_TARGET_DIR="$OUT/change-target" cargo build --release --offline --quiet \
    --manifest-path bench/Cargo.toml
cp "$OUT/change-target/release/canon-serving-bench" "$OUT/bin/change"

if [ "$SMOKE" -eq 1 ]; then
    RUN_ARGS=(--smoke)
else
    RUN_ARGS=(--seconds "$SECONDS_PER_RUN" --trace 0)
fi

status=0
for w in "${WORKLOADS[@]}"; do
    for i in $(seq 1 "$PAIRS"); do
        if [ $((i % 2)) -eq 1 ]; then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do
            echo "run: $w pair $i $side" >&2
            # The hard timeout turns a wedged cycle into a fast failure.
            if ! timeout 600 "$OUT/bin/$side" --workload "$w" --seed "$i" "${RUN_ARGS[@]}" \
                    > "$OUT/runs/$w.$side.$i.out"; then
                echo "FAILED: $w pair $i $side" >&2
                status=1
            fi
        done
    done
done

# Traced pairs (--trace N): the per-layer set-up table, printed below.
if [ "$SMOKE" -eq 0 ] && [ "$TRACE_PAIRS" -gt 0 ]; then
    for w in "${WORKLOADS[@]}"; do
        for i in $(seq 1 "$TRACE_PAIRS"); do
            if [ $((i % 2)) -eq 1 ]; then order=(parent change); else order=(change parent); fi
            for side in "${order[@]}"; do
                echo "traced run: $w pair $i $side" >&2
                # A traced run writes its spans under its working directory.
                if ! (cd "$OUT/traced" && timeout 600 "../bin/$side" --workload "$w" --seed "$i" \
                        --seconds "$SECONDS_PER_RUN" --trace 1) > "$OUT/runs/$w.$side.traced.$i.out"; then
                    echo "FAILED: traced $w pair $i $side" >&2
                    status=1
                fi
            done
        done
    done
fi

PR="$(sed -n '1s/^# ISSUE \([0-9]*\).*/\1/p' ISSUE.md 2>/dev/null || true)"
python3 - "$OUT" "$PAIRS" "$SECONDS_PER_RUN" "$SMOKE" "${PR:-null}" "$PARENT_SHA" "${WORKLOADS[@]}" <<'EOF' || status=1
import json, re, statistics, sys

out, pairs, seconds, smoke, pr, parent_sha = sys.argv[1:7]
workloads = sys.argv[7:]
pairs, smoke = int(pairs), smoke == "1"
bench = json.load(open("BENCHMARK.json"))
metrics = bench["end_to_end"]
# Digits each metric is recorded with in BENCHMARK.jsonl; the two exact
# counts are recorded in full.
digits = {"setup_s": 6, "capacity_rps": 1, "lat_lo_p50_us": 2, "lat_lo_p90_us": 2,
          "lat_hi_p50_us": 2, "peak_rss_mb": 2}
# The metrics a run scales by its yardstick reading, so the ones a row from
# another series can be compared on once the readings agree.
timed = ["setup_s", "capacity_rps", "lat_lo_p50_us", "lat_lo_p90_us", "lat_hi_p50_us"]
# The reference host's yardstick, which the bench scales timed metrics to.
REFERENCE_MS = 26.0

def read(workload, side, i):
    text = open(f"{out}/runs/{workload}.{side}.{i}.out").read()
    lines = text.strip().splitlines()
    if not lines:
        return None
    try:
        run = json.loads(lines[-1])
    except ValueError:
        return None
    yard = re.search(r"the yardstick took ([0-9.]+) ms here", text)
    run["yardstick_ms"] = float(yard.group(1)) if yard else None
    return run

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3

bad = False
rows = []
ran = {}  # workload -> (per-side medians, per-side median yardstick ms)
for w in workloads:
    runs = {side: [read(w, side, i) for i in range(1, pairs + 1)] for side in ("parent", "change")}
    for side, got in runs.items():
        for i, run in enumerate(got, 1):
            if run is None or run["correct"] is not True or run["failed"] != 0:
                print(f"FAIL {w} pair {i} {side}: " + ("no result line" if run is None else
                      f"correct {run['correct']} ops_failed {run['failed']} of {run['attempted']}"))
                bad = True
    if any(run is None for got in runs.values() for run in got):
        continue
    print(f"\n{w}: {pairs} pairs, parent {parent_sha} vs work tree"
          + (" (smoke: timings mean nothing)" if smoke else f", {seconds} s runs"))
    print(f"  {'metric':<20} {'parent q1':>12} {'median':>12} {'q3':>12}   "
          f"{'change q1':>12} {'median':>12} {'q3':>12}  {'delta':>8}  won"
          "\n  (~ raw: a lat_* row unscaled, the run's value × its median yardstick ÷ 26 ms)")
    medians = {"parent": {}, "change": {}}
    for m in metrics:
        name = m["name"]
        vals = {side: [run["metrics"][name]["value"] for run in got] for side, got in runs.items()}
        sign = 1 if m["better"] == "higher" else -1
        won = sum(sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"]))
        tied = sum(c == p for p, c in zip(vals["parent"], vals["change"]))
        (p1, p2, p3), (c1, c2, c3) = quartiles(vals["parent"]), quartiles(vals["change"])
        medians["parent"][name], medians["change"][name] = p2, c2
        delta = f"{(c2 / p2 - 1) * 100:+.1f}%" if p2 else "n/a"
        note = ("  exact" if tied == pairs else "" if pairs < 2 else
                f"  gap {'>' if abs(c2 - p2) > p3 - p1 else '<='} parent IQR")
        print(f"  {name:<20} {p1:>12.4f} {p2:>12.4f} {p3:>12.4f}   {c1:>12.4f} {c2:>12.4f} {c3:>12.4f}"
              f"  {delta:>8}  {won}/{pairs - tied}{note}")
        # A paced segment is tick-bound, so its raw latency hardly follows
        # the host while the yardstick does: undo the scaling, run by run
        # (the scaled value × the run's median yardstick ÷ the reference),
        # so a yardstick that read differently on the two sides cannot pass
        # for a latency change (ROADMAP item 5(h)).
        if name.startswith("lat_") and all(run["yardstick_ms"] for got in runs.values() for run in got):
            raw = {side: [run["metrics"][name]["value"] * run["yardstick_ms"] / REFERENCE_MS for run in got]
                   for side, got in runs.items()}
            (r1, r2, r3), (s1, s2, s3) = quartiles(raw["parent"]), quartiles(raw["change"])
            raw_won = sum(c < p for p, c in zip(raw["parent"], raw["change"]))
            print(f"    {'~ raw':<18} {r1:>12.4f} {r2:>12.4f} {r3:>12.4f}   {s1:>12.4f} {s2:>12.4f} {s3:>12.4f}"
                  f"  {(s2 / r2 - 1) * 100:>+7.1f}%  {raw_won}/{pairs}")
    yard = {}
    for side, got in runs.items():
        yards = [run["yardstick_ms"] for run in got if run["yardstick_ms"] is not None]
        yard[side] = round(statistics.median(yards), 2) if yards else None
    ran[w] = (medians, yard)
    if smoke:
        continue
    for side in runs:
        row = {"pr": None if pr == "null" else int(pr), "side": side, "workload": w, "runs": pairs,
               "seconds": float(seconds) if "." in seconds else int(seconds),
               "yardstick_ms": yard[side]}
        for m in metrics:
            value = medians[side][m["name"]]
            row[m["name"]] = round(value, digits[m["name"]]) if m["name"] in digits else value
        row["source"] = (f"scripts/pair_bench.sh {parent_sha}: {pairs} paired {seconds} s runs, seeds 1-{pairs}, "
                         "alternating which side runs first; timed metrics are medians of the runs' "
                         "yardstick-scaled values, yardstick_ms the median reading (reference 26 ms)")
        rows.append(row)

if "uniform_channel" in ran and "uniform_framed" in ran:
    ratios = [f"{side} {ran['uniform_framed'][0][side]['capacity_rps'] / ran['uniform_channel'][0][side]['capacity_rps']:.3f}"
              for side in ("parent", "change")]
    print("\nframed/channel capacity_rps: " + ", ".join(ratios))

if not smoke:
    last = {}
    for line in open("results/history/BENCHMARK.jsonl"):
        row = json.loads(line)
        if row["side"] == "change":
            last[row["workload"]] = row
    print("\nagainst the last committed change row (results/history/BENCHMARK.jsonl):")
    for w, (medians, yard) in ran.items():
        prev = last.get(w)
        if prev is None:
            print(f"  {w}: no change row to compare with")
            continue
        here, there, whose = yard["change"], prev["yardstick_ms"], f"PR {prev['pr']}'s row"
        if not here or not there or abs(here / there - 1) > 0.10:
            print(f"  {w}: host changed (yardstick {here} ms here, {there} ms in {whose}); not compared")
            continue
        for m in metrics:
            if m["name"] not in timed:
                continue
            now, then = medians["change"][m["name"]], prev[m["name"]]
            limit = then * (1 + m["bound"] if m["better"] == "lower" else 1 - m["bound"])
            worse = now > limit if m["better"] == "lower" else now < limit
            print(f"  {w} {m['name']:<14} {now:>12.4f} against {then:>12.4f} in {whose}"
                  f"  ({now / then - 1:+.1%}, bound {m['bound']:.0%})" + ("  FAIL" if worse else ""))
            bad = bad or worse

if rows:
    with open(f"{out}/rows.jsonl", "w") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")
    print(f"\nrows for results/history/BENCHMARK.jsonl: {out}/rows.jsonl")
sys.exit(1 if bad else 0)
EOF

if [ "$SMOKE" -eq 0 ] && [ "$TRACE_PAIRS" -gt 0 ]; then
    python3 - "$OUT" "$TRACE_PAIRS" "${WORKLOADS[@]}" <<'EOF' || status=1
import statistics, sys

out, pairs = sys.argv[1], int(sys.argv[2])
layers = ["workloads.draw_ns_per_cmd", "canon.build_s", "cluster.spawn_s", "cluster.preload_s",
          "runtime.idle_round_us"]

def medians(path):
    """Each layer's median over the run's traced cycles, from its table."""
    found = {}
    for line in open(path):
        cols = line.split()
        if len(cols) == 6 and cols[0] in layers:
            found[cols[0]] = float(cols[2])
    return found

print(f"\nset-up by layer: {pairs} traced pairs, each side's median and range of the runs' medians"
      " (printed, not gated)")
print(f"  {'workload':<16} {'layer':<26} {'parent':>12} {'change':>12}  {'delta':>8}"
      f"  {'parent range':>25}  {'change range':>25}")
for w in sys.argv[3:]:
    runs = {side: [medians(f"{out}/runs/{w}.{side}.traced.{i}.out") for i in range(1, pairs + 1)]
            for side in ("parent", "change")}
    for layer in layers:
        vals = {side: [r[layer] for r in got if layer in r] for side, got in runs.items()}
        if not all(vals.values()):
            print(f"  {w:<16} {layer:<26} {'missing':>12}")
            continue
        p, c = statistics.median(vals["parent"]), statistics.median(vals["change"])
        delta = f"{(c / p - 1) * 100:+.1f}%" if p else "n/a"
        span = {side: f"{min(v):.6f}-{max(v):.6f}" for side, v in vals.items()}
        print(f"  {w:<16} {layer:<26} {p:>12.6f} {c:>12.6f}  {delta:>8}"
              f"  {span['parent']:>25}  {span['change']:>25}")
EOF
fi
exit $status
