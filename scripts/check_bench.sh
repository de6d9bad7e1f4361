#!/usr/bin/env bash
# Serving-benchmark gate for shared runners, where timings mean nothing:
# runs every BENCHMARK.json workload at --smoke scale (64 nodes) and fails
# unless each run is `correct` with zero failed operations and its
# `msgs_per_req` and `wire_bytes_per_req` equal the committed values in
# results/history/BENCHMARK_smoke.json exactly.
#
# Both counts come from the benchmark's fixed-seed count pass under virtual
# time, so they repeat bit for bit on any host. They are what a change to
# *when* nodes run must not move: a wake-up that is missed or doubled
# changes which messages share a (destination, tick) frame, and the bytes
# per request with it. A change that moves them on purpose updates the
# expected file with the values this script prints.
set -euo pipefail
cd "$(dirname "$0")/.."

EXPECTED=results/history/BENCHMARK_smoke.json
mapfile -t WORKLOADS < <(python3 -c 'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

cargo build --release --offline --quiet --manifest-path bench/Cargo.toml

status=0
for w in "${WORKLOADS[@]}"; do
    # The hard timeout turns a wedged cycle into a fast failure.
    if ! line=$(timeout 300 cargo run --release --offline --quiet \
            --manifest-path bench/Cargo.toml -- --workload "$w" --smoke | tail -n 1); then
        echo "FAIL $w: the run exited non-zero" >&2
        status=1
        continue
    fi
    python3 - "$w" "$EXPECTED" "$line" <<'EOF' || status=1
import json, sys

workload, expected_path, line = sys.argv[1:]
run = json.loads(line)
expected = json.load(open(expected_path))["workloads"].get(workload)
got = {m: run["metrics"][m]["value"] for m in ("msgs_per_req", "wire_bytes_per_req")}
problems = []
if run["correct"] is not True:
    problems.append("correct is not true")
if run["failed"] != 0:
    problems.append(f"ops_failed {run['failed']} of {run['attempted']}")
if expected is None:
    problems.append(f"no expected row in {expected_path}")
elif got != expected:
    problems.append(f"counts moved: expected {json.dumps(expected)}")
print(f"{'FAIL' if problems else 'ok'} {workload}: correct {str(run['correct']).lower()} "
      f"ops_failed {run['failed']} {json.dumps(got)}" + "".join(f"; {p}" for p in problems))
sys.exit(1 if problems else 0)
EOF
done
exit $status
