#!/usr/bin/env bash
# Rust line counts — the tracked number of ROADMAP aim 2 ("same behaviour,
# least code"): test and non-test lines per crate and in total over
# `crates src tests examples`, counted the way `wc -l` counts (every line,
# blank and comment lines included).
#
# A line is a *test* line when its file sits under a `tests/` directory, or
# when it is at or below the first column-0 `#[cfg(test)]` of a file (the
# trailing `mod tests` every crate here uses). Everything else — library
# code, binaries, benches, examples — is non-test.
#
#   scripts/rust_lines.sh          per-crate table plus a total row
#   scripts/rust_lines.sh --json   the total as one JSON object: the row a
#                                  PR appends (with its "pr" and "side")
#                                  to results/history/RUST_LINES.jsonl
#   scripts/rust_lines.sh --check  exit 1 unless the last "side": "change"
#                                  row of that file is the tree's --json
#                                  total (CI: the tracked number is current)
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - "${1:-}" <<'EOF'
import collections, json, pathlib, sys

code, test = collections.Counter(), collections.Counter()
for root in ("crates", "src", "tests", "examples"):
    for path in sorted(pathlib.Path(root).rglob("*.rs")):
        if "target" in path.parts:
            continue
        unit = path.parts[1] if root == "crates" else root
        in_test = "tests" in path.parts
        for line in path.read_text().splitlines():
            in_test = in_test or line == "#[cfg(test)]"
            (test if in_test else code)[unit] += 1

units = sorted(set(code) | set(test))
total = {
    "crates": sum(1 for u in units if u not in ("src", "tests", "examples")),
    "non_test": sum(code.values()),
    "test": sum(test.values()),
    "total": sum(code.values()) + sum(test.values()),
}
if sys.argv[1] == "--json":
    print(json.dumps(total))
elif sys.argv[1] == "--check":
    history = pathlib.Path("results/history/RUST_LINES.jsonl")
    rows = [json.loads(line) for line in history.read_text().splitlines() if line.strip()]
    last = [r for r in rows if r["side"] == "change"][-1]
    recorded = {k: last[k] for k in total}
    if recorded != total:
        sys.exit(f"{history} is stale: last change row (pr {last['pr']}) says\n"
                 f"  {json.dumps(recorded)}\nthe tree says\n  {json.dumps(total)}\n"
                 "append this PR's parent/change rows (scripts/rust_lines.sh --json)")
    print(f"rust_lines: {history} is current (pr {last['pr']}: {json.dumps(total)})")
else:
    print(f"{'(unit)':<18} {'non-test':>8} {'test':>8} {'all':>8}")
    for u in units:
        print(f"{u:<18} {code[u]:>8} {test[u]:>8} {code[u] + test[u]:>8}")
    print(f"{'total':<18} {total['non_test']:>8} {total['test']:>8} {total['total']:>8}")
EOF
