#!/usr/bin/env bash
# Paired parent/change runs of the repository benchmark (BENCHMARK.json),
# the procedure a claimed gain or a "no regression" is judged by:
# both commits are exported with `git archive` and built into target
# directories of their own, every workload is run as alternating
# parent/change pairs on a fresh seed per pair, and each end-to-end
# metric is reported as medians, quartiles and pair wins against its
# bound.
#
#   scripts/bench_pair.sh <base-ref> [<change-ref>] [<pairs>] [<first-seed>] [<workloads>]
#
# <change-ref> defaults to HEAD; to measure an uncommitted working tree
# pass "$(git stash create)". <pairs> defaults to 10 (the minimum a
# claim may rest on); <first-seed> defaults to the clock, so no two
# invocations share seeds unless asked to. <workloads> is a
# comma-separated subset of BENCHMARK.json's (default: all of them), so
# a change to one layer can run its own workload's ten pairs first —
# `wire_point` alone takes ~4 minutes — before the full run, which
# "no regression elsewhere" still needs. Takes about
# 2 x pairs x workloads x run_seconds; not run in CI.
#
# Verdicts, per workload and metric, from the change's side:
#   gain        change wins >= 9/10 of the pairs (ties count for neither)
#               and the medians differ by more than the parent's
#               interquartile range
#   regressed   the change's median is worse by more than the bound
#   unresolved  the parent's own interquartile range is wider than the
#               bound and the change did not win every pair
#   ok          neither
# Everything lands under .bench_build/pair/ (ignored by git); the raw
# result of every run made is kept in runs.jsonl there, and the tables
# are printed as markdown on standard output.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 ]]; then
    sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
    exit 2
fi
base_ref=$(git rev-parse --verify "$1^{commit}")
change_ref=$(git rev-parse --verify "${2:-HEAD}^{commit}")
pairs=${3:-10}
first_seed=${4:-$(($(date +%s) % 1000000))}
work=$PWD/.bench_build/pair
runs=$work/runs.jsonl

# the command, workloads and run length are the benchmark's, not ours
mapfile -t command < <(python3 -c '
import json
for word in json.load(open("BENCHMARK.json"))["command"]:
    print(word)')
mapfile -t workloads < <(python3 - "${5:-}" <<'PY'
import json
import sys

known = [w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]]
asked = [name for name in sys.argv[1].split(",") if name]
unknown = [name for name in asked if name not in known]
if unknown:
    sys.exit(f"bench_pair.sh: no workload {unknown} in BENCHMARK.json (it has {known})")
# BENCHMARK.json's order, whatever order they were asked for in
print("\n".join(name for name in known if name in asked or not asked))
PY
)
[[ ${#workloads[@]} -gt 0 ]] || exit 2
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

for side in parent change; do
    ref=$base_ref
    [[ $side == change ]] && ref=$change_ref
    rm -rf "$work/$side/src"
    mkdir -p "$work/$side/src"
    # -m stamps the files with the extraction time: `git archive` gives
    # them the commit's time, and cargo, which judges freshness by mtime,
    # would keep a target built from a newer commit as up to date
    git archive "$ref" | tar -x -m -C "$work/$side/src"
    echo "bench_pair.sh: building $side ($ref)" >&2
    (cd "$work/$side/src" &&
        CARGO_TARGET_DIR="$work/$side/target" cargo build --release --quiet -p aldsp-benchmark)
done

# run_one <side> <workload> <seed>: one benchmark run from that side's
# checkout; its result (the last line of standard output) goes to runs.jsonl
run_one() {
    local side=$1 workload=$2 seed=$3 result
    result=$(cd "$work/$side/src" &&
        CARGO_TARGET_DIR="$work/$side/target" "${command[@]}" \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
            2>/dev/null | tail -n 1) || true
    if [[ $result != \{* ]]; then
        result='{"correct": false, "attempted": 0, "failed": 0, "metrics": {}}'
    fi
    printf '{"side": "%s", "workload": "%s", "seed": %d, "result": %s}\n' \
        "$side" "$workload" "$seed" "$result" >>"$runs"
}

: >"$runs"
for workload in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        seed=$((first_seed + i))
        echo "bench_pair.sh: $workload pair $((i + 1))/$pairs seed $seed" >&2
        # alternate which side goes first, so drift favours neither
        if ((i % 2 == 0)); then
            run_one parent "$workload" "$seed"
            run_one change "$workload" "$seed"
        else
            run_one change "$workload" "$seed"
            run_one parent "$workload" "$seed"
        fi
    done
done

python3 - "$runs" "$base_ref" "$change_ref" "$seconds" "${workloads[@]}" <<'PY'
import json
import statistics
import sys

runs_path, base_ref, change_ref, seconds = sys.argv[1:5]
workloads = sys.argv[5:]
bench = json.load(open("BENCHMARK.json"))
runs = [json.loads(line) for line in open(runs_path)]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fmt(x):
    return f"{x:,.4g}" if abs(x) < 1000 else f"{x:,.0f}"


print(f"parent `{base_ref[:7]}`, change `{change_ref[:7]}`, `--seconds {seconds}`, "
      f"{len(runs) // (2 * len(workloads))} pairs per workload\n")
for name in workloads:
    mine = [r for r in runs if r["workload"] == name]
    by_side = {side: {r["seed"]: r["result"] for r in mine if r["side"] == side}
               for side in ("parent", "change")}
    seeds = sorted(by_side["parent"])
    print(f"### `{name}` (seeds {seeds[0]}–{seeds[-1]})\n")
    for side in ("parent", "change"):
        results = by_side[side].values()
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        wrong = sum(not r["correct"] for r in results)
        print(f"{side}: {failed} of {attempted} ops failed, {wrong} of {len(results)} runs incorrect  ")
    print("\n| metric | unit | parent q1 | parent median | parent q3 | change q1 | "
          "change median | change q3 | change vs parent | pair wins | bound | verdict |")
    print("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---|")
    for m in bench["end_to_end"]:
        key, higher = m["name"], m["better"] == "higher"
        pairs = [(by_side["parent"][s]["metrics"][key]["value"],
                  by_side["change"][s]["metrics"][key]["value"])
                 for s in seeds
                 if key in by_side["parent"][s]["metrics"] and key in by_side["change"][s]["metrics"]]
        if not pairs:
            print(f"| `{key}` | {m['unit']} | no data |")
            continue
        p1, p2, p3 = quartiles([p for p, _ in pairs])
        c1, c2, c3 = quartiles([c for _, c in pairs])
        better = lambda c, p: c > p if higher else c < p
        wins = sum(better(c, p) for p, c in pairs)
        losses = sum(better(p, c) for p, c in pairs)
        # positive = worse, as a share of the parent's median
        worse = ((p2 - c2) if higher else (c2 - p2)) / p2 if p2 else 0.0
        if wins >= 0.9 * len(pairs) and abs(c2 - p2) > (p3 - p1):
            verdict = "gain"
        elif worse > m["bound"]:
            verdict = "regressed"
        elif p2 and (p3 - p1) / p2 > m["bound"] and losses > 0:
            verdict = "unresolved"
        else:
            verdict = "ok"
        print(f"| `{key}` | {m['unit']} | {fmt(p1)} | {fmt(p2)} | {fmt(p3)} | {fmt(c1)} | {fmt(c2)} | "
              f"{fmt(c3)} | {-worse if higher else worse:+.1%} | {wins}/{len(pairs)} | "
              f"{m['bound']:.0%} | {verdict} |")
    print()
PY
