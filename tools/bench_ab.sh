#!/usr/bin/env bash
# Paired A/B runs of the repository benchmark: a git ref against the
# working tree.
#
#   tools/bench_ab.sh <git-ref> [workload] [pairs] [seed]
#
# Builds lpp_bench (Release) twice: from <git-ref>, exported under
# .bench_build/ab/, and from the working tree, in .bench_build/lpp_bench
# as benchmark/run.sh does. Then runs `pairs` pairs (default 10) of
# each workload (default: every workload in BENCHMARK.json) at `seed`
# (default 1), alternating which side runs first. For every end-to-end
# metric it prints each side's median and quartiles, and how many pairs
# the working tree won (ties count for neither side).
#
# It only reads benchmark/ and BENCHMARK.json; run output goes to
# .bench_build/ab/out/. Needs git, cmake and python3.
set -euo pipefail

if [[ $# -lt 1 || $1 == -h || $1 == --help ]]; then
    sed -n '2,16p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
ref=$1
workload=${2:-}
pairs=${3:-10}
seed=${4:-1}

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
sha=$(git rev-parse --verify "$ref^{commit}")
ab=.bench_build/ab
src=$ab/src-$sha
jobs=$(nproc 2>/dev/null || echo 2)
((jobs > 4)) && jobs=4

build() { # build <source dir> <build dir>
    local generator=()
    if [[ ! -f $2/CMakeCache.txt ]] && command -v ninja >/dev/null; then
        generator=(-G Ninja)
    fi
    cmake -S "$1/benchmark" -B "$2" ${generator[@]+"${generator[@]}"} \
        -DCMAKE_BUILD_TYPE=Release >&2
    cmake --build "$2" -j "$jobs" >&2
}

# An exported tree, not a worktree: nothing is registered in .git.
if [[ ! -f $src/benchmark/CMakeLists.txt ]]; then
    rm -rf "$src"
    mkdir -p "$src"
    git archive "$sha" | tar -x -C "$src"
fi
build "$src" "$ab/build-$sha"
build . .bench_build/lpp_bench
declare -A bench=([parent]=$ab/build-$sha/lpp_bench
                  [change]=.bench_build/lpp_bench/lpp_bench)

if [[ -n $workload ]]; then
    workloads=("$workload")
else
    mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
fi

results=$ab/out/results.jsonl
mkdir -p "$ab/out"
: >"$results"
for w in "${workloads[@]}"; do
    for ((i = 0; i < pairs; ++i)); do
        order=(parent change)
        ((i % 2)) && order=(change parent)
        for side in "${order[@]}"; do
            line=$("${bench[$side]}" --workload "$w" --seed "$seed" \
                --out "$ab/out/$side/$w" 2>/dev/null | tail -n 1) || true
            printf '{"workload": "%s", "side": "%s", "pair": %d, "run": %s}\n' \
                "$w" "$side" "$i" "${line:-null}" >>"$results"
            echo "bench_ab: $w pair $((i + 1))/$pairs $side done" >&2
        done
    done
done

python3 - "$results" "$ref" <<'EOF'
import json, statistics, sys

spec = json.load(open("BENCHMARK.json"))
rows = [json.loads(l) for l in open(sys.argv[1])]
print(f"parent = {sys.argv[2]}, change = working tree")
for w in dict.fromkeys(r["workload"] for r in rows):
    runs = {"parent": {}, "change": {}}
    failed = {"parent": 0, "change": 0}
    for r in rows:
        if r["workload"] != w:
            continue
        if not r["run"] or r["run"].get("failed") or not r["run"]["correct"]:
            failed[r["side"]] += 1
        if r["run"]:
            runs[r["side"]][r["pair"]] = r["run"]["metrics"]
    print(f"\n{w}: failed runs parent {failed['parent']}, "
          f"change {failed['change']}")
    print(f"  {'metric':26} {'parent p25/p50/p75':>28} "
          f"{'change p25/p50/p75':>28}  wins")
    for m in spec["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        def values(side):
            return {p: v[name]["value"] for p, v in runs[side].items()
                    if name in v}
        a, b = values("parent"), values("change")
        common = sorted(set(a) & set(b))
        if not common:
            continue
        wins = sum((b[p] > a[p]) if higher else (b[p] < a[p])
                   for p in common)
        def q(xs):
            xs = sorted(xs)
            if len(xs) == 1:
                return f"{xs[0]:.3f}/{xs[0]:.3f}/{xs[0]:.3f}"
            q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
            return f"{q1:.3f}/{q2:.3f}/{q3:.3f}"
        print(f"  {name:26} {q(a.values()):>28} {q(b.values()):>28}  "
              f"{wins}/{len(common)}")
EOF
