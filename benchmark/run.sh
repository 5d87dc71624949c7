#!/usr/bin/env bash
# Build lpp_bench (Release, the standalone project in benchmark/) and
# run it from the repository root.
#
#   benchmark/run.sh --workload <name> --seed <n> [lpp_bench options]
#       one run; the last line of standard output is the result JSON
#   benchmark/run.sh [--seed <n>] [lpp_bench options]
#       all four workloads in turn (seed 1 unless given)
#   benchmark/run.sh --quick
#       self-test, then one op per workload with --trace 1 (its digest
#       must match the library entry point's); about a minute
#   benchmark/run.sh --selftest
#
# lpp_bench options: --seconds <s> --trace 0|1 --threads <n> --out <dir>
# --ops <n>. Build output goes to standard error. The exit code is
# non-zero when the build fails or any op fails.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build=.bench_build/lpp_bench
workloads=(analyze-cold predict-live evaluate-warm evaluate-sampled)

if [[ ! -f src/CMakeLists.txt ]]; then
    echo "run.sh: library sources (src/) not found in $root" >&2
    exit 2
fi

jobs=$(nproc 2>/dev/null || echo 2)
((jobs > 4)) && jobs=4
configure() {
    local generator=()
    if [[ ! -f $build/CMakeCache.txt ]] && command -v ninja >/dev/null; then
        generator=(-G Ninja)
    fi
    cmake -S benchmark -B "$build" ${generator[@]+"${generator[@]}"} \
        -DCMAKE_BUILD_TYPE=Release >&2
}
# A build tree configured from another checkout cannot be reused.
configure || { rm -rf "$build" && configure; }
cmake --build "$build" -j "$jobs" >&2
bench=$build/lpp_bench

case "${1:-}" in
--selftest)
    exec "$bench" --selftest
    ;;
--quick)
    status=0
    "$bench" --selftest >&2 || status=1
    for w in "${workloads[@]}"; do
        out=.bench_build/quick/$w
        "$bench" --workload "$w" --seed 1 --trace 1 --ops 1 --out "$out" \
            | tail -n 1 || status=1
        if command -v python3 >/dev/null; then
            python3 -c 'import json, sys; json.load(open(sys.argv[1]))' \
                "$out/trace.json" || status=1
        fi
    done
    exit "$status"
    ;;
esac

for arg in "$@"; do
    [[ $arg == --workload ]] && exec "$bench" "$@"
done
seed=()
[[ " $* " == *" --seed "* ]] || seed=(--seed 1)
status=0
for w in "${workloads[@]}"; do
    "$bench" --workload "$w" ${seed[@]+"${seed[@]}"} "$@" || status=1
done
exit "$status"
