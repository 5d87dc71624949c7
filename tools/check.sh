#!/usr/bin/env bash
# The correctness gate. Runs, in order:
#
#   1. format      clang-format conformance            (skips w/o tool)
#   2. build       -Werror build of the default preset
#   3. tidy        clang-tidy over src/bench/tests     (skips w/o tool)
#   4. tsa         clang -Wthread-safety -Werror build (skips w/o clang)
#   5. tier1       tier-1 ctest suite, default preset
#   6. repro       reruns every table, figure and ablation bench and
#                  fails on any diff against the committed bench_out/
#                  (skips outside a git checkout)
#   7. bench       benchmark/run.sh --quick: builds lpp_bench from src/,
#                  runs its self-test, and checks one traced op per
#                  workload against the library entry point's digest
#   8. asan-ubsan  build + tier-1 under Address+UBSan
#   9. tsan        build + tier-1 under ThreadSanitizer
#
# Every step must pass (or be skipped for a missing optional tool) for
# the gate to exit 0. Steps 8-9 build with LPP_DCHECKS=ON, so debug
# invariants are exercised under the sanitizers.
#
#   LPP_CHECK_FAST=1   skip the sanitizer matrix (steps 8-9)
#   LPP_CHECK_JOBS=N   build parallelism (default: nproc)

set -uo pipefail
cd "$(dirname "$0")/.."

JOBS=${LPP_CHECK_JOBS:-$(nproc)}
FAST=${LPP_CHECK_FAST:-0}
leg_names=()
leg_results=() # pass | SKIP | FAIL, parallel to leg_names
leg_notes=()
failures=()

note() { printf '\n=== check: %s ===\n' "$1"; }

run_step() { # run_step <name> <command...>
    local name=$1
    shift
    note "$name"
    "$@"
    local status=$?
    leg_names+=("$name")
    if [ "$status" -eq 77 ]; then
        leg_results+=("SKIP")
        leg_notes+=("missing optional tooling")
    elif [ "$status" -ne 0 ]; then
        leg_results+=("FAIL")
        leg_notes+=("exit $status")
        failures+=("$name")
    else
        leg_results+=("pass")
        leg_notes+=("")
    fi
    return 0
}

skip_step() { # skip_step <name> <reason>
    leg_names+=("$1")
    leg_results+=("SKIP")
    leg_notes+=("$2")
}

step_format() { tools/format_check.sh; }

step_build() {
    cmake --preset default -DLPP_WERROR=ON >/dev/null &&
        cmake --build build -j "$JOBS"
}

step_tidy() { LPP_BUILD_DIR=build tools/run_tidy.sh; }

step_tsa() {
    # Thread-safety annotations are enforced by clang only; gcc parses
    # them to nothing (see src/support/thread_annotations.hpp).
    if ! command -v clang++ >/dev/null 2>&1; then
        echo "check: clang++ not found; skipping -Wthread-safety build" >&2
        return 77
    fi
    cmake -B build-tsa -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_COMPILER=clang++ -DLPP_WERROR=ON \
        -DCMAKE_CXX_FLAGS=-Wthread-safety >/dev/null &&
        cmake --build build-tsa -j "$JOBS"
}

step_tier1() { ctest --preset tier1 -j "$JOBS"; }

# The paper's outputs are the bit-identity contract: every table,
# figure and ablation bench rewrites its CSVs under bench_out/ (relative
# to the repository root), and any difference from the committed CSVs
# (staged or not), or a CSV that is not committed, fails the leg. A
# change that means to move a paper output commits the new CSVs with it.
step_repro() {
    local src name status=0
    for src in bench/table*.cpp bench/fig*.cpp bench/ablation*.cpp; do
        name=$(basename "$src" .cpp)
        echo "repro: $name"
        if ! "build/bench/$name" >/dev/null; then
            echo "repro: $name failed" >&2
            status=1
        fi
    done
    git diff --exit-code --stat HEAD -- bench_out/ || status=1
    local added
    added=$(git ls-files --others --exclude-standard -- bench_out/)
    if [ -n "$added" ]; then
        printf 'repro: CSVs not in the repository:\n%s\n' "$added" >&2
        status=1
    fi
    return "$status"
}

# The benchmark builds the library from src/ in its own tree, so a
# src/ change that breaks its build or changes what an op computes
# fails here rather than only when the benchmark is next run.
step_bench() { benchmark/run.sh --quick; }

step_sanitizer() { # step_sanitizer <preset>
    local preset=$1
    cmake --preset "$preset" >/dev/null &&
        cmake --build --preset "$preset" -j "$JOBS" &&
        ctest --preset "$preset" -j "$JOBS"
}

run_step format step_format
run_step build step_build
run_step tidy step_tidy
run_step tsa step_tsa
run_step tier1 step_tier1
if git rev-parse --verify -q HEAD >/dev/null 2>&1; then
    run_step repro step_repro
else
    skip_step repro "not a git checkout; no committed CSVs to diff"
fi
run_step bench step_bench
if [ "$FAST" != "1" ]; then
    run_step asan-ubsan step_sanitizer asan-ubsan
    run_step tsan step_sanitizer tsan
else
    skip_step asan-ubsan "LPP_CHECK_FAST=1"
    skip_step tsan "LPP_CHECK_FAST=1"
fi

# End-of-run summary: one row per leg, so a skipped leg (exit 77,
# LPP_CHECK_FAST, or repro outside a git checkout) is visible instead
# of silently absent from the log.
note "summary"
printf '%-12s %-6s %s\n' "leg" "result" "note"
printf '%-12s %-6s %s\n' "---" "------" "----"
for i in "${!leg_names[@]}"; do
    printf '%-12s %-6s %s\n' "${leg_names[$i]}" "${leg_results[$i]}" \
        "${leg_notes[$i]}"
done
if [ "${#failures[@]}" -gt 0 ]; then
    echo
    echo "FAILED: ${failures[*]}"
    exit 1
fi
echo
echo "all checks passed"
