#!/usr/bin/env bash
# The one verification script CI jobs and local runs share, split into
# selectable stages so both invoke identical commands:
#
#   tier1     configure + build (warnings-as-errors on src/exec +
#             src/serve via BACO_WERROR_EXEC) + the full ctest suite
#   selftest  baco_serve --selftest: distributed-vs-batched Study
#             parity, the async fleet drive, and the multi-client
#             socket leg (2 concurrent unix-socket clients must match
#             2 sequential stdio runs bit-for-bit)
#   bench     bench_async_utilization with --json: tell-as-results-land
#             must beat barrier rounds >= 1.5x on heavy-tailed
#             delays — for the Uniform mean AND the BaCO row with
#             suggest-ahead; bench_suggest_latency:
#             per-method suggest() p50/p99 vs history length with the
#             obs instrumentation pin, plus the >= 5x incremental-vs-
#             scratch p50 gate at the deepest history level;
#             bench_micro_gp: GP substrate micro-costs with the gated
#             append-vs-refactor speedup row;
#             bench_serve_load: the socket stack under multi-client
#             contention (throughput scaling gate) plus the distributed
#             trace leg (2 baco_worker child processes must land on one
#             merged Chrome timeline); then scripts/bench_diff.py gates
#             every BENCH_*.json artifact against the committed
#             bench/baselines/ (regression past a row's tolerance fails;
#             refresh deliberately with bench_diff.py --update-baselines),
#             after the self-test of scripts/quality_gate.py (the exact
#             Wilcoxon p-values, ties, zero differences, Holm's order,
#             the underpowered verdict and the exit codes of the
#             seed-paired quality gate);
#             finally compiles, without running, the end-to-end benchmark
#             (perfbench/ and the baco_worker it spawns) in its own
#             build directory, so a library change that breaks it fails
#             here
#   tidy      clang build with -Wthread-safety promoted to errors
#             (BACO_THREAD_SAFETY=ON, which also runs the negative-
#             compile checks in tests/test_static_analysis.cmake at
#             configure time), then clang-tidy over src/ with the
#             curated .clang-tidy check set; self-skips when clang is
#             not installed (the analysis does not exist in GCC)
#   tsan      ThreadSanitizer build (BACO_SANITIZE=thread), full ctest
#             suite
#   asan      AddressSanitizer build (BACO_SANITIZE=address), full
#             ctest suite
#   ubsan     UndefinedBehaviorSanitizer build (BACO_SANITIZE=undefined,
#             -fno-sanitize-recover), full ctest suite
#   soak      the nightly tier (NOT part of `all` — CI runs it on a
#             schedule, not per PR): TSAN build when available, the
#             stress+integration ctest suites at their long timeouts,
#             then an extended bench_serve_load soak (8x the PR reps,
#             concurrent fleet runs included) whose serve_ok flag must
#             hold after the long haul
#
# Usage: check.sh [--stage tier1|selftest|bench|tidy|tsan|asan|ubsan|soak|all]...
#        (repeatable; default: all — with a pass/fail summary table)
#
# Environment: BACO_BUILD_TYPE (default Release), BACO_BUILD_DIR
# (default build), CXX/CC for the compiler, ccache auto-detected.
set -euo pipefail

# Resolve before cd: the driver re-invokes this script per stage, and a
# relative $0 would dangle once we chdir to the repo root.
SELF="$(cd "$(dirname "$0")" && pwd)/$(basename "$0")"
cd "$(dirname "$0")/.."

BUILD_TYPE="${BACO_BUILD_TYPE:-Release}"
BUILD_DIR="${BACO_BUILD_DIR:-build}"

CMAKE_EXTRA=()
if command -v ccache >/dev/null 2>&1; then
    CMAKE_EXTRA+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

usage() {
    echo "usage: $0 [--stage tier1|selftest|bench|tidy|tsan|asan|ubsan|soak|all]..." >&2
    exit 2
}

# ---- Stage bodies (each runs under the top-level set -e). -----------------

build_main() {
    cmake -B "$BUILD_DIR" -S . -DBACO_WERROR_EXEC=ON \
          -DCMAKE_BUILD_TYPE="$BUILD_TYPE" "${CMAKE_EXTRA[@]}"
    cmake --build "$BUILD_DIR" -j
}

stage_tier1() {
    build_main
    (cd "$BUILD_DIR" && ctest --output-on-failure -j)
}

stage_selftest() {
    build_main
    "./$BUILD_DIR/baco_serve" --selftest
}

stage_bench() {
    build_main
    "./$BUILD_DIR/bench_async_utilization" --reps 2 \
        --json "$BUILD_DIR/BENCH_async_utilization.json"
    # Re-check the artifact itself: the trajectory CI uploads must agree
    # with the exit code, so a bench that stops writing it fails here.
    grep -q '"speedup_ok": true' "$BUILD_DIR/BENCH_async_utilization.json"
    grep -q '"baco_speedup_ok": true' "$BUILD_DIR/BENCH_async_utilization.json"
    grep -q '"quality_ok": true' "$BUILD_DIR/BENCH_async_utilization.json"
    "./$BUILD_DIR/bench_suggest_latency" \
        --json "$BUILD_DIR/BENCH_suggest_latency.json" \
        --trace "$BUILD_DIR/trace_suggest_latency.json"
    grep -q '"obs_ok": true' "$BUILD_DIR/BENCH_suggest_latency.json"
    grep -q '"incremental_ok": true' "$BUILD_DIR/BENCH_suggest_latency.json"
    "./$BUILD_DIR/bench_micro_gp" --reps 3 \
        --json "$BUILD_DIR/BENCH_micro_gp.json"
    "./$BUILD_DIR/bench_serve_load" --reps 2 \
        --json "$BUILD_DIR/BENCH_serve_load.json" \
        --trace "$BUILD_DIR/trace_serve_distributed.json" \
        --worker-bin "./$BUILD_DIR/baco_worker"
    grep -q '"serve_ok": true' "$BUILD_DIR/BENCH_serve_load.json"
    grep -q '"trace_ok": true' "$BUILD_DIR/BENCH_serve_load.json"
    # The quality gate's statistics first, so a failing ratchet below
    # cannot hide them. Ratchet: gated rows must not regress >tolerance vs
    # the committed baselines (dimensionless ratios only, so the gate is
    # portable).
    if command -v python3 >/dev/null 2>&1; then
        python3 scripts/quality_gate.py --self-test
        python3 scripts/bench_diff.py \
            "$BUILD_DIR/BENCH_async_utilization.json" \
            "$BUILD_DIR/BENCH_suggest_latency.json" \
            "$BUILD_DIR/BENCH_serve_load.json" \
            "$BUILD_DIR/BENCH_micro_gp.json"
    else
        echo "check.sh: python3 unavailable; skipping bench_diff gate" \
             "and the quality_gate self-test"
    fi
    # Compile only: perfbench/run.py runs it, and nothing else builds it.
    cmake -B "$BUILD_DIR-perfbench" -S perfbench \
          -DCMAKE_BUILD_TYPE=Release "${CMAKE_EXTRA[@]}"
    cmake --build "$BUILD_DIR-perfbench" -j --target perfbench baco_worker
}

find_clang() {
    # Newest first; the bare name (a distro default or a PATH symlink)
    # wins over versioned fallbacks.
    local base="$1" ver
    if command -v "$base" >/dev/null 2>&1; then
        echo "$base"
        return 0
    fi
    for ver in 20 19 18 17 16 15 14; do
        if command -v "$base-$ver" >/dev/null 2>&1; then
            echo "$base-$ver"
            return 0
        fi
    done
    return 1
}

stage_tidy() {
    # Clang-only stage: GCC has neither -Wthread-safety nor clang-tidy.
    # Self-skips (like the sanitizer probes below) so GCC-only boxes
    # still pass --stage all; CI installs clang so the analysis gates
    # every merge.
    local clangxx
    if ! clangxx="$(find_clang clang++)"; then
        echo "check.sh: clang++ unavailable; skipping tidy stage" \
             "(thread-safety analysis and clang-tidy require clang)"
        return 0
    fi
    # BACO_THREAD_SAFETY promotes the capability analysis to errors and
    # the configure step runs tests/test_static_analysis.cmake — the
    # negative-compile proof that the annotations still reject unguarded
    # access. Fresh build dir per compiler: mixing GCC/clang caches in
    # one tree poisons both.
    cmake -B build-tidy -S . \
          -DCMAKE_CXX_COMPILER="$clangxx" \
          -DBACO_THREAD_SAFETY=ON -DBACO_WERROR_EXEC=ON \
          -DCMAKE_BUILD_TYPE="$BUILD_TYPE" "${CMAKE_EXTRA[@]}"
    cmake --build build-tidy -j
    scripts/run_clang_tidy.sh build-tidy
}

sanitizer_available() {
    local flag="$1"
    if echo 'int main(){return 0;}' | "${CXX:-c++}" "-fsanitize=$flag" \
           -x c++ - -o /tmp/baco_san_probe 2>/dev/null; then
        rm -f /tmp/baco_san_probe
        return 0
    fi
    return 1
}

# One sanitizer leg: dedicated build dir, full build, full ctest suite.
# Hand-picked target lists used to slice these legs down; the full suite
# is the point now — every test already carries a TIMEOUT label
# (300/600/900s by unit/integration/stress), so a wedged interleaving
# fails fast instead of stalling the job.
run_sanitizer_suite() {
    local name="$1" value="$2"
    cmake -B "build-$name" -S . -DBACO_SANITIZE="$value" \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo "${CMAKE_EXTRA[@]}"
    cmake --build "build-$name" -j
    (cd "build-$name" && ctest --output-on-failure -j 2)
}

stage_tsan() {
    if ! sanitizer_available thread; then
        echo "check.sh: thread sanitizer unavailable; skipping TSAN stage"
        return 0
    fi
    run_sanitizer_suite tsan thread
}

stage_asan() {
    if ! sanitizer_available address; then
        echo "check.sh: address sanitizer unavailable; skipping ASAN stage"
        return 0
    fi
    run_sanitizer_suite asan address
}

stage_ubsan() {
    if ! sanitizer_available undefined; then
        echo "check.sh: undefined sanitizer unavailable; skipping UBSAN stage"
        return 0
    fi
    run_sanitizer_suite ubsan undefined
}

stage_soak() {
    # The nightly tier: long-running races only surface under sustained
    # load, so soak the serving stack under TSAN (plain RelWithDebInfo
    # when TSAN is unavailable) instead of the PR-sized smoke runs.
    local soak_flags=()
    if sanitizer_available thread; then
        soak_flags+=(-DBACO_SANITIZE=thread)
    else
        echo "check.sh: thread sanitizer unavailable; soaking without TSAN"
    fi
    cmake -B build-soak -S . "${soak_flags[@]}" \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo "${CMAKE_EXTRA[@]}"
    cmake --build build-soak -j
    # The suites already labeled long-running (TIMEOUT 600/900s), run
    # whole — the concurrency/serving surface lives in these.
    (cd build-soak && ctest --output-on-failure -j 2 -L 'stress|integration')
    # Extended serve_load soak: 8x the PR-gate reps, which multiplies
    # every phase's budget — including the overlapping fleet runs — and
    # keeps the acceptor/coordinator under load long enough for slow
    # leaks and rare interleavings to show. The artifact's own ok flag
    # is the verdict; no baseline gate (soak boxes vary too much).
    "./build-soak/bench_serve_load" --reps 8 \
        --json build-soak/BENCH_serve_load_soak.json
    grep -q '"serve_ok": true' build-soak/BENCH_serve_load_soak.json
}

# ---- Driver. --------------------------------------------------------------
# Each stage runs as a child `check.sh --run-one <stage>` process: that
# keeps `set -e` live inside stage bodies (an `if stage_x; ...` in this
# shell would suspend it) while the parent collects per-stage verdicts
# for the summary table.

if [[ "${1:-}" == "--run-one" ]]; then
    [[ $# -eq 2 ]] || usage
    case "$2" in
      tier1|selftest|bench|tidy|tsan|asan|ubsan|soak) "stage_$2" ;;
      *) usage ;;
    esac
    exit 0
fi

STAGES=()
while [[ $# -gt 0 ]]; do
    case "$1" in
      --stage)
        shift
        [[ $# -gt 0 ]] || usage
        STAGES+=("$1")
        ;;
      -h|--help) usage ;;
      *) usage ;;
    esac
    shift
done
[[ ${#STAGES[@]} -gt 0 ]] || STAGES=(all)

EXPANDED=()
for stage in "${STAGES[@]}"; do
    case "$stage" in
      # soak is deliberately not in `all`: it is the nightly tier.
      all) EXPANDED+=(tier1 selftest bench tidy tsan asan ubsan) ;;
      tier1|selftest|bench|tidy|tsan|asan|ubsan|soak) EXPANDED+=("$stage") ;;
      *) usage ;;
    esac
done

declare -A VERDICT
FAILED=0
for stage in "${EXPANDED[@]}"; do
    echo
    echo "==== check.sh stage: $stage ===="
    if "$SELF" --run-one "$stage"; then
        VERDICT[$stage]=PASS
    else
        VERDICT[$stage]=FAIL
        FAILED=1
    fi
done

echo
echo "==== check.sh summary ===="
printf '%-10s %s\n' "stage" "result"
printf '%-10s %s\n' "-----" "------"
for stage in "${EXPANDED[@]}"; do
    printf '%-10s %s\n' "$stage" "${VERDICT[$stage]}"
done
exit "$FAILED"
