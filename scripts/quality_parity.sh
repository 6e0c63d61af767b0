#!/usr/bin/env bash
# Quality parity: does the working tree tune as well as BASE_REF?
#
# Builds bench_fig5_tables678_budgets twice — at BASE_REF, exported with
# git archive (scripts/parity_trees.sh), and at the working tree — runs
# each at 30 seeds (--reps 30 --seed 1, the paper's count) on every
# benchmark of the three frameworks with --json, and hands both files to
# scripts/quality_gate.py: a seed-paired one-sided Wilcoxon test per
# (benchmark, method, budget tier), Holm-corrected. Each tree runs its own
# harness, so BASE_REF must already have fig5's --json and --threads.
#
# Usage: scripts/quality_parity.sh BASE_REF [TREES_DIR]
#
# TREES_DIR reuses the export and the builds of an earlier
# scripts/history_parity.sh with the same arguments, and keeps them (see
# scripts/parity_trees.sh); without it they go to a temporary directory.
#
# Prints the gate's report on stdout and the build logs on stderr. Exit
# status is the gate's: 0 pass, 1 a cell is significantly worse, 2
# mismatched inputs (also usage and build errors), 3 underpowered.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 BASE_REF [TREES_DIR]" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
ROOT="$(pwd)"
. scripts/parity_trees.sh
parity_trees "$@"

# run_fig5 SOURCE_DIR BUILD_DIR JSON
run_fig5() {
    parity_build "$1" "$2" bench_fig5_tables678_budgets
    "$2/bench_fig5_tables678_budgets" --reps 30 --seed 1 \
        --threads "$(nproc)" --json "$3" > /dev/null || exit 2
}

run_fig5 "$BASE" "$TREES/base-build" "$TREES/base.json"
run_fig5 "$ROOT" "$TREES/head-build" "$TREES/head.json"

python3 scripts/quality_gate.py "$TREES/base.json" "$TREES/head.json" || exit $?
