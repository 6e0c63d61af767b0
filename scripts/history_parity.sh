#!/usr/bin/env bash
# History parity: does the working tree make every built-in search method
# suggest exactly what BASE_REF did?
#
# Builds tools/baco_history_digest twice — at BASE_REF, exported with
# git archive (scripts/parity_trees.sh), and at the working tree — runs
# both and compares the outputs: every observation of each built-in
# method (BaCO, BaCO--, the OpenTuner-like and Ytopt-like baselines, the
# two samplers) on every registry benchmark at full budget — serially at
# 2 seeds, and at seed 1 in Batched(4) and Distributed(2, 4) barrier
# rounds and over a serve session in rounds of 4 that a fresh
# SessionManager resumes from its checkpoint at half budget — values as
# hexfloats. A change that claims to leave the search untouched (a
# performance change) must report "identical"; algorithmic changes
# legitimately differ, so the verdict is information, not a gate.
#
# Both builds use the working tree's digest source (and its header-only
# ScopedTempDir when BASE_REF predates it), so BASE_REF needs only the
# public API the tool uses, not the tool itself.
#
# Usage: scripts/history_parity.sh BASE_REF [TREES_DIR]
#
# TREES_DIR keeps the export and the builds for a later
# scripts/quality_parity.sh with the same arguments (see
# scripts/parity_trees.sh); without it they go to a temporary directory.
#
# Prints one verdict line on stdout — "identical (N observations)" or
# "differs at <method> <benchmark> seed=<s>[,<policy>] #<index>" — and the
# build logs on stderr. Exit status: 0 identical, 1 different, 2 usage or
# build error.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 BASE_REF [TREES_DIR]" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
ROOT="$(pwd)"
. scripts/parity_trees.sh
parity_trees "$@"

# run_digest SOURCE_DIR BUILD_DIR OUTPUT
run_digest() {
    parity_build "$1" "$2" baco_history_digest
    "$2/baco_history_digest" > "$3" || exit 2
    if [ ! -s "$3" ]; then
        echo "history_parity: $2/baco_history_digest printed nothing" >&2
        exit 2
    fi
}

cp tools/baco_history_digest.cpp "$BASE/tools/" || exit 2
if [ ! -e "$BASE/src/exec/temp_dir.hpp" ]; then
    cp src/exec/temp_dir.hpp "$BASE/src/exec/" || exit 2
fi
run_digest "$BASE" "$TREES/base-build" "$TREES/base.txt"
run_digest "$ROOT" "$TREES/head-build" "$TREES/head.txt"

# First line where the digests part: its first four fields name the
# method, the benchmark, the seed and the observation index.
awk '
    NR == FNR { base[++nb] = $0; next }
    {
        ++nh
        if (nh > nb || base[nh] != $0) {
            print "differs at " $1 " " $2 " " $3 " " $4
            found = 1
            exit 1
        }
    }
    END {
        if (found)
            exit 1
        if (nh < nb) {
            split(base[nh + 1], f, " ")
            print "differs at " f[1] " " f[2] " " f[3] " " f[4] " (missing here)"
            exit 1
        }
        print "identical (" nh " observations)"
    }
' "$TREES/base.txt" "$TREES/head.txt"
