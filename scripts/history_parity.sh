#!/usr/bin/env bash
# History parity: does the working tree make every built-in search method
# suggest exactly what BASE_REF did?
#
# Builds tools/baco_history_digest twice — at BASE_REF, exported with
# git archive into a temporary directory, and at the working tree — runs
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
# Both builds use the working tree's digest source, so BASE_REF needs only
# the public API the tool uses, not the tool itself.
#
# Usage: scripts/history_parity.sh BASE_REF
#
# Prints one verdict line on stdout — "identical (N observations)" or
# "differs at <method> <benchmark> seed=<s>[,<policy>] #<index>" — and the
# build logs on stderr. Exit status: 0 identical, 1 different, 2 usage or
# build error.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 BASE_REF" >&2
    exit 2
fi
BASE_REF="$1"
cd "$(dirname "$0")/.."
ROOT="$(pwd)"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

CMAKE_EXTRA=()
if command -v ccache >/dev/null 2>&1; then
    CMAKE_EXTRA+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

# build_digest SOURCE_DIR BUILD_DIR OUTPUT; any failure exits 2, so that
# 1 always means "differs".
build_digest() {
    cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release -DBUILD_TESTING=OFF \
          "${CMAKE_EXTRA[@]}" >&2 || exit 2
    cmake --build "$2" --target baco_history_digest -j "$(nproc)" >&2 ||
        exit 2
    "$2/baco_history_digest" > "$3" || exit 2
    if [ ! -s "$3" ]; then
        echo "history_parity: $2/baco_history_digest printed nothing" >&2
        exit 2
    fi
}

mkdir "$TMP/base"
if ! git archive --format=tar "$BASE_REF" | tar -x -C "$TMP/base"; then
    echo "history_parity: cannot export $BASE_REF" >&2
    exit 2
fi
cp tools/baco_history_digest.cpp "$TMP/base/tools/" || exit 2
build_digest "$TMP/base" "$TMP/base-build" "$TMP/base.txt"
build_digest "$ROOT" "$TMP/head-build" "$TMP/head.txt"

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
' "$TMP/base.txt" "$TMP/head.txt"
