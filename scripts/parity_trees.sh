# Shared by scripts/history_parity.sh and scripts/quality_parity.sh, which
# source it: the BASE_REF export and the Release builds both comparisons
# need.
#
#   parity_trees BASE_REF [TREES_DIR]
#       Exports BASE_REF with git archive and sets
#         TREES  the directory holding the export and both build trees,
#         BASE   the exported source tree ($TREES/base).
#       Without TREES_DIR, TREES is a fresh mktemp -d directory removed on
#       exit. With it (a relative path is taken from the repository root),
#       everything stays there: a later call with the same BASE_REF keeps
#       the export and the build trees $TREES/base-build and
#       $TREES/head-build, so a second comparison compiles only its own
#       target.
#
#   parity_build SOURCE_DIR BUILD_DIR TARGET
#       Configures SOURCE_DIR into BUILD_DIR (Release, no tests, ccache
#       when installed) and builds TARGET; build logs go to stderr.
#
# Every failure exits 2, so that 1 stays each script's "differs"/"worse".

parity_trees() {
    local commit
    if ! commit="$(git rev-parse --verify --quiet "$1^{commit}")"; then
        echo "$(basename "$0"): cannot resolve $1" >&2
        exit 2
    fi
    if [ -n "${2:-}" ]; then
        TREES="$2"
        mkdir -p "$TREES" || exit 2
    else
        TREES="$(mktemp -d)"
        trap 'rm -rf "$TREES"' EXIT
    fi
    BASE="$TREES/base"
    if [ "$(cat "$TREES/base.commit" 2>/dev/null)" != "$commit" ]; then
        rm -rf "$BASE" "$TREES/base-build" "$TREES/base.commit"
        mkdir "$BASE"
        if ! git archive --format=tar "$commit" | tar -x -C "$BASE"; then
            echo "$(basename "$0"): cannot export $1" >&2
            exit 2
        fi
        echo "$commit" > "$TREES/base.commit"
    fi
}

parity_build() {
    local extra=()
    if command -v ccache >/dev/null 2>&1; then
        extra+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
    fi
    cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release -DBUILD_TESTING=OFF \
          "${extra[@]}" >&2 || exit 2
    cmake --build "$2" --target "$3" -j "$(nproc)" >&2 || exit 2
}
