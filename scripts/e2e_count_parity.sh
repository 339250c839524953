#!/usr/bin/env bash
# Checks that the working tree's end-to-end benchmark reports the same
# per-layer counts as revision <rev>. It runs the quick traced pass of
# both and diffs every per-layer value except timings. Timings are the
# metrics in `us` plus write_wall_frac, span_coverage_frac and
# trace_overhead_frac, which leaves 19 values per workload. Exits 1 on
# any difference.
#
# Usage: scripts/e2e_count_parity.sh <rev> [seed]   (default seed 42)
#
# A change meant to keep every answer and count (a faster write path, a
# refactor) should pass against its parent. A change may also alter
# counts on purpose, so this is a tool, not a CI gate.
#
# <rev> is checked out into a temporary git worktree and built there with
# its own CARGO_TARGET_DIR. The working tree builds into the e2e
# package's own target directory, as scripts/check_e2e_trace.sh does.
# Both traced passes run in temporary directories, and the worktree and
# directories are removed afterwards.
set -euo pipefail
shopt -s inherit_errexit

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 <rev> [seed]" >&2
    exit 2
fi
rev="$1"
seed="${2:-42}"
root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
cleanup() {
    git -C "$root" worktree remove --force "$work/tree" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

git -C "$root" worktree add --quiet --detach "$work/tree" "$rev"

# Runs the quick traced pass of the checkout at $1 in a fresh directory
# $2 and prints its per-layer `workload metric value unit` lines, minus
# timings, sorted. A workload's lines follow its `<workload> # why:` line.
counts() {
    mkdir "$2"
    (cd "$2" && cargo run --release --offline --quiet \
        --manifest-path "$1/crates/bench/src/bin/e2e/Cargo.toml" -- \
        --seed "$seed" --quick --trace 1 >out.txt)
    awk '$2 == "#" && $3 == "why:" { workload[$1] = 1; next }
         ($1 in workload) && NF == 4 && $2 != "#" && $4 != "us" &&
         $2 !~ /^(write_wall_frac|span_coverage_frac|trace_overhead_frac)$/' \
        "$2/out.txt" | sort
}

before="$(export CARGO_TARGET_DIR="$work/target"; counts "$work/tree" "$work/before")"
after="$(counts "$root" "$work/after")"
if [ -z "$before" ] || [ -z "$after" ]; then
    echo "e2e_count_parity: a traced pass reported no per-layer values" >&2
    exit 1
fi
if ! diff <(echo "$before") <(echo "$after"); then
    echo "e2e_count_parity: per-layer counts differ from $rev (seed $seed)" >&2
    exit 1
fi
echo "e2e_count_parity: $(echo "$after" | wc -l) per-layer values identical to $rev (seed $seed)"
