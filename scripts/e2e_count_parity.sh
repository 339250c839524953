#!/usr/bin/env bash
# Checks that the working tree's end-to-end benchmark reports the same
# per-layer counts as revision <rev>. It runs the quick traced pass of
# both at each seed and diffs every per-layer value except timings.
# Timings are the metrics in `us` plus write_wall_frac,
# span_coverage_frac and trace_overhead_frac, which leaves 19 values per
# workload. Exits 1 on any difference at any seed.
#
# Usage: scripts/e2e_count_parity.sh <rev> [seed...]   (default seed 42)
#
# A change meant to keep every answer and count (a faster write path, a
# refactor) should pass against its parent. A change may also alter
# counts on purpose, so this is a tool, not a CI gate.
#
# <rev> is exported with `git archive` into a temporary directory and
# built there once, with its own CARGO_TARGET_DIR. The working tree is
# built once into the e2e package's own target directory, as
# scripts/check_e2e_trace.sh does. Each traced pass runs in its own
# temporary directory, and everything is removed afterwards.
set -euo pipefail
shopt -s inherit_errexit

if [ $# -lt 1 ]; then
    echo "usage: $0 <rev> [seed...]" >&2
    exit 2
fi
rev="$1"
shift
seeds=("$@")
if [ ${#seeds[@]} -eq 0 ]; then
    seeds=(42)
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

mkdir "$work/tree"
git -C "$root" archive "$rev" | tar -x -C "$work/tree"

# Builds the e2e binary of the checkout at $1 and prints its path.
build() {
    local manifest="$1/crates/bench/src/bin/e2e/Cargo.toml"
    cargo build --release --offline --quiet --manifest-path "$manifest" >&2
    local target
    target="$(cd "${CARGO_TARGET_DIR:-$1/crates/bench/src/bin/e2e/target}" && pwd)"
    echo "$target/release/e2e"
}

# Runs the quick traced pass of binary $1 at seed $2 in a fresh
# directory $3 and prints its per-layer `workload metric value unit`
# lines, minus timings, sorted. A workload's lines follow its
# `<workload> # why:` line.
counts() {
    mkdir "$3"
    (cd "$3" && "$1" --seed "$2" --quick --trace 1 >out.txt)
    awk '$2 == "#" && $3 == "why:" { workload[$1] = 1; next }
         ($1 in workload) && NF == 4 && $2 != "#" && $4 != "us" &&
         $2 !~ /^(write_wall_frac|span_coverage_frac|trace_overhead_frac)$/' \
        "$3/out.txt" | sort
}

before_bin="$(export CARGO_TARGET_DIR="$work/target"; build "$work/tree")"
after_bin="$(build "$root")"
status=0
for seed in "${seeds[@]}"; do
    before="$(counts "$before_bin" "$seed" "$work/before-$seed")"
    after="$(counts "$after_bin" "$seed" "$work/after-$seed")"
    if [ -z "$before" ] || [ -z "$after" ]; then
        echo "e2e_count_parity: a traced pass reported no per-layer values (seed $seed)" >&2
        exit 1
    fi
    if diff <(echo "$before") <(echo "$after"); then
        echo "e2e_count_parity: $(echo "$after" | wc -l) per-layer values identical to $rev (seed $seed)"
    else
        echo "e2e_count_parity: per-layer counts differ from $rev (seed $seed)" >&2
        status=1
    fi
done
exit "$status"
