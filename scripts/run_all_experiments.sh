#!/usr/bin/env bash
# Regenerates every table and figure of the paper plus the ablations.
# Usage: scripts/run_all_experiments.sh [extra flags passed to every binary]
# Fast smoke run: scripts/run_all_experiments.sh --n 10000 --trials 2 --samples 5000
set -euo pipefail
cd "$(dirname "$0")/.."

FLAGS=("$@")
# The obs guard rewrites its JSON artifact on every run. Write it under
# target/ so a reduced-scale run never overwrites the committed
# BENCH_obs.json (a caller's own --out comes later on the command line
# and wins).
OUT_DIR=target/experiments
mkdir -p "$OUT_DIR"
for bin in fig17 fig13_16 table2 table3 sensitivity scaling dims table1 ablation obs; do
    echo "==================================================================="
    echo "### $bin"
    echo "==================================================================="
    OUT=()
    case "$bin" in
        obs) OUT=(--out "$OUT_DIR/BENCH_$bin.json") ;;
    esac
    cargo run -p gprq-bench --release --bin "$bin" -- ${OUT[@]+"${OUT[@]}"} ${FLAGS[@]+"${FLAGS[@]}"}
    echo
done
