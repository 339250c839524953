#!/usr/bin/env bash
# Runs the end-to-end benchmark's quick traced pass and fails unless every
# workload
#   * reports "correct": true (answers match the checks and oracles),
#   * reads metrics_counter_mismatches 0 (the pipeline's metrics registry
#     agrees with the counts the bench made itself), and
#   * reads cloud_build_unused_frac 0 (no query drew a sample cloud it
#     never integrated against).
#
# Usage: scripts/check_e2e_trace.sh [seed]   (default seed 42)
#
# The traced pass writes target/e2e/ under its working directory, so the
# run happens in a temporary directory that is removed afterwards.
set -euo pipefail

seed="${1:-42}"
root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

cd "$work"
cargo run --release --offline --quiet \
    --manifest-path "$root/crates/bench/src/bin/e2e/Cargo.toml" -- \
    --seed "$seed" --quick --trace 1 | tee out.txt

results="target/e2e/trace-seed${seed}.json"
workloads=$(sed -n 's/^\([a-z0-9_]*\) # why:.*/\1/p' out.txt)
if [ -z "$workloads" ] || [ ! -f "$results" ]; then
    echo "check_e2e_trace: no workload results found" >&2
    exit 1
fi

status=0
for w in $workloads; do
    if ! grep -q "\"$w\": {\"correct\": true" "$results"; then
        echo "check_e2e_trace: $w is not correct" >&2
        status=1
    fi
    for metric in metrics_counter_mismatches cloud_build_unused_frac; do
        if ! grep -Eq "^$w $metric 0 [a-z]+$" out.txt; then
            echo "check_e2e_trace: $w $metric is not 0" >&2
            status=1
        fi
    done
done
if [ "$status" -eq 0 ]; then
    echo "check_e2e_trace: every workload correct, counters consistent, no unused clouds"
fi
exit "$status"
