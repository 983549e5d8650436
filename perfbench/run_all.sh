#!/usr/bin/env bash
# Run every workload untraced and traced, each in a fresh process.
# Usage, from the root of a checkout: bash perfbench/run_all.sh [seed] [seconds]
set -euo pipefail
seed="${1:-1}"
seconds="${2:-45}"
for workload in suites-clean short-ops; do
    for trace in 0 1; do
        python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
