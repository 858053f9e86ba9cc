#!/usr/bin/env bash
# Run every workload once with the same arguments, from the repository root:
#
#   bash perfbench/all.sh --seed 1 --seconds 45 --trace 0
#
# Prints each workload's report; exits non-zero if any run fails.
set -euo pipefail
for w in mm16_burst mixed_open trace8_stream; do
  bash perfbench/run.sh --workload "$w" "$@"
done
