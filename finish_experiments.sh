#!/bin/bash
# Final experiment pass. Full grids for the budget-accounting check
# (read from d4's store once it is measured); the extension/ablation
# experiments run at whatever scale the remaining session budget allows
# (MPCP_FAST=1 for smoke scale — rerun without it for full grids).
set -u
cd "$(dirname "$0")"
BIN=target/release
run() {
  local name=$1; shift
  echo "=== $name ==="
  "$@" > results/$name.txt 2> results/$name.log
  echo "rc=$?"
}
run training_time env MPCP_DATASETS=${TT_DATASETS:-d4} $BIN/training_time
run extended_collectives env ${EXT_FAST:+MPCP_FAST=1} $BIN/extended_collectives
run ablation env ${EXT_FAST:+MPCP_FAST=1} $BIN/ablation
echo FINISH_DONE
