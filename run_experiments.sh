#!/bin/bash
# Regenerate every table and figure of the paper (full grids).
# Each dataset is measured once into a campaign store under
# results/store/ and reused by later runs while its header matches.
set -u
cd "$(dirname "$0")"
total_start=$SECONDS
BIN=target/release
mkdir -p results
for exp in table1 table2 table3 fig2 fig4 fig7 fig8 fig5 fig6 table4 training_time extended_collectives ablation; do
  echo "=== $exp ==="
  start=$SECONDS
  $BIN/$exp > results/$exp.txt 2> results/$exp.log
  rc=$?
  echo "[$exp took $((SECONDS-start))s]"
  tail -3 results/$exp.log
  [ $rc -ne 0 ] && echo "!!! $exp FAILED rc=$rc"
done
echo "[all experiments took $((SECONDS-total_start))s]"
echo ALL_EXPERIMENTS_DONE
