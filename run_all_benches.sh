#!/bin/bash
# Regenerates every table and figure of the paper: the analytic ones listed
# in regen_analytic.sh, then the ones that train. Outputs under results/,
# each binary's stderr under target/run_all_benches/; exits non-zero if any
# binary failed.
set -u
cd "$(dirname "$0")"
source ./regen_analytic.sh
TRAINED=(
  "fig14_train_equivalence"
  "table3_ablation_sampling"
  "table4_ablation_stem"
  "table5_ablation_se"
  "table9_detection"
  "table10_segmentation"
  "extra_ablation_design"
)
status=0
for spec in "${ANALYTIC[@]}" "${TRAINED[@]}"; do
  run_bench $spec || status=1
done
[ $status -eq 0 ] && echo "all done"
exit $status
