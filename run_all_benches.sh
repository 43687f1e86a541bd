#!/bin/bash
# Regenerates every table and figure of the paper; outputs under results/,
# each binary's stderr under target/run_all_benches/.
set -u
cd "$(dirname "$0")"
ERR=target/run_all_benches
mkdir -p "$ERR"
BINS="table6_scaling table1_imagenet table2_train_memory fig1_macs_vs_memory fig4_memory_vs_depth fig10_macs_vs_params fig12_memory_vs_resolution fig14_train_equivalence table3_ablation_sampling table4_ablation_stem table5_ablation_se table9_detection table10_segmentation extra_checkpoint_compare extra_ablation_design"
for b in $BINS; do
  echo "== running $b"
  cargo run --release -q -p revbifpn-bench --bin "$b" > "results/$b.md" 2>"$ERR/$b.err" || echo "FAILED: $b (see $ERR/$b.err)"
done
cargo run --release -q -p revbifpn-bench --bin fig8_revshnet_memory > results/fig8_revshnet_memory.md 2>/dev/null
cargo run --release -q -p revbifpn-bench --bin fig8_revshnet_memory -- --res 288 > results/fig9_revshnet_memory_288.md 2>/dev/null
echo "all done"
