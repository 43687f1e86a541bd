#!/bin/bash
# Regenerates the paper tables and figures computed from the analytic model
# alone (MACs, cache bytes, transient bytes; nothing is trained): outputs
# under results/, each binary's stderr under target/run_all_benches/. Exits
# non-zero if a binary fails. ci.sh runs it before checking that results/
# is as committed, so a moved byte in the analytic model fails CI;
# run_all_benches.sh sources it for the list and the runner.

# One entry per table: "<output name> [<bin> <args>...]", the bin defaulting
# to the output name.
ANALYTIC=(
  "table6_scaling"
  "table1_imagenet"
  "table2_train_memory"
  "fig1_macs_vs_memory"
  "fig4_memory_vs_depth"
  "fig8_revshnet_memory"
  "fig9_revshnet_memory_288 fig8_revshnet_memory --res 288"
  "fig10_macs_vs_params"
  "fig12_memory_vs_resolution"
  "extra_checkpoint_compare"
)

# run_bench <output name> [<bin> <args>...]: writes results/<output name>.md.
run_bench() {
  local out=$1
  shift
  local bin=${1:-$out}
  shift $(($# > 0))
  echo "== running $bin${*:+ $*} > results/$out.md"
  mkdir -p target/run_all_benches
  cargo run --release -q -p revbifpn-bench --bin "$bin" -- "$@" \
    > "results/$out.md" 2> "target/run_all_benches/$out.err" \
    || { echo "FAILED: $out (see target/run_all_benches/$out.err)" >&2; return 1; }
}

if [ "${BASH_SOURCE[0]}" = "$0" ]; then
  set -u
  cd "$(dirname "$0")"
  status=0
  for spec in "${ANALYTIC[@]}"; do
    run_bench $spec || status=1
  done
  exit $status
fi
