#!/usr/bin/env bash
# A/B of this tree against a parent commit with `revbifpn-perf`, the way the
# published sets under results/perf_pr*/ were made.
#
#   ./perf_ab.sh <parent-rev> <scratch-dir> <out-dir> <traced-workload> [first-seed] [pairs] [workload...]
#
# The parent side is a fresh checkout of <parent-rev> (a clone with no
# target/ in it); the change side is this working tree. Each side builds
# into its OWN fresh CARGO_TARGET_DIR under <scratch-dir>. Do not substitute
# a `cp -r` of a tree that has a warm target/: cargo fingerprints by mtime,
# calls the copied rlibs fresh, and links the other side's kernels into
# "this" side's binary — and the result stamp's git_rev cannot tell.
#
# One process per workload and seed, `--seconds 10 --trace 0` as the driver
# runs them, each binary from its own checkout; odd seeds run the parent
# first, even seeds the change. The per-run files stay under
# <scratch-dir>/runs/{parent,change}/s<seed>/, where `compare` reads them;
# <out-dir> receives compare_parent_change.txt, parent.jsonl and change.jsonl
# (one result object per line, seed then workload; EXPERIMENTS.md
# "Performance" has the loop that unpacks them again), traced/, one traced
# run of <traced-workload> per side, and sides.txt, the two revisions
# measured. A result's own git_rev stamp cannot tell an uncommitted change
# from its parent, so sides.txt names the change side as HEAD plus, when the
# tracked tree differs from it, "-dirty" and a hash of `git diff HEAD`.
set -euo pipefail

PARENT_REV=$1
SCRATCH=$(mkdir -p "$2" && cd "$2" && pwd)
OUT=$(mkdir -p "$3" && cd "$3" && pwd)
TRACED=$4
FIRST=${5:-1}
PAIRS=${6:-10}
shift $(( $# < 6 ? $# : 6 ))
WORKLOADS=("$@")
[ ${#WORKLOADS[@]} -gt 0 ] || WORKLOADS=(infer_f32_b1 infer_int8_b1 train_rev_serial train_rev_shard2 serve_steady)
REPO=$(cd "$(dirname "$0")" && pwd)
RUNS="$SCRATCH/runs"
rm -rf "$RUNS"

if [ ! -d "$SCRATCH/parent" ]; then
    git clone --quiet --no-hardlinks "$REPO" "$SCRATCH/parent"
    git -C "$SCRATCH/parent" checkout --quiet --detach "$PARENT_REV"
fi
CHANGE_REV=$(git -C "$REPO" rev-parse HEAD)
if ! git -C "$REPO" diff HEAD --quiet; then
    CHANGE_REV="$CHANGE_REV-dirty diff:$(git -C "$REPO" diff HEAD | sha256sum | cut -c1-16)"
fi
printf 'parent %s\nchange %s\n' "$(git -C "$SCRATCH/parent" rev-parse HEAD)" "$CHANGE_REV" > "$OUT/sides.txt"
(cd "$SCRATCH/parent" && CARGO_TARGET_DIR="$SCRATCH/parent-target" cargo build --release --quiet -p revbifpn-perf)
(cd "$REPO" && CARGO_TARGET_DIR="$SCRATCH/change-target" cargo build --release --quiet -p revbifpn-perf)

# run <side> <checkout> <seed> <workload> <trace> <dir>
run() {
    mkdir -p "$6"
    (cd "$2" && "$SCRATCH/$1-target/release/revbifpn-perf" run --workload "$4" --seed "$3" \
        --seconds 10 --trace "$5" --out "$6") > /dev/null
}

for seed in $(seq "$FIRST" $((FIRST + PAIRS - 1))); do
    for w in "${WORKLOADS[@]}"; do
        if [ $((seed % 2)) -eq 1 ]; then
            run parent "$SCRATCH/parent" "$seed" "$w" 0 "$RUNS/parent/s$seed"
            run change "$REPO" "$seed" "$w" 0 "$RUNS/change/s$seed"
        else
            run change "$REPO" "$seed" "$w" 0 "$RUNS/change/s$seed"
            run parent "$SCRATCH/parent" "$seed" "$w" 0 "$RUNS/parent/s$seed"
        fi
        echo "seed $seed $w done"
    done
done

"$SCRATCH/change-target/release/revbifpn-perf" compare "$RUNS/parent" "$RUNS/change" \
    | tee "$OUT/compare_parent_change.txt" || true
for side in parent change; do
    for seed in $(seq "$FIRST" $((FIRST + PAIRS - 1))); do
        for w in "${WORKLOADS[@]}"; do
            jq -c . "$RUNS/$side/s$seed/$w.json"
        done
    done > "$OUT/$side.jsonl"
done

run parent "$SCRATCH/parent" "$FIRST" "$TRACED" 1 "$OUT/traced/parent"
run change "$REPO" "$FIRST" "$TRACED" 1 "$OUT/traced/change"
