#!/usr/bin/env bash
# Quick gate for the benchmark itself: every workload for 2 s with its
# output checks on (results go under target/perf-smoke/, never results/),
# then the harness self-tests. Under a minute on the 2-cpu host once built.
# Run from anywhere; a later PR wires this into ci.sh.
set -euo pipefail
cd "$(dirname "$0")/../.."
cargo run --release --quiet -p revbifpn-perf -- run --workload all --seed 1 --smoke
cargo test --quiet -p revbifpn-perf
