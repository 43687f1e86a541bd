#!/bin/bash
# CI gate: release build, full test suite (default threading), lint wall,
# then the same test suite capped to a single kernel thread via
# REVBIFPN_MAX_THREADS — tests that explicitly call set_max_threads still
# exercise the multi-threaded paths (programmatic overrides win), while
# everything else runs single-threaded, catching accidental dependence on
# worker-pool concurrency — and the kernel and layer crates once more
# oversubscribed (four threads on whatever cores CI got), where pool workers
# lose their cores mid-poll and the fork-join's park fallback does the work,
# under the layers' plane-parallel BatchNorm and activation passes too, and
# under the frozen and training forwards' stream tasks, where a worker that
# loses its core stalls a whole stream rather than one tile (the kernel
# crate's gathered pointwise GEMM and the shard step, bit for bit).
set -eu
cd "$(dirname "$0")"

echo "== cargo build --release"
cargo build --release --workspace

echo "== cargo test (default thread budget)"
cargo test -q --workspace

echo "== real-heap bounds in the profile the benchmark measures (release)"
cargo test -q --release --test heap_claims

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test (REVBIFPN_MAX_THREADS=1)"
REVBIFPN_MAX_THREADS=1 cargo test -q --workspace

echo "== cargo test, kernel, layer and stage crates, the frozen path and the shard step oversubscribed (REVBIFPN_MAX_THREADS=4)"
REVBIFPN_MAX_THREADS=4 cargo test -q -p revbifpn-tensor
REVBIFPN_MAX_THREADS=4 cargo test -q -p revbifpn-nn
REVBIFPN_MAX_THREADS=4 cargo test -q -p revbifpn-rev
REVBIFPN_MAX_THREADS=4 cargo test -q --test freeze_parity
REVBIFPN_MAX_THREADS=4 cargo test -q --test batch_independence
REVBIFPN_MAX_THREADS=4 cargo test -q -p revbifpn-train --test shard_invariance
REVBIFPN_MAX_THREADS=4 cargo test -q -p revbifpn-train --test delayed_digests

echo "== fault-injection suite (resilience layer, end to end)"
cargo test -q --test fault_injection

echo "== serving soak (2x overload + injected faults, bounded memory)"
cargo test -q --test serve_soak
cargo test -q -p revbifpn-serve

echo "== frozen inference fast path (parity + steady-state guarantees)"
cargo test -q --test freeze_parity

echo "== int8 GEMM kernels (qmatmul.rs, no model path), forced-scalar (bitwise vs vector)"
REVBIFPN_INT8_FORCE_SCALAR=1 cargo test -q -p revbifpn-tensor qgemm
REVBIFPN_INT8_FORCE_SCALAR=1 cargo test -q -p revbifpn-tensor quant

echo "== lifecycle chaos soak (seeded faults: reload/rollback/drain, smoke)"
REVBIFPN_CHAOS_ITERS=12 cargo test -q --release --test lifecycle_chaos

echo "== multi-tenant overload soak (quotas, breakers, fair DRR, tenant chaos, smoke)"
REVBIFPN_TENANT_SOAK_MS=1500 cargo test -q --release --test tenant_soak

echo "== batcher soak (same tenant chaos with continuous batching at cap 8, smoke)"
REVBIFPN_TENANT_SOAK_MS=1500 REVBIFPN_TENANT_SOAK_BATCH=8 cargo test -q --release --test tenant_soak

echo "== delayed-gradient schedule parity (within 0.5 pt of serial top-1, release)"
cargo test -q --release -p revbifpn-train --test pipeline_invariance -- --ignored

echo "== benchmark smoke (every workload for 2 s with its output checks on, harness self-tests)"
crates/perf/smoke.sh
bash -n perf_ab.sh

echo "== checkpoint cross-profile round-trip (release writes, debug reads)"
CKPT_TMP="$(mktemp -d)/xprofile.ckpt"
cargo run -q --release --example ckpt_tool -- write "$CKPT_TMP" | tee /tmp/ckpt_write.out
cargo run -q --example ckpt_tool -- read "$CKPT_TMP" | tee /tmp/ckpt_read.out
W="$(grep 'param checksum' /tmp/ckpt_write.out)"
R="$(grep 'param checksum' /tmp/ckpt_read.out)"
rm -rf "$(dirname "$CKPT_TMP")" /tmp/ckpt_write.out /tmp/ckpt_read.out
if [ "$W" != "$R" ]; then
    echo "checkpoint checksum mismatch: release wrote '$W', debug read '$R'" >&2
    exit 1
fi

echo "== analytic paper tables (the results/ check below fails on any moved byte)"
bash regen_analytic.sh

echo "== one measuring stick (no criterion, no citation of a deleted bench, results/ as committed)"
if cargo metadata --offline --format-version 1 | grep -q '"name":"criterion"'; then
    echo "criterion is back in the dependency graph" >&2
    exit 1
fi
if git grep -nIE 'BENCH_[a-z_]+\.json|(freeze|quant|coldstart|serve_throughput|train)_bench|bench_kernels|drift_overhead|kernel_alloc_report' \
    -- ':!ci.sh' ':!CHANGES.md' ':!CHANGELOG.md' ':!ROADMAP.md' ':!ISSUE.md' ':!REVIEW.md'; then
    echo "the lines above cite a bench that no longer exists: quote a revbifpn-perf metric instead" >&2
    exit 1
fi
if git grep -nIE 'dw_stencil|dw_s2_stencil5|window_dot' \
    -- ':!ci.sh' ':!CHANGES.md' ':!CHANGELOG.md' ':!ROADMAP.md' ':!ISSUE.md' ':!REVIEW.md'; then
    echo "the lines above bring back a depthwise path beside the one plane kernel (dw_plane in conv.rs)" >&2
    exit 1
fi
if git grep -nIE 'struct Snapshot|Snapshot::(new|capture|restore)|legacy serial' -- crates/train DESIGN.md README.md; then
    echo "the lines above bring back a second train-step executor or its rollback snapshot beside ShardEngine" >&2
    exit 1
fi
if git grep -nE 'mpsc|thread::spawn|StageCell|StageMsg|StageControl|tree_merge_slabs|Phase::Stall' \
    -- crates/train/src crates/rev/src crates/core/src crates/nn/src DESIGN.md README.md; then
    echo "the lines above bring back a second train-step executor beside ShardEngine" >&2
    exit 1
fi
if git grep -nE 'grad_slabs|fn merge_grads' -- crates/train/src/shard.rs DESIGN.md README.md; then
    echo "the lines above bring back a replica's own gradients and their end-of-step merge: a replica adds into its pair's accumulator at the write" >&2
    exit 1
fi
if git grep -nE 'add_assign|sub_assign|add_channels_of' -- crates/rev/src/freeze.rs crates/rev/src/revblock.rs; then
    echo "the lines above couple a stream outside silo::couple, the one place a transform's output enters or leaves one" >&2
    exit 1
fi
if git grep -nE 'forward_quant|im2col_u8|quantize_activations|int8_use_avx2' \
    -- crates/nn/src crates/core/src crates/rev/src crates/detect/src crates/serve/src \
    crates/tensor/src/conv.rs crates/tensor/src/dw_plane.rs; then
    echo "the lines above quantize activations on the model path: int8 is a weight format, run by the f32 kernels" >&2
    exit 1
fi
if git grep -nE 'weight: Option<Tensor>' -- crates/nn/src/freeze.rs; then
    echo "the lines above keep a fused conv's raw weights beside its plan: a frozen model holds each weight once" >&2
    exit 1
fi
if git grep -nE 'dyn FnOnce\(\) \+ Send|parallel_join' -- 'crates/*/src/*' ':!crates/tensor/src/par.rs'; then
    echo "the lines above bring back a hand-rolled task fan-out beside \`meter::join\`" >&2
    exit 1
fi
UNSAFE_BLOCKS="$(git grep -n 'unsafe {' -- 'crates/*/src/*' ':!crates/perf' | wc -l)"
if git grep -n 'SyncPtr' -- 'crates/*/src/*' ':!crates/tensor/src/par.rs' ':!crates/tensor/src/matmul.rs' \
        ':!crates/tensor/src/qmatmul.rs' ':!crates/tensor/src/conv.rs' \
    || git grep -nE 'parallel_over_slices|parallel_map_reduce|parallel_chunks' -- crates tests examples ':!crates/perf' \
    || [ "$UNSAFE_BLOCKS" -gt 35 ]; then
    echo "$UNSAFE_BLOCKS \`unsafe {\` blocks under crates/*/src (at most 35): the lines above, or a new block, add a raw-pointer tile write beside \`par\`'s splitter" >&2
    exit 1
fi
DIRTY="$(git status --porcelain -- results/)"
if [ -n "$DIRTY" ]; then
    echo "$DIRTY" >&2
    echo "results/ differs from what is committed: CI publishes nothing" >&2
    exit 1
fi

echo "ci.sh: all gates passed"
