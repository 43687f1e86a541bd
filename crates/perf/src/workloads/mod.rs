//! The six workloads. Each takes its inputs from the seed alone, runs the
//! program through public entry points, checks the outputs and reports.

use crate::harness::{Outcome, Params};

pub mod infer;
pub mod serve;
pub mod train;

/// How many of [`NAMES`] `BENCHMARK.json` lists, from the front.
/// `serve_overload` runs and reports like the others but is not gated: the
/// engine is bistable there (see the README's findings), so its run-to-run
/// spread exceeds any bound the driver accepts.
pub const GATED: usize = 5;

/// Workload names; the first [`GATED`] in `BENCHMARK.json` order.
pub const NAMES: [&str; 6] = [
    "infer_f32_b1",
    "infer_int8_b1",
    "train_rev_serial",
    "train_rev_shard2",
    "serve_steady",
    "serve_overload",
];

/// Why each workload is here, one line each (same order as [`NAMES`]).
pub const WHY: [&str; 6] = [
    "Closed loop, frozen f32 S0 at 224, batch 1: the latency path, where memory-bound glue (depthwise, resize, SE) dominates; f32 kernel and fusion work must show here",
    "Same model, inputs and loop through freeze_int8: the other kernel family; an f32 GEMM change predicts no change here, an int8 change none on infer_f32_b1",
    "One train_classifier call, reversible S0 at 96, batch 4, serial step: backward kernels plus reconstruction, and the paper's memory claim as peak_heap_bytes",
    "Identical but shards = 2: ShardEngine, reduction tree and decoupled BN; a reduction or executor change moves this and not train_rev_serial",
    "Open loop, Poisson 12 req/s on one tenant, about a fifth of capacity: service time plus admission, queue and batcher overhead; batching changes predict no change",
    "Open loop, three tenants at 400 req/s, about 6x capacity: the only place batcher, cost model, DRR, quotas, typed shedding and the degrade ladder do most of the work",
];

/// Runs one workload; `None` for an unknown name.
pub fn run(name: &str, p: &Params) -> Option<Outcome> {
    Some(match name {
        "infer_f32_b1" => infer::run(p, false),
        "infer_int8_b1" => infer::run(p, true),
        "train_rev_serial" => train::run(p, 0),
        "train_rev_shard2" => train::run(p, 2),
        "serve_steady" => serve::run(p, false),
        "serve_overload" => serve::run(p, true),
        _ => return None,
    })
}
