//! The paper's memory claim in real heap bytes rather than in the activation
//! meter's accounting. A counting global allocator sees every allocation of
//! a train step — cached activations, but also split and joined streams,
//! coupling temporaries, weight-gradient slabs and scratch-arena growth — so
//! the rise of live heap above the step's starting point is what the step
//! really costs on top of the model's parameters and gradients.
//!
//! - A reversible S0 step at 96², batch 4, may rise at most 5.52 MB plus
//!   0.25 MiB in absolute bytes (7.75 MB while a `Full` MBConv kept the
//!   per-op chain's tensors, 8.12 MB while every conv backward allocated a
//!   fresh weight gradient), and at most 1.3x the meter's peak: on one
//!   thread the reversible backward holds one transform's recompute and no
//!   duplicate stream, so little besides the metered caches is live. (On
//!   two threads a `BlockStage`'s streams and a `RevSilo`'s edges recompute
//!   concurrently, so two transforms' caches can be live at once; the
//!   meter, thread-local, counts the serial trace.)
//! - Figure 4 holds in real bytes on the tiny model: from depth 1 to 5 the
//!   reversible rise stays flat (< 5 %) while the conventional rise grows
//!   more than 1.8x.
//! - A `ShardEngine` over the same S0 model keeps at most one gradient per
//!   parameter for each of its `S - 1` replicas (plus 1 MiB) resident after
//!   two warm steps: shard 0 runs on the primary itself, a replica reads the
//!   primary's parameter values and BN buffers through shared handles
//!   instead of holding its own, and nothing is staged.
//!
//! The allocator sees every thread, so this file holds exactly one test, and
//! the test pins the worker pool to one thread so no other thread's arena
//! grows inside a window.

use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn::{RevBiFPNClassifier, RevBiFPNConfig, RunMode};
use revbifpn_nn::loss::one_hot;
use revbifpn_rev::DriftConfig;
use revbifpn_tensor::{par, Shape, Tensor};
use revbifpn_train::{ShardEngine, ShardStepFaults};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the wrapper only counts sizes of successful calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` describe a live block of this allocator.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// One `measure_step` after a warm-up one: returns the rise of live heap
/// above the step's start and the meter's peak, in bytes.
fn step(m: &mut RevBiFPNClassifier, x: &Tensor, mode: RunMode) -> (usize, usize) {
    let _ = m.measure_step(x, mode);
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let (meter_peak, logits) = m.measure_step(x, mode);
    let rise = PEAK.load(Ordering::Relaxed) - start;
    drop(logits);
    (rise, meter_peak)
}

/// Live heap a `ShardEngine` built with `shards` holds over `m` after two
/// warm steps on `x`, in bytes.
fn engine_resident(m: &mut RevBiFPNClassifier, x: &Tensor, targets: &Tensor, shards: usize) -> usize {
    let start = LIVE.load(Ordering::Relaxed);
    let mut engine = ShardEngine::new(m.cfg(), shards, DriftConfig::default());
    for _ in 0..2 {
        let out = engine.step(m, x, targets, RunMode::TrainReversible, &ShardStepFaults::default());
        assert!(out.backward_ran, "clean step must complete");
        engine.apply_bn_stats(m);
    }
    let resident = LIVE.load(Ordering::Relaxed).saturating_sub(start);
    drop(engine);
    resident
}

#[test]
fn train_step_heap_follows_the_meter_and_figure4() {
    par::set_max_threads(1);
    let mut rng = StdRng::seed_from_u64(5);

    // Deterministic layers, as sharded training requires (and as the
    // benchmark's training workloads run).
    let mut cfg = RevBiFPNConfig::s0(10).with_resolution(96);
    cfg.dropout = 0.0;
    cfg.drop_path = 0.0;
    let mut s0 = RevBiFPNClassifier::new(cfg);
    let x = Tensor::randn(Shape::new(4, 3, 96, 96), 1.0, &mut rng);
    let (rise, meter_peak) = step(&mut s0, &x, RunMode::TrainReversible);
    let targets = one_hot(&[0, 1, 2, 3], 10);
    let grad_bytes = 4 * s0.param_count() as usize;
    let resident0 = engine_resident(&mut s0, &x, &targets, 0);
    let resident1 = engine_resident(&mut s0, &x, &targets, 1);
    let resident2 = engine_resident(&mut s0, &x, &targets, 2);
    drop(s0);

    let x = Tensor::randn(Shape::new(4, 3, 32, 32), 1.0, &mut rng);
    let rises = |d: usize| {
        let mut m = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(10).with_depth(d));
        let (rev, _) = step(&mut m, &x, RunMode::TrainReversible);
        let (conv, _) = step(&mut m, &x, RunMode::TrainConventional);
        (rev as f64, conv as f64)
    };
    let ((rev1, conv1), (rev5, conv5)) = (rises(1), rises(5));
    par::set_max_threads(0);

    let mb = |b: f64| b / 1e6;
    println!(
        "S0@96 b4 ShardEngine resident after two steps: coupled {:.2} MB, S=1 {:.2} MB, S=2 {:.2} MB \
         (one grad per parameter: {:.2} MB)",
        mb(resident0 as f64),
        mb(resident1 as f64),
        mb(resident2 as f64),
        mb(grad_bytes as f64)
    );
    println!(
        "S0@96 b4 rev: heap rise {:.2} MB, meter peak {:.2} MB; \
         tiny rev d1 {:.2} d5 {:.2} MB, conv d1 {:.2} d5 {:.2} MB",
        mb(rise as f64),
        mb(meter_peak as f64),
        mb(rev1),
        mb(rev5),
        mb(conv1),
        mb(conv5)
    );
    assert!(
        rise as f64 <= 1.3 * meter_peak as f64,
        "S0@96 b4 reversible step: heap rise {:.2} MB vs meter peak {:.2} MB ({:.2}x > 1.3x)",
        mb(rise as f64),
        mb(meter_peak as f64),
        rise as f64 / meter_peak as f64
    );
    const MIB: usize = 1 << 20;
    // The one-thread reading with a `Full` MBConv keeping only its input,
    // its BatchNorms' inputs and the SE gate (7 748 008 B while it kept the
    // per-op chain's tensors).
    const RISE_BOUND: usize = 5_519_488 + MIB / 4;
    assert!(
        rise <= RISE_BOUND,
        "S0@96 b4 reversible step: heap rise {:.3} MB over the {:.3} MB bound",
        mb(rise as f64),
        mb(RISE_BOUND as f64)
    );
    assert!(
        resident0 <= MIB,
        "coupled engine holds {:.2} MB: the single shard must run on the primary",
        mb(resident0 as f64)
    );
    assert!(
        resident1 <= MIB,
        "S=1 engine holds {:.2} MB: shard 0 must run on the primary",
        mb(resident1 as f64)
    );
    assert!(
        resident2 <= grad_bytes + MIB,
        "S=2 engine holds {:.2} MB, over one replica's gradients ({:.2} MB) + 1 MiB",
        mb(resident2 as f64),
        mb(grad_bytes as f64)
    );
    assert!(
        rev5 < 1.05 * rev1,
        "reversible heap rise not flat in depth: d=1 {:.2} MB, d=5 {:.2} MB",
        mb(rev1),
        mb(rev5)
    );
    assert!(
        conv5 > 1.8 * conv1,
        "conventional heap rise not linear-ish in depth: d=1 {:.2} MB, d=5 {:.2} MB",
        mb(conv1),
        mb(conv5)
    );
}
