//! Kernel-level wall-clock probe for GEMM and train-step tuning; not part of
//! any paper experiment. Prints the median and fastest time of each row:
//!
//! * the batch-1 RevBiFPN-S0 stem conv and the GEMM it lowers to;
//! * the pointwise convs of an S0 forward at their real shapes, through the
//!   frozen path's `sgemm_prepacked` (B is the activation, read in place);
//! * square `sgemm` at 256, 512 and 1024, where B's row stride is a power of
//!   two and in-place rows compete for the same cache sets;
//! * the training depthwise forward and backward at every shape a reversible
//!   S0@96 batch-4 step calls, with the calls per step (a step runs each
//!   forward twice: the Stats pass and the reconstruction) and the weighted
//!   per-step totals, then BatchNorm forward / backward at the two extremes;
//! * the training pointwise forward and backward (input and weight gradient)
//!   at every shape a reversible S0@96 batch-4 step calls, read off the
//!   model's shape walk with the calls per step and weighted per-step totals;
//! * one reversible training forward (`RunMode::TrainReversible`) of S0@96
//!   at batch 4, at the current thread budget;
//! * the frozen depthwise (`ConvPlan`, hard-swish epilogue) at every shape a
//!   frozen S0@224 batch-1 forward calls, with the calls per forward and the
//!   weighted total: "depthwise per forward" as one number, its strided
//!   share beside it;
//! * the bilinear upsample at every shape that forward calls (its calls and
//!   total), the frozen stem and the packed classifier `Linear`, and "silo
//!   edges per frozen S0@224 forward": strided depthwise plus upsample.
//!
//! Run the same file from a checkout of another commit to compare kernels
//! (`revbifpn-perf run --trace 1` reports a subset of these as metrics).

use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn_repro::core::{RevBiFPNClassifier, RevBiFPNConfig, RunMode};
use revbifpn_repro::nn::layers::{BatchNorm2d, Linear};
use revbifpn_repro::nn::{CacheMode, Layer, ShapeWalk};
use revbifpn_repro::tensor::par::GradSink;
use revbifpn_repro::tensor::{
    conv2d, conv2d_backward, conv2d_backward_accumulate, resize, sgemm, sgemm_prepacked, ConvPlan, ConvSpec, Epilogue,
    EpilogueAct, PackedGemmA, ResizeMode, Shape, Tensor,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Times `f` for about 300 ms after a warm-up and prints median and minimum;
/// `macs` (0 = none) adds the GMAC/s at the median. Returns the median in µs.
fn time(label: &str, macs: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let mut samples = Vec::new();
    let t_end = Instant::now() + std::time::Duration::from_millis(300);
    while Instant::now() < t_end || samples.len() < 5 {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    samples.sort_by(f64::total_cmp);
    let (med, min) = (samples[samples.len() / 2], samples[0]);
    let rate = if macs > 0 { format!("  {:6.1} GMAC/s", macs as f64 / med / 1e3) } else { String::new() };
    println!("{label:32} median {med:10.1} us  min {min:10.1} us{rate}");
    med
}

/// `(channels, side, kernel, stride, calls per pass)` of every depthwise conv
/// of S0 at 96² (the train workload; a reversible step runs the forward
/// twice per backward). The frozen 224² forward makes the same 85 calls on
/// planes 7/3 the side: 56, 28, 14, 7.
const S0_DEPTHWISE: [(usize, usize, usize, usize, usize); 14] = [
    (48, 24, 3, 1, 11),
    (48, 24, 5, 2, 6),
    (48, 24, 9, 4, 4),
    (48, 24, 17, 8, 3),
    (64, 12, 3, 1, 6),
    (64, 12, 5, 2, 5),
    (64, 12, 9, 4, 3),
    (96, 12, 3, 1, 10),
    (80, 6, 3, 1, 9),
    (80, 6, 5, 2, 3),
    (128, 6, 5, 2, 1),
    (160, 6, 5, 1, 8),
    (160, 3, 3, 1, 10),
    (480, 3, 5, 1, 6),
];

/// Times the frozen depthwise at every S0@224 shape; returns the strided
/// (silo down-edge) share of its per-forward total in ms.
fn frozen_rows(rng: &mut StdRng) -> f64 {
    let (mut ms, mut strided) = (0.0, 0.0);
    for (c, side, k, s, calls) in S0_DEPTHWISE {
        let side = side * 7 / 3;
        let spec = ConvSpec::depthwise(k, s, c);
        let x = Tensor::randn(Shape::new(1, c, side, side), 1.0, rng);
        let w = Tensor::randn(Shape::new(c, 1, k, k), 0.5, rng);
        let plan = ConvPlan::new(&w, vec![0.1; c], spec, EpilogueAct::HardSwish);
        let macs = spec.macs(x.shape(), c) as usize;
        let us = time(&format!("dw frozen 1x{c}x{side}x{side} {k}/s{s} x{calls}"), macs, || {
            black_box(plan.forward(black_box(&x)));
        });
        ms += us * calls as f64 / 1e3;
        if s > 1 {
            strided += us * calls as f64 / 1e3;
        }
    }
    println!("depthwise per frozen S0@224 forward: {ms:.2} ms (medians x calls), strided {strided:.2} ms");
    strided
}

/// Calls `f(c, side, factor)` for every upsample under `l` at input shape
/// `x` (the silo up edges).
fn upsample_under(l: &dyn Layer, x: Shape, f: &mut dyn FnMut(usize, usize, usize)) {
    if l.name() == "upsample" {
        f(x.c, x.h, l.out_shape(x).h / x.h);
    } else {
        l.visit_children_at(x, &mut |c, s| upsample_under(c, s, f));
    }
}

/// The frozen S0@224 forward's other edges and serial ends: the bilinear
/// upsample at every shape it calls (read off the model's shape walk, with
/// the calls per forward), the space-to-depth stem and the classifier's
/// packed `Linear`; then the silo edges' total beside the strided
/// depthwise's.
fn frozen_edge_rows(rng: &mut StdRng, strided_ms: f64) {
    let model = RevBiFPNClassifier::new(RevBiFPNConfig::s0(1000));
    let img = Shape::new(1, 3, 224, 224);
    let mut calls: BTreeMap<(usize, usize, usize), usize> = BTreeMap::new();
    model.visit_layers_at(&[img], &mut |l, x| {
        upsample_under(l, x, &mut |c, side, f| *calls.entry((c, side, f)).or_default() += 1)
    });
    let mut up_ms = 0.0;
    for (&(c, side, f), &n) in &calls {
        let x = Tensor::randn(Shape::new(1, c, side, side), 1.0, rng);
        let us = time(&format!("upsample 1x{c}x{side}x{side} x{f} x{n}"), 0, || {
            black_box(resize(black_box(&x), side * f, side * f, ResizeMode::Bilinear));
        });
        up_ms += us * n as f64 / 1e3;
    }
    println!("upsample per frozen S0@224 forward: {up_ms:.2} ms (medians x calls)");
    let stem = model.backbone().stem().freeze().expect("stem freezes");
    let x = Tensor::randn(img, 1.0, rng);
    time("stem frozen 1x3x224x224", 0, || {
        black_box(stem.forward(black_box(&x)));
    });
    let mut head = Linear::new(1280, 1000, rng).freeze().expect("linear freezes");
    head.compile();
    let x = Tensor::randn(Shape::new(1, 1280, 1, 1), 1.0, rng);
    time("linear frozen 1x1280 -> 1000", 1280 * 1000, || {
        black_box(head.forward(black_box(&x)));
    });
    println!("silo edges per frozen S0@224 forward: {:.2} ms (strided depthwise + upsample)", strided_ms + up_ms);
}

fn train_rows(rng: &mut StdRng) {
    let (mut fwd_ms, mut bwd_ms) = (0.0, 0.0);
    for (c, side, k, s, calls) in S0_DEPTHWISE {
        let spec = ConvSpec::depthwise(k, s, c);
        let x = Tensor::randn(Shape::new(4, c, side, side), 1.0, rng);
        let w = Tensor::randn(Shape::new(c, 1, k, k), 0.5, rng);
        let dy = Tensor::randn(spec.out_shape(x.shape(), c), 1.0, rng);
        let macs = spec.macs(x.shape(), c) as usize;
        let what = format!("4x{c}x{side}x{side} {k}/s{s}");
        let f = time(&format!("dw fwd {what} x{}", 2 * calls), macs, || {
            black_box(conv2d(black_box(&x), &w, None, &spec));
        });
        let b = time(&format!("dw bwd {what} x{calls}"), 2 * macs, || {
            black_box(conv2d_backward(&x, &w, black_box(&dy), &spec, true));
        });
        fwd_ms += f * (2 * calls) as f64 / 1e3;
        bwd_ms += b * calls as f64 / 1e3;
    }
    println!("depthwise per train step: forward {fwd_ms:.1} ms, backward {bwd_ms:.1} ms (medians x calls)");

    for (c, side) in [(48, 24), (480, 3)] {
        let mut bn = BatchNorm2d::new(c);
        let x = Tensor::randn(Shape::new(4, c, side, side), 1.0, rng);
        let dy = Tensor::randn(x.shape(), 1.0, rng);
        time(&format!("bn fwd stats 4x{c}x{side}x{side}"), 0, || {
            black_box(bn.forward(black_box(&x), CacheMode::Stats));
        });
        // The backward consumes the Full cache, so time the pair and the
        // forward alone; the difference is the backward.
        time(&format!("bn fwd full 4x{c}x{side}x{side}"), 0, || {
            black_box(bn.forward(black_box(&x), CacheMode::Full));
        });
        time(&format!("bn fwd full + bwd 4x{c}x{side}x{side}"), 0, || {
            bn.forward(black_box(&x), CacheMode::Full);
            black_box(bn.backward(black_box(&dy)));
        });
        bn.clear_cache();
    }
}

/// Calls `f(c_in, c_out, side)` for every pointwise conv under `l` at input
/// shape `x` (a 1x1 conv keeps the map and makes `c_out` MACs per input
/// element).
fn pointwise_under(l: &dyn Layer, x: Shape, f: &mut dyn FnMut(usize, usize, usize)) {
    let y = l.out_shape(x);
    if l.name() == "conv2d" && (y.h, y.w) == (x.h, x.w) && l.macs(x) == (x.numel() * y.c) as u64 {
        f(x.c, y.c, x.h);
    } else {
        l.visit_children_at(x, &mut |c, s| pointwise_under(c, s, f));
    }
}

/// The S0@96 model of the train workload, and its batch-4 image shape.
fn s0_at_96() -> (RevBiFPNClassifier, Shape) {
    let mut cfg = RevBiFPNConfig::s0(10).with_resolution(96);
    cfg.dropout = 0.0;
    cfg.drop_path = 0.0;
    (RevBiFPNClassifier::new(cfg), Shape::new(4, 3, 96, 96))
}

fn train_pointwise_rows(rng: &mut StdRng) {
    // (c_in, c_out, side) -> (forward calls, backward calls) per step: every
    // layer runs one forward and one backward, and the body's layers one
    // more forward, the reconstruction.
    let (model, img) = s0_at_96();
    let mut calls: BTreeMap<(usize, usize, usize), (usize, usize)> = BTreeMap::new();
    model.visit_layers_at(&[img], &mut |l, x| {
        pointwise_under(l, x, &mut |ci, co, side| {
            let e = calls.entry((ci, co, side)).or_default();
            e.0 += 1;
            e.1 += 1;
        })
    });
    let body_in = model.backbone().stem().out_shapes(&[img]);
    model.backbone().body().visit_layers_at(&body_in, &mut |l, x| {
        pointwise_under(l, x, &mut |ci, co, side| calls.get_mut(&(ci, co, side)).expect("walked above").0 += 1)
    });
    let spec = ConvSpec::pointwise();
    let (mut fwd_ms, mut bwd_ms) = (0.0, 0.0);
    for (&(c_in, c_out, side), &(f_calls, b_calls)) in &calls {
        let x = Tensor::randn(Shape::new(4, c_in, side, side), 1.0, rng);
        let w = Tensor::randn(Shape::new(c_out, c_in, 1, 1), 0.1, rng);
        let dy = Tensor::randn(Shape::new(4, c_out, side, side), 1.0, rng);
        let mut dw = vec![0.0f32; c_out * c_in];
        let macs = 4 * c_in * c_out * side * side;
        let what = format!("4x{c_in}x{side}x{side} -> {c_out}");
        let f = time(&format!("pw fwd {what} x{f_calls}"), macs, || {
            black_box(conv2d(black_box(&x), &w, None, &spec));
        });
        let b = time(&format!("pw dx+dw {what} x{b_calls}"), 2 * macs, || {
            black_box(conv2d_backward_accumulate(&x, &w, black_box(&dy), &spec, true, GradSink::Owned(&mut dw), None));
        });
        fwd_ms += f * f_calls as f64 / 1e3;
        bwd_ms += b * b_calls as f64 / 1e3;
    }
    println!("pointwise per train step: forward {fwd_ms:.1} ms, dx+dw {bwd_ms:.1} ms (medians x calls)");

    let (mut model, img) = s0_at_96();
    let x = Tensor::randn(img, 1.0, rng);
    let threads = revbifpn_repro::tensor::par::num_threads_for(usize::MAX);
    time(&format!("train fwd S0@96 4x3x96x96 t{threads}"), 0, || {
        black_box(model.forward(black_box(&x), RunMode::TrainReversible));
        model.clear_cache();
    });
}

fn randn(len: usize, rng: &mut StdRng) -> Vec<f32> {
    Tensor::randn(Shape::new(1, 1, 1, len), 1.0, rng).into_vec()
}

fn main() {
    let mut rng = StdRng::seed_from_u64(0);
    let img = Tensor::randn(Shape::new(1, 3, 224, 224), 1.0, &mut rng);
    let w_stem = Tensor::randn(Shape::new(48, 3, 3, 3), 0.1, &mut rng);
    let stem = ConvSpec::kxk(3, 2);
    time("conv2d stem total", 0, || {
        black_box(conv2d(&img, &w_stem, None, &stem));
    });
    time("Tensor::zeros [1,48,112,112]", 0, || {
        black_box(Tensor::zeros(Shape::new(1, 48, 112, 112)));
    });

    // (c_in, c_out, side): the MBConv expand and project of a coupling on
    // each S0 stream (half the stream's channels, expansion 2/3/4/6), then
    // the head's 320 -> 1280.
    let pointwise = [
        (24, 48, 56),
        (48, 24, 56),
        (32, 96, 28),
        (96, 32, 28),
        (40, 160, 14),
        (160, 40, 14),
        (80, 480, 7),
        (480, 80, 7),
        (320, 1280, 7),
    ];
    for (c_in, c_out, side) in pointwise {
        let n = side * side;
        let pa = PackedGemmA::pack(c_out, c_in, &randn(c_out * c_in, &mut rng));
        let (x, bias) = (randn(c_in * n, &mut rng), randn(c_out, &mut rng));
        let epi = Epilogue::new(Some(&bias), EpilogueAct::HardSwish);
        let mut y = vec![0.0f32; c_out * n];
        time(&format!("pointwise {c_in}->{c_out} @ {side}x{side}"), c_out * c_in * n, || {
            sgemm_prepacked(&pa, n, black_box(&x), &mut y, &epi);
            black_box(&y);
        });
    }

    for (m, k, n) in [(48, 27, 112 * 112), (256, 256, 256), (512, 512, 512), (1024, 1024, 1024)] {
        let (a, b) = (randn(m * k, &mut rng), randn(k * n, &mut rng));
        let mut c = vec![0.0f32; m * n];
        time(&format!("sgemm {m}x{k}x{n}"), m * k * n, || {
            sgemm(m, k, n, 1.0, &a, black_box(&b), 0.0, &mut c);
            black_box(&c);
        });
    }

    train_rows(&mut rng);
    train_pointwise_rows(&mut rng);
    let strided = frozen_rows(&mut rng);
    frozen_edge_rows(&mut rng, strided);
}
