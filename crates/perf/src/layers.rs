//! Per-layer measurements taken by timing public calls into each crate, at
//! the shapes the S0 workloads run: 224² batch 1 for inference (stream 0 is
//! 56², stream 3 is 7²), 96² batch 4 for training (stream 0 is 24²).
//!
//! Rates are computed, not counted by hardware: GMAC/s from
//! `ConvSpec::macs`, GB/s from the sizes of the tensors read and written.

use crate::harness::time_median_ns;
use crate::metrics::Values;
use rand::rngs::StdRng;
use revbifpn::artifact::{load_classifier_artifact, save_classifier_artifact};
use revbifpn::{FrozenClassifier, RevBiFPNClassifier};
use revbifpn_nn::checkpoint::{load_params, save_params};
use revbifpn_nn::layers::{BatchNorm2d, MBConv, MBConvCfg, SqueezeExcite};
use revbifpn_nn::{freeze_layer, freeze_layer_int8, CacheMode, Layer};
use revbifpn_tensor::{
    conv2d_backward, global_avg_pool, int8_act_scale, qgemm_prepacked, quantize_activations,
    resize, resize_backward, sgemm, space_to_depth, ConvPlan, ConvSpec, Epilogue, EpilogueAct,
    PackedGemmAI8, ResizeMode, Shape, Tensor,
};
use std::hint::black_box;
use std::path::Path;

/// Time budget of one micro-benchmark.
const BUDGET_MS: u64 = 40;

/// MAC/ns is GMAC/s; byte/ns is GB/s.
pub fn rate(work: u64, ns: u64) -> f64 {
    work as f64 / ns.max(1) as f64
}

fn randn(shape: Shape, rng: &mut StdRng) -> Tensor {
    Tensor::randn(shape, 1.0, rng)
}

fn plan_gmacs(
    c_in: usize,
    c_out: usize,
    hw: usize,
    spec: ConvSpec,
    act: EpilogueAct,
    rng: &mut StdRng,
) -> f64 {
    let w = randn(Shape::new(c_out, c_in / spec.groups, spec.kh, spec.kw), rng);
    let plan = ConvPlan::new(&w, vec![0.0; c_out], spec, act);
    let x = randn(Shape::new(1, c_in, hw, hw), rng);
    let ns = time_median_ns(BUDGET_MS, || {
        black_box(plan.forward(black_box(&x)));
    });
    rate(spec.macs(x.shape(), c_out), ns)
}

/// The f32 inference kernels. `sgemm_256` is the machine's GEMM roof.
pub fn tensor_f32(v: &mut Values, rng: &mut StdRng) {
    let n = 256;
    let (a, b) = (
        randn(Shape::new(1, 1, n, n), rng),
        randn(Shape::new(1, 1, n, n), rng),
    );
    let mut c = vec![0.0f32; n * n];
    let ns = time_median_ns(BUDGET_MS, || {
        sgemm(n, n, n, 1.0, a.data(), b.data(), 0.0, &mut c);
        black_box(&c);
    });
    v.set("tensor.sgemm_256.gmacs", rate((n * n * n) as u64, ns));

    // RevBlock F/G on stream 0 (24 -> 48 -> 24 @ 56²) and stream 3
    // (80 -> 480 -> 80 @ 7², 5x5), and a silo's stride-2 down edge.
    let pw = ConvSpec::pointwise();
    v.set(
        "tensor.pw_expand_s0.gmacs",
        plan_gmacs(24, 48, 56, pw, EpilogueAct::HardSwish, rng),
    );
    v.set(
        "tensor.pw_project_s3.gmacs",
        plan_gmacs(480, 80, 7, pw, EpilogueAct::None, rng),
    );
    v.set(
        "tensor.dw_s0.gmacs",
        plan_gmacs(
            48,
            48,
            56,
            ConvSpec::depthwise(3, 1, 48),
            EpilogueAct::HardSwish,
            rng,
        ),
    );
    v.set(
        "tensor.dw_s3.gmacs",
        plan_gmacs(
            480,
            480,
            7,
            ConvSpec::depthwise(5, 1, 480),
            EpilogueAct::HardSwish,
            rng,
        ),
    );
    v.set(
        "tensor.dw_stride2.gmacs",
        plan_gmacs(
            48,
            48,
            56,
            ConvSpec::depthwise(5, 2, 48),
            EpilogueAct::HardSwish,
            rng,
        ),
    );

    let x = randn(Shape::new(1, 64, 28, 28), rng);
    let ns = time_median_ns(BUDGET_MS, || {
        black_box(resize(black_box(&x), 56, 56, ResizeMode::Bilinear));
    });
    v.set("tensor.resize_up2.gbps", rate((x.bytes() * 5) as u64, ns));

    let x = randn(Shape::new(1, 3, 224, 224), rng);
    let ns = time_median_ns(BUDGET_MS, || {
        black_box(space_to_depth(black_box(&x), 4));
    });
    v.set("tensor.s2d_stem.gbps", rate((x.bytes() * 2) as u64, ns));

    let x = randn(Shape::new(1, 48, 56, 56), rng);
    let ns = time_median_ns(BUDGET_MS, || {
        black_box(global_avg_pool(black_box(&x)));
    });
    v.set("tensor.gap.gbps", rate(x.bytes() as u64, ns));
}

fn qgemm_gmacs(m: usize, k: usize, n: usize, rng: &mut StdRng) -> f64 {
    let w = randn(Shape::new(1, 1, m, k), rng);
    let pa = PackedGemmAI8::pack_quantize(m, k, w.data());
    let x = randn(Shape::new(1, 1, k, n), rng);
    let scale = int8_act_scale(x.abs_max());
    let mut bq = vec![0u8; k * n];
    quantize_activations(x.data(), scale, &mut bq);
    let mut c = vec![0.0f32; m * n];
    let epi = Epilogue::new(None, EpilogueAct::None);
    let ns = time_median_ns(BUDGET_MS, || {
        black_box(qgemm_prepacked(&pa, n, black_box(&bq), scale, &mut c, &epi));
    });
    rate((m * k * n) as u64, ns)
}

/// The int8 kernels at the same two pointwise shapes, plus the per-layer
/// activation quantize pass.
pub fn tensor_int8(v: &mut Values, rng: &mut StdRng) {
    v.set(
        "tensor.qgemm_pw_expand_s0.gmacs",
        qgemm_gmacs(48, 24, 56 * 56, rng),
    );
    v.set(
        "tensor.qgemm_pw_project_s3.gmacs",
        qgemm_gmacs(80, 480, 7 * 7, rng),
    );
    let x = randn(Shape::new(1, 48, 56, 56), rng);
    let scale = int8_act_scale(x.abs_max());
    let mut q = vec![0u8; x.shape().numel()];
    let ns = time_median_ns(BUDGET_MS, || {
        quantize_activations(black_box(x.data()), scale, &mut q);
        black_box(&q);
    });
    v.set(
        "tensor.quantize_act.gbps",
        rate((x.bytes() + q.len()) as u64, ns),
    );
}

/// The backward kernels at the training shape (batch 4, stream 0 at 24²).
/// A backward pass does the forward's MACs twice (dx and dw).
pub fn tensor_train(v: &mut Values, rng: &mut StdRng) {
    let pw = ConvSpec::pointwise();
    let x = randn(Shape::new(4, 24, 24, 24), rng);
    let w = randn(Shape::new(48, 24, 1, 1), rng);
    let dy = randn(Shape::new(4, 48, 24, 24), rng);
    let ns = time_median_ns(BUDGET_MS, || {
        black_box(conv2d_backward(&x, &w, black_box(&dy), &pw, true));
    });
    v.set(
        "tensor.conv_bwd_pw_s0.gmacs",
        rate(2 * pw.macs(x.shape(), 48), ns),
    );

    let dw = ConvSpec::depthwise(3, 1, 48);
    let w = randn(Shape::new(48, 1, 3, 3), rng);
    let ns = time_median_ns(BUDGET_MS, || {
        black_box(conv2d_backward(&dy, &w, black_box(&dy), &dw, true));
    });
    v.set(
        "tensor.dw_bwd_s0.gmacs",
        rate(2 * dw.macs(dy.shape(), 48), ns),
    );

    let g = randn(Shape::new(4, 64, 24, 24), rng);
    let small = Shape::new(4, 64, 12, 12);
    let ns = time_median_ns(BUDGET_MS, || {
        black_box(resize_backward(black_box(&g), small, ResizeMode::Bilinear));
    });
    v.set(
        "tensor.resize_bwd.gbps",
        rate((g.bytes() + small.bytes()) as u64, ns),
    );
}

/// The stream-0 RevBlock transform: MBConv 24 -> 48 -> 24, 3x3, SE 0.25.
fn mbconv_s0(rng: &mut StdRng) -> MBConv {
    MBConv::new(MBConvCfg::same(24, 3, 2.0).with_se(0.25).plain(), rng)
}

/// One stream-0 MBConv and its SE gate as frozen layers, in the workload's
/// precision (the SE gate stays f32 under int8, as in the model).
pub fn nn_infer(v: &mut Values, int8: bool, rng: &mut StdRng) {
    let freeze = |l: &dyn Layer| {
        if int8 {
            freeze_layer_int8(l)
        } else {
            freeze_layer(l)
        }
        .expect("MBConv and SE freeze")
    };
    let mb = freeze(&mbconv_s0(rng));
    let x = randn(Shape::new(1, 24, 56, 56), rng);
    let ns = time_median_ns(BUDGET_MS, || {
        black_box(mb.forward(black_box(&x)));
    });
    v.set("nn.mbconv_s0.us", ns as f64 / 1e3);

    let se = freeze(&SqueezeExcite::new(48, 0.25, rng));
    let x = randn(Shape::new(1, 48, 56, 56), rng);
    let ns = time_median_ns(BUDGET_MS, || {
        black_box(se.forward(black_box(&x)));
    });
    v.set("nn.se_s0.us", ns as f64 / 1e3);
}

/// Training-mode forward and backward of the same MBConv and of one
/// BatchNorm at the training shape.
pub fn nn_train(v: &mut Values, rng: &mut StdRng) {
    let mut mb = mbconv_s0(rng);
    let x = randn(Shape::new(4, 24, 24, 24), rng);
    let dy = randn(Shape::new(4, 24, 24, 24), rng);
    // Forward and backward alternate (backward consumes the Full cache), so
    // time them inside one loop and keep separate sample sets.
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    for i in 0..12 {
        let t = std::time::Instant::now();
        black_box(mb.forward(black_box(&x), CacheMode::Full));
        let f = t.elapsed().as_nanos() as u64;
        let t = std::time::Instant::now();
        black_box(mb.backward(black_box(&dy)));
        let b = t.elapsed().as_nanos() as u64;
        if i >= 2 {
            fwd.push(f);
            bwd.push(b);
        }
    }
    v.set(
        "nn.mbconv_s0.train_fwd_us",
        crate::stats::median_u64(&fwd).expect("10 samples") as f64 / 1e3,
    );
    v.set(
        "nn.mbconv_s0.train_bwd_us",
        crate::stats::median_u64(&bwd).expect("10 samples") as f64 / 1e3,
    );

    let mut bn = BatchNorm2d::new(48);
    let x = randn(Shape::new(4, 48, 24, 24), rng);
    let ns = time_median_ns(BUDGET_MS, || {
        black_box(bn.forward(black_box(&x), CacheMode::Full));
    });
    v.set("nn.bn_s0.train_fwd_us", ns as f64 / 1e3);
}

/// Parameter checkpoint write and read of the whole model.
pub fn nn_checkpoint(v: &mut Values, model: &mut RevBiFPNClassifier, dir: &Path) {
    let path = dir.join("params.ckpt");
    let ns = time_median_ns(BUDGET_MS, || {
        save_params(&path, |f| model.visit_params(f)).expect("checkpoint write");
    });
    v.set("nn.checkpoint.save_us", ns as f64 / 1e3);
    let ns = time_median_ns(BUDGET_MS, || {
        load_params(&path, |f| model.visit_params(f)).expect("checkpoint read");
    });
    v.set("nn.checkpoint.load_us", ns as f64 / 1e3);
    let _ = std::fs::remove_file(&path);
}

/// Freeze time and the frozen-artifact write / mmap load / copy load.
pub fn core_freeze_and_artifact(
    v: &mut Values,
    model: &RevBiFPNClassifier,
    frozen: &FrozenClassifier,
    int8: bool,
    dir: &Path,
) {
    let ns = time_median_ns(BUDGET_MS, || {
        black_box(
            if int8 {
                model.freeze_int8()
            } else {
                model.freeze()
            }
            .expect("S0 freezes"),
        );
    });
    v.set("core.freeze.us", ns as f64 / 1e3);

    let path = dir.join("model.frz");
    let ns = time_median_ns(BUDGET_MS, || {
        save_classifier_artifact(&path, frozen).expect("artifact write");
    });
    v.set("core.artifact.write_us", ns as f64 / 1e3);
    for (name, prefer_map) in [
        ("core.artifact.load_mmap_us", true),
        ("core.artifact.load_copy_us", false),
    ] {
        let ns = time_median_ns(BUDGET_MS, || {
            black_box(load_classifier_artifact(&path, prefer_map).expect("artifact load"));
        });
        v.set(name, ns as f64 / 1e3);
    }
    let _ = std::fs::remove_file(&path);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rate_is_work_per_nanosecond() {
        assert_eq!(rate(2_000, 1_000), 2.0);
        assert_eq!(rate(5, 0), 5.0, "a zero duration must not divide by zero");
    }

    #[test]
    fn int8_kernels_report_positive_rates() {
        let mut v = Values::default();
        tensor_int8(&mut v, &mut StdRng::seed_from_u64(1));
        assert_eq!(v.0.len(), 3);
        assert!(v.0.iter().all(|m| m.value > 0.0 && m.value.is_finite()));
    }
}
