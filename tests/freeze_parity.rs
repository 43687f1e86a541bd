//! Frozen-vs-unfused parity across the paper's scaling family, plus the
//! steady-state resource guarantees of the inference fast path.
//!
//! `freeze()` rewrites every `conv -> bn -> act` chain into one fused conv
//! with pre-packed GEMM panels; these properties pin down that the rewrite
//! is numerically faithful (within conv-fusion rounding) for *random*
//! S0–S6-shaped models — classification and detection — and that serving
//! from a frozen model neither allocates nor re-packs after warm-up.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn::{FrozenClassifier, RevBiFPNClassifier, RevBiFPNConfig, RunMode};
use revbifpn_data::{SynthDet, SynthDetConfig, SynthScale, SynthScaleConfig};
use revbifpn_detect::{
    evaluate_box_ap, AreaRanges, DetHeadConfig, Detector, RevBackbone,
};
use revbifpn_nn::{meter, CacheMode, FrozenTree, Module};
use revbifpn_tensor::{Shape, Tensor};
use revbifpn_train::{clip_grad_norm, train_classifier, LrSchedule, Sgd, TrainConfig};

/// A scaling-family config cut down to CPU-test size: the S-variant's
/// channel plan at a miniature resolution and depth 1.
fn family_config(s: usize, resolution: usize) -> RevBiFPNConfig {
    RevBiFPNConfig::scaled(s, 5).with_resolution(resolution).with_depth(1)
}

/// Moves the BN affine parameters off their (1, 0) init so folding them
/// into the convs is non-trivial.
fn randomize_bn(model: &mut impl Module, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    model.visit_params(&mut |p| {
        if p.name == "bn.gamma" {
            p.value = Tensor::uniform(p.value.shape(), 0.5, 1.5, &mut rng);
        } else if p.name == "bn.beta" {
            p.value = Tensor::uniform(p.value.shape(), -0.5, 0.5, &mut rng);
        }
    });
}

fn assert_close(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    let tol = 1e-4 * (1.0 + want.abs_max());
    let diff = got.max_abs_diff(want);
    assert!(diff < tol, "{what}: fused-vs-unfused diff {diff} exceeds {tol}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Classification: frozen logits match eval-mode logits for every
    /// S-variant channel plan, input resolution, and batch size drawn.
    #[test]
    fn frozen_classifier_matches_eval(
        s in 0usize..=6,
        res_big in any::<bool>(),
        batch in 1usize..=2,
        seed in any::<u64>(),
    ) {
        let cfg = family_config(s, if res_big { 64 } else { 32 });
        prop_assert!(cfg.validate().is_ok());
        let mut model = RevBiFPNClassifier::new(cfg.clone());
        randomize_bn(&mut model, seed);
        let frozen = model.freeze().expect("family configs must freeze");
        prop_assert!(frozen.packed_bytes() > 0);

        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let x = Tensor::randn(Shape::new(batch, 3, cfg.resolution, cfg.resolution), 1.0, &mut rng);
        let want = model.forward(&x, RunMode::Eval);
        let got = frozen.forward(&x);
        assert_close(&got, &want, &format!("S{s} logits"));
    }

    /// Quantization: the int8-frozen classifier tracks the f32-frozen
    /// logits for every S-variant channel plan. The bound is loose —
    /// 7-bit activation quantization compounds at ~3% of dynamic range per
    /// MBConv — but pins that the int8 lowering is functionally faithful;
    /// the accuracy-gate tests below are the hard bar.
    #[test]
    fn int8_frozen_classifier_tracks_f32_frozen(
        s in 0usize..=6,
        batch in 1usize..=2,
        seed in any::<u64>(),
    ) {
        let cfg = family_config(s, 32);
        let mut model = RevBiFPNClassifier::new(cfg.clone());
        randomize_bn(&mut model, seed);
        let frozen = model.freeze().expect("family configs must freeze");
        let quant = model.freeze_int8().expect("family configs must quantize");
        prop_assert!(quant.is_quantized());
        prop_assert!(quant.quant_packed_bytes() > 0);
        prop_assert!(quant.quant_packed_bytes() < frozen.packed_bytes() / 2);

        let mut rng = StdRng::seed_from_u64(seed ^ 3);
        let x = Tensor::randn(Shape::new(batch, 3, cfg.resolution, cfg.resolution), 1.0, &mut rng);
        let want = frozen.forward(&x);
        let got = quant.forward(&x);
        prop_assert_eq!(got.shape(), want.shape());
        let diff = got.max_abs_diff(&want);
        let tol = 0.5 * (1.0 + want.abs_max());
        prop_assert!(diff < tol, "S{} int8 logits diff {} exceeds {}", s, diff, tol);
    }

    /// Detection: the frozen detector's raw per-level head outputs match
    /// the unfused eval forward on S-variant backbones.
    #[test]
    fn frozen_detector_matches_eval(
        s in 0usize..=6,
        batch in 1usize..=2,
        seed in any::<u64>(),
    ) {
        let cfg = family_config(s, 32);
        let backbone = RevBackbone::new(revbifpn::RevBiFPN::new(cfg), true);
        let mut det = Detector::new(Box::new(backbone), DetHeadConfig::new(3), seed);
        let frozen = det.freeze().expect("family detectors must freeze");
        prop_assert!(frozen.packed_bytes() > 0);

        let mut rng = StdRng::seed_from_u64(seed ^ 2);
        let x = Tensor::randn(Shape::new(batch, 3, 32, 32), 1.0, &mut rng);
        let want = det.forward_raw_eval(&x);
        let got = frozen.forward_raw(&x);
        prop_assert_eq!(got.len(), want.len());
        for (lvl, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_close(&g.cls, &w.cls, &format!("S{s} level {lvl} cls"));
            assert_close(&g.reg, &w.reg, &format!("S{s} level {lvl} reg"));
        }
    }
}

/// Full S0 depth at 224², with BN affine parameters drawn as above. The
/// activations grow about 3x per stage, to 1e4 at the last one, and the
/// whole-model bound relative to the logits does not hold at this depth
/// (`crates/perf/README.md` "Findings": up to 1.6x the tolerance).
/// Nor does a bound relative to one stage's output on those activations:
/// a squeeze-excite gate's pre-activation is then a difference of terms in
/// the thousands that lands in the hard-sigmoid's linear range, and its
/// rounding, times activations in the thousands, reaches 7e-4 of the
/// stage's output (without squeeze-excite every stage stays below 1e-6 at
/// any scale). So each frozen stage is compared with its unfused
/// `None`-mode stage on the unfused output of the stage before, scaled to a
/// largest magnitude of 1, against that stage's own output scale.
#[test]
fn frozen_stages_match_eval_stages_at_full_s0_depth() {
    let cfg = RevBiFPNConfig::s0(10);
    assert_eq!(cfg.depth, 2, "S0's own depth");
    let mut backbone = revbifpn::RevBiFPN::new(cfg.clone());
    randomize_bn(&mut backbone, 31);
    let mut rng = StdRng::seed_from_u64(32);
    let x = Tensor::randn(Shape::new(1, 3, cfg.resolution, cfg.resolution), 1.0, &mut rng);

    let mut stem = backbone.stem().freeze().expect("the stem must freeze");
    stem.compile();
    let s0 = backbone.stem_forward(&x, CacheMode::None);
    assert_close(&stem.forward(&x), &s0, "S0 stem");

    let mut stages = backbone.take_body().into_stages();
    assert_eq!(stages.len(), 2 * (cfg.num_streams() - 1 + cfg.depth));
    let mut cur = vec![s0];
    for (i, stage) in stages.iter_mut().enumerate() {
        let mut frozen = stage.freeze().expect("every stage must freeze");
        frozen.compile();
        let xs: Vec<Tensor> = cur.iter().map(|t| t.scaled(1.0 / t.abs_max())).collect();
        let got = frozen.forward(&xs);
        cur = stage.forward(&xs, CacheMode::None);
        assert_eq!(got.len(), cur.len(), "stage {i}: stream count");
        for (j, (g, w)) in got.iter().zip(&cur).enumerate() {
            assert_close(g, w, &format!("S0 stage {i} ({}) stream {j}", stage.name()));
        }
    }
}

/// After warm-up, frozen forwards are steady-state clean: the scratch arena
/// stops growing (zero allocations per forward) and the packed-panel cache
/// is never rebuilt (zero re-packing) — the acceptance guarantee behind the
/// serving fast path.
#[test]
fn steady_state_frozen_forwards_neither_allocate_nor_repack() {
    let mut model = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(10));
    randomize_bn(&mut model, 77);
    let frozen = model.freeze().unwrap();
    let packs = meter::event_count("freeze.weights_packed");
    assert!(packs > 0, "freeze must have packed weight panels");

    let mut rng = StdRng::seed_from_u64(78);
    let x = Tensor::randn(Shape::new(2, 3, 32, 32), 1.0, &mut rng);

    // Warm-up: grow the thread-local scratch arena to this shape's peak.
    // The arena is shared per-thread, so retry until one full forward
    // completes without any heap growth.
    let mut warm = false;
    for _ in 0..8 {
        let before = meter::scratch_stats().heap_growths;
        let _ = frozen.forward(&x);
        if meter::scratch_stats().heap_growths == before {
            warm = true;
            break;
        }
    }
    assert!(warm, "scratch arena never reached steady state");

    let growths = meter::scratch_stats().heap_growths;
    let borrows = meter::scratch_stats().borrows;
    for _ in 0..4 {
        let _ = frozen.forward(&x);
    }
    assert!(
        meter::scratch_stats().borrows > borrows,
        "forwards must actually use the scratch arena"
    );
    assert_eq!(
        meter::scratch_stats().heap_growths,
        growths,
        "steady-state frozen forwards must not allocate"
    );
    assert_eq!(
        meter::event_count("freeze.weights_packed"),
        packs,
        "steady-state frozen forwards must not re-pack weight panels"
    );
}

/// Top-1 accuracy of a frozen classifier over `n` held-out SynthScale
/// samples (the frozen forms take `&self`, so this mirrors
/// `revbifpn_train::evaluate` by hand).
fn frozen_top1(frozen: &FrozenClassifier, data: &SynthScale, n: usize, batch: usize) -> f64 {
    let mut correct = 0usize;
    let mut i = 0;
    while i < n {
        let b = batch.min(n - i);
        let (images, labels) = data.batch(u32::MAX as u64 + i as u64, b);
        let logits = frozen.forward(&images);
        let classes = logits.shape().c;
        for (j, &label) in labels.iter().enumerate() {
            let row = &logits.data()[j * classes..(j + 1) * classes];
            let pred = row
                .iter()
                .copied()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map_or(0, |(k, _)| k);
            if pred == label {
                correct += 1;
            }
        }
        i += b;
    }
    correct as f64 / n as f64
}

/// The classification accuracy gate: on a TRAINED model, int8 quantization
/// must cost at most 0.5 points of top-1 over >= 512 held-out samples —
/// the acceptance bar behind `Precision::Int8` serving.
#[test]
fn quantization_accuracy_gate_classification() {
    let data = SynthScale::new(SynthScaleConfig::new(32), 5);
    let mut model = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(data.num_classes()));
    let cfg = TrainConfig { epochs: 3, train_size: 256, val_size: 128, ..TrainConfig::small() };
    let h = train_classifier(&mut model, &data, &cfg, RunMode::TrainReversible);
    assert!(
        h.final_val_acc() > 1.5 / data.num_classes() as f64,
        "model failed to train; the gate would be vacuous"
    );

    let frozen = model.freeze().unwrap();
    let quant = model.freeze_int8().unwrap();
    let acc_f32 = frozen_top1(&frozen, &data, 512, 32);
    let acc_int8 = frozen_top1(&quant, &data, 512, 32);
    assert!(
        acc_f32 - acc_int8 <= 0.005 + 1e-9,
        "int8 top-1 {acc_int8:.4} dropped more than 0.5 pt below f32 {acc_f32:.4}"
    );
}

/// The detection accuracy gate: int8 quantization of a trained detector
/// must cost at most 0.5 points of AP50 on held-out SynthDet scenes.
#[test]
fn quantization_accuracy_gate_detection() {
    let res = 32;
    let data = SynthDet::new(SynthDetConfig::new(res), 3);
    let backbone =
        RevBackbone::new(revbifpn::RevBiFPN::new(RevBiFPNConfig::tiny(3).with_resolution(res)), true);
    let mut det = Detector::new(Box::new(backbone), DetHeadConfig::new(3), 0);
    let mut opt = Sgd::new(0.9, 1e-4);
    let steps = 40;
    let schedule = LrSchedule::paper_like(0.02, steps);
    for step in 0..steps {
        let (images, objects) = data.batch((step * 8) as u64, 8);
        det.zero_grads();
        let (total, _, _) = det.train_step(&images, &objects);
        assert!(total.is_finite(), "loss blew up at step {step}");
        let _ = clip_grad_norm(|f| det.visit_params(f), 5.0);
        opt.step(schedule.lr(step), |f| det.visit_params(f));
    }
    det.clear_cache();

    let frozen = det.freeze().unwrap();
    let quant = det.freeze_int8().unwrap();
    let mut dets_f32 = Vec::new();
    let mut dets_int8 = Vec::new();
    let mut gts = Vec::new();
    for i in 0..32 {
        let s = data.sample(500_000 + i as u64);
        dets_f32.push(frozen.detect(&s.image).into_iter().next().unwrap());
        dets_int8.push(quant.detect(&s.image).into_iter().next().unwrap());
        gts.push(s.objects);
    }
    let ap_f32 = evaluate_box_ap(&dets_f32, &gts, 3, AreaRanges::scaled_to(res)).ap50;
    let ap_int8 = evaluate_box_ap(&dets_int8, &gts, 3, AreaRanges::scaled_to(res)).ap50;
    assert!(
        ap_f32 - ap_int8 <= 0.005 + 1e-9,
        "int8 AP50 {ap_int8:.4} dropped more than 0.5 pt below f32 {ap_f32:.4}"
    );
}
