//! Integration tests pinning the paper's memory claims at reduced scale:
//! O(1)-in-depth reversible activation memory vs Θ(d) conventional
//! (Figure 4), resolution scaling with a constant advantage ratio
//! (Figure 12), the RevSHNet hourglass-transient overhead (Figures 8/9),
//! and the cross-validation of the analytic memory model against the
//! byte-exact runtime meter.
//!
//! The paper measured PyTorch, so its magnitudes are per-op autograd's saved
//! tensors ([`Accounting::Autograd`]); the shape claims hold in that
//! accounting and in this repo's own layout ([`Accounting::Layout`]), and
//! `paper_scale_memory_model_matches_table2_magnitudes` compares magnitudes,
//! so it reads `Autograd` alone.

use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn::stats::memory_breakdown;
use revbifpn::{RevBiFPNClassifier, RevBiFPNConfig, RunMode};
use revbifpn_baselines::{EfficientNet, EfficientNetConfig, RevShNet, RevShNetConfig};
use revbifpn_nn::Accounting;
use revbifpn_tensor::{Shape, Tensor};

#[test]
fn figure4_constant_vs_linear_depth_scaling_measured() {
    let mut rng = StdRng::seed_from_u64(0);
    let x = Tensor::randn(Shape::new(4, 3, 32, 32), 1.0, &mut rng);
    let mut rev = Vec::new();
    let mut conv = Vec::new();
    for d in [1usize, 3, 5] {
        let mut m = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(10).with_depth(d));
        let (p_rev, _) = m.measure_step(&x, RunMode::TrainReversible);
        let (p_conv, _) = m.measure_step(&x, RunMode::TrainConventional);
        rev.push(p_rev as f64);
        conv.push(p_conv as f64);
    }
    // Conventional grows substantially (Θ(d))...
    assert!(conv[2] > 1.8 * conv[0], "conventional not linear-ish: {conv:?}");
    // ...reversible stays within 10% (O(1)).
    assert!(rev[2] < 1.1 * rev[0], "reversible not constant: {rev:?}");
}

#[test]
fn figure12_resolution_scaling_preserves_advantage() {
    for acct in [Accounting::Autograd, Accounting::Layout] {
        let ratio_at = |res: usize| {
            let mut m = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(10).with_resolution(res));
            let rev = memory_breakdown(&mut m, 2, RunMode::TrainReversible, acct);
            let conv = memory_breakdown(&mut m, 2, RunMode::TrainConventional, acct);
            (conv.activations as f64) / (rev.activations + rev.transient) as f64
        };
        let r32 = ratio_at(32);
        let r64 = ratio_at(64);
        let r128 = ratio_at(128);
        // Both regimes are quadratic in resolution, so the advantage ratio is
        // a near-constant offset (paper: "creates a memory offset").
        assert!(r32 > 2.0 && r64 > 2.0 && r128 > 2.0, "{acct:?}: {r32} {r64} {r128}");
        assert!((r64 / r32 - 1.0).abs() < 0.25, "{acct:?}: {r32} vs {r64}");
        assert!((r128 / r64 - 1.0).abs() < 0.25, "{acct:?}: {r64} vs {r128}");
    }
}

#[test]
fn figures8_9_revshnet_transient_dominates() {
    // RevSHNet must rematerialize an entire hourglass per block; RevBiFPN
    // only one silo/block stage. At matched full-res channels the hourglass
    // transient exceeds RevBiFPN's.
    let res = 64;
    let sh = RevShNet::new(RevShNetConfig::micro().with_resolution(res).with_depth(3));
    let mut cfg = RevBiFPNConfig::tiny(10).with_resolution(res).with_depth(3);
    cfg.channels = vec![16, 16, 16];
    cfg.neck_channels = vec![16, 16, 16];
    cfg.expansion = vec![1.0, 1.0, 1.0];
    let m = RevBiFPNClassifier::new(cfg);
    for acct in [Accounting::Autograd, Accounting::Layout] {
        let sh_rev = sh.activation_bytes_rev(1, res, acct);
        let bifpn_rev = m.backbone().cache_bytes(1, revbifpn_nn::CacheMode::Stats, acct)
            + m.backbone().pyramid_shapes(1).iter().map(|s| s.bytes() as u64).sum::<u64>()
            + m.backbone().peak_transient_bytes(1, acct);
        assert!(
            sh_rev as f64 > 1.1 * bifpn_rev as f64,
            "{acct:?}: hourglass transient should dominate: SHNet {sh_rev} vs BiFPN {bifpn_rev}"
        );
    }
}

#[test]
fn table2_shape_revbifpn_beats_efficientnet_per_sample() {
    // At matched miniature scale, reversible RevBiFPN's per-sample training
    // memory is well below conventional EfficientNet's at the same input
    // size (the Table 2 comparison).
    let mut m = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(10).with_resolution(64));
    let eff = EfficientNet::new(EfficientNetConfig::micro(10));
    for acct in [Accounting::Autograd, Accounting::Layout] {
        let rev = memory_breakdown(&mut m, 1, RunMode::TrainReversible, acct);
        let eff_bytes = eff.activation_bytes_at(1, 64, acct);
        let rev_bytes = rev.activations + rev.transient;
        assert!(
            (rev_bytes as f64) < 0.8 * eff_bytes as f64,
            "{acct:?}: rev {rev_bytes} vs effnet {eff_bytes}"
        );
    }
}

#[test]
fn paper_scale_memory_model_matches_table2_magnitudes() {
    // The analytic model at true paper scale: RevBiFPN-S6 per-sample
    // reversible memory should land in the paper's 0.25GB ballpark (we
    // measure accounted bytes, the paper CUDA GBs; within 2x is a pass).
    let cfg = RevBiFPNConfig::scaled(6, 1000);
    let mut m = RevBiFPNClassifier::new(cfg);
    let rev = memory_breakdown(&mut m, 1, RunMode::TrainReversible, Accounting::Autograd);
    let gb = rev.activation_gb_per_sample(1);
    assert!((0.12..=0.51).contains(&gb), "S6 rev mem {gb} GB vs paper 0.254 GB");
}

#[test]
fn meter_peak_equals_the_layout_activation_bytes() {
    // The analytic activation bytes in this repo's layout are exactly what
    // the meter sees at the peak of a training step, in both regimes.
    let mut rng = StdRng::seed_from_u64(2);
    let cases = [("tiny", RevBiFPNConfig::tiny(10), 2), ("S0@96", RevBiFPNConfig::s0(10).with_resolution(96), 4)];
    for (name, cfg, n) in cases {
        let res = cfg.resolution;
        let mut m = RevBiFPNClassifier::new(cfg);
        let x = Tensor::randn(Shape::new(n, 3, res, res), 1.0, &mut rng);
        for mode in [RunMode::TrainReversible, RunMode::TrainConventional] {
            let (peak, _) = m.measure_step(&x, mode);
            let analytic = m.activation_bytes(n, mode, Accounting::Layout);
            assert_eq!(peak as u64, analytic, "{name} b{n} {mode:?}: meter peak vs layout activation bytes");
        }
    }
}

#[test]
fn meter_zeroes_after_full_cycle() {
    // No leaked cache registrations across a full train step of every mode.
    let mut rng = StdRng::seed_from_u64(1);
    let x = Tensor::randn(Shape::new(2, 3, 32, 32), 1.0, &mut rng);
    let mut m = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(10));
    for mode in [RunMode::TrainReversible, RunMode::TrainConventional] {
        revbifpn_nn::meter::reset();
        let (_, _) = m.measure_step(&x, mode);
        assert_eq!(revbifpn_nn::meter::current(), 0, "leak after {mode:?}");
    }
}
