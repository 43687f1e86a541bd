//! Pins the bits of frozen logits, f32 and int8, at every thread budget.
//!
//! The frozen forward runs independent units of work (a silo half's edges,
//! a block stage's streams, the neck's streams) as pool tasks whose kernels
//! run inline, and each sum is folded in a fixed order after the join. So
//! the logits must not depend on how many threads there are, and they must
//! not depend on how the forward schedules its work: the digests below were
//! recorded from a forward that ran every edge and stream in sequence and
//! split each op across the pool instead (the int8 digests were recorded
//! again when int8 became a weight format: its convs run the f32 kernels on
//! dequantized int8 weights, activations unquantized). `set_max_threads` is
//! process-wide, so this file holds exactly one test.

use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn::{FrozenClassifier, RevBiFPNClassifier, RevBiFPNConfig};
use revbifpn_tensor::{par, Shape, Tensor};

/// FNV-1a over the logits' shape and f32 bits.
fn digest(t: &Tensor) -> u64 {
    let s = t.shape();
    let dims = [s.n, s.c, s.h, s.w].map(|d| d as u32);
    let values = t.data().iter().flat_map(|v| v.to_bits().to_le_bytes());
    let bytes = dims.iter().flat_map(|d| d.to_le_bytes()).chain(values);
    bytes.fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The model with BN scales drawn off their init of 1, so folding them into
/// the convs is not the identity.
fn model(cfg: RevBiFPNConfig, seed: u64) -> RevBiFPNClassifier {
    let mut model = RevBiFPNClassifier::new(cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    model.visit_params(&mut |p| {
        if p.name == "bn.gamma" {
            p.value = Tensor::uniform(p.value.shape(), 0.5, 1.5, &mut rng);
        }
    });
    model
}

#[test]
fn frozen_logits_are_pinned_at_every_thread_count() {
    // (model, precision, batch) -> digest of the logits.
    let want: [(&str, &str, usize, u64); 8] = [
        ("tiny", "f32", 1, 0x4a62_bf3f_05ee_eee6),
        ("tiny", "f32", 3, 0xfb20_3c6c_6b0b_a590),
        ("tiny", "int8", 1, 0x0509_bae4_386e_f06c),
        ("tiny", "int8", 3, 0x1c04_ab8d_5390_6966),
        ("S0", "f32", 1, 0xcbc9_14f3_cae1_044c),
        ("S0", "f32", 3, 0x1bca_8430_22ce_3f65),
        ("S0", "int8", 1, 0x6572_98d7_7059_e605),
        ("S0", "int8", 3, 0x1448_53ae_2553_b444),
    ];
    let mut got = Vec::new();
    for (name, cfg, seed) in [("tiny", RevBiFPNConfig::tiny(10), 7), ("S0", RevBiFPNConfig::s0(1000), 8)] {
        let res = cfg.resolution;
        let model = model(cfg, seed);
        let frozen: [(&str, FrozenClassifier); 2] =
            [("f32", model.freeze().expect("freezes")), ("int8", model.freeze_int8().expect("freezes to int8"))];
        for (precision, f) in &frozen {
            for batch in [1, 3] {
                let x = Tensor::randn(Shape::new(batch, 3, res, res), 1.0, &mut StdRng::seed_from_u64(seed + 10));
                let per_budget: Vec<u64> = [1, 2, 4]
                    .map(|threads| {
                        par::set_max_threads(threads);
                        digest(&f.forward(&x))
                    })
                    .to_vec();
                par::set_max_threads(0);
                assert!(
                    per_budget.iter().all(|&d| d == per_budget[0]),
                    "{name} {precision} batch {batch}: logits differ across 1, 2, 4 threads: {per_budget:x?}"
                );
                got.push((name, *precision, batch, per_budget[0]));
            }
        }
    }
    assert_eq!(got, want, "frozen logits moved");
}
