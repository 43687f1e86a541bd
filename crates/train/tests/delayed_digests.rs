//! Pinned bits of delayed-gradient (PETRA schedule) runs on `tiny`: every
//! epoch's train loss, train accuracy and validation accuracy, and one
//! FNV-1a digest over the final parameters and BatchNorm buffers, for four
//! `(stages P, staleness K, micros m)` schedules.
//!
//! The pins hold the schedule to three rules: step `t` runs with every
//! parameter and the stem's BN buffers at version `t - K` (the values after
//! the updates of steps `0..t-K`); the body, neck and head BN running
//! statistics it normalizes with are the current ones; and the update after
//! step `t` is one element-wise SGD step at `lr(t)`, applied in step order.
//! `tiny`'s space-to-depth stem has no BatchNorm, so the last pin runs it
//! with the convolutional stem, whose BN buffers the first rule moves.

use revbifpn::{RevBiFPNClassifier, RevBiFPNConfig, StemKind};
use revbifpn_data::{SynthScale, SynthScaleConfig};
use revbifpn_nn::Module;
use revbifpn_train::{train_pipeline_delayed, PipelineConfig, TrainConfig};

fn delayed_cfg(stages: usize, micros: usize, staleness: usize) -> TrainConfig {
    TrainConfig {
        epochs: 2,
        train_size: 64,
        val_size: 32,
        batch_size: 16,
        lr: 0.04,
        pipeline: PipelineConfig { stages, micros, shards: 1, staleness },
        ..TrainConfig::small()
    }
}

/// FNV-1a (64-bit) over the little-endian bits of every parameter value,
/// then every persistent buffer, in walk order.
fn state_digest(model: &mut RevBiFPNClassifier) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |t: &revbifpn_tensor::Tensor| {
        for v in t.data() {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    };
    model.visit_params(&mut |p| eat(&p.value));
    model.visit_buffers(&mut |t| eat(t));
    h
}

/// `(P, K, m)`, the stem, then per epoch `(train_loss, train_acc, val_acc)`
/// bits, then the state digest.
type Pin = ((usize, usize, usize), StemKind, [[u64; 3]; 2], u64);

const PINS: [Pin; 5] = [
    ((1, 1, 2), StemKind::SpaceToDepth, [[0x4006c1839c7da0cc, 0x3fb8000000000000, 0x3fb0000000000000], [0x4006b6033a67a9d5, 0x3fbc000000000000, 0x3fb8000000000000]], 0x583947a1a8b9ee47),
    ((2, 1, 2), StemKind::SpaceToDepth, [[0x4006c1839c7da0cc, 0x3fb8000000000000, 0x3fb0000000000000], [0x4006b6033a67a9d5, 0x3fbc000000000000, 0x3fb8000000000000]], 0x583947a1a8b9ee47),
    ((3, 2, 2), StemKind::SpaceToDepth, [[0x4006f12db72e2521, 0x3fb8000000000000, 0x3fb0000000000000], [0x4007017028855ec4, 0x3fb4000000000000, 0x3fb8000000000000]], 0xf32b8167a2aefba1),
    ((2, 1, 4), StemKind::SpaceToDepth, [[0x4006c1839c7da0cc, 0x3fb8000000000000, 0x3fb0000000000000], [0x4006b6033a67a9d5, 0x3fbc000000000000, 0x3fb8000000000000]], 0x583947a1a8b9ee47),
    ((2, 1, 2), StemKind::Convolutional, [[0x4006891d4f43d5c4, 0x3fa8000000000000, 0x3fb8000000000000], [0x4006c0fc9adf2274, 0x3fc2000000000000, 0x3fa0000000000000]], 0xda36c25bd031e54e),
];

#[test]
fn delayed_runs_reproduce_their_pinned_bits() {
    let mut failures = Vec::new();
    for ((p, k, m), stem, epochs, digest) in PINS {
        let data = SynthScale::new(SynthScaleConfig::new(32), 5);
        let mut model = RevBiFPNClassifier::new(RevBiFPNConfig { stem, ..RevBiFPNConfig::tiny(data.num_classes()) });
        let h = train_pipeline_delayed(&mut model, &data, &delayed_cfg(p, m, k));
        assert!(!h.aborted, "P{p} K{k} m{m} {stem:?} stem: a clean delayed run aborted");
        let got: Vec<[u64; 3]> = h
            .epochs
            .iter()
            .map(|e| [e.train_loss.to_bits(), e.train_acc.to_bits(), e.val_acc.to_bits()])
            .collect();
        let got_digest = state_digest(&mut model);
        if got != epochs || got_digest != digest {
            failures.push(format!(
                "(({p}, {k}, {m}), StemKind::{stem:?}, [{}], {got_digest:#018x}),",
                got.iter()
                    .map(|e| format!("[{:#018x}, {:#018x}, {:#018x}]", e[0], e[1], e[2]))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
    }
    assert!(failures.is_empty(), "delayed runs left their pins; they read:\n{}", failures.join("\n"));
}
