//! The stage-pipelined training step's contract, end to end:
//!
//! * synchronous fill/drain steps are **bitwise** equal to the shard
//!   engine for random `(stages, micros, shards)` partitions;
//! * delayed-gradient runs are bit-deterministic run-to-run for a fixed
//!   `(seed, stages, micros, K)`;
//! * an injected reconstruction fault aborts the in-flight window
//!   cleanly — no wedged worker, no poisoned channel — and the same
//!   engine keeps training afterwards.

use proptest::prelude::*;
use revbifpn::{RevBiFPNClassifier, RevBiFPNConfig, RunMode};
use revbifpn_data::{SynthScale, SynthScaleConfig};
use revbifpn_nn::loss::{label_smooth, one_hot};
use revbifpn_nn::Module;
use revbifpn_rev::{DriftConfig, DriftPolicy, ReconFault};
use revbifpn_train::{
    train_classifier, train_classifier_with, train_pipeline_delayed, Fault, FaultPlan,
    PipelineConfig, PipelineEngine, RunOptions, ShardEngine, ShardStepFaults, TrainConfig,
    TrainHistory,
};
use revbifpn_tensor::Tensor;

fn tiny_setup() -> (RevBiFPNClassifier, SynthScale) {
    let data = SynthScale::new(SynthScaleConfig::new(32), 5);
    let model = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(data.num_classes()));
    (model, data)
}

fn batch16(data: &SynthScale) -> (Tensor, Tensor) {
    let (images, labels) = data.batch(0, 16);
    let targets = label_smooth(&one_hot(&labels, data.num_classes()), 0.1);
    (images, targets)
}

fn model_state(m: &mut RevBiFPNClassifier) -> (Vec<Tensor>, Vec<Tensor>, Vec<Tensor>) {
    let mut grads = Vec::new();
    m.visit_params(&mut |p| grads.push(p.grad.clone()));
    let mut params = Vec::new();
    m.visit_params(&mut |p| params.push(p.value.clone()));
    let mut buffers = Vec::new();
    m.visit_buffers(&mut |t| buffers.push(t.clone()));
    (grads, params, buffers)
}

fn delayed_cfg(stages: usize, micros: usize, staleness: usize) -> TrainConfig {
    TrainConfig {
        epochs: 2,
        train_size: 64,
        val_size: 32,
        batch_size: 16,
        // Delayed gradients tolerate a lower peak LR than synchronous
        // steps (the PETRA trade): small()'s 0.08 diverges under K >= 1.
        lr: 0.04,
        pipeline: PipelineConfig { stages, micros, shards: 1, staleness },
        ..TrainConfig::small()
    }
}

fn run_delayed(cfg: &TrainConfig) -> (TrainHistory, Vec<Tensor>, Vec<Tensor>) {
    let (mut model, data) = tiny_setup();
    let h = train_pipeline_delayed(&mut model, &data, cfg);
    let (_, params, buffers) = model_state(&mut model);
    (h, params, buffers)
}

#[test]
fn delayed_smoke_completes_and_learns() {
    let cfg = TrainConfig { epochs: 3, train_size: 128, ..delayed_cfg(2, 2, 1) };
    let (h, _, _) = run_delayed(&cfg);
    assert_eq!(h.epochs.len(), 3);
    assert!(!h.aborted);
    let first = h.epochs[0].train_loss;
    let last = h.epochs[2].train_loss;
    assert!(last.is_finite());
    assert!(last < first, "delayed loss did not decrease: {:?}", h.epochs);
    assert_eq!(h.phases.stage_occupancy.len(), 2);
    assert!((0.0..=1.0).contains(&h.phases.bubble_fraction));
}

#[test]
fn delayed_runs_are_deterministic() {
    let cfg = delayed_cfg(2, 2, 2);
    let (h1, p1, b1) = run_delayed(&cfg);
    let (h2, p2, b2) = run_delayed(&cfg);
    assert!(!h1.aborted && !h2.aborted);
    for (a, b) in h1.epochs.iter().zip(&h2.epochs) {
        assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits(), "loss diverged");
        assert_eq!(a.train_acc.to_bits(), b.train_acc.to_bits(), "train acc diverged");
        assert_eq!(a.val_acc.to_bits(), b.val_acc.to_bits(), "val acc diverged");
    }
    for (i, (x, y)) in p1.iter().zip(&p2).enumerate() {
        assert_eq!(x.data(), y.data(), "param {i} diverged");
    }
    for (i, (x, y)) in b1.iter().zip(&b2).enumerate() {
        assert_eq!(x.data(), y.data(), "buffer {i} diverged");
    }
}

/// The PETRA claim at miniature scale: bounded staleness costs almost
/// nothing in final quality (within 0.5 pt of serial top-1 here). Both
/// runs are deterministic, so this gap is a fixed property of the
/// configuration, not a flaky margin. Heavyweight (two full training
/// runs): ignored by default, run in release by `ci.sh`.
#[test]
#[ignore = "two full training runs; ci.sh runs this with --release"]
fn delayed_tracks_serial_accuracy() {
    let cfg = TrainConfig {
        epochs: 12,
        train_size: 256,
        val_size: 256,
        lr: 0.03,
        ..delayed_cfg(2, 2, 1)
    };
    let (mut serial_model, data) = tiny_setup();
    let serial_cfg = TrainConfig { pipeline: PipelineConfig::disabled(), ..cfg };
    let hs = train_classifier(&mut serial_model, &data, &serial_cfg, RunMode::TrainReversible);
    let (hd, _, _) = run_delayed(&cfg);
    let gap = (hs.final_val_acc() - hd.final_val_acc()).abs();
    assert!(
        gap <= 0.005 + 1e-12,
        "delayed val acc {:.4} drifted more than 0.5 pt from serial {:.4}",
        hd.final_val_acc(),
        hs.final_val_acc()
    );
}

#[test]
fn sync_pipeline_training_run_matches_sharded_run() {
    // Whole-run equivalence through the trainer: pipelined steps vs the
    // established shard engine, identical seeds -> bitwise-identical
    // history and parameters.
    let base = TrainConfig {
        epochs: 1,
        train_size: 48,
        val_size: 32,
        batch_size: 16,
        ..TrainConfig::small()
    };
    let (mut m1, data) = tiny_setup();
    let (mut m2, _) = tiny_setup();
    let sharded = TrainConfig { shards: 2, ..base };
    let piped = TrainConfig { pipeline: PipelineConfig::sync(2, 2), ..base };
    let h1 = train_classifier(&mut m1, &data, &sharded, RunMode::TrainReversible);
    let h2 = train_classifier(&mut m2, &data, &piped, RunMode::TrainReversible);
    for (a, b) in h1.epochs.iter().zip(&h2.epochs) {
        assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits(), "loss diverged");
        assert_eq!(a.val_acc.to_bits(), b.val_acc.to_bits(), "val acc diverged");
    }
    let (_, p1, b1) = model_state(&mut m1);
    let (_, p2, b2) = model_state(&mut m2);
    for (i, (x, y)) in p1.iter().zip(&p2).enumerate() {
        assert_eq!(x.data(), y.data(), "param {i} diverged");
    }
    for (i, (x, y)) in b1.iter().zip(&b2).enumerate() {
        assert_eq!(x.data(), y.data(), "buffer {i} diverged");
    }
}

#[test]
fn faulted_pipeline_run_aborts_step_and_recovers() {
    // A reconstruction bit-flip at step 1 must trip that step only: the
    // abort drains the whole pipeline window without leaking a task or
    // poisoning a channel, the snapshot restores, and the run finishes.
    let (mut model, data) = tiny_setup();
    let mut cfg = TrainConfig {
        epochs: 1,
        train_size: 64,
        val_size: 32,
        batch_size: 16,
        pipeline: PipelineConfig::sync(2, 2),
        ..TrainConfig::small()
    };
    cfg.resilience.drift = DriftConfig { policy: DriftPolicy::Abort, ..DriftConfig::default() };
    let opts = RunOptions {
        faults: FaultPlan::none().with(Fault::ActivationBitFlip {
            step: 1,
            fault: ReconFault { stage: 4, stream: 0, index: 0, bit: 30 },
        }),
        ..RunOptions::default()
    };
    let h = train_classifier_with(&mut model, &data, &cfg, RunMode::TrainReversible, &opts);
    assert_eq!(h.nonfinite_skips, 1, "the injected fault must trip exactly one step");
    assert!(!h.aborted, "a single trip must not abort the run");
    assert_eq!(h.epochs.len(), 1);
    assert!(h.epochs[0].train_loss.is_finite());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One synchronous pipelined step over a random partition must be
    /// bitwise equal to the shard engine on the same batch.
    #[test]
    fn sync_step_bitwise_equal_over_random_partitions(
        stages in 1usize..=4,
        micros_log in 0u32..=2,
        inner_log in 0u32..=1,
        shard_log in 0u32..=2,
    ) {
        let micros = 1usize << micros_log;
        let inner = 1usize << inner_log;
        let (mut m_ref, data) = tiny_setup();
        let (mut m_pipe, _) = tiny_setup();
        let (images, targets) = batch16(&data);
        let faults = ShardStepFaults::default();

        let mut shard = ShardEngine::new(m_ref.cfg(), 1 << shard_log, DriftConfig::default());
        let want = shard.step(&mut m_ref, &images, &targets, RunMode::TrainReversible, &faults);
        shard.apply_bn_stats(&mut m_ref);

        let pcfg = PipelineConfig { stages, micros, shards: inner, staleness: 0 };
        let mut pipe = PipelineEngine::new(m_pipe.cfg(), &pcfg, DriftConfig::default());
        let got = pipe.step(&mut m_pipe, &images, &targets, RunMode::TrainReversible, &faults);
        pipe.apply_bn_stats(&mut m_pipe);

        prop_assert!(want.backward_ran && got.backward_ran);
        prop_assert_eq!(want.logits.data(), got.logits.data(), "logits diverged");
        prop_assert_eq!(want.loss.to_bits(), got.loss.to_bits(), "loss diverged");
        let (g_ref, _, b_ref) = model_state(&mut m_ref);
        let (g_pipe, _, b_pipe) = model_state(&mut m_pipe);
        for (i, (a, b)) in g_ref.iter().zip(&g_pipe).enumerate() {
            prop_assert_eq!(a.data(), b.data(), "grad {} diverged", i);
        }
        for (i, (a, b)) in b_ref.iter().zip(&b_pipe).enumerate() {
            prop_assert_eq!(a.data(), b.data(), "buffer {} diverged", i);
        }
    }

    /// Delayed-gradient runs must be bit-deterministic for any fixed
    /// `(stages, K)` and abort-free on clean data.
    #[test]
    fn delayed_deterministic_over_random_configs(
        stages in 1usize..=3,
        staleness in 1usize..=2,
    ) {
        let mut cfg = delayed_cfg(stages, 2, staleness);
        cfg.epochs = 1;
        let (h1, p1, _) = run_delayed(&cfg);
        let (h2, p2, _) = run_delayed(&cfg);
        prop_assert!(!h1.aborted && !h2.aborted);
        for (a, b) in h1.epochs.iter().zip(&h2.epochs) {
            prop_assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits());
            prop_assert_eq!(a.val_acc.to_bits(), b.val_acc.to_bits());
        }
        for (i, (x, y)) in p1.iter().zip(&p2).enumerate() {
            prop_assert_eq!(x.data(), y.data(), "param {} diverged", i);
        }
    }
}
