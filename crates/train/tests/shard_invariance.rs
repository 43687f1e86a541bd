//! The sharded training step's determinism contract, end to end: merged
//! gradients, losses, BN statistics, and whole training runs must be
//! **bitwise** invariant to the micro-batch shard count and the thread
//! count — including the resilience paths (non-finite tripwire, drift
//! sentinel).

use proptest::prelude::*;
use revbifpn::{RevBiFPNClassifier, RevBiFPNConfig, RunMode};
use revbifpn_data::{SynthScale, SynthScaleConfig};
use revbifpn_nn::Module;
use revbifpn_rev::ReconFault;
use revbifpn_tensor::{par, Tensor};
use revbifpn_train::{
    train_classifier, train_classifier_with, Fault, FaultPlan, RunOptions, ShardEngine,
    ShardStepFaults, TrainConfig,
};
use std::sync::Mutex;

/// `par::set_max_threads` is process-global; tests that touch it must not
/// interleave.
static THREAD_KNOB: Mutex<()> = Mutex::new(());

fn lock_threads() -> std::sync::MutexGuard<'static, ()> {
    THREAD_KNOB.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny_setup() -> (RevBiFPNClassifier, SynthScale) {
    let data = SynthScale::new(SynthScaleConfig::new(32), 5);
    let model = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(data.num_classes()));
    (model, data)
}

fn train_cfg(shards: usize) -> TrainConfig {
    TrainConfig {
        epochs: 1,
        train_size: 32,
        val_size: 16,
        batch_size: 16,
        shards,
        ..TrainConfig::small()
    }
}

/// Runs one short training run and returns (per-epoch losses, skips,
/// final parameter values, final buffer values).
fn run_training(
    cfg: TrainConfig,
    threads: usize,
    faults: FaultPlan,
) -> (Vec<f64>, u64, Vec<Tensor>, Vec<Tensor>) {
    par::set_max_threads(threads);
    let (mut model, data) = tiny_setup();
    let opts = RunOptions { faults, ..RunOptions::default() };
    let h = train_classifier_with(&mut model, &data, &cfg, RunMode::TrainReversible, &opts);
    par::set_max_threads(0);
    let losses = h.epochs.iter().map(|e| e.train_loss).collect();
    let mut params = Vec::new();
    model.visit_params(&mut |p| params.push(p.value.clone()));
    let mut buffers = Vec::new();
    model.visit_buffers(&mut |t| buffers.push(t.clone()));
    (losses, h.nonfinite_skips, params, buffers)
}

fn assert_bitwise_equal_runs(
    a: &(Vec<f64>, u64, Vec<Tensor>, Vec<Tensor>),
    b: &(Vec<f64>, u64, Vec<Tensor>, Vec<Tensor>),
    label: &str,
) {
    assert_eq!(a.0, b.0, "{label}: per-epoch losses diverged");
    assert_eq!(a.1, b.1, "{label}: skip counts diverged");
    assert_eq!(a.2.len(), b.2.len(), "{label}: param count diverged");
    for (i, (x, y)) in a.2.iter().zip(&b.2).enumerate() {
        assert_eq!(x, y, "{label}: param {i} diverged");
    }
    for (i, (x, y)) in a.3.iter().zip(&b.3).enumerate() {
        assert_eq!(x, y, "{label}: buffer {i} diverged");
    }
}

#[test]
fn clean_training_run_is_shard_and_thread_invariant() {
    let _g = lock_threads();
    let baseline = run_training(train_cfg(1), 1, FaultPlan::none());
    assert_eq!(baseline.1, 0, "clean run must not skip steps");
    for &(shards, threads) in &[(1usize, 4usize), (2, 1), (2, 4), (4, 1), (4, 4)] {
        let run = run_training(train_cfg(shards), threads, FaultPlan::none());
        assert_bitwise_equal_runs(&baseline, &run, &format!("S={shards} T={threads}"));
    }
}

#[test]
fn faulted_training_run_is_shard_invariant() {
    // A NaN-poisoned gradient at step 0 (non-finite tripwire) and a
    // reconstruction bit flip at step 1 (drift sentinel, fallback policy):
    // both must skip the step and roll back identically for every shard
    // count.
    let _g = lock_threads();
    // Flip a fingerprint-sampled position (index 0 is always sampled) so
    // the drift sentinel detects the corruption regardless of whether the
    // flip grows or shrinks the value.
    let plan = FaultPlan::none().with(Fault::NanGrad { step: 0 }).with(Fault::ActivationBitFlip {
        step: 1,
        fault: ReconFault { stage: 0, stream: 0, index: 0, bit: 30 },
    });
    let cfg_for = |shards: usize| {
        let mut cfg = train_cfg(shards);
        cfg.resilience.drift.policy = revbifpn_rev::DriftPolicy::FallbackToCached;
        cfg
    };
    let baseline = run_training(cfg_for(1), 1, plan.clone());
    assert_eq!(baseline.1, 2, "both faults must trip their steps");
    for &(shards, threads) in &[(2usize, 1usize), (2, 4), (4, 1), (4, 4)] {
        let run = run_training(cfg_for(shards), threads, plan.clone());
        assert_bitwise_equal_runs(&baseline, &run, &format!("faulted S={shards} T={threads}"));
    }
}

/// FNV-1a 64 over the bits of every parameter value, then every buffer, in
/// walk order.
fn state_digest(model: &mut RevBiFPNClassifier) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |t: &Tensor| {
        for b in t.data().iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    model.visit_params(&mut |p| eat(&p.value));
    model.visit_buffers(&mut |t| eat(t));
    hash
}

#[test]
fn serial_training_reproduces_pinned_weights() {
    // The serial step (`shards: 0`, coupled BatchNorm) carries the Fig. 14
    // claim. These digests were recorded from the serial step as the
    // trainer runs it inline; whatever executes it (e.g. a single coupled
    // `ShardEngine` shard) must reproduce them: every parameter and BN
    // buffer after two epochs (the second batch of each is ragged) bit for
    // bit, in both regimes, with and without stochastic layers, for any
    // thread count.
    let _g = lock_threads();
    let data = SynthScale::new(SynthScaleConfig::new(32), 5);
    let cfg = TrainConfig { epochs: 2, train_size: 24, val_size: 16, batch_size: 16, shards: 0, ..TrainConfig::small() };
    let pinned: [(RunMode, f32, f32, usize, u64); 8] = [
        (RunMode::TrainReversible, 0.0, 0.0, 1, 0xdc2e_fa8d_7f2d_3731),
        (RunMode::TrainReversible, 0.0, 0.0, 4, 0xdc2e_fa8d_7f2d_3731),
        (RunMode::TrainReversible, 0.25, 0.1, 1, 0x992e_1218_2397_ebbf),
        (RunMode::TrainReversible, 0.25, 0.1, 4, 0x992e_1218_2397_ebbf),
        (RunMode::TrainConventional, 0.0, 0.0, 1, 0xa32b_5d63_d2b9_45c1),
        (RunMode::TrainConventional, 0.0, 0.0, 4, 0xa32b_5d63_d2b9_45c1),
        (RunMode::TrainConventional, 0.25, 0.1, 1, 0x6a06_d83e_b43e_b654),
        (RunMode::TrainConventional, 0.25, 0.1, 4, 0x6a06_d83e_b43e_b654),
    ];
    let mut got = Vec::new();
    for (mode, dropout, drop_path, threads, _) in pinned {
        par::set_max_threads(threads);
        let cfg_model = RevBiFPNConfig { dropout, drop_path, ..RevBiFPNConfig::tiny(data.num_classes()) };
        let mut model = RevBiFPNClassifier::new(cfg_model);
        let h = train_classifier(&mut model, &data, &cfg, mode);
        par::set_max_threads(0);
        assert_eq!((h.epochs.len(), h.nonfinite_skips), (2, 0));
        got.push((mode, dropout, drop_path, threads, state_digest(&mut model)));
    }
    for (g, want) in got.iter().zip(&pinned) {
        assert_eq!(g.4, want.4, "{:?} dropout {} drop-path {} T={}: weights moved (all: {got:#x?})", g.0, g.1, g.2, g.3);
    }
}

/// One engine-level step: returns (loss, logits, merged grads, buffers
/// after BN-stat application).
fn engine_step(
    shards: usize,
    threads: usize,
    batch_start: u64,
) -> (f64, Tensor, Vec<Tensor>, Vec<Tensor>) {
    par::set_max_threads(threads);
    let (mut model, data) = tiny_setup();
    let mut engine =
        ShardEngine::new(model.cfg(), shards, revbifpn_rev::DriftConfig::default());
    let (images, labels) = data.batch(batch_start, 16);
    let targets = revbifpn_nn::loss::label_smooth(
        &revbifpn_nn::loss::one_hot(&labels, data.num_classes()),
        0.1,
    );
    let out = engine.step(
        &mut model,
        &images,
        &targets,
        RunMode::TrainReversible,
        &ShardStepFaults::default(),
    );
    assert!(out.backward_ran);
    assert_eq!(out.shards_used, shards);
    engine.apply_bn_stats(&mut model);
    par::set_max_threads(0);
    let mut grads = Vec::new();
    model.visit_params(&mut |p| grads.push(p.grad.clone()));
    let mut buffers = Vec::new();
    model.visit_buffers(&mut |t| buffers.push(t.clone()));
    (out.loss, out.logits, grads, buffers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn sharded_step_grads_and_loss_match_single_shard(
        batch_start in 0u64..64,
        shards in prop::sample::select(vec![2usize, 4]),
        threads in prop::sample::select(vec![1usize, 4]),
    ) {
        let _g = lock_threads();
        let (l1, logits1, g1, b1) = engine_step(1, 1, batch_start);
        let (ls, logits_s, gs, bs) = engine_step(shards, threads, batch_start);
        prop_assert_eq!(l1.to_bits(), ls.to_bits(), "loss diverged");
        prop_assert_eq!(&logits1, &logits_s);
        prop_assert_eq!(g1.len(), gs.len());
        for (x, y) in g1.iter().zip(&gs) {
            prop_assert_eq!(x, y);
        }
        for (x, y) in b1.iter().zip(&bs) {
            prop_assert_eq!(x, y);
        }
    }
}
