//! End-to-end proof of the resilience layer: deterministic faults are
//! injected into real training runs and each recovery path is shown to
//! complete with final accuracy at (or bit-exactly equal to) the clean
//! run's — NaN gradients via the tripwires, reconstruction drift via the
//! sentinel's cached fallback, a simulated crash via checkpoint
//! auto-resume, and a torn checkpoint via quarantine.

use revbifpn::{RevBiFPNClassifier, RevBiFPNConfig, RunMode};
use revbifpn_data::{SynthScale, SynthScaleConfig};
use revbifpn_nn::checkpoint::load_blobs;
use revbifpn_rev::{DriftPolicy, ReconFault};
use revbifpn_tensor::Tensor;
use revbifpn_train::{
    tear_file, train_classifier, train_classifier_with, CheckpointCfg, Fault, FaultPlan,
    PipelineConfig, RunOptions, TrainConfig,
};
use std::path::PathBuf;

fn setup() -> (RevBiFPNClassifier, SynthScale) {
    setup_stochastic(0.0, 0.0)
}

/// `setup()` with dropout and drop-path probabilities.
fn setup_stochastic(dropout: f32, drop_path: f32) -> (RevBiFPNClassifier, SynthScale) {
    let data = SynthScale::new(SynthScaleConfig::new(32), 5);
    let cfg = RevBiFPNConfig { dropout, drop_path, ..RevBiFPNConfig::tiny(data.num_classes()) };
    (RevBiFPNClassifier::new(cfg), data)
}

/// 6-step run (2 epochs x 3 steps) with a validation set large enough for
/// sub-1% accuracy granularity.
fn small_cfg() -> TrainConfig {
    TrainConfig { epochs: 2, train_size: 48, val_size: 128, batch_size: 16, ..TrainConfig::small() }
}

fn params_of(model: &mut RevBiFPNClassifier) -> Vec<Tensor> {
    let mut out = Vec::new();
    model.visit_params(&mut |p| out.push(p.value.clone()));
    out
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("revbifpn_fault_injection_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn nan_gradient_step_is_skipped_and_run_recovers() {
    let cfg = small_cfg();
    let (mut clean, data) = setup();
    let h_clean = train_classifier(&mut clean, &data, &cfg, RunMode::TrainReversible);

    let (mut faulted, _) = setup();
    let opts = RunOptions {
        faults: FaultPlan::none().with(Fault::NanGrad { step: 5 }),
        ..RunOptions::default()
    };
    let h = train_classifier_with(&mut faulted, &data, &cfg, RunMode::TrainReversible, &opts);

    assert_eq!(h.nonfinite_skips, 1, "exactly the faulted step should be skipped");
    assert!(!h.aborted && !h.killed);
    assert_eq!(h.epochs.len(), cfg.epochs);
    let diff = (h.final_val_acc() - h_clean.final_val_acc()).abs();
    assert!(
        diff <= 0.01,
        "faulted run acc {:.4} deviates from clean {:.4} by more than 1%",
        h.final_val_acc(),
        h_clean.final_val_acc()
    );
}

/// Runs `cfg` with one fault and per-step checkpoints; returns the history
/// and every non-meta blob of the `ckpt_step`-th checkpoint: the parameters,
/// BN buffers and SGD momentum the run held when it wrote it.
fn run_checkpointed(
    data: &SynthScale,
    cfg: &TrainConfig,
    fault: Fault,
    ckpt_step: usize,
    tag: &str,
) -> (revbifpn_train::TrainHistory, Vec<(String, Vec<f32>)>) {
    let mut ck = CheckpointCfg::new(tmp_dir(tag));
    ck.every_steps = 1;
    let (mut model, _) = setup();
    let opts = RunOptions {
        faults: FaultPlan::none().with(fault),
        checkpoint: Some(ck.clone()),
        auto_resume: false,
    };
    let h = train_classifier_with(&mut model, data, cfg, RunMode::TrainReversible, &opts);
    let mut blobs = load_blobs(ck.dir.join(format!("ckpt_step_{ckpt_step:08}.ckpt"))).unwrap();
    assert_eq!(blobs.remove(0).0, "meta");
    std::fs::remove_dir_all(&ck.dir).unwrap();
    (h, blobs)
}

#[test]
fn persistent_nan_aborts_after_bounded_retries() {
    let engines = [
        ("serial", small_cfg()),
        ("shard2", TrainConfig { shards: 2, ..small_cfg() }),
        ("pipe_p2m2", TrainConfig { pipeline: PipelineConfig::sync(2, 2), ..small_cfg() }),
    ];
    for (name, cfg) in engines {
        let (mut model, data) = setup();
        let faults = (0..6).fold(FaultPlan::none(), |p, s| p.with(Fault::NanGrad { step: s }));
        let opts = RunOptions { faults, ..RunOptions::default() };
        let h = train_classifier_with(&mut model, &data, &cfg, RunMode::TrainReversible, &opts);
        assert!(h.aborted, "{name}: unrecoverable NaNs must abort, not loop forever");
        // max_retries (3) consecutive trips tolerated, the 4th aborts.
        assert_eq!(h.nonfinite_skips, u64::from(cfg.resilience.max_retries) + 1, "{name}");

        // A tripped step leaves nothing behind: a run that trips at step K
        // and gives up checkpoints, after its rollback, the state a clean
        // run checkpoints after step K-1 — parameters, BN buffers and
        // momentum, bit for bit.
        const K: usize = 2;
        let mut cfg = cfg;
        cfg.resilience.max_retries = 0;
        cfg.resilience.drift.policy = DriftPolicy::FallbackToCached;
        let (h_clean, clean) =
            run_checkpointed(&data, &cfg, Fault::Kill { step: K - 1 }, K, &format!("{name}_clean"));
        assert!(h_clean.killed && h_clean.nonfinite_skips == 0, "{name}");
        for section in ["param/", "buf/", "sgd/"] {
            assert!(clean.iter().any(|(n, _)| n.starts_with(section)), "{name}: no {section} blob");
        }
        let trips = [
            ("nan", Fault::NanGrad { step: K }),
            (
                "bitflip",
                Fault::ActivationBitFlip {
                    step: K,
                    fault: ReconFault { stage: 0, stream: 0, index: 0, bit: 30 },
                },
            ),
        ];
        for (kind, fault) in trips {
            let (h, tripped) =
                run_checkpointed(&data, &cfg, fault, K + 1, &format!("{name}_{kind}"));
            assert!(h.aborted && h.nonfinite_skips == 1, "{name}/{kind}: step {K} must trip once");
            assert_eq!(tripped.len(), clean.len(), "{name}/{kind}");
            for ((blob, got), (_, want)) in tripped.iter().zip(&clean) {
                assert!(got == want, "{name}/{kind}: a tripped step moved {blob}");
            }
        }
    }
}

#[test]
fn kill_and_auto_resume_matches_uninterrupted_run_bit_exactly() {
    // A real crash leaves nothing in memory, so the run resumes into a
    // freshly built model — with and without stochastic layers, whose masks
    // must come from (seed, step) like the data.
    let cfg = small_cfg();
    for (dropout, drop_path) in [(0.0, 0.0), (0.25, 0.1)] {
        let label = format!("dropout {dropout}, drop-path {drop_path}");
        let (mut clean, data) = setup_stochastic(dropout, drop_path);
        let h_clean = train_classifier(&mut clean, &data, &cfg, RunMode::TrainReversible);

        let mut ck = CheckpointCfg::new(tmp_dir("kill_resume"));
        ck.every_steps = 2;
        let (mut model, _) = setup_stochastic(dropout, drop_path);
        let killed_opts = RunOptions {
            faults: FaultPlan::none().with(Fault::Kill { step: 3 }),
            checkpoint: Some(ck.clone()),
            auto_resume: false,
        };
        let h1 = train_classifier_with(&mut model, &data, &cfg, RunMode::TrainReversible, &killed_opts);
        assert!(h1.killed, "{label}: the Kill fault should end the run early");

        let (mut resumed, _) = setup_stochastic(dropout, drop_path);
        let resume_opts =
            RunOptions { faults: FaultPlan::none(), checkpoint: Some(ck.clone()), auto_resume: true };
        let h2 = train_classifier_with(&mut resumed, &data, &cfg, RunMode::TrainReversible, &resume_opts);
        assert_eq!(h2.resumed_from_step, Some(4), "{label}: kill after step 3 leaves a step-4 checkpoint");
        assert!(!h2.killed);

        // Data, augmentation RNG, dropout masks and LR are all pure functions
        // of (seed, step), and the checkpoint stores raw f32s: the resumed run
        // must land on the same weights as the never-interrupted one, bit for
        // bit.
        assert!(params_of(&mut resumed) == params_of(&mut clean), "{label}: resumed weights differ");
        assert_eq!(h2.final_val_acc(), h_clean.final_val_acc(), "{label}");
        std::fs::remove_dir_all(&ck.dir).unwrap();
    }
}

#[test]
fn reconstruction_drift_falls_back_to_cached_and_recovers() {
    let mut cfg = small_cfg();
    cfg.resilience.drift.policy = DriftPolicy::FallbackToCached;
    let (mut clean, data) = setup();
    let h_clean = train_classifier(&mut clean, &data, &cfg, RunMode::TrainReversible);

    let (mut faulted, _) = setup();
    let opts = RunOptions {
        faults: FaultPlan::none().with(Fault::ActivationBitFlip {
            step: 5,
            fault: ReconFault { stage: 0, stream: 0, index: 0, bit: 30 },
        }),
        ..RunOptions::default()
    };
    let h = train_classifier_with(&mut faulted, &data, &cfg, RunMode::TrainReversible, &opts);

    assert_eq!(h.nonfinite_skips, 1, "the drifted step should be tripped and retried cached");
    assert!(!h.aborted);
    let report = faulted.backbone().body().drift_report();
    assert_eq!(report.fallback_count(), 1, "exactly the corrupted stage should fall back");
    assert!(
        report.max_drift() > cfg.resilience.drift.tolerance,
        "recorded drift {} should exceed tolerance",
        report.max_drift()
    );
    let diff = (h.final_val_acc() - h_clean.final_val_acc()).abs();
    assert!(
        diff <= 0.01,
        "drift-recovered run acc {:.4} deviates from clean {:.4} by more than 1%",
        h.final_val_acc(),
        h_clean.final_val_acc()
    );
}

#[test]
fn torn_checkpoint_is_quarantined_and_resume_uses_the_previous_one() {
    let cfg = small_cfg();
    let (mut clean, data) = setup();
    let h_clean = train_classifier(&mut clean, &data, &cfg, RunMode::TrainReversible);

    let mut ck = CheckpointCfg::new(tmp_dir("torn"));
    ck.every_steps = 2;
    let (mut model, _) = setup();
    let killed_opts = RunOptions {
        faults: FaultPlan::none().with(Fault::Kill { step: 3 }),
        checkpoint: Some(ck.clone()),
        auto_resume: false,
    };
    let h1 = train_classifier_with(&mut model, &data, &cfg, RunMode::TrainReversible, &killed_opts);
    assert!(h1.killed);

    // Tear the newest checkpoint (step 4) mid-blob: the resume scan must
    // reject it, quarantine it, and fall back to the step-2 checkpoint.
    let torn = ck.dir.join("ckpt_step_00000004.ckpt");
    assert!(torn.exists());
    tear_file(&torn, 100).unwrap();

    let resume_opts =
        RunOptions { faults: FaultPlan::none(), checkpoint: Some(ck.clone()), auto_resume: true };
    let h2 = train_classifier_with(&mut model, &data, &cfg, RunMode::TrainReversible, &resume_opts);
    assert_eq!(h2.resumed_from_step, Some(2), "resume must fall back to the older checkpoint");
    // The torn file was renamed aside before the replayed steps wrote a
    // fresh (valid) checkpoint under the same step-4 name.
    assert!(
        ck.dir.join("ckpt_step_00000004.ckpt.corrupt").exists(),
        "the torn file must be quarantined, not deleted"
    );

    // Replaying steps 2..6 from the older checkpoint still converges to the
    // clean run's exact weights.
    assert_eq!(params_of(&mut model), params_of(&mut clean));
    assert_eq!(h2.final_val_acc(), h_clean.final_val_acc());
    std::fs::remove_dir_all(&ck.dir).unwrap();
}
