//! Classification training loop over SynthScale with the paper's recipe
//! structure: SGD + momentum, warmup+cosine+tail LR, label smoothing,
//! augmentation policy, parameter EMA, per-epoch validation, and memory
//! capture — the harness behind the Figure 14 (reversible vs conventional
//! training equivalence) experiment.
//!
//! On top of the recipe sits a resilience layer:
//!
//! * **Non-finite tripwires** — every step scans logits and gradient norms;
//!   a poisoned step is skipped and the learning rate backs off (recovering
//!   over subsequent clean steps). A skipped step writes no model or
//!   optimizer state: the step engines hold its BatchNorm statistics back,
//!   and they, the optimizer and the EMA are applied on clean steps only.
//!   Bounded by `max_retries` consecutive trips, after which the run aborts.
//! * **Drift-sentinel integration** — the reversible body's sentinel (see
//!   `revbifpn_rev::DriftConfig`) is configured per run; a
//!   `FallbackToCached` event also trips the step, since gradients computed
//!   from a drifted reconstruction are suspect.
//! * **Crash-safe checkpoint/resume** — periodic `TrainState` checkpoints
//!   (see [`crate::resume`]) plus auto-resume. Because data, augmentation
//!   RNG, dropout and drop-path masks, and schedule are all derived from
//!   `(seed, step)` — every stochastic layer is reseeded at the start of a
//!   step — a run resumed into a freshly built model replays the remaining
//!   steps bit-exactly.
//! * **Deterministic fault injection** — a [`FaultPlan`] pins faults to
//!   step indices so every recovery path can be proven end to end.

use crate::ema::Ema;
use crate::faults::FaultPlan;
use crate::metrics::{top1_accuracy, AverageMeter, PhaseBreakdown};
use crate::pipeline::{executor_drift, PipelineConfig};
use crate::resume::{auto_resume, save_train_state, CheckpointCfg, ResumeMeta};
use crate::schedule::LrSchedule;
use crate::sgd::Sgd;
use crate::shard::{ShardEngine, ShardStepFaults, ShardStepOutput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn::{RevBiFPNClassifier, RunMode};
use revbifpn_data::augment::AugmentPolicy;
use revbifpn_data::SynthScale;
use revbifpn_nn::loss::{label_smooth, one_hot, softmax_cross_entropy};
use revbifpn_nn::{meter, Module};
use revbifpn_rev::DriftConfig;
use revbifpn_tensor::Tensor;

/// Multiplier applied to the LR scale when a step trips. The scale recovers
/// by 1.25x per clean step, capped at 1, so clean runs are bit-identical to
/// a trainer without the resilience layer.
const LR_BACKOFF: f32 = 0.5;

/// Resilience knobs of a training run (tripwires + drift sentinel).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResilienceConfig {
    /// Enables the per-step non-finite tripwires (logit scan, gradient-norm
    /// scan, drift-fallback detection).
    pub tripwires: bool,
    /// Consecutive tripped steps tolerated before the run aborts.
    pub max_retries: u32,
    /// Drift-sentinel configuration applied to the reversible body at the
    /// start of the run.
    pub drift: DriftConfig,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self { tripwires: true, max_retries: 3, drift: DriftConfig::default() }
    }
}

/// Hyperparameters of a training run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over `train_size` samples.
    pub epochs: usize,
    /// Batch size.
    pub batch_size: usize,
    /// Nominal training-set size per epoch (samples are generated by index).
    pub train_size: usize,
    /// Validation-set size.
    pub val_size: usize,
    /// Peak learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Weight decay on flagged parameters.
    pub weight_decay: f32,
    /// Label-smoothing coefficient.
    pub label_smoothing: f32,
    /// Parameter-EMA decay (0 disables EMA).
    pub ema_decay: f32,
    /// Augmentation policy.
    pub augment: AugmentPolicy,
    /// RNG seed for augmentation (data itself is index-deterministic).
    pub seed: u64,
    /// Resilience-layer settings.
    pub resilience: ResilienceConfig,
    /// Micro-batch shard count of the step engine ([`crate::ShardEngine`]).
    /// `0` runs the whole batch as one shard with coupled BatchNorm (batch
    /// statistics); any power of two `>= 1` splits it into shards with
    /// decoupled BatchNorm, whose merged gradients are bitwise invariant to
    /// the shard count.
    pub shards: usize,
    /// Stage-pipelined schedule ([`crate::PipelineConfig`]). `stages >= 1`
    /// with `staleness == 0` only picks the step engine's shard count,
    /// `micros × shards` (`shards` must then be 0). (`staleness >= 1` is
    /// the delayed-gradient mode — use [`crate::train_pipeline_delayed`],
    /// which owns its own loop.)
    pub pipeline: PipelineConfig,
}

impl TrainConfig {
    /// A small, fast default suitable for CPU experiments.
    pub fn small() -> Self {
        Self {
            epochs: 3,
            batch_size: 16,
            train_size: 256,
            val_size: 128,
            lr: 0.08,
            momentum: 0.9,
            weight_decay: 4e-5,
            label_smoothing: 0.1,
            ema_decay: 0.0,
            augment: AugmentPolicy::none(),
            seed: 0,
            resilience: ResilienceConfig::default(),
            shards: 0,
            pipeline: PipelineConfig::disabled(),
        }
    }
}

/// Per-run I/O and fault options for [`train_classifier_with`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunOptions {
    /// Deterministic faults to inject (empty for clean runs).
    pub faults: FaultPlan,
    /// Periodic TrainState checkpointing (`None` disables).
    pub checkpoint: Option<CheckpointCfg>,
    /// Scan the checkpoint directory at startup and resume from the newest
    /// valid checkpoint. Requires `checkpoint`.
    pub auto_resume: bool,
}

/// Per-epoch record of a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss.
    pub train_loss: f64,
    /// Training top-1 accuracy.
    pub train_acc: f64,
    /// Validation top-1 accuracy.
    pub val_acc: f64,
    /// Peak cached activation bytes observed during the epoch's steps.
    pub peak_activation_bytes: usize,
}

/// Full history of a training run.
#[derive(Clone, Debug, Default)]
pub struct TrainHistory {
    /// Per-epoch statistics. A resumed run records only the epochs it
    /// actually executed steps in.
    pub epochs: Vec<EpochStats>,
    /// Steps skipped by the non-finite tripwires (cumulative across
    /// resumes; restored from checkpoint meta).
    pub nonfinite_skips: u64,
    /// Global step this run resumed from (`None` for fresh runs).
    pub resumed_from_step: Option<usize>,
    /// `true` when a `Fault::Kill` ended the run early (simulated crash).
    pub killed: bool,
    /// `true` when the tripwires exceeded `max_retries` consecutive trips
    /// and aborted the run.
    pub aborted: bool,
    /// Aggregate per-phase wall-clock breakdown of the run's training
    /// steps (forward / reconstruct / backward / reduce / optimizer).
    pub phases: PhaseBreakdown,
}

impl TrainHistory {
    /// Final validation accuracy (0 if no epochs ran).
    pub fn final_val_acc(&self) -> f64 {
        self.epochs.last().map(|e| e.val_acc).unwrap_or(0.0)
    }

    /// Peak activation bytes over the whole run.
    pub fn peak_activation_bytes(&self) -> usize {
        self.epochs.iter().map(|e| e.peak_activation_bytes).max().unwrap_or(0)
    }
}

/// The RNG stream `salt` of global step `step`, a pure function of
/// `(cfg.seed, step)`.
fn step_rng(cfg: &TrainConfig, salt: u64, step: usize) -> StdRng {
    StdRng::seed_from_u64(cfg.seed ^ salt ^ (step as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The batch of global step `step`: images, smoothed one-hot targets and
/// labels, augmented. Samples are indexed by step and the augmentation RNG
/// is reseeded per step, so the batch is a pure function of `(cfg.seed,
/// step)`: bit-exact resume depends on this formula, and on every training
/// loop drawing its batches from here.
pub(crate) fn step_batch(
    data: &SynthScale,
    cfg: &TrainConfig,
    step: usize,
) -> (Tensor, Tensor, Vec<usize>) {
    let steps_per_epoch = cfg.train_size.div_ceil(cfg.batch_size);
    let (epoch, b) = (step / steps_per_epoch, step % steps_per_epoch);
    // b < steps_per_epoch, so a ragged last batch still holds a sample.
    let n = cfg.batch_size.min(cfg.train_size - b * cfg.batch_size);
    let start = (epoch * cfg.train_size + b * cfg.batch_size) as u64;
    let (mut images, labels) = data.batch(start, n);
    let mut targets = label_smooth(&one_hot(&labels, data.num_classes()), cfg.label_smoothing);
    cfg.augment.apply(&mut images, &mut targets, &mut step_rng(cfg, 0xA06, step));
    (images, targets, labels)
}

/// Restarts the dropout and drop-path mask streams for global step `step`,
/// so the masks too are a pure function of `(cfg.seed, step)`: a run resumed
/// into a freshly built model draws what the uninterrupted run drew.
fn reseed_masks(model: &mut RevBiFPNClassifier, cfg: &TrainConfig, step: usize) {
    let mut rng = step_rng(cfg, 0xD809, step);
    model.reseed(&mut || rng.random());
}

/// The run's step executor, `cfg.shards` shards or a pipelined run's
/// `micros × shards`, with the model's sentinel configured to match.
pub(crate) fn executor(model: &mut RevBiFPNClassifier, cfg: &TrainConfig) -> ShardEngine {
    let (shards, drift) = match cfg.pipeline.stages {
        0 => (cfg.shards, cfg.resilience.drift),
        _ => {
            assert_eq!(cfg.shards, 0, "within-stage sharding is set via pipeline.shards, not cfg.shards");
            (cfg.pipeline.executor_shards(), executor_drift(cfg.resilience.drift))
        }
    };
    model.backbone_mut().body_mut().set_drift_config(drift);
    ShardEngine::new(model.cfg(), shards, drift)
}

/// A step's tripwires past its forward: a non-finite gradient, or a
/// sentinel fallback since [`Tripwire::arm`] (gradients downstream of a
/// stage whose reconstruction strayed are suspect; the stage now runs
/// cached, so a retry is clean).
pub(crate) struct Tripwire(u64);

impl Tripwire {
    pub(crate) fn arm() -> Self {
        Self(meter::event_count("rev.drift_fallback"))
    }

    pub(crate) fn tripped(&self, model: &mut RevBiFPNClassifier) -> bool {
        let mut sq = 0.0f64;
        model.visit_params(&mut |p| sq += p.grad.sq_sum());
        !sq.is_finite() || meter::event_count("rev.drift_fallback") > self.0
    }
}

/// Evaluates top-1 accuracy on `val_size` deterministic validation samples
/// (indices above `u32::MAX` so they never collide with training indices).
pub fn evaluate(model: &mut RevBiFPNClassifier, data: &SynthScale, val_size: usize, batch: usize) -> f64 {
    let mut acc = AverageMeter::new();
    let mut i = 0;
    while i < val_size {
        let n = batch.min(val_size - i);
        let (val_images, labels) = data.batch(u32::MAX as u64 + i as u64, n);
        let logits = model.forward(&val_images, RunMode::Eval);
        acc.update(top1_accuracy(&logits, &labels), n as u64);
        i += n;
    }
    acc.avg()
}

/// Trains `model` on SynthScale and returns the per-epoch history.
///
/// `mode` selects reversible or conventional training — the Figure 14
/// experiment runs both with identical seeds and compares curves. This is
/// [`train_classifier_with`] with default [`RunOptions`] (no faults, no
/// checkpointing).
pub fn train_classifier(
    model: &mut RevBiFPNClassifier,
    data: &SynthScale,
    cfg: &TrainConfig,
    mode: RunMode,
) -> TrainHistory {
    train_classifier_with(model, data, cfg, mode, &RunOptions::default())
}

/// Trains `model` with explicit run options: fault injection, periodic
/// checkpointing, and auto-resume.
///
/// Determinism contract: batches are indexed by step, the augmentation RNG
/// and the stochastic layers' mask streams are reseeded per step from
/// `(cfg.seed, step)`, and the LR schedule is a pure function of the step —
/// so a run resumed from a step-`k` checkpoint replays steps `k..`
/// bit-exactly, and a faulted-then-recovered run is reproducible.
pub fn train_classifier_with(
    model: &mut RevBiFPNClassifier,
    data: &SynthScale,
    cfg: &TrainConfig,
    mode: RunMode,
    opts: &RunOptions,
) -> TrainHistory {
    assert!(mode != RunMode::Eval, "training requires a training RunMode");
    assert_eq!(model.cfg().num_classes, data.num_classes(), "model/data class mismatch");

    let steps_per_epoch = cfg.train_size.div_ceil(cfg.batch_size);
    let schedule = LrSchedule::paper_like(cfg.lr, steps_per_epoch * cfg.epochs);
    let mut opt = Sgd::new(cfg.momentum, cfg.weight_decay);
    let mut ema = (cfg.ema_decay > 0.0).then(|| Ema::new(cfg.ema_decay));
    let res = cfg.resilience;
    if cfg.pipeline.stages > 0 {
        assert_eq!(
            cfg.pipeline.staleness, 0,
            "delayed-gradient mode has its own loop: use train_pipeline_delayed"
        );
        assert_eq!(mode, RunMode::TrainReversible, "pipelined training is reversible-only");
    }
    let mut engine = executor(model, cfg);
    let phases_start = meter::phase_times();

    let mut history = TrainHistory::default();
    let mut lr_scale = 1.0f32;
    let mut skips = 0u64;
    let mut consecutive_trips = 0u32;
    let mut start_step = 0usize;

    if opts.auto_resume {
        let ck = opts.checkpoint.as_ref().expect("auto_resume requires a checkpoint config");
        if let Some(meta) =
            auto_resume(ck, model, &mut opt, ema.as_mut()).expect("checkpoint scan failed")
        {
            start_step = meta.step;
            lr_scale = meta.lr_scale;
            skips = meta.skips;
            history.resumed_from_step = Some(meta.step);
        }
    }

    'run: for epoch in 0..cfg.epochs {
        if (epoch + 1) * steps_per_epoch <= start_step {
            continue; // fully covered by the checkpoint we resumed from
        }
        let mut loss_meter = AverageMeter::new();
        let mut acc_meter = AverageMeter::new();
        let mut peak = 0usize;
        for b in 0..steps_per_epoch {
            let step = epoch * steps_per_epoch + b;
            if step < start_step {
                continue;
            }
            let (images, targets, labels) = step_batch(data, cfg, step);
            let n = labels.len();
            reseed_masks(model, cfg, step);

            let wire = Tripwire::arm();
            meter::reset();

            let sf = ShardStepFaults {
                nan_grad: opts.faults.nan_grad_at(step),
                bit_flip: opts.faults.bit_flip_at(step),
            };
            let ShardStepOutput { logits, loss, backward_ran, .. } =
                engine.step(model, &images, &targets, mode, &sf);
            let tripped = if backward_ran {
                peak = peak.max(meter::peak());
                res.tripwires && wire.tripped(model)
            } else {
                if !res.tripwires {
                    // Form the loss on the non-finite logits, which panics
                    // and names them.
                    let _ = softmax_cross_entropy(&logits, &targets);
                }
                true
            };

            if tripped {
                skips += 1;
                consecutive_trips += 1;
                meter::count("train.nonfinite_step");
                engine.clear_replica_caches();
                model.clear_cache();
                lr_scale *= LR_BACKOFF;
            } else {
                consecutive_trips = 0;
                engine.apply_bn_stats(model);
                meter::time_phase(meter::Phase::Optimizer, || {
                    opt.step(schedule.lr(step) * lr_scale, |f| model.visit_params(f));
                    if let Some(e) = &mut ema {
                        e.update(|f| model.visit_params(f));
                    }
                });
                lr_scale = (lr_scale * 1.25).min(1.0);
                loss_meter.update(loss, n as u64);
                acc_meter.update(top1_accuracy(&logits, &labels), n as u64);
            }

            if let Some(ck) = &opts.checkpoint {
                if (step + 1).is_multiple_of(ck.every_steps) {
                    let meta = ResumeMeta { step: step + 1, lr_scale, skips };
                    save_train_state(ck, model, &opt, ema.as_ref(), meta)
                        .expect("checkpoint write failed");
                }
            }
            if tripped && consecutive_trips > res.max_retries {
                history.aborted = true;
                break 'run;
            }
            if opts.faults.kill_at(step) {
                history.killed = true;
                break 'run;
            }
        }
        // Validate with EMA weights when enabled.
        let val_acc = if let Some(e) = &mut ema {
            e.apply(|f| model.visit_params(f));
            let acc = evaluate(model, data, cfg.val_size, cfg.batch_size);
            e.restore(|f| model.visit_params(f));
            acc
        } else {
            evaluate(model, data, cfg.val_size, cfg.batch_size)
        };
        history.epochs.push(EpochStats {
            epoch,
            train_loss: loss_meter.avg(),
            train_acc: acc_meter.avg(),
            val_acc,
            peak_activation_bytes: peak,
        });
    }
    history.nonfinite_skips = skips;
    history.phases = PhaseBreakdown::from_times(meter::phase_times().since(&phases_start));
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use revbifpn::RevBiFPNConfig;
    use revbifpn_data::SynthScaleConfig;

    fn tiny_setup() -> (RevBiFPNClassifier, SynthScale) {
        let data = SynthScale::new(SynthScaleConfig::new(32), 5);
        let model = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(data.num_classes()));
        (model, data)
    }

    #[test]
    fn one_epoch_reduces_loss() {
        let (mut model, data) = tiny_setup();
        let cfg = TrainConfig { epochs: 2, train_size: 64, val_size: 32, batch_size: 16, ..TrainConfig::small() };
        let h = train_classifier(&mut model, &data, &cfg, RunMode::TrainReversible);
        assert_eq!(h.epochs.len(), 2);
        assert!(
            h.epochs[1].train_loss < h.epochs[0].train_loss + 0.05,
            "loss did not decrease: {:?}",
            h.epochs
        );
        assert!(h.peak_activation_bytes() > 0);
        assert_eq!(h.nonfinite_skips, 0);
        assert!(!h.aborted && !h.killed);
    }

    #[test]
    fn reversible_and_conventional_curves_match() {
        // The Figure 14 claim at miniature scale: identical seeds, identical
        // curves (exactly, since BN stats are frozen+replayed).
        let (mut m1, data) = tiny_setup();
        let (mut m2, _) = tiny_setup();
        let cfg = TrainConfig { epochs: 1, train_size: 48, val_size: 32, batch_size: 16, ..TrainConfig::small() };
        let h1 = train_classifier(&mut m1, &data, &cfg, RunMode::TrainConventional);
        let h2 = train_classifier(&mut m2, &data, &cfg, RunMode::TrainReversible);
        for (a, b) in h1.epochs.iter().zip(&h2.epochs) {
            assert!((a.train_loss - b.train_loss).abs() < 1e-3, "{a:?} vs {b:?}");
            assert!((a.val_acc - b.val_acc).abs() < 0.1, "{a:?} vs {b:?}");
        }
        // And the reversible run must use far less activation memory.
        assert!(
            (h2.peak_activation_bytes() as f64) < 0.7 * h1.peak_activation_bytes() as f64,
            "rev {} vs conv {}",
            h2.peak_activation_bytes(),
            h1.peak_activation_bytes()
        );
    }

    #[test]
    fn tripwires_do_not_change_clean_runs() {
        // The resilience layer must be a strict no-op on healthy training:
        // same seeds, tripwires on vs off, bit-identical history.
        let (mut m1, data) = tiny_setup();
        let (mut m2, _) = tiny_setup();
        let cfg_on = TrainConfig { epochs: 1, train_size: 48, val_size: 32, batch_size: 16, ..TrainConfig::small() };
        let mut cfg_off = cfg_on;
        cfg_off.resilience.tripwires = false;
        let h1 = train_classifier(&mut m1, &data, &cfg_on, RunMode::TrainReversible);
        let h2 = train_classifier(&mut m2, &data, &cfg_off, RunMode::TrainReversible);
        assert_eq!(h1.epochs, h2.epochs);
    }

    #[test]
    fn evaluate_runs_on_untrained_model() {
        let (mut model, data) = tiny_setup();
        let acc = evaluate(&mut model, &data, 32, 16);
        assert!((0.0..=1.0).contains(&acc));
    }
}
