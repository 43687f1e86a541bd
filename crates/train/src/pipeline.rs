//! PETRA-style stage-pipelined training (arXiv 2406.02052) as a *schedule*
//! over the one step executor, [`ShardEngine`].
//!
//! The reversible body splits into `P` stages and a batch into `m`
//! micro-batches; every stage rebuilds its own inputs during backward, so a
//! stage needs no activations from its neighbours. Run on one executor,
//! that schedule is:
//!
//! * **Synchronous fill/drain** ([`PipelineEngine::step`]): one step is the
//!   `ShardEngine` step over `micros × shards` shards. Decoupled BatchNorm
//!   and the aligned pairwise trees make it bitwise equal to the shard
//!   engine at any shard count.
//! * **Delayed gradients** ([`train_pipeline_delayed`]): step `t` runs
//!   forward and backward against the parameters of version `t - K` (`K` =
//!   [`PipelineConfig::staleness`], a uniform-staleness variant of PETRA's
//!   per-stage delays), and the updates are applied strictly in step order.
//!
//! Slot accounting is the schedule's, not a clock's: a fill/drain window of
//! `m` micro-batches over `P` stages keeps each stage busy `m` of its
//! `m + P - 1` slots, so the bubble is exactly `(P - 1) / (m + P - 1)`.

use crate::metrics::{top1_accuracy, AverageMeter, PhaseBreakdown};
use crate::reduce::{effective_split, slice_batch};
use crate::schedule::LrSchedule;
use crate::sgd::Sgd;
use crate::shard::{ShardEngine, ShardStepFaults, ShardStepOutput};
use crate::trainer::{evaluate, executor, step_batch, EpochStats, TrainConfig, TrainHistory, Tripwire};
use revbifpn::{RevBiFPNClassifier, RevBiFPNConfig, RunMode};
use revbifpn_data::SynthScale;
use revbifpn_nn::{meter, Module};
use revbifpn_rev::{DriftConfig, DriftPolicy};
use revbifpn_tensor::Tensor;
use std::collections::VecDeque;

/// Pipeline-parallel training configuration. `stages == 0` disables the
/// pipeline entirely (the trainer takes its `shards` step).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Number of pipeline stages. `0` disables.
    pub stages: usize,
    /// Micro-batches per step (power of two): the batch is cut into this
    /// many contiguous micro-batches.
    pub micros: usize,
    /// Data-parallel shard count within each micro-batch (power of two).
    pub shards: usize,
    /// Delayed-gradient staleness bound `K`. `0` means synchronous steps
    /// (used by [`crate::train_classifier_with`]); `K >= 1` is
    /// [`train_pipeline_delayed`].
    pub staleness: usize,
}

impl PipelineConfig {
    /// Pipeline disabled (the trainer's default).
    pub fn disabled() -> Self {
        Self { stages: 0, micros: 2, shards: 1, staleness: 0 }
    }

    /// Synchronous fill/drain pipeline with `stages` stages and `micros`
    /// micro-batches per step.
    pub fn sync(stages: usize, micros: usize) -> Self {
        Self { stages, micros, shards: 1, staleness: 0 }
    }

    /// The shard count of the [`ShardEngine`] that runs the schedule: one
    /// shard per (micro-batch, inner shard) leaf.
    pub(crate) fn executor_shards(&self) -> usize {
        let (micros, shards) = (self.micros.max(1), self.shards.max(1));
        assert!(micros.is_power_of_two(), "micros must be a power of two, got {micros}");
        assert!(shards.is_power_of_two(), "shards must be a power of two, got {shards}");
        micros * shards
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// A pipelined step trips where `Abort` would panic: `FallbackToCached` stands in, counted as a trip.
pub(crate) fn executor_drift(drift: DriftConfig) -> DriftConfig {
    let policy = if drift.policy == DriftPolicy::Abort { DriftPolicy::FallbackToCached } else { drift.policy };
    DriftConfig { policy, ..drift }
}

/// Slot tally of the fill/drain windows a schedule walked.
#[derive(Debug, Default)]
struct Slots {
    busy: u64,
    idle: u64,
}

impl Slots {
    /// One window of `micros` micro-batches over `stages` stages.
    fn window(&mut self, stages: usize, micros: usize) {
        self.busy += micros as u64;
        self.idle += stages as u64 - 1;
    }

    /// Busy share of each stage's slots (every stage has the same).
    fn occupancy(&self) -> f64 {
        self.share(self.busy)
    }

    /// Idle share of each stage's slots.
    fn bubble(&self) -> f64 {
        self.share(self.idle)
    }

    fn share(&self, part: u64) -> f64 {
        match self.busy + self.idle {
            0 => 0.0,
            total => part as f64 / total as f64,
        }
    }
}

/// Synchronous stage-pipelined steps: a thin wrapper over one
/// [`ShardEngine`] with `micros × shards` shards that tallies the
/// schedule's slots. The caller's primary model receives the gradients and
/// BN statistics, as with the shard engine.
#[derive(Debug)]
pub struct PipelineEngine {
    stages: usize,
    micros: usize,
    engine: ShardEngine,
    slots: Slots,
}

impl PipelineEngine {
    /// Builds the executor for the model described by `cfg`. The primary's
    /// sentinel must match the executor's (`Abort` read as
    /// `FallbackToCached`).
    ///
    /// # Panics
    ///
    /// Panics on zero stages, non-power-of-two micros or shards, or a config
    /// with stochastic regularization (as [`ShardEngine::new`]).
    pub fn new(cfg: &RevBiFPNConfig, pcfg: &PipelineConfig, drift: DriftConfig) -> Self {
        assert!(pcfg.stages >= 1, "pipeline needs at least one stage");
        let engine = ShardEngine::new(cfg, pcfg.executor_shards(), executor_drift(drift));
        Self { stages: pcfg.stages, micros: pcfg.micros.max(1), engine, slots: Slots::default() }
    }

    /// Runs one synchronous pipelined step: [`ShardEngine::step`], whose
    /// BN statistics wait for [`PipelineEngine::apply_bn_stats`].
    pub fn step(
        &mut self,
        primary: &mut RevBiFPNClassifier,
        images: &Tensor,
        targets: &Tensor,
        mode: RunMode,
        faults: &ShardStepFaults,
    ) -> ShardStepOutput {
        assert_eq!(mode, RunMode::TrainReversible, "pipelined steps are reversible-only");
        let out = self.engine.step(primary, images, targets, mode, faults);
        if out.backward_ran {
            self.slots.window(self.stages, effective_split(images.shape().n, self.micros));
        }
        out
    }

    /// Applies the BN statistics of the last clean step to the primary.
    pub fn apply_bn_stats(&mut self, primary: &mut RevBiFPNClassifier) {
        self.engine.apply_bn_stats(primary);
    }

    /// The schedule's idle-slot share over the steps taken so far,
    /// `(P - 1) / (m + P - 1)` at a fixed micro count (0 before any step).
    pub fn mean_bubble_fraction(&self) -> f64 {
        self.slots.bubble()
    }
}

/// Swaps every parameter value and the stem's BatchNorm buffers with
/// `version`'s, in walk order.
fn swap_version(model: &mut RevBiFPNClassifier, version: &mut [Tensor]) {
    let mut held = version.iter_mut();
    let mut swap = |t: &mut Tensor| std::mem::swap(t, held.next().expect("version and model trees differ"));
    model.visit_params(&mut |p| swap(&mut p.value));
    model.backbone_mut().stem_mut().visit_buffers(&mut swap);
}

/// A copy of what [`swap_version`] swaps.
fn snapshot(model: &mut RevBiFPNClassifier) -> Vec<Tensor> {
    let mut out = Vec::new();
    model.visit_params(&mut |p| out.push(p.value.clone()));
    model.backbone_mut().stem_mut().visit_buffers(&mut |t| out.push(t.clone()));
    out
}

/// Trains `model` with the PETRA delayed-gradient schedule, one step after
/// another on one [`ShardEngine`] of `micros × shards` shards.
///
/// Step `t` runs with every parameter, and the stem's BN buffers, at
/// version `t - K` (clamped to the initial values for `t < K`): the values
/// after the updates of steps `0..t-K`, kept in a ring of `K + 1` versions.
/// The body, neck and head BN running statistics it normalizes with are the
/// current ones. After the step the current values come back, the step's
/// BN statistics are applied, and one SGD step at `lr(t)` follows, so the
/// run is a pure function of `(seed, K, micros)`: the shard split changes
/// no bit, and the stage count only the slot shares.
///
/// Train accuracy is averaged per micro-batch, weighted by its size. EMA,
/// fault injection, checkpointing and the LR back-off are unsupported: a
/// step that trips the trainer's tripwires (non-finite logits or gradients,
/// a sentinel fallback) sets `history.aborted` and ends the run.
///
/// # Panics
///
/// Panics when `cfg.pipeline.stages == 0`, `cfg.pipeline.staleness == 0`
/// (use [`crate::train_classifier_with`]), or `cfg.ema_decay != 0`.
pub fn train_pipeline_delayed(model: &mut RevBiFPNClassifier, data: &SynthScale, cfg: &TrainConfig) -> TrainHistory {
    let pcfg = cfg.pipeline;
    assert!(pcfg.stages >= 1, "delayed mode needs pipeline.stages >= 1");
    assert!(pcfg.staleness >= 1, "delayed mode needs staleness >= 1 (use the sync engine for K = 0)");
    assert_eq!(cfg.ema_decay, 0.0, "parameter EMA is unsupported in delayed mode");
    assert_eq!(model.cfg().num_classes, data.num_classes(), "model/data class mismatch");

    let mut engine = executor(model, cfg);
    let steps_per_epoch = cfg.train_size.div_ceil(cfg.batch_size);
    let schedule = LrSchedule::paper_like(cfg.lr, steps_per_epoch * cfg.epochs);
    let mut opt = Sgd::new(cfg.momentum, cfg.weight_decay);
    let phases_start = meter::phase_times();
    // Versions max(t - K, 0) ..= t before step t: the front is what it runs.
    let mut versions = VecDeque::from([snapshot(model)]);
    let mut slots = Slots::default();
    let mut history = TrainHistory::default();

    'run: for epoch in 0..cfg.epochs {
        let mut loss_meter = AverageMeter::new();
        let mut acc_meter = AverageMeter::new();
        meter::reset();
        for t in epoch * steps_per_epoch..(epoch + 1) * steps_per_epoch {
            let (images, targets, labels) = step_batch(data, cfg, t);
            let wire = Tripwire::arm();
            let stale = versions.front_mut().expect("the ring holds version t - K");
            swap_version(model, stale);
            let out = engine.step(model, &images, &targets, RunMode::TrainReversible, &ShardStepFaults::default());
            swap_version(model, stale);
            if !out.backward_ran || wire.tripped(model) {
                meter::count("train.nonfinite_step");
                engine.clear_replica_caches();
                model.clear_cache();
                history.aborted = true;
                break 'run;
            }
            engine.apply_bn_stats(model);
            meter::time_phase(meter::Phase::Optimizer, || opt.step(schedule.lr(t), |f| model.visit_params(f)));
            versions.push_back(snapshot(model));
            if versions.len() > pcfg.staleness + 1 {
                versions.pop_front();
            }

            let n = labels.len();
            let micros = effective_split(n, pcfg.micros.max(1));
            let mb = n / micros;
            slots.window(pcfg.stages, micros);
            loss_meter.update(out.loss, n as u64);
            for (i, micro_labels) in labels.chunks(mb).enumerate() {
                let logits = slice_batch(&out.logits, i * mb, mb);
                acc_meter.update(top1_accuracy(&logits, micro_labels), mb as u64);
            }
        }
        let peak_activation_bytes = meter::peak();
        history.epochs.push(EpochStats {
            epoch,
            train_loss: loss_meter.avg(),
            train_acc: acc_meter.avg(),
            val_acc: evaluate(model, data, cfg.val_size, cfg.batch_size),
            peak_activation_bytes,
        });
    }
    history.phases = PhaseBreakdown::from_times(meter::phase_times().since(&phases_start));
    history.phases.stage_occupancy = vec![slots.occupancy(); pcfg.stages];
    history.phases.bubble_fraction = slots.bubble();
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use revbifpn_data::SynthScaleConfig;
    use revbifpn_nn::loss::{label_smooth, one_hot};

    #[test]
    fn bubbles_are_the_schedules_idle_slot_shares() {
        let data = SynthScale::new(SynthScaleConfig::new(32), 5);
        let mut model = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(data.num_classes()));
        let (images, labels) = data.batch(0, 16);
        let targets = label_smooth(&one_hot(&labels, data.num_classes()), 0.1);
        let mut pipe = PipelineEngine::new(model.cfg(), &PipelineConfig::sync(2, 2), DriftConfig::default());
        assert_eq!(pipe.mean_bubble_fraction(), 0.0, "no step, no slot");
        for _ in 0..2 {
            let out = pipe.step(&mut model, &images, &targets, RunMode::TrainReversible, &ShardStepFaults::default());
            assert!(out.backward_ran);
            pipe.apply_bn_stats(&mut model);
            assert_eq!(pipe.mean_bubble_fraction(), 1.0 / 3.0, "P2 m2: (P - 1) / (m + P - 1)");
        }

        // P3 m2 over batches of 16 and a ragged 8 (m stays 2): 2 of 4 slots.
        let cfg = TrainConfig {
            epochs: 1,
            train_size: 24,
            val_size: 8,
            pipeline: PipelineConfig { stages: 3, micros: 2, shards: 1, staleness: 1 },
            ..TrainConfig::small()
        };
        let mut model = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(data.num_classes()));
        let h = train_pipeline_delayed(&mut model, &data, &cfg);
        assert!(!h.aborted);
        assert_eq!(h.phases.stage_occupancy, vec![0.5; 3]);
        assert_eq!(h.phases.bubble_fraction, 0.5);

        let mut slots = Slots::default();
        slots.window(4, 4);
        slots.window(4, 1);
        assert_eq!((slots.occupancy(), slots.bubble()), (5.0 / 11.0, 6.0 / 11.0), "windows add slot counts");
        let mut one = Slots::default();
        one.window(1, 2);
        assert_eq!((one.occupancy(), one.bubble()), (1.0, 0.0), "one stage has no bubble");
    }
}
