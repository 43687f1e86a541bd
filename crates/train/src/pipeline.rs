//! PETRA-style stage-pipelined training (arXiv 2406.02052): the
//! reversible body is partitioned into `P` stages, each owned by a
//! long-lived worker thread, and micro-batches stream through the stage
//! chain as messages. Because every stage is reversible, each worker
//! reconstructs its own inputs during backward — no cross-stage
//! activation buffering exists anywhere in the pipeline.
//!
//! # Two modes
//!
//! * **Synchronous fill/drain** ([`PipelineEngine::step`]): one step in
//!   flight; micro-batches overlap *within* the step. Merged gradients,
//!   loss, logits, and BatchNorm statistics are **bitwise identical** to
//!   [`crate::ShardEngine`] on the same batch: every cross-sample
//!   reduction is the same pairwise stride-doubling tree over per-sample
//!   partials (see `shard.rs` for the alignment theorem), and decoupled
//!   BN makes every sample's activations independent of its batch
//!   neighbours — so splitting the batch `(micro, shard)`-wise instead of
//!   shard-wise performs the same `f32` additions in the same order.
//! * **Delayed gradients** ([`train_pipeline_delayed`]): up to `K + 1`
//!   steps (`K` = [`PipelineConfig::staleness`], `K >= 1`) overlap. Step
//!   `t` runs forward *and* backward against the parameter version
//!   `t - K` (a uniform-staleness variant of PETRA's per-stage delays);
//!   workers keep a small snapshot ring and gate work on version
//!   availability, and the driver applies per-stage updates strictly in
//!   step order — so the run is a pure function of
//!   `(seed, P, K, micros, shards)`, independent of thread scheduling.
//!
//! # Deadlock freedom
//!
//! Worker mailboxes are bounded (`sync_channel`), the driver's mailbox is
//! unbounded, and workers always drain their mailbox into a local pending
//! queue before blocking — so every blocking-send chain terminates at the
//! driver sink, and gated (delayed-mode) messages never starve control
//! traffic. Time spent blocked waiting for stage messages is charged to
//! [`meter::Phase::Stall`], surfacing the fill/drain bubble in
//! [`crate::PhaseBreakdown`].
//!
//! Stages compose with data-parallel sharding: each worker can fan a
//! micro-batch over [`PipelineConfig::shards`] replica cells (shards
//! *inside* a stage), reusing the shard engine's merge trees.

use crate::reduce::{concat_moments, effective_split, reduce_moments, slice_batch, tree_merge_slabs};
use crate::shard::ShardStepFaults;
use crate::trainer::{evaluate, step_batch, EpochStats, TrainConfig, TrainHistory};
use crate::metrics::{top1_accuracy, AverageMeter, PhaseBreakdown};
use crate::schedule::LrSchedule;
use crate::sgd::Sgd;
use revbifpn::{RevBiFPN, RevBiFPNClassifier, RevBiFPNConfig, RunMode};
use revbifpn_data::SynthScale;
use revbifpn_nn::layers::{BnMoments, BnStats};
use revbifpn_nn::loss::softmax_cross_entropy_per_sample;
use revbifpn_nn::{meter, CacheMode, Layer, Module};
use revbifpn_rev::{CellTrip, DriftConfig, DriftStageReport, StageCell, StageControl, StageMsg};
use revbifpn_tensor::{par, Shape, Tensor};
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TryRecvError, TrySendError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Upper bound on micro-batches per step (sizes the per-worker
/// fingerprint-slot space; far above any realistic CPU micro count).
const MAX_MICROS: usize = 64;

/// Pipeline-parallel training configuration. `stages == 0` disables the
/// pipeline entirely (the trainer falls back to the serial or sharded
/// step).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Number of pipeline stages (worker threads). `0` disables.
    pub stages: usize,
    /// Micro-batches per step (power of two, `<= 64`). The batch is cut
    /// into this many contiguous micro-batches that overlap in flight.
    pub micros: usize,
    /// Data-parallel shard count *within* each stage (power of two):
    /// each worker fans every micro-batch over this many replica cells.
    pub shards: usize,
    /// Delayed-gradient staleness bound `K`. `0` means synchronous mode
    /// (used by [`crate::train_classifier_with`]); `K >= 1` enables
    /// [`train_pipeline_delayed`] with up to `K + 1` steps in flight.
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
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// What one synchronous pipelined step produced (mirror of
/// [`crate::ShardStepOutput`]).
#[derive(Debug)]
pub struct PipelineStepOutput {
    /// Full-batch logits, assembled in sample order. On a tripped step,
    /// micro-batches that never reached the head are zero-filled.
    pub logits: Tensor,
    /// Mean cross-entropy loss (zero when `backward_ran` is false).
    pub loss: f64,
    /// `false` when the step tripped (non-finite logits or a drift
    /// sentinel under a non-`Warn` policy): no gradients or BN statistics
    /// were merged into the primary model.
    pub backward_ran: bool,
    /// Micro-batches the step actually used.
    pub micros_used: usize,
    /// Within-stage shards the step actually used.
    pub shards_used: usize,
}

/// Per-stage result shipped to the driver once a worker has finished all
/// of a step's backward micro-batches.
struct StageReport {
    stage: usize,
    seq: u64,
    /// Tree-merged parameter gradients, in cell `visit_params` order.
    grads: Vec<Tensor>,
    /// Per-BN full-batch per-sample moment tables, sample-major.
    moments: Vec<BnMoments>,
    /// Cumulative drift-sentinel statistics for this worker's stages.
    drift: Vec<DriftStageReport>,
    /// Per-op meter deltas: forwards in micro order, then backwards in
    /// micro order (absorbed by the driver for a deterministic trace).
    meters: Vec<meter::TaskMeter>,
    /// Nanoseconds this worker spent computing for the step.
    busy_nanos: u64,
}

/// Messages from workers to the driver (unbounded channel: the sink that
/// terminates every blocking-send chain).
enum DriverMsg {
    /// The last stage's forward output for one micro-batch.
    Pyramid { seq: u64, micro: u32, streams: Vec<Tensor> },
    /// The first stage's input adjoint for one micro-batch.
    StemAdjoint { seq: u64, micro: u32, dx: Tensor },
    /// A worker finished a step.
    StageDone(Box<StageReport>),
    /// A drift sentinel tripped inside a cell.
    Trip { stage: usize, seq: u64, drift: f32 },
    /// Abort acknowledged; the worker dropped all in-flight state.
    Acked,
}

// ---------------------------------------------------------------------
// Small helpers shared by the driver and the workers.
// ---------------------------------------------------------------------

/// Concatenates per-shard stream lists back into full-micro streams, in
/// shard (= sample) order.
fn concat_streams(parts: &[Vec<Tensor>]) -> Vec<Tensor> {
    let streams = parts[0].len();
    (0..streams)
        .map(|j| {
            let n: usize = parts.iter().map(|p| p[j].shape().n).sum();
            let chw = parts[0][j].shape().chw();
            let mut data = Vec::with_capacity(n * chw);
            for p in parts {
                data.extend_from_slice(p[j].data());
            }
            Tensor::from_vec_unchecked(Shape { n, ..parts[0][j].shape() }, data)
        })
        .collect()
}

/// Stores one op's per-BN moments into a `[bn][slot]` table, sizing it on
/// first use.
fn note_moms(store: &mut Vec<Vec<Option<BnMoments>>>, slots: usize, idx: usize, moms: Vec<BnMoments>) {
    if store.is_empty() {
        *store = (0..moms.len()).map(|_| (0..slots).map(|_| None).collect()).collect();
    }
    assert_eq!(store.len(), moms.len(), "BN count changed mid-step");
    for (j, m) in moms.into_iter().enumerate() {
        store[j][idx] = Some(m);
    }
}

/// Reduces a `[bn][slot]` edge moment table into `(mean, var)` pairs.
fn reduce_mom_table(n: usize, store: &[Vec<Option<BnMoments>>]) -> Vec<(Tensor, Tensor)> {
    store
        .iter()
        .map(|per_slot| {
            let full =
                concat_moments(per_slot.iter().map(|m| m.as_ref().expect("missing BN moments")));
            reduce_moments(n, full)
        })
        .collect()
}

fn take_cell_moments(cell: &mut StageCell) -> Vec<BnMoments> {
    let mut list = Vec::new();
    cell.visit_bn(&mut |bn| {
        list.push(bn.take_moments().expect("decoupled BN recorded no moments"));
        // Release the frozen running-stats copy here, inside the forward
        // op's own meter scope. The backward op clears it unconditionally
        // anyway (forcing the bitwise-identical live-stats recompute), but
        // in delayed mode two overlapping steps share this slot — letting
        // one step's backward release bytes another step's forward
        // registered would make the canonical absorb trace go negative.
        bn.clear_cache();
    });
    list
}

// ---------------------------------------------------------------------
// Worker side.
// ---------------------------------------------------------------------

/// `Stats`-mode forward of one micro-batch through a worker's cells,
/// fanned over `s_eff` shard replicas. Returns the concatenated output
/// streams plus each shard's per-BN moments, all under one isolated meter
/// scope.
fn forward_op(
    cells: &mut [StageCell],
    s_eff: usize,
    slot: usize,
    streams: &[Tensor],
) -> ((Vec<Tensor>, Vec<Vec<BnMoments>>), meter::TaskMeter) {
    meter::isolated(|| {
        meter::time_phase(meter::Phase::Forward, || {
            if s_eff == 1 {
                let out = cells[0].forward_micro(slot, streams);
                let moms = take_cell_moments(&mut cells[0]);
                (out, vec![moms])
            } else {
                let mb = streams[0].shape().n;
                let sb = mb / s_eff;
                let inputs = (0..s_eff)
                    .map(|k| streams.iter().map(|t| slice_batch(t, k * sb, sb)).collect::<Vec<_>>());
                let shards = cells[..s_eff].iter_mut().zip(inputs);
                let (outs, moms): (Vec<_>, Vec<_>) = meter::join(shards, |(cell, input)| {
                    let out = cell.forward_micro(slot, &input);
                    (out, take_cell_moments(cell))
                })
                .into_iter()
                .unzip();
                (concat_streams(&outs), moms)
            }
        })
    })
}

/// One shard cell's backward output: reconstructed inputs, input
/// adjoints, and the parameter-gradient slab.
type ShardBackwardOut = (Vec<Tensor>, Vec<Tensor>, Vec<Tensor>);

/// Reversible backward of one micro-batch through one shard cell: clears
/// BN caches first (forcing the order-independent live-running-stats
/// branch of decoupled BN), zeroes and then captures the grad slab, and
/// discards the reconstruction-pass BN moments (the forward pass already
/// recorded the step's statistics).
fn backward_one(
    cell: &mut StageCell,
    slot: usize,
    ys: Vec<Tensor>,
    dys: Vec<Tensor>,
) -> Result<ShardBackwardOut, CellTrip> {
    cell.visit_bn(&mut |bn| bn.clear_cache());
    cell.visit_params(&mut |p| p.grad.data_mut().fill(0.0));
    let (xs, dxs) = cell.backward_micro(slot, ys, dys)?;
    let mut slab = Vec::new();
    cell.visit_params(&mut |p| slab.push(p.grad.clone()));
    cell.visit_bn(&mut |bn| {
        let _ = bn.take_moments();
    });
    Ok((xs, dxs, slab))
}

type BackwardOk = (Vec<Tensor>, Vec<Tensor>, Vec<Vec<Tensor>>);

/// Backward of one micro-batch fanned over `s_eff` shard cells. No
/// `Phase` wrapper: `backward_rev` internals self-charge `Reconstruct`
/// and `Backward`.
fn backward_op(
    cells: &mut [StageCell],
    s_eff: usize,
    slot: usize,
    ys: Vec<Tensor>,
    dys: Vec<Tensor>,
) -> (Result<BackwardOk, CellTrip>, meter::TaskMeter) {
    meter::isolated(|| {
        if s_eff == 1 {
            backward_one(&mut cells[0], slot, ys, dys)
                .map(|(xs, dxs, slab)| (xs, dxs, vec![slab]))
        } else {
            let mb = ys[0].shape().n;
            let sb = mb / s_eff;
            let inputs: Vec<(Vec<Tensor>, Vec<Tensor>)> = (0..s_eff)
                .map(|k| {
                    (
                        ys.iter().map(|t| slice_batch(t, k * sb, sb)).collect(),
                        dys.iter().map(|t| slice_batch(t, k * sb, sb)).collect(),
                    )
                })
                .collect();
            drop((ys, dys));
            let shards = cells[..s_eff].iter_mut().zip(inputs);
            let parts =
                meter::join(shards, |(cell, (ys_k, dys_k))| backward_one(cell, slot, ys_k, dys_k));
            let mut xs_parts = Vec::with_capacity(s_eff);
            let mut dxs_parts = Vec::with_capacity(s_eff);
            let mut slabs = Vec::with_capacity(s_eff);
            for (xs, dxs, slab) in parts.into_iter().collect::<Result<Vec<_>, _>>()? {
                xs_parts.push(xs);
                dxs_parts.push(dxs);
                slabs.push(slab);
            }
            Ok((concat_streams(&xs_parts), concat_streams(&dxs_parts), slabs))
        }
    })
}

/// Per-step bookkeeping inside a worker.
struct WorkerStep {
    micros: usize,
    shards: usize,
    version: u64,
    /// Fingerprint-slot base: `(seq % ring_cap) * MAX_MICROS` keeps
    /// overlapping steps' drift fingerprints from colliding.
    slot_base: usize,
    /// Running-statistics snapshot this step normalizes with, captured
    /// from the worker's local accumulator at the step's first forward
    /// micro-batch. Forward and backward-recompute must see identical
    /// stats even while later steps fold the accumulator onward.
    stats: Option<Vec<Tensor>>,
    fwd_done: usize,
    bwd_done: usize,
    busy_nanos: u64,
    /// Per-leaf grad slabs, leaf = `micro * shards + shard`.
    slabs: Vec<Option<Vec<Tensor>>>,
    /// Forward-pass BN moments, `[bn][leaf]`.
    moments: Vec<Vec<Option<BnMoments>>>,
    fwd_meters: Vec<Option<meter::TaskMeter>>,
    bwd_meters: Vec<Option<meter::TaskMeter>>,
}

impl WorkerStep {
    fn new(micros: usize, shards: usize, version: u64, slot_base: usize) -> Self {
        Self {
            micros,
            shards,
            version,
            slot_base,
            stats: None,
            fwd_done: 0,
            bwd_done: 0,
            busy_nanos: 0,
            slabs: (0..micros * shards).map(|_| None).collect(),
            moments: Vec::new(),
            fwd_meters: (0..micros).map(|_| None).collect(),
            bwd_meters: (0..micros).map(|_| None).collect(),
        }
    }
}

struct Worker {
    pos: usize,
    cells: Vec<StageCell>,
    rx: Receiver<StageMsg>,
    next: Option<SyncSender<StageMsg>>,
    prev: Option<SyncSender<StageMsg>>,
    driver: Sender<DriverMsg>,
    ring_cap: usize,
}

impl Worker {
    /// `true` when the message can be handled right now. Control is
    /// always processable; data requires a registered step whose
    /// parameter version has arrived (unknown seqs are stale leftovers,
    /// processable as drops).
    fn processable(
        msg: &StageMsg,
        steps: &BTreeMap<u64, WorkerStep>,
        ring: &VecDeque<(u64, Vec<Tensor>, Vec<Tensor>)>,
    ) -> bool {
        let seq = match msg {
            StageMsg::Control(_) => return true,
            StageMsg::Activation { seq, .. } | StageMsg::Adjoint { seq, .. } => *seq,
        };
        match steps.get(&seq) {
            None => true, // stale: drop on handle
            Some(st) => ring.iter().any(|(v, _, _)| *v == st.version),
        }
    }

    /// Copies the ring entry's *parameters* for `version` into every
    /// cell, if not already live. Buffers (BN running statistics) are
    /// deliberately not taken from the ring: unlike weights, they are
    /// local per-stage accumulators — delaying them with the parameter
    /// version would feed each step's normalization K-stale statistics,
    /// a depth-compounding feedback the delayed mode cannot absorb.
    fn load_params(
        cells: &mut [StageCell],
        ring: &VecDeque<(u64, Vec<Tensor>, Vec<Tensor>)>,
        live: &mut Option<u64>,
        version: u64,
    ) {
        if *live == Some(version) {
            return;
        }
        let (_, params, _) = ring
            .iter()
            .find(|(v, _, _)| *v == version)
            .expect("gated message without its parameter version");
        for c in cells.iter_mut() {
            let mut i = 0;
            c.visit_params(&mut |p| {
                p.value.data_mut().copy_from_slice(params[i].data());
                i += 1;
            });
        }
        *live = Some(version);
    }

    /// Copies a running-statistics snapshot into every cell's buffers.
    fn load_stats(cells: &mut [StageCell], stats: &[Tensor]) {
        for c in cells.iter_mut() {
            let mut j = 0;
            c.visit_buffers(&mut |t| {
                t.data_mut().copy_from_slice(stats[j].data());
                j += 1;
            });
        }
    }

    /// Folds one completed forward's merged batch statistics into the
    /// local running-statistics accumulator, in flight order. Runs the
    /// exact arithmetic the driver applies to the primary (same
    /// `reduce_moments` tree, same `apply_global_stats` momentum update,
    /// via `cells[0]`'s own BN layers), so the accumulator stays bitwise
    /// equal to the primary's post-step statistics for this stage.
    fn fold_stats(cell: &mut StageCell, acc: &mut [Tensor], st: &WorkerStep) {
        let mut j = 0;
        cell.visit_buffers(&mut |t| {
            t.data_mut().copy_from_slice(acc[j].data());
            j += 1;
        });
        let stats: Vec<(Tensor, Tensor)> = st
            .moments
            .iter()
            .map(|per_leaf| {
                let m = concat_moments(
                    per_leaf.iter().map(|m| m.as_ref().expect("missing leaf moments at fold")),
                );
                reduce_moments(m.samples, m)
            })
            .collect();
        let mut it = stats.iter();
        cell.visit_bn(&mut |bn| {
            let (mean, var) = it.next().expect("fold BN count mismatch");
            bn.apply_global_stats(mean, var);
        });
        assert!(it.next().is_none(), "fold BN count mismatch");
        let mut j = 0;
        cell.visit_buffers(&mut |t| {
            acc[j].data_mut().copy_from_slice(t.data());
            j += 1;
        });
    }

    fn finalize(&self, seq: u64, st: WorkerStep) -> StageReport {
        let mut slabs: Vec<Vec<Tensor>> =
            st.slabs.into_iter().map(|s| s.expect("missing leaf slab")).collect();
        tree_merge_slabs(&mut slabs);
        let grads = slabs.swap_remove(0);
        let moments: Vec<BnMoments> = st
            .moments
            .iter()
            .map(|per_leaf| {
                concat_moments(per_leaf.iter().map(|m| m.as_ref().expect("missing leaf moments")))
            })
            .collect();
        let mut meters = Vec::with_capacity(2 * st.fwd_meters.len());
        meters.extend(st.fwd_meters.into_iter().flatten());
        meters.extend(st.bwd_meters.into_iter().flatten());
        StageReport {
            stage: self.pos,
            seq,
            grads,
            moments,
            drift: self.cells[0].drift_stats(),
            meters,
            busy_nanos: st.busy_nanos,
        }
    }

    fn run(mut self) {
        let mut pending: VecDeque<StageMsg> = VecDeque::new();
        let mut steps: BTreeMap<u64, WorkerStep> = BTreeMap::new();
        let mut ring: VecDeque<(u64, Vec<Tensor>, Vec<Tensor>)> = VecDeque::new();
        let mut live: Option<u64> = None;
        // Local running-statistics accumulator, folded strictly in flight
        // order (forwards arrive flight-ordered per stage), plus the seq
        // whose snapshot currently occupies the cells' buffers.
        let mut acc_stats: Option<Vec<Tensor>> = None;
        let mut live_stats: Option<u64> = None;
        // Next flight seq whose statistics are still unfolded. A
        // `SyncParams { version: w }` carries the primary's stats through
        // flight `w - 1`: adopt it only when `w >= next_fold` (sync mode
        // re-seeds every step and after a trip's snapshot restore; in
        // delayed mode the local accumulator is already at or ahead of
        // the driver's copy, and adopting an older one would drop folds).
        let mut next_fold: u64 = 0;
        loop {
            while let Ok(m) = self.rx.try_recv() {
                pending.push_back(m);
            }
            let msg = match pending.iter().position(|m| Self::processable(m, &steps, &ring)) {
                Some(i) => pending.remove(i).unwrap(),
                None => {
                    // Nothing processable: block for the next message.
                    // Charge the wait as pipeline stall only when work is
                    // actually in flight (idle between steps is not a
                    // bubble).
                    let working = !steps.is_empty() || !pending.is_empty();
                    let t = Instant::now();
                    match self.rx.recv() {
                        Ok(m) => {
                            if working {
                                meter::phase_add_nanos(
                                    meter::Phase::Stall,
                                    t.elapsed().as_nanos() as u64,
                                );
                            }
                            pending.push_back(m);
                            continue;
                        }
                        Err(_) => return, // driver gone: shut down
                    }
                }
            };
            match msg {
                StageMsg::Control(c) => match c {
                    StageControl::Shutdown => return,
                    StageControl::SyncParams { version, params, buffers } => {
                        if version >= next_fold {
                            acc_stats = Some(buffers.clone());
                            live_stats = None;
                            next_fold = version;
                        }
                        ring.push_back((version, params, buffers));
                        while ring.len() > self.ring_cap {
                            ring.pop_front();
                        }
                    }
                    StageControl::BeginStep { seq, micros, shards, version, fault } => {
                        let micros = micros as usize;
                        let shards = shards as usize;
                        assert!(micros <= MAX_MICROS, "too many micro-batches: {micros}");
                        assert!(shards <= self.cells.len(), "shard count exceeds replica cells");
                        if let Some(f) = fault {
                            // Mirror ShardEngine, where the fault fires on
                            // shard 0 (the primary model) only.
                            self.cells[0].arm_fault(f);
                        }
                        let slot_base = (seq % self.ring_cap as u64) as usize * MAX_MICROS;
                        steps.insert(seq, WorkerStep::new(micros, shards, version, slot_base));
                    }
                    StageControl::Abort { .. } => {
                        // Abort the whole in-flight window: the engine
                        // only aborts when it is failing the step (sync)
                        // or the run (delayed). Cache bytes were
                        // registered inside isolated op scopes whose
                        // meters are being discarded, so the release must
                        // be isolated (and discarded) too.
                        steps.clear();
                        let ((), _tm) = meter::isolated(|| {
                            for c in &mut self.cells {
                                c.clear_cache();
                            }
                        });
                        pending.retain(|m| matches!(m, StageMsg::Control(_)));
                        let _ = self.driver.send(DriverMsg::Acked);
                    }
                },
                StageMsg::Activation { seq, micro, streams } => {
                    let Some(st) = steps.get_mut(&seq) else { continue };
                    Self::load_params(&mut self.cells, &ring, &mut live, st.version);
                    if st.stats.is_none() {
                        st.stats =
                            Some(acc_stats.clone().expect("forward before the seeding SyncParams"));
                    }
                    if live_stats != Some(seq) {
                        Self::load_stats(&mut self.cells, st.stats.as_ref().unwrap());
                        live_stats = Some(seq);
                    }
                    let t = Instant::now();
                    let slot = st.slot_base + micro as usize;
                    let ((out, moms), tm) = forward_op(&mut self.cells, st.shards, slot, &streams);
                    st.busy_nanos += t.elapsed().as_nanos() as u64;
                    st.fwd_meters[micro as usize] = Some(tm);
                    let s_eff = st.shards;
                    if st.moments.is_empty() && !moms[0].is_empty() {
                        let leaves = st.micros * s_eff;
                        st.moments =
                            (0..moms[0].len()).map(|_| (0..leaves).map(|_| None).collect()).collect();
                    }
                    for (k, shard_moms) in moms.into_iter().enumerate() {
                        for (j, m) in shard_moms.into_iter().enumerate() {
                            st.moments[j][micro as usize * s_eff + k] = Some(m);
                        }
                    }
                    st.fwd_done += 1;
                    if st.fwd_done == st.micros {
                        let t = Instant::now();
                        Self::fold_stats(
                            &mut self.cells[0],
                            acc_stats.as_mut().expect("fold before the seeding SyncParams"),
                            st,
                        );
                        st.busy_nanos += t.elapsed().as_nanos() as u64;
                        live_stats = None;
                        next_fold = seq + 1;
                    }
                    match &self.next {
                        Some(tx) => {
                            let _ = tx.send(StageMsg::Activation { seq, micro, streams: out });
                        }
                        None => {
                            let _ = self.driver.send(DriverMsg::Pyramid { seq, micro, streams: out });
                        }
                    }
                }
                StageMsg::Adjoint { seq, micro, ys, dys } => {
                    let Some(st) = steps.get_mut(&seq) else { continue };
                    Self::load_params(&mut self.cells, &ring, &mut live, st.version);
                    if live_stats != Some(seq) {
                        Self::load_stats(
                            &mut self.cells,
                            st.stats.as_ref().expect("adjoint before this step's forward"),
                        );
                        live_stats = Some(seq);
                    }
                    let t = Instant::now();
                    let slot = st.slot_base + micro as usize;
                    let (res, tm) = backward_op(&mut self.cells, st.shards, slot, ys, dys);
                    st.busy_nanos += t.elapsed().as_nanos() as u64;
                    match res {
                        Err(trip) => {
                            let _ = self.driver.send(DriverMsg::Trip {
                                stage: trip.stage,
                                seq,
                                drift: trip.drift,
                            });
                        }
                        Ok((xs, mut dxs, slabs)) => {
                            st.bwd_meters[micro as usize] = Some(tm);
                            let s_eff = st.shards;
                            for (k, slab) in slabs.into_iter().enumerate() {
                                st.slabs[micro as usize * s_eff + k] = Some(slab);
                            }
                            st.bwd_done += 1;
                            let done = st.bwd_done == st.micros;
                            match &self.prev {
                                Some(tx) => {
                                    let _ = tx.send(StageMsg::Adjoint { seq, micro, ys: xs, dys: dxs });
                                }
                                None => {
                                    let _ = self.driver.send(DriverMsg::StemAdjoint {
                                        seq,
                                        micro,
                                        dx: dxs.swap_remove(0),
                                    });
                                }
                            }
                            if done {
                                let st = steps.remove(&seq).unwrap();
                                let report = self.finalize(seq, st);
                                let _ = self.driver.send(DriverMsg::StageDone(Box::new(report)));
                            }
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Engine (driver side).
// ---------------------------------------------------------------------

struct WorkerHandle {
    tx: SyncSender<StageMsg>,
    join: Option<JoinHandle<()>>,
}

/// Persistent stage-pipelined step engine.
///
/// Owns `P` worker threads (each holding `shards` replica cells of its
/// body slice), an "edge" replica carrying the non-reversible ends (the
/// stem and the neck/head), and the channels between them. The caller's
/// primary model remains the source of truth: parameters are broadcast
/// at step start, and only the primary receives merged gradients and BN
/// statistics.
pub struct PipelineEngine {
    bounds: Vec<usize>,
    micros: usize,
    shards: usize,
    edge: RevBiFPNClassifier,
    workers: Vec<WorkerHandle>,
    rx: Receiver<DriverMsg>,
    seq: u64,
    pending_stats: Vec<(Tensor, Tensor)>,
    last_trip: Option<(usize, f32)>,
    last_drift: Vec<DriftStageReport>,
    last_occupancy: Vec<f64>,
    occ_sum: Vec<f64>,
    occ_steps: u64,
}

impl std::fmt::Debug for PipelineEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineEngine")
            .field("stages", &self.workers.len())
            .field("bounds", &self.bounds)
            .field("micros", &self.micros)
            .field("shards", &self.shards)
            .finish()
    }
}

/// Clones a primary body range's parameter and buffer values for a
/// `SyncParams` payload.
fn body_payload(primary: &mut RevBiFPNClassifier, lo: usize, hi: usize) -> (Vec<Tensor>, Vec<Tensor>) {
    let body = primary.backbone_mut().body_mut();
    let mut params = Vec::new();
    body.stage_range(lo, hi).visit_params(&mut |p| params.push(p.value.clone()));
    let mut buffers = Vec::new();
    body.stage_range(lo, hi).visit_buffers(&mut |t| buffers.push(t.clone()));
    (params, buffers)
}

/// Clones the primary's edge (stem + neck/head) parameter and buffer
/// values, stem first.
fn edge_payload(primary: &mut RevBiFPNClassifier) -> (Vec<Tensor>, Vec<Tensor>) {
    let mut params = Vec::new();
    primary.visit_stem_params(&mut |p| params.push(p.value.clone()));
    primary.visit_neck_head_params(&mut |p| params.push(p.value.clone()));
    let mut buffers = Vec::new();
    primary.visit_stem_buffers(&mut |t| buffers.push(t.clone()));
    primary.visit_neck_head_buffers(&mut |t| buffers.push(t.clone()));
    (params, buffers)
}

/// Writes an edge payload into a replica's stem + neck/head slots.
fn load_edge(edge: &mut RevBiFPNClassifier, params: &[Tensor], buffers: &[Tensor]) {
    let mut i = 0;
    edge.visit_stem_params(&mut |p| {
        p.value.data_mut().copy_from_slice(params[i].data());
        i += 1;
    });
    edge.visit_neck_head_params(&mut |p| {
        p.value.data_mut().copy_from_slice(params[i].data());
        i += 1;
    });
    let mut j = 0;
    edge.visit_stem_buffers(&mut |t| {
        t.data_mut().copy_from_slice(buffers[j].data());
        j += 1;
    });
    edge.visit_neck_head_buffers(&mut |t| {
        t.data_mut().copy_from_slice(buffers[j].data());
        j += 1;
    });
}

impl PipelineEngine {
    /// Builds an engine for the model described by `cfg`: partitions the
    /// reversible body into `pcfg.stages` MAC-balanced slices, spawns one
    /// worker thread per slice (each with `pcfg.shards` replica cells),
    /// and keeps a hollow-body edge replica for the stem and neck/head.
    ///
    /// # Panics
    ///
    /// Panics if stage/micro/shard counts are invalid (zero stages, more
    /// stages than body stages, non-power-of-two micros/shards) or the
    /// config enables stochastic regularization (same per-sample
    /// independence requirement as [`crate::ShardEngine`]).
    pub fn new(cfg: &RevBiFPNConfig, pcfg: &PipelineConfig, drift: DriftConfig) -> Self {
        let p = pcfg.stages;
        assert!(p >= 1, "pipeline needs at least one stage");
        let micros = pcfg.micros.max(1);
        let shards = pcfg.shards.max(1);
        assert!(micros.is_power_of_two() && micros <= MAX_MICROS, "micros must be a power of two <= {MAX_MICROS}, got {micros}");
        assert!(shards.is_power_of_two(), "shards must be a power of two, got {shards}");
        assert!(
            cfg.dropout == 0.0 && cfg.drop_path == 0.0,
            "pipelined training requires dropout == 0 and drop_path == 0 \
             (stochastic layers depend on batch order)"
        );

        // Partition the body by cumulative MACs at unit batch.
        let mut probe = RevBiFPN::new(cfg.clone());
        let in_shape =
            probe.stem().out_shape(Shape::new(1, 3, cfg.resolution, cfg.resolution));
        let body = probe.take_body();
        assert!(p <= body.len(), "more pipeline stages ({p}) than body stages ({})", body.len());
        let bounds = body.partition_by_macs(&[in_shape], p);

        // One row of cells per shard replica; worker i owns column i.
        let mut per_shard: Vec<Vec<StageCell>> = Vec::with_capacity(shards);
        per_shard.push(StageCell::split_sequence(body, &bounds, drift));
        for _ in 1..shards {
            let b = RevBiFPN::new(cfg.clone()).take_body();
            per_shard.push(StageCell::split_sequence(b, &bounds, drift));
        }
        for row in &mut per_shard {
            for c in row.iter_mut() {
                c.visit_bn(&mut |bn| bn.set_stats_mode(BnStats::Decoupled));
            }
        }
        let mut columns: Vec<Vec<StageCell>> = (0..p).map(|_| Vec::with_capacity(shards)).collect();
        for row in per_shard {
            for (i, cell) in row.into_iter().enumerate() {
                columns[i].push(cell);
            }
        }

        // Edge replica: stem + neck/head only (body hollowed out).
        let mut edge = RevBiFPNClassifier::new(cfg.clone());
        let _ = edge.backbone_mut().take_body();
        edge.visit_bn(&mut |bn| bn.set_stats_mode(BnStats::Decoupled));

        // Channels: bounded worker mailboxes sized so steady-state sends
        // never block, unbounded driver mailbox as the terminal sink.
        let ring_cap = pcfg.staleness + 2;
        let mail_cap = ring_cap * 2 * MAX_MICROS + 8;
        let (dtx, drx) = mpsc::channel();
        let mut txs = Vec::with_capacity(p);
        let mut rxs = Vec::with_capacity(p);
        for _ in 0..p {
            let (t, r) = mpsc::sync_channel(mail_cap);
            txs.push(t);
            rxs.push(r);
        }
        let mut workers = Vec::with_capacity(p);
        for (i, (cells, rx)) in columns.into_iter().zip(rxs).enumerate() {
            let w = Worker {
                pos: i,
                cells,
                rx,
                next: txs.get(i + 1).cloned(),
                prev: (i > 0).then(|| txs[i - 1].clone()),
                driver: dtx.clone(),
                ring_cap,
            };
            let join = std::thread::Builder::new()
                .name(format!("pipe-stage-{i}"))
                .spawn(move || w.run())
                .expect("failed to spawn pipeline worker");
            workers.push(WorkerHandle { tx: txs[i].clone(), join: Some(join) });
        }

        Self {
            bounds,
            micros,
            shards,
            edge,
            workers,
            rx: drx,
            seq: 0,
            pending_stats: Vec::new(),
            last_trip: None,
            last_drift: Vec::new(),
            last_occupancy: Vec::new(),
            occ_sum: vec![0.0; p],
            occ_steps: 0,
        }
    }

    /// Number of pipeline stages.
    pub fn stages(&self) -> usize {
        self.workers.len()
    }

    /// Body-stage partition bounds (`stages + 1` indices).
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// Per-stage occupancy of the most recent step: fraction of the step
    /// wall-clock each worker spent computing.
    pub fn last_occupancy(&self) -> &[f64] {
        &self.last_occupancy
    }

    /// Mean per-stage occupancy over all clean steps so far.
    pub fn mean_occupancy(&self) -> Vec<f64> {
        if self.occ_steps == 0 {
            return vec![0.0; self.workers.len()];
        }
        self.occ_sum.iter().map(|s| s / self.occ_steps as f64).collect()
    }

    /// Mean pipeline bubble fraction: `1 - mean(stage occupancy)`.
    pub fn mean_bubble_fraction(&self) -> f64 {
        let occ = self.mean_occupancy();
        if occ.is_empty() {
            return 0.0;
        }
        1.0 - occ.iter().sum::<f64>() / occ.len() as f64
    }

    /// Cumulative drift-sentinel statistics from the last clean step, in
    /// global stage order.
    pub fn drift_report(&self) -> &[DriftStageReport] {
        &self.last_drift
    }

    /// `(global stage index, drift)` of the most recent drift-sentinel
    /// trip, if any step has tripped.
    pub fn last_trip(&self) -> Option<(usize, f32)> {
        self.last_trip
    }

    fn record_occupancy(&mut self, busy: &[u64], span_nanos: u64) {
        let span = span_nanos.max(1) as f64;
        self.last_occupancy = busy.iter().map(|&b| (b as f64 / span).min(1.0)).collect();
        for (a, o) in self.occ_sum.iter_mut().zip(&self.last_occupancy) {
            *a += o;
        }
        self.occ_steps += 1;
    }

    /// Copies the primary's edge parameters/buffers into the edge replica.
    fn sync_edge(&mut self, primary: &mut RevBiFPNClassifier) {
        let (params, buffers) = edge_payload(primary);
        load_edge(&mut self.edge, &params, &buffers);
    }

    /// Aborts everything in flight: broadcast `Abort`, drain until every
    /// worker acknowledges, and drop the edge replica's caches.
    fn abort(&mut self, seq: u64) {
        for w in &self.workers {
            w.tx.send(StageMsg::Control(StageControl::Abort { seq })).expect("worker died");
        }
        let mut acks = 0;
        while acks < self.workers.len() {
            // Anything else is stale data from the aborted window.
            if let DriverMsg::Acked = self.rx.recv().expect("worker died during abort") {
                acks += 1;
            }
        }
        // Edge caches were registered inside isolated (discarded) op
        // scopes; release them in a discarded scope as well.
        let ((), _tm) = meter::isolated(|| self.edge.clear_cache());
        self.pending_stats.clear();
    }

    /// Applies the BN statistics merged by the last clean step to the
    /// primary model (exactly once per clean step, like
    /// [`crate::ShardEngine::apply_bn_stats`]).
    pub fn apply_bn_stats(&mut self, primary: &mut RevBiFPNClassifier) {
        let stats = std::mem::take(&mut self.pending_stats);
        let mut it = stats.iter();
        primary.visit_bn(&mut |bn| {
            let (mean, var) = it.next().expect("BN count changed between step and apply");
            bn.apply_global_stats(mean, var);
        });
        assert!(it.next().is_none(), "BN count changed between step and apply");
    }

    /// Post-trip cleanup hook for the trainer (the abort protocol already
    /// ran inside [`PipelineEngine::step`]; this drops any merged-but-
    /// unapplied statistics).
    pub fn after_trip(&mut self) {
        self.pending_stats.clear();
        let ((), _tm) = meter::isolated(|| self.edge.clear_cache());
    }

    /// Runs one synchronous (fill/drain) pipelined training step against
    /// the primary model. Gradients, loss, logits, and BN statistics are
    /// bitwise identical to [`crate::ShardEngine::step`] on the same
    /// batch. BN statistics are merged but not applied — call
    /// [`PipelineEngine::apply_bn_stats`] once the caller's tripwires
    /// pass.
    pub fn step(
        &mut self,
        primary: &mut RevBiFPNClassifier,
        images: &Tensor,
        targets: &Tensor,
        mode: RunMode,
        faults: &ShardStepFaults,
    ) -> PipelineStepOutput {
        assert_eq!(mode, RunMode::TrainReversible, "pipelined steps are reversible-only");
        let n = images.shape().n;
        assert_eq!(targets.shape().n, n, "images/targets batch mismatch");
        let m_eff = effective_split(n, self.micros);
        let mb = n / m_eff;
        let s_eff = effective_split(mb, self.shards);
        self.pending_stats.clear();
        self.seq += 1;
        let seq = self.seq;
        let p = self.workers.len();
        let classes = targets.shape().c;

        // Broadcast: edge replica plus one (SyncParams, BeginStep) pair
        // per worker. Control is enqueued before any data can flow, so
        // workers always see the frame first.
        self.sync_edge(primary);
        for (i, w) in self.workers.iter().enumerate() {
            let (params, buffers) = body_payload(primary, self.bounds[i], self.bounds[i + 1]);
            w.tx.send(StageMsg::Control(StageControl::SyncParams { version: seq, params, buffers }))
                .expect("worker died");
            w.tx.send(StageMsg::Control(StageControl::BeginStep {
                seq,
                micros: m_eff as u32,
                shards: s_eff as u32,
                version: seq,
                fault: faults.bit_flip,
            }))
            .expect("worker died");
        }

        let t0 = Instant::now();
        let mut next_fill = 0usize;
        let mut pend_act: Option<(u32, Vec<Tensor>)> = None;
        let mut stem_fwd_meters: Vec<Option<meter::TaskMeter>> = (0..m_eff).map(|_| None).collect();
        let mut nh_meters: Vec<Option<meter::TaskMeter>> = (0..m_eff).map(|_| None).collect();
        let mut stem_bwd_meters: Vec<Option<meter::TaskMeter>> = (0..m_eff).map(|_| None).collect();
        let mut logits_parts: Vec<Option<Tensor>> = (0..m_eff).map(|_| None).collect();
        let mut loss_parts: Vec<Option<Vec<f64>>> = (0..m_eff).map(|_| None).collect();
        let mut nh_slabs: Vec<Option<Vec<Tensor>>> = (0..m_eff).map(|_| None).collect();
        let mut stem_slabs: Vec<Option<Vec<Tensor>>> = (0..m_eff).map(|_| None).collect();
        let mut nh_moms: Vec<Vec<Option<BnMoments>>> = Vec::new();
        let mut stem_moms: Vec<Vec<Option<BnMoments>>> = Vec::new();
        let mut stem_done = 0usize;
        let mut reports: Vec<Option<Box<StageReport>>> = (0..p).map(|_| None).collect();
        let mut tripped = false;

        'drive: loop {
            if stem_done == m_eff && reports.iter().all(Option::is_some) {
                break;
            }
            // Fill: stem-forward the next micro-batch (cache-free pass;
            // decoupled BN makes it bitwise equal to the Full recompute
            // at adjoint time) and push it into the first stage.
            if pend_act.is_some() || next_fill < m_eff {
                if pend_act.is_none() {
                    let micro = next_fill as u32;
                    let img = slice_batch(images, next_fill * mb, mb);
                    let edge = &mut self.edge;
                    let (s0, tm) = meter::isolated(|| {
                        meter::time_phase(meter::Phase::Forward, || {
                            edge.backbone_mut().stem_forward(&img, CacheMode::None)
                        })
                    });
                    stem_fwd_meters[next_fill] = Some(tm);
                    pend_act = Some((micro, vec![s0]));
                    next_fill += 1;
                }
                let (micro, streams) = pend_act.take().unwrap();
                match self.workers[0].tx.try_send(StageMsg::Activation { seq, micro, streams }) {
                    Ok(()) => continue 'drive,
                    Err(TrySendError::Full(m)) => {
                        if let StageMsg::Activation { micro, streams, .. } = m {
                            pend_act = Some((micro, streams));
                        }
                    }
                    Err(TrySendError::Disconnected(_)) => panic!("pipeline worker 0 died"),
                }
            }
            // Drain the driver mailbox; block (stall-charged) when idle.
            let msg = match self.rx.try_recv() {
                Ok(m) => m,
                Err(TryRecvError::Empty) => {
                    let t = Instant::now();
                    let m = self.rx.recv().expect("pipeline workers died");
                    meter::phase_add_nanos(meter::Phase::Stall, t.elapsed().as_nanos() as u64);
                    m
                }
                Err(TryRecvError::Disconnected) => panic!("pipeline workers died"),
            };
            match msg {
                DriverMsg::Pyramid { seq: s, micro, streams } if s == seq => {
                    let mi = micro as usize;
                    let tgt = slice_batch(targets, mi * mb, mb);
                    let poison = faults.nan_grad && mi == 0;
                    let edge = &mut self.edge;
                    type NhOk = (Vec<f64>, Vec<Tensor>, Vec<Tensor>, Vec<BnMoments>);
                    let ((logits_m, ok), tm): ((Tensor, Option<NhOk>), _) = meter::isolated(|| {
                        let logits = meter::time_phase(meter::Phase::Forward, || {
                            edge.neck_head_forward(&streams, CacheMode::Full)
                        });
                        if !logits.is_finite() {
                            edge.clear_neck_head_cache();
                            return (logits, None);
                        }
                        let (losses, mut dl) = softmax_cross_entropy_per_sample(&logits, &tgt, n);
                        if poison {
                            dl.data_mut()[0] = f32::NAN;
                        }
                        edge.visit_neck_head_params(&mut |p| p.grad.data_mut().fill(0.0));
                        let dpyr = edge.neck_head_backward(&dl);
                        let mut slab = Vec::new();
                        edge.visit_neck_head_params(&mut |p| slab.push(p.grad.clone()));
                        let mut moms = Vec::new();
                        edge.visit_neck_head_bn(&mut |bn| {
                            moms.push(bn.take_moments().expect("decoupled BN recorded no moments"));
                        });
                        (logits, Some((losses, dpyr, slab, moms)))
                    });
                    nh_meters[mi] = Some(tm);
                    logits_parts[mi] = Some(logits_m);
                    match ok {
                        None => {
                            tripped = true;
                        }
                        Some((losses, dpyr, slab, moms)) => {
                            loss_parts[mi] = Some(losses);
                            nh_slabs[mi] = Some(slab);
                            note_moms(&mut nh_moms, m_eff, mi, moms);
                            let last = self.workers.len() - 1;
                            self.workers[last]
                                .tx
                                .send(StageMsg::Adjoint { seq, micro, ys: streams, dys: dpyr })
                                .expect("worker died");
                        }
                    }
                }
                DriverMsg::StemAdjoint { seq: s, micro, dx } if s == seq => {
                    let mi = micro as usize;
                    let img = slice_batch(images, mi * mb, mb);
                    let edge = &mut self.edge;
                    let ((slab, moms), tm) = meter::isolated(|| {
                        let _s0 = meter::time_phase(meter::Phase::Reconstruct, || {
                            edge.backbone_mut().stem_forward(&img, CacheMode::Full)
                        });
                        edge.visit_stem_params(&mut |p| p.grad.data_mut().fill(0.0));
                        let _dx = edge.backbone_mut().stem_backward(&dx);
                        let mut slab = Vec::new();
                        edge.visit_stem_params(&mut |p| slab.push(p.grad.clone()));
                        let mut moms = Vec::new();
                        edge.visit_stem_bn(&mut |bn| {
                            moms.push(bn.take_moments().expect("decoupled BN recorded no moments"));
                        });
                        (slab, moms)
                    });
                    stem_bwd_meters[mi] = Some(tm);
                    stem_slabs[mi] = Some(slab);
                    note_moms(&mut stem_moms, m_eff, mi, moms);
                    stem_done += 1;
                }
                DriverMsg::StageDone(r) if r.seq == seq => {
                    let i = r.stage;
                    reports[i] = Some(r);
                }
                DriverMsg::Trip { seq: s, stage, drift } if s == seq => {
                    // The cell counted rev.pipeline_trip inside an
                    // isolated scope that is now discarded; re-count it
                    // on the driver so run-level statistics see it.
                    meter::count("rev.pipeline_trip");
                    self.last_trip = Some((stage, drift));
                    tripped = true;
                }
                _ => {} // stale message from an aborted window
            }
            if tripped {
                break;
            }
        }

        if tripped {
            self.abort(seq);
            let shape = logits_parts
                .iter()
                .flatten()
                .next()
                .map(|t| Shape { n, ..t.shape() })
                .unwrap_or(primary.logit_shape(n));
            let mut logits = Tensor::zeros(shape);
            for (m, part) in logits_parts.iter().enumerate() {
                if let Some(t) = part {
                    logits.data_mut()[m * mb * classes..(m + 1) * mb * classes]
                        .copy_from_slice(t.data());
                }
            }
            return PipelineStepOutput {
                logits,
                loss: 0.0,
                backward_ran: false,
                micros_used: m_eff,
                shards_used: s_eff,
            };
        }
        let span = t0.elapsed().as_nanos() as u64;
        let reports: Vec<Box<StageReport>> =
            reports.into_iter().map(|r| r.expect("missing stage report")).collect();

        // Absorb the step's meter deltas in canonical order (stem
        // forwards, stages in pipeline order, neck/head, stem backwards):
        // the byte/event trace is then independent of scheduling.
        for tm in stem_fwd_meters.iter().flatten() {
            meter::absorb(tm);
        }
        for r in &reports {
            for tm in &r.meters {
                meter::absorb(tm);
            }
        }
        for tm in nh_meters.iter().flatten() {
            meter::absorb(tm);
        }
        for tm in stem_bwd_meters.iter().flatten() {
            meter::absorb(tm);
        }

        let busy: Vec<u64> = reports.iter().map(|r| r.busy_nanos).collect();
        self.record_occupancy(&busy, span);
        self.last_drift = reports.iter().flat_map(|r| r.drift.clone()).collect();

        // Assemble full-batch logits and the tree-reduced mean loss.
        let mut logits =
            Tensor::zeros(Shape { n, ..logits_parts[0].as_ref().unwrap().shape() });
        for (m, part) in logits_parts.iter().enumerate() {
            logits.data_mut()[m * mb * classes..(m + 1) * mb * classes]
                .copy_from_slice(part.as_ref().unwrap().data());
        }
        let mut sample_losses: Vec<f64> = Vec::with_capacity(n);
        for part in &loss_parts {
            sample_losses.extend_from_slice(part.as_ref().unwrap());
        }
        par::tree_reduce_serial(n, |d, s| sample_losses[d] += sample_losses[s]);
        let loss = sample_losses.first().copied().unwrap_or(0.0) / n as f64;

        meter::time_phase(meter::Phase::Reduce, || {
            // Stem gradients: tree over the micro leaves.
            let mut stem: Vec<Vec<Tensor>> = stem_slabs.into_iter().map(|s| s.unwrap()).collect();
            tree_merge_slabs(&mut stem);
            let mut i = 0;
            primary.visit_stem_params(&mut |p| {
                p.grad.data_mut().copy_from_slice(stem[0][i].data());
                i += 1;
            });
            // Body gradients: each worker already tree-merged its leaves.
            for (k, r) in reports.iter().enumerate() {
                let mut j = 0;
                let body = primary.backbone_mut().body_mut();
                body.stage_range(self.bounds[k], self.bounds[k + 1]).visit_params(&mut |p| {
                    p.grad.data_mut().copy_from_slice(r.grads[j].data());
                    j += 1;
                });
                assert_eq!(j, r.grads.len(), "stage param count mismatch");
            }
            // Neck/head gradients.
            let mut nh: Vec<Vec<Tensor>> = nh_slabs.into_iter().map(|s| s.unwrap()).collect();
            tree_merge_slabs(&mut nh);
            let mut i = 0;
            primary.visit_neck_head_params(&mut |p| {
                p.grad.data_mut().copy_from_slice(nh[0][i].data());
                i += 1;
            });
            // BN statistics, in primary.visit_bn order: stem, body
            // stages, then neck/head.
            self.pending_stats = reduce_mom_table(n, &stem_moms);
            for r in &reports {
                for m in &r.moments {
                    self.pending_stats.push(reduce_moments(n, m.clone()));
                }
            }
            self.pending_stats.extend(reduce_mom_table(n, &nh_moms));
        });

        PipelineStepOutput {
            logits,
            loss,
            backward_ran: true,
            micros_used: m_eff,
            shards_used: s_eff,
        }
    }
}

impl Drop for PipelineEngine {
    fn drop(&mut self) {
        for w in &self.workers {
            let _ = w.tx.send(StageMsg::Control(StageControl::Shutdown));
        }
        for w in &mut self.workers {
            if let Some(j) = w.join.take() {
                let _ = j.join();
            }
        }
    }
}

// ---------------------------------------------------------------------
// Delayed-gradient (PETRA) mode.
// ---------------------------------------------------------------------

/// Driver-side edge-parameter snapshot ring: `(version, params, buffers)`.
type EdgeRing = VecDeque<(u64, Vec<Tensor>, Vec<Tensor>)>;

/// Loads edge version `version` from the snapshot ring, if not live.
/// A reload overwrites the neck/head buffers too, so the caller's
/// neck/head-statistics overlay is invalidated (`nh_live`).
fn load_edge_version(
    edge: &mut RevBiFPNClassifier,
    ring: &EdgeRing,
    live: &mut Option<u64>,
    nh_live: &mut Option<u64>,
    version: u64,
) {
    if *live == Some(version) {
        return;
    }
    let (_, params, buffers) = ring
        .iter()
        .find(|(v, _, _)| *v == version)
        .expect("delayed step scheduled before its edge parameter version");
    load_edge(edge, params, buffers);
    *live = Some(version);
    *nh_live = None;
}

/// Copies a neck/head running-statistics snapshot over the edge
/// replica's neck/head buffers (the stem buffers stay at the ring
/// version: the stem's forward runs at fill time, when only the
/// `t - K` statistics are deterministically available).
fn load_nh_stats(edge: &mut RevBiFPNClassifier, stats: &[Tensor]) {
    let mut j = 0;
    edge.visit_neck_head_buffers(&mut |t| {
        t.data_mut().copy_from_slice(stats[j].data());
        j += 1;
    });
}

/// Folds one flight's merged neck/head batch statistics into the
/// driver's accumulator, in flight order, with the exact arithmetic the
/// edge apply later runs against the primary (same `reduce_mom_table`,
/// same `apply_global_stats`, via the edge replica's own BN layers).
fn fold_nh_stats(edge: &mut RevBiFPNClassifier, acc: &mut [Tensor], n: usize, moms: &[Vec<Option<BnMoments>>]) {
    load_nh_stats(edge, acc);
    let stats = reduce_mom_table(n, moms);
    let mut it = stats.iter();
    edge.visit_neck_head_bn(&mut |bn| {
        let (mean, var) = it.next().expect("nh fold BN count mismatch");
        bn.apply_global_stats(mean, var);
    });
    assert!(it.next().is_none(), "nh fold BN count mismatch");
    let mut j = 0;
    edge.visit_neck_head_buffers(&mut |t| {
        acc[j].data_mut().copy_from_slice(t.data());
        j += 1;
    });
}

/// One in-flight training step of a delayed-gradient run.
struct Flight {
    n: usize,
    m_eff: usize,
    mb: usize,
    images: Tensor,
    targets: Tensor,
    labels: Vec<usize>,
    next_fill: usize,
    pend: Option<(u32, Vec<Tensor>)>,
    losses: Vec<Option<Vec<f64>>>,
    accs: Vec<f64>,
    stem_fwd_meters: Vec<Option<meter::TaskMeter>>,
    nh_meters: Vec<Option<meter::TaskMeter>>,
    stem_bwd_meters: Vec<Option<meter::TaskMeter>>,
    nh_slabs: Vec<Option<Vec<Tensor>>>,
    stem_slabs: Vec<Option<Vec<Tensor>>>,
    nh_moms: Vec<Vec<Option<BnMoments>>>,
    stem_moms: Vec<Vec<Option<BnMoments>>>,
    /// Neck/head running-statistics snapshot this flight normalizes
    /// with, captured from the driver's accumulator at the flight's
    /// first pyramid (see `nh_acc` in [`train_pipeline_delayed`]).
    nh_stats: Option<Vec<Tensor>>,
    pyr_done: usize,
    stem_done: usize,
    reports: Vec<Option<Box<StageReport>>>,
    stage_applied: Vec<bool>,
    edge_applied: bool,
}

impl Flight {
    fn new(
        images: Tensor,
        targets: Tensor,
        labels: Vec<usize>,
        micros: usize,
        stages: usize,
    ) -> Self {
        let n = images.shape().n;
        let m_eff = effective_split(n, micros);
        Self {
            n,
            m_eff,
            mb: n / m_eff,
            images,
            targets,
            labels,
            next_fill: 0,
            pend: None,
            losses: (0..m_eff).map(|_| None).collect(),
            accs: vec![0.0; m_eff],
            stem_fwd_meters: (0..m_eff).map(|_| None).collect(),
            nh_meters: (0..m_eff).map(|_| None).collect(),
            stem_bwd_meters: (0..m_eff).map(|_| None).collect(),
            nh_slabs: (0..m_eff).map(|_| None).collect(),
            stem_slabs: (0..m_eff).map(|_| None).collect(),
            nh_moms: Vec::new(),
            stem_moms: Vec::new(),
            nh_stats: None,
            pyr_done: 0,
            stem_done: 0,
            reports: (0..stages).map(|_| None).collect(),
            stage_applied: vec![false; stages],
            edge_applied: false,
        }
    }

    fn fully_applied(&self) -> bool {
        self.edge_applied && self.stage_applied.iter().all(|&a| a)
    }
}

/// Trains `model` with the PETRA delayed-gradient pipeline: up to
/// `cfg.pipeline.staleness + 1` steps overlap in flight, and step `t`
/// computes forward *and* backward against the parameters produced by
/// step `t - K` (clamped to the initial parameters for `t < K`). Each
/// pipeline stage and the edge (stem + neck/head) carry their own SGD
/// state and are updated strictly in step order, so for a fixed
/// `(seed, stages, micros, shards, K)` the run is bit-deterministic
/// regardless of thread scheduling (loss/accuracy curves, parameters,
/// and BN statistics; peak-memory readings may vary with interleaving).
///
/// Unsupported options (asserted): parameter EMA, fault injection,
/// checkpoint/resume, and the LR-backoff retry loop — a non-finite step
/// or drift trip aborts the run (`history.aborted`) instead of rolling
/// back, since rollback has no well-defined point in an overlapped
/// window.
///
/// # Panics
///
/// Panics when `cfg.pipeline.stages == 0`, `cfg.pipeline.staleness == 0`
/// (use the synchronous engine via [`crate::train_classifier_with`]), or
/// `cfg.ema_decay != 0`.
pub fn train_pipeline_delayed(
    model: &mut RevBiFPNClassifier,
    data: &SynthScale,
    cfg: &TrainConfig,
) -> TrainHistory {
    assert!(cfg.pipeline.stages >= 1, "delayed mode needs pipeline.stages >= 1");
    assert!(cfg.pipeline.staleness >= 1, "delayed mode needs staleness >= 1 (use the sync engine for K = 0)");
    assert_eq!(cfg.ema_decay, 0.0, "parameter EMA is unsupported in delayed mode");
    assert_eq!(model.cfg().num_classes, data.num_classes(), "model/data class mismatch");

    let mut eng = PipelineEngine::new(model.cfg(), &cfg.pipeline, cfg.resilience.drift);
    let p = eng.workers.len();
    let k = cfg.pipeline.staleness as u64;
    let ring_cap = cfg.pipeline.staleness + 2;
    let steps_per_epoch = cfg.train_size.div_ceil(cfg.batch_size);
    let schedule = LrSchedule::paper_like(cfg.lr, steps_per_epoch * cfg.epochs);
    let mut stage_sgds: Vec<Sgd> =
        (0..p).map(|_| Sgd::new(cfg.momentum, cfg.weight_decay)).collect();
    let mut edge_sgd = Sgd::new(cfg.momentum, cfg.weight_decay);
    let phases_start = meter::phase_times();

    // Version 0 = initial parameters: seed the worker snapshot rings and
    // the driver-side edge ring before any step is admitted.
    for (i, w) in eng.workers.iter().enumerate() {
        let (params, buffers) = body_payload(model, eng.bounds[i], eng.bounds[i + 1]);
        w.tx.send(StageMsg::Control(StageControl::SyncParams { version: 0, params, buffers }))
            .expect("worker died");
    }
    let mut edge_ring: EdgeRing = VecDeque::new();
    {
        let (params, buffers) = edge_payload(model);
        edge_ring.push_back((0, params, buffers));
    }
    let mut edge_live: Option<u64> = None;
    // Neck/head running-statistics accumulator, folded in flight order
    // at each flight's last pyramid (pyramids arrive flight-ordered from
    // the last stage), plus the seq whose snapshot currently overlays
    // the edge replica's neck/head buffers.
    let mut nh_acc: Vec<Tensor> = {
        let mut b = Vec::new();
        model.visit_neck_head_buffers(&mut |t| b.push(t.clone()));
        b
    };
    let mut edge_nh_live: Option<u64> = None;

    let mut history = TrainHistory::default();
    let mut flights: BTreeMap<u64, Flight> = BTreeMap::new();
    let mut next_stage_apply: Vec<u64> = vec![0; p];
    let mut next_edge_apply: u64 = 0;
    let mut next_complete: u64 = 0;
    let mut busy_total: Vec<u64> = vec![0; p];
    let mut span_nanos: u64 = 0;
    let mut aborted = false;

    'run: for epoch in 0..cfg.epochs {
        let mut loss_meter = AverageMeter::new();
        let mut acc_meter = AverageMeter::new();
        meter::reset();
        let epoch_t0 = Instant::now();
        let mut next_admit = epoch * steps_per_epoch;
        let end = (epoch + 1) * steps_per_epoch;
        loop {
            // Admit up to K+1 overlapping steps.
            while next_admit < end && flights.len() <= cfg.pipeline.staleness {
                let t = next_admit as u64;
                let (images, targets, labels) = step_batch(data, cfg, next_admit);
                let fl = Flight::new(images, targets, labels, eng.micros, p);
                let s_eff = effective_split(fl.mb, eng.shards);
                for w in &eng.workers {
                    w.tx.send(StageMsg::Control(StageControl::BeginStep {
                        seq: t,
                        micros: fl.m_eff as u32,
                        shards: s_eff as u32,
                        version: t.saturating_sub(k),
                        fault: None,
                    }))
                    .expect("worker died");
                }
                flights.insert(t, fl);
                next_admit += 1;
            }
            if flights.is_empty() && next_admit >= end {
                break;
            }

            let mut progress = false;
            // Fill: stem-forward the earliest flight that still has
            // micro-batches to push into stage 0.
            let fill_seq = flights
                .iter()
                .find(|(_, f)| f.pend.is_some() || f.next_fill < f.m_eff)
                .map(|(&t, _)| t);
            if let Some(t) = fill_seq {
                let fl = flights.get_mut(&t).unwrap();
                if fl.pend.is_none() {
                    load_edge_version(
                        &mut eng.edge,
                        &edge_ring,
                        &mut edge_live,
                        &mut edge_nh_live,
                        t.saturating_sub(k),
                    );
                    let micro = fl.next_fill as u32;
                    let img = slice_batch(&fl.images, fl.next_fill * fl.mb, fl.mb);
                    let edge = &mut eng.edge;
                    let (s0, tm) = meter::isolated(|| {
                        meter::time_phase(meter::Phase::Forward, || {
                            edge.backbone_mut().stem_forward(&img, CacheMode::None)
                        })
                    });
                    fl.stem_fwd_meters[fl.next_fill] = Some(tm);
                    fl.pend = Some((micro, vec![s0]));
                    fl.next_fill += 1;
                    progress = true;
                }
                let (micro, streams) = fl.pend.take().unwrap();
                match eng.workers[0].tx.try_send(StageMsg::Activation { seq: t, micro, streams }) {
                    Ok(()) => progress = true,
                    Err(TrySendError::Full(m)) => {
                        if let StageMsg::Activation { micro, streams, .. } = m {
                            fl.pend = Some((micro, streams));
                        }
                    }
                    Err(TrySendError::Disconnected(_)) => panic!("pipeline worker 0 died"),
                }
            }

            // Drain worker messages without blocking.
            loop {
                let msg = match eng.rx.try_recv() {
                    Ok(m) => m,
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => panic!("pipeline workers died"),
                };
                progress = true;
                if !handle_delayed_msg(
                    msg,
                    &mut eng,
                    &mut flights,
                    &edge_ring,
                    &mut edge_live,
                    &mut edge_nh_live,
                    &mut nh_acc,
                    k,
                ) {
                    aborted = true;
                    break 'run;
                }
            }

            // Apply every ready in-order update (stage SGD steps, edge SGD
            // steps, completions).
            progress |= apply_ready(
                model,
                &mut eng,
                &mut flights,
                &mut stage_sgds,
                &mut edge_sgd,
                &schedule,
                &mut next_stage_apply,
                &mut next_edge_apply,
                &mut next_complete,
                &mut edge_ring,
                ring_cap,
                &mut busy_total,
                &mut loss_meter,
                &mut acc_meter,
            );

            if !progress {
                let t = Instant::now();
                let msg = eng.rx.recv().expect("pipeline workers died");
                meter::phase_add_nanos(meter::Phase::Stall, t.elapsed().as_nanos() as u64);
                if !handle_delayed_msg(
                    msg,
                    &mut eng,
                    &mut flights,
                    &edge_ring,
                    &mut edge_live,
                    &mut edge_nh_live,
                    &mut nh_acc,
                    k,
                ) {
                    aborted = true;
                    break 'run;
                }
            }
        }
        span_nanos += epoch_t0.elapsed().as_nanos() as u64;
        let peak = meter::peak();
        let val_acc = evaluate(model, data, cfg.val_size, cfg.batch_size);
        history.epochs.push(EpochStats {
            epoch,
            train_loss: loss_meter.avg(),
            train_acc: acc_meter.avg(),
            val_acc,
            peak_activation_bytes: peak,
        });
    }
    if aborted {
        let seq = flights.keys().next_back().copied().unwrap_or(0);
        eng.abort(seq);
        flights.clear();
        history.aborted = true;
    }
    history.phases = PhaseBreakdown::from_times(meter::phase_times().since(&phases_start));
    let span = span_nanos.max(1) as f64;
    history.phases.stage_occupancy =
        busy_total.iter().map(|&b| (b as f64 / span).min(1.0)).collect();
    if !history.phases.stage_occupancy.is_empty() {
        history.phases.bubble_fraction = 1.0
            - history.phases.stage_occupancy.iter().sum::<f64>()
                / history.phases.stage_occupancy.len() as f64;
    }
    history
}

/// Handles one worker message of a delayed run. Returns `false` when the
/// run must abort (trip or non-finite logits).
#[allow(clippy::too_many_arguments)]
fn handle_delayed_msg(
    msg: DriverMsg,
    eng: &mut PipelineEngine,
    flights: &mut BTreeMap<u64, Flight>,
    edge_ring: &EdgeRing,
    edge_live: &mut Option<u64>,
    edge_nh_live: &mut Option<u64>,
    nh_acc: &mut [Tensor],
    k: u64,
) -> bool {
    match msg {
        DriverMsg::Pyramid { seq, micro, streams } => {
            let Some(fl) = flights.get_mut(&seq) else { return true };
            load_edge_version(&mut eng.edge, edge_ring, edge_live, edge_nh_live, seq.saturating_sub(k));
            if fl.nh_stats.is_none() {
                fl.nh_stats = Some(nh_acc.to_vec());
            }
            if *edge_nh_live != Some(seq) {
                load_nh_stats(&mut eng.edge, fl.nh_stats.as_ref().unwrap());
                *edge_nh_live = Some(seq);
            }
            let mi = micro as usize;
            let tgt = slice_batch(&fl.targets, mi * fl.mb, fl.mb);
            let n = fl.n;
            let edge = &mut eng.edge;
            type NhOk = (Tensor, Vec<f64>, Vec<Tensor>, Vec<Tensor>, Vec<BnMoments>);
            let (ok, tm): (Option<NhOk>, _) = meter::isolated(|| {
                let logits = meter::time_phase(meter::Phase::Forward, || {
                    edge.neck_head_forward(&streams, CacheMode::Full)
                });
                if !logits.is_finite() {
                    edge.clear_neck_head_cache();
                    return None;
                }
                let (losses, dl) = softmax_cross_entropy_per_sample(&logits, &tgt, n);
                edge.visit_neck_head_params(&mut |p| p.grad.data_mut().fill(0.0));
                let dpyr = edge.neck_head_backward(&dl);
                let mut slab = Vec::new();
                edge.visit_neck_head_params(&mut |p| slab.push(p.grad.clone()));
                let mut moms = Vec::new();
                edge.visit_neck_head_bn(&mut |bn| {
                    moms.push(bn.take_moments().expect("decoupled BN recorded no moments"));
                });
                Some((logits, losses, dpyr, slab, moms))
            });
            let Some((logits, losses, dpyr, slab, moms)) = ok else {
                meter::count("train.nonfinite_step");
                return false;
            };
            fl.accs[mi] = top1_accuracy(&logits, &fl.labels[mi * fl.mb..(mi + 1) * fl.mb]);
            fl.losses[mi] = Some(losses);
            fl.nh_slabs[mi] = Some(slab);
            fl.nh_meters[mi] = Some(tm);
            note_moms(&mut fl.nh_moms, fl.m_eff, mi, moms);
            fl.pyr_done += 1;
            if fl.pyr_done == fl.m_eff {
                fold_nh_stats(&mut eng.edge, nh_acc, fl.n, &fl.nh_moms);
                *edge_nh_live = None;
            }
            let last = eng.workers.len() - 1;
            eng.workers[last]
                .tx
                .send(StageMsg::Adjoint { seq, micro, ys: streams, dys: dpyr })
                .expect("worker died");
            true
        }
        DriverMsg::StemAdjoint { seq, micro, dx } => {
            let Some(fl) = flights.get_mut(&seq) else { return true };
            load_edge_version(&mut eng.edge, edge_ring, edge_live, edge_nh_live, seq.saturating_sub(k));
            let mi = micro as usize;
            let img = slice_batch(&fl.images, mi * fl.mb, fl.mb);
            let edge = &mut eng.edge;
            let ((slab, moms), tm) = meter::isolated(|| {
                let _s0 = meter::time_phase(meter::Phase::Reconstruct, || {
                    edge.backbone_mut().stem_forward(&img, CacheMode::Full)
                });
                edge.visit_stem_params(&mut |p| p.grad.data_mut().fill(0.0));
                let _dx = edge.backbone_mut().stem_backward(&dx);
                let mut slab = Vec::new();
                edge.visit_stem_params(&mut |p| slab.push(p.grad.clone()));
                let mut moms = Vec::new();
                edge.visit_stem_bn(&mut |bn| {
                    moms.push(bn.take_moments().expect("decoupled BN recorded no moments"));
                });
                (slab, moms)
            });
            fl.stem_bwd_meters[mi] = Some(tm);
            fl.stem_slabs[mi] = Some(slab);
            note_moms(&mut fl.stem_moms, fl.m_eff, mi, moms);
            fl.stem_done += 1;
            true
        }
        DriverMsg::StageDone(r) => {
            if let Some(fl) = flights.get_mut(&r.seq) {
                let i = r.stage;
                fl.reports[i] = Some(r);
            }
            true
        }
        DriverMsg::Trip { stage, drift, .. } => {
            meter::count("rev.pipeline_trip");
            eng.last_trip = Some((stage, drift));
            false
        }
        DriverMsg::Acked => true,
    }
}

/// Applies every in-order-ready update of a delayed run: per-stage SGD
/// steps (broadcasting the new version to the stage's worker), the edge
/// SGD step (snapshotting the new edge version), and step completions
/// (canonical meter absorption + loss/accuracy accounting). Returns
/// `true` if anything was applied.
#[allow(clippy::too_many_arguments)]
fn apply_ready(
    primary: &mut RevBiFPNClassifier,
    eng: &mut PipelineEngine,
    flights: &mut BTreeMap<u64, Flight>,
    stage_sgds: &mut [Sgd],
    edge_sgd: &mut Sgd,
    schedule: &LrSchedule,
    next_stage_apply: &mut [u64],
    next_edge_apply: &mut u64,
    next_complete: &mut u64,
    edge_ring: &mut EdgeRing,
    ring_cap: usize,
    busy_total: &mut [u64],
    loss_meter: &mut AverageMeter,
    acc_meter: &mut AverageMeter,
) -> bool {
    let mut progress = false;
    // Per-stage updates, strictly in step order per stage.
    for i in 0..eng.workers.len() {
        loop {
            let v = next_stage_apply[i];
            let Some(fl) = flights.get_mut(&v) else { break };
            if fl.reports[i].is_none() || fl.stage_applied[i] {
                break;
            }
            let n = fl.n;
            let r = fl.reports[i].as_ref().unwrap();
            let (lo, hi) = (eng.bounds[i], eng.bounds[i + 1]);
            meter::time_phase(meter::Phase::Reduce, || {
                let stats: Vec<(Tensor, Tensor)> =
                    r.moments.iter().map(|m| reduce_moments(n, m.clone())).collect();
                let body = primary.backbone_mut().body_mut();
                let mut it = stats.iter();
                body.stage_range(lo, hi).visit_bn(&mut |bn| {
                    let (mean, var) = it.next().expect("stage BN count mismatch");
                    bn.apply_global_stats(mean, var);
                });
                assert!(it.next().is_none(), "stage BN count mismatch");
                let mut j = 0;
                body.stage_range(lo, hi).visit_params(&mut |p| {
                    p.grad.data_mut().copy_from_slice(r.grads[j].data());
                    j += 1;
                });
                assert_eq!(j, r.grads.len(), "stage param count mismatch");
            });
            meter::time_phase(meter::Phase::Optimizer, || {
                stage_sgds[i].step(schedule.lr(v as usize), |f| {
                    primary.backbone_mut().body_mut().stage_range(lo, hi).visit_params(f)
                });
            });
            fl.stage_applied[i] = true;
            next_stage_apply[i] = v + 1;
            let (params, buffers) = body_payload(primary, lo, hi);
            eng.workers[i]
                .tx
                .send(StageMsg::Control(StageControl::SyncParams {
                    version: v + 1,
                    params,
                    buffers,
                }))
                .expect("worker died");
            progress = true;
        }
    }
    // Edge update: needs every micro-batch's stem adjoint (the tail of
    // the step's backward) and neck/head slab.
    loop {
        let v = *next_edge_apply;
        let Some(fl) = flights.get_mut(&v) else { break };
        if fl.edge_applied || fl.stem_done < fl.m_eff {
            break;
        }
        let n = fl.n;
        meter::time_phase(meter::Phase::Reduce, || {
            let stem_stats = reduce_mom_table(n, &fl.stem_moms);
            let nh_stats = reduce_mom_table(n, &fl.nh_moms);
            let mut it = stem_stats.iter().chain(nh_stats.iter());
            primary.visit_stem_bn(&mut |bn| {
                let (mean, var) = it.next().expect("edge BN count mismatch");
                bn.apply_global_stats(mean, var);
            });
            primary.visit_neck_head_bn(&mut |bn| {
                let (mean, var) = it.next().expect("edge BN count mismatch");
                bn.apply_global_stats(mean, var);
            });
            assert!(it.next().is_none(), "edge BN count mismatch");
            let mut stem: Vec<Vec<Tensor>> =
                fl.stem_slabs.iter_mut().map(|s| s.take().expect("missing stem slab")).collect();
            tree_merge_slabs(&mut stem);
            let mut i = 0;
            primary.visit_stem_params(&mut |p| {
                p.grad.data_mut().copy_from_slice(stem[0][i].data());
                i += 1;
            });
            let mut nh: Vec<Vec<Tensor>> =
                fl.nh_slabs.iter_mut().map(|s| s.take().expect("missing nh slab")).collect();
            tree_merge_slabs(&mut nh);
            let mut i = 0;
            primary.visit_neck_head_params(&mut |p| {
                p.grad.data_mut().copy_from_slice(nh[0][i].data());
                i += 1;
            });
        });
        meter::time_phase(meter::Phase::Optimizer, || {
            edge_sgd.step(schedule.lr(v as usize), |f| {
                primary.visit_stem_params(f);
                primary.visit_neck_head_params(f);
            });
        });
        fl.edge_applied = true;
        *next_edge_apply = v + 1;
        let (params, buffers) = edge_payload(primary);
        edge_ring.push_back((v + 1, params, buffers));
        while edge_ring.len() > ring_cap {
            edge_ring.pop_front();
        }
        progress = true;
    }
    // Completions, strictly in step order: canonical meter absorption and
    // the per-step loss/accuracy record.
    loop {
        let v = *next_complete;
        let ready = matches!(flights.get(&v), Some(fl) if fl.fully_applied());
        if !ready {
            break;
        }
        let fl = flights.remove(&v).unwrap();
        for tm in fl.stem_fwd_meters.iter().flatten() {
            meter::absorb(tm);
        }
        for r in fl.reports.iter().flatten() {
            for tm in &r.meters {
                meter::absorb(tm);
            }
        }
        for tm in fl.nh_meters.iter().flatten() {
            meter::absorb(tm);
        }
        for tm in fl.stem_bwd_meters.iter().flatten() {
            meter::absorb(tm);
        }
        for (i, r) in fl.reports.iter().flatten().enumerate() {
            busy_total[i] += r.busy_nanos;
        }
        let mut sample_losses: Vec<f64> = Vec::with_capacity(fl.n);
        for part in &fl.losses {
            sample_losses.extend_from_slice(part.as_ref().expect("missing micro losses"));
        }
        par::tree_reduce_serial(fl.n, |d, s| sample_losses[d] += sample_losses[s]);
        let loss = sample_losses.first().copied().unwrap_or(0.0) / fl.n as f64;
        loss_meter.update(loss, fl.n as u64);
        for (mi, acc) in fl.accs.iter().enumerate() {
            let _ = mi;
            acc_meter.update(*acc, fl.mb as u64);
        }
        *next_complete = v + 1;
        progress = true;
    }
    progress
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardEngine;
    use revbifpn_data::SynthScaleConfig;
    use revbifpn_nn::loss::{label_smooth, one_hot};

    fn setup() -> (RevBiFPNClassifier, SynthScale) {
        let data = SynthScale::new(SynthScaleConfig::new(32), 5);
        let model = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(data.num_classes()));
        (model, data)
    }

    fn batch(data: &SynthScale, n: usize) -> (Tensor, Tensor) {
        let (images, labels) = data.batch(0, n);
        let targets = label_smooth(&one_hot(&labels, data.num_classes()), 0.1);
        (images, targets)
    }

    fn collect_state(m: &mut RevBiFPNClassifier) -> (Vec<Tensor>, Vec<Tensor>, Vec<Tensor>) {
        let mut grads = Vec::new();
        m.visit_params(&mut |p| grads.push(p.grad.clone()));
        let mut params = Vec::new();
        m.visit_params(&mut |p| params.push(p.value.clone()));
        let mut buffers = Vec::new();
        m.visit_buffers(&mut |t| buffers.push(t.clone()));
        (grads, params, buffers)
    }

    fn assert_step_bitwise(pcfg: PipelineConfig, shard_count: usize) {
        let (mut m_ref, data) = setup();
        let (mut m_pipe, _) = setup();
        let (images, targets) = batch(&data, 16);
        let faults = ShardStepFaults::default();

        let mut shard = ShardEngine::new(m_ref.cfg(), shard_count, DriftConfig::default());
        let want = shard.step(&mut m_ref, &images, &targets, RunMode::TrainReversible, &faults);
        shard.apply_bn_stats(&mut m_ref);

        let mut pipe = PipelineEngine::new(m_pipe.cfg(), &pcfg, DriftConfig::default());
        let got = pipe.step(&mut m_pipe, &images, &targets, RunMode::TrainReversible, &faults);
        pipe.apply_bn_stats(&mut m_pipe);

        assert!(want.backward_ran && got.backward_ran);
        assert_eq!(want.logits.data(), got.logits.data(), "logits diverged");
        assert_eq!(want.loss.to_bits(), got.loss.to_bits(), "loss diverged");
        let (g_ref, _, b_ref) = collect_state(&mut m_ref);
        let (g_pipe, _, b_pipe) = collect_state(&mut m_pipe);
        assert_eq!(g_ref.len(), g_pipe.len());
        for (i, (a, b)) in g_ref.iter().zip(&g_pipe).enumerate() {
            assert_eq!(a.data(), b.data(), "grad {i} diverged");
        }
        for (i, (a, b)) in b_ref.iter().zip(&b_pipe).enumerate() {
            assert_eq!(a.data(), b.data(), "buffer {i} diverged");
        }
    }

    #[test]
    fn sync_step_matches_shard_engine_p2() {
        assert_step_bitwise(PipelineConfig::sync(2, 2), 2);
    }

    #[test]
    fn sync_step_matches_shard_engine_p4() {
        assert_step_bitwise(PipelineConfig::sync(4, 4), 1);
    }

    #[test]
    fn sync_step_with_inner_shards_matches_shard_engine() {
        assert_step_bitwise(PipelineConfig { stages: 2, micros: 2, shards: 2, staleness: 0 }, 4);
    }

    #[test]
    fn occupancy_and_bubble_reported() {
        let (mut m, data) = setup();
        let (images, targets) = batch(&data, 16);
        let mut pipe =
            PipelineEngine::new(m.cfg(), &PipelineConfig::sync(2, 4), DriftConfig::default());
        let out = pipe.step(
            &mut m,
            &images,
            &targets,
            RunMode::TrainReversible,
            &ShardStepFaults::default(),
        );
        assert!(out.backward_ran);
        assert_eq!(out.micros_used, 4);
        assert_eq!(pipe.last_occupancy().len(), 2);
        for &o in pipe.last_occupancy() {
            assert!((0.0..=1.0).contains(&o), "occupancy out of range: {o}");
            assert!(o > 0.0, "stage recorded no busy time");
        }
        let b = pipe.mean_bubble_fraction();
        assert!((0.0..1.0).contains(&b), "bubble fraction out of range: {b}");
    }

    #[test]
    fn tripped_step_aborts_cleanly_and_engine_recovers() {
        let (mut m, data) = setup();
        let (images, targets) = batch(&data, 16);
        let drift = DriftConfig { policy: revbifpn_rev::DriftPolicy::Abort, ..DriftConfig::default() };
        let mut pipe = PipelineEngine::new(m.cfg(), &PipelineConfig::sync(2, 2), drift);
        // Corrupt the final silo's output during reconstruction: the
        // sentinel must catch it and the engine must abort the step.
        let bad = ShardStepFaults {
            nan_grad: false,
            bit_flip: Some(revbifpn_rev::ReconFault { stage: 4, stream: 0, index: 0, bit: 30 }),
        };
        let out = pipe.step(&mut m, &images, &targets, RunMode::TrainReversible, &bad);
        assert!(!out.backward_ran, "corrupted reconstruction must trip");
        assert!(pipe.last_trip().is_some(), "trip site not recorded");
        pipe.after_trip();
        m.clear_cache();
        // The abort must leave the engine fully reusable: a clean step
        // right after matches a fresh shard engine bitwise.
        let (mut m_ref, _) = setup();
        let mut shard = ShardEngine::new(m_ref.cfg(), 2, DriftConfig::default());
        let want = shard.step(
            &mut m_ref,
            &images,
            &targets,
            RunMode::TrainReversible,
            &ShardStepFaults::default(),
        );
        let got = pipe.step(
            &mut m,
            &images,
            &targets,
            RunMode::TrainReversible,
            &ShardStepFaults::default(),
        );
        assert!(want.backward_ran && got.backward_ran);
        assert_eq!(want.logits.data(), got.logits.data());
        assert_eq!(want.loss.to_bits(), got.loss.to_bits());
    }
}
