//! Pipeline stage cells and the stage message protocol (PETRA-style
//! stage-pipelined training, arXiv 2406.02052).
//!
//! A [`StageCell`] re-homes a contiguous slice of a [`ReversibleSequence`]
//! behind a message interface: it owns its stages' parameters, drift
//! sentinels, and scratch, and exposes *per-micro-batch* forward /
//! backward entry points. Because every stage is reversible, the cell
//! reconstructs its own inputs during backward — no cross-stage activation
//! buffering is needed, which is what makes pipeline parallelism over the
//! reversible chain memory-free on the forward path.
//!
//! Unlike `ReversibleSequence` (one in-flight batch, one fingerprint slot
//! per stage), a cell keys its drift fingerprints by micro-batch index so
//! several micro-batches can be in flight through the same cell at once.
//! The `FallbackToCached` drift policy is intentionally *not* supported
//! inside a pipeline cell: falling back requires buffering stage inputs,
//! which defeats the pipeline's memory model — instead drift beyond
//! tolerance under a non-`Warn` policy trips the step (see [`CellTrip`]),
//! and the training engine aborts and retries through its snapshot path.

use crate::stage::{fingerprint, fingerprint_drift, flip_bit};
use crate::{DriftConfig, DriftPolicy, DriftStageReport, ReconFault, RevStage, ReversibleSequence};
use revbifpn_nn::{meter, CacheMode, Layer, Module};
use revbifpn_tensor::Tensor;

/// A message exchanged between pipeline stages (and the driver).
///
/// This is the data-plane protocol of the pipelined trainer: activations
/// flow forward, adjoints flow backward, and control messages (parameter
/// sync, step framing, abort) flow from the driver. Payloads are plain
/// owned tensors so the same protocol can later sit behind a process
/// boundary (serialize the tensors; the protocol does not change).
#[derive(Debug)]
pub enum StageMsg {
    /// Forward activations for one micro-batch entering a stage.
    Activation {
        /// Engine-global step sequence number (monotonic, never reused —
        /// a retried trainer step gets a fresh sequence number).
        seq: u64,
        /// Micro-batch index within the step.
        micro: u32,
        /// One tensor per feature stream.
        streams: Vec<Tensor>,
    },
    /// Backward adjoints for one micro-batch entering a stage from its
    /// successor: the stage's forward *outputs* (reconstructed by the
    /// successor) plus the loss gradients with respect to them.
    Adjoint {
        /// Engine-global step sequence number.
        seq: u64,
        /// Micro-batch index within the step.
        micro: u32,
        /// The stage's forward outputs (reconstructed downstream).
        ys: Vec<Tensor>,
        /// Gradients with respect to `ys`.
        dys: Vec<Tensor>,
    },
    /// Driver-originated control.
    Control(StageControl),
}

/// Control messages from the pipeline driver to a stage worker.
#[derive(Debug)]
pub enum StageControl {
    /// Replace the stage's parameters and persistent buffers. `version`
    /// counts optimizer updates applied to the payload: version `v` means
    /// the gradients of engine steps `0..v` are reflected. Workers key
    /// delayed-gradient scheduling off this number.
    SyncParams {
        /// Parameter version (number of optimizer steps applied).
        version: u64,
        /// Parameter values in `visit_params` order.
        params: Vec<Tensor>,
        /// Persistent buffers (BatchNorm running stats) in `visit_buffers`
        /// order.
        buffers: Vec<Tensor>,
    },
    /// Frame the start of a step: `micros` forward and backward
    /// micro-batches tagged `seq` will follow.
    BeginStep {
        /// Engine-global step sequence number.
        seq: u64,
        /// Number of micro-batches in this step.
        micros: u32,
        /// Data-parallel shard count *within* each micro-batch (the worker
        /// fans each micro out over this many replica cells).
        shards: u32,
        /// Required parameter version for this step's forward pass
        /// (delayed mode; equals the current version in sync mode).
        version: u64,
        /// One-shot reconstruction fault to arm (global stage index;
        /// ignored unless it falls inside this worker's range).
        fault: Option<ReconFault>,
    },
    /// Abort the named step: drop all in-flight state tagged `seq`,
    /// clear caches, acknowledge, and await the next `BeginStep`.
    Abort {
        /// Step sequence number being aborted.
        seq: u64,
    },
    /// Terminate the worker loop (engine shutdown).
    Shutdown,
}

/// A drift-sentinel trip inside a cell: reconstructed inputs drifted
/// beyond tolerance under a non-`Warn` policy. The engine aborts the step.
#[derive(Clone, Copy, Debug)]
pub struct CellTrip {
    /// Global stage index (forward order in the original sequence).
    pub stage: usize,
    /// Observed drift (max-abs-diff over fingerprint samples).
    pub drift: f32,
}

#[derive(Debug, Default, Clone, Copy)]
struct CellStageStats {
    max_drift: f32,
    checks: u64,
}

/// A contiguous slice of a reversible chain, owned by one pipeline worker.
///
/// Stage indices are kept *global* (offset by `base`) so drift reports and
/// fault injection line up with the original sequence regardless of the
/// partition.
#[derive(Debug)]
pub struct StageCell {
    base: usize,
    stages: Vec<Box<dyn RevStage>>,
    drift: DriftConfig,
    /// `fingerprints[micro][local_stage]` — keyed per micro-batch so
    /// several micro-batches can be in flight at once.
    fingerprints: Vec<Vec<Option<Vec<Vec<f32>>>>>,
    stats: Vec<CellStageStats>,
    fault: Option<ReconFault>,
}

impl StageCell {
    /// Builds a cell from stages whose global indices start at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty or stream counts do not chain.
    pub fn new(base: usize, stages: Vec<Box<dyn RevStage>>, drift: DriftConfig) -> Self {
        assert!(!stages.is_empty(), "a stage cell needs at least one stage");
        for w in stages.windows(2) {
            assert_eq!(
                w[0].out_streams(),
                w[1].in_streams(),
                "cell stage stream counts must chain"
            );
        }
        let n = stages.len();
        Self { base, stages, drift, fingerprints: Vec::new(), stats: vec![CellStageStats::default(); n], fault: None }
    }

    /// Consumes a sequence and splits it into cells at `bounds` (as
    /// produced by [`ReversibleSequence::partition_by_macs`]: `P + 1`
    /// strictly increasing indices from 0 to `len`).
    pub fn split_sequence(seq: ReversibleSequence, bounds: &[usize], drift: DriftConfig) -> Vec<StageCell> {
        assert!(bounds.len() >= 2, "need at least one part");
        assert_eq!(*bounds.first().unwrap(), 0, "bounds must start at 0");
        assert_eq!(*bounds.last().unwrap(), seq.len(), "bounds must end at len()");
        let mut stages = seq.into_stages();
        let mut cells = Vec::with_capacity(bounds.len() - 1);
        // Split back-to-front so indices stay valid while draining.
        for w in bounds.windows(2).rev() {
            assert!(w[0] < w[1], "bounds must be strictly increasing");
            let tail = stages.split_off(w[0]);
            cells.push(StageCell::new(w[0], tail, drift));
        }
        cells.reverse();
        cells
    }

    /// Global index of this cell's first stage.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Number of stages in the cell.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// `true` when the cell holds no stages (never constructed this way).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Input stream count of the cell's first stage.
    pub fn in_streams(&self) -> usize {
        self.stages[0].in_streams()
    }

    /// Output stream count of the cell's last stage.
    pub fn out_streams(&self) -> usize {
        self.stages.last().unwrap().out_streams()
    }

    /// Arms a one-shot reconstruction fault. Faults addressed to stages
    /// outside this cell's range are ignored (each worker receives the
    /// step's fault and only the owner arms it).
    pub fn arm_fault(&mut self, f: ReconFault) {
        if f.stage >= self.base && f.stage < self.base + self.stages.len() {
            self.fault = Some(f);
        }
    }

    /// Drops any armed fault and all pending fingerprints (step abort).
    pub fn reset_step_state(&mut self) {
        self.fault = None;
        for per_micro in &mut self.fingerprints {
            for slot in per_micro {
                *slot = None;
            }
        }
    }

    fn ensure_micro(&mut self, micro: usize) {
        while self.fingerprints.len() <= micro {
            self.fingerprints.push(vec![None; self.stages.len()]);
        }
    }

    /// `Stats`-mode forward for one micro-batch, fingerprinting each
    /// stage's input into the micro's sentinel slot.
    pub fn forward_micro(&mut self, micro: usize, xs: &[Tensor]) -> Vec<Tensor> {
        self.ensure_micro(micro);
        let mut cur = xs.to_vec();
        for (i, s) in self.stages.iter_mut().enumerate() {
            if self.drift.enabled {
                self.fingerprints[micro][i] = Some(fingerprint(&cur));
            }
            cur = s.forward(&cur, CacheMode::Stats);
        }
        cur
    }

    /// Reversible backward for one micro-batch: consumes the cell's output
    /// streams and gradients, reconstructs inputs stage by stage (checking
    /// each against the micro's fingerprints),
    /// accumulates parameter gradients, and returns `(xs, dxs)` at the
    /// cell input.
    ///
    /// Drift above tolerance counts `rev.drift_warn` under
    /// [`DriftPolicy::Warn`]; any other policy returns a [`CellTrip`]
    /// (`rev.pipeline_trip` is counted) and the caller must abort the
    /// step — partially accumulated gradients are *not* rolled back.
    pub fn backward_micro(
        &mut self,
        micro: usize,
        ys: Vec<Tensor>,
        dys: Vec<Tensor>,
    ) -> Result<(Vec<Tensor>, Vec<Tensor>), CellTrip> {
        self.ensure_micro(micro);
        let mut cur_y = ys;
        let mut cur_dy = dys;
        let cfg = self.drift;
        for (i, s) in self.stages.iter_mut().enumerate().rev() {
            if let Some(f) = self.fault {
                // One-shot: fire on the first backward micro to reach the
                // target stage, mirroring `ReversibleSequence`'s harness.
                if f.stage == self.base + i {
                    self.fault = None;
                    let stream = f.stream % cur_y.len();
                    flip_bit(&mut cur_y[stream], f.index, f.bit);
                }
            }
            let (xs, dxs) = s.backward_rev(cur_y, cur_dy);
            if cfg.enabled {
                if let Some(fp) = self.fingerprints[micro][i].take() {
                    let drift = fingerprint_drift(&fp, &xs);
                    let st = &mut self.stats[i];
                    st.checks += 1;
                    st.max_drift = st.max_drift.max(drift);
                    if drift > cfg.tolerance {
                        match cfg.policy {
                            DriftPolicy::Warn => meter::count("rev.drift_warn"),
                            _ => {
                                meter::count("rev.pipeline_trip");
                                return Err(CellTrip { stage: self.base + i, drift });
                            }
                        }
                    }
                }
            }
            cur_y = xs;
            cur_dy = dxs;
        }
        Ok((cur_y, cur_dy))
    }

    /// Per-stage drift statistics, in global stage order.
    pub fn drift_stats(&self) -> Vec<DriftStageReport> {
        self.stages
            .iter()
            .zip(&self.stats)
            .map(|(s, st)| DriftStageReport {
                name: s.name().to_string(),
                max_drift: st.max_drift,
                checks: st.checks,
                fallback: false,
            })
            .collect()
    }
}

impl Module for StageCell {
    fn visit_layers(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        for s in &mut self.stages {
            s.visit_layers(f);
        }
    }

    /// Drops pending fingerprints and any armed fault.
    fn clear_state(&mut self) {
        self.reset_step_state();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::tests_support::make_seq_for_cells;
    use revbifpn_tensor::{Shape, Tensor};

    fn inputs(n: usize, seed: u64) -> Vec<Tensor> {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        vec![Tensor::randn(Shape::new(n, 8, 8, 8), 0.5, &mut rng)]
    }

    #[test]
    fn split_roundtrips_forward() {
        let mut seq = make_seq_for_cells(7);
        let xs = inputs(2, 1);
        let want = seq.forward(xs.clone(), CacheMode::Stats);
        let bounds = seq.partition_by_macs(&[xs[0].shape()], 2);
        let mut cells = StageCell::split_sequence(seq, &bounds, DriftConfig::default());
        assert_eq!(cells.len(), 2);
        let mid = cells[0].forward_micro(0, &xs);
        let got = cells[1].forward_micro(0, &mid);
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.data(), g.data(), "cell forward must match sequence forward bitwise");
        }
    }

    #[test]
    fn partition_bounds_are_valid() {
        let seq = make_seq_for_cells(7);
        let shapes = [Shape::new(2, 8, 8, 8)];
        for parts in 1..=4 {
            let b = seq.partition_by_macs(&shapes, parts);
            assert_eq!(b.len(), parts + 1);
            assert_eq!(b[0], 0);
            assert_eq!(*b.last().unwrap(), seq.len());
            for w in b.windows(2) {
                assert!(w[0] < w[1], "empty part in {b:?}");
            }
        }
    }

    #[test]
    fn cell_trips_on_injected_fault() {
        let seq = make_seq_for_cells(7);
        let bounds = vec![0, 3, seq.len()];
        let drift = DriftConfig { enabled: true, tolerance: 5e-2, policy: DriftPolicy::Abort };
        let mut cells = StageCell::split_sequence(seq, &bounds, drift);
        let xs = inputs(2, 2);
        let mid = cells[0].forward_micro(0, &xs);
        let out = cells[1].forward_micro(0, &mid);
        cells[1].arm_fault(ReconFault { stage: 4, stream: 0, index: 5, bit: 30 });
        let dys: Vec<Tensor> = out.iter().map(|y| Tensor::zeros(y.shape())).collect();
        let err = cells[1].backward_micro(0, out, dys).expect_err("fault must trip the cell");
        assert!(err.stage >= 3, "trip should carry a global stage index, got {}", err.stage);
        assert!(err.drift > 5e-2);
    }
}
