//! Classification metrics, running averages, and the per-phase timing
//! breakdown surfaced from the nn-level step timers.

use revbifpn_nn::loss::argmax_rows;
use revbifpn_nn::meter::PhaseTimes;
use revbifpn_tensor::Tensor;

/// Running average of a scalar.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AverageMeter {
    sum: f64,
    count: u64,
}

impl AverageMeter {
    /// A fresh meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `value` with weight `n`.
    pub fn update(&mut self, value: f64, n: u64) {
        self.sum += value * n as f64;
        self.count += n;
    }

    /// Current average (0 if empty).
    pub fn avg(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Number of weighted observations.
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// Per-phase wall-clock breakdown of training steps, in milliseconds,
/// converted from the process-wide phase timers in
/// [`revbifpn_nn::meter`] (see [`revbifpn_nn::meter::phase_times`]).
///
/// Counters are *aggregate thread-time*: concurrent shard tasks each
/// charge their own wall clock, so on a multi-core run the sum can exceed
/// elapsed time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Batch forward passes (loss included).
    pub forward_ms: f64,
    /// Reversible re-forwards reconstructing activations during backward.
    pub reconstruct_ms: f64,
    /// Gradient (transpose) computation.
    pub backward_ms: f64,
    /// Cross-shard / cross-sample gradient and BN-stat tree reductions.
    pub reduce_ms: f64,
    /// Optimizer updates (SGD step, EMA).
    pub optimizer_ms: f64,
    /// Per-pipeline-stage occupancy of a delayed-gradient run: the busy
    /// share of each stage's slots in the schedule it walked (index =
    /// pipeline position). Empty for every other run.
    pub stage_occupancy: Vec<f64>,
    /// Idle share of the stages' slots in that schedule. Zero for every
    /// other run.
    pub bubble_fraction: f64,
}

impl PhaseBreakdown {
    /// Converts a [`PhaseTimes`] snapshot (or snapshot difference) into
    /// milliseconds. The slot shares are not derivable from phase
    /// counters; the delayed-gradient schedule fills them in.
    pub fn from_times(t: PhaseTimes) -> Self {
        const MS: f64 = 1e-6;
        Self {
            forward_ms: t.forward_nanos as f64 * MS,
            reconstruct_ms: t.reconstruct_nanos as f64 * MS,
            backward_ms: t.backward_nanos as f64 * MS,
            reduce_ms: t.reduce_nanos as f64 * MS,
            optimizer_ms: t.optimizer_nanos as f64 * MS,
            stage_occupancy: Vec::new(),
            bubble_fraction: 0.0,
        }
    }

    /// Sum over all phases, in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.forward_ms
            + self.reconstruct_ms
            + self.backward_ms
            + self.reduce_ms
            + self.optimizer_ms
    }
}

/// Top-1 accuracy of logits `[n, k, 1, 1]` against labels.
pub fn top1_accuracy(logits: &Tensor, labels: &[usize]) -> f64 {
    let preds = argmax_rows(logits);
    assert_eq!(preds.len(), labels.len(), "batch size mismatch");
    if labels.is_empty() {
        return 0.0;
    }
    let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    correct as f64 / labels.len() as f64
}

/// Top-k accuracy.
pub fn topk_accuracy(logits: &Tensor, labels: &[usize], k: usize) -> f64 {
    let s = logits.shape();
    assert_eq!(s.n, labels.len(), "batch size mismatch");
    if labels.is_empty() {
        return 0.0;
    }
    let mut correct = 0;
    for (n, &label) in labels.iter().enumerate() {
        let row = &logits.data()[n * s.c..(n + 1) * s.c];
        let target_score = row[label];
        let better = row.iter().filter(|&&v| v > target_score).count();
        if better < k {
            correct += 1;
        }
    }
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use revbifpn_tensor::Shape;

    #[test]
    fn average_meter_weighted() {
        let mut m = AverageMeter::new();
        m.update(1.0, 1);
        m.update(0.0, 3);
        assert!((m.avg() - 0.25).abs() < 1e-9);
        assert_eq!(m.count(), 4);
    }

    #[test]
    fn top1_counts_matches() {
        let l = Tensor::from_vec(Shape::new(2, 3, 1, 1), vec![0.0, 1.0, 0.0, 1.0, 0.0, 0.0]).unwrap();
        assert_eq!(top1_accuracy(&l, &[1, 0]), 1.0);
        assert_eq!(top1_accuracy(&l, &[2, 0]), 0.5);
    }

    #[test]
    fn topk_wider_than_top1() {
        let l = Tensor::from_vec(Shape::new(1, 4, 1, 1), vec![0.4, 0.3, 0.2, 0.1]).unwrap();
        assert_eq!(top1_accuracy(&l, &[1]), 0.0);
        assert_eq!(topk_accuracy(&l, &[1], 2), 1.0);
    }
}
