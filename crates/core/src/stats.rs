//! Analytic model statistics: parameter counts, MAC counts, and the memory
//! breakdown used to regenerate the paper's memory figures (1, 4, 8, 9, 12)
//! and Table 2 without having to allocate paper-scale tensors.
//!
//! The activation terms come from the shape walk ([`revbifpn_nn::ShapeWalk`]):
//! the listed layers' cache bytes, and the largest one's `Full` cache as the
//! reversible transient, in one of two accountings ([`Accounting`]):
//!
//! - `Autograd` counts what per-op autograd would save — every op keeps the
//!   tensors its own backward reads. The paper measured PyTorch, so the
//!   paper-magnitude columns and comparisons read it.
//! - `Layout` counts what this repo's layers store. A `Full` MBConv keeps its
//!   input, each BatchNorm's input and the SE gate, and rebuilds the rest in
//!   its backward, so `Layout` is the smaller one. The runtime meter checks
//!   it byte for byte, for the classifier in both regimes (the tests below)
//!   and for every runnable baseline
//!   (`crates/baselines/tests/meter_cross_check.rs`).
//!
//! Parameters, gradients and SGD momentum buffers are 4 bytes per scalar
//! each.

use crate::config::RevBiFPNConfig;
use crate::model::{RevBiFPNClassifier, RunMode};
use revbifpn_nn::Accounting;

/// Byte breakdown of one training step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryBreakdown {
    /// Model parameters.
    pub params: u64,
    /// Gradient accumulators.
    pub grads: u64,
    /// Optimizer state (SGD momentum: one buffer per parameter).
    pub optimizer: u64,
    /// Activations resident for the backward pass (caches + saved pyramid).
    pub activations: u64,
    /// Peak transient working set of reversible recomputation (0 for
    /// conventional training).
    pub transient: u64,
}

impl MemoryBreakdown {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.params + self.grads + self.optimizer + self.activations + self.transient
    }

    /// Activation + transient bytes per sample, in GB (the paper's Table 2
    /// metric is per-sample training memory).
    pub fn activation_gb_per_sample(&self, batch: u64) -> f64 {
        (self.activations + self.transient) as f64 / batch as f64 / 1e9
    }
}

/// Computes the memory breakdown for a classifier at batch size `n`, the
/// activation terms under `acct`.
pub fn memory_breakdown(model: &mut RevBiFPNClassifier, n: usize, mode: RunMode, acct: Accounting) -> MemoryBreakdown {
    let params = model.param_count() * 4;
    let (grads, optimizer) = match mode {
        RunMode::Eval => (0, 0),
        _ => (params, params),
    };
    let transient = match mode {
        RunMode::TrainReversible => model.backbone().peak_transient_bytes(n, acct),
        _ => 0,
    };
    let activations = model.activation_bytes(n, mode, acct).saturating_sub(transient);
    MemoryBreakdown { params, grads, optimizer, activations, transient }
}

/// Convenience: builds the model for `cfg` and summarizes everything the
/// comparison tables need.
#[derive(Clone, Debug)]
pub struct ModelSummary {
    /// Variant name.
    pub name: String,
    /// Scalar parameter count.
    pub params: u64,
    /// MACs of one forward pass at batch 1 and the configured resolution.
    pub macs: u64,
    /// Input resolution.
    pub resolution: usize,
    /// Per-sample training memory (GB) with reversible recomputation, in
    /// the paper's accounting ([`Accounting::Autograd`]).
    pub mem_rev_gb: f64,
    /// Per-sample training memory (GB) with conventional caching, in the
    /// paper's accounting.
    pub mem_conv_gb: f64,
    /// [`ModelSummary::mem_rev_gb`] in this repo's layout
    /// ([`Accounting::Layout`]).
    pub mem_rev_layout_gb: f64,
}

/// Summarizes a configuration (builds the model once).
pub fn summarize(cfg: &RevBiFPNConfig) -> ModelSummary {
    let mut model = RevBiFPNClassifier::new(cfg.clone());
    let params = model.param_count();
    let macs = model.macs(1);
    let rev = memory_breakdown(&mut model, 1, RunMode::TrainReversible, Accounting::Autograd);
    let conv = memory_breakdown(&mut model, 1, RunMode::TrainConventional, Accounting::Autograd);
    let rev_layout = memory_breakdown(&mut model, 1, RunMode::TrainReversible, Accounting::Layout);
    ModelSummary {
        name: cfg.name.clone(),
        params,
        macs,
        resolution: cfg.resolution,
        mem_rev_gb: rev.activation_gb_per_sample(1),
        mem_conv_gb: conv.activation_gb_per_sample(1),
        mem_rev_layout_gb: rev_layout.activation_gb_per_sample(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use revbifpn_nn::meter;
    use revbifpn_tensor::{Shape, Tensor};

    #[test]
    fn breakdown_totals() {
        let b = MemoryBreakdown { params: 1, grads: 2, optimizer: 3, activations: 4, transient: 5 };
        assert_eq!(b.total(), 15);
    }

    #[test]
    fn analytic_matches_measured_peak_conventional() {
        // The analytic activation bytes must equal the measured meter peak
        // for conventional training (within the tensors-in-flight slack:
        // measured peak == resident cache here because caches only grow
        // during forward).
        let mut m = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(10));
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::randn(Shape::new(2, 3, 32, 32), 1.0, &mut rng);
        meter::reset();
        let _ = m.forward(&x, RunMode::TrainConventional);
        let measured = meter::current() as u64;
        let analytic = m.activation_bytes(2, RunMode::TrainConventional, Accounting::Layout);
        assert_eq!(measured, analytic);
        m.clear_cache();
    }

    #[test]
    fn analytic_reversible_bounds_measured_peak() {
        // For reversible training the analytic figure (resident + largest
        // stage transient) must be an upper bound on—and close to—the
        // measured peak.
        let mut m = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(10).with_depth(2));
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::randn(Shape::new(2, 3, 32, 32), 1.0, &mut rng);
        let (peak, _) = m.measure_step(&x, RunMode::TrainReversible);
        let analytic = m.activation_bytes(2, RunMode::TrainReversible, Accounting::Layout);
        assert!(peak as u64 <= analytic, "measured {peak} > analytic {analytic}");
        assert!(peak as u64 > analytic / 2, "analytic {analytic} far above measured {peak}");
    }

    #[test]
    fn reversible_breakdown_smaller_activations() {
        let mut m = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(10).with_depth(3));
        for acct in [Accounting::Autograd, Accounting::Layout] {
            let rev = memory_breakdown(&mut m, 4, RunMode::TrainReversible, acct);
            let conv = memory_breakdown(&mut m, 4, RunMode::TrainConventional, acct);
            assert!(rev.activations + rev.transient < conv.activations, "{acct:?}");
            assert_eq!(rev.params, conv.params);
        }
    }

    #[test]
    fn s0_lands_near_paper_scale() {
        // Paper Table 1: RevBiFPN-S0 has 3.42M params and 0.31B MACs at 224.
        let s = summarize(&RevBiFPNConfig::s0(1000));
        assert!((2_500_000..=4_500_000).contains(&s.params), "params {}", s.params);
        assert!((250_000_000..=400_000_000).contains(&s.macs), "macs {}", s.macs);
    }

    #[test]
    fn summary_is_consistent() {
        let s = summarize(&RevBiFPNConfig::tiny(10));
        assert!(s.params > 0);
        assert!(s.macs > 0);
        assert!(s.mem_rev_gb < s.mem_conv_gb);
        assert!(s.mem_rev_layout_gb < s.mem_rev_gb);
    }
}
