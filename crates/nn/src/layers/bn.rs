//! BatchNorm2d with the statistics-caching behaviour reversible
//! recomputation requires.
//!
//! During a reversible forward pass (`CacheMode::Stats`) the layer caches its
//! *batch statistics* — O(c) floats. When the backward pass later re-runs the
//! block in `CacheMode::Full` on the reconstructed input, the frozen
//! statistics are reused (and the running statistics are **not** updated a
//! second time), so recomputation reproduces the original forward pass
//! exactly and the resulting gradients equal conventional training's
//! bit-for-bit (up to f32 addition rounding in the couplings).

use super::planes::{par_collect, plane_sums};
use crate::freeze::{FreezeError, FrozenLayer};
use crate::meter::Cached;
use crate::mode::CacheMode;
use crate::module::Layer;
use crate::param::Param;
use revbifpn_tensor::par::{self, GradSink};
use revbifpn_tensor::{Shape, Tensor};

/// Per-sample channel moments recorded by a [`BnStats::Decoupled`] training
/// forward pass.
///
/// `sum[n * c + ci]` / `sqsum[n * c + ci]` hold sample `n`'s f64 sum and
/// sum of squares of channel `ci` over the `hw` spatial positions. Each
/// entry depends only on its own sample, so a micro-batch shard records
/// bitwise the same moments as the full batch would for those samples; the
/// sharded trainer concatenates shard moments in sample order and reduces
/// them with the pairwise sample tree into global batch statistics.
#[derive(Debug, Clone)]
pub struct BnMoments {
    /// Number of samples in the recording pass.
    pub samples: usize,
    /// Spatial extent (`h * w`) each sum ranges over.
    pub hw: usize,
    /// Per-sample per-channel sums, sample-major.
    pub sum: Vec<f64>,
    /// Per-sample per-channel sums of squares, sample-major.
    pub sqsum: Vec<f64>,
}

/// A BatchNorm input kept by a fused `Full` pass (see
/// [`crate::layers::MBConv`]) with the statistics it was normalized with:
/// enough to rebuild `xhat` and the output element for element
/// ([`BatchNorm2d::map_normalized`]).
#[derive(Debug)]
pub(crate) struct BnInput {
    pub(crate) z: Tensor,
    mean: Tensor,
    inv_std: Tensor,
}

impl BnInput {
    pub(crate) fn bytes(&self) -> usize {
        self.z.bytes() + self.mean.bytes() + self.inv_std.bytes()
    }

    /// `(mean, inv_std)`, as [`BatchNorm2d::map_normalized`] takes them.
    pub(crate) fn stats(&self) -> (&Tensor, &Tensor) {
        (&self.mean, &self.inv_std)
    }
}

/// What a training forward does with the statistics of its batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BnStats {
    /// Normalize with the batch statistics and fold them into the running
    /// statistics at once.
    #[default]
    Immediate,
    /// Normalize with the batch statistics, as `Immediate` does, and hold
    /// them — the very tensors the `Stats` pass's frozen cache holds, not a
    /// copy — for [`BatchNorm2d::take_held`]: the running statistics move
    /// only when the step's owner applies them with
    /// [`BatchNorm2d::apply_global_stats`], so a step it abandons writes
    /// none. One hold per step.
    Held,
    /// Normalize with the pre-step running statistics — so each sample's
    /// activations are independent of which other samples share its
    /// micro-batch — and record per-sample moments for
    /// [`BatchNorm2d::take_moments`]; the running statistics move when the
    /// owner applies the merged batch statistics.
    Decoupled,
}

/// Per-channel batch normalization over `(n, h, w)`.
#[derive(Debug)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    c: usize,
    /// Batch statistics frozen by a `Stats`-mode pass, reused by the next
    /// `Full`-mode pass (the reversible recomputation).
    frozen: Cached<(Tensor, Tensor)>,
    /// Backward cache: (xhat, inv_std).
    saved: Cached<(Tensor, Tensor)>,
    /// What a training forward does with its batch statistics.
    stats: BnStats,
    /// Moments recorded by the last `Decoupled` training forward.
    pending: Option<BnMoments>,
    /// `(mean, var)` held by the step's `Held` training forward.
    held: Option<(Tensor, Tensor)>,
}

impl BatchNorm2d {
    /// Creates a BatchNorm with `gamma = 1, beta = 0` (paper defaults:
    /// momentum 0.9, epsilon 1e-3).
    pub fn new(c: usize) -> Self {
        Self {
            gamma: Param::ones(Shape::vector(c), false, "bn.gamma"),
            beta: Param::zeros(Shape::vector(c), false, "bn.beta"),
            running_mean: Tensor::zeros(Shape::vector(c)),
            running_var: Tensor::ones(Shape::vector(c)),
            momentum: 0.9,
            eps: 1e-3,
            c,
            frozen: Cached::empty(),
            saved: Cached::empty(),
            stats: BnStats::Immediate,
            pending: None,
            held: None,
        }
    }

    /// Sets what a training forward does with its batch statistics,
    /// dropping any moments or statistics recorded under the old mode.
    pub fn set_stats_mode(&mut self, stats: BnStats) {
        self.stats = stats;
        self.pending = None;
        self.held = None;
    }

    /// What a training forward does with its batch statistics.
    pub fn stats_mode(&self) -> BnStats {
        self.stats
    }

    /// Takes the per-sample moments recorded by the last `Decoupled`
    /// training forward, if any.
    pub fn take_moments(&mut self) -> Option<BnMoments> {
        self.pending.take()
    }

    /// Takes the `(mean, var)` held by the step's `Held` training forward,
    /// if any.
    pub fn take_held(&mut self) -> Option<(Tensor, Tensor)> {
        self.held.take()
    }

    /// Applies a step's batch statistics to the running statistics (the
    /// momentum update an `Immediate` forward makes). The step engines call
    /// it once per clean step on the primary model with the held statistics
    /// or the tree-merged per-sample moments of all shards.
    pub fn apply_global_stats(&mut self, mean: &Tensor, var: &Tensor) {
        assert_eq!(mean.shape(), Shape::vector(self.c), "mean shape");
        assert_eq!(var.shape(), Shape::vector(self.c), "var shape");
        self.update_running(mean, var);
    }

    fn record_moments(&mut self, x: &Tensor) {
        let xs = x.shape();
        let hw = xs.hw();
        let xd = x.data();
        let (sum, sqsum) = par_collect(xs.n * self.c, |p| plane_sums([&xd[p * hw..(p + 1) * hw]], |[v]| [v, v * v]))
            .into_iter()
            .map(|[s, q]| (s, q))
            .unzip();
        // Overwrite, never accumulate: if a step is skipped and retried
        // (non-finite tripwire), only the latest pass's moments survive.
        self.pending = Some(BnMoments { samples: xs.n, hw, sum, sqsum });
    }

    /// Zero-initializes `gamma`, used for the normalization layer before a
    /// residual add ("to promote stability", Kingma & Dhariwal 2018).
    pub fn zero_init(mut self) -> Self {
        self.gamma.value.fill_zero();
        self
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.c
    }

    /// Read access to the running mean (tests).
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// Read access to the running variance (tests).
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }

    fn batch_stats(&self, x: &Tensor) -> (Tensor, Tensor) {
        let xs = x.shape();
        let (c, hw) = (self.c, xs.hw());
        let m = (xs.n * hw) as f64;
        let xd = x.data();
        let plane = |n: usize, ci: usize| &xd[(n * c + ci) * hw..(n * c + ci + 1) * hw];
        // One tile per channel does both passes while its planes are hot;
        // samples add in order, so the result is a function of `x` alone.
        let (mean, var) = par_collect(c, |ci| {
            let sum: f64 = (0..xs.n).map(|n| plane_sums([plane(n, ci)], |[v]| [v])[0]).sum();
            let mean = (sum / m) as f32;
            let mu = mean as f64;
            let sq: f64 = (0..xs.n).map(|n| plane_sums([plane(n, ci)], |[v]| [(v - mu) * (v - mu)])[0]).sum();
            (mean, (sq / m) as f32)
        })
        .into_iter()
        .unzip();
        (Tensor::from_vec_unchecked(Shape::vector(c), mean), Tensor::from_vec_unchecked(Shape::vector(c), var))
    }

    fn inv_std(&self, var: &Tensor) -> Tensor {
        var.map(|v| 1.0 / (v + self.eps).sqrt())
    }

    /// One plane-parallel pass into fresh memory over `inputs`, the first
    /// of which is this layer's input `x`: each element's
    /// `xhat = (x - mean) * inv_std` and `y = xhat * gamma + beta`, with the
    /// inputs' values there, map to the `O` outputs. The forward and every
    /// rebuild in a fused backward run this one expression, so a rebuilt
    /// `xhat` or output is the forward's bit for bit.
    pub(crate) fn map_normalized<const I: usize, const O: usize>(
        &self,
        inputs: [&Tensor; I],
        (mean, inv_std): (&Tensor, &Tensor),
        f: impl Fn(f32, f32, [f32; I]) -> [f32; O] + Sync,
    ) -> [Tensor; O] {
        let (c, gamma, beta) = (self.c, self.gamma.value.data(), self.beta.value.data());
        let f = &f;
        Tensor::map_planes(inputs, |p| {
            let ci = p % c;
            let (mu, is, g, b) = (mean.data()[ci], inv_std.data()[ci], gamma[ci], beta[ci]);
            move |v: [f32; I]| {
                let xh = (v[0] - mu) * is;
                f(xh, xh * g + b, v)
            }
        })
    }

    fn update_running(&mut self, mean: &Tensor, var: &Tensor) {
        let mom = self.momentum;
        for c in 0..self.c {
            self.running_mean.data_mut()[c] = mom * self.running_mean.data()[c] + (1.0 - mom) * mean.data()[c];
            self.running_var.data_mut()[c] = mom * self.running_var.data()[c] + (1.0 - mom) * var.data()[c];
        }
    }

    /// The `(mean, var)` a pass in `mode` over `x` normalizes with, after
    /// the pass's bookkeeping: a `Full` pass after a `Stats` pass is the
    /// reversible recomputation, which reuses the frozen statistics and
    /// neither updates the running statistics nor records moments a second
    /// time.
    fn pass_stats(&mut self, x: &Tensor, mode: CacheMode) -> (Tensor, Tensor) {
        assert_eq!(x.shape().c, self.c, "BatchNorm channel mismatch");
        let frozen = if mode == CacheMode::Full { self.frozen.take() } else { None };
        match frozen {
            Some(stats) => stats,
            None if mode == CacheMode::None || self.stats == BnStats::Decoupled => {
                if mode != CacheMode::None {
                    self.record_moments(x);
                }
                (self.running_mean.clone(), self.running_var.clone())
            }
            None => {
                let (mut mean, mut var) = self.batch_stats(x);
                if self.stats == BnStats::Held {
                    debug_assert!(self.held.is_none(), "BatchNorm2d: a second statistics hold in one step");
                    self.held = Some((mean.share(), var.share()));
                } else {
                    self.update_running(&mean, &var);
                }
                (mean, var)
            }
        }
    }

    /// The statistics bookkeeping of a `Full` training pass over `z` that
    /// stores nothing itself: returns `z` with the `(mean, inv_std)` it
    /// normalizes with, for a fused caller that keeps them, maps them to the
    /// output ([`BatchNorm2d::map_normalized`]) and later runs
    /// [`BatchNorm2d::backward_kept`].
    pub(crate) fn keep_input(&mut self, z: Tensor) -> BnInput {
        let (mean, var) = self.pass_stats(&z, CacheMode::Full);
        let inv_std = self.inv_std(&var);
        BnInput { z, mean, inv_std }
    }

    /// What [`BatchNorm2d::keep_input`] keeps on input shape `x`.
    pub(crate) fn kept_bytes(&self, x: Shape) -> u64 {
        (x.bytes() + 2 * Shape::vector(self.c).bytes()) as u64
    }

    /// The backward of a `Full` pass whose input was kept: reads `xhat` off
    /// the input `z` as it goes, never as a tensor.
    pub(crate) fn backward_kept(&mut self, dy: &Tensor, kept: &BnInput) -> Tensor {
        self.backward_from(dy, &kept.z, Some(&kept.mean), &kept.inv_std)
    }

    /// The backward of a `Full` pass that normalized with `inv_std`:
    /// accumulates the parameter gradients, returns `dx`. Channel `ci`'s
    /// `xhat` is `(src - mean[ci]) * inv_std[ci]` — the forward's expression
    /// on its input — or, without `mean`, `src` itself (`(v - 0) * 1` is
    /// `v` exactly).
    fn backward_from(&mut self, dy: &Tensor, src: &Tensor, mean: Option<&Tensor>, inv_std: &Tensor) -> Tensor {
        let xs = dy.shape();
        let (c, hw) = (self.c, xs.hw());
        let (dyd, srcd) = (dy.data(), src.data());
        let to_xhat = |ci: usize| mean.map_or((0.0, 1.0), |m| (m.data()[ci], inv_std.data()[ci]));
        // (Σ dy·xhat, Σ dy) of one plane.
        let plane_grads = |n: usize, ci: usize| {
            let at = (n * c + ci) * hw;
            let (mu, sc) = to_xhat(ci);
            plane_sums([&dyd[at..at + hw], &srcd[at..at + hw]], |[d, v]| {
                let xh = ((v as f32 - mu) * sc) as f64;
                [d * xh, d]
            })
        };
        let (gamma, is) = (self.gamma.value.data(), inv_std.data());
        let mut dgamma = Tensor::zeros(Shape::vector(c));
        let mut dbeta = Tensor::zeros(Shape::vector(c));
        let dx = if self.stats == BnStats::Decoupled {
            // dgamma/dbeta: per-sample channel partials (f64 sums over hw,
            // cast to f32 per sample) merged with the pairwise sample tree,
            // so shard-local trees compose into the global batch tree bit
            // for bit (each partial depends only on its own sample).
            let mut partial = vec![0.0f32; 2 * c];
            par::tree_reduce_with_slabs(xs.n, 1, 2 * c, GradSink::Owned(&mut partial), |n, _, slab| {
                for (ci, [sg, sb]) in par_collect(c, |ci| plane_grads(n, ci)).into_iter().enumerate() {
                    slab[ci] = sg as f32;
                    slab[c + ci] = sb as f32;
                }
            });
            dgamma.data_mut().copy_from_slice(&partial[..c]);
            dbeta.data_mut().copy_from_slice(&partial[c..]);
            // The normalization statistics are pre-step running statistics —
            // constants w.r.t. this batch — so dx is just the per-channel
            // affine transpose: dx = gamma * inv_std * dy.
            let [dx] = Tensor::map_planes([dy], |p| {
                let k = gamma[p % c] * is[p % c];
                move |[d]: [f32; 1]| [d * k]
            });
            dx
        } else {
            // Per-channel reductions, samples in order.
            let sums = par_collect(c, |ci| {
                (0..xs.n).map(|n| plane_grads(n, ci)).fold([0.0f64; 2], |s, g| [s[0] + g[0], s[1] + g[1]])
            });
            for (ci, s) in sums.iter().enumerate() {
                dgamma.data_mut()[ci] = s[0] as f32;
                dbeta.data_mut()[ci] = s[1] as f32;
            }
            // dx = gamma * inv_std / m * (m*dy - sum(dy) - xhat * sum(dy*xhat))
            let m = (xs.n * hw) as f32;
            let [dx] = Tensor::map_planes([dy, src], |p| {
                let ci = p % c;
                let k = gamma[ci] * is[ci] / m;
                let (s1, s2) = (sums[ci][1] as f32, sums[ci][0] as f32);
                let (mu, sc) = to_xhat(ci);
                move |[d, v]: [f32; 2]| [k * (m * d - s1 - (v - mu) * sc * s2)]
            });
            dx
        };
        self.gamma.accumulate(&dgamma);
        self.beta.accumulate(&dbeta);
        dx
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, mode: CacheMode) -> Tensor {
        let (mean, var) = self.pass_stats(x, mode);
        let inv_std = self.inv_std(&var);
        match mode {
            CacheMode::Full => {
                let [y, xhat] = self.map_normalized([x], (&mean, &inv_std), |xh, y, _| [y, xh]);
                let bytes = xhat.bytes() + inv_std.bytes();
                self.saved.put((xhat, inv_std), bytes);
                y
            }
            _ => {
                let [y] = self.map_normalized([x], (&mean, &inv_std), |_, y, _| [y]);
                // Freeze the statistics this pass normalized with (in
                // `Decoupled` mode a copy of the pre-step running
                // statistics), so the Full-mode recomputation reproduces it
                // exactly.
                if mode == CacheMode::Stats {
                    let bytes = mean.bytes() + var.bytes();
                    self.frozen.put((mean, var), bytes);
                }
                y
            }
        }
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (xhat, inv_std) = self.saved.take().expect("BatchNorm2d::backward without Full forward");
        self.backward_from(dy, &xhat, None, &inv_std)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }

    fn visit_bn(&mut self, f: &mut dyn FnMut(&mut BatchNorm2d)) {
        f(self);
    }

    fn clear_cache(&mut self) {
        self.frozen.clear();
        self.saved.clear();
        self.pending = None;
        self.held = None;
    }

    fn cache_bytes(&self, x: Shape, mode: CacheMode) -> u64 {
        match mode {
            CacheMode::None => 0,
            CacheMode::Stats => 2 * Shape::vector(self.c).bytes() as u64,
            CacheMode::Full => (x.bytes() + Shape::vector(self.c).bytes()) as u64,
        }
    }

    fn name(&self) -> &str {
        "batchnorm2d"
    }

    fn freeze(&self) -> Result<FrozenLayer, FreezeError> {
        // Eval-mode BN is the per-channel affine
        //   y = gamma * (x - mean) / sqrt(var + eps) + beta
        //     = scale * x + bias
        // with scale = gamma / sqrt(running_var + eps) and
        // bias = beta - running_mean * scale.
        let mut scale = Tensor::zeros(Shape::vector(self.c));
        let mut bias = Tensor::zeros(Shape::vector(self.c));
        for c in 0..self.c {
            let s = self.gamma.value.data()[c] / (self.running_var.data()[c] + self.eps).sqrt();
            scale.data_mut()[c] = s;
            bias.data_mut()[c] = self.beta.value.data()[c] - self.running_mean.data()[c] * s;
        }
        Ok(FrozenLayer::Affine { scale, bias })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_training_mode;
    use crate::meter;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normalizes_batch_to_zero_mean_unit_var() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::randn(Shape::new(4, 3, 8, 8), 3.0, &mut rng);
        let y = bn.forward(&x, CacheMode::Full);
        // Per-channel moments of y should be ~ (0, 1).
        let ys = y.shape();
        for c in 0..3 {
            let mut vals = Vec::new();
            for n in 0..ys.n {
                for h in 0..ys.h {
                    for w in 0..ys.w {
                        vals.push(y.at(n, c, h, w) as f64);
                    }
                }
            }
            let m = vals.iter().sum::<f64>() / vals.len() as f64;
            let v = vals.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / vals.len() as f64;
            assert!(m.abs() < 1e-4, "mean {m}");
            assert!((v - 1.0).abs() < 1e-2, "var {v}");
        }
        bn.clear_cache();
    }

    #[test]
    fn gradients_pass_finite_diff() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut bn = BatchNorm2d::new(2);
        // Give gamma/beta non-trivial values so the test is not degenerate.
        bn.gamma.value = Tensor::from_vec(Shape::vector(2), vec![1.3, 0.7]).unwrap();
        bn.beta.value = Tensor::from_vec(Shape::vector(2), vec![0.2, -0.4]).unwrap();
        let x = Tensor::randn(Shape::new(3, 2, 4, 4), 1.0, &mut rng);
        check_layer_training_mode(&mut bn, &x, 3e-2);
    }

    #[test]
    fn frozen_stats_reused_on_recompute() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(Shape::new(2, 2, 4, 4), 1.0, &mut rng);

        let y_stats = bn.forward(&x, CacheMode::Stats);
        let rm_after_stats = bn.running_mean().clone();
        // Recompute in Full mode: output identical, running stats untouched.
        let y_full = bn.forward(&x, CacheMode::Full);
        assert!(y_stats.max_abs_diff(&y_full) < 1e-7);
        assert_eq!(bn.running_mean(), &rm_after_stats);
        bn.clear_cache();
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(Shape::new(2, 2, 4, 4), 1.0, &mut rng);
        // Without training, running stats are (0, 1): eval output == gamma*x+beta == x.
        let y = bn.forward(&x, CacheMode::None);
        // eps makes it slightly different from x; check close.
        assert!(y.max_abs_diff(&x) < 2e-3);
    }

    #[test]
    fn running_stats_move_toward_batch_stats() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::randn(Shape::new(8, 1, 8, 8), 1.0, &mut rng).map(|v| v * 2.0 + 5.0);
        for _ in 0..60 {
            let _ = bn.forward(&x, CacheMode::Stats);
            bn.clear_cache();
        }
        assert!((bn.running_mean().data()[0] - 5.0).abs() < 0.1);
        assert!((bn.running_var().data()[0] - 4.0).abs() < 0.3);
    }

    #[test]
    fn zero_init_outputs_beta() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut bn = BatchNorm2d::new(2).zero_init();
        let x = Tensor::randn(Shape::new(2, 2, 3, 3), 1.0, &mut rng);
        let y = bn.forward(&x, CacheMode::Full);
        assert!(y.abs_max() < 1e-6);
        bn.clear_cache();
    }

    #[test]
    fn decoupled_gradients_pass_finite_diff() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut bn = BatchNorm2d::new(2);
        bn.set_stats_mode(BnStats::Decoupled);
        bn.gamma.value = Tensor::from_vec(Shape::vector(2), vec![1.3, 0.7]).unwrap();
        bn.beta.value = Tensor::from_vec(Shape::vector(2), vec![0.2, -0.4]).unwrap();
        // Non-trivial running stats so the normalization is not the identity.
        bn.running_mean = Tensor::from_vec(Shape::vector(2), vec![0.3, -0.2]).unwrap();
        bn.running_var = Tensor::from_vec(Shape::vector(2), vec![1.4, 0.6]).unwrap();
        let x = Tensor::randn(Shape::new(3, 2, 4, 4), 1.0, &mut rng);
        check_layer_training_mode(&mut bn, &x, 3e-2);
    }

    #[test]
    fn decoupled_stats_pass_defers_running_update_and_records_moments() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut bn = BatchNorm2d::new(3);
        bn.set_stats_mode(BnStats::Decoupled);
        let x = Tensor::randn(Shape::new(4, 3, 5, 5), 2.0, &mut rng).map(|v| v + 1.0);
        let rm0 = bn.running_mean().clone();
        let rv0 = bn.running_var().clone();
        let y_stats = bn.forward(&x, CacheMode::Stats);
        // Running statistics untouched by the forward pass.
        assert_eq!(bn.running_mean(), &rm0);
        assert_eq!(bn.running_var(), &rv0);
        // Full recompute reproduces the Stats output bitwise (both normalize
        // with the same running statistics) and does not re-record moments.
        let y_full = bn.forward(&x, CacheMode::Full);
        for (a, b) in y_stats.data().iter().zip(y_full.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let m = bn.take_moments().expect("moments recorded");
        assert!(bn.take_moments().is_none(), "moments recorded exactly once");
        assert_eq!((m.samples, m.hw), (4, 25));
        // Merged moments reproduce the coupled batch statistics.
        let (mean_ref, var_ref) = bn.batch_stats(&x);
        let cnt = (m.samples * m.hw) as f64;
        for c in 0..3 {
            let s1: f64 = (0..m.samples).map(|n| m.sum[n * 3 + c]).sum();
            let s2: f64 = (0..m.samples).map(|n| m.sqsum[n * 3 + c]).sum();
            let mean = s1 / cnt;
            let var = (s2 / cnt - mean * mean).max(0.0);
            assert!((mean - mean_ref.data()[c] as f64).abs() < 1e-5, "mean c={c}");
            assert!((var - var_ref.data()[c] as f64).abs() < 1e-4, "var c={c}");
        }
        // The deferred update is applied explicitly.
        bn.apply_global_stats(&mean_ref, &var_ref);
        assert!((bn.running_mean().data()[0] - (0.9 * rm0.data()[0] + 0.1 * mean_ref.data()[0])).abs() < 1e-6);
        bn.clear_cache();
    }

    #[test]
    fn decoupled_param_grads_are_shard_invariant() {
        let mut rng = StdRng::seed_from_u64(9);
        let (n, c, h) = (8usize, 3usize, 4usize);
        let mut bn = BatchNorm2d::new(c);
        bn.set_stats_mode(BnStats::Decoupled);
        bn.gamma.value = Tensor::uniform(Shape::vector(c), 0.5, 1.5, &mut rng);
        bn.running_mean = Tensor::uniform(Shape::vector(c), -0.5, 0.5, &mut rng);
        bn.running_var = Tensor::uniform(Shape::vector(c), 0.5, 1.5, &mut rng);
        let x = Tensor::randn(Shape::new(n, c, h, h), 1.0, &mut rng);
        let dy = Tensor::randn(Shape::new(n, c, h, h), 1.0, &mut rng);
        let _ = bn.forward(&x, CacheMode::Full);
        let _ = bn.take_moments();
        let _ = bn.backward(&dy);
        let dg_full = bn.gamma.grad.clone();
        let db_full = bn.beta.grad.clone();
        let plane = c * h * h;
        for shards in [2usize, 4] {
            let m = n / shards;
            let mut dgs: Vec<Vec<f32>> = Vec::new();
            let mut dbs: Vec<Vec<f32>> = Vec::new();
            for s in 0..shards {
                bn.gamma.zero_grad();
                bn.beta.zero_grad();
                let xs = Tensor::from_vec(
                    Shape::new(m, c, h, h),
                    x.data()[s * m * plane..(s + 1) * m * plane].to_vec(),
                )
                .unwrap();
                let dys = Tensor::from_vec(
                    Shape::new(m, c, h, h),
                    dy.data()[s * m * plane..(s + 1) * m * plane].to_vec(),
                )
                .unwrap();
                let _ = bn.forward(&xs, CacheMode::Full);
                let _ = bn.take_moments();
                let _ = bn.backward(&dys);
                dgs.push(bn.gamma.grad.data().to_vec());
                dbs.push(bn.beta.grad.data().to_vec());
            }
            par::tree_reduce_serial(shards, |d, s| {
                let (head, tail) = dgs.split_at_mut(s);
                for (a, b) in head[d].iter_mut().zip(&tail[0]) {
                    *a += *b;
                }
                let (head, tail) = dbs.split_at_mut(s);
                for (a, b) in head[d].iter_mut().zip(&tail[0]) {
                    *a += *b;
                }
            });
            for (i, (a, b)) in dgs[0].iter().zip(dg_full.data()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "dgamma shards={shards} idx {i}");
            }
            for (i, (a, b)) in dbs[0].iter().zip(db_full.data()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "dbeta shards={shards} idx {i}");
            }
        }
        bn.clear_cache();
    }

    /// A BatchNorm over `c` channels with non-trivial affine parameters and
    /// running statistics, the same for every call with one `seed`.
    fn seeded_bn(c: usize, seed: u64) -> BatchNorm2d {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bn = BatchNorm2d::new(c);
        bn.gamma.value = Tensor::uniform(Shape::vector(c), 0.5, 1.5, &mut rng);
        bn.beta.value = Tensor::uniform(Shape::vector(c), -0.5, 0.5, &mut rng);
        bn.running_mean = Tensor::uniform(Shape::vector(c), -0.5, 0.5, &mut rng);
        bn.running_var = Tensor::uniform(Shape::vector(c), 0.5, 1.5, &mut rng);
        bn
    }

    /// One training step: the forward `passes` over `x`, then a backward of
    /// `dy`. Returns every pass's `y`, then `dx`, `dgamma` and `dbeta`.
    fn train_step(bn: &mut BatchNorm2d, passes: &[CacheMode], x: &Tensor, dy: &Tensor) -> Vec<Tensor> {
        bn.gamma.zero_grad();
        bn.beta.zero_grad();
        let mut out: Vec<Tensor> = passes.iter().map(|&mode| bn.forward(x, mode)).collect();
        out.push(bn.backward(dy));
        out.extend([bn.gamma.grad.clone(), bn.beta.grad.clone()]);
        out
    }

    #[test]
    fn held_step_then_apply_equals_an_immediate_step_bitwise() {
        use CacheMode::{Full, Stats};
        let (c, xs) = (3usize, Shape::new(4, 3, 5, 5));
        let regimes: [(&str, &[&[CacheMode]]); 3] = [
            ("Full", &[&[Full]]),
            ("Stats then Full", &[&[Stats, Full]]),
            ("conventional Full, two steps", &[&[Full], &[Full]]),
        ];
        let mut rng = StdRng::seed_from_u64(13);
        for (regime, steps) in regimes {
            let (mut immediate, mut held) = (seeded_bn(c, 14), seeded_bn(c, 14));
            held.set_stats_mode(BnStats::Held);
            for (k, passes) in steps.iter().enumerate() {
                let x = Tensor::randn(xs, 2.0, &mut rng).map(|v| v + 0.4);
                let dy = Tensor::randn(xs, 1.0, &mut rng);
                let want = train_step(&mut immediate, passes, &x, &dy);
                let got = train_step(&mut held, passes, &x, &dy);
                let (mean, var) = held.take_held().expect("a Held step holds its statistics");
                assert!(held.take_held().is_none(), "{regime}: held twice");
                held.apply_global_stats(&mean, &var);
                let names = passes.iter().map(|_| "y").chain(["dx", "dgamma", "dbeta"]);
                let pairs = want.iter().zip(&got).zip(names).chain([
                    ((&immediate.running_mean, &held.running_mean), "running_mean"),
                    ((&immediate.running_var, &held.running_var), "running_var"),
                ]);
                for ((a, b), name) in pairs {
                    assert!(a.data().iter().map(|v| v.to_bits()).eq(b.data().iter().map(|v| v.to_bits())), "{regime} step {k}: {name}");
                }
            }
            assert_eq!(held.stats_mode(), BnStats::Held);
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a second statistics hold in one step")]
    fn a_second_hold_in_one_step_panics() {
        let mut bn = BatchNorm2d::new(2);
        bn.set_stats_mode(BnStats::Held);
        let x = Tensor::randn(Shape::new(2, 2, 3, 3), 1.0, &mut StdRng::seed_from_u64(15));
        let _ = bn.forward(&x, CacheMode::Stats);
        let _ = bn.forward(&x, CacheMode::Stats);
    }

    #[test]
    fn one_pass_normalize_matches_the_three_pass_formula_bitwise() {
        let mut rng = StdRng::seed_from_u64(10);
        for xs in [Shape::new(3, 5, 4, 6), Shape::new(1, 2, 1, 1), Shape::new(2, 7, 3, 3)] {
            let mut bn = BatchNorm2d::new(xs.c);
            bn.gamma.value = Tensor::uniform(Shape::vector(xs.c), 0.5, 1.5, &mut rng);
            bn.beta.value = Tensor::uniform(Shape::vector(xs.c), -0.5, 0.5, &mut rng);
            let x = Tensor::randn(xs, 2.0, &mut rng).map(|v| v + 0.7);
            let (mean, var) = bn.batch_stats(&x);
            // The formula pass by pass: center and scale, then gamma, then beta.
            let mut xhat_want = x.clone();
            for (p, plane) in xhat_want.data_mut().chunks_exact_mut(xs.hw()).enumerate() {
                let (mu, is) = (mean.data()[p % xs.c], 1.0 / (var.data()[p % xs.c] + bn.eps).sqrt());
                plane.iter_mut().for_each(|v| *v = (*v - mu) * is);
            }
            let mut y_want = xhat_want.clone();
            y_want.mul_channel(&bn.gamma.value);
            y_want.add_channel_bias(&bn.beta.value);

            let y_stats = bn.forward(&x, CacheMode::Stats);
            let y_full = bn.forward(&x, CacheMode::Full);
            let (xhat, _) = bn.saved.take().expect("Full pass keeps xhat");
            for (name, got, want) in [("y (Stats)", &y_stats, &y_want), ("y (Full)", &y_full, &y_want), ("xhat", &xhat, &xhat_want)] {
                for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{xs} {name} idx {i}");
                }
            }
            bn.clear_cache();
        }
    }

    #[test]
    fn moments_match_an_f64_two_pass_oracle() {
        let mut rng = StdRng::seed_from_u64(12);
        let (n, c) = (3usize, 2usize);
        for hw in [1usize, 7, 8, 9, 576] {
            let x = Tensor::randn(Shape::new(n, c, 1, hw), 3.0, &mut rng).map(|v| v - 4.0);
            let plane = |p: usize| x.data()[p * hw..(p + 1) * hw].iter().map(|&v| v as f64);
            let mut bn = BatchNorm2d::new(c);
            bn.record_moments(&x);
            let m = bn.take_moments().expect("recorded");
            for p in 0..n * c {
                let (s, q): (f64, f64) = (plane(p).sum(), plane(p).map(|v| v * v).sum());
                assert!((m.sum[p] - s).abs() <= 1e-12 * s.abs(), "hw {hw} plane {p} sum");
                assert!((m.sqsum[p] - q).abs() <= 1e-12 * q.abs(), "hw {hw} plane {p} sqsum");
            }
            let (mean, var) = bn.batch_stats(&x);
            let cnt = (n * hw) as f64;
            for ci in 0..c {
                let all = || (0..n).flat_map(|ni| plane(ni * c + ci));
                let mu = all().sum::<f64>() / cnt;
                assert!((mean.data()[ci] as f64 - mu).abs() <= 1e-6 * mu.abs(), "hw {hw} mean");
                // Second pass around the mean the layer rounded to f32.
                let mu32 = mean.data()[ci] as f64;
                let v = all().map(|v| (v - mu32) * (v - mu32)).sum::<f64>() / cnt;
                assert!((var.data()[ci] as f64 - v).abs() <= 1e-6 * v.abs().max(1e-30), "hw {hw} var");
            }
        }
    }

    #[test]
    fn meter_accounting_stats_vs_full() {
        let mut rng = StdRng::seed_from_u64(6);
        meter::reset();
        let mut bn = BatchNorm2d::new(4);
        let x = Tensor::randn(Shape::new(2, 4, 8, 8), 1.0, &mut rng);
        let _ = bn.forward(&x, CacheMode::Stats);
        assert_eq!(meter::current() as u64, bn.cache_bytes(x.shape(), CacheMode::Stats));
        bn.clear_cache();
        let _ = bn.forward(&x, CacheMode::Full);
        assert_eq!(meter::current() as u64, bn.cache_bytes(x.shape(), CacheMode::Full));
        bn.clear_cache();
        assert_eq!(meter::current(), 0);
    }
}
