//! The reversible residual block of Gomez et al. (2017), "The Reversible
//! Residual Network: Backpropagation Without Storing Activations".
//!
//! The input is split along channels into `(x1, x2)`; the block computes
//!
//! ```text
//! y1 = x1 + F(x2)
//! y2 = x2 + G(y1)
//! ```
//!
//! and is inverted by `x2 = y2 - G(y1)`, `x1 = y1 - F(x2)`. That is the
//! two-stream [`RevSilo`] over the streams `(x2, x1)`, with `D_10 = F` and
//! `U_01 = G`, and the block runs as one: it keeps no arithmetic of its own.
//! During the reversible backward pass the inputs are reconstructed from
//! the outputs and `F`/`G` are re-run with full caching *transiently*, so
//! no hidden activation survives the forward pass. RevBiFPN uses these
//! blocks for all same-resolution transformations (paper Section 3), with
//! MBConv bodies.

use crate::silo::{RevSilo, Stream};
use revbifpn_nn::{CacheMode, Layer, Module, ShapeWalk};
use revbifpn_tensor::{Shape, Tensor};
use std::borrow::Cow;

/// A reversible residual block with additive coupling.
#[derive(Debug)]
pub struct RevBlock {
    /// The streams `(x2, x1)`: `down[1][0]` is F, `up[0][0]` is G.
    silo: RevSilo,
    c_split: usize,
    channels: usize,
}

/// `x = (x1, x2)` from the block's streams `(x2, x1)`.
fn join(s: &[Tensor]) -> Tensor {
    Tensor::concat_channels(&[&s[1], &s[0]])
}

/// A block forward, training or frozen: `silo` runs on the streams
/// `(x2, x1)` of `x`. Only `x2` is copied out (a transform takes a tensor);
/// `x1` is read where it lies, as the leading channels of `x`.
pub(crate) fn coupled(x: &Tensor, c_split: usize, silo: impl FnOnce(Vec<Stream<'_>>) -> Vec<Tensor>) -> Tensor {
    let x2 = x.channel_slice(c_split, x.shape().c);
    join(&silo(vec![Some(Cow::Borrowed(&x2)), Some(Cow::Borrowed(x))]))
}

impl RevBlock {
    /// Creates a block over `channels` channels, split at `channels / 2`.
    ///
    /// `f` must map `channels - c_split -> c_split` channels and `g` the
    /// reverse, both preserving spatial dims (checked at the first forward).
    ///
    /// # Panics
    ///
    /// Panics if `channels < 2`.
    pub fn new(channels: usize, f: Box<dyn Layer>, g: Box<dyn Layer>) -> Self {
        assert!(channels >= 2, "RevBlock needs at least 2 channels to split");
        let (mut f, mut g) = (Some(f), Some(g));
        let silo = RevSilo::new(2, 2, &mut |_, _| f.take().expect("F"), &mut |_, _| g.take().expect("G"));
        Self { silo, c_split: channels / 2, channels }
    }

    /// Total channel count the block operates on.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Inference-only frozen form: `F` and `G` are frozen via
    /// [`Layer::freeze`] (BN folded, activations fused). The result is
    /// *uncompiled*; see [`crate::FrozenRevBlock`].
    pub fn freeze(&self) -> Result<crate::FrozenRevBlock, revbifpn_nn::FreezeError> {
        Ok(crate::FrozenRevBlock { silo: self.silo.freeze()?, c_split: self.c_split })
    }

    /// The streams `(x2, x1)` of `x = (x1, x2)`, both copied out.
    fn streams(&self, x: &Tensor) -> Vec<Tensor> {
        let (x1, x2) = x.split_channels(self.c_split);
        vec![x2, x1]
    }

    /// Forward pass in the given cache mode.
    ///
    /// # Panics
    ///
    /// Panics if the input channel count disagrees with the constructor.
    pub fn forward(&mut self, x: &Tensor, mode: CacheMode) -> Tensor {
        assert_eq!(x.shape().c, self.channels, "RevBlock channel mismatch");
        coupled(x, self.c_split, |s| self.silo.forward_streams(s, mode))
    }

    /// Exact inverse of the forward pass (evaluation semantics: BatchNorms
    /// inside `F`/`G` use running statistics, matching a `CacheMode::None`
    /// forward).
    pub fn inverse(&mut self, y: &Tensor) -> Tensor {
        let ys = self.streams(y);
        join(&self.silo.inverse_streams(ys))
    }

    /// Reversible backward: consumes the output `y` and its gradient `dy`,
    /// reconstructs the input, accumulates parameter gradients, and returns
    /// `(x, dx)`.
    ///
    /// Requires that the forward pass ran with [`CacheMode::Stats`] so
    /// BatchNorm statistics and stochastic seeds can be replayed.
    ///
    /// One transform's recompute is live at a time: the silo's up row runs
    /// first, so G is re-run with `Full` caching, `G(y1)` leaves `y2` and is
    /// dropped, and G is transposed (its cache dies in `backward`) before F
    /// is re-run. The halves of `y` and `dy` turn into those of `x` and `dx`
    /// in place.
    pub fn backward_rev(&mut self, y: Tensor, dy: Tensor) -> (Tensor, Tensor) {
        let ys = self.streams(&y);
        drop(y);
        let dys = self.streams(&dy);
        drop(dy);
        let (xs, dxs) = self.silo.backward_rev(ys, dys);
        let x = join(&xs);
        drop(xs);
        (x, join(&dxs))
    }

    /// Conventional backward using the caches of a `Full`-mode forward.
    pub fn backward_cached(&mut self, dy: &Tensor) -> Tensor {
        let dys = self.streams(dy);
        join(&self.silo.backward_cached(&dys))
    }
}

impl Module for RevBlock {
    /// F, then G.
    fn visit_layers(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        self.silo.visit_layers(f);
    }
}

impl ShapeWalk for RevBlock {
    /// F on the second channel half, then G on the first; one stream, its
    /// shape kept.
    fn visit_layers_at(&self, xs: &[Shape], f: &mut dyn FnMut(&dyn Layer, Shape)) -> Vec<Shape> {
        let x = xs[0];
        self.silo.visit_layers_at(&[x.with_c(x.c - self.c_split), x.with_c(self.c_split)], f);
        vec![x]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use revbifpn_nn::layers::{MBConv, MBConvCfg};
    use revbifpn_nn::Accounting::Layout;

    fn make_block(c: usize, rng: &mut StdRng) -> RevBlock {
        let half = c / 2;
        let f = MBConv::new(MBConvCfg::same(half, 3, 2.0).plain(), rng);
        let g = MBConv::new(MBConvCfg::same(half, 3, 2.0).plain(), rng);
        RevBlock::new(c, Box::new(f), Box::new(g))
    }

    /// Randomizes BN gammas so the transforms are not the identity.
    fn randomize_bn(b: &mut RevBlock, rng: &mut StdRng) {
        b.visit_params(&mut |p| {
            if p.name == "bn.gamma" {
                p.value = Tensor::uniform(p.value.shape(), 0.5, 1.5, rng);
            }
        });
    }

    #[test]
    fn inverse_reconstructs_input_eval() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = make_block(8, &mut rng);
        randomize_bn(&mut b, &mut rng);
        let x = Tensor::randn(Shape::new(2, 8, 6, 6), 1.0, &mut rng);
        let y = b.forward(&x, CacheMode::None);
        let back = b.inverse(&y);
        assert!(back.max_abs_diff(&x) < 1e-4, "diff {}", back.max_abs_diff(&x));
    }

    #[test]
    fn backward_rev_reconstructs_input_training() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut b = make_block(8, &mut rng);
        randomize_bn(&mut b, &mut rng);
        let x = Tensor::randn(Shape::new(2, 8, 6, 6), 1.0, &mut rng);
        let y = b.forward(&x, CacheMode::Stats);
        let dy = Tensor::randn(y.shape(), 1.0, &mut rng);
        let (x_rec, _dx) = b.backward_rev(y, dy);
        assert!(x_rec.max_abs_diff(&x) < 1e-4, "diff {}", x_rec.max_abs_diff(&x));
    }

    #[test]
    fn reversible_gradients_match_cached_gradients() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut b1 = make_block(8, &mut rng);
        randomize_bn(&mut b1, &mut StdRng::seed_from_u64(99));
        // Clone the block by rebuilding with the same seeds.
        let mut rng2 = StdRng::seed_from_u64(2);
        let mut b2 = make_block(8, &mut rng2);
        randomize_bn(&mut b2, &mut StdRng::seed_from_u64(99));

        let mut xrng = StdRng::seed_from_u64(3);
        let x = Tensor::randn(Shape::new(2, 8, 6, 6), 1.0, &mut xrng);
        let dy = Tensor::randn(Shape::new(2, 8, 6, 6), 1.0, &mut xrng);

        // Conventional: Full cache.
        let y1 = b1.forward(&x, CacheMode::Full);
        zero_grads_block(&mut b1);
        let dx_cached = b1.backward_cached(&dy);

        // Reversible: Stats + backward_rev.
        let y2 = b2.forward(&x, CacheMode::Stats);
        zero_grads_block(&mut b2);
        let (_, dx_rev) = b2.backward_rev(y2.clone(), dy);

        assert!(y1.max_abs_diff(&y2) < 1e-5);
        assert!(dx_cached.max_abs_diff(&dx_rev) < 1e-4, "dx diff {}", dx_cached.max_abs_diff(&dx_rev));

        // Parameter gradients must match too.
        let mut g1 = Vec::new();
        b1.visit_params(&mut |p| g1.push(p.grad.clone()));
        let mut g2 = Vec::new();
        b2.visit_params(&mut |p| g2.push(p.grad.clone()));
        assert_eq!(g1.len(), g2.len());
        for (a, b) in g1.iter().zip(&g2) {
            assert!(a.max_abs_diff(b) < 1e-3, "param grad diff {}", a.max_abs_diff(b));
        }
    }

    fn zero_grads_block(b: &mut RevBlock) {
        b.visit_params(&mut |p| p.zero_grad());
    }

    #[test]
    fn initial_block_is_identity() {
        // Zero-init projection BNs -> F = G = 0 -> block is the identity.
        let mut rng = StdRng::seed_from_u64(4);
        let half = 4;
        let f = MBConv::new(MBConvCfg::same(half, 3, 2.0).plain().with_zero_init(), &mut rng);
        let g = MBConv::new(MBConvCfg::same(half, 3, 2.0).plain().with_zero_init(), &mut rng);
        let mut b = RevBlock::new(8, Box::new(f), Box::new(g));
        let x = Tensor::randn(Shape::new(1, 8, 4, 4), 1.0, &mut rng);
        let y = b.forward(&x, CacheMode::Full);
        assert!(y.max_abs_diff(&x) < 1e-5);
        b.clear_cache();
    }

    #[test]
    fn stats_mode_caches_only_stats() {
        revbifpn_nn::meter::reset();
        let mut rng = StdRng::seed_from_u64(5);
        let mut b = make_block(8, &mut rng);
        let x = Tensor::randn(Shape::new(2, 8, 8, 8), 1.0, &mut rng);
        let _ = b.forward(&x, CacheMode::Stats);
        let stats_bytes = revbifpn_nn::meter::current();
        assert_eq!(stats_bytes as u64, b.cache_bytes(&[x.shape()], CacheMode::Stats, Layout));
        // Stats cache is tiny compared to a Full cache.
        assert!((stats_bytes as u64) < b.cache_bytes(&[x.shape()], CacheMode::Full, Layout) / 10);
        b.clear_cache();
        assert_eq!(revbifpn_nn::meter::current(), 0);
    }

    #[test]
    fn macs_are_sum_of_f_and_g() {
        let mut rng = StdRng::seed_from_u64(6);
        let b = make_block(8, &mut rng);
        let x = Shape::new(1, 8, 16, 16);
        assert!(b.macs(&[x]) > 0);
    }
}
