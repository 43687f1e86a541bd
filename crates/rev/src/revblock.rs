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
//! and is inverted by `x2 = y2 - G(y1)`, `x1 = y1 - F(x2)`. During the
//! reversible backward pass the inputs are reconstructed from the outputs
//! and `F`/`G` are re-run with full caching *transiently*, so no hidden
//! activation survives the forward pass. RevBiFPN uses these blocks for all
//! same-resolution transformations (paper Section 3), with MBConv bodies.

use revbifpn_nn::{meter, CacheMode, Layer, Module, ShapeWalk};
use revbifpn_tensor::{Shape, Tensor};

/// A reversible residual block with additive coupling.
#[derive(Debug)]
pub struct RevBlock {
    f: Box<dyn Layer>,
    g: Box<dyn Layer>,
    c_split: usize,
    channels: usize,
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
        Self { f, g, c_split: channels / 2, channels }
    }

    /// Total channel count the block operates on.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Inference-only frozen form: `F` and `G` are frozen via
    /// [`Layer::freeze`] (BN folded, activations fused). The result is
    /// *uncompiled*; see [`crate::FrozenRevBlock`].
    pub fn freeze(&self) -> Result<crate::FrozenRevBlock, revbifpn_nn::FreezeError> {
        Ok(crate::FrozenRevBlock {
            f: self.f.freeze()?,
            g: self.g.freeze()?,
            c_split: self.c_split,
        })
    }

    /// Forward pass in the given cache mode.
    ///
    /// # Panics
    ///
    /// Panics if the input channel count disagrees with the constructor.
    pub fn forward(&mut self, x: &Tensor, mode: CacheMode) -> Tensor {
        assert_eq!(x.shape().c, self.channels, "RevBlock channel mismatch");
        let (x1, x2) = x.split_channels(self.c_split);
        let f_out = self.f.forward(&x2, mode);
        let y1 = &x1 + &f_out;
        let g_out = self.g.forward(&y1, mode);
        let y2 = &x2 + &g_out;
        Tensor::concat_channels(&[&y1, &y2])
    }

    /// Exact inverse of the forward pass (evaluation semantics: BatchNorms
    /// inside `F`/`G` use running statistics, matching a `CacheMode::None`
    /// forward).
    pub fn inverse(&mut self, y: &Tensor) -> Tensor {
        let (y1, y2) = y.split_channels(self.c_split);
        let g_out = self.g.forward(&y1, CacheMode::None);
        let x2 = &y2 - &g_out;
        let f_out = self.f.forward(&x2, CacheMode::None);
        let x1 = &y1 - &f_out;
        Tensor::concat_channels(&[&x1, &x2])
    }

    /// Reversible backward: consumes the output `y` and its gradient `dy`,
    /// reconstructs the input, accumulates parameter gradients, and returns
    /// `(x, dx)`.
    ///
    /// Requires that the forward pass ran with [`CacheMode::Stats`] so
    /// BatchNorm statistics and stochastic seeds can be replayed.
    ///
    /// One transform's recompute is live at a time: G is re-run with `Full`
    /// caching and transposed (its cache dies in `backward`) before F is
    /// re-run. That order is free because G's transpose reads only `dy2`,
    /// and F and G own disjoint parameters. The halves of `y` and `dy` turn
    /// into those of `x` and `dx` in place — `y2 -= G(y1)` is `x2`,
    /// `dy1 += G^T dy2` is `dz1`, `y1 -= F(x2)` is `x1`, `dy2 += F^T dz1` is
    /// `dx2` — each the same IEEE operation as a fresh `a - b` or `a + b`.
    pub fn backward_rev(&mut self, y: Tensor, dy: Tensor) -> (Tensor, Tensor) {
        let (mut y1, mut y2) = y.split_channels(self.c_split);
        drop(y);
        let (mut dy1, mut dy2) = dy.split_channels(self.c_split);
        drop(dy);
        // G first: reconstruct x2, then transpose G into dz1.
        let g_out = meter::time_phase(meter::Phase::Reconstruct, || self.g.forward(&y1, CacheMode::Full));
        y2.sub_assign(&g_out);
        drop(g_out);
        let dg_in = meter::time_phase(meter::Phase::Backward, || self.g.backward(&dy2));
        dy1.add_assign(&dg_in);
        drop(dg_in);
        // Then F: reconstruct x1 from x2, transpose F into dx2. F and G
        // couple through dz1, so unlike silo edges they cannot run
        // concurrently.
        let f_out = meter::time_phase(meter::Phase::Reconstruct, || self.f.forward(&y2, CacheMode::Full));
        y1.sub_assign(&f_out);
        drop(f_out);
        let df_in = meter::time_phase(meter::Phase::Backward, || self.f.backward(&dy1));
        dy2.add_assign(&df_in);
        drop(df_in);
        let x = Tensor::concat_channels(&[&y1, &y2]);
        drop((y1, y2));
        let dx = Tensor::concat_channels(&[&dy1, &dy2]);
        (x, dx)
    }

    /// Conventional backward using the caches of a `Full`-mode forward.
    pub fn backward_cached(&mut self, dy: &Tensor) -> Tensor {
        let (dy1, dy2) = dy.split_channels(self.c_split);
        let dg_in = self.g.backward(&dy2);
        let dz1 = &dy1 + &dg_in;
        let df_in = self.f.backward(&dz1);
        let dx2 = &dy2 + &df_in;
        Tensor::concat_channels(&[&dz1, &dx2])
    }

}

impl Module for RevBlock {
    fn visit_layers(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        f(self.f.as_mut());
        f(self.g.as_mut());
    }
}

impl ShapeWalk for RevBlock {
    /// F on the second channel half, then G on the first; one stream, its
    /// shape kept.
    fn visit_layers_at(&self, xs: &[Shape], f: &mut dyn FnMut(&dyn Layer, Shape)) -> Vec<Shape> {
        let x = xs[0];
        f(self.f.as_ref(), x.with_c(x.c - self.c_split));
        f(self.g.as_ref(), x.with_c(self.c_split));
        vec![x]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use revbifpn_nn::layers::{MBConv, MBConvCfg};

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

    /// Reference order for `backward_rev`: both reconstructions first, then
    /// both transposes, every coupling a fresh tensor. `backward_rev` must
    /// equal it bit for bit.
    fn backward_rev_oracle(b: &mut RevBlock, y: &Tensor, dy: &Tensor) -> (Tensor, Tensor) {
        let (y1, y2) = y.split_channels(b.c_split);
        let (dy1, dy2) = dy.split_channels(b.c_split);
        let g_out = b.g.forward(&y1, CacheMode::Full);
        let x2 = &y2 - &g_out;
        let f_out = b.f.forward(&x2, CacheMode::Full);
        let x1 = &y1 - &f_out;
        let dg_in = b.g.backward(&dy2);
        let dz1 = &dy1 + &dg_in;
        let df_in = b.f.backward(&dz1);
        let dx2 = &dy2 + &df_in;
        (Tensor::concat_channels(&[&x1, &x2]), Tensor::concat_channels(&[&dz1, &dx2]))
    }

    #[test]
    fn backward_rev_equals_the_two_reconstructions_first_oracle_bitwise() {
        // Plain MBConv bodies, and residual bodies with drop-path whose
        // seeds the Full recompute must replay in either order.
        let plain = |rng: &mut StdRng| make_block(8, rng);
        let drop_path = |rng: &mut StdRng| {
            let cfg = MBConvCfg::same(6, 3, 2.0).with_drop_path(0.3);
            RevBlock::new(12, Box::new(MBConv::new(cfg, rng)), Box::new(MBConv::new(cfg, rng)))
        };
        let makers: [&dyn Fn(&mut StdRng) -> RevBlock; 2] = [&plain, &drop_path];
        for (k, make) in makers.iter().enumerate() {
            let build = || {
                let mut b = make(&mut StdRng::seed_from_u64(20 + k as u64));
                randomize_bn(&mut b, &mut StdRng::seed_from_u64(30));
                b
            };
            let (mut got_b, mut want_b) = (build(), build());
            let mut rng = StdRng::seed_from_u64(40);
            let x = Tensor::randn(Shape::new(3, got_b.channels(), 7, 7), 1.0, &mut rng);
            let dy = Tensor::randn(x.shape(), 1.0, &mut rng);
            let y = got_b.forward(&x, CacheMode::Stats);
            assert_eq!(y, want_b.forward(&x, CacheMode::Stats));
            zero_grads_block(&mut got_b);
            zero_grads_block(&mut want_b);
            let (want_x, want_dx) = backward_rev_oracle(&mut want_b, &y, &dy);
            let (got_x, got_dx) = got_b.backward_rev(y, dy);
            assert_eq!(got_x, want_x, "block {k}: reconstructed input");
            assert_eq!(got_dx, want_dx, "block {k}: input gradient");
            let mut want = Vec::new();
            want_b.visit_params(&mut |p| want.push(p.grad.clone()));
            let mut got = Vec::new();
            got_b.visit_params(&mut |p| got.push(p.grad.clone()));
            assert_eq!(got, want, "block {k}: parameter gradients");
        }
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
        assert_eq!(stats_bytes as u64, b.cache_bytes(&[x.shape()], CacheMode::Stats));
        // Stats cache is tiny compared to a Full cache.
        assert!((stats_bytes as u64) < b.cache_bytes(&[x.shape()], CacheMode::Full) / 10);
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
