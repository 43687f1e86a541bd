//! The RevBiFPN backbone (paper Figure 3): invertible stem, a chain of
//! expansion RevSilos growing the pyramid from 1 to N streams (with
//! reversible residual blocks between them), and `d` extra full-width
//! fusion silos.

use crate::config::{DownsampleMode, RevBiFPNConfig, UpsampleMode};
use crate::stem::Stem;
use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn_nn::layers::{BatchNorm2d, Conv2d, MBConv, MBConvCfg, Upsample};
use revbifpn_nn::{meter, Accounting, CacheMode, Layer, Module, Sequential, ShapeWalk};
use revbifpn_rev::{BlockStage, RevBlock, RevSilo, ReversibleSequence, TrainMode};
use revbifpn_tensor::{ResizeMode, Shape, Tensor};

/// Builds the transform for silo edge `j -> i` (downsampling), honouring the
/// configured [`DownsampleMode`]. `residual_target` marks whether stream `i`
/// receives a residual add (real input stream), which controls zero-init.
fn make_down(cfg: &RevBiFPNConfig, j: usize, i: usize, residual_target: bool, rng: &mut StdRng) -> Box<dyn Layer> {
    let n = cfg.num_streams();
    let se = if cfg.se_placement.applies(i, n) { cfg.se_ratio } else { 0.0 };
    match cfg.down_mode {
        DownsampleMode::SingleStrided => {
            let mut mb = MBConvCfg::down(cfg.channels[j], cfg.channels[i], (i - j) as u32, cfg.fusion_expansion)
                .with_se(se)
                .plain();
            if residual_target {
                mb = mb.with_zero_init();
            }
            Box::new(MBConv::new(mb, rng))
        }
        DownsampleMode::Chained => {
            let mut seq = Sequential::new();
            for t in j..i {
                let mut mb = MBConvCfg::down(cfg.channels[t], cfg.channels[t + 1], 1, cfg.fusion_expansion)
                    .with_se(if t + 1 == i { se } else { 0.0 })
                    .plain();
                if residual_target && t + 1 == i {
                    mb = mb.with_zero_init();
                }
                seq.add(Box::new(MBConv::new(mb, rng)));
            }
            Box::new(seq)
        }
    }
}

/// Builds the transform for silo edge `j -> i` (upsampling), honouring the
/// configured [`UpsampleMode`]. Up edges always feed residual adds.
fn make_up(cfg: &RevBiFPNConfig, j: usize, i: usize, rng: &mut StdRng) -> Box<dyn Layer> {
    let n = cfg.num_streams();
    let se = if cfg.se_placement.applies(i, n) { cfg.se_ratio } else { 0.0 };
    match cfg.up_mode {
        UpsampleMode::BilinearConv => {
            let mb = MBConvCfg::up(cfg.channels[j], cfg.channels[i], (j - i) as u32, cfg.fusion_expansion)
                .with_se(se)
                .plain()
                .with_zero_init();
            Box::new(MBConv::new(mb, rng))
        }
        UpsampleMode::NearestPointwise => {
            // HRNet-style "su": 1x1 conv + BN (zero-init) + nearest upsample.
            let mut seq = Sequential::new();
            seq.add(Box::new(Conv2d::pointwise(cfg.channels[j], cfg.channels[i], false, rng)));
            seq.add(Box::new(BatchNorm2d::new(cfg.channels[i]).zero_init()));
            seq.add(Box::new(Upsample::new(1 << (j - i), ResizeMode::Nearest)));
            Box::new(seq)
        }
    }
}

fn make_silo(cfg: &RevBiFPNConfig, n_in: usize, n_out: usize, rng: &mut StdRng) -> RevSilo {
    let mut rng2 = StdRng::seed_from_u64(rand_seed(rng));
    let mut down = |j: usize, i: usize| make_down(cfg, j, i, i < n_in, rng);
    let mut up = |j: usize, i: usize| make_up(cfg, j, i, &mut rng2);
    RevSilo::new(n_in, n_out, &mut down, &mut up)
}

fn rand_seed(rng: &mut StdRng) -> u64 {
    rand::RngExt::random(rng)
}

fn make_block_stage(cfg: &RevBiFPNConfig, streams: usize, rng: &mut StdRng) -> BlockStage {
    let n = cfg.num_streams();
    let blocks = (0..streams)
        .map(|i| {
            let c = cfg.channels[i];
            let half = c / 2;
            let se = if cfg.se_placement.applies(i, n) { cfg.se_ratio } else { 0.0 };
            (0..cfg.blocks_per_stage)
                .map(|_| {
                    let mb = MBConvCfg::same(half, cfg.block_kernel(i), cfg.expansion[i])
                        .with_se(se)
                        .with_drop_path(cfg.drop_path)
                        .plain()
                        .with_zero_init();
                    let f = MBConv::new(mb, rng);
                    let g = MBConv::new(mb, rng);
                    RevBlock::new(c, Box::new(f), Box::new(g))
                })
                .collect()
        })
        .collect();
    BlockStage::new(blocks)
}

/// The fully reversible RevBiFPN backbone: maps an image to an N-stream
/// feature pyramid using O(nchw) training memory.
#[derive(Debug)]
pub struct RevBiFPN {
    cfg: RevBiFPNConfig,
    stem: Stem,
    body: ReversibleSequence,
}

impl RevBiFPN {
    /// Builds the backbone from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.validate()` fails.
    pub fn new(cfg: RevBiFPNConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("invalid RevBiFPN config: {e}"));
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let stem = Stem::from_config(&cfg);
        let n = cfg.num_streams();
        let mut body = ReversibleSequence::new();
        for target in 2..=n {
            body.add(Box::new(make_silo(&cfg, target - 1, target, &mut rng)));
            body.add(Box::new(make_block_stage(&cfg, target, &mut rng)));
        }
        for _ in 0..cfg.depth {
            body.add(Box::new(make_silo(&cfg, n, n, &mut rng)));
            body.add(Box::new(make_block_stage(&cfg, n, &mut rng)));
        }
        Self { cfg, stem, body }
    }

    /// The configuration this backbone was built from.
    pub fn cfg(&self) -> &RevBiFPNConfig {
        &self.cfg
    }

    /// The reversible body (for memory analytics).
    pub fn body(&self) -> &ReversibleSequence {
        &self.body
    }

    /// Mutable access to the reversible body (drift-sentinel configuration
    /// and fault injection).
    pub fn body_mut(&mut self) -> &mut ReversibleSequence {
        &mut self.body
    }

    /// The stem.
    pub fn stem(&self) -> &Stem {
        &self.stem
    }

    /// Mutable access to the stem.
    pub fn stem_mut(&mut self) -> &mut Stem {
        &mut self.stem
    }

    /// Removes and returns the reversible body, leaving an empty sequence
    /// behind.
    pub fn take_body(&mut self) -> ReversibleSequence {
        std::mem::take(&mut self.body)
    }

    /// Runs only the stem forward, in an explicit cache mode (bypasses
    /// [`stem_mode`](Self::forward) promotion).
    pub fn stem_forward(&mut self, x: &Tensor, mode: CacheMode) -> Tensor {
        self.stem.forward(x, mode)
    }

    /// Backward through only the stem, consuming its caches. Timed as
    /// [`meter::Phase::Backward`]: the body's stages time their own phases,
    /// the stem runs none.
    fn stem_backward(&mut self, ds0: &Tensor) -> Tensor {
        meter::time_phase(meter::Phase::Backward, || self.stem.backward(ds0))
    }

    /// Inference-only frozen form of the backbone: fused stem + fused body
    /// (uncompiled; see [`crate::FrozenBackbone`]).
    pub fn freeze(&self) -> Result<crate::FrozenBackbone, revbifpn_nn::FreezeError> {
        Ok(crate::FrozenBackbone {
            cfg: self.cfg.clone(),
            stem: self.stem.freeze()?,
            body: self.body.freeze()?,
        })
    }

    /// Cache mode the stem runs in: a non-reversible (convolutional) stem
    /// must cache conventionally whenever training, even in the reversible
    /// regime — its activations cannot be reconstructed.
    fn stem_mode(&self, mode: CacheMode) -> CacheMode {
        if self.stem.is_reversible() || mode == CacheMode::None {
            mode
        } else {
            CacheMode::Full
        }
    }

    /// Forward pass: image `[n, 3, r, r]` to an N-stream feature pyramid.
    pub fn forward(&mut self, x: &Tensor, mode: CacheMode) -> Vec<Tensor> {
        let s0 = self.stem.forward(x, self.stem_mode(mode));
        self.body.forward(vec![s0], mode)
    }

    /// Reversible backward from the pyramid: consumes the pyramid and its
    /// gradient, reconstructs all hidden activations, accumulates parameter
    /// gradients, and returns the gradient w.r.t. the input image.
    ///
    /// The forward pass must have used [`CacheMode::Stats`].
    pub fn backward_rev(&mut self, pyramid: Vec<Tensor>, dpyramid: Vec<Tensor>) -> Tensor {
        let (_, dxs) = self.body.backward(pyramid, dpyramid, TrainMode::Reversible);
        self.stem_backward(&dxs[0])
    }

    /// Conventional backward using `Full` caches.
    pub fn backward_cached(&mut self, dpyramid: Vec<Tensor>) -> Tensor {
        let (_, dxs) = self.body.backward(Vec::new(), dpyramid, TrainMode::Conventional);
        self.stem_backward(&dxs[0])
    }

    /// Reconstructs the input image from the output pyramid (evaluation
    /// semantics). Only exact for the SpaceToDepth stem.
    ///
    /// # Errors
    ///
    /// Returns `Err` when the stem is not invertible.
    pub fn invert(&mut self, pyramid: Vec<Tensor>) -> Result<Tensor, &'static str> {
        let xs = self.body.inverse(pyramid);
        self.stem.inverse(&xs[0])
    }

    /// Shape of a batch of `n` images at the configured resolution.
    pub(crate) fn image(&self, n: usize) -> Shape {
        Shape::new(n, 3, self.cfg.resolution, self.cfg.resolution)
    }

    /// Output pyramid shapes for a batch of `n` images.
    pub fn pyramid_shapes(&self, n: usize) -> Vec<Shape> {
        self.out_shapes(&[self.image(n)])
    }

    /// Total MACs of one forward pass for batch size `n`.
    pub fn macs(&self, n: usize) -> u64 {
        ShapeWalk::macs(self, &[self.image(n)])
    }

    /// Analytic activation-cache bytes of a forward pass for batch `n` in
    /// `mode` under `acct`, the stem in the mode [`RevBiFPN::forward`] runs
    /// it in.
    pub fn cache_bytes(&self, n: usize, mode: CacheMode, acct: Accounting) -> u64 {
        let img = [self.image(n)];
        self.stem.cache_bytes(&img, self.stem_mode(mode), acct)
            + self.body.cache_bytes(&self.stem.out_shapes(&img), mode, acct)
    }

    /// Peak transient bytes of the reversible backward under `acct`: the
    /// body's ([`ShapeWalk::transient_bytes`]); the stem is never recomputed.
    pub fn peak_transient_bytes(&self, n: usize, acct: Accounting) -> u64 {
        self.body.transient_bytes(&self.stem.out_shapes(&[self.image(n)]), acct)
    }
}

impl Module for RevBiFPN {
    fn visit_layers(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        self.stem.visit_layers(f);
        self.body.visit_layers(f);
    }

    fn clear_state(&mut self) {
        self.body.clear_state();
    }
}

impl ShapeWalk for RevBiFPN {
    fn visit_layers_at(&self, xs: &[Shape], f: &mut dyn FnMut(&dyn Layer, Shape)) -> Vec<Shape> {
        let s0 = self.stem.visit_layers_at(xs, f);
        self.body.visit_layers_at(&s0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> RevBiFPN {
        RevBiFPN::new(RevBiFPNConfig::tiny(10))
    }

    fn randomize_bn(b: &mut RevBiFPN, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        b.visit_params(&mut |p| {
            if p.name == "bn.gamma" {
                p.value = Tensor::uniform(p.value.shape(), 0.5, 1.5, &mut rng);
            }
        });
    }

    #[test]
    fn pyramid_shapes_tiny() {
        let b = tiny();
        let shapes = b.pyramid_shapes(2);
        assert_eq!(shapes.len(), 3);
        assert_eq!(shapes[0], Shape::new(2, 16, 16, 16));
        assert_eq!(shapes[1], Shape::new(2, 24, 8, 8));
        assert_eq!(shapes[2], Shape::new(2, 32, 4, 4));
    }

    #[test]
    fn forward_matches_declared_shapes() {
        let mut b = tiny();
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::randn(Shape::new(2, 3, 32, 32), 1.0, &mut rng);
        let pyr = b.forward(&x, CacheMode::None);
        let shapes = b.pyramid_shapes(2);
        for (t, s) in pyr.iter().zip(shapes) {
            assert_eq!(t.shape(), s);
        }
    }

    #[test]
    fn initial_network_is_identity_like() {
        // All couplings zero-initialized: the pyramid is a pure
        // rearrangement/zero expansion of the input at init... stream 0
        // equals the stem output exactly.
        let mut b = tiny();
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::randn(Shape::new(1, 3, 32, 32), 1.0, &mut rng);
        let mut stem = Stem::from_config(b.cfg());
        let s0 = stem.forward(&x, CacheMode::None);
        let pyr = b.forward(&x, CacheMode::None);
        assert!(pyr[0].max_abs_diff(&s0) < 1e-5);
    }

    #[test]
    fn full_backbone_inverts_to_input_image() {
        let mut b = tiny();
        randomize_bn(&mut b, 42);
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::randn(Shape::new(1, 3, 32, 32), 1.0, &mut rng);
        let pyr = b.forward(&x, CacheMode::None);
        let back = b.invert(pyr).unwrap();
        assert!(back.max_abs_diff(&x) < 5e-2, "diff {}", back.max_abs_diff(&x));
    }

    #[test]
    fn reversible_and_cached_gradients_agree_end_to_end() {
        let mut b1 = RevBiFPN::new(RevBiFPNConfig::tiny(10));
        randomize_bn(&mut b1, 7);
        let mut b2 = RevBiFPN::new(RevBiFPNConfig::tiny(10));
        randomize_bn(&mut b2, 7);

        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn(Shape::new(2, 3, 32, 32), 1.0, &mut rng);
        let dpyr: Vec<Tensor> = b1.pyramid_shapes(2).iter().map(|&s| Tensor::randn(s, 0.1, &mut rng)).collect();

        let _ = b1.forward(&x, CacheMode::Full);
        b1.visit_params(&mut |p| p.zero_grad());
        let dx1 = b1.backward_cached(dpyr.clone());

        let pyr = b2.forward(&x, CacheMode::Stats);
        b2.visit_params(&mut |p| p.zero_grad());
        let dx2 = b2.backward_rev(pyr, dpyr);

        assert!(dx1.max_abs_diff(&dx2) < 1e-3, "dx diff {}", dx1.max_abs_diff(&dx2));
        let mut g1 = Vec::new();
        b1.visit_params(&mut |p| g1.push(p.grad.clone()));
        let mut g2 = Vec::new();
        b2.visit_params(&mut |p| g2.push(p.grad.clone()));
        let mut worst = 0.0f32;
        for (a, b) in g1.iter().zip(&g2) {
            worst = worst.max(a.max_abs_diff(b) / (1.0 + a.abs_max()));
        }
        assert!(worst < 2e-3, "worst relative param-grad diff {worst}");
    }

    #[test]
    fn deeper_config_means_more_macs_and_params() {
        let mut b1 = RevBiFPN::new(RevBiFPNConfig::tiny(10).with_depth(1));
        let mut b2 = RevBiFPN::new(RevBiFPNConfig::tiny(10).with_depth(3));
        assert!(b2.macs(1) > b1.macs(1));
        assert!(b2.param_count() > b1.param_count());
    }

    #[test]
    fn reversible_cache_constant_vs_conventional_linear_in_depth() {
        let b1 = RevBiFPN::new(RevBiFPNConfig::tiny(10).with_depth(1));
        let b4 = RevBiFPN::new(RevBiFPNConfig::tiny(10).with_depth(4));
        for acct in [Accounting::Autograd, Accounting::Layout] {
            // Stats (reversible) cache barely grows with depth...
            let s4 = b4.cache_bytes(8, CacheMode::Stats, acct);
            // ...while Full (conventional) cache grows substantially.
            let f1 = b1.cache_bytes(8, CacheMode::Full, acct);
            let f4 = b4.cache_bytes(8, CacheMode::Full, acct);
            assert!(f4 as f64 / f1 as f64 > 1.8, "{acct:?} full: {f1} -> {f4}");
            assert!((s4 as f64) < 0.02 * f4 as f64, "{acct:?} stats {s4} vs full {f4}");
        }
    }

    #[test]
    fn conv_stem_trains_reversibly() {
        // A convolutional (non-reversible) stem must cache conventionally
        // inside the otherwise-reversible pipeline (Table 4 ablation).
        let mut cfg = RevBiFPNConfig::tiny(10);
        cfg.stem = crate::config::StemKind::Convolutional;
        let mut b = RevBiFPN::new(cfg);
        let mut rng = StdRng::seed_from_u64(11);
        let x = Tensor::randn(Shape::new(2, 3, 32, 32), 1.0, &mut rng);
        let pyr = b.forward(&x, CacheMode::Stats);
        let dpyr: Vec<Tensor> = pyr.iter().map(|p| Tensor::ones(p.shape())).collect();
        b.visit_params(&mut |p| p.zero_grad());
        let dx = b.backward_rev(pyr, dpyr);
        assert_eq!(dx.shape(), x.shape());
        let mut stem_grads = 0;
        b.visit_params(&mut |p| {
            if p.grad.abs_max() > 0.0 {
                stem_grads += 1;
            }
        });
        assert!(stem_grads > 0);
        b.clear_cache();
    }

    #[test]
    fn seeded_construction_is_deterministic() {
        let mut a = RevBiFPN::new(RevBiFPNConfig::tiny(10));
        let mut b = RevBiFPN::new(RevBiFPNConfig::tiny(10));
        let mut va = Vec::new();
        a.visit_params(&mut |p| va.push(p.value.clone()));
        let mut vb = Vec::new();
        b.visit_params(&mut |p| vb.push(p.value.clone()));
        assert_eq!(va, vb);
    }
}
