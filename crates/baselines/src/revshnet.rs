//! RevSHNet (paper Appendix A.1): a fully reversible **stacked hourglass**
//! network — the strawman alternative to RevBiFPN. Each hourglass
//! (encoder–decoder over the resolution pyramid) is placed inside a
//! reversible residual block, so the network as a whole is reversible, but
//! during the reversible backward an *entire hourglass* of activations must
//! be rematerialized at once. That is exactly why its memory (Figures 8, 9)
//! and MACs (Figure 10) scale worse than RevBiFPN's.

use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn_nn::layers::{MBConv, MBConvCfg, SpaceToDepth};
use revbifpn_nn::{Accounting, CacheMode, Layer, Module, Sequential, ShapeWalk};
use revbifpn_rev::{BlockStage, RevBlock, ReversibleSequence, TrainMode};
use revbifpn_tensor::{Shape, Tensor};

/// Configuration of a RevSHNet.
#[derive(Clone, Debug, PartialEq)]
pub struct RevShNetConfig {
    /// Variant name.
    pub name: String,
    /// Channels at full (stream-0) resolution (split in half by the
    /// reversible coupling).
    pub channels: usize,
    /// Per-coupling-branch channel widths of the hourglass levels below the
    /// top: `level_widths[l]` is the width after `l + 1` downsamplings
    /// (mirrors RevBiFPN's stream-channel ladder).
    pub level_widths: Vec<usize>,
    /// Same-resolution MBConv blocks per hourglass level (encoder and
    /// decoder each), as in the real Stacked Hourglass design.
    pub blocks_per_level: usize,
    /// Number of stacked reversible hourglass blocks (the depth `d` swept in
    /// Figures 8–10).
    pub depth: usize,
    /// Input resolution.
    pub resolution: usize,
    /// SpaceToDepth stem block.
    pub stem_block: usize,
    /// MBConv expansion inside the hourglass.
    pub expansion: f32,
    /// Init seed.
    pub seed: u64,
}

impl RevShNetConfig {
    /// Baseline comparable to RevBiFPN-S0 (paper A.1: "channel counts
    /// similar to RevBiFPN-S0 channel counts", SpaceToDepth stem, MBConv).
    /// Each coupling branch carries half of 48 channels at full resolution
    /// and the S0 ladder (64, 80, 160 halved) below.
    pub fn s0_like() -> Self {
        Self {
            name: "RevSHNet".into(),
            channels: 48,
            level_widths: vec![32, 40, 80],
            blocks_per_level: 1,
            depth: 2,
            resolution: 224,
            stem_block: 4,
            expansion: 2.0,
            seed: 0,
        }
    }

    /// Miniature runnable variant.
    pub fn micro() -> Self {
        Self {
            name: "RevSHNet-micro".into(),
            channels: 16,
            level_widths: vec![12, 16],
            blocks_per_level: 1,
            depth: 2,
            resolution: 32,
            stem_block: 2,
            expansion: 1.5,
            seed: 0,
        }
    }

    /// Number of 2x downsampling levels.
    pub fn levels(&self) -> usize {
        self.level_widths.len()
    }

    /// Returns a copy with a different stack depth.
    pub fn with_depth(mut self, d: usize) -> Self {
        self.depth = d;
        self
    }

    /// Returns a copy with a different resolution.
    pub fn with_resolution(mut self, r: usize) -> Self {
        self.resolution = r;
        self
    }
}

/// Builds one hourglass transform on `half` channels: per level, same-res
/// residual blocks and a strided MBConv downward, then the mirror image
/// upward (shape-preserving overall, as required inside a RevBlock
/// coupling). The whole encoder–decoder must be rematerialized at once
/// during the reversible backward — Appendix A.1.1's overhead.
fn hourglass(cfg: &RevShNetConfig, half: usize, rng: &mut StdRng) -> Box<dyn Layer> {
    let mut s = Sequential::new();
    let mut c = half;
    for l in 0..cfg.levels() {
        for _ in 0..cfg.blocks_per_level {
            s.add(Box::new(MBConv::new(MBConvCfg::same(c, 3, cfg.expansion), rng)));
        }
        let c_out = cfg.level_widths[l];
        s.add(Box::new(MBConv::new(MBConvCfg::down(c, c_out, 1, cfg.expansion).plain(), rng)));
        c = c_out;
    }
    for _ in 0..cfg.blocks_per_level {
        s.add(Box::new(MBConv::new(MBConvCfg::same(c, 3, cfg.expansion), rng)));
    }
    for l in (0..cfg.levels()).rev() {
        let c_out = if l == 0 { half } else { cfg.level_widths[l - 1] };
        let mut mb = MBConvCfg::up(c, c_out, 1, cfg.expansion).plain();
        if l == 0 {
            mb = mb.with_zero_init();
        }
        s.add(Box::new(MBConv::new(mb, rng)));
        c = c_out;
        if l > 0 {
            for _ in 0..cfg.blocks_per_level {
                s.add(Box::new(MBConv::new(MBConvCfg::same(c, 3, cfg.expansion), rng)));
            }
        }
    }
    Box::new(s)
}

/// A fully reversible stacked hourglass network producing a single
/// full-resolution feature map.
#[derive(Debug)]
pub struct RevShNet {
    cfg: RevShNetConfig,
    stem: SpaceToDepth,
    body: ReversibleSequence,
}

impl RevShNet {
    /// Builds the network.
    ///
    /// # Panics
    ///
    /// Panics if the resolution is not divisible by
    /// `stem_block * 2^levels`.
    pub fn new(cfg: RevShNetConfig) -> Self {
        assert_eq!(
            cfg.resolution % (cfg.stem_block << cfg.levels()),
            0,
            "resolution must be divisible by stem * 2^levels"
        );
        assert_eq!(cfg.channels % (cfg.stem_block * cfg.stem_block), 0, "channels must fit the stem");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut body = ReversibleSequence::new();
        let half = cfg.channels / 2;
        for _ in 0..cfg.depth {
            let f = hourglass(&cfg, half, &mut rng);
            let g = hourglass(&cfg, half, &mut rng);
            body.add(Box::new(BlockStage::new(vec![vec![RevBlock::new(cfg.channels, f, g)]])));
        }
        Self { stem: SpaceToDepth::new(cfg.stem_block), cfg, body }
    }

    /// The configuration.
    pub fn cfg(&self) -> &RevShNetConfig {
        &self.cfg
    }

    /// Forward: image (channel-padded internally) to the feature map.
    ///
    /// The input's channels are replicated to `channels / stem_block^2`
    /// first, mirroring the RevBiFPN stem.
    pub fn forward(&mut self, x: &Tensor, mode: CacheMode) -> Tensor {
        let dup = self.stem_channels();
        let times = dup.div_ceil(x.shape().c);
        let xd = x.repeat_channels(times);
        let xd = if xd.shape().c > dup {
            xd.split_channels(dup).0
        } else {
            xd
        };
        let s = self.stem.forward(&xd, mode);
        let outs = self.body.forward(vec![s], mode);
        outs.into_iter().next().expect("one stream")
    }

    /// Reversible backward from the saved output, consuming it.
    pub fn backward_rev(&mut self, y: Tensor, dy: Tensor) {
        let _ = self.body.backward(vec![y], vec![dy], TrainMode::Reversible);
    }

    /// Conventional backward.
    pub fn backward_cached(&mut self, dy: Tensor) {
        let _ = self.body.backward(Vec::new(), vec![dy], TrainMode::Conventional);
    }

    /// Channels the image is duplicated to before the stem.
    fn stem_channels(&self) -> usize {
        self.cfg.channels / (self.cfg.stem_block * self.cfg.stem_block)
    }

    /// MACs at batch `n`, resolution `res`.
    pub fn macs_at(&self, n: usize, res: usize) -> u64 {
        self.macs(&[Shape::new(n, 3, res, res)])
    }

    /// Activation bytes of reversible training under `acct`: the retained
    /// output plus the transient rematerialization of one whole hourglass
    /// block — the Appendix A.1.1 overhead.
    pub fn activation_bytes_rev(&self, n: usize, res: usize, acct: Accounting) -> u64 {
        let img = [Shape::new(n, 3, res, res)];
        let out = self.out_shapes(&img)[0];
        out.bytes() as u64 + self.cache_bytes(&img, CacheMode::Stats, acct) + self.transient_bytes(&img, acct)
    }

    /// Activation bytes of conventional training under `acct`.
    pub fn activation_bytes_conv(&self, n: usize, res: usize, acct: Accounting) -> u64 {
        self.cache_bytes(&[Shape::new(n, 3, res, res)], CacheMode::Full, acct)
    }
}

impl Module for RevShNet {
    fn visit_layers(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        f(&mut self.stem);
        self.body.visit_layers(f);
    }

    fn clear_state(&mut self) {
        self.body.clear_state();
    }
}

impl ShapeWalk for RevShNet {
    /// The stem at the channel-duplicated image, then the hourglass stack.
    fn visit_layers_at(&self, xs: &[Shape], f: &mut dyn FnMut(&dyn Layer, Shape)) -> Vec<Shape> {
        let x = xs[0].with_c(self.stem_channels());
        f(&self.stem, x);
        self.body.visit_layers_at(&[self.stem.out_shape(x)], f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_forward_shape() {
        let mut net = RevShNet::new(RevShNetConfig::micro());
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::randn(Shape::new(1, 3, 32, 32), 1.0, &mut rng);
        let y = net.forward(&x, CacheMode::None);
        assert_eq!(y.shape(), Shape::new(1, 16, 16, 16));
    }

    #[test]
    fn reversible_training_reduces_memory_but_less_than_revbifpn() {
        // The transient term (a whole hourglass) keeps RevSHNet's reversible
        // footprint well above its own retained output.
        let net = RevShNet::new(RevShNetConfig::micro().with_depth(4));
        let out_bytes = net.out_shapes(&[Shape::new(1, 3, 32, 32)])[0].bytes() as u64;
        for acct in [Accounting::Autograd, Accounting::Layout] {
            let rev = net.activation_bytes_rev(1, 32, acct);
            let conv = net.activation_bytes_conv(1, 32, acct);
            assert!(rev < conv, "{acct:?}: rev {rev} conv {conv}");
            assert!(rev > 2 * out_bytes, "{acct:?}: hourglass transient should dominate: {rev} vs {out_bytes}");
        }
    }

    #[test]
    fn reversible_memory_constant_in_depth() {
        let d2 = RevShNet::new(RevShNetConfig::micro().with_depth(2));
        let d6 = RevShNet::new(RevShNetConfig::micro().with_depth(6));
        // The paper's magnitude: per-op autograd's saved tensors.
        let rev = |net: &RevShNet, acct| net.activation_bytes_rev(1, 32, acct);
        let (r2, r6) = (rev(&d2, Accounting::Autograd), rev(&d6, Accounting::Autograd));
        assert!((r6 as f64) < 1.1 * r2 as f64, "{r2} -> {r6}");
        // Depth adds only `Stats` bytes, which the accountings share: the
        // growth is the same under this repo's layout.
        let (l2, l6) = (rev(&d2, Accounting::Layout), rev(&d6, Accounting::Layout));
        assert_eq!(r6 - r2, l6 - l2, "layout {l2} -> {l6}");
        // Conventional grows ~linearly.
        for acct in [Accounting::Autograd, Accounting::Layout] {
            assert!(d6.activation_bytes_conv(1, 32, acct) > 2 * d2.activation_bytes_conv(1, 32, acct), "{acct:?}");
        }
    }

    #[test]
    fn gradient_flow_reversible() {
        let mut net = RevShNet::new(RevShNetConfig::micro());
        // Make transforms non-trivial.
        let mut rng = StdRng::seed_from_u64(9);
        net.visit_params(&mut |p| {
            if p.name == "bn.gamma" {
                p.value = Tensor::uniform(p.value.shape(), 0.5, 1.5, &mut rng);
            }
        });
        let x = Tensor::randn(Shape::new(1, 3, 32, 32), 1.0, &mut rng);
        let y = net.forward(&x, CacheMode::Stats);
        net.visit_params(&mut |p| p.zero_grad());
        let dy = Tensor::ones(y.shape());
        net.backward_rev(y, dy);
        let mut nonzero = 0;
        net.visit_params(&mut |p| {
            if p.grad.abs_max() > 0.0 {
                nonzero += 1;
            }
        });
        assert!(nonzero > 10, "only {nonzero} grads");
    }

    #[test]
    fn macs_scale_linearly_with_depth() {
        let d2 = RevShNet::new(RevShNetConfig::micro().with_depth(2));
        let d4 = RevShNet::new(RevShNetConfig::micro().with_depth(4));
        let m2 = d2.macs_at(1, 32);
        let m4 = d4.macs_at(1, 32);
        assert!((m4 as f64 / m2 as f64 - 2.0).abs() < 0.05);
    }
}
