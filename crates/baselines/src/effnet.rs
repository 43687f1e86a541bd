//! EfficientNet (Tan & Le 2019): the paper's main classification baseline
//! (Figure 1, Tables 2 and 11). Built from the same MBConv blocks as
//! RevBiFPN but as a conventional single-stream, non-reversible network, so
//! its activation cache grows with depth.
//!
//! `EfficientNet::bx(x)` reproduces the B0–B7 compound-scaling family
//! (width/depth/resolution coefficients from the paper); channels round to
//! multiples of 8 as in the reference implementation.

use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn_nn::layers::{BatchNorm2d, Conv2d, Dropout, GlobalAvgPool, HardSwish, Linear, MBConv, MBConvCfg};
use revbifpn_nn::{Accounting, CacheMode, Layer, Module, Sequential, ShapeWalk};
use revbifpn_tensor::{ConvSpec, Shape, Tensor};

/// One stage of the EfficientNet-B0 template.
#[derive(Clone, Copy, Debug)]
struct StageSpec {
    expansion: f32,
    channels: usize,
    repeats: usize,
    stride: usize,
    kernel: usize,
}

const B0_STAGES: [StageSpec; 7] = [
    StageSpec { expansion: 1.0, channels: 16, repeats: 1, stride: 1, kernel: 3 },
    StageSpec { expansion: 6.0, channels: 24, repeats: 2, stride: 2, kernel: 3 },
    StageSpec { expansion: 6.0, channels: 40, repeats: 2, stride: 2, kernel: 5 },
    StageSpec { expansion: 6.0, channels: 80, repeats: 3, stride: 2, kernel: 3 },
    StageSpec { expansion: 6.0, channels: 112, repeats: 3, stride: 1, kernel: 5 },
    StageSpec { expansion: 6.0, channels: 192, repeats: 4, stride: 2, kernel: 5 },
    StageSpec { expansion: 6.0, channels: 320, repeats: 1, stride: 1, kernel: 3 },
];

/// B0..B7 (width, depth, resolution) coefficients.
const BX: [(f32, f32, usize); 8] = [
    (1.0, 1.0, 224),
    (1.0, 1.1, 240),
    (1.1, 1.2, 260),
    (1.2, 1.4, 300),
    (1.4, 1.8, 380),
    (1.6, 2.2, 456),
    (1.8, 2.6, 528),
    (2.0, 3.1, 600),
];

fn round8(x: f32) -> usize {
    let r = ((x / 8.0).round() as usize).max(1) * 8;
    // Standard "round but never below 90% of the target" rule.
    if (r as f32) < 0.9 * x {
        r + 8
    } else {
        r
    }
}

/// Configuration of an EfficientNet variant.
#[derive(Clone, Debug, PartialEq)]
pub struct EfficientNetConfig {
    /// Variant name.
    pub name: String,
    /// Width multiplier.
    pub width: f32,
    /// Depth multiplier.
    pub depth: f32,
    /// Train/eval resolution.
    pub resolution: usize,
    /// Classifier classes.
    pub num_classes: usize,
    /// Classifier dropout.
    pub dropout: f32,
    /// Init seed.
    pub seed: u64,
}

impl EfficientNetConfig {
    /// The `B<x>` variant.
    ///
    /// # Panics
    ///
    /// Panics if `x > 7`.
    pub fn bx(x: usize, num_classes: usize) -> Self {
        assert!(x <= 7, "EfficientNet variants are B0..B7");
        let (w, d, r) = BX[x];
        Self {
            name: format!("EfficientNet-B{x}"),
            width: w,
            depth: d,
            resolution: r,
            num_classes,
            dropout: 0.2 + 0.05 * x as f32,
            seed: 0,
        }
    }

    /// A miniature variant for CPU training experiments (width 0.25, depth
    /// 0.35, resolution 32).
    pub fn micro(num_classes: usize) -> Self {
        Self {
            name: "EfficientNet-micro".into(),
            width: 0.25,
            depth: 0.35,
            resolution: 32,
            num_classes,
            dropout: 0.0,
            seed: 0,
        }
    }

    /// Returns a copy with a different resolution.
    pub fn with_resolution(mut self, r: usize) -> Self {
        self.resolution = r;
        self
    }
}

/// A runnable EfficientNet classifier.
#[derive(Debug)]
pub struct EfficientNet {
    cfg: EfficientNetConfig,
    body: Sequential,
}

impl EfficientNet {
    /// Builds the network.
    pub fn new(cfg: EfficientNetConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut body = Sequential::new();
        // Stem: 3x3 stride-2 conv to round8(32 * width).
        let stem_c = round8(32.0 * cfg.width);
        body.add(Box::new(Conv2d::new(3, stem_c, ConvSpec::kxk(3, 2), false, &mut rng)));
        body.add(Box::new(BatchNorm2d::new(stem_c)));
        body.add(Box::new(HardSwish::new()));
        let mut c_in = stem_c;
        for st in B0_STAGES {
            let c_out = round8(st.channels as f32 * cfg.width);
            let repeats = ((st.repeats as f32 * cfg.depth).ceil() as usize).max(1);
            for rep in 0..repeats {
                let stride = if rep == 0 { st.stride } else { 1 };
                let mut mb = MBConvCfg::same(c_in, st.kernel, st.expansion).with_c_out(c_out).with_se(0.25);
                mb.stride = stride;
                mb.kernel = st.kernel;
                body.add(Box::new(MBConv::new(mb, &mut rng)));
                c_in = c_out;
            }
        }
        // Head: 1x1 conv to 1280*width, GAP, dropout, linear.
        let head_c = round8(1280.0 * cfg.width.max(1.0));
        body.add(Box::new(Conv2d::pointwise(c_in, head_c, false, &mut rng)));
        body.add(Box::new(BatchNorm2d::new(head_c)));
        body.add(Box::new(HardSwish::new()));
        body.add(Box::new(GlobalAvgPool::new()));
        if cfg.dropout > 0.0 {
            body.add(Box::new(Dropout::new(cfg.dropout, cfg.seed ^ 0xEF)));
        }
        body.add(Box::new(Linear::new(head_c, cfg.num_classes, &mut rng)));
        Self { cfg, body }
    }

    /// The configuration.
    pub fn cfg(&self) -> &EfficientNetConfig {
        &self.cfg
    }

    /// Forward pass.
    pub fn forward(&mut self, x: &Tensor, mode: CacheMode) -> Tensor {
        self.body.forward(x, mode)
    }

    /// Backward pass (requires a `Full` forward).
    pub fn backward(&mut self, dlogits: &Tensor) -> Tensor {
        self.body.backward(dlogits)
    }

    /// Input shape at the configured resolution.
    pub fn input_shape(&self, n: usize) -> Shape {
        Shape::new(n, 3, self.cfg.resolution, self.cfg.resolution)
    }

    /// MACs of one forward pass at batch `n`.
    pub fn macs(&self, n: usize) -> u64 {
        ShapeWalk::macs(self, &[self.input_shape(n)])
    }

    /// Analytic activation-cache bytes of a training forward at batch `n`
    /// and resolution `res` under `acct` (conventional training: everything
    /// cached).
    pub fn activation_bytes_at(&self, n: usize, res: usize, acct: Accounting) -> u64 {
        self.cache_bytes(&[Shape::new(n, 3, res, res)], CacheMode::Full, acct)
    }

    /// Same at the configured (training) resolution.
    pub fn activation_bytes(&self, n: usize, acct: Accounting) -> u64 {
        self.activation_bytes_at(n, self.cfg.resolution, acct)
    }
}

impl Module for EfficientNet {
    fn visit_layers(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        f(&mut self.body);
    }
}

impl ShapeWalk for EfficientNet {
    fn visit_layers_at(&self, xs: &[Shape], f: &mut dyn FnMut(&dyn Layer, Shape)) -> Vec<Shape> {
        f(&self.body, xs[0]);
        vec![self.body.out_shape(xs[0])]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b0_is_paper_scale() {
        // Paper Table 11: B0 = 5.3M params, 0.39B MACs at 224.
        let mut net = EfficientNet::new(EfficientNetConfig::bx(0, 1000));
        let p = net.param_count();
        let m = net.macs(1);
        assert!((4_000_000..=7_000_000).contains(&p), "params {p}");
        assert!((300_000_000..=500_000_000).contains(&m), "macs {m}");
    }

    #[test]
    fn family_scales_monotonically() {
        // Avoid building the huge variants: compare B0..B2 only.
        let mut prev_p = 0;
        let mut prev_m = 0;
        for x in 0..=2 {
            let mut net = EfficientNet::new(EfficientNetConfig::bx(x, 10));
            let p = net.param_count();
            let m = net.macs(1);
            assert!(p > prev_p && m > prev_m, "B{x} did not grow");
            prev_p = p;
            prev_m = m;
        }
    }

    #[test]
    fn micro_forward_backward() {
        let mut net = EfficientNet::new(EfficientNetConfig::micro(4));
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::randn(net.input_shape(2), 1.0, &mut rng);
        let y = net.forward(&x, CacheMode::Full);
        assert_eq!(y.shape(), Shape::new(2, 4, 1, 1));
        let _ = rng.random::<f32>();
        let dx = net.backward(&Tensor::ones(y.shape()));
        assert_eq!(dx.shape(), x.shape());
        net.clear_cache();
    }

    #[test]
    fn activation_bytes_grow_with_resolution() {
        let net = EfficientNet::new(EfficientNetConfig::micro(4));
        for acct in [Accounting::Autograd, Accounting::Layout] {
            assert!(net.activation_bytes_at(1, 64, acct) > 3 * net.activation_bytes_at(1, 32, acct), "{acct:?}");
        }
    }

    #[test]
    fn meter_matches_analytic() {
        revbifpn_nn::meter::reset();
        let mut net = EfficientNet::new(EfficientNetConfig::micro(4));
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::randn(net.input_shape(1), 1.0, &mut rng);
        let _ = net.forward(&x, CacheMode::Full);
        assert_eq!(revbifpn_nn::meter::current() as u64, net.activation_bytes(1, Accounting::Layout));
        net.clear_cache();
    }
}
