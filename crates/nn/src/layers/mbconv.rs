//! The MBConv inverted-bottleneck block (Howard et al. 2017; Sandler et al.
//! 2018) with squeeze-excite and hard-swish, exactly as RevBiFPN uses it:
//! for the reversible residual blocks' F/G transforms and for the RevSilo's
//! up-/down-sampling fusion transforms.
//!
//! Sampling geometry follows the paper (Section 3):
//! * downsample by `2^k`: depthwise stride `2^k`, kernel `2^(k+1) ± 1`;
//! * upsample by `2^k`: depthwise stride 1 (kernel 3 or 5) followed by
//!   bilinear upsampling.

use crate::freeze::{FreezeError, FrozenLayer};
use crate::layers::act::HardSwish;
use crate::layers::bn::BatchNorm2d;
use crate::layers::conv::Conv2d;
use crate::layers::dropout::{DropPath, Residual};
use crate::layers::se::SqueezeExcite;
use crate::layers::shape_ops::Upsample;
use crate::mode::CacheMode;
use crate::module::{Layer, Sequential};
use rand::Rng;
use revbifpn_tensor::{ConvSpec, ResizeMode, Shape, Tensor};

/// Configuration of one MBConv block.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MBConvCfg {
    /// Input channels.
    pub c_in: usize,
    /// Output channels.
    pub c_out: usize,
    /// Expansion ratio of the inverted bottleneck (1 disables expansion).
    pub expansion: f32,
    /// Depthwise kernel size.
    pub kernel: usize,
    /// Depthwise stride (downsampling factor).
    pub stride: usize,
    /// Bilinear/nearest upsampling factor applied after the depthwise stage
    /// (1 = none). Mutually exclusive with `stride > 1` in practice.
    pub upsample: usize,
    /// Interpolation mode when `upsample > 1`.
    pub up_mode: ResizeMode,
    /// Squeeze-excite reduction ratio (0 disables SE).
    pub se_ratio: f32,
    /// Stochastic-depth drop probability (only used when residual).
    pub drop_path: f32,
    /// Suppresses the block's own skip connection even when shapes allow it.
    /// Used for the F/G transforms of reversible couplings, where the
    /// coupling itself provides the residual add.
    pub plain: bool,
    /// Forces zero-initialization of the projection BatchNorm. Implied when
    /// the block is residual; set explicitly for coupling transforms so the
    /// coupling starts as the identity.
    pub zero_init_project: bool,
}

impl MBConvCfg {
    /// A same-shape block: `c` -> `c`, stride 1, kernel `k`.
    pub fn same(c: usize, k: usize, expansion: f32) -> Self {
        Self {
            c_in: c,
            c_out: c,
            expansion,
            kernel: k,
            stride: 1,
            upsample: 1,
            up_mode: ResizeMode::Bilinear,
            se_ratio: 0.0,
            drop_path: 0.0,
            plain: false,
            zero_init_project: false,
        }
    }

    /// Downsampling block by factor `2^k_log2` using the paper's
    /// stride/kernel rule (`kernel = 2^(k_log2+1) + 1`).
    pub fn down(c_in: usize, c_out: usize, k_log2: u32, expansion: f32) -> Self {
        let stride = 1usize << k_log2;
        let kernel = (2usize << k_log2) + 1;
        Self { c_in, c_out, kernel, stride, ..Self::same(c_in, 3, expansion) }
            .with_c_out(c_out)
    }

    /// Upsampling block by factor `2^k_log2`: stride-1 depthwise (kernel 3)
    /// followed by bilinear upsampling ("lu" in the Table 3 ablation).
    pub fn up(c_in: usize, c_out: usize, k_log2: u32, expansion: f32) -> Self {
        Self { c_in, upsample: 1usize << k_log2, ..Self::same(c_in, 3, expansion) }.with_c_out(c_out)
    }

    /// Sets output channels.
    pub fn with_c_out(mut self, c_out: usize) -> Self {
        self.c_out = c_out;
        self
    }

    /// Enables squeeze-excite at `ratio`.
    pub fn with_se(mut self, ratio: f32) -> Self {
        self.se_ratio = ratio;
        self
    }

    /// Sets stochastic-depth probability.
    pub fn with_drop_path(mut self, p: f32) -> Self {
        self.drop_path = p;
        self
    }

    /// Sets the interpolation mode for upsampling blocks.
    pub fn with_up_mode(mut self, mode: ResizeMode) -> Self {
        self.up_mode = mode;
        self
    }

    /// Suppresses the block's own skip connection (see [`MBConvCfg::plain`]).
    pub fn plain(mut self) -> Self {
        self.plain = true;
        self
    }

    /// Forces zero-init of the projection BatchNorm (see
    /// [`MBConvCfg::zero_init_project`]).
    pub fn with_zero_init(mut self) -> Self {
        self.zero_init_project = true;
        self
    }

    /// Expanded (bottleneck-interior) channel count.
    pub fn c_mid(&self) -> usize {
        ((self.c_in as f32 * self.expansion).round() as usize).max(1)
    }

    /// `true` when the block keeps shape and therefore gets a skip
    /// connection.
    pub fn is_residual(&self) -> bool {
        !self.plain && self.c_in == self.c_out && self.stride == 1 && self.upsample == 1
    }
}

/// An MBConv block (see [`MBConvCfg`]).
#[derive(Debug)]
pub struct MBConv {
    cfg: MBConvCfg,
    inner: Box<dyn Layer>,
}

impl MBConv {
    /// Builds the block from its configuration.
    ///
    /// The final BatchNorm is zero-initialized when the block is residual
    /// (paper Section 3, citing Kingma & Dhariwal 2018).
    pub fn new<R: Rng + ?Sized>(cfg: MBConvCfg, rng: &mut R) -> Self {
        let c_mid = cfg.c_mid();
        let mut seq = Sequential::new();
        if (cfg.expansion - 1.0).abs() > 1e-6 || cfg.c_in != c_mid {
            seq.add(Box::new(Conv2d::pointwise(cfg.c_in, c_mid, false, rng)));
            seq.add(Box::new(BatchNorm2d::new(c_mid)));
            seq.add(Box::new(HardSwish::new()));
        }
        seq.add(Box::new(Conv2d::new(
            c_mid,
            c_mid,
            ConvSpec::depthwise(cfg.kernel, cfg.stride, c_mid),
            false,
            rng,
        )));
        seq.add(Box::new(BatchNorm2d::new(c_mid)));
        seq.add(Box::new(HardSwish::new()));
        if cfg.se_ratio > 0.0 {
            // EfficientNet convention: the SE bottleneck width is computed
            // from the block's input channels, not the expanded width.
            let c_r = ((cfg.c_in as f32 * cfg.se_ratio).round() as usize).max(4);
            seq.add(Box::new(SqueezeExcite::with_reduced_channels(c_mid, c_r, rng)));
        }
        seq.add(Box::new(Conv2d::pointwise(c_mid, cfg.c_out, false, rng)));
        let project_bn = if cfg.is_residual() || cfg.zero_init_project {
            BatchNorm2d::new(cfg.c_out).zero_init()
        } else {
            BatchNorm2d::new(cfg.c_out)
        };
        seq.add(Box::new(project_bn));
        // Paper, Section 3: the MBConv block "is then followed by bilinear
        // upsampling" — the interpolation comes last, so every convolution
        // runs at the cheap source resolution.
        if cfg.upsample > 1 {
            seq.add(Box::new(Upsample::new(cfg.upsample, cfg.up_mode)));
        }

        let inner: Box<dyn Layer> = if cfg.is_residual() {
            let seed: u64 = rand::RngExt::random(rng);
            Box::new(Residual::new(Box::new(seq), cfg.drop_path, seed))
        } else {
            // Plain blocks used inside reversible couplings apply stochastic
            // depth to their own output: the coupling's additive skip makes
            // this equivalent to dropping the residual branch.
            if cfg.plain && cfg.drop_path > 0.0 {
                let seed: u64 = rand::RngExt::random(rng);
                seq.add(Box::new(DropPath::new(cfg.drop_path, seed)));
            }
            Box::new(seq)
        };
        Self { cfg, inner }
    }

    /// The block's configuration.
    pub fn cfg(&self) -> MBConvCfg {
        self.cfg
    }
}

impl Layer for MBConv {
    fn forward(&mut self, x: &Tensor, mode: CacheMode) -> Tensor {
        assert_eq!(x.shape().c, self.cfg.c_in, "MBConv input channel mismatch");
        self.inner.forward(x, mode)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.inner.backward(dy)
    }

    fn visit_children(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        f(self.inner.as_mut());
    }

    fn visit_children_at(&self, x: Shape, f: &mut dyn FnMut(&dyn Layer, Shape)) -> Shape {
        f(self.inner.as_ref(), x);
        self.inner.out_shape(x)
    }

    fn name(&self) -> &str {
        "mbconv"
    }

    fn freeze(&self) -> Result<FrozenLayer, FreezeError> {
        self.inner.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_training_mode;
    use crate::meter;
    use crate::module::param_count;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn same_block_shape_and_residual() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = MBConvCfg::same(8, 3, 2.0).with_se(0.25);
        assert!(cfg.is_residual());
        assert_eq!(cfg.c_mid(), 16);
        let mut b = MBConv::new(cfg, &mut rng);
        let x = Tensor::randn(Shape::new(2, 8, 6, 6), 1.0, &mut rng);
        let y = b.forward(&x, CacheMode::Full);
        assert_eq!(y.shape(), x.shape());
        // Zero-init BN on the projection: residual block is initially identity.
        assert!(y.max_abs_diff(&x) < 1e-5);
        b.clear_cache();
    }

    #[test]
    fn down_block_halves_resolution() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = MBConvCfg::down(8, 12, 1, 2.0);
        assert_eq!(cfg.stride, 2);
        assert_eq!(cfg.kernel, 5);
        assert!(!cfg.is_residual());
        let b = MBConv::new(cfg, &mut rng);
        assert_eq!(b.out_shape(Shape::new(1, 8, 8, 8)), Shape::new(1, 12, 4, 4));
    }

    #[test]
    fn up_block_doubles_resolution() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = MBConvCfg::up(8, 6, 1, 2.0);
        let b = MBConv::new(cfg, &mut rng);
        assert_eq!(b.out_shape(Shape::new(1, 8, 4, 4)), Shape::new(1, 6, 8, 8));
    }

    #[test]
    fn down4_uses_kernel9() {
        let cfg = MBConvCfg::down(4, 4, 2, 1.0);
        assert_eq!(cfg.stride, 4);
        assert_eq!(cfg.kernel, 9);
    }

    #[test]
    fn gradients_pass_finite_diff() {
        let mut rng = StdRng::seed_from_u64(3);
        // Non-residual down block exercises expand+dw+project.
        let cfg = MBConvCfg::down(4, 6, 1, 1.5).with_se(0.5);
        let mut b = MBConv::new(cfg, &mut rng);
        let x = Tensor::randn(Shape::new(2, 4, 6, 6), 1.0, &mut rng);
        check_layer_training_mode(&mut b, &x, 5e-2);
    }

    #[test]
    fn residual_gradients_pass_finite_diff() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = MBConvCfg::same(6, 3, 2.0);
        let mut b = MBConv::new(cfg, &mut rng);
        // Make the zero-init BN non-degenerate for the check.
        b.visit_params(&mut |p| {
            if p.name == "bn.gamma" && p.value.abs_max() == 0.0 {
                p.value.map_inplace(|_| 0.5);
            }
        });
        let x = Tensor::randn(Shape::new(2, 6, 5, 5), 1.0, &mut rng);
        // Composite block: hard-swish kinks inflate finite-difference error,
        // so the tolerance is looser than in the per-layer checks.
        check_layer_training_mode(&mut b, &x, 1.2e-1);
    }

    #[test]
    fn cache_accounting_matches_meter() {
        let mut rng = StdRng::seed_from_u64(5);
        meter::reset();
        let cfg = MBConvCfg::same(8, 3, 2.0).with_se(0.25);
        let mut b = MBConv::new(cfg, &mut rng);
        let x = Tensor::randn(Shape::new(2, 8, 8, 8), 1.0, &mut rng);
        let _ = b.forward(&x, CacheMode::Full);
        assert_eq!(meter::current() as u64, b.cache_bytes(x.shape(), CacheMode::Full));
        b.clear_cache();
        let _ = b.forward(&x, CacheMode::Stats);
        assert_eq!(meter::current() as u64, b.cache_bytes(x.shape(), CacheMode::Stats));
        b.clear_cache();
        assert_eq!(meter::current(), 0);
    }

    #[test]
    fn param_count_is_positive_and_stable() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut b = MBConv::new(MBConvCfg::same(8, 3, 4.0), &mut rng);
        let n = param_count(&mut b);
        // expand 8*32 + bn 64 + dw 32*9 + bn 64 + project 32*8 + bn 16
        assert_eq!(n, 8 * 32 + 64 + 32 * 9 + 64 + 32 * 8 + 16);
    }
}
