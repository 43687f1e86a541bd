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
use crate::layers::act::{hswish, hswish_grad, HardSwish};
use crate::layers::bn::{BatchNorm2d, BnInput};
use crate::layers::conv::Conv2d;
use crate::layers::dropout::DropPath;
use crate::layers::se::SqueezeExcite;
use crate::layers::shape_ops::Upsample;
use crate::meter::Cached;
use crate::mode::CacheMode;
use crate::module::Layer;
use rand::Rng;
use revbifpn_tensor::{ConvSpec, ResizeMode, Shape, Tensor};
use std::borrow::Cow;

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
///
/// The block is the per-op chain expand conv → BN → hard-swish → depthwise
/// conv → BN → hard-swish → squeeze-excite → project conv → BN → upsample
/// → drop path, with an identity skip when residual; every walk, the
/// `None` and `Stats` passes and [`Layer::freeze`] go through that chain.
/// A `Full` pass runs the same arithmetic fused and keeps only what its
/// backward cannot recompute: the block input, each BatchNorm's input `z`
/// with the `(mean, inv_std)` it was normalized with, the SE gate (with its
/// path's O(c) caches) and the upsample's shape and drop path's seed. The
/// backward rebuilds `xhat`, the pre-activation, `hswish'`, the SE input and
/// the SE product from `z` — each just before the transpose that reads it,
/// with the forward's own per-element expressions — so every output,
/// gradient and statistic is the per-op chain's bit for bit, while the
/// cache holds two `c_mid`-sized tensors where the chain holds seven.
#[derive(Debug)]
pub struct MBConv {
    cfg: MBConvCfg,
    /// The pointwise expansion with its BatchNorm and activation; absent at
    /// expansion 1. The optional parts are boxed, so a block without one
    /// does not carry its size.
    expand: Option<Box<(Conv2d, BatchNorm2d, HardSwish)>>,
    dw: Conv2d,
    dw_bn: BatchNorm2d,
    dw_act: HardSwish,
    se: Option<Box<SqueezeExcite>>,
    project: Conv2d,
    project_bn: BatchNorm2d,
    up: Option<Upsample>,
    /// Stochastic depth: on the branch inside the skip of a residual block,
    /// on the output of a plain one.
    drop: Option<DropPath>,
    /// Boxed, so a block that holds nothing (every block between steps, and
    /// every block of a model that is only frozen) is one pointer wide.
    cache: Cached<Box<Kept>>,
}

/// What a `Full` pass keeps for the backward (see [`MBConv`]).
#[derive(Debug)]
struct Kept {
    x: Tensor,
    expand: Option<BnInput>,
    dw: BnInput,
    gate: Option<Tensor>,
    project: BnInput,
}

impl MBConv {
    /// Builds the block from its configuration.
    ///
    /// The final BatchNorm is zero-initialized when the block is residual
    /// (paper Section 3, citing Kingma & Dhariwal 2018).
    pub fn new<R: Rng + ?Sized>(cfg: MBConvCfg, rng: &mut R) -> Self {
        let c_mid = cfg.c_mid();
        let expand = ((cfg.expansion - 1.0).abs() > 1e-6 || cfg.c_in != c_mid)
            .then(|| Box::new((Conv2d::pointwise(cfg.c_in, c_mid, false, rng), BatchNorm2d::new(c_mid), HardSwish::new())));
        let dw = Conv2d::new(c_mid, c_mid, ConvSpec::depthwise(cfg.kernel, cfg.stride, c_mid), false, rng);
        // EfficientNet convention: the SE bottleneck width is computed from
        // the block's input channels, not the expanded width.
        let se = (cfg.se_ratio > 0.0).then(|| {
            let c_r = ((cfg.c_in as f32 * cfg.se_ratio).round() as usize).max(4);
            Box::new(SqueezeExcite::with_reduced_channels(c_mid, c_r, rng))
        });
        let project = Conv2d::pointwise(c_mid, cfg.c_out, false, rng);
        let project_bn = if cfg.is_residual() || cfg.zero_init_project {
            BatchNorm2d::new(cfg.c_out).zero_init()
        } else {
            BatchNorm2d::new(cfg.c_out)
        };
        // Paper, Section 3: the MBConv block "is then followed by bilinear
        // upsampling" — the interpolation comes last, so every convolution
        // runs at the cheap source resolution.
        let up = (cfg.upsample > 1).then(|| Upsample::new(cfg.upsample, cfg.up_mode));
        // A residual block drops its branch; a plain block used inside a
        // reversible coupling applies stochastic depth to its own output,
        // which the coupling's additive skip makes equivalent.
        let drop = (cfg.is_residual() || (cfg.plain && cfg.drop_path > 0.0))
            .then(|| DropPath::new(cfg.drop_path, rand::RngExt::random(rng)));
        Self {
            cfg,
            expand,
            dw,
            dw_bn: BatchNorm2d::new(c_mid),
            dw_act: HardSwish::new(),
            se,
            project,
            project_bn,
            up,
            drop,
            cache: Cached::empty(),
        }
    }

    /// The block's configuration.
    pub fn cfg(&self) -> MBConvCfg {
        self.cfg
    }

    /// The chain's layers in walk order.
    fn chain(&self) -> impl Iterator<Item = &dyn Layer> {
        let expand = self.expand.iter().flat_map(|e| [&e.0 as &dyn Layer, &e.1, &e.2]);
        let dw = [&self.dw as &dyn Layer, &self.dw_bn, &self.dw_act];
        let se = self.se.iter().map(|l| l.as_ref() as &dyn Layer);
        let project = [&self.project as &dyn Layer, &self.project_bn];
        let tail = self.up.iter().map(|l| l as &dyn Layer).chain(self.drop.iter().map(|l| l as &dyn Layer));
        expand.chain(dw).chain(se).chain(project).chain(tail)
    }

    /// The drop path, when it drops anything.
    fn dropping(&mut self) -> Option<&mut DropPath> {
        self.drop.as_mut().filter(|d| d.p() > 0.0)
    }

    /// The fused `Full` forward (see [`MBConv`]).
    fn forward_full(&mut self, x: &Tensor) -> Tensor {
        let (expand, h) = match self.expand.as_deref_mut() {
            Some((conv, bn, _)) => {
                let kept = bn.keep_input(conv.forward(x, CacheMode::None));
                let h = activation(bn, &kept);
                (Some(kept), Some(h))
            }
            None => (None, None),
        };
        let dw = self.dw_bn.keep_input(self.dw.forward(h.as_ref().unwrap_or(x), CacheMode::None));
        drop(h);
        let mut h = activation(&self.dw_bn, &dw);
        let gate = self.se.as_mut().map(|se| {
            let g = se.gate(&h, CacheMode::Full);
            h = h.mul_planes(&g);
            g
        });
        let project = self.project_bn.keep_input(self.project.forward(&h, CacheMode::None));
        drop(h);
        let [mut y] = self.project_bn.map_normalized([&project.z], project.stats(), |_, y, _| [y]);
        if let Some(up) = &mut self.up {
            y = up.forward(&y, CacheMode::Full);
        }
        if let Some(dp) = self.dropping() {
            y = dp.forward(&y, CacheMode::Full);
        }
        if self.cfg.is_residual() {
            y = &y + x;
        }
        let kept = Box::new(Kept { x: x.clone(), expand, dw, gate, project });
        let bytes = kept.x.bytes()
            + kept.expand.as_ref().map_or(0, BnInput::bytes)
            + kept.dw.bytes()
            + kept.gate.as_ref().map_or(0, Tensor::bytes)
            + kept.project.bytes();
        self.cache.put(kept, bytes);
        y
    }
}

/// `hswish(bn(z))` for a kept BatchNorm input `z`, in one pass, bit for bit
/// as the per-op chain computes it.
fn activation(bn: &BatchNorm2d, kept: &BnInput) -> Tensor {
    let [h] = bn.map_normalized([&kept.z], kept.stats(), |_, y, _| [hswish(y)]);
    h
}

/// The transpose of [`activation`]: the gradient at `bn`'s input for `dh`
/// at the activation's output.
fn activation_backward(bn: &mut BatchNorm2d, kept: &BnInput, dh: Tensor) -> Tensor {
    let [da] = bn.map_normalized([&kept.z, &dh], kept.stats(), |_, y, [_, d]| [d * hswish_grad(y)]);
    drop(dh);
    bn.backward_kept(&da, kept)
}

impl Layer for MBConv {
    fn forward(&mut self, x: &Tensor, mode: CacheMode) -> Tensor {
        assert_eq!(x.shape().c, self.cfg.c_in, "MBConv input channel mismatch");
        if mode == CacheMode::Full {
            return self.forward_full(x);
        }
        let mut cur: Option<Tensor> = None;
        self.visit_children(&mut |l| cur = Some(l.forward(cur.as_ref().unwrap_or(x), mode)));
        let y = cur.expect("an MBConv has layers");
        if self.cfg.is_residual() {
            &y + x
        } else {
            y
        }
    }

    /// The chain's transposes in reverse, each reading what it needs rebuilt
    /// from the kept BatchNorm inputs just before it runs.
    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let Kept { x, expand, dw, gate, project } = *self.cache.take().expect("MBConv::backward without Full forward");
        let mut d = Cow::Borrowed(dy);
        if let Some(dp) = self.dropping() {
            d = Cow::Owned(dp.backward(&d));
        }
        if let Some(up) = &mut self.up {
            d = Cow::Owned(up.backward(&d));
        }
        let dz = self.project_bn.backward_kept(&d, &project);
        drop((d, project));
        // The project conv read the SE product of the depthwise stage's
        // activation, or that activation itself. The product and the SE
        // input are rebuilt one after the other, never both live.
        let dh = match (self.se.as_deref_mut(), &gate) {
            (Some(se), Some(g)) => {
                let s = activation(&self.dw_bn, &dw).mul_planes(g);
                let ds = self.project.backward_from(&s, &dz);
                drop((s, dz));
                se.backward_from(&activation(&self.dw_bn, &dw), g, &ds)
            }
            _ => self.project.backward_from(&activation(&self.dw_bn, &dw), &dz),
        };
        drop(gate);
        let dz = activation_backward(&mut self.dw_bn, &dw, dh);
        drop(dw);
        let dx = match (self.expand.as_deref_mut(), expand) {
            (Some((conv, bn, _)), Some(kept)) => {
                let dh = self.dw.backward_from(&activation(bn, &kept), &dz);
                drop(dz);
                let dz = activation_backward(bn, &kept, dh);
                drop(kept);
                conv.backward_from(&x, &dz)
            }
            _ => self.dw.backward_from(&x, &dz),
        };
        if self.cfg.is_residual() {
            &dx + dy
        } else {
            dx
        }
    }

    fn visit_children(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        if let Some((conv, bn, act)) = self.expand.as_deref_mut() {
            f(conv);
            f(bn);
            f(act);
        }
        f(&mut self.dw);
        f(&mut self.dw_bn);
        f(&mut self.dw_act);
        if let Some(se) = self.se.as_deref_mut() {
            f(se);
        }
        f(&mut self.project);
        f(&mut self.project_bn);
        if let Some(up) = &mut self.up {
            f(up);
        }
        if let Some(dp) = &mut self.drop {
            f(dp);
        }
    }

    fn visit_children_at(&self, x: Shape, f: &mut dyn FnMut(&dyn Layer, Shape)) -> Shape {
        self.chain().fold(x, |s, l| {
            f(l, s);
            l.out_shape(s)
        })
    }

    fn clear_cache(&mut self) {
        self.cache.clear();
        self.visit_children(&mut |l| l.clear_cache());
    }

    /// In `Full` mode the fused layout (see [`MBConv`]); otherwise the
    /// chain's.
    fn cache_bytes(&self, x: Shape, mode: CacheMode) -> u64 {
        let mut total = 0;
        if mode != CacheMode::Full {
            self.visit_children_at(x, &mut |l, s| total += l.cache_bytes(s, mode));
            return total;
        }
        total += x.bytes() as u64;
        let mut s = x;
        if let Some((conv, bn, _)) = self.expand.as_deref() {
            s = conv.out_shape(s);
            total += bn.kept_bytes(s);
        }
        s = self.dw.out_shape(s);
        total += self.dw_bn.kept_bytes(s);
        if let Some(se) = self.se.as_deref() {
            total += se.gate_cache_bytes(s, mode);
        }
        s = self.project.out_shape(s);
        total += self.project_bn.kept_bytes(s);
        if let Some(up) = &self.up {
            total += up.cache_bytes(s, mode);
            s = up.out_shape(s);
        }
        total + self.drop.as_ref().map_or(0, |d| d.cache_bytes(s, mode))
    }

    fn name(&self) -> &str {
        "mbconv"
    }

    /// The chain's frozen layers in sequence, inside a residual when the
    /// block is one (eval-mode drop path is the identity).
    fn freeze(&self) -> Result<FrozenLayer, FreezeError> {
        let chain = FrozenLayer::sequence(self.chain().map(|l| l.freeze()).collect::<Result<Vec<_>, _>>()?);
        Ok(if self.cfg.is_residual() { FrozenLayer::Residual(Box::new(chain)) } else { chain })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_training_mode;
    use crate::layers::bn::BnStats;
    use crate::layers::dropout::Residual;
    use crate::meter;
    use crate::module::{param_count, Sequential};
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

    /// The per-op chain a `Full` MBConv fuses, as the block was built before
    /// the fusion: nine layers in a `Sequential`, inside a `Residual` when the
    /// block is one. Its values are copied in from the block under test.
    fn per_op_chain(cfg: MBConvCfg) -> Box<dyn Layer> {
        let rng = &mut StdRng::seed_from_u64(0);
        let c_mid = cfg.c_mid();
        let mut seq = Sequential::new();
        if (cfg.expansion - 1.0).abs() > 1e-6 || cfg.c_in != c_mid {
            seq.add(Box::new(Conv2d::pointwise(cfg.c_in, c_mid, false, rng)));
            seq.add(Box::new(BatchNorm2d::new(c_mid)));
            seq.add(Box::new(HardSwish::new()));
        }
        seq.add(Box::new(Conv2d::new(c_mid, c_mid, ConvSpec::depthwise(cfg.kernel, cfg.stride, c_mid), false, rng)));
        seq.add(Box::new(BatchNorm2d::new(c_mid)));
        seq.add(Box::new(HardSwish::new()));
        if cfg.se_ratio > 0.0 {
            let c_r = ((cfg.c_in as f32 * cfg.se_ratio).round() as usize).max(4);
            seq.add(Box::new(SqueezeExcite::with_reduced_channels(c_mid, c_r, rng)));
        }
        seq.add(Box::new(Conv2d::pointwise(c_mid, cfg.c_out, false, rng)));
        seq.add(Box::new(BatchNorm2d::new(cfg.c_out)));
        if cfg.upsample > 1 {
            seq.add(Box::new(Upsample::new(cfg.upsample, cfg.up_mode)));
        }
        if cfg.is_residual() {
            return Box::new(Residual::new(Box::new(seq), cfg.drop_path, 0));
        }
        if cfg.plain && cfg.drop_path > 0.0 {
            seq.add(Box::new(DropPath::new(cfg.drop_path, 0)));
        }
        Box::new(seq)
    }

    /// Copies `from`'s parameter values and buffers into `to`, by walk
    /// position, and restarts both mask streams from the same seeds.
    fn copy_state<'a>(from: &'a mut dyn Layer, to: &'a mut dyn Layer) {
        let mut values = Vec::new();
        from.visit_params(&mut |p| values.push(p.value.clone()));
        from.visit_buffers(&mut |b| values.push(b.clone()));
        let mut values = values.into_iter();
        to.visit_params(&mut |p| p.value = values.next().expect("as many parameters"));
        to.visit_buffers(&mut |b| *b = values.next().expect("as many buffers"));
        assert!(values.next().is_none(), "as many parameters and buffers");
        for l in [from, to] {
            let mut seed = 40;
            l.reseed(&mut || {
                seed += 1;
                seed
            });
        }
    }

    /// One training step: the forward `passes` over `x`, then a backward of
    /// `dy`. Returns every value the step produces, as bit patterns, by name:
    /// each pass's output, `dx`, every parameter gradient, every buffer, and
    /// every BatchNorm's held statistics and recorded moments. After each
    /// pass the meter holds the layer's `cache_bytes` for that pass, and the
    /// backward leaves nothing cached.
    fn step(l: &mut dyn Layer, passes: &[CacheMode], x: &Tensor, dy: &Tensor) -> Vec<(String, Vec<u64>)> {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits() as u64).collect::<Vec<_>>();
        let mut out = Vec::new();
        meter::reset();
        for (i, &mode) in passes.iter().enumerate() {
            let y = l.forward(x, mode);
            assert_eq!(meter::current() as u64, l.cache_bytes(x.shape(), mode), "{}: pass {i} ({mode:?})", l.name());
            out.push((format!("y of pass {i}"), bits(&y)));
        }
        out.push(("dx".to_string(), bits(&l.backward(dy))));
        assert_eq!(meter::current(), 0, "{}: the backward left caches behind", l.name());
        let mut k = 0;
        l.visit_params(&mut |p| {
            out.push((format!("grad {k} ({})", p.name), bits(&p.grad)));
            k += 1;
        });
        l.visit_buffers(&mut |b| {
            out.push((format!("buffer {k}"), bits(b)));
            k += 1;
        });
        l.visit_bn(&mut |bn| {
            if let Some((mean, var)) = bn.take_held() {
                out.push((format!("held mean {k}"), bits(&mean)));
                out.push((format!("held var {k}"), bits(&var)));
            }
            if let Some(m) = bn.take_moments() {
                out.push((format!("moments {k}"), m.sum.iter().chain(&m.sqsum).map(|v| v.to_bits()).collect()));
            }
            k += 1;
        });
        out
    }

    #[test]
    fn fused_full_pass_matches_the_per_op_chain_bitwise() {
        use CacheMode::{Full, Stats};
        let variants = [
            ("expansion and SE", MBConvCfg::same(8, 3, 2.0).with_se(0.25)),
            ("expansion", MBConvCfg::same(8, 3, 2.0)),
            ("SE", MBConvCfg::same(8, 3, 1.0).with_se(0.25)),
            ("neither", MBConvCfg::same(8, 3, 1.0)),
            ("stride 2, kernel 5", MBConvCfg::down(8, 12, 1, 2.0).with_se(0.25)),
            ("upsample x2", MBConvCfg::up(8, 6, 1, 2.0)),
            ("residual, drop path 0.3", MBConvCfg::same(8, 3, 2.0).with_drop_path(0.3)),
            ("plain, drop path 0.3", MBConvCfg::same(8, 3, 2.0).plain().with_drop_path(0.3)),
        ];
        let regimes: [(&str, BnStats, &[CacheMode]); 6] = [
            ("Full", BnStats::Immediate, &[Full]),
            ("Stats then Full", BnStats::Immediate, &[Stats, Full]),
            ("Held, Full", BnStats::Held, &[Full]),
            ("Held, Stats then Full", BnStats::Held, &[Stats, Full]),
            ("Decoupled, Full", BnStats::Decoupled, &[Full]),
            ("Decoupled, Stats then Full", BnStats::Decoupled, &[Stats, Full]),
        ];
        let mut rng = StdRng::seed_from_u64(21);
        for (variant, cfg) in variants {
            for (regime, stats, passes) in regimes {
                let mut block = MBConv::new(cfg, &mut rng);
                // Non-trivial affine parameters (the residual projection
                // starts at zero) and running statistics.
                block.visit_params(&mut |p| {
                    if p.name.starts_with("bn.") {
                        p.value = Tensor::uniform(p.value.shape(), -0.8, 1.2, &mut rng);
                    }
                });
                block.visit_buffers(&mut |b| *b = Tensor::uniform(b.shape(), 0.5, 1.5, &mut rng));
                let mut chain = per_op_chain(cfg);
                copy_state(&mut block, chain.as_mut());
                block.visit_bn(&mut |bn| bn.set_stats_mode(stats));
                chain.visit_bn(&mut |bn| bn.set_stats_mode(stats));
                let x = Tensor::randn(Shape::new(4, 8, 10, 10), 1.5, &mut rng);
                let dy = Tensor::randn(block.out_shape(x.shape()), 1.0, &mut rng);
                // What per-op autograd would save is the chain's layout.
                for mode in [Stats, Full] {
                    let want = chain.cache_bytes(x.shape(), mode);
                    assert_eq!(block.autograd_bytes(x.shape(), mode), want, "{variant}: {mode:?} autograd bytes");
                }
                let got = step(&mut block, passes, &x, &dy);
                let want = step(chain.as_mut(), passes, &x, &dy);
                assert_eq!(got.len(), want.len(), "{variant}, {regime}: what the step produced");
                for ((name, a), (want_name, b)) in got.iter().zip(&want) {
                    assert_eq!(name, want_name, "{variant}, {regime}");
                    let first = a.iter().zip(b).position(|(a, b)| a != b);
                    assert!(a.len() == b.len() && first.is_none(), "{variant}, {regime}: {name} differs at {first:?}");
                }
            }
        }
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
