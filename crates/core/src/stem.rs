//! Network stems. The paper's stem is an invertible, parameter-free
//! channel-duplicating SpaceToDepth (Section 3): the input image's channels
//! are duplicated up to `c0 / b^2` so that wider variants stay fully
//! reversible, then a SpaceToDepth(b) rearrangement downsamples by `b`.
//! A conventional two-conv stem is provided for the Table 4 ablation.

use crate::config::{RevBiFPNConfig, StemKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn_nn::layers::{BatchNorm2d, Conv2d, HardSwish};
use revbifpn_nn::{CacheMode, Layer, Module, Sequential, ShapeWalk};
use revbifpn_tensor::{depth_to_space, space_to_depth, ConvSpec, Shape, Tensor};
use std::borrow::Cow;

/// Duplicates channels cyclically up to `c_target` (`c_target >= x.c`);
/// borrows `x` when it already has them.
pub(crate) fn duplicate_channels(x: &Tensor, c_target: usize) -> Cow<'_, Tensor> {
    let xs = x.shape();
    assert!(c_target >= xs.c, "cannot duplicate down");
    if c_target == xs.c {
        return Cow::Borrowed(x);
    }
    let mut out = Tensor::zeros(xs.with_c(c_target));
    for (i, dst) in out.data_mut().chunks_exact_mut(xs.hw()).enumerate() {
        let src = (i / c_target * xs.c + i % c_target % xs.c) * xs.hw();
        dst.copy_from_slice(&x.data()[src..src + xs.hw()]);
    }
    Cow::Owned(out)
}

/// Folds gradients of duplicated channels back onto the originals, each
/// sum started at +0 (in place when nothing was duplicated).
fn fold_duplicate_grads(mut dy: Tensor, c_in: usize) -> Tensor {
    let ys = dy.shape();
    if ys.c == c_in {
        dy.data_mut().iter_mut().for_each(|g| *g += 0.0);
        return dy;
    }
    let mut out = Tensor::zeros(ys.with_c(c_in));
    let hw = ys.hw();
    for (i, src) in dy.data().chunks_exact(hw).enumerate() {
        let at = (i / ys.c * c_in + i % ys.c % c_in) * hw;
        out.data_mut()[at..at + hw].iter_mut().zip(src).for_each(|(o, g)| *o += g);
    }
    out
}

/// A RevBiFPN stem: either the invertible SpaceToDepth (default) or a
/// conventional convolutional stem (ablation).
#[derive(Debug)]
pub enum Stem {
    /// Channel duplication + SpaceToDepth; fully invertible, no parameters.
    SpaceToDepth {
        /// Block size `b` (input is downsampled by `b`).
        block: usize,
        /// Output channels `c0 = dup * b^2`.
        c0: usize,
        /// Expected image channels (3 for RGB).
        image_channels: usize,
    },
    /// Two stride-`b/2`... in practice: two stride-2 convs reaching the same
    /// `/b` downsampling and `c0` width. Not invertible; caches normally.
    Convolutional {
        /// The conv-BN-act chain.
        body: Sequential,
        /// Block size matched to the SpaceToDepth variant.
        block: usize,
        /// Output channels.
        c0: usize,
        /// Expected image channels.
        image_channels: usize,
    },
}

impl Stem {
    /// Builds the stem described by `cfg` (assumed validated).
    pub fn from_config(cfg: &RevBiFPNConfig) -> Self {
        let c0 = cfg.channels[0];
        match cfg.stem {
            StemKind::SpaceToDepth => Stem::SpaceToDepth { block: cfg.stem_block, c0, image_channels: 3 },
            StemKind::Convolutional => {
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x57E3);
                let mut body = Sequential::new();
                // stem_block = 4 -> two stride-2 convs; stem_block = 2 -> one.
                let stages = (cfg.stem_block as f32).log2() as usize;
                let mut c_in = 3;
                for s in 0..stages {
                    let c_out = if s + 1 == stages { c0 } else { c0 / 2 };
                    body.add(Box::new(Conv2d::new(c_in, c_out, ConvSpec::kxk(3, 2), false, &mut rng)));
                    body.add(Box::new(BatchNorm2d::new(c_out)));
                    body.add(Box::new(HardSwish::new()));
                    c_in = c_out;
                }
                Stem::Convolutional { body, block: cfg.stem_block, c0, image_channels: 3 }
            }
        }
    }

    /// `true` for the invertible SpaceToDepth variant.
    pub fn is_reversible(&self) -> bool {
        matches!(self, Stem::SpaceToDepth { .. })
    }

    /// Output channels `c0`.
    pub fn c0(&self) -> usize {
        match self {
            Stem::SpaceToDepth { c0, .. } | Stem::Convolutional { c0, .. } => *c0,
        }
    }

    /// Inference-only frozen form (uncompiled; see [`crate::FrozenStem`]).
    pub fn freeze(&self) -> Result<crate::FrozenStem, revbifpn_nn::FreezeError> {
        Ok(match self {
            Stem::SpaceToDepth { block, c0, image_channels } => crate::FrozenStem::SpaceToDepth {
                block: *block,
                c0: *c0,
                image_channels: *image_channels,
            },
            Stem::Convolutional { body, c0, .. } => {
                crate::FrozenStem::Convolutional { body: Box::new(body.freeze()?), c0: *c0 }
            }
        })
    }

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics if the input channel count differs from `image_channels`.
    pub fn forward(&mut self, x: &Tensor, mode: CacheMode) -> Tensor {
        match self {
            Stem::SpaceToDepth { block, c0, image_channels } => {
                assert_eq!(x.shape().c, *image_channels, "stem expects {image_channels} image channels");
                let dup = *c0 / (*block * *block);
                let xd = duplicate_channels(x, dup);
                space_to_depth(&xd, *block)
            }
            Stem::Convolutional { body, image_channels, .. } => {
                assert_eq!(x.shape().c, *image_channels, "stem expects {image_channels} image channels");
                body.forward(x, mode)
            }
        }
    }

    /// Backward pass: accumulates stem parameter gradients (conv stem) and
    /// returns the input gradient.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        match self {
            Stem::SpaceToDepth { block, image_channels, .. } => {
                fold_duplicate_grads(depth_to_space(dy, *block), *image_channels)
            }
            Stem::Convolutional { body, .. } => body.backward(dy),
        }
    }

    /// Exact inverse (SpaceToDepth stem only): recovers the input image.
    ///
    /// # Errors
    ///
    /// Returns `Err` for the convolutional stem, which is not invertible.
    pub fn inverse(&self, y: &Tensor) -> Result<Tensor, &'static str> {
        match self {
            Stem::SpaceToDepth { block, image_channels, .. } => {
                let xd = depth_to_space(y, *block);
                // The first `image_channels` channels are the original image.
                let xs = xd.shape();
                let per = *image_channels * xs.hw();
                let data = xd.data().chunks_exact(xs.chw()).flat_map(|sample| &sample[..per]).copied().collect();
                Ok(Tensor::from_vec_unchecked(xs.with_c(*image_channels), data))
            }
            Stem::Convolutional { .. } => Err("convolutional stem is not invertible"),
        }
    }

    /// Output shape for an image of shape `x`.
    pub fn out_shape(&self, x: Shape) -> Shape {
        self.out_shapes(&[x])[0]
    }

    /// MAC count for an image of shape `x`.
    pub fn macs(&self, x: Shape) -> u64 {
        ShapeWalk::macs(self, &[x])
    }
}

impl Module for Stem {
    /// The conv stem's chain; the space-to-depth stem holds no layers.
    fn visit_layers(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        if let Stem::Convolutional { body, .. } = self {
            f(body);
        }
    }
}

impl ShapeWalk for Stem {
    /// The conv stem's chain at the image shape; space-to-depth is pure data
    /// movement and lists nothing.
    fn visit_layers_at(&self, xs: &[Shape], f: &mut dyn FnMut(&dyn Layer, Shape)) -> Vec<Shape> {
        let x = xs[0];
        vec![match self {
            Stem::SpaceToDepth { block, c0, .. } => Shape::new(x.n, *c0, x.h / *block, x.w / *block),
            Stem::Convolutional { body, .. } => {
                f(body, x);
                body.out_shape(x)
            }
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn s2d_stem_shapes_s0() {
        let cfg = RevBiFPNConfig::s0(10);
        let mut stem = Stem::from_config(&cfg);
        assert!(stem.is_reversible());
        let x = Tensor::ones(Shape::new(1, 3, 224, 224));
        let y = stem.forward(&x, CacheMode::None);
        // c = 4^2 * 3 = 48 at 56x56, exactly the paper's numbers.
        assert_eq!(y.shape(), Shape::new(1, 48, 56, 56));
        assert_eq!(stem.macs(x.shape()), 0);
    }

    #[test]
    fn s2d_stem_duplication_for_wide_variants() {
        let cfg = RevBiFPNConfig::scaled(2, 10); // c0 = 96 -> dup = 6 channels
        assert_eq!(cfg.stem_dup_channels(), 6);
        let mut stem = Stem::from_config(&cfg);
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::randn(Shape::new(1, 3, 32, 32), 1.0, &mut rng);
        let y = stem.forward(&x, CacheMode::None);
        assert_eq!(y.shape(), Shape::new(1, 96, 8, 8));
        // Invertible despite duplication.
        let back = stem.inverse(&y).unwrap();
        assert_eq!(back, x);
    }

    #[test]
    fn s2d_stem_inverse_roundtrip() {
        let cfg = RevBiFPNConfig::tiny(10);
        let mut stem = Stem::from_config(&cfg);
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::randn(Shape::new(2, 3, 32, 32), 1.0, &mut rng);
        let y = stem.forward(&x, CacheMode::None);
        assert_eq!(stem.inverse(&y).unwrap(), x);
    }

    #[test]
    fn s2d_backward_adjoint() {
        // <stem(x), m> == <x, stem^T(m)> since the map is linear.
        let cfg = RevBiFPNConfig::tiny(10);
        let mut stem = Stem::from_config(&cfg);
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::randn(Shape::new(1, 3, 8, 8), 1.0, &mut rng);
        let y = stem.forward(&x, CacheMode::Full);
        let m = Tensor::randn(y.shape(), 1.0, &mut rng);
        let dx = stem.backward(&m);
        let lhs = (&y * &m).sum();
        let rhs = (&x * &dx).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn conv_stem_shapes_and_params() {
        let mut cfg = RevBiFPNConfig::s0(10);
        cfg.stem = StemKind::Convolutional;
        let mut stem = Stem::from_config(&cfg);
        assert!(!stem.is_reversible());
        let x = Shape::new(1, 3, 224, 224);
        assert_eq!(stem.out_shape(x), Shape::new(1, 48, 56, 56));
        assert!(stem.macs(x) > 0);
        let mut n = 0u64;
        stem.visit_params(&mut |p| n += p.numel() as u64);
        assert!(n > 0);
        assert!(stem.inverse(&Tensor::zeros(Shape::new(1, 48, 56, 56))).is_err());
    }

    #[test]
    fn conv_stem_forward_backward() {
        let mut cfg = RevBiFPNConfig::tiny(10);
        cfg.stem = StemKind::Convolutional;
        let mut stem = Stem::from_config(&cfg);
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn(Shape::new(2, 3, 16, 16), 1.0, &mut rng);
        let y = stem.forward(&x, CacheMode::Full);
        assert_eq!(y.shape(), Shape::new(2, 16, 8, 8));
        let dx = stem.backward(&Tensor::ones(y.shape()));
        assert_eq!(dx.shape(), x.shape());
        stem.clear_cache();
    }
}
