//! # revbifpn-nn
//!
//! A manual-backprop neural-network module framework with the one feature
//! the RevBiFPN reproduction revolves around: **explicit control over what a
//! layer caches for its backward pass** ([`CacheMode`]), paired with a
//! byte-exact activation-memory [`meter`].
//!
//! Layers implement [`Layer`]; composites are built from [`Sequential`],
//! [`Residual`](layers::Residual) and the concrete layers in [`layers`]
//! (convolutions, BatchNorm, hard-swish, squeeze-excite, MBConv, ...).
//!
//! ```
//! use revbifpn_nn::{layers::MBConv, layers::MBConvCfg, CacheMode, Layer};
//! use revbifpn_tensor::{Shape, Tensor};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut block = MBConv::new(MBConvCfg::same(8, 3, 2.0).with_se(0.25), &mut rng);
//! let x = Tensor::randn(Shape::new(1, 8, 16, 16), 1.0, &mut rng);
//! let y = block.forward(&x, CacheMode::Full);
//! let dx = block.backward(&y);
//! assert_eq!(dx.shape(), x.shape());
//! ```

#![warn(missing_docs)]

pub mod artifact;
pub mod checkpoint;
pub mod freeze;
pub mod gradcheck;
pub mod init;
pub mod loss;
pub mod meter;
mod mode;
mod module;
mod param;

pub use freeze::{freeze_layer, freeze_layer_int8, ActKind, FreezeError, FrozenLayer, FrozenTree, FusedConv};
pub use meter::Cached;
pub use mode::{Accounting, CacheMode};
pub use module::{grad_sq_norm, param_count, zero_grads, Identity, Layer, Module, Part, Sequential, ShapeWalk};
pub use param::{count_scalars, without_grads, Param, SharedGrads};

/// Concrete layer implementations.
pub mod layers {
    mod act;
    mod bn;
    mod conv;
    mod dropout;
    mod linear;
    mod mbconv;
    mod planes;
    mod se;
    mod shape_ops;

    pub use act::{HardSigmoid, HardSwish, Relu, Sigmoid};
    pub use bn::{BatchNorm2d, BnMoments, BnStats};
    pub use conv::Conv2d;
    pub use dropout::{DropPath, Dropout, Residual};
    pub use linear::Linear;
    pub use mbconv::{MBConv, MBConvCfg};
    pub use se::SqueezeExcite;
    pub use shape_ops::{GlobalAvgPool, SpaceToDepth, Upsample};
}
