//! # revbifpn-tensor
//!
//! Dense `f32` NCHW tensors and the numeric kernels needed to train
//! convolutional networks on CPU: GEMM, general/depthwise/pointwise 2-D
//! convolution (forward **and** exact backward), bilinear/nearest resizing,
//! pooling, and the invertible SpaceToDepth rearrangement.
//!
//! This crate is the numerical substrate of the RevBiFPN reproduction. It is
//! deliberately framework-free: every operator is a pure function from
//! tensors to tensors with a hand-derived adjoint, which is what makes the
//! byte-exact activation-memory accounting in `revbifpn-nn` possible.
//!
//! ```
//! use revbifpn_tensor::{conv2d, ConvSpec, Shape, Tensor};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let x = Tensor::randn(Shape::new(1, 3, 8, 8), 1.0, &mut rng);
//! let w = Tensor::randn(Shape::new(16, 3, 3, 3), 0.1, &mut rng);
//! let y = conv2d(&x, &w, None, &ConvSpec::kxk(3, 2));
//! assert_eq!(y.shape(), Shape::new(1, 16, 4, 4));
//! ```

#![warn(missing_docs)]

mod blob;
mod conv;
mod dw_plane;
mod matmul;
pub mod par;
mod qmatmul;
mod pool;
mod resize;
mod s2d;
pub mod scratch;
mod shape;
mod tensor;

pub use blob::SharedBytes;
pub use conv::{conv2d, conv2d_backward, conv2d_backward_accumulate, try_conv2d, ConvGrads, ConvPlan, ConvSpec, PlanKind};
pub use matmul::{
    gemm_layout_fingerprint, gemm_stats, reference, runs_blocked, sgemm, sgemm_a_bt, sgemm_at_b, sgemm_fused,
    sgemm_prepacked, Epilogue, EpilogueAct, GemmStats, PackedGemmA,
};
pub use qmatmul::{
    int8_act_scale, qgemm_prepacked, quantize_activations, quantize_weights_per_row,
    set_int8_force_scalar, PackedGemmAI8, INT8_ACT_QMAX, INT8_ACT_ZERO_POINT,
};
pub use pool::{
    avg_pool, avg_pool_backward, global_avg_pool, global_avg_pool_backward, max_pool, max_pool_backward,
    try_avg_pool, try_max_pool,
};
pub use resize::{resize, resize_backward, try_resize, try_resize_backward, upsample, ResizeMode};
pub use s2d::{depth_to_space, space_to_depth, space_to_depth_shape};
pub use shape::{Shape, ShapeError, ShapeMismatchError};
pub use tensor::Tensor;
