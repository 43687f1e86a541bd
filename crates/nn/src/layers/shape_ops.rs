//! Parameter-free shape-changing layers: global average pooling, bilinear /
//! nearest upsampling, and the invertible SpaceToDepth rearrangement.

use crate::freeze::{FreezeError, FrozenLayer};
use crate::meter::Cached;
use crate::mode::CacheMode;
use crate::module::Layer;
use revbifpn_tensor::{
    depth_to_space, global_avg_pool, global_avg_pool_backward, resize_backward, space_to_depth,
    space_to_depth_shape, upsample, ResizeMode, Shape, Tensor,
};

/// Global average pooling to `[n, c, 1, 1]`.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    in_shape: Cached<Shape>,
}

impl GlobalAvgPool {
    /// Creates the layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor, mode: CacheMode) -> Tensor {
        if mode == CacheMode::Full {
            self.in_shape.put(x.shape(), std::mem::size_of::<Shape>());
        }
        global_avg_pool(x)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let s = self.in_shape.take().expect("GlobalAvgPool::backward without Full forward");
        global_avg_pool_backward(dy, s)
    }

    fn out_shape(&self, x: Shape) -> Shape {
        Shape::new(x.n, x.c, 1, 1)
    }

    fn clear_cache(&mut self) {
        self.in_shape.clear();
    }

    fn cache_bytes(&self, _x: Shape, mode: CacheMode) -> u64 {
        mode.full_only(std::mem::size_of::<Shape>())
    }

    fn name(&self) -> &str {
        "gap"
    }

    fn freeze(&self) -> Result<FrozenLayer, FreezeError> {
        Ok(FrozenLayer::GlobalAvgPool)
    }
}

/// Upsampling by an integer factor (bilinear for "lu", nearest for "su").
#[derive(Debug)]
pub struct Upsample {
    factor: usize,
    mode: ResizeMode,
    in_shape: Cached<Shape>,
}

impl Upsample {
    /// Creates an upsampler.
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0`.
    pub fn new(factor: usize, mode: ResizeMode) -> Self {
        assert!(factor > 0, "upsample factor must be positive");
        Self { factor, mode, in_shape: Cached::empty() }
    }

    /// The scale factor.
    pub fn factor(&self) -> usize {
        self.factor
    }
}

impl Layer for Upsample {
    fn forward(&mut self, x: &Tensor, mode: CacheMode) -> Tensor {
        if mode == CacheMode::Full {
            self.in_shape.put(x.shape(), std::mem::size_of::<Shape>());
        }
        upsample(x, self.factor, self.mode)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let s = self.in_shape.take().expect("Upsample::backward without Full forward");
        resize_backward(dy, s, self.mode)
    }

    fn out_shape(&self, x: Shape) -> Shape {
        x.with_hw(x.h * self.factor, x.w * self.factor)
    }

    fn clear_cache(&mut self) {
        self.in_shape.clear();
    }

    fn cache_bytes(&self, _x: Shape, mode: CacheMode) -> u64 {
        mode.full_only(std::mem::size_of::<Shape>())
    }

    fn name(&self) -> &str {
        "upsample"
    }

    fn freeze(&self) -> Result<FrozenLayer, FreezeError> {
        Ok(FrozenLayer::Upsample { factor: self.factor, mode: self.mode })
    }
}

/// SpaceToDepth rearrangement layer (the RevBiFPN stem body). Invertible and
/// orthonormal, hence its backward is [`depth_to_space`] with no cache at all.
#[derive(Debug)]
pub struct SpaceToDepth {
    block: usize,
}

impl SpaceToDepth {
    /// Creates the layer with block size `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block == 0`.
    pub fn new(block: usize) -> Self {
        assert!(block > 0, "block size must be positive");
        Self { block }
    }

    /// Block size.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Exact inverse of the forward pass.
    pub fn inverse(&self, y: &Tensor) -> Tensor {
        depth_to_space(y, self.block)
    }
}

impl Layer for SpaceToDepth {
    fn forward(&mut self, x: &Tensor, _mode: CacheMode) -> Tensor {
        space_to_depth(x, self.block)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        depth_to_space(dy, self.block)
    }

    fn out_shape(&self, x: Shape) -> Shape {
        space_to_depth_shape(x, self.block)
    }

    fn name(&self) -> &str {
        "space_to_depth"
    }

    fn freeze(&self) -> Result<FrozenLayer, FreezeError> {
        Ok(FrozenLayer::SpaceToDepth { block: self.block })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gap_gradcheck() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::randn(Shape::new(2, 3, 4, 4), 1.0, &mut rng);
        check_layer(&mut GlobalAvgPool::new(), &x, 1e-2);
    }

    #[test]
    fn upsample_bilinear_gradcheck() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::randn(Shape::new(1, 2, 3, 3), 1.0, &mut rng);
        check_layer(&mut Upsample::new(2, ResizeMode::Bilinear), &x, 1e-2);
    }

    #[test]
    fn upsample_nearest_gradcheck() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::randn(Shape::new(1, 2, 3, 3), 1.0, &mut rng);
        check_layer(&mut Upsample::new(2, ResizeMode::Nearest), &x, 1e-2);
    }

    #[test]
    fn s2d_gradcheck_and_inverse() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn(Shape::new(1, 3, 4, 4), 1.0, &mut rng);
        let mut s2d = SpaceToDepth::new(2);
        check_layer(&mut s2d, &x, 1e-2);
        let y = s2d.forward(&x, CacheMode::None);
        assert_eq!(s2d.inverse(&y), x);
    }

    #[test]
    fn out_shapes() {
        assert_eq!(GlobalAvgPool::new().out_shape(Shape::new(2, 5, 7, 7)), Shape::new(2, 5, 1, 1));
        assert_eq!(
            Upsample::new(4, ResizeMode::Bilinear).out_shape(Shape::new(1, 2, 3, 3)),
            Shape::new(1, 2, 12, 12)
        );
        assert_eq!(SpaceToDepth::new(4).out_shape(Shape::new(1, 3, 8, 8)), Shape::new(1, 48, 2, 2));
    }
}
