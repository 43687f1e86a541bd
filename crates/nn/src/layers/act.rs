//! Element-wise activations: ReLU, hard-swish (the paper's non-linearity),
//! hard-sigmoid, and sigmoid.

use crate::freeze::{ActKind, FreezeError, FrozenLayer};
use crate::meter::Cached;
use crate::mode::CacheMode;
use crate::module::Layer;
use revbifpn_tensor::{Shape, Tensor};

/// Rectified linear unit.
#[derive(Debug, Default)]
pub struct Relu {
    cache_x: Cached<Tensor>,
}

impl Relu {
    /// Creates a ReLU.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, mode: CacheMode) -> Tensor {
        if mode == CacheMode::Full {
            self.cache_x.put_tensor(x.clone());
        }
        x.map(|v| v.max(0.0))
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self.cache_x.take().expect("Relu::backward without Full forward");
        dy.zip(&x, |g, v| if v > 0.0 { g } else { 0.0 })
    }

    fn clear_cache(&mut self) {
        self.cache_x.clear();
    }

    fn cache_bytes(&self, x: Shape, mode: CacheMode) -> u64 {
        mode.full_only(x.bytes())
    }

    fn name(&self) -> &str {
        "relu"
    }

    fn freeze(&self) -> Result<FrozenLayer, FreezeError> {
        Ok(FrozenLayer::Act(ActKind::Relu))
    }
}

#[inline]
pub(crate) fn hswish(v: f32) -> f32 {
    v * (v + 3.0).clamp(0.0, 6.0) / 6.0
}

#[inline]
pub(crate) fn hswish_grad(v: f32) -> f32 {
    if v <= -3.0 {
        0.0
    } else if v >= 3.0 {
        1.0
    } else {
        (2.0 * v + 3.0) / 6.0
    }
}

/// Hard-swish non-linearity (Howard et al. 2019), used throughout RevBiFPN.
#[derive(Debug, Default)]
pub struct HardSwish {
    cache_x: Cached<Tensor>,
}

impl HardSwish {
    /// Creates a hard-swish activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for HardSwish {
    fn forward(&mut self, x: &Tensor, mode: CacheMode) -> Tensor {
        if mode == CacheMode::Full {
            self.cache_x.put_tensor(x.clone());
        }
        x.map(hswish)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self.cache_x.take().expect("HardSwish::backward without Full forward");
        dy.zip(&x, |g, v| g * hswish_grad(v))
    }

    fn clear_cache(&mut self) {
        self.cache_x.clear();
    }

    fn cache_bytes(&self, x: Shape, mode: CacheMode) -> u64 {
        mode.full_only(x.bytes())
    }

    fn name(&self) -> &str {
        "hardswish"
    }

    fn freeze(&self) -> Result<FrozenLayer, FreezeError> {
        Ok(FrozenLayer::Act(ActKind::HardSwish))
    }
}

#[inline]
fn hsigmoid(v: f32) -> f32 {
    (v + 3.0).clamp(0.0, 6.0) / 6.0
}

#[inline]
fn hsigmoid_grad(v: f32) -> f32 {
    if (-3.0..3.0).contains(&v) {
        1.0 / 6.0
    } else {
        0.0
    }
}

/// Hard-sigmoid gate (squeeze-excite gating in MobileNetV3 style).
#[derive(Debug, Default)]
pub struct HardSigmoid {
    cache_x: Cached<Tensor>,
}

impl HardSigmoid {
    /// Creates a hard-sigmoid activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for HardSigmoid {
    fn forward(&mut self, x: &Tensor, mode: CacheMode) -> Tensor {
        if mode == CacheMode::Full {
            self.cache_x.put_tensor(x.clone());
        }
        x.map(hsigmoid)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self.cache_x.take().expect("HardSigmoid::backward without Full forward");
        dy.zip(&x, |g, v| g * hsigmoid_grad(v))
    }

    fn clear_cache(&mut self) {
        self.cache_x.clear();
    }

    fn cache_bytes(&self, x: Shape, mode: CacheMode) -> u64 {
        mode.full_only(x.bytes())
    }

    fn name(&self) -> &str {
        "hardsigmoid"
    }

    fn freeze(&self) -> Result<FrozenLayer, FreezeError> {
        Ok(FrozenLayer::Act(ActKind::HardSigmoid))
    }
}

/// Logistic sigmoid (caches its *output*, which determines the gradient).
#[derive(Debug, Default)]
pub struct Sigmoid {
    cache_y: Cached<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, x: &Tensor, mode: CacheMode) -> Tensor {
        let y = x.map(|v| 1.0 / (1.0 + (-v).exp()));
        if mode == CacheMode::Full {
            self.cache_y.put_tensor(y.clone());
        }
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let y = self.cache_y.take().expect("Sigmoid::backward without Full forward");
        dy.zip(&y, |g, s| g * s * (1.0 - s))
    }

    fn clear_cache(&mut self) {
        self.cache_y.clear();
    }

    fn cache_bytes(&self, x: Shape, mode: CacheMode) -> u64 {
        mode.full_only(x.bytes())
    }

    fn name(&self) -> &str {
        "sigmoid"
    }

    fn freeze(&self) -> Result<FrozenLayer, FreezeError> {
        Ok(FrozenLayer::Act(ActKind::Sigmoid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn smooth_input(seed: u64) -> Tensor {
        // Keep values away from the hard kinks (+-3, 0) so finite
        // differences are valid.
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::uniform(Shape::new(2, 3, 4, 4), 0.3, 2.5, &mut rng)
    }

    #[test]
    fn relu_known_values() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(Shape::new(1, 1, 1, 3), vec![-1.0, 0.0, 2.0]).unwrap();
        let y = r.forward(&x, CacheMode::None);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn hswish_known_values() {
        let mut h = HardSwish::new();
        let x = Tensor::from_vec(Shape::new(1, 1, 1, 4), vec![-4.0, -1.5, 0.0, 4.0]).unwrap();
        let y = h.forward(&x, CacheMode::None);
        assert_eq!(y.data()[0], 0.0);
        assert!((y.data()[1] - (-1.5 * 1.5 / 6.0)).abs() < 1e-6);
        assert_eq!(y.data()[2], 0.0);
        assert_eq!(y.data()[3], 4.0);
    }

    #[test]
    fn hsigmoid_known_values() {
        let mut h = HardSigmoid::new();
        let x = Tensor::from_vec(Shape::new(1, 1, 1, 3), vec![-5.0, 0.0, 5.0]).unwrap();
        let y = h.forward(&x, CacheMode::None);
        assert_eq!(y.data(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn sigmoid_center() {
        let mut s = Sigmoid::new();
        let x = Tensor::zeros(Shape::new(1, 1, 1, 1));
        let y = s.forward(&x, CacheMode::None);
        assert!((y.data()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn gradients_relu() {
        check_layer(&mut Relu::new(), &smooth_input(0), 1e-2);
    }

    #[test]
    fn gradients_hswish() {
        check_layer(&mut HardSwish::new(), &smooth_input(1), 1e-2);
    }

    #[test]
    fn gradients_hsigmoid() {
        check_layer(&mut HardSigmoid::new(), &smooth_input(2), 1e-2);
    }

    #[test]
    fn gradients_sigmoid() {
        check_layer(&mut Sigmoid::new(), &smooth_input(3), 1e-2);
    }
}
