//! Convolution layer wrapping the raw kernels with parameters and caching.

use crate::freeze::{FreezeError, FrozenLayer, FusedConv};
use crate::meter::Cached;
use crate::mode::CacheMode;
use crate::module::Layer;
use crate::param::Param;
use crate::init::kaiming_conv;
use rand::Rng;
use revbifpn_tensor::{conv2d, conv2d_backward_accumulate, ConvSpec, Shape, Tensor};

/// A 2-D convolution layer (pointwise/depthwise/general dispatch happens in
/// the kernel; see [`ConvSpec`]).
#[derive(Debug)]
pub struct Conv2d {
    weight: Param,
    bias: Option<Param>,
    spec: ConvSpec,
    c_out: usize,
    need_dx: bool,
    cache_x: Cached<Tensor>,
}

impl Conv2d {
    /// Creates a Kaiming-initialized convolution.
    ///
    /// `bias` is typically false when a BatchNorm follows.
    pub fn new<R: Rng + ?Sized>(c_in: usize, c_out: usize, spec: ConvSpec, bias: bool, rng: &mut R) -> Self {
        assert_eq!(c_in % spec.groups, 0, "c_in must divide groups");
        assert_eq!(c_out % spec.groups, 0, "c_out must divide groups");
        let wshape = Shape::new(c_out, c_in / spec.groups, spec.kh, spec.kw);
        let weight = Param::new(kaiming_conv(wshape, rng), true, "conv.weight");
        let bias = bias.then(|| Param::zeros(Shape::vector(c_out), false, "conv.bias"));
        Self { weight, bias, spec, c_out, need_dx: true, cache_x: Cached::empty() }
    }

    /// Depthwise convolution constructor.
    pub fn depthwise<R: Rng + ?Sized>(c: usize, k: usize, stride: usize, rng: &mut R) -> Self {
        Self::new(c, c, ConvSpec::depthwise(k, stride, c), false, rng)
    }

    /// Pointwise (1x1) convolution constructor.
    pub fn pointwise<R: Rng + ?Sized>(c_in: usize, c_out: usize, bias: bool, rng: &mut R) -> Self {
        Self::new(c_in, c_out, ConvSpec::pointwise(), bias, rng)
    }

    /// Marks this layer as the first in the network: skip computing `dx`.
    pub fn first_layer(mut self) -> Self {
        self.need_dx = false;
        self
    }

    /// The convolution geometry.
    pub fn spec(&self) -> ConvSpec {
        self.spec
    }

    /// Immutable access to the weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// This convolution's frozen (fusable, uncompiled) form.
    pub fn fused(&self) -> FusedConv {
        FusedConv::new(self.weight.value.clone(), self.bias.as_ref().map(|b| &b.value), self.spec)
    }

    /// The backward of a forward on input `x`: adds the weight (and bias)
    /// gradient into the parameters' accumulators in place — no
    /// parameter-sized gradient is allocated — and returns `dx`.
    pub(crate) fn backward_from(&mut self, x: &Tensor, dy: &Tensor) -> Tensor {
        let db = self.bias.as_mut().map(|b| b.value_and_sink().1);
        let (w, dw) = self.weight.value_and_sink();
        let dx = conv2d_backward_accumulate(x, w, dy, &self.spec, self.need_dx, dw, db);
        dx.unwrap_or_else(|| Tensor::zeros(x.shape()))
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, mode: CacheMode) -> Tensor {
        let y = conv2d(x, &self.weight.value, self.bias.as_ref().map(|b| &b.value), &self.spec);
        if mode == CacheMode::Full {
            self.cache_x.put_tensor(x.clone());
        }
        y
    }

    /// See [`Conv2d::backward_from`].
    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self.cache_x.take().expect("Conv2d::backward without Full forward");
        self.backward_from(&x, dy)
    }

    fn out_shape(&self, x: Shape) -> Shape {
        self.spec.out_shape(x, self.c_out)
    }

    fn macs(&self, x: Shape) -> u64 {
        self.spec.macs(x, self.c_out)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }

    fn clear_cache(&mut self) {
        self.cache_x.clear();
    }

    fn cache_bytes(&self, x: Shape, mode: CacheMode) -> u64 {
        mode.full_only(x.bytes())
    }

    fn name(&self) -> &str {
        "conv2d"
    }

    fn freeze(&self) -> Result<FrozenLayer, FreezeError> {
        Ok(FrozenLayer::Conv(Box::new(self.fused())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer;
    use crate::meter;
    use crate::module::param_count;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_and_macs() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv2d::new(3, 8, ConvSpec::kxk(3, 2), true, &mut rng);
        let x = Shape::new(2, 3, 8, 8);
        assert_eq!(conv.out_shape(x), Shape::new(2, 8, 4, 4));
        assert_eq!(conv.macs(x), 2 * 4 * 4 * 8 * 3 * 9);
        let mut conv = conv;
        assert_eq!(param_count(&mut conv), 8 * 3 * 9 + 8);
    }

    #[test]
    fn gradients_pass_finite_diff() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(3, 4, ConvSpec::kxk(3, 1), true, &mut rng);
        let x = Tensor::randn(Shape::new(2, 3, 5, 5), 1.0, &mut rng);
        check_layer(&mut conv, &x, 2e-2);
    }

    #[test]
    fn cache_accounting_matches_analytic() {
        meter::reset();
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv2d::pointwise(4, 8, false, &mut rng);
        let x = Tensor::randn(Shape::new(2, 4, 6, 6), 1.0, &mut rng);
        let _ = conv.forward(&x, CacheMode::Full);
        assert_eq!(meter::current() as u64, conv.cache_bytes(x.shape(), CacheMode::Full));
        let _ = conv.backward(&Tensor::zeros(conv.out_shape(x.shape())));
        assert_eq!(meter::current(), 0);
    }

    #[test]
    fn stats_mode_caches_nothing() {
        meter::reset();
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = Conv2d::pointwise(4, 8, false, &mut rng);
        let x = Tensor::randn(Shape::new(1, 4, 4, 4), 1.0, &mut rng);
        let _ = conv.forward(&x, CacheMode::Stats);
        assert_eq!(meter::current(), 0);
    }

    #[test]
    fn first_layer_returns_zero_dx() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut conv = Conv2d::new(3, 4, ConvSpec::kxk(3, 1), false, &mut rng).first_layer();
        let x = Tensor::randn(Shape::new(1, 3, 4, 4), 1.0, &mut rng);
        let y = conv.forward(&x, CacheMode::Full);
        let dx = conv.backward(&Tensor::ones(y.shape()));
        assert_eq!(dx.sum(), 0.0);
        // Weight grads must still be produced.
        assert!(conv.weight().grad.abs_max() > 0.0);
    }

    #[test]
    #[should_panic(expected = "without Full forward")]
    fn backward_without_forward_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut conv = Conv2d::pointwise(2, 2, false, &mut rng);
        let _ = conv.backward(&Tensor::zeros(Shape::new(1, 2, 1, 1)));
    }
}
