//! Squeeze-and-Excitation channel gating (Tan & Le 2019 variant with
//! hard-sigmoid gate). RevBiFPN applies SE on the high-resolution streams
//! (Ridnik et al. 2021; ablated in Table 5 of the paper).

use super::planes::{par_collect, plane_sums};
use crate::freeze::{FreezeError, FrozenLayer};
use crate::layers::act::{HardSigmoid, Relu};
use crate::layers::conv::Conv2d;
use crate::meter::Cached;
use crate::mode::CacheMode;
use crate::module::Layer;
use rand::Rng;
use revbifpn_tensor::{global_avg_pool, EpilogueAct, Shape, Tensor};

/// `y = x * gate(x)` where `gate = hsigmoid(W2 relu(W1 gap(x)))`.
#[derive(Debug)]
pub struct SqueezeExcite {
    reduce: Conv2d,
    expand: Conv2d,
    relu: Relu,
    hsig: HardSigmoid,
    c: usize,
    cache: Cached<(Tensor, Tensor)>,
}

impl SqueezeExcite {
    /// Creates an SE block on `c` channels with reduction ratio `ratio`
    /// (reduced width `max(4, c * ratio)`).
    ///
    /// # Panics
    ///
    /// Panics if `ratio <= 0`.
    pub fn new<R: Rng + ?Sized>(c: usize, ratio: f32, rng: &mut R) -> Self {
        assert!(ratio > 0.0, "SE ratio must be positive");
        let c_r = ((c as f32 * ratio).round() as usize).max(4).min(c);
        Self::with_reduced_channels(c, c_r, rng)
    }

    /// Creates an SE block with an explicit bottleneck width (EfficientNet
    /// computes the reduction from the MBConv *input* channels, not the
    /// expanded width).
    pub fn with_reduced_channels<R: Rng + ?Sized>(c: usize, c_r: usize, rng: &mut R) -> Self {
        let c_r = c_r.clamp(1, c);
        Self {
            reduce: Conv2d::pointwise(c, c_r, true, rng),
            expand: Conv2d::pointwise(c_r, c, true, rng),
            relu: Relu::new(),
            hsig: HardSigmoid::new(),
            c,
            cache: Cached::empty(),
        }
    }

    /// Reduced (bottleneck) channel count.
    pub fn reduced_channels(&self) -> usize {
        self.reduce.out_shape(Shape::new(1, self.c, 1, 1)).c
    }

    /// `hsigmoid(W2 relu(W1 gap(x)))`, one factor per plane; the gate path
    /// caches in `mode`.
    pub(crate) fn gate(&mut self, x: &Tensor, mode: CacheMode) -> Tensor {
        let s = global_avg_pool(x);
        let r = self.reduce.forward(&s, mode);
        let r = self.relu.forward(&r, mode);
        let e = self.expand.forward(&r, mode);
        self.hsig.forward(&e, mode)
    }

    /// The gate `g` and the gate path's caches in `mode`: what a `Full`
    /// caller that keeps the gate and rebuilds `x` holds of this layer.
    pub(crate) fn gate_cache_bytes(&self, x: Shape, mode: CacheMode) -> u64 {
        let mut total = mode.full_only(Shape::new(x.n, self.c, 1, 1).bytes());
        self.visit_children_at(x, &mut |l, s| total += l.cache_bytes(s, mode));
        total
    }

    /// The backward of a `Full` forward on `x` that gated with `g`:
    /// accumulates the gate path's parameter gradients, returns `dx`. The
    /// gate path's own caches must be in place.
    pub(crate) fn backward_from(&mut self, x: &Tensor, g: &Tensor, dy: &Tensor) -> Tensor {
        let xs = x.shape();
        let hw = xs.hw();
        // Gate gradient dg = Σ_hw dy * x, one plane at a time.
        let (dyd, xd) = (dy.data(), x.data());
        let dg = par_collect(xs.n * self.c, |p| {
            plane_sums([&dyd[p * hw..(p + 1) * hw], &xd[p * hw..(p + 1) * hw]], |[d, v]| [d * v])[0] as f32
        });
        let dg = Tensor::from_vec_unchecked(Shape::new(xs.n, self.c, 1, 1), dg);
        // Gate path backward through hsig -> expand -> relu -> reduce -> gap.
        let de = self.hsig.backward(&dg);
        let dr = self.expand.backward(&de);
        let dr = self.relu.backward(&dr);
        let ds = self.reduce.backward(&dr);
        // dx = dy * g + gap_backward(ds) in one pass: through the product
        // and through the pooling, whose gradient spreads evenly over each
        // plane — per element the sum the two separate terms would make,
        // without a full-size tensor for the second.
        let inv = 1.0 / hw as f32;
        let [dx] = Tensor::map_planes([dy], |p| {
            let (k, b) = (g.data()[p], ds.data()[p] * inv);
            move |[d]: [f32; 1]| [d * k + b]
        });
        dx
    }
}

impl Layer for SqueezeExcite {
    fn forward(&mut self, x: &Tensor, mode: CacheMode) -> Tensor {
        assert_eq!(x.shape().c, self.c, "SqueezeExcite channel mismatch");
        let g = self.gate(x, mode);
        let y = x.mul_planes(&g);
        if mode == CacheMode::Full {
            let bytes = x.bytes() + g.bytes();
            self.cache.put((x.clone(), g), bytes);
        }
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (x, g) = self.cache.take().expect("SqueezeExcite::backward without Full forward");
        self.backward_from(&x, &g, dy)
    }

    /// The gate's MACs plus the `x * g` product.
    fn macs(&self, x: Shape) -> u64 {
        let mut total = x.numel() as u64;
        self.visit_children_at(x, &mut |l, s| total += l.macs(s));
        total
    }

    fn visit_children(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        f(&mut self.reduce);
        f(&mut self.expand);
        f(&mut self.relu);
        f(&mut self.hsig);
    }

    /// The gate runs on `[n, c, 1, 1]` pooled vectors, `[n, c_r, 1, 1]`
    /// between its two convs.
    fn visit_children_at(&self, x: Shape, f: &mut dyn FnMut(&dyn Layer, Shape)) -> Shape {
        let (sv, rv) = (Shape::new(x.n, self.c, 1, 1), Shape::new(x.n, self.reduced_channels(), 1, 1));
        f(&self.reduce, sv);
        f(&self.expand, rv);
        f(&self.relu, rv);
        f(&self.hsig, sv);
        x
    }

    fn clear_cache(&mut self) {
        self.visit_children(&mut |l| l.clear_cache());
        self.cache.clear();
    }

    /// The gate's caches plus the `(x, g)` pair.
    fn cache_bytes(&self, x: Shape, mode: CacheMode) -> u64 {
        mode.full_only(x.bytes()) + self.gate_cache_bytes(x, mode)
    }

    fn name(&self) -> &str {
        "squeeze_excite"
    }

    fn freeze(&self) -> Result<FrozenLayer, FreezeError> {
        let mut reduce = self.reduce.fused();
        let mut expand = self.expand.fused();
        reduce.try_set_act(EpilogueAct::Relu);
        expand.try_set_act(EpilogueAct::HardSigmoid);
        Ok(FrozenLayer::SqueezeExcite { reduce: Box::new(reduce), expand: Box::new(expand) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer;
    use crate::meter;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gate_is_bounded_and_shape_preserved() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut se = SqueezeExcite::new(8, 0.25, &mut rng);
        let x = Tensor::randn(Shape::new(2, 8, 4, 4), 1.0, &mut rng);
        let y = se.forward(&x, CacheMode::None);
        assert_eq!(y.shape(), x.shape());
        // |y| <= |x| since gate in [0,1].
        for (a, b) in y.data().iter().zip(x.data()) {
            assert!(a.abs() <= b.abs() + 1e-6);
        }
    }

    #[test]
    fn gradients_pass_finite_diff() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut se = SqueezeExcite::new(6, 0.5, &mut rng);
        let x = Tensor::randn(Shape::new(2, 6, 3, 3), 1.0, &mut rng);
        check_layer(&mut se, &x, 3e-2);
    }

    #[test]
    fn one_pass_input_grad_matches_the_two_term_sum_bitwise() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut se = SqueezeExcite::new(6, 0.5, &mut rng);
        let x = Tensor::randn(Shape::new(3, 6, 5, 7), 1.0, &mut rng);
        let dy = Tensor::randn(x.shape(), 1.0, &mut rng);
        let g = se.gate(&x, CacheMode::None);
        let _ = se.forward(&x, CacheMode::Full);
        let dx = se.backward(&dy);
        // The same gate path again, for `ds`: the weight gradients it adds
        // are not compared.
        let _ = se.forward(&x, CacheMode::Full);
        let (xs, hw) = (x.shape(), x.shape().hw());
        let dg: Vec<f32> = (0..xs.n * xs.c)
            .map(|p| {
                let at = p * hw..(p + 1) * hw;
                plane_sums([&dy.data()[at.clone()], &x.data()[at]], |[d, v]| [d * v])[0] as f32
            })
            .collect();
        let _ = se.cache.take();
        let de = se.hsig.backward(&Tensor::from_vec_unchecked(g.shape(), dg));
        let dr = se.expand.backward(&de);
        let dr = se.relu.backward(&dr);
        let ds = se.reduce.backward(&dr);
        let mut want = dy.mul_planes(&g);
        want.add_assign(&revbifpn_tensor::global_avg_pool_backward(&ds, xs));
        for (i, (a, b)) in dx.data().iter().zip(want.data()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "idx {i}");
        }
    }

    #[test]
    fn meter_matches_analytic() {
        let mut rng = StdRng::seed_from_u64(2);
        meter::reset();
        let mut se = SqueezeExcite::new(8, 0.25, &mut rng);
        let x = Tensor::randn(Shape::new(2, 8, 5, 5), 1.0, &mut rng);
        let _ = se.forward(&x, CacheMode::Full);
        assert_eq!(meter::current() as u64, se.cache_bytes(x.shape(), CacheMode::Full));
        se.clear_cache();
        assert_eq!(meter::current(), 0);
    }

    #[test]
    fn reduced_channels_floor() {
        let mut rng = StdRng::seed_from_u64(3);
        let se = SqueezeExcite::new(8, 0.25, &mut rng);
        assert_eq!(se.reduced_channels(), 4); // max(4, 8*0.25)
    }
}
