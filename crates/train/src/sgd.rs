//! SGD with momentum and decoupled-style weight decay, matching the paper's
//! recipe (Appendix D.1: SGD, momentum 0.9, per-parameter weight decay on
//! weights but not on biases / normalization parameters).

use revbifpn_nn::{meter, Param};
use revbifpn_tensor::Tensor;

/// Scales all gradients so their global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm (over the *cleaned* gradients). Standard
/// stabilizer for detection fine-tuning (and for reversible couplings, whose
/// activation gain compounds when weights grow fast).
///
/// Non-finite gradient elements are zeroed **element-wise** first (counted
/// under the `train.nonfinite_grad_zeroed` meter event), so a handful of
/// poisoned elements neither veto the clip nor discard every healthy
/// gradient in the model.
pub fn clip_grad_norm(mut visit: impl FnMut(&mut dyn FnMut(&mut Param)), max_norm: f64) -> f64 {
    assert!(max_norm > 0.0, "max_norm must be positive");
    let mut zeroed = 0u64;
    let mut sq = 0.0f64;
    visit(&mut |p: &mut Param| {
        if !p.grad.is_finite() {
            zeroed += p.grad.count_nonfinite() as u64;
            p.grad.map_inplace(|g| if g.is_finite() { g } else { 0.0 });
        }
        sq += p.grad.sq_sum();
    });
    if zeroed > 0 {
        meter::count_n("train.nonfinite_grad_zeroed", zeroed);
    }
    let norm = sq.sqrt();
    if norm > max_norm {
        let scale = (max_norm / norm) as f32;
        visit(&mut |p: &mut Param| p.grad.scale(scale));
    }
    norm
}

/// SGD + momentum optimizer with per-parameter momentum buffers.
#[derive(Debug)]
pub struct Sgd {
    momentum: f32,
    weight_decay: f32,
    buffers: Vec<Tensor>,
}

impl Sgd {
    /// Creates the optimizer (buffers are allocated lazily on first step).
    pub fn new(momentum: f32, weight_decay: f32) -> Self {
        Self { momentum, weight_decay, buffers: Vec::new() }
    }

    /// Momentum coefficient.
    pub fn momentum(&self) -> f32 {
        self.momentum
    }

    /// Applies one update with learning rate `lr` to every parameter visited
    /// by `visit`. The visit order must be stable across steps (it is, for
    /// all models in this workspace: `visit_params` walks a fixed module
    /// tree).
    pub fn step(&mut self, lr: f32, visit: impl FnOnce(&mut dyn FnMut(&mut Param))) {
        let mut idx = 0;
        let buffers = &mut self.buffers;
        let momentum = self.momentum;
        let wd = self.weight_decay;
        visit(&mut |p: &mut Param| {
            if buffers.len() == idx {
                buffers.push(Tensor::zeros(p.value.shape()));
            }
            let buf = &mut buffers[idx];
            assert_eq!(buf.shape(), p.value.shape(), "parameter order changed between steps");
            assert_eq!(p.grad.shape(), p.value.shape(), "gradient shape");
            let decay = if p.weight_decay { wd } else { 0.0 };
            let value = p.value.data_mut();
            for ((w, &grad), m) in value.iter_mut().zip(p.grad.data()).zip(buf.data_mut()) {
                let g = grad + decay * *w;
                let v = momentum * *m + g;
                *m = v;
                *w -= lr * v;
            }
            idx += 1;
        });
    }

    /// Bytes of optimizer state currently held.
    pub fn state_bytes(&self) -> usize {
        self.buffers.iter().map(|b| b.bytes()).sum()
    }

    /// The momentum buffers in parameter-visit order (empty before the first
    /// step). Exposed for checkpointing.
    pub fn buffers(&self) -> &[Tensor] {
        &self.buffers
    }

    /// Replaces the momentum buffers (checkpoint resume). Shapes are
    /// validated lazily by [`Sgd::step`]'s parameter-order assertion.
    pub fn set_buffers(&mut self, buffers: Vec<Tensor>) {
        self.buffers = buffers;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revbifpn_tensor::Shape;

    #[test]
    fn plain_sgd_descends_quadratic() {
        // Minimize f(w) = 0.5 * w^2; grad = w.
        let mut p = Param::new(Tensor::full(Shape::vector(1), 10.0), false, "w");
        let mut opt = Sgd::new(0.0, 0.0);
        for _ in 0..100 {
            p.zero_grad();
            let g = p.value.clone();
            p.accumulate(&g);
            opt.step(0.1, |f| f(&mut p));
        }
        assert!(p.value.data()[0].abs() < 1e-3);
    }

    #[test]
    fn momentum_accelerates() {
        let run = |mom: f32| {
            let mut p = Param::new(Tensor::full(Shape::vector(1), 10.0), false, "w");
            let mut opt = Sgd::new(mom, 0.0);
            for _ in 0..20 {
                p.zero_grad();
                let g = p.value.clone();
                p.accumulate(&g);
                opt.step(0.02, |f| f(&mut p));
            }
            p.value.data()[0]
        };
        assert!(run(0.9).abs() < run(0.0).abs());
    }

    #[test]
    fn weight_decay_respects_flag() {
        let mut decayed = Param::new(Tensor::full(Shape::vector(1), 1.0), true, "w");
        let mut plain = Param::new(Tensor::full(Shape::vector(1), 1.0), false, "b");
        let mut opt = Sgd::new(0.0, 0.1);
        // Zero gradients: only decay moves parameters.
        opt.step(1.0, |f| {
            f(&mut decayed);
            f(&mut plain);
        });
        assert!((decayed.value.data()[0] - 0.9).abs() < 1e-6);
        assert_eq!(plain.value.data()[0], 1.0);
    }

    #[test]
    fn clip_rescales_to_max_norm() {
        let mut p = Param::new(Tensor::zeros(Shape::vector(2)), false, "w");
        p.grad = Tensor::from_vec(Shape::vector(2), vec![3.0, 4.0]).unwrap();
        let norm = clip_grad_norm(|f| f(&mut p), 1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        assert!((p.grad.l2_norm() - 1.0).abs() < 1e-5);
        // Below the cap: untouched.
        let norm2 = clip_grad_norm(|f| f(&mut p), 10.0);
        assert!((norm2 - 1.0).abs() < 1e-4);
        assert!((p.grad.l2_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_zeroes_non_finite() {
        let mut p = Param::new(Tensor::zeros(Shape::vector(1)), false, "w");
        p.grad = Tensor::from_vec(Shape::vector(1), vec![f32::NAN]).unwrap();
        let _ = clip_grad_norm(|f| f(&mut p), 1.0);
        assert_eq!(p.grad.data()[0], 0.0);
    }

    #[test]
    fn clip_zeroes_only_the_non_finite_elements() {
        let mut p = Param::new(Tensor::zeros(Shape::vector(4)), false, "w");
        p.grad = Tensor::from_vec(
            Shape::vector(4),
            vec![3.0, f32::NAN, 4.0, f32::INFINITY],
        )
        .unwrap();
        let before = revbifpn_nn::meter::event_count("train.nonfinite_grad_zeroed");
        let norm = clip_grad_norm(|f| f(&mut p), 10.0);
        // Norm is over the cleaned gradient: sqrt(3^2 + 4^2) = 5, under the
        // cap, so the finite elements survive untouched.
        assert!((norm - 5.0).abs() < 1e-6);
        assert_eq!(p.grad.data(), &[3.0, 0.0, 4.0, 0.0]);
        let after = revbifpn_nn::meter::event_count("train.nonfinite_grad_zeroed");
        assert_eq!(after - before, 2);
    }

    #[test]
    fn buffers_roundtrip_through_accessors() {
        let mut p = Param::new(Tensor::zeros(Shape::vector(3)), false, "w");
        p.grad = Tensor::from_vec(Shape::vector(3), vec![1.0, 2.0, 3.0]).unwrap();
        let mut opt = Sgd::new(0.9, 0.0);
        opt.step(0.1, |f| f(&mut p));
        let saved: Vec<Tensor> = opt.buffers().to_vec();
        assert_eq!(saved.len(), 1);
        let mut opt2 = Sgd::new(0.9, 0.0);
        opt2.set_buffers(saved);
        assert_eq!(opt2.buffers(), opt.buffers());
    }

    #[test]
    fn state_bytes_counted() {
        let mut p = Param::new(Tensor::zeros(Shape::vector(8)), false, "w");
        let mut opt = Sgd::new(0.9, 0.0);
        assert_eq!(opt.state_bytes(), 0);
        opt.step(0.1, |f| f(&mut p));
        assert_eq!(opt.state_bytes(), 32);
    }
}
