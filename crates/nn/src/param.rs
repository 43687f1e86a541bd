//! Learnable parameters: a value tensor paired with its gradient accumulator
//! and optimizer-relevant metadata.

use revbifpn_tensor::par::{lock_grad, GradSink};
use revbifpn_tensor::{Shape, Tensor};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

/// A gradient accumulator two parameters add into, each add under its lock.
type SharedGrad = Arc<Mutex<Tensor>>;

/// A learnable parameter.
///
/// Gradients accumulate across backward calls; the optimizer reads them via
/// [`Param::grad`] and the caller zeroes them with [`Param::zero_grad`]
/// between steps. While [`SharedGrads`] links the parameter to one of its
/// accumulators, its gradient writes go there instead of to `grad`.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
    /// Whether weight decay applies (convention: true for conv/linear
    /// weights, false for biases and normalization affine parameters).
    pub weight_decay: bool,
    /// Human-readable name for debugging and test assertions.
    pub name: &'static str,
    /// Where gradient writes go instead of `grad`, while set.
    link: Option<SharedGrad>,
}

impl Param {
    /// Creates a parameter with a zeroed gradient (an empty one inside
    /// [`without_grads`]).
    pub fn new(value: Tensor, weight_decay: bool, name: &'static str) -> Self {
        let shape = if GRADLESS.get() { Shape::vector(0) } else { value.shape() };
        let grad = Tensor::zeros(shape);
        Self { value, grad, weight_decay, name, link: None }
    }

    /// Zero-initialized parameter (e.g. biases, zero-init BN gains).
    pub fn zeros(shape: Shape, weight_decay: bool, name: &'static str) -> Self {
        Self::new(Tensor::zeros(shape), weight_decay, name)
    }

    /// One-initialized parameter (e.g. BN gains).
    pub fn ones(shape: Shape, weight_decay: bool, name: &'static str) -> Self {
        Self::new(Tensor::ones(shape), weight_decay, name)
    }

    /// Number of scalar elements.
    pub fn numel(&self) -> usize {
        self.value.shape().numel()
    }

    /// Adds `g` into the gradient accumulator: `grad`, or the linked one.
    ///
    /// # Panics
    ///
    /// Panics if `g` and the accumulator hold different element counts.
    pub fn accumulate(&mut self, g: &Tensor) {
        let (_, mut sink) = self.value_and_sink();
        assert_eq!(sink.len(), g.data().len(), "gradient size mismatch for {}", self.name);
        sink.add_at(0, g.data());
    }

    /// The value, and where this parameter's gradient is added.
    pub fn value_and_sink(&mut self) -> (&Tensor, GradSink<'_>) {
        let sink = match &self.link {
            Some(acc) => GradSink::Shared(acc),
            None => GradSink::Owned(self.grad.data_mut()),
        };
        (&self.value, sink)
    }

    /// Clears `grad`. A linked accumulator is not touched: its owner zeroes
    /// it once for both partners, before either adds.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }
}

/// One gradient accumulator per parameter of a model, in walk order, shared
/// by the models of a sharded training step's shard pair: both add into
/// it, each add under that parameter's lock (see [`GradSink`]). The pair's
/// second model is linked for good and owns no gradient ([`without_grads`]);
/// the first lends its gradients for a step ([`SharedGrads::swap`]).
#[derive(Debug)]
pub struct SharedGrads(Vec<SharedGrad>);

impl SharedGrads {
    /// One empty accumulator for each parameter `visit` reaches, and the
    /// parameter's gradient writes sent to it for good.
    pub fn link(visit: impl FnOnce(&mut dyn FnMut(&mut Param))) -> Self {
        let mut accs = Vec::new();
        visit(&mut |p| {
            let acc = Arc::new(Mutex::new(Tensor::zeros(Shape::vector(0))));
            p.link = Some(Arc::clone(&acc));
            accs.push(acc);
        });
        Self(accs)
    }

    /// Swaps the `grad` of every parameter `visit` reaches with its
    /// accumulator, and links the parameter while the accumulator holds its
    /// gradient: `lend` moves the gradients in, `!lend` takes them back.
    pub fn swap(&self, visit: impl FnOnce(&mut dyn FnMut(&mut Param)), lend: bool) {
        self.zip_params(visit, |p, acc| {
            std::mem::swap(&mut p.grad, &mut *lock_grad(acc));
            p.link = lend.then(|| Arc::clone(acc));
        });
    }

    /// Adds `other`'s accumulators into these, element by element.
    pub fn add(&self, other: &Self) {
        for (a, b) in self.0.iter().zip(&other.0) {
            GradSink::Shared(a).add_at(0, lock_grad(b).data());
        }
    }

    fn zip_params(&self, visit: impl FnOnce(&mut dyn FnMut(&mut Param)), mut f: impl FnMut(&mut Param, &SharedGrad)) {
        let mut accs = self.0.iter();
        visit(&mut |p| f(p, accs.next().expect("a parameter without an accumulator")));
    }
}

thread_local! {
    /// Set on this thread while [`without_grads`] runs.
    static GRADLESS: Cell<bool> = const { Cell::new(false) };
}

/// Runs `build` with every [`Param`] it creates on this thread holding an
/// empty `grad`: a model whose gradient writes will all be linked to other
/// accumulators is built without ever allocating gradients of its own.
pub fn without_grads<R>(build: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            GRADLESS.set(self.0);
        }
    }
    let _restore = Restore(GRADLESS.replace(true));
    build()
}

/// Counts scalar parameters reachable through `visit`.
pub fn count_scalars(visit: impl FnOnce(&mut dyn FnMut(&mut Param))) -> u64 {
    let mut total = 0u64;
    visit(&mut |p: &mut Param| total += p.numel() as u64);
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad() {
        let p = Param::new(Tensor::ones(Shape::vector(4)), true, "w");
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.numel(), 4);
        assert!(p.weight_decay);
    }

    #[test]
    fn accumulate_and_zero() {
        let mut p = Param::zeros(Shape::vector(2), false, "b");
        let g = Tensor::from_vec(Shape::vector(2), vec![1.0, 2.0]).unwrap();
        p.accumulate(&g);
        p.accumulate(&g);
        assert_eq!(p.grad.data(), &[2.0, 4.0]);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }
}
