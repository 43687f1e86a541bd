//! The single-input [`Layer`] trait and generic helpers over it.

use crate::freeze::{FreezeError, FrozenLayer};
use crate::mode::{Accounting, CacheMode};
use crate::param::Param;
use revbifpn_tensor::{Shape, Tensor};

/// A differentiable single-input, single-output network module.
///
/// Layers own their parameters and their backward-pass caches. The caller
/// controls how much is cached through [`CacheMode`]:
///
/// * `None` — inference; `backward` must not be called afterwards.
/// * `Stats` — cache only O(c) statistics/seeds so that a later `Full`
///   forward on the *same input values* reproduces this pass exactly.
/// * `Full` — cache what `backward` needs. A leaf keeps the tensors its own
///   backward reads, as per-op autograd would; a composite may keep less
///   and rebuild the rest in its backward (a `Full` MBConv keeps its input
///   and each BatchNorm's input, see [`crate::layers::MBConv`]).
///
/// `backward` consumes the `Full` cache, accumulates parameter gradients,
/// and returns the gradient w.r.t. the input.
///
/// `Send` is a supertrait so reversible modules can schedule independent
/// sub-layer reconstruction/backward calls on the worker pool and the
/// sharded trainer can run whole model replicas on worker threads. Layers
/// hold only owned tensors and plain state, so this costs implementations
/// nothing.
pub trait Layer: std::fmt::Debug + Send {
    /// Forward pass.
    fn forward(&mut self, x: &Tensor, mode: CacheMode) -> Tensor;

    /// Backward pass; consumes the cache from the last `Full` forward.
    ///
    /// # Panics
    ///
    /// Panics if no `Full`-mode forward preceded this call.
    fn backward(&mut self, dy: &Tensor) -> Tensor;

    /// Output shape for an input of shape `x`.
    fn out_shape(&self, x: Shape) -> Shape {
        self.visit_children_at(x, &mut |_, _| {})
    }

    /// Multiply-accumulate count of one forward pass on input shape `x`.
    fn macs(&self, x: Shape) -> u64 {
        let mut total = 0;
        self.visit_children_at(x, &mut |l, s| total += l.macs(s));
        total
    }

    /// Visits each direct child layer once, in walk order (DESIGN.md
    /// "Module traversal"). Every walk below recurses through it, so a
    /// composite layer implements only this; a leaf keeps the default of no
    /// children and overrides the walks over the state it owns.
    fn visit_children(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        let _ = f;
    }

    /// The shape view of [`Layer::visit_children`]: the same children in the
    /// same order, each with the input shape it receives; returns the output
    /// shape for input `x`. `out_shape`, `macs`, `cache_bytes` and
    /// `autograd_bytes` derive from it, so a composite implements only this
    /// and a leaf overrides the first three.
    fn visit_children_at(&self, x: Shape, f: &mut dyn FnMut(&dyn Layer, Shape)) -> Shape {
        let _ = f;
        x
    }

    /// Visits every parameter (used by optimizers, EMA, counting).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.visit_children(&mut |l| l.visit_params(f));
    }

    /// Visits every non-parameter persistent buffer (e.g. BatchNorm running
    /// statistics). Checkpointing uses this so a resumed run restores
    /// inference-relevant state bit-exactly, not just the trainable
    /// parameters.
    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.visit_children(&mut |l| l.visit_buffers(f));
    }

    /// Visits every [`crate::layers::BatchNorm2d`] in the tree. The sharded
    /// training step switches replicas into decoupled-statistics mode with
    /// it and pairs per-sample batch moments across replicas by position.
    fn visit_bn(&mut self, f: &mut dyn FnMut(&mut crate::layers::BatchNorm2d)) {
        self.visit_children(&mut |l| l.visit_bn(f));
    }

    /// Drops all cached state (both `Stats` and `Full` caches).
    fn clear_cache(&mut self) {
        self.visit_children(&mut |l| l.clear_cache());
    }

    /// Restarts every stochastic layer's mask stream from the next value of
    /// `draw`, in walk order. The trainer calls it at the start of each
    /// step, so masks are a function of `(seed, step)` like the data, and a
    /// run resumed into a fresh model draws what the uninterrupted run drew.
    fn reseed(&mut self, draw: &mut dyn FnMut() -> u64) {
        self.visit_children(&mut |l| l.reseed(draw));
    }

    /// Analytic prediction of the bytes this layer stores during a forward
    /// pass in `mode` on input shape `x` ([`crate::Accounting::Layout`]). The
    /// meter checks it byte for byte; a composite that stores less than its
    /// children would overrides it.
    fn cache_bytes(&self, x: Shape, mode: CacheMode) -> u64 {
        let mut total = 0;
        self.visit_children_at(x, &mut |l, s| total += l.cache_bytes(s, mode));
        total
    }

    /// The bytes per-op autograd would save for the same pass
    /// ([`crate::Accounting::Autograd`]): the quantity the paper's memory
    /// figures measure. Derived, never overridden: a leaf's is its
    /// `cache_bytes`, a composite's is its children's plus what it stores
    /// beside them (squeeze-excite's product operands). A composite that
    /// stores less than its children would — a fused cache that rebuilds
    /// their tensors in its backward — counts its children's.
    fn autograd_bytes(&self, x: Shape, mode: CacheMode) -> u64 {
        let (mut autograd, mut stored) = (0, 0);
        self.visit_children_at(x, &mut |l, s| {
            autograd += l.autograd_bytes(s, mode);
            stored += l.cache_bytes(s, mode);
        });
        autograd + self.cache_bytes(x, mode).saturating_sub(stored)
    }

    /// Short human-readable identifier.
    fn name(&self) -> &str {
        "layer"
    }

    /// This layer's inference-only frozen form (see [`crate::freeze`]).
    ///
    /// The returned tree is *uncompiled*: call [`FrozenLayer::compile`] (or
    /// use [`crate::freeze::freeze_layer`]) to pack the conv weights before
    /// running it. Layers without a fused equivalent return
    /// [`FreezeError::Unsupported`].
    fn freeze(&self) -> Result<FrozenLayer, FreezeError> {
        Err(FreezeError::unsupported("layer", self.name()))
    }
}

/// A model tree that is not itself a [`Layer`]: multi-stream stages,
/// backbones, heads and whole models.
///
/// It names its layers once, in walk order, through
/// [`Module::visit_layers`]; every walk is derived from that list.
pub trait Module {
    /// Visits each layer of the tree once, in walk order (a sub-module
    /// passes `f` on to its own `visit_layers`).
    fn visit_layers(&mut self, f: &mut dyn FnMut(&mut dyn Layer));

    /// Drops what this module caches outside its layers (drift sentinels,
    /// a saved pyramid), including what its sub-modules hold there.
    /// [`Module::clear_cache`] runs it after clearing the layers.
    fn clear_state(&mut self) {}

    /// Visits every parameter (see [`Layer::visit_params`]).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.visit_layers(&mut |l| l.visit_params(f));
    }

    /// Visits every persistent buffer (see [`Layer::visit_buffers`]).
    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.visit_layers(&mut |l| l.visit_buffers(f));
    }

    /// Visits every BatchNorm (see [`Layer::visit_bn`]).
    fn visit_bn(&mut self, f: &mut dyn FnMut(&mut crate::layers::BatchNorm2d)) {
        self.visit_layers(&mut |l| l.visit_bn(f));
    }

    /// Drops every cache, in the layers and outside them.
    fn clear_cache(&mut self) {
        self.visit_layers(&mut |l| l.clear_cache());
        self.clear_state();
    }

    /// Restarts every stochastic layer's mask stream (see [`Layer::reseed`]).
    fn reseed(&mut self, draw: &mut dyn FnMut() -> u64) {
        self.visit_layers(&mut |l| l.reseed(draw));
    }

    /// Zeroes every parameter gradient.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Number of scalar parameters.
    fn param_count(&mut self) -> u64 {
        let mut total = 0u64;
        self.visit_params(&mut |p| total += p.numel() as u64);
        total
    }
}

/// The shape view of a [`Module`]: the same layers as
/// [`Module::visit_layers`], in the same order, each with the input shape it
/// receives. Every analytic quantity (output shapes, MACs, cache bytes, the
/// reversible transient) is derived from this one list.
pub trait ShapeWalk {
    /// Visits each layer of the tree once, in walk order, with its input
    /// shape, and returns the output stream shapes for input streams `xs`.
    fn visit_layers_at(&self, xs: &[Shape], f: &mut dyn FnMut(&dyn Layer, Shape)) -> Vec<Shape>;

    /// Output stream shapes for input streams `xs`.
    fn out_shapes(&self, xs: &[Shape]) -> Vec<Shape> {
        self.visit_layers_at(xs, &mut |_, _| {})
    }

    /// MAC count of one forward pass.
    fn macs(&self, xs: &[Shape]) -> u64 {
        let mut total = 0;
        self.visit_layers_at(xs, &mut |l, x| total += l.macs(x));
        total
    }

    /// Analytic cache bytes of a forward pass in `mode` under `acct` (see
    /// [`Layer::cache_bytes`] and [`Layer::autograd_bytes`]).
    fn cache_bytes(&self, xs: &[Shape], mode: CacheMode, acct: Accounting) -> u64 {
        let mut total = 0;
        self.visit_layers_at(xs, &mut |l, x| total += acct.of(l, x, mode));
        total
    }

    /// The largest listed layer's `Full` cache under `acct`. The listed layers are the
    /// recompute units — a RevBlock's F or G, one silo edge — and on one
    /// thread the reversible backward re-runs and transposes them one at a
    /// time, so this is its transient peak. The meter counts that serial
    /// trace at any thread count; in real heap, a `BlockStage`'s streams
    /// and a `RevSilo`'s edges recompute concurrently on the pool, so with
    /// `T` threads up to `T` units' caches are live at once.
    fn transient_bytes(&self, xs: &[Shape], acct: Accounting) -> u64 {
        let mut peak = 0;
        self.visit_layers_at(xs, &mut |l, x| peak = peak.max(acct.of(l, x, CacheMode::Full)));
        peak
    }
}

/// A part of a tree as a [`Module`]: the closure lists the part's layers, in
/// walk order. Sub-walks (a stage range, the neck and head) are the one walk
/// applied to such a part.
pub struct Part<F>(F);

impl<F: FnMut(&mut dyn FnMut(&mut dyn Layer))> Part<F> {
    /// Wraps the closure listing the part's layers.
    pub fn new(layers: F) -> Self {
        Self(layers)
    }
}

impl<F: FnMut(&mut dyn FnMut(&mut dyn Layer))> Module for Part<F> {
    fn visit_layers(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        (self.0)(f)
    }
}

/// Counts scalar parameters of a layer.
pub fn param_count(layer: &mut dyn Layer) -> u64 {
    let mut total = 0u64;
    layer.visit_params(&mut |p| total += p.numel() as u64);
    total
}

/// Zeroes all parameter gradients of a layer.
pub fn zero_grads(layer: &mut dyn Layer) {
    layer.visit_params(&mut |p| p.zero_grad());
}

/// Sum of squared gradient elements (for grad-norm diagnostics).
pub fn grad_sq_norm(layer: &mut dyn Layer) -> f64 {
    let mut total = 0.0;
    layer.visit_params(&mut |p| total += p.grad.sq_sum());
    total
}

/// The identity layer (useful as a placeholder, e.g. an absent expansion
/// stage in MBConv with expansion ratio 1).
#[derive(Debug, Default)]
pub struct Identity;

impl Layer for Identity {
    fn forward(&mut self, x: &Tensor, _mode: CacheMode) -> Tensor {
        x.clone()
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        dy.clone()
    }

    fn name(&self) -> &str {
        "identity"
    }

    fn freeze(&self) -> Result<FrozenLayer, FreezeError> {
        Ok(FrozenLayer::Identity)
    }
}

/// A chain of layers applied in order.
#[derive(Debug, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// An empty chain (acts as identity).
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Builds from parts.
    pub fn from_layers(layers: Vec<Box<dyn Layer>>) -> Self {
        Self { layers }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: Box<dyn Layer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Appends a layer in place.
    pub fn add(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers in the chain.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` when the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to the chained layers.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, mode: CacheMode) -> Tensor {
        // The first child reads `x` itself; only an empty chain copies.
        match self.layers.split_first_mut() {
            None => x.clone(),
            Some((first, rest)) => rest.iter_mut().fold(first.forward(x, mode), |cur, l| l.forward(&cur, mode)),
        }
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        match self.layers.split_last_mut() {
            None => dy.clone(),
            Some((last, rest)) => rest.iter_mut().rev().fold(last.backward(dy), |cur, l| l.backward(&cur)),
        }
    }

    fn visit_children(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        for l in &mut self.layers {
            f(l.as_mut());
        }
    }

    fn visit_children_at(&self, x: Shape, f: &mut dyn FnMut(&dyn Layer, Shape)) -> Shape {
        self.layers.iter().fold(x, |s, l| {
            f(l.as_ref(), s);
            l.out_shape(s)
        })
    }

    fn name(&self) -> &str {
        "sequential"
    }

    fn freeze(&self) -> Result<FrozenLayer, FreezeError> {
        let children = self.layers.iter().map(|l| l.freeze()).collect::<Result<Vec<_>, _>>()?;
        Ok(FrozenLayer::sequence(children))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrip() {
        let mut id = Identity;
        let x = Tensor::ones(Shape::new(1, 2, 2, 2));
        let y = id.forward(&x, CacheMode::Full);
        assert_eq!(y, x);
        let dx = id.backward(&y);
        assert_eq!(dx, x);
        assert_eq!(param_count(&mut id), 0);
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut s = Sequential::new();
        assert!(s.is_empty());
        let x = Tensor::ones(Shape::new(1, 1, 1, 1));
        assert_eq!(s.forward(&x, CacheMode::None), x);
        assert_eq!(s.out_shape(x.shape()), x.shape());
        assert_eq!(s.macs(x.shape()), 0);
    }

    #[test]
    fn sequential_chains() {
        let s = Sequential::new().push(Box::new(Identity)).push(Box::new(Identity));
        assert_eq!(s.len(), 2);
    }
}
