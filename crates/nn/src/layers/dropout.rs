//! Stochastic regularizers with seed-replay, plus the residual wrapper.
//!
//! Reversible recomputation must reproduce the forward pass exactly, so
//! random masks are never stored: only their 8-byte seeds are. A
//! `Stats`-mode forward freezes the seed; the recomputing `Full`-mode
//! forward replays it.

use crate::freeze::{FreezeError, FrozenLayer};
use crate::meter::Cached;
use crate::mode::CacheMode;
use crate::module::Layer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn_tensor::{Shape, Tensor};

fn element_mask(seed: u64, shape: Shape, keep: f32) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Tensor::zeros(shape);
    for v in m.data_mut() {
        *v = if rng.random::<f32>() < keep { 1.0 / keep } else { 0.0 };
    }
    m
}

fn sample_mask(seed: u64, n: usize, keep: f32) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| if rng.random::<f32>() < keep { 1.0 / keep } else { 0.0 }).collect()
}

/// What a seed-replay layer with drop probability `p` caches: nothing when it
/// never drops, the seed in `Stats`, the seed and the input shape in `Full`.
fn seed_cache_bytes(p: f32, mode: CacheMode) -> u64 {
    match mode {
        _ if p == 0.0 => 0,
        CacheMode::None => 0,
        CacheMode::Stats => 8,
        CacheMode::Full => (8 + std::mem::size_of::<Shape>()) as u64,
    }
}

/// Element-wise (inverted) dropout.
#[derive(Debug)]
pub struct Dropout {
    p: f32,
    next_seed: u64,
    frozen_seed: Cached<u64>,
    saved: Cached<(u64, Shape)>,
}

impl Dropout {
    /// Creates dropout with drop probability `p` in `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0, 1)");
        Self { p, next_seed: seed, frozen_seed: Cached::empty(), saved: Cached::empty() }
    }

    /// Drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }

    fn fresh_seed(&mut self) -> u64 {
        self.next_seed = self.next_seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.next_seed
    }
}

impl Layer for Dropout {
    fn forward(&mut self, x: &Tensor, mode: CacheMode) -> Tensor {
        if self.p == 0.0 || mode == CacheMode::None {
            return x.clone();
        }
        let seed = match self.frozen_seed.take() {
            Some(s) => s,
            None => self.fresh_seed(),
        };
        let keep = 1.0 - self.p;
        let mask = element_mask(seed, x.shape(), keep);
        let y = x * &mask;
        match mode {
            CacheMode::Stats => self.frozen_seed.put(seed, 8),
            CacheMode::Full => self.saved.put((seed, x.shape()), 8 + std::mem::size_of::<Shape>()),
            CacheMode::None => unreachable!(),
        }
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        if self.p == 0.0 {
            return dy.clone();
        }
        let (seed, shape) = self.saved.take().expect("Dropout::backward without Full forward");
        let mask = element_mask(seed, shape, 1.0 - self.p);
        dy * &mask
    }

    fn clear_cache(&mut self) {
        self.frozen_seed.clear();
        self.saved.clear();
    }

    fn reseed(&mut self, draw: &mut dyn FnMut() -> u64) {
        self.next_seed = draw();
    }

    fn cache_bytes(&self, _x: Shape, mode: CacheMode) -> u64 {
        seed_cache_bytes(self.p, mode)
    }

    fn name(&self) -> &str {
        "dropout"
    }

    fn freeze(&self) -> Result<FrozenLayer, FreezeError> {
        Ok(FrozenLayer::Identity)
    }
}

/// Stochastic depth (Huang et al. 2016): drops the whole residual branch per
/// sample, rescaling survivors by `1 / keep`.
#[derive(Debug)]
pub struct DropPath {
    p: f32,
    next_seed: u64,
    frozen_seed: Cached<u64>,
    saved: Cached<(u64, Shape)>,
}

impl DropPath {
    /// Creates stochastic depth with drop probability `p` in `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop-path probability must be in [0, 1)");
        Self { p, next_seed: seed, frozen_seed: Cached::empty(), saved: Cached::empty() }
    }

    /// Drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }

    fn fresh_seed(&mut self) -> u64 {
        self.next_seed = self.next_seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.next_seed
    }

    fn apply(x: &Tensor, seed: u64, keep: f32) -> Tensor {
        let xs = x.shape();
        let mask = sample_mask(seed, xs.n, keep);
        let mut y = x.clone();
        let chw = xs.chw();
        for (n, &m) in mask.iter().enumerate().take(xs.n) {
            for v in &mut y.data_mut()[n * chw..(n + 1) * chw] {
                *v *= m;
            }
        }
        y
    }
}

impl Layer for DropPath {
    fn forward(&mut self, x: &Tensor, mode: CacheMode) -> Tensor {
        if self.p == 0.0 || mode == CacheMode::None {
            return x.clone();
        }
        let seed = match self.frozen_seed.take() {
            Some(s) => s,
            None => self.fresh_seed(),
        };
        let y = Self::apply(x, seed, 1.0 - self.p);
        match mode {
            CacheMode::Stats => self.frozen_seed.put(seed, 8),
            CacheMode::Full => self.saved.put((seed, x.shape()), 8 + std::mem::size_of::<Shape>()),
            CacheMode::None => unreachable!(),
        }
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        if self.p == 0.0 {
            return dy.clone();
        }
        let (seed, _shape) = self.saved.take().expect("DropPath::backward without Full forward");
        Self::apply(dy, seed, 1.0 - self.p)
    }

    fn clear_cache(&mut self) {
        self.frozen_seed.clear();
        self.saved.clear();
    }

    fn reseed(&mut self, draw: &mut dyn FnMut() -> u64) {
        self.next_seed = draw();
    }

    fn cache_bytes(&self, _x: Shape, mode: CacheMode) -> u64 {
        seed_cache_bytes(self.p, mode)
    }

    fn name(&self) -> &str {
        "drop_path"
    }

    fn freeze(&self) -> Result<FrozenLayer, FreezeError> {
        Ok(FrozenLayer::Identity)
    }
}

/// Residual wrapper: `y = x + drop_path(branch(x))`.
///
/// The residual add itself needs no cache (its gradient is the identity on
/// both addends), so the memory cost is exactly the branch's.
#[derive(Debug)]
pub struct Residual {
    branch: Box<dyn Layer>,
    drop_path: DropPath,
}

impl Residual {
    /// Wraps `branch` with an identity skip connection.
    pub fn new(branch: Box<dyn Layer>, drop_path_p: f32, seed: u64) -> Self {
        Self { branch, drop_path: DropPath::new(drop_path_p, seed) }
    }

    /// Immutable access to the wrapped branch.
    pub fn branch(&self) -> &dyn Layer {
        self.branch.as_ref()
    }
}

impl Layer for Residual {
    fn forward(&mut self, x: &Tensor, mode: CacheMode) -> Tensor {
        let b = self.branch.forward(x, mode);
        assert_eq!(b.shape(), x.shape(), "residual branch must preserve shape");
        let b = self.drop_path.forward(&b, mode);
        &b + x
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let db = self.drop_path.backward(dy);
        let dx_branch = self.branch.backward(&db);
        &dx_branch + dy
    }

    fn visit_children(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        f(self.branch.as_mut());
        f(&mut self.drop_path);
    }

    /// The branch preserves the shape (checked in `forward`).
    fn visit_children_at(&self, x: Shape, f: &mut dyn FnMut(&dyn Layer, Shape)) -> Shape {
        f(self.branch.as_ref(), x);
        f(&self.drop_path, x);
        x
    }

    fn name(&self) -> &str {
        "residual"
    }

    fn freeze(&self) -> Result<FrozenLayer, FreezeError> {
        // Eval-mode drop-path is the identity, so only the branch remains.
        Ok(FrozenLayer::Residual(Box::new(self.branch.freeze()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Identity;

    #[test]
    fn dropout_eval_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::ones(Shape::new(2, 3, 4, 4));
        assert_eq!(d.forward(&x, CacheMode::None), x);
    }

    #[test]
    fn dropout_preserves_expectation() {
        let mut d = Dropout::new(0.3, 2);
        let x = Tensor::ones(Shape::new(4, 8, 16, 16));
        let mut total = 0.0;
        for _ in 0..10 {
            let y = d.forward(&x, CacheMode::Full);
            d.clear_cache();
            total += y.mean();
        }
        assert!((total / 10.0 - 1.0).abs() < 0.05, "mean {}", total / 10.0);
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones(Shape::new(1, 1, 4, 4));
        let y = d.forward(&x, CacheMode::Full);
        let dy = Tensor::ones(y.shape());
        let dx = d.backward(&dy);
        // Gradient mask must match the forward mask exactly.
        assert_eq!(dx, y);
    }

    #[test]
    fn dropout_stats_then_full_replays_seed() {
        let mut d = Dropout::new(0.5, 4);
        let x = Tensor::ones(Shape::new(1, 2, 8, 8));
        let y1 = d.forward(&x, CacheMode::Stats);
        let y2 = d.forward(&x, CacheMode::Full);
        assert_eq!(y1, y2);
        d.clear_cache();
    }

    #[test]
    fn drop_path_zeroes_whole_samples() {
        let mut d = DropPath::new(0.5, 5);
        let x = Tensor::ones(Shape::new(16, 2, 2, 2));
        let y = d.forward(&x, CacheMode::Full);
        d.clear_cache();
        let chw = 8;
        for n in 0..16 {
            let slice = &y.data()[n * chw..(n + 1) * chw];
            let first = slice[0];
            assert!(slice.iter().all(|&v| v == first), "sample {n} not uniform");
            assert!(first == 0.0 || (first - 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn residual_identity_branch_doubles() {
        let mut r = Residual::new(Box::new(Identity), 0.0, 0);
        let x = Tensor::full(Shape::new(1, 1, 2, 2), 3.0);
        let y = r.forward(&x, CacheMode::Full);
        assert!(y.data().iter().all(|&v| v == 6.0));
        let dx = r.backward(&Tensor::ones(y.shape()));
        assert!(dx.data().iter().all(|&v| v == 2.0));
    }
}
