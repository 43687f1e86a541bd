//! Cache modes: the central mechanism that makes reversible recomputation
//! measurable.
//!
//! A conventional framework always caches whatever backward needs
//! ([`CacheMode::Full`]). A reversible network instead runs its forward pass
//! with [`CacheMode::Stats`] — only O(channels) statistics (BatchNorm batch
//! moments, dropout seeds) are kept — and re-runs each block with
//! [`CacheMode::Full`] *transiently* during the backward pass, after
//! reconstructing the block's input from its output.

/// How much state a layer may retain during a forward pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheMode {
    /// Inference: no caching, BatchNorm uses running statistics.
    None,
    /// Reversible-training forward: cache only O(c) statistics and RNG seeds
    /// so a later recomputation reproduces this pass bit-for-bit. BatchNorm
    /// uses (and stores) batch statistics and updates running statistics.
    Stats,
    /// Conventional training forward (or the transient recomputation inside
    /// a reversible backward): cache what backward cannot recompute. A leaf
    /// keeps the tensors its backward reads, as per-op autograd would; a
    /// fused composite keeps less and rebuilds the rest (a `Full` MBConv
    /// keeps its input, each BatchNorm's input and the SE gate).
    Full,
}

impl CacheMode {
    /// `true` for the two training modes ([`CacheMode::Stats`] / [`CacheMode::Full`]).
    pub fn is_training(self) -> bool {
        !matches!(self, CacheMode::None)
    }

    /// `bytes` in [`CacheMode::Full`], else 0: the analytic cache of a layer
    /// that keeps only what its backward reads (an input, an output, a shape).
    pub(crate) fn full_only(self, bytes: usize) -> u64 {
        match self {
            CacheMode::Full => bytes as u64,
            _ => 0,
        }
    }
}

/// Which bytes an analytic cache figure counts. Both accountings are
/// derived from the one shape walk ([`crate::ShapeWalk`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Accounting {
    /// What this repo's layers store ([`crate::Layer::cache_bytes`]): the
    /// activation meter checks it byte for byte.
    Layout,
    /// What per-op autograd would save ([`crate::Layer::autograd_bytes`]):
    /// every op keeps the tensors its own backward reads. The paper measures
    /// PyTorch, so its memory figures are in this accounting.
    Autograd,
}

impl Accounting {
    /// `layer`'s cache bytes on input `x` in `mode` under this accounting.
    pub fn of(self, layer: &dyn crate::Layer, x: revbifpn_tensor::Shape, mode: CacheMode) -> u64 {
        match self {
            Accounting::Layout => layer.cache_bytes(x, mode),
            Accounting::Autograd => layer.autograd_bytes(x, mode),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_predicate() {
        assert!(!CacheMode::None.is_training());
        assert!(CacheMode::Stats.is_training());
        assert!(CacheMode::Full.is_training());
    }
}
