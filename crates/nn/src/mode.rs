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
    /// a reversible backward): cache everything backward needs.
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
