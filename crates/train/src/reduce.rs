//! The split rule, the batch slicing and the BatchNorm moment tree of the
//! sharded step. A batch is cut into contiguous power-of-two leaves whose
//! partial results merge on the pairwise stride-doubling tree (`shard.rs`
//! states the alignment theorem); the step merges its gradients as it
//! writes them (`revbifpn_nn::SharedGrads`), on the same tree.

use revbifpn_nn::layers::BnMoments;
use revbifpn_tensor::{par, Shape, Tensor};

/// Largest `s <= want` with `s | n` and `n / s` a power of two (the
/// shard-alignment precondition), falling back to 1. Pure in `n`, so every
/// engine degrades to the same split and stays mutually bitwise-comparable.
pub(crate) fn effective_split(n: usize, want: usize) -> usize {
    let mut s = want.min(n).next_power_of_two();
    while s > want.min(n) {
        s /= 2;
    }
    while s > 1 && !(n.is_multiple_of(s) && (n / s).is_power_of_two()) {
        s /= 2;
    }
    s.max(1)
}

/// Contiguous sample slice `[lo, lo + n)` of a batch tensor.
pub(crate) fn slice_batch(t: &Tensor, lo: usize, n: usize) -> Tensor {
    let chw = t.shape().chw();
    Tensor::from_vec_unchecked(Shape { n, ..t.shape() }, t.data()[lo * chw..(lo + n) * chw].to_vec())
}

/// Concatenates per-leaf BatchNorm moment tables (leaf order = sample
/// order) into one full-batch table.
pub(crate) fn concat_moments<'a>(tables: impl IntoIterator<Item = &'a BnMoments>) -> BnMoments {
    let mut full = BnMoments { samples: 0, hw: 0, sum: Vec::new(), sqsum: Vec::new() };
    for t in tables {
        assert!(full.samples == 0 || t.hw == full.hw, "BN spatial extent mismatch across leaves");
        full.hw = t.hw;
        full.samples += t.samples;
        full.sum.extend_from_slice(&t.sum);
        full.sqsum.extend_from_slice(&t.sqsum);
    }
    full
}

/// Tree-reduces a full-batch table of per-sample BatchNorm moments to the
/// batch `(mean, var)`: a pairwise `f64` tree over the `n` sample rows, in
/// sample order. The table is consumed as the tree's scratch.
pub(crate) fn reduce_moments(n: usize, m: BnMoments) -> (Tensor, Tensor) {
    assert_eq!(m.samples, n, "BN moment sample count mismatch");
    let BnMoments { hw, sum: mut s1, sqsum: mut s2, .. } = m;
    let c = s1.len() / n.max(1);
    assert!(s1.len() == n * c && s2.len() == n * c, "BN moment table is not n x c");
    par::tree_reduce_serial(n, |d, s| {
        for ci in 0..c {
            s1[d * c + ci] += s1[s * c + ci];
            s2[d * c + ci] += s2[s * c + ci];
        }
    });
    let denom = (n * hw) as f64;
    let mut mean = vec![0.0f32; c];
    let mut var = vec![0.0f32; c];
    for ci in 0..c {
        let mu = s1[ci] / denom;
        mean[ci] = mu as f32;
        var[ci] = (s2[ci] / denom - mu * mu).max(0.0) as f32;
    }
    (
        Tensor::from_vec_unchecked(Shape::vector(c), mean),
        Tensor::from_vec_unchecked(Shape::vector(c), var),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_split_respects_alignment() {
        assert_eq!(effective_split(16, 4), 4);
        assert_eq!(effective_split(8, 4), 4);
        assert_eq!(effective_split(4, 4), 4);
        assert_eq!(effective_split(2, 4), 2);
        assert_eq!(effective_split(1, 4), 1);
        // 12 / 4 = 3 is not a power of two: collapse to 1 (12/2 = 6 fails
        // too), keeping the split a pure function of n.
        assert_eq!(effective_split(12, 4), 1);
        assert_eq!(effective_split(3, 4), 1);
    }
}
