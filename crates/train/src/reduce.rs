//! The helpers the sharded and the stage-pipelined step share, one copy
//! each. Both engines cut a batch into contiguous power-of-two leaves and
//! merge the leaves' partial results with the same pairwise stride-doubling
//! tree (`shard.rs` states the alignment theorem); their gradients and
//! BatchNorm statistics agree bit for bit only while they run the same
//! additions in the same order, so the split rule, the slicing and the
//! moment tree live here and nowhere else. The sharded step merges its
//! gradients as it writes them (`revbifpn_nn::SharedGrads`), on the same
//! tree; [`tree_merge_slabs`] is the pipeline's merge of whole slabs.

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

/// [`par::tree_reduce_serial`] over leaf gradient slabs, in place: the root
/// lands in `slabs[0]`, the other slabs are left as tree scratch.
/// `slabs.len()` must be a power of two for subtree alignment.
pub(crate) fn tree_merge_slabs(slabs: &mut [Vec<Tensor>]) {
    par::tree_reduce_serial(slabs.len(), |d, s| {
        let (left, right) = slabs.split_at_mut(s);
        for (a, b) in left[d].iter_mut().zip(&right[0]) {
            for (x, y) in a.data_mut().iter_mut().zip(b.data()) {
                *x += *y;
            }
        }
    });
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
