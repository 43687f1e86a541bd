//! Per-plane reductions shared by the layers that sum over `(n, c)` planes
//! (BatchNorm's statistics and parameter gradients, the squeeze-excite gate
//! gradient).

use revbifpn_tensor::par;

/// Sums `f` over the positions of `I` equally long planes, `M` sums at once,
/// in `f64`. Each sum is kept in eight independent lanes — position `i` adds
/// into lane `i % 8`, so there is no long dependent add chain and the loop
/// vectorizes — reduced at the end in one fixed order,
/// `((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))`. The result depends
/// on the plane alone, never on threads or on how planes are tiled.
pub(super) fn plane_sums<const I: usize, const M: usize>(
    planes: [&[f32]; I],
    f: impl Fn([f64; I]) -> [f64; M],
) -> [f64; M] {
    let len = planes[0].len();
    assert!(planes.iter().all(|p| p.len() == len), "planes must be equally long");
    let mut acc = [[0.0f64; 8]; M];
    let mut chunks = planes.map(|p| p.chunks_exact(8));
    for _ in 0..len / 8 {
        let block: [&[f32]; I] = std::array::from_fn(|i| chunks[i].next().expect("len / 8 chunks"));
        for l in 0..8 {
            let v = f(std::array::from_fn(|i| block[i][l] as f64));
            for (a, s) in acc.iter_mut().zip(v) {
                a[l] += s;
            }
        }
    }
    for l in 0..len % 8 {
        let v = f(std::array::from_fn(|i| chunks[i].remainder()[l] as f64));
        for (a, s) in acc.iter_mut().zip(v) {
            a[l] += s;
        }
    }
    acc.map(|a| ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7])))
}

/// `f(i)` for every `i` in `0..items`, computed over the worker pool in
/// contiguous chunks and returned in index order. Each value depends only on
/// its index, so the result is the same for any thread count.
pub(super) fn par_collect<T: Send + Default + Clone>(items: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut out = vec![T::default(); items];
    par::chunks_mut(&mut out, |at, chunk| {
        for (i, v) in chunk.iter_mut().enumerate() {
            *v = f(at + i);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use revbifpn_tensor::{Shape, Tensor};

    #[test]
    fn plane_sums_match_a_two_pass_f64_oracle() {
        let mut rng = StdRng::seed_from_u64(11);
        for len in [1usize, 7, 8, 9, 576] {
            let x = Tensor::randn(Shape::new(1, 1, 1, len), 3.0, &mut rng).map(|v| v + 5.0);
            let d = Tensor::randn(Shape::new(1, 1, 1, len), 1.0, &mut rng);
            let [s, q, sd] = plane_sums([x.data(), d.data()], |[v, g]| [v, v * v, g * v]);
            let want_s: f64 = x.data().iter().map(|&v| v as f64).sum();
            let want_q: f64 = x.data().iter().map(|&v| v as f64 * v as f64).sum();
            let want_sd: f64 = x.data().iter().zip(d.data()).map(|(&v, &g)| g as f64 * v as f64).sum();
            for (name, got, want, scale) in [("sum", s, want_s, want_s), ("sqsum", q, want_q, want_q), ("dot", sd, want_sd, want_q)] {
                assert!((got - want).abs() <= 1e-12 * scale.abs(), "len {len} {name}: {got} vs {want}");
            }
            // Centered second moment against the textbook two-pass value.
            let mean = want_s / len as f64;
            let [var] = plane_sums([x.data()], |[v]| [(v - mean) * (v - mean)]);
            let want: f64 = x.data().iter().map(|&v| (v as f64 - mean) * (v as f64 - mean)).sum();
            assert!((var - want).abs() <= 1e-12 * want.abs().max(1e-300), "len {len} var: {var} vs {want}");
        }
    }

    #[test]
    fn par_collect_is_in_index_order() {
        // Thread-count invariance is `par::chunks_mut`'s, tested in
        // `revbifpn_tensor::par` under its budget lock.
        let want: Vec<usize> = (0..37).map(|i| i * i).collect();
        assert_eq!(par_collect(37, |i| i * i), want);
        assert!(par_collect(0, |i| i).is_empty());
    }
}
