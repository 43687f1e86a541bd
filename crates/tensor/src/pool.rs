//! Pooling operators: global average pooling (classification heads,
//! squeeze-excite) and windowed average/max pooling (baselines).
//!
//! All forward/backward kernels are parallelised over `(n, c)` planes with
//! [`crate::par::tiles_mut`]. Each tile owns one output plane, so the
//! writes are disjoint and the results are bitwise identical for any thread
//! count. [`max_pool_backward`] is the one exception: it scatters through a
//! caller-supplied argmax table, so it stays sequential rather than trust
//! that the table's indices are plane-disjoint.

use crate::par::{tiles_mut, Runs};
use crate::shape::{Shape, ShapeError};
use crate::tensor::Tensor;

/// Global average pool: `[n, c, h, w] -> [n, c, 1, 1]`.
pub fn global_avg_pool(x: &Tensor) -> Tensor {
    let xs = x.shape();
    let mut out = Tensor::zeros(Shape::new(xs.n, xs.c, 1, 1));
    let hw = xs.hw();
    let inv = 1.0 / hw as f32;
    let xd = x.data();
    tiles_mut(xs.n * xs.c, Runs::new(out.data_mut(), 1), |p, o| {
        let s: f32 = xd[p * hw..(p + 1) * hw].iter().sum();
        o[0] = s * inv;
    });
    out
}

/// Adjoint of [`global_avg_pool`]: broadcasts `dy / (h*w)` over space.
pub fn global_avg_pool_backward(dy: &Tensor, in_shape: Shape) -> Tensor {
    assert_eq!(dy.shape(), Shape::new(in_shape.n, in_shape.c, 1, 1), "dy must be [n,c,1,1]");
    let mut dx = Tensor::zeros(in_shape);
    let hw = in_shape.hw();
    let inv = 1.0 / hw as f32;
    let dyd = dy.data();
    tiles_mut(in_shape.n * in_shape.c, Runs::new(dx.data_mut(), hw), |p, plane| {
        let g = dyd[p] * inv;
        for v in plane {
            *v = g;
        }
    });
    dx
}

/// Windowed max pool with stride == window (non-overlapping).
///
/// Returns the pooled tensor and the flat argmax indices (into `x.data()`)
/// needed by [`max_pool_backward`].
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn max_pool(x: &Tensor, k: usize) -> (Tensor, Vec<usize>) {
    try_max_pool(x, k).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`max_pool`]: a zero window comes back as
/// [`ShapeError::ZeroWindow`] instead of a panic.
///
/// # Errors
///
/// Returns an error if `k == 0`.
pub fn try_max_pool(x: &Tensor, k: usize) -> Result<(Tensor, Vec<usize>), ShapeError> {
    if k == 0 {
        return Err(ShapeError::ZeroWindow { what: "max_pool" });
    }
    let xs = x.shape();
    let (oh, ow) = (xs.h / k, xs.w / k);
    let os = xs.with_hw(oh, ow);
    let mut out = Tensor::zeros(os);
    let mut arg = vec![0usize; os.numel()];
    let ohw = oh * ow;
    let xd = x.data();
    tiles_mut(xs.n * xs.c, (Runs::new(out.data_mut(), ohw), Runs::new(&mut arg, ohw)), |p, (oplane, aplane)| {
        let xbase = p * xs.hw();
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0;
                for ky in 0..k {
                    for kx in 0..k {
                        let idx = xbase + (oy * k + ky) * xs.w + ox * k + kx;
                        let v = xd[idx];
                        if v > best {
                            best = v;
                            best_idx = idx;
                        }
                    }
                }
                oplane[oy * ow + ox] = best;
                aplane[oy * ow + ox] = best_idx;
            }
        }
    });
    Ok((out, arg))
}

/// Adjoint of [`max_pool`].
pub fn max_pool_backward(dy: &Tensor, arg: &[usize], in_shape: Shape) -> Tensor {
    assert_eq!(dy.shape().numel(), arg.len(), "argmax table size mismatch");
    let mut dx = Tensor::zeros(in_shape);
    // Sequential: `arg` is caller-supplied, so nothing guarantees its entries
    // are disjoint across planes and a parallel scatter could race.
    for (o, &idx) in arg.iter().enumerate() {
        dx.data_mut()[idx] += dy.data()[o];
    }
    dx
}

/// Windowed average pool with stride == window (non-overlapping).
pub fn avg_pool(x: &Tensor, k: usize) -> Tensor {
    try_avg_pool(x, k).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`avg_pool`].
///
/// # Errors
///
/// Returns [`ShapeError::ZeroWindow`] if `k == 0`.
pub fn try_avg_pool(x: &Tensor, k: usize) -> Result<Tensor, ShapeError> {
    if k == 0 {
        return Err(ShapeError::ZeroWindow { what: "avg_pool" });
    }
    let xs = x.shape();
    let (oh, ow) = (xs.h / k, xs.w / k);
    let os = xs.with_hw(oh, ow);
    let mut out = Tensor::zeros(os);
    let inv = 1.0 / (k * k) as f32;
    let ohw = oh * ow;
    let xd = x.data();
    tiles_mut(xs.n * xs.c, Runs::new(out.data_mut(), ohw), |p, oplane| {
        let xbase = p * xs.hw();
        for oy in 0..oh {
            for ox in 0..ow {
                let mut s = 0.0;
                for ky in 0..k {
                    for kx in 0..k {
                        s += xd[xbase + (oy * k + ky) * xs.w + ox * k + kx];
                    }
                }
                oplane[oy * ow + ox] = s * inv;
            }
        }
    });
    Ok(out)
}

/// Adjoint of [`avg_pool`].
pub fn avg_pool_backward(dy: &Tensor, k: usize, in_shape: Shape) -> Tensor {
    let mut dx = Tensor::zeros(in_shape);
    let os = dy.shape();
    let inv = 1.0 / (k * k) as f32;
    let ihw = in_shape.hw();
    let ohw = os.hw();
    let dyd = dy.data();
    tiles_mut(os.n * os.c, Runs::new(dx.data_mut(), ihw), |p, dxplane| {
        for oy in 0..os.h {
            for ox in 0..os.w {
                let g = dyd[p * ohw + oy * os.w + ox] * inv;
                for ky in 0..k {
                    for kx in 0..k {
                        dxplane[(oy * k + ky) * in_shape.w + ox * k + kx] += g;
                    }
                }
            }
        }
    });
    dx
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gap_means_channels() {
        let x = Tensor::from_vec(Shape::new(1, 2, 1, 2), vec![1.0, 3.0, 10.0, 20.0]).unwrap();
        let y = global_avg_pool(&x);
        assert_eq!(y.data(), &[2.0, 15.0]);
    }

    #[test]
    fn gap_adjoint() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::randn(Shape::new(2, 3, 4, 4), 1.0, &mut rng);
        let m = Tensor::randn(Shape::new(2, 3, 1, 1), 1.0, &mut rng);
        let lhs = (&global_avg_pool(&x) * &m).sum();
        let rhs = (&x * &global_avg_pool_backward(&m, x.shape())).sum();
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn max_pool_picks_max_and_routes_grad() {
        let x = Tensor::from_vec(Shape::new(1, 1, 2, 2), vec![1.0, 5.0, 3.0, 2.0]).unwrap();
        let (y, arg) = max_pool(&x, 2);
        assert_eq!(y.data(), &[5.0]);
        let dy = Tensor::ones(y.shape());
        let dx = max_pool_backward(&dy, &arg, x.shape());
        assert_eq!(dx.data(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn try_pools_reject_zero_window() {
        let x = Tensor::ones(Shape::new(1, 1, 4, 4));
        assert_eq!(try_max_pool(&x, 0).unwrap_err(), ShapeError::ZeroWindow { what: "max_pool" });
        assert_eq!(try_avg_pool(&x, 0).unwrap_err(), ShapeError::ZeroWindow { what: "avg_pool" });
        assert!(try_max_pool(&x, 2).is_ok());
        assert!(try_avg_pool(&x, 2).is_ok());
    }

    #[test]
    fn avg_pool_and_adjoint() {
        let x = Tensor::from_vec(Shape::new(1, 1, 2, 2), vec![1.0, 3.0, 5.0, 7.0]).unwrap();
        let y = avg_pool(&x, 2);
        assert_eq!(y.data(), &[4.0]);
        let mut rng = StdRng::seed_from_u64(1);
        let x2 = Tensor::randn(Shape::new(1, 2, 4, 4), 1.0, &mut rng);
        let m = Tensor::randn(Shape::new(1, 2, 2, 2), 1.0, &mut rng);
        let lhs = (&avg_pool(&x2, 2) * &m).sum();
        let rhs = (&x2 * &avg_pool_backward(&m, 2, x2.shape())).sum();
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn pooling_is_thread_count_invariant() {
        let _g = crate::par::tests_budget_lock();
        let mut rng = StdRng::seed_from_u64(7);
        let x = Tensor::randn(Shape::new(3, 8, 12, 12), 1.0, &mut rng);
        let dy = Tensor::randn(Shape::new(3, 8, 6, 6), 1.0, &mut rng);

        crate::par::set_max_threads(1);
        let gap1 = global_avg_pool(&x);
        let (mx1, arg1) = max_pool(&x, 2);
        let av1 = avg_pool(&x, 2);
        let avb1 = avg_pool_backward(&dy, 2, x.shape());

        crate::par::set_max_threads(8);
        let gap8 = global_avg_pool(&x);
        let (mx8, arg8) = max_pool(&x, 2);
        let av8 = avg_pool(&x, 2);
        let avb8 = avg_pool_backward(&dy, 2, x.shape());
        crate::par::set_max_threads(0);

        assert_eq!(gap1, gap8);
        assert_eq!(mx1, mx8);
        assert_eq!(arg1, arg8);
        assert_eq!(av1, av8);
        assert_eq!(avb1, avb8);
    }
}
