//! SpaceToDepth / DepthToSpace: the invertible, parameter-free rearrangement
//! used as RevBiFPN's stem (Ridnik et al. 2021; Shi et al. 2016).
//!
//! `space_to_depth` with block `b` maps `[n, c, h, w]` to
//! `[n, c*b*b, h/b, w/b]`; each output channel group holds one `(dy, dx)`
//! phase of the input. The transform is a bijection, so its inverse
//! (`depth_to_space`) is also its gradient adjoint.

use crate::dw_plane::{run_lanes, Deal};
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Output shape of [`space_to_depth`].
///
/// # Panics
///
/// Panics if `b == 0` or the spatial dims are not divisible by `b`.
pub fn space_to_depth_shape(x: Shape, b: usize) -> Shape {
    assert!(b > 0, "block size must be positive");
    assert!(
        x.h.is_multiple_of(b) && x.w.is_multiple_of(b),
        "spatial dims {x} must be divisible by block {b}"
    );
    Shape::new(x.n, x.c * b * b, x.h / b, x.w / b)
}

/// Rearranges spatial blocks into channels.
///
/// Channel ordering: output channel `c_out = (c_in * b + dy) * b + dx`, i.e.
/// all phases of input channel 0 first, then channel 1, etc. One serial
/// pass: input row `oy * b + dy` of channel `c` is dealt out to the `b`
/// output planes `(c * b + dy) * b + dx` at row `oy`, with the depthwise
/// image's vector deal where the row is whole blocks of `8 b` floats.
///
/// # Panics
///
/// See [`space_to_depth_shape`].
pub fn space_to_depth(x: &Tensor, b: usize) -> Tensor {
    let xs = x.shape();
    let os = space_to_depth_shape(xs, b);
    let mut out = Tensor::zeros(os);
    let (ohw, ow) = (os.hw(), os.w);
    let dst = out.data_mut();
    for (r, row) in x.data().chunks_exact(xs.w).enumerate() {
        // Row `r` is row `oy * b + dy` of plane `p` (sample and channel).
        let (p, y) = (r / xs.h, r % xs.h);
        let at = ((p * b + y % b) * b * os.h + y / b) * ow;
        run_lanes(true, Deal { src: row, sw: b, phase_len: ohw, img: &mut dst[at..] });
    }
    out
}

/// Inverse of [`space_to_depth`] (also its gradient adjoint, since the map
/// is an orthonormal permutation): output row `oy * b + dy` of channel `c`
/// interleaves row `oy` of planes `(c * b + dy) * b + dx`.
///
/// # Panics
///
/// Panics if channels are not divisible by `b*b`.
pub fn depth_to_space(y: &Tensor, b: usize) -> Tensor {
    let ys = y.shape();
    assert!(b > 0, "block size must be positive");
    assert_eq!(ys.c % (b * b), 0, "channels must be divisible by block^2");
    let xs = Shape::new(ys.n, ys.c / (b * b), ys.h * b, ys.w * b);
    let mut out = Tensor::zeros(xs);
    let (yd, yhw) = (y.data(), ys.hw());
    for (r, row) in out.data_mut().chunks_exact_mut(xs.w).enumerate() {
        let (p, oy) = (r / xs.h, r % xs.h);
        let at = ((p * b + oy % b) * b * ys.h + oy / b) * ys.w;
        for (dx, dst) in (0..b).map(|dx| (dx, at + dx * yhw)) {
            for (o, v) in row[dx..].iter_mut().step_by(b).zip(&yd[dst..dst + ys.w]) {
                *o = *v;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shape_math() {
        let s = space_to_depth_shape(Shape::new(2, 3, 8, 8), 4);
        assert_eq!(s, Shape::new(2, 48, 2, 2));
    }

    #[test]
    fn known_values_b2() {
        // 1 channel, 2x2 image -> 4 channels of 1x1.
        let x = Tensor::from_vec(Shape::new(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = space_to_depth(&x, 2);
        assert_eq!(y.shape(), Shape::new(1, 4, 1, 1));
        // Phase order: (dy=0,dx=0), (0,1), (1,0), (1,1)
        assert_eq!(y.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn roundtrip_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        for &b in &[2usize, 3, 4] {
            let x = Tensor::randn(Shape::new(2, 3, 12, 12), 1.0, &mut rng);
            let y = space_to_depth(&x, b);
            let back = depth_to_space(&y, b);
            assert_eq!(back, x, "b={b}");
        }
    }

    #[test]
    fn space_to_depth_is_the_index_formula() {
        // Rows of whole `8 b`-float blocks take the vector deal (the 224²
        // stem at b = 4), the others the scalar one; the inverse undoes both.
        let mut rng = StdRng::seed_from_u64(2);
        for (b, h, w) in [(4, 8, 224), (2, 4, 32), (8, 8, 64), (4, 8, 40), (3, 6, 48)] {
            let x = Tensor::randn(Shape::new(2, 3, h, w), 1.0, &mut rng);
            let y = space_to_depth(&x, b);
            for (n, c, dy, dx) in (0..2).flat_map(|n| (0..3).flat_map(move |c| (0..b * b).map(move |p| (n, c, p / b, p % b)))) {
                for (oy, ox) in (0..h / b).flat_map(|oy| (0..w / b).map(move |ox| (oy, ox))) {
                    assert_eq!(y.at(n, (c * b + dy) * b + dx, oy, ox), x.at(n, c, oy * b + dy, ox * b + dx), "b={b} {h}x{w}");
                }
            }
            assert_eq!(depth_to_space(&y, b), x, "b={b} {h}x{w}");
        }
    }

    #[test]
    fn preserves_energy() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::randn(Shape::new(1, 3, 8, 8), 1.0, &mut rng);
        let y = space_to_depth(&x, 4);
        assert!((x.sq_sum() - y.sq_sum()).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn indivisible_spatial_panics() {
        let x = Tensor::zeros(Shape::new(1, 1, 7, 8));
        let _ = space_to_depth(&x, 2);
    }
}
