//! Spatial resizing: bilinear and nearest-neighbour upsampling with exact
//! adjoints. RevBiFPN upsamples features by powers of two inside RevSilos
//! ("lu" = bilinear; the HRNet-style "su" ablation uses nearest mode).
//!
//! Per-axis interpolation weights are precomputed once, then the work is
//! parallelised over `(n, c)` planes with [`crate::par::tiles_mut`].
//! Each tile reads one input plane and writes one disjoint output plane, so
//! results are bitwise identical for any thread count.

use crate::dw_plane::{run_lanes, LaneKernel, Lanes};
use crate::par::{tiles_mut, Runs};
use crate::scratch;
use std::mem::MaybeUninit;
use crate::shape::{Shape, ShapeError};
use crate::tensor::Tensor;

/// Interpolation mode for [`resize`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResizeMode {
    /// Bilinear interpolation, half-pixel centres (`align_corners=false`).
    Bilinear,
    /// Nearest neighbour.
    Nearest,
}

#[inline]
fn src_coord(dst: usize, scale: f64) -> f64 {
    // Half-pixel-centre convention (PyTorch align_corners=False).
    (dst as f64 + 0.5) * scale - 0.5
}

/// Nearest-neighbour source index per output index along one axis.
fn nearest_axis(out_len: usize, scale: f64, in_len: usize) -> Vec<usize> {
    (0..out_len).map(|o| ((o as f64 * scale).floor() as usize).min(in_len - 1)).collect()
}

/// Bilinear `(lo, hi, frac)` per output index along one axis.
fn bilinear_axis(out_len: usize, scale: f64, in_len: usize) -> Vec<(usize, usize, f32)> {
    (0..out_len)
        .map(|o| {
            let f = src_coord(o, scale).clamp(0.0, (in_len - 1) as f64);
            let lo = f.floor() as usize;
            let hi = (lo + 1).min(in_len - 1);
            (lo, hi, (f - lo as f64) as f32)
        })
        .collect()
}

/// Resizes `x` to spatial size `(oh, ow)`.
///
/// # Panics
///
/// Panics if `oh == 0 || ow == 0`. Untrusted-input paths should prefer
/// [`try_resize`], which reports the same violation as a [`ShapeError`].
pub fn resize(x: &Tensor, oh: usize, ow: usize, mode: ResizeMode) -> Tensor {
    try_resize(x, oh, ow, mode).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`resize`]: returns [`ShapeError::ZeroOutputSize`] instead of
/// panicking when the requested output has a zero extent.
///
/// # Errors
///
/// Returns an error if `oh == 0 || ow == 0`.
pub fn try_resize(x: &Tensor, oh: usize, ow: usize, mode: ResizeMode) -> Result<Tensor, ShapeError> {
    if oh == 0 || ow == 0 {
        return Err(ShapeError::ZeroOutputSize { oh, ow });
    }
    let xs = x.shape();
    if (oh, ow) == (xs.h, xs.w) {
        return Ok(x.clone());
    }
    let os = xs.with_hw(oh, ow);
    let sy = xs.h as f64 / oh as f64;
    let sx = xs.w as f64 / ow as f64;
    let ihw = xs.hw();
    let ohw = oh * ow;
    let xd = x.data();
    // Every output element is written exactly once below, so the output
    // skips the zero fill.
    let mut out: Vec<f32> = Vec::with_capacity(os.numel());
    let runs = Runs::new(&mut out.spare_capacity_mut()[..os.numel()], ohw);
    match mode {
        ResizeMode::Nearest => {
            let iy = nearest_axis(oh, sy, xs.h);
            let ix = nearest_axis(ow, sx, xs.w);
            tiles_mut(xs.n * xs.c, runs, |p, oplane| {
                let xplane = &xd[p * ihw..(p + 1) * ihw];
                for (orow, &y) in oplane.chunks_exact_mut(ow).zip(&iy) {
                    for (o, &x) in orow.iter_mut().zip(&ix) {
                        o.write(xplane[y * xs.w + x]);
                    }
                }
            });
        }
        ResizeMode::Bilinear => {
            let wy = bilinear_axis(oh, sy, xs.h);
            let wx = bilinear_axis(ow, sx, xs.w);
            let chunks = column_chunks(&wx);
            tiles_mut(xs.n * xs.c, runs, |p, out| {
                let xplane = &xd[p * ihw..(p + 1) * ihw];
                let mut rows = scratch::take(xs.h * ow + xs.w + 8);
                let (wx, wy, chunks, rows) = (&wx, &wy, &chunks[..], &mut rows[..]);
                run_lanes(true, BilinearPlane { xplane, w: xs.w, wx, wy, chunks, rows, out });
            });
        }
    }
    // SAFETY: the tiles cover every plane, and both arms write every
    // element of the planes they are given.
    unsafe { out.set_len(os.numel()) };
    Ok(Tensor::from_vec(os, out).expect("resize output has its shape's length"))
}

/// Eight neighbouring output columns of the horizontal pass, `ox .. ox + 8`,
/// whose sources lie in the eight input columns `base ..`: lane `l` blends
/// columns `base + x0[l]` and `base + x1[l]` by `tx[l]`. An upsample by
/// `f >= 2` covers every row this way (the last chunk may overlap the one
/// before it); a row with a wider reach keeps the scalar pass.
struct Chunk {
    ox: usize,
    base: usize,
    x0: [u32; 8],
    x1: [u32; 8],
    tx: [f32; 8],
}

/// The chunks of one output row, or none when a row is narrower than eight
/// outputs or some chunk reaches past eight input columns.
fn column_chunks(wx: &[(usize, usize, f32)]) -> Vec<Chunk> {
    let ow = wx.len();
    if ow < 8 {
        return Vec::new();
    }
    let starts = (0..ow / 8).map(|c| 8 * c).chain((!ow.is_multiple_of(8)).then_some(ow - 8));
    let chunks: Option<Vec<Chunk>> = starts
        .map(|ox| {
            let base = wx[ox].0;
            let cols = &wx[ox..ox + 8];
            cols.iter().all(|&(x0, x1, _)| x0 >= base && x1 < base + 8).then(|| Chunk {
                ox,
                base,
                x0: std::array::from_fn(|l| (cols[l].0 - base) as u32),
                x1: std::array::from_fn(|l| (cols[l].1 - base) as u32),
                tx: std::array::from_fn(|l| cols[l].2),
            })
        })
        .collect();
    chunks.unwrap_or_default()
}

/// One plane of the bilinear resize for [`run_lanes`]: the horizontal pass
/// into `rows` (`h x ow`, then a staging row of `w + 8` floats whose tail
/// stays zero), then each output row blends two of them,
/// `top + ty * (bot - top)`. Both passes evaluate the four-tap formula's
/// expressions, eight lanes at a time.
struct BilinearPlane<'a> {
    xplane: &'a [f32],
    w: usize,
    wx: &'a [(usize, usize, f32)],
    wy: &'a [(usize, usize, f32)],
    chunks: &'a [Chunk],
    rows: &'a mut [f32],
    out: &'a mut [MaybeUninit<f32>],
}

// SAFETY: every raw load and store below is of eight floats inside a slice
// sliced to them, or at `at <= ow - 8` of a row `ow` long.
unsafe impl LaneKernel for BilinearPlane<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<V: Lanes>(self) {
        let BilinearPlane { xplane, w, wx, wy, chunks, rows, out } = self;
        let ow = wx.len();
        let (rows, stage) = rows.split_at_mut(xplane.len() / w * ow);
        for (xrow, hrow) in xplane.chunks_exact(w).zip(rows.chunks_exact_mut(ow)) {
            if chunks.is_empty() {
                for (h, &(x0, x1, tx)) in hrow.iter_mut().zip(wx) {
                    *h = xrow[x0] + tx * (xrow[x1] - xrow[x0]);
                }
                continue;
            }
            // Chunks that reach past the row read a zero-tailed copy of it.
            if chunks.last().is_some_and(|c| c.base + 8 > w) {
                stage.iter_mut().zip(xrow).for_each(|(s, x)| *s = *x);
            }
            for c in chunks {
                let src = if c.base + 8 <= w { &xrow[c.base..c.base + 8] } else { &stage[c.base..c.base + 8] };
                let src = V::load(src.as_ptr());
                let a = src.permute(V::load(c.x0.as_ptr().cast()));
                let b = src.permute(V::load(c.x1.as_ptr().cast()));
                let h = a.add(V::load(c.tx.as_ptr()).mul(b.sub(a)));
                h.store(hrow[c.ox..c.ox + 8].as_mut_ptr());
            }
        }
        for (orow, &(y0, y1, ty)) in out.chunks_exact_mut(ow).zip(wy) {
            let (top, bot) = (&rows[y0 * ow..(y0 + 1) * ow], &rows[y1 * ow..(y1 + 1) * ow]);
            if ow < 8 {
                for ((o, &t), &b) in orow.iter_mut().zip(top).zip(bot) {
                    o.write(t + ty * (b - t));
                }
                continue;
            }
            let (tyv, t, b, o) = (V::splat(ty), top.as_ptr(), bot.as_ptr(), orow.as_mut_ptr().cast::<f32>());
            // Eight columns at a time; a ragged end redoes the last eight.
            let mut j = 0;
            while j < ow {
                let at = j.min(ow - 8);
                let (t, b) = (V::load(t.add(at)), V::load(b.add(at)));
                t.add(tyv.mul(b.sub(t))).store(o.add(at));
                j += 8;
            }
        }
    }
}

/// Adjoint of [`resize`]: scatters output gradients back to input positions.
///
/// `in_shape` is the shape of the original (pre-resize) input.
///
/// # Panics
///
/// Panics if `dy`'s batch/channel dims disagree with `in_shape`. See
/// [`try_resize_backward`] for the fallible variant.
pub fn resize_backward(dy: &Tensor, in_shape: Shape, mode: ResizeMode) -> Tensor {
    try_resize_backward(dy, in_shape, mode).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`resize_backward`].
///
/// # Errors
///
/// Returns [`ShapeError::DimMismatch`] if `dy`'s batch/channel dims disagree
/// with `in_shape`.
pub fn try_resize_backward(dy: &Tensor, in_shape: Shape, mode: ResizeMode) -> Result<Tensor, ShapeError> {
    let os = dy.shape();
    if (os.n, os.c) != (in_shape.n, in_shape.c) {
        return Err(ShapeError::DimMismatch {
            what: "resize_backward batch/channel dims",
            expected: in_shape,
            got: os,
        });
    }
    if (os.h, os.w) == (in_shape.h, in_shape.w) {
        return Ok(dy.clone());
    }
    let mut dx = Tensor::zeros(in_shape);
    let sy = in_shape.h as f64 / os.h as f64;
    let sx = in_shape.w as f64 / os.w as f64;
    let ihw = in_shape.hw();
    let ohw = os.hw();
    let dyd = dy.data();
    match mode {
        ResizeMode::Nearest => {
            let iy = nearest_axis(os.h, sy, in_shape.h);
            let ix = nearest_axis(os.w, sx, in_shape.w);
            tiles_mut(os.n * os.c, Runs::new(dx.data_mut(), ihw), |p, dxplane| {
                let dyplane = &dyd[p * ohw..(p + 1) * ohw];
                for oy in 0..os.h {
                    let row = iy[oy] * in_shape.w;
                    for ox in 0..os.w {
                        dxplane[row + ix[ox]] += dyplane[oy * os.w + ox];
                    }
                }
            });
        }
        ResizeMode::Bilinear => {
            let wy = bilinear_axis(os.h, sy, in_shape.h);
            let wx = bilinear_axis(os.w, sx, in_shape.w);
            tiles_mut(os.n * os.c, Runs::new(dx.data_mut(), ihw), |p, dxplane| {
                let dyplane = &dyd[p * ohw..(p + 1) * ohw];
                for (oy, &(y0, y1, ty)) in wy.iter().enumerate() {
                    let (r0, r1) = (y0 * in_shape.w, y1 * in_shape.w);
                    for (ox, &(x0, x1, tx)) in wx.iter().enumerate() {
                        let g = dyplane[oy * os.w + ox];
                        dxplane[r0 + x0] += g * (1.0 - ty) * (1.0 - tx);
                        dxplane[r0 + x1] += g * (1.0 - ty) * tx;
                        dxplane[r1 + x0] += g * ty * (1.0 - tx);
                        dxplane[r1 + x1] += g * ty * tx;
                    }
                }
            });
        }
    }
    Ok(dx)
}

/// Upsamples by an integer factor.
pub fn upsample(x: &Tensor, factor: usize, mode: ResizeMode) -> Tensor {
    let xs = x.shape();
    resize(x, xs.h * factor, xs.w * factor, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn nearest_2x_repeats_pixels() {
        let x = Tensor::from_vec(Shape::new(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = upsample(&x, 2, ResizeMode::Nearest);
        assert_eq!(y.shape(), Shape::new(1, 1, 4, 4));
        assert_eq!(y.at(0, 0, 0, 0), 1.0);
        assert_eq!(y.at(0, 0, 0, 1), 1.0);
        assert_eq!(y.at(0, 0, 1, 1), 1.0);
        assert_eq!(y.at(0, 0, 3, 3), 4.0);
    }

    #[test]
    fn bilinear_preserves_constants() {
        let x = Tensor::full(Shape::new(1, 2, 3, 3), 7.5);
        let y = upsample(&x, 2, ResizeMode::Bilinear);
        assert!(y.data().iter().all(|&v| (v - 7.5).abs() < 1e-6));
    }

    #[test]
    fn bilinear_2x_interpolates_midpoints() {
        let x = Tensor::from_vec(Shape::new(1, 1, 1, 2), vec![0.0, 4.0]).unwrap();
        let y = resize(&x, 1, 4, ResizeMode::Bilinear);
        // Half-pixel centres: coords map to -0.25, 0.25, 0.75, 1.25 -> clamped
        assert!((y.at(0, 0, 0, 0) - 0.0).abs() < 1e-6);
        assert!((y.at(0, 0, 0, 1) - 1.0).abs() < 1e-6);
        assert!((y.at(0, 0, 0, 2) - 3.0).abs() < 1e-6);
        assert!((y.at(0, 0, 0, 3) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn bilinear_is_bitwise_the_four_tap_formula() {
        // The two-pass kernel evaluates `top + ty * (bot - top)` with
        // `top`/`bot` the horizontal lerps of rows `y0`/`y1` — the same
        // expressions, per value, as gathering four taps per output pixel.
        let mut rng = StdRng::seed_from_u64(4);
        let cases = [(4, 4, 8, 8), (7, 5, 14, 10), (5, 9, 15, 27), (3, 3, 12, 12), (6, 7, 6, 21), (8, 8, 4, 4), (9, 5, 4, 3), (1, 6, 8, 48)];
        // The silo up edges: factors 2, 4 and 8 at plane widths 7, 14, 28.
        let factors = [(7, 7, 14, 14), (5, 7, 20, 28), (3, 7, 24, 56), (14, 14, 28, 28), (6, 14, 24, 56), (4, 14, 32, 112), (28, 28, 56, 56), (9, 28, 36, 112), (2, 28, 16, 224)];
        let cases = cases.into_iter().chain(factors);
        for (h, w, oh, ow) in cases {
            let x = Tensor::randn(Shape::new(2, 3, h, w), 1.0, &mut rng);
            let y = resize(&x, oh, ow, ResizeMode::Bilinear);
            let wy = bilinear_axis(oh, h as f64 / oh as f64, h);
            let wx = bilinear_axis(ow, w as f64 / ow as f64, w);
            for n in 0..2 {
                for c in 0..3 {
                    for (oy, &(y0, y1, ty)) in wy.iter().enumerate() {
                        for (ox, &(x0, x1, tx)) in wx.iter().enumerate() {
                            let top = x.at(n, c, y0, x0) + tx * (x.at(n, c, y0, x1) - x.at(n, c, y0, x0));
                            let bot = x.at(n, c, y1, x0) + tx * (x.at(n, c, y1, x1) - x.at(n, c, y1, x0));
                            let want = top + ty * (bot - top);
                            assert_eq!(y.at(n, c, oy, ox).to_bits(), want.to_bits(), "{h}x{w} -> {oh}x{ow} at ({oy},{ox})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn bilinear_horizontal_pass_twins_agree() {
        // The [f32; 8] twin against AVX2 on the horizontal pass, the vector
        // one (factors 2, 4, 8; widths 7 to 28, ragged output widths) and
        // the scalar one (a downsample, whose chunks reach too far).
        if !crate::dw_plane::cpu_has_avx2() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(6);
        for (h, w, ow) in [(7, 7, 56), (14, 14, 28), (5, 28, 56), (3, 7, 14), (3, 20, 10), (2, 9, 18)] {
            let x = Tensor::randn(Shape::new(1, 1, h, w), 1.0, &mut rng);
            let wx = bilinear_axis(ow, w as f64 / ow as f64, w);
            let chunks = column_chunks(&wx);
            assert_eq!(chunks.is_empty(), ow < w, "{w} -> {ow}: vector horizontal pass");
            let plane = |avx2: bool| {
                let mut rows = vec![0.0f32; h * ow + w + 8];
                let (wx, chunks, xplane) = (&wx[..], &chunks[..], x.data());
                run_lanes(avx2, BilinearPlane { xplane, w, wx, wy: &[], chunks, rows: &mut rows, out: &mut [] });
                rows.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
            };
            assert_eq!(plane(false), plane(true), "{h}x{w} -> {ow} columns: [f32; 8] twin vs avx2");
        }
    }

    #[test]
    fn identity_resize_is_clone() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::randn(Shape::new(1, 2, 4, 4), 1.0, &mut rng);
        let y = resize(&x, 4, 4, ResizeMode::Bilinear);
        assert_eq!(x, y);
    }

    /// The adjoint property <resize(x), m> == <x, resize_backward(m)> must
    /// hold exactly for a linear operator.
    #[test]
    fn adjoint_property_bilinear() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::randn(Shape::new(2, 3, 5, 4), 1.0, &mut rng);
        let m = Tensor::randn(Shape::new(2, 3, 10, 8), 1.0, &mut rng);
        let y = resize(&x, 10, 8, ResizeMode::Bilinear);
        let lhs = (&y * &m).sum();
        let dx = resize_backward(&m, x.shape(), ResizeMode::Bilinear);
        let rhs = (&x * &dx).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn adjoint_property_nearest() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::randn(Shape::new(1, 2, 3, 3), 1.0, &mut rng);
        let m = Tensor::randn(Shape::new(1, 2, 6, 6), 1.0, &mut rng);
        let y = upsample(&x, 2, ResizeMode::Nearest);
        let lhs = (&y * &m).sum();
        let dx = resize_backward(&m, x.shape(), ResizeMode::Nearest);
        let rhs = (&x * &dx).sum();
        assert!((lhs - rhs).abs() < 1e-3);
    }

    #[test]
    fn gradient_mass_is_preserved() {
        // Sum of dx equals sum of dy for bilinear (partition of unity).
        let dy = Tensor::ones(Shape::new(1, 1, 8, 8));
        let dx = resize_backward(&dy, Shape::new(1, 1, 4, 4), ResizeMode::Bilinear);
        assert!((dx.sum() - 64.0).abs() < 1e-3);
    }

    #[test]
    fn try_resize_rejects_zero_output() {
        let x = Tensor::ones(Shape::new(1, 1, 4, 4));
        assert_eq!(
            try_resize(&x, 0, 4, ResizeMode::Bilinear),
            Err(ShapeError::ZeroOutputSize { oh: 0, ow: 4 })
        );
        assert_eq!(
            try_resize(&x, 2, 0, ResizeMode::Nearest),
            Err(ShapeError::ZeroOutputSize { oh: 2, ow: 0 })
        );
        assert!(try_resize(&x, 2, 2, ResizeMode::Bilinear).is_ok());
    }

    #[test]
    fn try_resize_backward_rejects_dim_mismatch() {
        let dy = Tensor::ones(Shape::new(1, 2, 4, 4));
        let err = try_resize_backward(&dy, Shape::new(1, 3, 2, 2), ResizeMode::Bilinear);
        assert!(matches!(err, Err(ShapeError::DimMismatch { .. })));
    }

    #[test]
    fn resize_is_thread_count_invariant() {
        let _g = crate::par::tests_budget_lock();
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn(Shape::new(2, 5, 7, 9), 1.0, &mut rng);
        let dy = Tensor::randn(Shape::new(2, 5, 14, 18), 1.0, &mut rng);

        crate::par::set_max_threads(1);
        let y1 = resize(&x, 14, 18, ResizeMode::Bilinear);
        let b1 = resize_backward(&dy, x.shape(), ResizeMode::Bilinear);

        crate::par::set_max_threads(6);
        let y6 = resize(&x, 14, 18, ResizeMode::Bilinear);
        let b6 = resize_backward(&dy, x.shape(), ResizeMode::Bilinear);
        crate::par::set_max_threads(0);

        assert_eq!(y1, y6);
        assert_eq!(b1, b6);
    }
}
