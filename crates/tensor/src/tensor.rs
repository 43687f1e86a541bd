//! The dense `f32` NCHW tensor and its element-wise operations.

use crate::par::{chunks_mut, plane_groups_mut, tiles_mut, Runs};
use crate::shape::{Shape, ShapeMismatchError};
use rand::{Rng, RngExt};
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};
use std::sync::Arc;

/// A dense, contiguous, row-major `f32` tensor in NCHW layout.
///
/// All arithmetic is eager and CPU-based. Binary operations require exactly
/// matching shapes (there is no broadcasting; per-channel operations are
/// provided explicitly, e.g. [`Tensor::add_channel_bias`]).
///
/// A tensor owns its buffer until [`Tensor::share`] hands out a second
/// handle to it. Handles keep value semantics: a write through a handle that
/// is not the buffer's only one copies the buffer first.
///
/// ```
/// use revbifpn_tensor::{Shape, Tensor};
/// let a = Tensor::full(Shape::new(1, 2, 2, 2), 1.5);
/// let b = Tensor::ones(a.shape());
/// let c = &a + &b;
/// assert_eq!(c.data()[0], 2.5);
/// ```
pub struct Tensor {
    shape: Shape,
    storage: Storage,
}

/// Where a tensor's elements live. Every tensor starts `Owned`; only
/// [`Tensor::share`] makes one `Shared`, and the first write through a
/// handle makes it `Owned` again (taking the buffer back if the handle is
/// the last one, copying it otherwise).
enum Storage {
    Owned(Vec<f32>),
    Shared(Arc<Vec<f32>>),
}

/// Minimum element count before the element-wise kernels (`map`, `zip`,
/// `axpy`, ...) fan out over the worker pool; below this the dispatch
/// overhead outweighs the work. Chunking never changes values — every
/// element depends only on its own inputs — so the threshold affects speed,
/// not results.
const PAR_ELEMWISE_MIN: usize = 1 << 15;

impl Tensor {
    /// An owned tensor over `data`, whose length the caller has checked.
    fn owned(shape: Shape, data: Vec<f32>) -> Self {
        Self { shape, storage: Storage::Owned(data) }
    }

    /// A tensor of zeros.
    pub fn zeros(shape: Shape) -> Self {
        Self::owned(shape, vec![0.0; shape.numel()])
    }

    /// A tensor of ones.
    pub fn ones(shape: Shape) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: Shape, value: f32) -> Self {
        Self::owned(shape, vec![value; shape.numel()])
    }

    /// Builds a tensor from raw data.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeMismatchError`] if `data.len() != shape.numel()`.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self, ShapeMismatchError> {
        if data.len() != shape.numel() {
            return Err(ShapeMismatchError {
                expected: format!("{} elements", shape.numel()),
                got: Shape::new(1, 1, 1, data.len()),
            });
        }
        Ok(Self::owned(shape, data))
    }

    /// Builds a tensor from raw data, panicking on length mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.numel()`.
    pub fn from_vec_unchecked(shape: Shape, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), shape.numel(), "tensor data length must match shape {shape}");
        Self::owned(shape, data)
    }

    /// Samples each element i.i.d. from `N(0, std^2)` (Box–Muller).
    pub fn randn<R: Rng + ?Sized>(shape: Shape, std: f32, rng: &mut R) -> Self {
        let n = shape.numel();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            // Box–Muller transform: two uniforms -> two gaussians.
            let u1: f32 = rng.random::<f32>().max(1e-12);
            let u2: f32 = rng.random();
            let r = (-2.0 * u1.ln()).sqrt();
            let t = 2.0 * std::f32::consts::PI * u2;
            data.push(r * t.cos() * std);
            if data.len() < n {
                data.push(r * t.sin() * std);
            }
        }
        Self::owned(shape, data)
    }

    /// Samples each element i.i.d. from `U(lo, hi)`.
    pub fn uniform<R: Rng + ?Sized>(shape: Shape, lo: f32, hi: f32, rng: &mut R) -> Self {
        let data = (0..shape.numel()).map(|_| rng.random::<f32>() * (hi - lo) + lo).collect();
        Self::owned(shape, data)
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        match &self.storage {
            Storage::Owned(v) => v,
            Storage::Shared(a) => a,
        }
    }

    /// Mutable view of the underlying row-major buffer. On a shared handle
    /// it first takes the buffer back, or copies it if another handle is
    /// alive (see [`Tensor::share`]).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        if let Storage::Shared(_) = self.storage {
            self.unshare();
        }
        match &mut self.storage {
            Storage::Owned(v) => v,
            Storage::Shared(_) => unreachable!("unshare leaves the storage owned"),
        }
    }

    #[cold]
    fn unshare(&mut self) {
        if let Storage::Shared(a) = std::mem::replace(&mut self.storage, Storage::Owned(Vec::new())) {
            self.storage = Storage::Owned(Arc::unwrap_or_clone(a));
        }
    }

    /// Returns a second handle to this tensor's buffer. No element moves:
    /// the buffer keeps its address, and from here on both handles read it
    /// in place. A write through either handle while the other is alive
    /// copies the buffer into the writer first, so neither ever sees the
    /// other's writes; a write through the last handle alive takes the
    /// buffer back in place.
    ///
    /// ```
    /// use revbifpn_tensor::{Shape, Tensor};
    /// let mut a = Tensor::full(Shape::vector(4), 1.0);
    /// let at = a.data().as_ptr();
    /// let mut b = a.share();
    /// assert_eq!(b.data().as_ptr(), at);
    /// b.data_mut()[0] = 2.0; // copies: `a` is alive
    /// assert_eq!(a.data()[0], 1.0);
    /// drop(b);
    /// a.data_mut()[0] = 3.0; // the last handle writes in place
    /// assert_eq!(a.data().as_ptr(), at);
    /// ```
    pub fn share(&mut self) -> Tensor {
        let buffer = match &mut self.storage {
            Storage::Shared(a) => Arc::clone(a),
            Storage::Owned(v) => {
                let a = Arc::new(std::mem::take(v));
                self.storage = Storage::Shared(Arc::clone(&a));
                a
            }
        };
        Self { shape: self.shape, storage: Storage::Shared(buffer) }
    }

    /// `true` while another handle to this tensor's buffer is alive.
    pub fn is_shared(&self) -> bool {
        matches!(&self.storage, Storage::Shared(a) if Arc::strong_count(a) > 1)
    }

    /// Consumes the tensor and returns the underlying buffer (a copy if
    /// another handle to it is alive).
    pub fn into_vec(self) -> Vec<f32> {
        match self.storage {
            Storage::Owned(v) => v,
            Storage::Shared(a) => Arc::unwrap_or_clone(a),
        }
    }

    /// Size of the buffer in bytes.
    pub fn bytes(&self) -> usize {
        self.shape.bytes()
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Debug builds panic if a coordinate is out of range.
    #[inline]
    pub fn at(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data()[self.shape.offset(n, c, h, w)]
    }

    /// Element mutator; see [`Tensor::at`] for panics.
    #[inline]
    pub fn set(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
        let off = self.shape.offset(n, c, h, w);
        self.data_mut()[off] = v;
    }

    /// Reinterprets the buffer under a new shape with the same element count.
    ///
    /// # Panics
    ///
    /// Panics if `numel` differs.
    pub fn reshape(mut self, shape: Shape) -> Self {
        assert_eq!(
            self.shape.numel(),
            shape.numel(),
            "reshape must preserve element count ({} -> {})",
            self.shape,
            shape
        );
        self.shape = shape;
        self
    }

    /// Applies `f` element-wise, producing a new tensor.
    ///
    /// Large tensors fan the work out over the [`crate::par`] pool; each
    /// element's value depends only on its own input, so results are bitwise
    /// identical for any thread count or chunking.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Self {
        let n = self.data().len();
        if n < PAR_ELEMWISE_MIN {
            return Self::owned(self.shape, self.data().iter().map(|&x| f(x)).collect());
        }
        let mut data: Vec<f32> = Vec::with_capacity(n);
        let src = self.data();
        chunks_mut(&mut data.spare_capacity_mut()[..n], |at, out| {
            for (o, &x) in out.iter_mut().zip(&src[at..]) {
                o.write(f(x));
            }
        });
        // SAFETY: the chunks cover 0..n, and every element was written.
        unsafe { data.set_len(n) };
        Self::owned(self.shape, data)
    }

    /// Applies `f` element-wise in place (pool-parallel for large tensors,
    /// see [`Tensor::map`]).
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        let data = self.data_mut();
        if data.len() < PAR_ELEMWISE_MIN {
            for v in data {
                *v = f(*v);
            }
            return;
        }
        chunks_mut(data, |_, chunk| {
            for v in chunk {
                *v = f(*v);
            }
        });
    }

    /// Element-wise binary zip producing a new tensor (pool-parallel for
    /// large tensors, see [`Tensor::map`]).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip(&self, other: &Self, f: impl Fn(f32, f32) -> f32 + Sync) -> Self {
        assert_eq!(self.shape, other.shape, "zip requires equal shapes");
        let n = self.data().len();
        if n < PAR_ELEMWISE_MIN {
            let data = self.data().iter().zip(other.data()).map(|(&a, &b)| f(a, b)).collect();
            return Self::owned(self.shape, data);
        }
        let mut data: Vec<f32> = Vec::with_capacity(n);
        let (xa, xb) = (self.data(), other.data());
        chunks_mut(&mut data.spare_capacity_mut()[..n], |at, out| {
            for (o, (&a, &b)) in out.iter_mut().zip(xa[at..].iter().zip(&xb[at..])) {
                o.write(f(a, b));
            }
        });
        // SAFETY: the chunks cover 0..n, and every element was written.
        unsafe { data.set_len(n) };
        Self::owned(self.shape, data)
    }

    /// In-place `self += alpha * x` (pool-parallel for large tensors).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, x: &Self) {
        assert_eq!(self.shape, x.shape, "axpy requires equal shapes");
        axpy_slices(self.data_mut(), alpha, x.data());
    }

    /// In-place `self += x[:, c_off..c_off + self.c]`: adds a channel window
    /// of `x`, read where it lies, without materializing it.
    ///
    /// # Panics
    ///
    /// Panics if batch/spatial dims differ or the window leaves `x`.
    pub fn add_channels_of(&mut self, x: &Self, c_off: usize) {
        let (s, xs) = (self.shape, x.shape);
        assert_eq!((s.n, s.h, s.w), (xs.n, xs.h, xs.w), "add_channels_of requires matching batch and spatial dims");
        assert!(c_off + s.c <= xs.c, "channel window must lie inside the source");
        if s.c == xs.c {
            // The window is all of `x`: one pass, split as `add_assign` splits it.
            return axpy_slices(self.data_mut(), 1.0, x.data());
        }
        for (n, dst) in self.data_mut().chunks_exact_mut(s.chw()).enumerate() {
            let at = (n * xs.c + c_off) * s.hw();
            axpy_slices(dst, 1.0, &x.data()[at..at + s.chw()]);
        }
    }

    /// In-place `self += x`.
    pub fn add_assign(&mut self, x: &Self) {
        self.axpy(1.0, x);
    }

    /// In-place multiplication by a scalar (pool-parallel for large tensors).
    pub fn scale(&mut self, alpha: f32) {
        self.map_inplace(|v| v * alpha);
    }

    /// Returns `self * alpha` as a new tensor.
    pub fn scaled(&self, alpha: f32) -> Self {
        self.map(|x| x * alpha)
    }

    /// Sets every element to zero (reusing the allocation).
    pub fn fill_zero(&mut self) {
        self.data_mut().iter_mut().for_each(|v| *v = 0.0);
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f64 {
        self.data().iter().map(|&x| x as f64).sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f64 {
        if self.data().is_empty() {
            0.0
        } else {
            self.sum() / self.data().len() as f64
        }
    }

    /// Sum of squares of all elements.
    pub fn sq_sum(&self) -> f64 {
        self.data().iter().map(|&x| (x as f64) * (x as f64)).sum()
    }

    /// L2 norm.
    pub fn l2_norm(&self) -> f64 {
        self.sq_sum().sqrt()
    }

    /// Largest absolute element (0 for an empty tensor).
    pub fn abs_max(&self) -> f32 {
        self.data().iter().fold(0.0_f32, |m, &x| m.max(x.abs()))
    }

    /// Largest absolute difference from `other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> f32 {
        assert_eq!(self.shape, other.shape, "max_abs_diff requires equal shapes");
        self.data()
            .iter()
            .zip(other.data())
            .fold(0.0_f32, |m, (&a, &b)| m.max((a - b).abs()))
    }

    /// `true` if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data().iter().all(|x| x.is_finite())
    }

    /// Number of non-finite (NaN or infinite) elements.
    pub fn count_nonfinite(&self) -> usize {
        self.data().iter().filter(|x| !x.is_finite()).count()
    }

    /// Asserts that every element is finite.
    ///
    /// # Panics
    ///
    /// Panics with `tag`, the non-finite count, and the tensor shape when any
    /// element is NaN or infinite, so tripwires can report *which* tensor in
    /// a pipeline went bad.
    pub fn assert_finite(&self, tag: &str) {
        let bad = self.count_nonfinite();
        assert!(
            bad == 0,
            "{tag}: {bad} non-finite element(s) out of {} (shape {})",
            self.data().len(),
            self.shape
        );
    }

    /// Adds a per-channel bias `[1, c, 1, 1]` to every spatial/batch position.
    ///
    /// # Panics
    ///
    /// Panics if `bias.shape().c != self.shape().c` or bias is not a vector.
    pub fn add_channel_bias(&mut self, bias: &Self) {
        assert_eq!(bias.shape, Shape::vector(self.shape.c), "bias must be a [1,c,1,1] vector");
        let hw = self.shape.hw();
        let c = self.shape.c;
        let bd = bias.data();
        tiles_mut(self.shape.n * c, Runs::new(self.data_mut(), hw), |p, plane| {
            let b = bd[p % c];
            for v in plane {
                *v += b;
            }
        });
    }

    /// Multiplies each channel by a per-channel factor `[1, c, 1, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not a `[1,c,1,1]` vector matching `self`'s channels.
    pub fn mul_channel(&mut self, scale: &Self) {
        assert_eq!(scale.shape, Shape::vector(self.shape.c), "scale must be a [1,c,1,1] vector");
        let hw = self.shape.hw();
        let c = self.shape.c;
        let sd = scale.data();
        tiles_mut(self.shape.n * c, Runs::new(self.data_mut(), hw), |p, plane| {
            let s = sd[p % c];
            for v in plane {
                *v *= s;
            }
        });
    }

    /// `y[n, c, :, :] = self[n, c, :, :] * gate[n, c]` as a new tensor, each
    /// plane read and written once (a squeeze-excite gate applied without a
    /// clone-then-scale round trip).
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not `[n, c, 1, 1]` for `self`'s `n` and `c`.
    pub fn mul_planes(&self, gate: &Self) -> Self {
        assert_eq!(gate.shape, Shape::new(self.shape.n, self.shape.c, 1, 1), "gate must hold one factor per plane");
        let [y] = Self::map_planes([self], |p| {
            let g = gate.data()[p];
            move |[x]: [f32; 1]| [x * g]
        });
        y
    }

    /// Builds `O` tensors of the inputs' common shape in one plane-parallel
    /// pass: `per_plane(p)` returns the element function of `(n, c)` plane
    /// `p = n * c_count + c`, which maps the `I` input values at a position
    /// to the `O` output values there. Every plane is read and written once,
    /// into fresh (never zero-filled) memory — the shape of a normalisation,
    /// a gate or an input-gradient pass that would otherwise clone and then
    /// rewrite in place. Each element depends only on its own inputs, so the
    /// result is bitwise identical for any thread count.
    ///
    /// ```
    /// use revbifpn_tensor::{Shape, Tensor};
    /// let x = Tensor::from_vec(Shape::new(1, 2, 1, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
    /// let scale = [10.0, 100.0];
    /// let [y, neg] = Tensor::map_planes([&x], |p| move |[v]: [f32; 1]| [v * scale[p], -v]);
    /// assert_eq!(y.data(), &[10.0, 20.0, 300.0, 400.0]);
    /// assert_eq!(neg.data(), &[-1.0, -2.0, -3.0, -4.0]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `I == 0` or the input shapes differ.
    #[doc(hidden)] // every caller is in this workspace (BatchNorm, `mul_planes`)
    pub fn map_planes<const I: usize, const O: usize, G>(
        inputs: [&Self; I],
        per_plane: impl Fn(usize) -> G + Sync,
    ) -> [Self; O]
    where
        G: Fn([f32; I]) -> [f32; O],
    {
        let shape = inputs[0].shape;
        assert!(inputs.iter().all(|t| t.shape == shape), "map_planes requires equal shapes");
        let (planes, hw) = (shape.n * shape.c, shape.hw());
        let mut outs: [Vec<f32>; O] = std::array::from_fn(|_| Vec::with_capacity(planes * hw));
        let runs = outs.each_mut().map(|v| Runs::new(&mut v.spare_capacity_mut()[..planes * hw], hw));
        // Small planes go several to a tile, so a 3x3 map does not pay one
        // tile hand-out per nine floats.
        plane_groups_mut(planes, hw, runs, |group, mut runs| {
            for (k, p) in group.enumerate() {
                let f = per_plane(p);
                let src: [&[f32]; I] = std::array::from_fn(|i| &inputs[i].data()[p * hw..(p + 1) * hw]);
                let mut dst = runs.each_mut().map(|r| &mut r[k * hw..(k + 1) * hw]);
                for j in 0..hw {
                    let y = f(std::array::from_fn(|i| src[i][j]));
                    for (d, v) in dst.iter_mut().zip(y) {
                        d[j].write(v);
                    }
                }
            }
        });
        for v in &mut outs {
            // SAFETY: the plane groups cover 0..planes, and every element of
            // every plane was written.
            unsafe { v.set_len(planes * hw) };
        }
        outs.map(|data| Self::owned(shape, data))
    }

    /// Per-channel sum over batch and spatial dims; returns `[1, c, 1, 1]`.
    pub fn sum_per_channel(&self) -> Self {
        let mut out = Tensor::zeros(Shape::vector(self.shape.c));
        let hw = self.shape.hw();
        let (n, c) = (self.shape.n, self.shape.c);
        let xd = self.data();
        // One tile per channel; the batch loop stays sequential inside the
        // tile so the accumulation order (and the f32 result) is independent
        // of the thread count.
        tiles_mut(c, Runs::new(out.data_mut(), 1), |ch, sum| {
            let mut acc = 0.0_f32;
            for ni in 0..n {
                let base = (ni * c + ch) * hw;
                let s: f32 = xd[base..base + hw].iter().sum();
                acc += s;
            }
            sum[0] = acc;
        });
        out
    }

    /// Concatenates tensors along the channel dimension.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or batch/spatial dims disagree.
    pub fn concat_channels(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_channels requires at least one tensor");
        let first = parts[0].shape;
        let c_total: usize = parts.iter().map(|p| p.shape.c).sum();
        for p in parts {
            assert_eq!(
                (p.shape.n, p.shape.h, p.shape.w),
                (first.n, first.h, first.w),
                "concat_channels requires matching batch and spatial dims"
            );
        }
        let out_shape = first.with_c(c_total);
        let mut out = Tensor::zeros(out_shape);
        let hw = first.hw();
        for n in 0..first.n {
            let mut c_off = 0;
            for p in parts {
                let src = &p.data()[n * p.shape.chw()..(n + 1) * p.shape.chw()];
                let dst_base = (n * c_total + c_off) * hw;
                out.data_mut()[dst_base..dst_base + p.shape.c * hw].copy_from_slice(src);
                c_off += p.shape.c;
            }
        }
        out
    }

    /// Splits the tensor into two along the channel dimension at `c_split`.
    ///
    /// # Panics
    ///
    /// Panics if `c_split` is 0 or >= `c`.
    pub fn split_channels(&self, c_split: usize) -> (Tensor, Tensor) {
        assert!(c_split > 0 && c_split < self.shape.c, "c_split must be inside (0, c)");
        (self.channel_slice(0, c_split), self.channel_slice(c_split, self.shape.c))
    }

    /// Copies channels `c0..c1` into a new tensor.
    ///
    /// # Panics
    ///
    /// Panics unless `c0 < c1 <= c`.
    pub fn channel_slice(&self, c0: usize, c1: usize) -> Tensor {
        assert!(c0 < c1 && c1 <= self.shape.c, "channel range must be non-empty and inside 0..c");
        let hw = self.shape.hw();
        let mut out = Tensor::zeros(self.shape.with_c(c1 - c0));
        for (src, dst) in self.data().chunks_exact(self.shape.chw()).zip(out.data_mut().chunks_exact_mut((c1 - c0) * hw)) {
            dst.copy_from_slice(&src[c0 * hw..c1 * hw]);
        }
        out
    }

    /// Repeats the channel dimension `times` times (used by the
    /// channel-duplicating stem of wide RevBiFPN variants).
    pub fn repeat_channels(&self, times: usize) -> Tensor {
        let refs: Vec<&Tensor> = (0..times).map(|_| self).collect();
        Tensor::concat_channels(&refs)
    }
}

/// `dst += alpha * src` over equal-length slices (pool-parallel when large).
fn axpy_slices(dst: &mut [f32], alpha: f32, src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    if dst.len() < PAR_ELEMWISE_MIN {
        for (a, &b) in dst.iter_mut().zip(src) {
            *a += alpha * b;
        }
        return;
    }
    chunks_mut(dst, |at, chunk| {
        for (a, &b) in chunk.iter_mut().zip(&src[at..]) {
            *a += alpha * b;
        }
    });
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preview: Vec<f32> = self.data().iter().take(8).copied().collect();
        write!(
            f,
            "Tensor {{ shape: {:?}, mean: {:.4}, absmax: {:.4}, head: {:?}{} }}",
            self.shape,
            self.mean(),
            self.abs_max(),
            preview,
            if self.data().len() > 8 { ", .." } else { "" }
        )
    }
}

/// A clone is an owned copy, also of a shared handle: only
/// [`Tensor::share`] hands out handles.
impl Clone for Tensor {
    fn clone(&self) -> Self {
        Self::owned(self.shape, self.data().to_vec())
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data() == other.data()
    }
}

impl Add for &Tensor {
    type Output = Tensor;
    fn add(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a + b)
    }
}

impl Sub for &Tensor {
    type Output = Tensor;
    fn sub(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a - b)
    }
}

impl Mul for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a * b)
    }
}

impl Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.map(|x| -x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(data: &[f32]) -> Tensor {
        Tensor::from_vec(Shape::new(1, 1, 1, data.len()), data.to_vec()).unwrap()
    }

    #[test]
    fn constructors() {
        let s = Shape::new(1, 2, 2, 2);
        assert_eq!(Tensor::zeros(s).sum(), 0.0);
        assert_eq!(Tensor::ones(s).sum(), 8.0);
        assert_eq!(Tensor::full(s, 0.5).sum(), 4.0);
        assert!(Tensor::from_vec(s, vec![0.0; 7]).is_err());
    }

    #[test]
    fn randn_moments() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::randn(Shape::new(1, 1, 100, 100), 2.0, &mut rng);
        assert!(x.mean().abs() < 0.1, "mean {}", x.mean());
        let var = x.sq_sum() / x.data().len() as f64;
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::uniform(Shape::new(1, 1, 10, 10), -1.0, 3.0, &mut rng);
        assert!(x.data().iter().all(|&v| (-1.0..=3.0).contains(&v)));
    }

    #[test]
    fn arithmetic() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!((&a + &b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!((&b - &a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!((&a * &b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!((-&a).data(), &[-1.0, -2.0, -3.0]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = t(&[1.0, 2.0]);
        let b = t(&[10.0, 20.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[6.0, 12.0]);
        a.scale(2.0);
        assert_eq!(a.data(), &[12.0, 24.0]);
    }

    #[test]
    fn reductions() {
        let a = t(&[3.0, -4.0]);
        assert_eq!(a.sum(), -1.0);
        assert_eq!(a.mean(), -0.5);
        assert_eq!(a.sq_sum(), 25.0);
        assert_eq!(a.l2_norm(), 5.0);
        assert_eq!(a.abs_max(), 4.0);
    }

    #[test]
    fn channel_bias_and_scale() {
        let mut x = Tensor::ones(Shape::new(2, 2, 1, 2));
        let bias = Tensor::from_vec(Shape::vector(2), vec![10.0, 20.0]).unwrap();
        x.add_channel_bias(&bias);
        assert_eq!(x.data(), &[11.0, 11.0, 21.0, 21.0, 11.0, 11.0, 21.0, 21.0]);
        let sc = Tensor::from_vec(Shape::vector(2), vec![2.0, 0.5]).unwrap();
        x.mul_channel(&sc);
        assert_eq!(x.data(), &[22.0, 22.0, 10.5, 10.5, 22.0, 22.0, 10.5, 10.5]);
        // One factor per (sample, channel) plane, out of place.
        let gate = Tensor::from_vec(Shape::new(2, 2, 1, 1), vec![1.0, 2.0, 0.5, -1.0]).unwrap();
        let y = x.mul_planes(&gate);
        assert_eq!(y.data(), &[22.0, 22.0, 21.0, 21.0, 11.0, 11.0, -10.5, -10.5]);
    }

    #[test]
    fn map_planes_groups_small_planes_without_changing_values() {
        // 3x3 planes go many to a tile; two inputs, one output.
        let _g = crate::par::tests_budget_lock();
        let mut rng = StdRng::seed_from_u64(10);
        let s = Shape::new(3, 250, 3, 3);
        let (a, b) = (Tensor::randn(s, 1.0, &mut rng), Tensor::randn(s, 1.0, &mut rng));
        let run = || Tensor::map_planes([&a, &b], |p| move |[x, y]: [f32; 2]| [x * p as f32 - y])[0].clone();
        crate::par::set_max_threads(1);
        let one = run();
        crate::par::set_max_threads(4);
        let four = run();
        crate::par::set_max_threads(0);
        assert_eq!(one, four);
        for (i, v) in one.data().iter().enumerate() {
            assert_eq!(*v, a.data()[i] * (i / 9) as f32 - b.data()[i], "idx {i}");
        }
    }

    #[test]
    fn per_channel_sum() {
        let x = Tensor::from_vec(Shape::new(2, 2, 1, 1), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let s = x.sum_per_channel();
        assert_eq!(s.data(), &[4.0, 6.0]);
    }

    #[test]
    fn concat_split_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = Tensor::randn(Shape::new(2, 5, 3, 3), 1.0, &mut rng);
        let (a, b) = x.split_channels(2);
        assert_eq!(a.shape(), Shape::new(2, 2, 3, 3));
        assert_eq!(b.shape(), Shape::new(2, 3, 3, 3));
        let back = Tensor::concat_channels(&[&a, &b]);
        assert_eq!(back, x);
    }

    #[test]
    fn add_channels_of_adds_the_window_in_place() {
        let mut rng = StdRng::seed_from_u64(8);
        let x = Tensor::randn(Shape::new(2, 5, 3, 3), 1.0, &mut rng);
        let base = Tensor::randn(Shape::new(2, 2, 3, 3), 1.0, &mut rng);
        for c_off in [0, 1, 3] {
            let mut got = base.clone();
            got.add_channels_of(&x, c_off);
            assert_eq!(got, &base + &x.channel_slice(c_off, c_off + 2), "c_off {c_off}");
        }
        let mut whole = base.clone();
        whole.add_channels_of(&base, 0);
        assert_eq!(whole, &base + &base);
    }

    #[test]
    fn repeat_channels_duplicates() {
        let x = Tensor::from_vec(Shape::new(1, 1, 1, 2), vec![1.0, 2.0]).unwrap();
        let y = x.repeat_channels(3);
        assert_eq!(y.shape(), Shape::new(1, 3, 1, 2));
        assert_eq!(y.data(), &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn parallel_elementwise_matches_serial_bitwise() {
        // Large enough to cross PAR_ELEMWISE_MIN. Element-wise kernels must
        // produce bitwise-identical results for any thread budget.
        let _g = crate::par::tests_budget_lock();
        let mut rng = StdRng::seed_from_u64(9);
        let s = Shape::new(2, 8, 64, 64);
        let x = Tensor::randn(s, 1.0, &mut rng);
        let y = Tensor::randn(s, 1.0, &mut rng);
        let act = |v: f32| v * (v + 3.0).clamp(0.0, 6.0) / 6.0;

        crate::par::set_max_threads(1);
        let m1 = x.map(act);
        let z1 = x.zip(&y, |a, b| a * b + 0.25);
        let mut a1 = x.clone();
        a1.axpy(0.5, &y);
        let mut i1 = x.clone();
        i1.map_inplace(act);
        let mut s1 = x.clone();
        s1.scale(1.7);

        crate::par::set_max_threads(8);
        let m8 = x.map(act);
        let z8 = x.zip(&y, |a, b| a * b + 0.25);
        let mut a8 = x.clone();
        a8.axpy(0.5, &y);
        let mut i8 = x.clone();
        i8.map_inplace(act);
        let mut s8 = x.clone();
        s8.scale(1.7);
        crate::par::set_max_threads(0);

        assert_eq!(m1, m8);
        assert_eq!(z1, z8);
        assert_eq!(a1, a8);
        assert_eq!(i1, i8);
        assert_eq!(s1, s8);
        assert_eq!(m1, i1, "map and map_inplace must agree");
    }

    #[test]
    fn share_hands_out_the_same_buffer() {
        let mut a = t(&[1.0, 2.0, 3.0]);
        let at = a.data().as_ptr();
        assert!(!a.is_shared());
        let b = a.share();
        assert_eq!(a.data().as_ptr(), at, "sharing moved the owner's buffer");
        assert_eq!(b.data().as_ptr(), at, "the handle reads another buffer");
        assert!(a.is_shared() && b.is_shared());
        drop(b);
        assert!(!a.is_shared());
        // The last handle writes in place.
        a.data_mut()[0] = 5.0;
        assert_eq!(a.data().as_ptr(), at);
        assert_eq!(a.data(), &[5.0, 2.0, 3.0]);
    }

    #[test]
    fn a_write_through_a_shared_handle_never_shows_through_the_other() {
        let mut a = t(&[1.0, 2.0, 3.0]);
        let at = a.data().as_ptr();
        // Through the new handle: it copies, the owner keeps its buffer.
        let mut b = a.share();
        b.data_mut()[0] = 9.0;
        assert_eq!(a.data(), &[1.0, 2.0, 3.0]);
        assert_eq!(b.data(), &[9.0, 2.0, 3.0]);
        assert_eq!(a.data().as_ptr(), at);
        assert!(!a.is_shared() && !b.is_shared());
        // Through the owner: it copies, the handle keeps the old buffer.
        let mut c = a.share();
        a.scale(2.0);
        assert_eq!(a.data(), &[2.0, 4.0, 6.0]);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0]);
        assert_eq!(c.data().as_ptr(), at);
        // Handles of a handle: every write stays with its writer.
        let d = c.share();
        c.fill_zero();
        assert_eq!(c.data(), &[0.0, 0.0, 0.0]);
        assert_eq!(d.data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn clone_eq_reshape_and_into_vec_work_on_a_shared_handle() {
        let mut a = t(&[1.0, 2.0, 3.0, 4.0]);
        let b = a.share();
        let copy = b.clone();
        assert!(!copy.is_shared(), "a clone is an owned copy");
        assert_ne!(copy.data().as_ptr(), b.data().as_ptr());
        assert_eq!(copy, b);
        assert_eq!(a, b);
        assert_ne!(b, t(&[1.0, 2.0, 3.0, 5.0]));
        let r = b.reshape(Shape::new(1, 2, 1, 2));
        assert_eq!(r.shape(), Shape::new(1, 2, 1, 2));
        assert_eq!(r.data().as_ptr(), a.data().as_ptr());
        assert_ne!(r, a, "a reshaped handle differs in shape");
        // Another handle is alive: `into_vec` copies.
        assert_eq!(r.into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        // The last handle: `into_vec` takes the buffer.
        let at = a.data().as_ptr();
        let c = a.share();
        drop(a);
        let v = c.into_vec();
        assert_eq!(v.as_ptr(), at);
    }

    #[test]
    fn two_pool_tasks_read_one_buffer_concurrently() {
        let _g = crate::par::tests_budget_lock();
        crate::par::set_max_threads(2);
        let mut rng = StdRng::seed_from_u64(11);
        let mut a = Tensor::randn(Shape::new(1, 4, 64, 64), 1.0, &mut rng);
        let want = a.sum();
        let b = a.share();
        // (sum, buffer address) as each task saw it.
        let seen = crate::par::join_map_unpinned([&a, &b], |x| (x.sum(), x.data().as_ptr() as usize));
        crate::par::set_max_threads(0);
        assert_eq!(seen[0], (want, a.data().as_ptr() as usize));
        assert_eq!(seen[1], seen[0], "the tasks read different buffers or values");
        assert!(a.is_shared() && b.is_shared(), "a read gave up a handle");
    }

    #[test]
    fn reshape_preserves_data() {
        let x = t(&[1.0, 2.0, 3.0, 4.0]);
        let y = x.clone().reshape(Shape::new(1, 2, 1, 2));
        assert_eq!(y.data(), x.data());
    }

    #[test]
    #[should_panic(expected = "reshape must preserve")]
    fn reshape_bad_count_panics() {
        let x = t(&[1.0, 2.0]);
        let _ = x.reshape(Shape::new(1, 3, 1, 1));
    }

    #[test]
    fn finite_check() {
        let mut x = t(&[1.0, 2.0]);
        assert!(x.is_finite());
        x.data_mut()[0] = f32::NAN;
        assert!(!x.is_finite());
    }

    #[test]
    fn count_nonfinite_counts_nan_and_inf() {
        let mut x = t(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(x.count_nonfinite(), 0);
        x.data_mut()[1] = f32::NAN;
        x.data_mut()[3] = f32::INFINITY;
        assert_eq!(x.count_nonfinite(), 2);
    }

    #[test]
    fn assert_finite_passes_on_finite() {
        t(&[0.0, -1.0]).assert_finite("ok");
    }

    #[test]
    #[should_panic(expected = "logits: 1 non-finite")]
    fn assert_finite_panics_with_tag() {
        let mut x = t(&[1.0, 2.0]);
        x.data_mut()[0] = f32::NEG_INFINITY;
        x.assert_finite("logits");
    }
}
