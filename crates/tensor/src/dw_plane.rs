//! The depthwise plane kernel: one `(sample, channel)` output plane of a
//! depthwise convolution over a zero-padded copy of its input plane. Frozen
//! f32 plans, frozen int8 plans, the training forward and the stride-1 input
//! gradient all run it through [`depthwise_padded_plane`]; `conv.rs` holds
//! the drivers.
//!
//! - **Image.** [`pad_plane`] copies (or quantizes) the plane into a scratch
//!   image whose border is zero, so every window is in-bounds and nothing
//!   splits interior from border. For a horizontal stride `sw > 1` the same
//!   pass deals the columns out to `sw` **phases** ([`PlaneImage`]), after
//!   which eight neighbouring outputs read eight neighbouring floats for any
//!   tap: 5/s2, 9/s4 and 17/s8 are the same contiguous-load kernel as 3x3.
//! - **Tile.** `R` output rows by eight output columns in registers
//!   ([`dw_tile`]); input rows stream top to bottom, each loaded once per
//!   tap column and consumed by every accumulator whose window covers it.
//!   Row tails reuse the last full vector, or mask the store on planes
//!   narrower than eight ([`dw_rows`]).
//! - **Epilogue.** `act(acc * scale + bias)` and the plane's abs-max and sum
//!   finish in registers before the one store of each output: int8 plans
//!   take their output scale and squeeze-excite its pooled input from them.
//! - **Bits.** Every output is its taps added to zero, one `mul` and one
//!   `add` at a time, `ky` outer, `kx` inner — the naive reference's value
//!   exactly, so int8 plans (integer-valued operands far below 2^24) stay
//!   exact. The kernel is written once over [`Lanes`]: `__m256` runs it with
//!   AVX2 (never `fma`), `[f32; 8]` is the scalar twin, same bits.

use crate::conv::ConvSpec;
use crate::matmul::EpilogueAct;
use crate::qmatmul::quantize_centered_f32;

/// How the depthwise kernel sees one zero-padded plane: `phases` (the
/// horizontal stride `sw`) column phases of `stride`-float rows, `phase_len`
/// floats apart, padded column `x` sitting in phase `x % sw` at column
/// `x / sw`. Output column `j` then finds tap `kx` at
/// `phase[kx % sw][row][j + kx / sw]` — eight neighbouring outputs read eight
/// neighbouring floats at any stride (at stride 1 the one phase is the padded
/// plane itself).
#[derive(Clone, Copy)]
pub(crate) struct PlaneImage {
    phases: usize,
    stride: usize,
    phase_len: usize,
}

/// Floats past an image's last phase that the kernel's vector loads may run
/// into (a plane narrower than eight outputs still loads eight lanes).
const IMAGE_SLACK: usize = 8;

impl PlaneImage {
    /// The forward image of an `h x w` plane under `spec`, rows packed tight.
    pub(crate) fn new(h: usize, w: usize, spec: &ConvSpec) -> Self {
        let stride = (w + 2 * spec.pw).div_ceil(spec.sw);
        Self { phases: spec.sw, stride, phase_len: (h + 2 * spec.ph) * stride }
    }

    /// A one-phase image whose rows are `stride` floats apart (the training
    /// backward lays its two images out at one shared stride, and sizes
    /// them itself).
    pub(crate) fn single_phase(stride: usize) -> Self {
        Self { phases: 1, stride, phase_len: 0 }
    }

    /// Floats of the phases and the slack behind them.
    fn len(&self) -> usize {
        self.phases * self.phase_len + IMAGE_SLACK
    }

    /// Scratch floats of the image of a plane `w` wide: [`Self::len`] and,
    /// with more than one phase, a row for int8 plans to quantize into
    /// before it is dealt out.
    pub(crate) fn floats(&self, w: usize) -> usize {
        self.len() + if self.phases > 1 { w } else { 0 }
    }
}

/// Deals one padded row out to the `sw` column phases: `src` holds the plane
/// columns, the first at padded column `pw`, and padded column `x` goes to
/// `img[(x % sw) * phase_len + x / sw]`. Whole groups of `sw` columns go one
/// to each phase. Callers pass the silo strides as literals: the group loop
/// then unrolls and runs four times faster than a strided gather per phase.
#[inline(always)]
fn deal_row(src: &[f32], pw: usize, sw: usize, phase_len: usize, img: &mut [f32]) {
    let head = ((sw - pw % sw) % sw).min(src.len());
    for (x, v) in (pw..).zip(&src[..head]) {
        img[(x % sw) * phase_len + x / sw] = *v;
    }
    let groups = src[head..].chunks_exact(sw);
    let (at, tail) = ((pw + head) / sw, groups.remainder());
    for (p, v) in tail.iter().enumerate() {
        img[p * phase_len + at + groups.len()] = *v;
    }
    for (c, group) in groups.enumerate() {
        for (p, v) in group.iter().enumerate() {
            img[p * phase_len + at + c] = *v;
        }
    }
}

/// Writes one plane of row width `w` into the image `img` (zero outside the
/// plane, `lay.floats(w)` long), its first element at padded row `ph`,
/// column `pw` — copied as it is, or with `quant = Some(1 / scale)` through
/// the int8 plans' quantizer. With more than one phase the same pass deals
/// each row out to the phases.
pub(crate) fn pad_plane(
    plane: &[f32],
    w: usize,
    ph: usize,
    pw: usize,
    lay: PlaneImage,
    img: &mut [f32],
    quant: Option<f32>,
) {
    let sw = lay.phases;
    if sw == 1 {
        for (iy, src) in plane.chunks_exact(w).enumerate() {
            let at = (iy + ph) * lay.stride + pw;
            match quant {
                Some(inv) => quantize_centered_f32(src, inv, &mut img[at..at + w]),
                None => img[at..at + w].copy_from_slice(src),
            }
        }
        return;
    }
    let (img, staged) = img.split_at_mut(lay.len());
    for (iy, src) in plane.chunks_exact(w).enumerate() {
        let src = match quant {
            Some(inv) => {
                quantize_centered_f32(src, inv, staged);
                &*staged
            }
            None => src,
        };
        let row = &mut img[(iy + ph) * lay.stride..];
        match sw {
            2 => deal_row(src, pw, 2, lay.phase_len, row),
            4 => deal_row(src, pw, 4, lay.phase_len, row),
            8 => deal_row(src, pw, 8, lay.phase_len, row),
            _ => deal_row(src, pw, sw, lay.phase_len, row),
        }
    }
}

/// Eight `f32` lanes, the vector type the depthwise plane kernel is written
/// over: `__m256` runs it with AVX2, `[f32; 8]` is the scalar twin. Every
/// method is one IEEE operation per lane — never `fma` — and `max` follows
/// the x86 convention (the second operand unless the first is greater), so
/// one source gives the same bits through either type.
///
/// # Safety
///
/// Callers of any method must be running on a CPU with the implementing
/// type's instructions (AVX2 for `__m256`); `load` and the stores access
/// eight floats at `p`, `store_masked` only the lanes set in `mask`.
trait Lanes: Copy {
    unsafe fn load(p: *const f32) -> Self;
    unsafe fn store(self, p: *mut f32);
    unsafe fn store_masked(self, p: *mut f32, mask: Self);
    unsafe fn splat(v: f32) -> Self;
    /// All bits set in `lanes`, none elsewhere.
    unsafe fn mask(lanes: std::ops::Range<usize>) -> Self;
    unsafe fn mul(self, o: Self) -> Self;
    unsafe fn add(self, o: Self) -> Self;
    unsafe fn and(self, o: Self) -> Self;
    unsafe fn max(self, o: Self) -> Self;
    unsafe fn act(self, act: EpilogueAct) -> Self;
    unsafe fn to_array(self) -> [f32; 8];
}

#[cfg(target_arch = "x86_64")]
mod lanes_avx2 {
    use super::{EpilogueAct, Lanes};
    use std::arch::x86_64::*;

    impl Lanes for __m256 {
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm256_storeu_ps(p, self)
        }
        #[inline(always)]
        unsafe fn store_masked(self, p: *mut f32, mask: Self) {
            _mm256_maskstore_ps(p, _mm256_castps_si256(mask), self)
        }
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            _mm256_set1_ps(v)
        }
        #[inline(always)]
        unsafe fn mask(lanes: std::ops::Range<usize>) -> Self {
            let at = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            let from = _mm256_cmpgt_epi32(at, _mm256_set1_epi32(lanes.start as i32 - 1));
            let to = _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes.end as i32), at);
            _mm256_castsi256_ps(_mm256_and_si256(from, to))
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            _mm256_mul_ps(self, o)
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            _mm256_add_ps(self, o)
        }
        #[inline(always)]
        unsafe fn and(self, o: Self) -> Self {
            _mm256_and_ps(self, o)
        }
        #[inline(always)]
        unsafe fn max(self, o: Self) -> Self {
            _mm256_max_ps(self, o)
        }
        #[inline(always)]
        unsafe fn act(self, act: EpilogueAct) -> Self {
            crate::matmul::act_avx2(act, self)
        }
        #[inline(always)]
        unsafe fn to_array(self) -> [f32; 8] {
            std::mem::transmute(self)
        }
    }
}

impl Lanes for [f32; 8] {
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        p.cast::<Self>().read_unaligned()
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        p.cast::<Self>().write_unaligned(self)
    }
    #[inline(always)]
    unsafe fn store_masked(self, p: *mut f32, mask: Self) {
        for (l, v) in self.into_iter().enumerate() {
            if mask[l].to_bits() != 0 {
                p.add(l).write(v);
            }
        }
    }
    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        [v; 8]
    }
    #[inline(always)]
    unsafe fn mask(lanes: std::ops::Range<usize>) -> Self {
        std::array::from_fn(|l| f32::from_bits(if lanes.contains(&l) { u32::MAX } else { 0 }))
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        std::array::from_fn(|l| self[l] * o[l])
    }
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        std::array::from_fn(|l| self[l] + o[l])
    }
    #[inline(always)]
    unsafe fn and(self, o: Self) -> Self {
        std::array::from_fn(|l| f32::from_bits(self[l].to_bits() & o[l].to_bits()))
    }
    #[inline(always)]
    unsafe fn max(self, o: Self) -> Self {
        std::array::from_fn(|l| if self[l] > o[l] { self[l] } else { o[l] })
    }
    #[inline(always)]
    unsafe fn act(self, act: EpilogueAct) -> Self {
        self.map(|v| act.apply(v))
    }
    #[inline(always)]
    unsafe fn to_array(self) -> [f32; 8] {
        self
    }
}

/// What one [`depthwise_padded_plane`] call computes besides the taps: the
/// image layout, the output extent and the epilogue `act(acc * scale + bias)`
/// (f32 plans and training pass `scale = 1.0`, a bitwise identity; int8
/// plans their dequantization scale).
#[derive(Clone, Copy)]
pub(crate) struct DwCall {
    pub(crate) lay: PlaneImage,
    pub(crate) oh: usize,
    pub(crate) ow: usize,
    pub(crate) scale: f32,
    pub(crate) bias: f32,
    pub(crate) act: EpilogueAct,
}

/// The register tile of the depthwise kernel: `R` output rows by eight
/// output columns, accumulated from zero. `x` points at the tile's first
/// input row and first output column in phase 0. Input rows stream top to
/// bottom; each is loaded once per tap column and consumed by every
/// accumulator whose window covers it, so every output adds its taps in the
/// naive `ky`-outer, `kx`-inner order.
///
/// # Safety
///
/// [`Lanes`]' CPU contract, and `(R - 1) * sh + kh` rows of eight floats
/// from every tap's phase offset must be readable behind `x`.
#[inline(always)]
unsafe fn dw_tile<V: Lanes, const R: usize>(
    x: *const f32,
    tap: impl Fn(usize) -> V,
    [kh, kw, sh, sw]: [usize; 4],
    lay: PlaneImage,
) -> [V; R] {
    let mut acc = [V::splat(0.0); R];
    for r in 0..(R - 1) * sh + kh {
        // Tap column `kx = q * sw + p` lives in phase `p` at column `q`.
        let (mut p, mut q) = (0, 0);
        for kx in 0..kw {
            let xv = V::load(x.add(r * lay.stride + p * lay.phase_len + q));
            for (a, acc) in acc.iter_mut().enumerate() {
                if r >= a * sh && r < a * sh + kh {
                    *acc = acc.add(xv.mul(tap((r - a * sh) * kw + kx)));
                }
            }
            p += 1;
            if p == sw {
                (p, q) = (0, q + 1);
            }
        }
    }
    acc
}

/// `R` output rows of one plane, left to right in eight-column tiles. A row
/// tail shorter than eight reuses the last full vector when the row has one
/// (its leading lanes rewrite what the previous tile stored; `stats` counts
/// only the new ones) and is a masked store otherwise. The epilogue and the
/// running `stats = (max |y|, Σ y)` lanes finish in registers before the one
/// store of each output.
///
/// # Safety
///
/// As [`dw_plane`], for output rows `y .. y + R * ow` and the input rows
/// behind `x` that they read.
#[inline(always)]
unsafe fn dw_rows<V: Lanes, const R: usize>(
    x: *const f32,
    tap: impl Fn(usize) -> V + Copy,
    k: [usize; 4],
    call: &DwCall,
    y: *mut f32,
    stats: &mut (V, V),
) {
    let ow = call.ow;
    let (scale, bias, abs) = (V::splat(call.scale), V::splat(call.bias), V::splat(f32::from_bits(0x7fff_ffff)));
    for t in 0..ow.div_ceil(8) {
        let (j, keep) = match ((t + 1) * 8 > ow, ow < 8) {
            (false, _) => (t * 8, None),
            (true, true) => (0, Some(V::mask(0..ow))),
            (true, false) => (ow - 8, Some(V::mask(8 - ow % 8..8))),
        };
        let acc = dw_tile::<V, R>(x.add(j), tap, k, call.lay);
        for (a, acc) in acc.into_iter().enumerate() {
            let mut v = acc.mul(scale).add(bias).act(call.act);
            match keep {
                Some(lanes) if ow < 8 => v.store_masked(y.add(a * ow), lanes),
                _ => v.store(y.add(a * ow + j)),
            }
            if let Some(lanes) = keep {
                v = v.and(lanes);
            }
            *stats = (v.and(abs).max(stats.0), stats.1.add(v));
        }
    }
}

/// One output plane of the depthwise kernel over the image `img` (see
/// [`PlaneImage`]); returns the plane's `(max |y|, Σ y)`. Bands of four
/// output rows, then single rows; taps are splat once per plane when the
/// kernel has at most 25 of them and broadcast from `kern` at each use
/// otherwise. Callers pass the kernel's shape `k = [kh, kw, sh, sw]` as
/// literals where it is known, so this body is compiled per shape.
///
/// # Safety
///
/// [`Lanes`]' CPU contract. Vector loads run up to seven floats past a
/// row's last tap column (the lanes of a narrow plane that are never
/// stored): `img` must hold, behind the last row any window reads, that
/// many floats — what [`depthwise_padded_plane`] asserts — and `y` must
/// hold `oh * ow` outputs.
#[inline(always)]
unsafe fn dw_plane<V: Lanes>(img: &[f32], kern: &[f32], k: [usize; 4], call: &DwCall, y: &mut [f32]) -> (f32, f32) {
    let [kh, kw, sh, _] = k;
    let (img, kern, y) = (img.as_ptr(), kern.as_ptr(), y.as_mut_ptr());
    let splat_once = kh * kw <= 25;
    let mut held = [V::splat(0.0); 25];
    if splat_once {
        for (i, h) in held.iter_mut().enumerate().take(kh * kw) {
            *h = V::splat(*kern.add(i));
        }
    }
    let tap = |i: usize| if splat_once { held[i] } else { V::splat(*kern.add(i)) };
    let mut stats = (V::splat(0.0), V::splat(0.0));
    let mut oy = 0;
    while oy + 4 <= call.oh {
        dw_rows::<V, 4>(img.add(oy * sh * call.lay.stride), tap, k, call, y.add(oy * call.ow), &mut stats);
        oy += 4;
    }
    while oy < call.oh {
        dw_rows::<V, 1>(img.add(oy * sh * call.lay.stride), tap, k, call, y.add(oy * call.ow), &mut stats);
        oy += 1;
    }
    let (m, s) = (stats.0.to_array(), stats.1.to_array());
    (m.into_iter().fold(0.0, f32::max), ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7])))
}

/// [`dw_plane`] with the shapes RevBiFPN runs (MBConv 3x3 and 5x5, the silo
/// down edges 5/s2, 9/s4, 17/s8) passed as literals; any other geometry runs
/// the same body on run-time values.
///
/// # Safety
///
/// As [`dw_plane`].
#[inline(always)]
unsafe fn dw_plane_by_shape<V: Lanes>(
    img: &[f32],
    kern: &[f32],
    spec: &ConvSpec,
    call: &DwCall,
    y: &mut [f32],
) -> (f32, f32) {
    match [spec.kh, spec.kw, spec.sh, spec.sw] {
        [3, 3, 1, 1] => dw_plane::<V>(img, kern, [3, 3, 1, 1], call, y),
        [5, 5, 1, 1] => dw_plane::<V>(img, kern, [5, 5, 1, 1], call, y),
        [5, 5, 2, 2] => dw_plane::<V>(img, kern, [5, 5, 2, 2], call, y),
        [9, 9, 4, 4] => dw_plane::<V>(img, kern, [9, 9, 4, 4], call, y),
        [17, 17, 8, 8] => dw_plane::<V>(img, kern, [17, 17, 8, 8], call, y),
        k => dw_plane::<V>(img, kern, k, call, y),
    }
}

/// The AVX2 instance of the kernel (`fma` is deliberately not enabled: the
/// two twins must round alike).
///
/// # Safety
///
/// The CPU must support AVX2; otherwise as [`dw_plane`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dw_plane_avx2(img: &[f32], kern: &[f32], spec: &ConvSpec, call: &DwCall, y: &mut [f32]) -> (f32, f32) {
    dw_plane_by_shape::<std::arch::x86_64::__m256>(img, kern, spec, call, y)
}

/// One depthwise output plane over a zero-padded, phase-split input image
/// (see [`PlaneImage`], [`pad_plane`]): every window is in-bounds, so there
/// is no interior/border split. The one depthwise kernel of frozen f32 and
/// int8 plans, the training forward and the stride-1 input gradient. Each
/// output is its taps added to zero one `mul`, one `add` at a time in
/// `ky`-outer, `kx`-inner order, then `act(acc * scale + bias)` — the naive
/// reference's value exactly. Returns the plane's `(max |y|, Σ y)`.
///
/// `avx2` allows the vector twin on a CPU that has it; int8 plans pass
/// [`crate::qmatmul::int8_use_avx2`], which honours the forced-scalar
/// switch. The choice never changes a bit.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn depthwise_padded_plane(
    img: &[f32],
    kern: &[f32],
    spec: &ConvSpec,
    call: &DwCall,
    avx2: bool,
    y: &mut [f32],
) -> (f32, f32) {
    assert!(spec.kh * spec.kw * spec.sh * call.oh * call.ow > 0, "empty depthwise plane or kernel");
    assert_eq!(call.lay.phases, spec.sw, "the image must have one phase per column of horizontal stride");
    // One past the furthest float a vector load touches: last phase any tap
    // uses, last input row, last tile's column plus the widest tap offset.
    let reach = (spec.kw.min(spec.sw) - 1) * call.lay.phase_len
        + ((call.oh - 1) * spec.sh + spec.kh - 1) * call.lay.stride
        + call.ow.saturating_sub(8)
        + (spec.kw - 1) / spec.sw
        + 8;
    assert!(
        reach <= img.len() && spec.kh * spec.kw <= kern.len() && call.oh * call.ow <= y.len(),
        "depthwise plane kernel would leave its buffers: image {} of {reach}, taps {}, outputs {}",
        img.len(),
        kern.len(),
        y.len()
    );
    #[cfg(target_arch = "x86_64")]
    if avx2 && crate::qmatmul::cpu_has_avx2() {
        // SAFETY: AVX2 checked on this line; the asserts above are the
        // kernel's bounds contract.
        return unsafe { dw_plane_avx2(img, kern, spec, call, y) };
    }
    // SAFETY: the scalar twin needs no CPU feature; bounds asserted above.
    unsafe { dw_plane_by_shape::<[f32; 8]>(img, kern, spec, call, y) }
}

