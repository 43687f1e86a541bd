//! The depthwise plane kernel: one `(sample, channel)` output plane of a
//! depthwise convolution over a zero-padded copy of its input plane. Frozen
//! plans, the training forward and the stride-1 input gradient all run it
//! through [`depthwise_padded_plane`]; `conv.rs` holds the drivers. The
//! strided backward's gathers ([`GradPlane`]) live here too.
//!
//! - **Image.** [`pad_plane`] copies the plane into a scratch image whose
//!   border is zero, so every window is in-bounds and nothing
//!   splits interior from border. For a horizontal stride `sw > 1` the same
//!   pass deals the columns out to `sw` **phases** ([`PlaneImage`], [`Deal`]:
//!   vector unzips), after which eight neighbouring outputs read eight
//!   neighbouring floats for any tap: 5/s2, 9/s4 and 17/s8 are the same
//!   contiguous-load kernel as 3x3.
//! - **Tile.** `R` output rows by eight output columns in registers
//!   ([`dw_tile`]): a 3x3 kernel streams its input rows, each loaded once per
//!   tap column; a larger one takes its taps in order, each fetched once for
//!   all `R` rows. Row tails reuse the last full vector, or mask the store
//!   on planes narrower than eight ([`dw_rows`]).
//! - **Epilogue.** `act(acc + bias)` and the plane's sum finish in registers
//!   before the one store of each output: squeeze-excite takes its pooled
//!   input from the sum.
//! - **Bits.** Every output is its taps added to zero, one `mul` and one
//!   `add` at a time, `ky` outer, `kx` inner — the naive reference's value
//!   exactly. Every kernel here is written once over [`Lanes`] and run by
//!   [`run_lanes`]: `__m256` with AVX2 (never `fma`), `[f32; 8]` the scalar
//!   twin, same bits.

use crate::conv::ConvSpec;
use crate::matmul::EpilogueAct;

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
    /// Padded columns ahead of the plane's first in its group of `phases`
    /// (`pw % sw`): where a row starts in the staging row of the deal.
    lead: usize,
}

/// Floats past an image's last phase that the kernel's vector loads may run
/// into (a plane narrower than eight outputs still loads eight lanes).
const IMAGE_SLACK: usize = 8;

impl PlaneImage {
    /// The forward image of an `h x w` plane under `spec`, rows packed tight
    /// — with more than one phase, rows as wide as the vector deal's whole
    /// blocks reach, so the deal stores whole vectors only.
    pub(crate) fn new(h: usize, w: usize, spec: &ConvSpec) -> Self {
        let (sw, lead) = (spec.sw, spec.pw % spec.sw);
        let mut stride = (w + 2 * spec.pw).div_ceil(sw);
        if matches!(sw, 2 | 4 | 8) {
            stride = stride.max(spec.pw / sw + (lead + w).next_multiple_of(8 * sw) / sw);
        }
        // Eight floats apart keep phases off a common 4 KiB stride (9/s4 at
        // 56² has 1024-float phases), where stores and loads alias.
        let phase_len = (h + 2 * spec.ph) * stride + if sw > 1 { 8 } else { 0 };
        Self { phases: sw, stride, phase_len, lead }
    }

    /// A one-phase image whose rows are `stride` floats apart (the training
    /// backward lays its two images out at one shared stride, and sizes
    /// them itself).
    pub(crate) fn single_phase(stride: usize) -> Self {
        Self { phases: 1, stride, phase_len: 0, lead: 0 }
    }

    /// Floats of the phases and the slack behind them.
    fn len(&self) -> usize {
        self.phases * self.phase_len + IMAGE_SLACK
    }

    /// Scratch floats of the image of a plane `w` wide: [`Self::len`] and,
    /// with more than one phase, a staging row for the deal: `lead` zeros,
    /// the row, zeros up to whole blocks of eight column groups.
    pub(crate) fn floats(&self, w: usize) -> usize {
        self.len() + if self.phases > 1 { (self.lead + w).next_multiple_of(8 * self.phases) } else { 0 }
    }
}

/// Deals one padded row out to the `sw` column phases: `src` holds the plane
/// columns, the first at padded column `pw`, and padded column `x` goes to
/// `img[(x % sw) * phase_len + x / sw]` (strides without a vector deal).
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

/// Deals the row `src` out to `sw` phases `phase_len` apart: float `x` to
/// `img[(x % sw) * phase_len + x / sw]`, at `sw` = 2, 4 and 8 eight column
/// groups at a time as `sw` vectors ([`unzip_rounds`]). The stem's
/// space-to-depth and every strided depthwise image deal their rows so.
pub(crate) struct Deal<'a> {
    pub(crate) src: &'a [f32],
    pub(crate) sw: usize,
    pub(crate) phase_len: usize,
    pub(crate) img: &'a mut [f32],
}

// SAFETY: every access of the deal is bounds-checked.
unsafe impl LaneKernel for Deal<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<V: Lanes>(self) {
        #[inline(always)]
        unsafe fn blocks<V: Lanes>(src: &[f32], sw: usize, phase_len: usize, img: &mut [f32]) -> usize {
            for (b, block) in src.chunks_exact(8 * sw).enumerate() {
                let mut v = [V::splat(0.0); 8];
                for (i, v) in v.iter_mut().take(sw).enumerate() {
                    *v = V::load(block[8 * i..8 * i + 8].as_ptr());
                }
                unzip_rounds(&mut v, sw);
                for (p, v) in v.into_iter().take(sw).enumerate() {
                    v.store(img[p * phase_len + 8 * b..][..8].as_mut_ptr());
                }
            }
            src.len() / (8 * sw) * 8 * sw
        }
        let Deal { src, sw, phase_len, img } = self;
        let whole = match sw {
            2 => blocks::<V>(src, 2, phase_len, img),
            4 => blocks::<V>(src, 4, phase_len, img),
            8 => blocks::<V>(src, 8, phase_len, img),
            _ => 0,
        };
        deal_row(&src[whole..], whole, sw, phase_len, img);
    }
}

/// Deals `8 n` consecutive floats in `n` vectors (`n` = 2, 4 or 8) out to
/// phases: afterwards `v[p]` holds floats `p, p + n, p + 2n, ...` (each round
/// unzips pairs, evens to the first half, odds to the second).
#[inline(always)]
unsafe fn unzip_rounds<V: Lanes>(v: &mut [V; 8], n: usize) {
    for _ in 0..n.trailing_zeros() {
        let old = *v;
        for i in 0..n / 2 {
            (v[i], v[n / 2 + i]) = old[2 * i].unzip(old[2 * i + 1]);
        }
    }
}

/// The inverse of [`unzip_rounds`].
#[inline(always)]
unsafe fn zip_rounds<V: Lanes>(v: &mut [V; 8], n: usize) {
    for _ in 0..n.trailing_zeros() {
        let old = *v;
        for i in 0..n / 2 {
            (v[2 * i], v[2 * i + 1]) = old[i].zip(old[n / 2 + i]);
        }
    }
}

/// Copies one plane of row width `w` into the image `img` (zero outside the
/// plane, `lay.floats(w)` long), its first element at padded row `ph`,
/// column `pw`. With more than one phase the same pass deals each row out to
/// the phases, with AVX2 where the CPU has it.
pub(crate) fn pad_plane(plane: &[f32], w: usize, ph: usize, pw: usize, lay: PlaneImage, img: &mut [f32]) {
    run_lanes(true, Pad { plane, w, ph, pw, lay, img });
}

/// [`pad_plane`]'s work: pure data movement, the same image on either twin.
struct Pad<'a> {
    plane: &'a [f32],
    w: usize,
    ph: usize,
    pw: usize,
    lay: PlaneImage,
    img: &'a mut [f32],
}

// SAFETY: every access of the copy and the deal is bounds-checked.
unsafe impl LaneKernel for Pad<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<V: Lanes>(self) {
        let Pad { plane, w, ph, pw, lay, img } = self;
        let sw = lay.phases;
        if sw == 1 {
            for (iy, src) in plane.chunks_exact(w).enumerate() {
                let at = (iy + ph) * lay.stride + pw;
                img[at..at + w].copy_from_slice(src);
            }
            return;
        }
        // Each row goes through the staging row, zero outside it.
        let (img, staged) = img.split_at_mut(lay.len());
        let (src, phase_len) = (lay.lead..lay.lead + w, lay.phase_len);
        for (iy, row) in plane.chunks_exact(w).enumerate() {
            let img = &mut img[(iy + ph) * lay.stride..];
            staged[src.clone()].copy_from_slice(row);
            match sw {
                // Whole blocks from padded column `pw - lead` on.
                2 | 4 | 8 => Deal { src: staged, sw, phase_len, img: &mut img[pw / sw..] }.run::<V>(),
                _ => deal_row(&staged[src.clone()], pw, sw, phase_len, img),
            }
        }
    }
}

/// Work written once over [`Lanes`], which [`run_lanes`] runs with AVX2 or
/// on the scalar twin: the one place the lane kernels enter `unsafe`.
///
/// # Safety
///
/// `run::<V>` must be sound wherever `V`'s instructions are: an implementor
/// checks every bound its raw loads and stores rely on.
pub(crate) unsafe trait LaneKernel {
    type Out;

    /// # Safety
    ///
    /// [`Lanes`]' CPU contract for `V`.
    unsafe fn run<V: Lanes>(self) -> Self::Out;
}

/// Runs `k` with AVX2 (never `fma`) when `avx2` allows it and the CPU has
/// it, else on the `[f32; 8]` twin; the two give the same bits.
pub(crate) fn run_lanes<K: LaneKernel>(avx2: bool, k: K) -> K::Out {
    #[cfg(target_arch = "x86_64")]
    if avx2 && cpu_has_avx2() {
        // SAFETY: AVX2 checked on this line; `K`'s contract covers the rest.
        return unsafe { run_avx2(k) };
    }
    // SAFETY: the scalar twin needs no CPU feature; as above otherwise.
    unsafe { k.run::<[f32; 8]>() }
}

/// Whether this CPU can run the AVX2-compiled kernel bodies (the detection
/// macro caches its answer).
pub(crate) fn cpu_has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The AVX2 instance of every lane kernel (`fma` is deliberately not
/// enabled: the two twins must round alike).
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2<K: LaneKernel>(k: K) -> K::Out {
    k.run::<std::arch::x86_64::__m256>()
}

/// Eight `f32` lanes, the vector type the depthwise plane kernel is written
/// over: `__m256` runs it with AVX2, `[f32; 8]` is the scalar twin. Every
/// method is one IEEE operation per lane — never `fma` — so one source
/// gives the same bits through either type.
///
/// # Safety
///
/// Callers of any method must be running on a CPU with the implementing
/// type's instructions (AVX2 for `__m256`); `load` and the stores access
/// eight floats at `p`, `store_masked` only the lanes set in `mask`.
pub(crate) trait Lanes: Copy {
    unsafe fn load(p: *const f32) -> Self;
    unsafe fn store(self, p: *mut f32);
    unsafe fn store_masked(self, p: *mut f32, mask: Self);
    unsafe fn splat(v: f32) -> Self;
    /// All bits set in `lanes`, none elsewhere.
    unsafe fn mask(lanes: std::ops::Range<usize>) -> Self;
    unsafe fn mul(self, o: Self) -> Self;
    unsafe fn add(self, o: Self) -> Self;
    unsafe fn sub(self, o: Self) -> Self;
    unsafe fn and(self, o: Self) -> Self;
    unsafe fn act(self, act: EpilogueAct) -> Self;
    /// All bits set in the lanes that are not ±0 (NaN lanes included).
    unsafe fn nonzero(self) -> Self;
    /// The even and the odd floats of the sixteen `self ‖ o`.
    unsafe fn unzip(self, o: Self) -> (Self, Self);
    /// `self` and `o` interleaved: `[s0 o0 s1 o1 s2 o2 s3 o3]` and
    /// `[s4 o4 .. s7 o7]` (the inverse of [`Lanes::unzip`]).
    unsafe fn zip(self, o: Self) -> (Self, Self);
    /// Lane `l` is `self[idx[l] & 7]`, `idx` holding `u32` bit patterns.
    unsafe fn permute(self, idx: Self) -> Self;
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
        unsafe fn sub(self, o: Self) -> Self {
            _mm256_sub_ps(self, o)
        }
        #[inline(always)]
        unsafe fn and(self, o: Self) -> Self {
            _mm256_and_ps(self, o)
        }
        #[inline(always)]
        unsafe fn act(self, act: EpilogueAct) -> Self {
            crate::matmul::act_avx2(act, self)
        }
        #[inline(always)]
        unsafe fn nonzero(self) -> Self {
            _mm256_cmp_ps::<_CMP_NEQ_UQ>(self, _mm256_setzero_ps())
        }
        #[inline(always)]
        unsafe fn unzip(self, o: Self) -> (Self, Self) {
            // Within each 128-bit half: [s0 s2 o0 o2 | s4 s6 o4 o6]; then
            // the 64-bit quarters go in order 0, 2, 1, 3.
            let even = _mm256_castps_pd(_mm256_shuffle_ps::<0b10_00_10_00>(self, o));
            let odd = _mm256_castps_pd(_mm256_shuffle_ps::<0b11_01_11_01>(self, o));
            (
                _mm256_castpd_ps(_mm256_permute4x64_pd::<0b11_01_10_00>(even)),
                _mm256_castpd_ps(_mm256_permute4x64_pd::<0b11_01_10_00>(odd)),
            )
        }
        #[inline(always)]
        unsafe fn zip(self, o: Self) -> (Self, Self) {
            let (lo, hi) = (_mm256_unpacklo_ps(self, o), _mm256_unpackhi_ps(self, o));
            (_mm256_permute2f128_ps::<0x20>(lo, hi), _mm256_permute2f128_ps::<0x31>(lo, hi))
        }
        #[inline(always)]
        unsafe fn permute(self, idx: Self) -> Self {
            _mm256_permutevar8x32_ps(self, _mm256_castps_si256(idx))
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
    unsafe fn sub(self, o: Self) -> Self {
        std::array::from_fn(|l| self[l] - o[l])
    }
    #[inline(always)]
    unsafe fn and(self, o: Self) -> Self {
        std::array::from_fn(|l| f32::from_bits(self[l].to_bits() & o[l].to_bits()))
    }
    #[inline(always)]
    unsafe fn act(self, act: EpilogueAct) -> Self {
        self.map(|v| act.apply(v))
    }
    #[inline(always)]
    unsafe fn nonzero(self) -> Self {
        self.map(|v| f32::from_bits(if v != 0.0 { u32::MAX } else { 0 }))
    }
    #[inline(always)]
    unsafe fn unzip(self, o: Self) -> (Self, Self) {
        let at = |i: usize| if i < 8 { self[i] } else { o[i - 8] };
        (std::array::from_fn(|l| at(2 * l)), std::array::from_fn(|l| at(2 * l + 1)))
    }
    #[inline(always)]
    unsafe fn zip(self, o: Self) -> (Self, Self) {
        let at = |i: usize| if i.is_multiple_of(2) { self[i / 2] } else { o[i / 2] };
        (std::array::from_fn(at), std::array::from_fn(|l| at(l + 8)))
    }
    #[inline(always)]
    unsafe fn permute(self, idx: Self) -> Self {
        idx.map(|i| self[i.to_bits() as usize & 7])
    }
    #[inline(always)]
    unsafe fn to_array(self) -> [f32; 8] {
        self
    }
}

/// What one [`depthwise_padded_plane`] call computes besides the taps: the
/// image layout, the output extent and the epilogue `act(acc + bias)`.
#[derive(Clone, Copy)]
pub(crate) struct DwCall {
    pub(crate) lay: PlaneImage,
    pub(crate) oh: usize,
    pub(crate) ow: usize,
    pub(crate) bias: f32,
    pub(crate) act: EpilogueAct,
}

/// A kernel's taps: splat once per plane when there are at most 25 of them,
/// broadcast from `kern` at each use otherwise. (Not a closure: a closure
/// would be compiled without the caller's AVX2.)
#[derive(Clone, Copy)]
struct Taps<'a, V> {
    held: &'a [V; 25],
    kern: *const f32,
    once: bool,
}

impl<V: Lanes> Taps<'_, V> {
    #[inline(always)]
    unsafe fn get(&self, i: usize) -> V {
        if self.once {
            self.held[i]
        } else {
            V::splat(*self.kern.add(i))
        }
    }
}

/// The register tile of the depthwise kernel: `R` output rows by eight
/// output columns, accumulated from zero, every output adding its taps in
/// the naive `ky`-outer, `kx`-inner order. `x` points at the tile's first
/// input row and first output column in phase 0. A 3x3 kernel streams its
/// input rows top to bottom, each loaded once per tap column and consumed by
/// every accumulator whose window covers it; a larger one takes its taps in
/// order, each fetched once and consumed by all `R` accumulators (their
/// windows' rows are `sh` apart): its rows × columns loop would not unroll
/// and would test every accumulator's window at run time.
///
/// # Safety
///
/// [`Lanes`]' CPU contract, and `(R - 1) * sh + kh` rows of eight floats
/// from every tap's phase offset must be readable behind `x`.
#[inline(always)]
unsafe fn dw_tile<V: Lanes, const R: usize>(
    x: *const f32,
    taps: Taps<'_, V>,
    [kh, kw, sh, sw]: [usize; 4],
    lay: PlaneImage,
) -> [V; R] {
    let mut acc = [V::splat(0.0); R];
    // Tap column `kx = q * sw + p` lives in phase `p` at column `q`.
    let col = |kx: usize| (kx % sw) * lay.phase_len + kx / sw;
    if kh * kw > 9 {
        for ky in 0..kh {
            for kx in 0..kw {
                let (t, at) = (taps.get(ky * kw + kx), x.add(ky * lay.stride + col(kx)));
                for (a, acc) in acc.iter_mut().enumerate() {
                    *acc = acc.add(V::load(at.add(a * sh * lay.stride)).mul(t));
                }
            }
        }
        return acc;
    }
    for r in 0..(R - 1) * sh + kh {
        for kx in 0..kw {
            let xv = V::load(x.add(r * lay.stride + col(kx)));
            for (a, acc) in acc.iter_mut().enumerate() {
                if r >= a * sh && r < a * sh + kh {
                    *acc = acc.add(xv.mul(taps.get((r - a * sh) * kw + kx)));
                }
            }
        }
    }
    acc
}

/// `R` output rows of one plane, left to right in eight-column tiles. A row
/// tail shorter than eight reuses the last full vector when the row has one
/// (its leading lanes rewrite what the previous tile stored; `sum` counts
/// only the new ones) and is a masked store otherwise. The epilogue and the
/// running `sum` lanes finish in registers before the one store of each
/// output; the first `skip` rows, already stored and counted, are rewritten
/// with their own values and not counted again.
///
/// # Safety
///
/// As [`dw_plane`], for output rows `y .. y + R * ow` and the input rows
/// behind `x` that they read.
#[inline(always)]
unsafe fn dw_rows<V: Lanes, const R: usize>(
    x: *const f32,
    taps: Taps<'_, V>,
    k: [usize; 4],
    call: &DwCall,
    y: *mut f32,
    sum: &mut V,
    skip: usize,
) {
    let ow = call.ow;
    let bias = V::splat(call.bias);
    for t in 0..ow.div_ceil(8) {
        let (j, keep) = match ((t + 1) * 8 > ow, ow < 8) {
            (false, _) => (t * 8, None),
            (true, true) => (0, Some(V::mask(0..ow))),
            (true, false) => (ow - 8, Some(V::mask(8 - ow % 8..8))),
        };
        let acc = dw_tile::<V, R>(x.add(j), taps, k, call.lay);
        for (a, acc) in acc.into_iter().enumerate() {
            let mut v = acc.add(bias).act(call.act);
            match keep {
                Some(lanes) if ow < 8 => v.store_masked(y.add(a * ow), lanes),
                _ => v.store(y.add(a * ow + j)),
            }
            if let Some(lanes) = keep {
                v = v.and(lanes);
            }
            if a >= skip {
                *sum = sum.add(v);
            }
        }
    }
}

/// One output plane of the depthwise kernel over the image `img` (see
/// [`PlaneImage`]); returns the plane's sum. Bands of four
/// output rows, then a band on the last four rows or single rows ([`Taps`]
/// says how taps are held). Callers pass the kernel's shape
/// `k = [kh, kw, sh, sw]` as literals where it is known, so this body is
/// compiled per shape.
///
/// # Safety
///
/// [`Lanes`]' CPU contract. Vector loads run up to seven floats past a
/// row's last tap column (the lanes of a narrow plane that are never
/// stored): `img` must hold, behind the last row any window reads, that
/// many floats — what [`depthwise_padded_plane`] asserts — and `y` must
/// hold `oh * ow` outputs.
#[inline(always)]
unsafe fn dw_plane<V: Lanes>(img: &[f32], kern: &[f32], k: [usize; 4], call: &DwCall, y: &mut [f32]) -> f32 {
    let [kh, kw, sh, _] = k;
    let (img, kern, y) = (img.as_ptr(), kern.as_ptr(), y.as_mut_ptr());
    let splat_once = kh * kw <= 25;
    let mut held = [V::splat(0.0); 25];
    if splat_once {
        for (i, h) in held.iter_mut().enumerate().take(kh * kw) {
            *h = V::splat(*kern.add(i));
        }
    }
    let taps = Taps { held: &held, kern, once: splat_once };
    let mut sum = V::splat(0.0);
    let mut oy = 0;
    while oy + 4 <= call.oh {
        dw_rows::<V, 4>(img.add(oy * sh * call.lay.stride), taps, k, call, y.add(oy * call.ow), &mut sum, 0);
        oy += 4;
    }
    // A plane one vector wide ends with a band on its last four rows, not
    // with single rows, each one long chain of adds: the rows it shares with
    // the band before are rewritten, and the sum adds the rest in row order,
    // as single rows would.
    if oy < call.oh && call.oh >= 4 && call.ow <= 8 {
        let top = call.oh - 4;
        dw_rows::<V, 4>(img.add(top * sh * call.lay.stride), taps, k, call, y.add(top * call.ow), &mut sum, oy - top);
        oy = call.oh;
    }
    while oy < call.oh {
        dw_rows::<V, 1>(img.add(oy * sh * call.lay.stride), taps, k, call, y.add(oy * call.ow), &mut sum, 0);
        oy += 1;
    }
    let s = sum.to_array();
    ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]))
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
) -> f32 {
    match [spec.kh, spec.kw, spec.sh, spec.sw] {
        [3, 3, 1, 1] => dw_plane::<V>(img, kern, [3, 3, 1, 1], call, y),
        [5, 5, 1, 1] => dw_plane::<V>(img, kern, [5, 5, 1, 1], call, y),
        [5, 5, 2, 2] => dw_plane::<V>(img, kern, [5, 5, 2, 2], call, y),
        [9, 9, 4, 4] => dw_plane::<V>(img, kern, [9, 9, 4, 4], call, y),
        [17, 17, 8, 8] => dw_plane::<V>(img, kern, [17, 17, 8, 8], call, y),
        k => dw_plane::<V>(img, kern, k, call, y),
    }
}

/// One output plane for [`run_lanes`]; built only by
/// [`depthwise_padded_plane`], after its bounds asserts.
struct PlaneKernel<'a> {
    img: &'a [f32],
    kern: &'a [f32],
    spec: &'a ConvSpec,
    call: &'a DwCall,
    y: &'a mut [f32],
}

// SAFETY: `depthwise_padded_plane` asserts `dw_plane`'s bounds contract
// before it builds one.
unsafe impl LaneKernel for PlaneKernel<'_> {
    type Out = f32;

    #[inline(always)]
    unsafe fn run<V: Lanes>(self) -> f32 {
        dw_plane_by_shape::<V>(self.img, self.kern, self.spec, self.call, self.y)
    }
}

/// One depthwise output plane over a zero-padded, phase-split input image
/// (see [`PlaneImage`], [`pad_plane`]): every window is in-bounds, so there
/// is no interior/border split. The one depthwise kernel of frozen plans,
/// the training forward and the stride-1 input gradient. Each output is its
/// taps added to zero one `mul`, one `add` at a time in `ky`-outer,
/// `kx`-inner order, then `act(acc + bias)` — the naive reference's value
/// exactly. Returns the plane's sum.
///
/// `avx2` allows the vector twin on a CPU that has it; the choice never
/// changes a bit.
pub(crate) fn depthwise_padded_plane(
    img: &[f32],
    kern: &[f32],
    spec: &ConvSpec,
    call: &DwCall,
    avx2: bool,
    y: &mut [f32],
) -> f32 {
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
    run_lanes(avx2, PlaneKernel { img, kern, spec, call, y })
}


/// Scratch of a gathered `dx` ([`GradPlane`]): `dy`'s rows, `row` floats
/// apart with `m = (kw - 1) / sw` zeros ahead and zeros behind, then a
/// staging row of padded columns `0 .. q_end * sw`; the interior lies in
/// phase columns `q_lo .. q_end`, eight at a time.
pub(crate) struct GatherRows {
    m: usize,
    q_lo: usize,
    q_end: usize,
    row: usize,
}

impl GatherRows {
    pub(crate) fn new(w: usize, ow: usize, spec: &ConvSpec) -> Self {
        let m = (spec.kw - 1) / spec.sw;
        let (q_lo, q_hi) = (spec.pw / spec.sw, (spec.pw + w.max(1) - 1) / spec.sw);
        let q_end = q_lo + (q_hi + 1 - q_lo).next_multiple_of(8);
        Self { m, q_lo, q_end, row: q_end.max(ow) + m }
    }

    /// Scratch floats for `oh` rows of `dy` and the staging row.
    pub(crate) fn floats(&self, oh: usize, spec: &ConvSpec) -> usize {
        oh * self.row + self.q_end * spec.sw
    }
}

/// Both gradients of one depthwise plane wherever the stride-1 stencil does
/// not reach (the silo's 5/s2, 9/s4, 17/s8 above all), with the reference
/// walk's bits (pixels in raster order, a zero-`dy` pixel skipped):
///
/// - `dW`: each tap sums its pixels in raster order, the taps held as
///   register lanes (kernel row `ky` as `ceil(kw / 8)` vectors of the padded
///   `x` image), twelve vectors per walk over the pixels;
/// - `dx` is gathered: each interior element sums its terms in a register in
///   the walk's order (output rows, then columns, ascending) and is written
///   once. Eight columns of one phase share a vector: column `q sw + p`
///   takes `dy[oy][q - m] * k[ky][p + m sw]`, so one load of `dy` serves
///   every phase, and the phases are zipped back into columns. A zero-`dy`
///   term is masked to +0, which leaves a sum begun at +0 unchanged (it
///   never becomes −0): the kept terms arrive in the reference's order.
///
/// `xpad`: the padded `x` image, rows `stride` apart, eight floats of slack
/// behind; `dx`: the taps, scratch laid out by [`GatherRows`] (zero outside
/// `dy` on entry and on return) and the `dx` plane.
pub(crate) struct GradPlane<'a> {
    pub(crate) xpad: &'a [f32],
    pub(crate) stride: usize,
    pub(crate) dyplane: &'a [f32],
    pub(crate) spec: &'a ConvSpec,
    pub(crate) w: usize,
    pub(crate) oh: usize,
    pub(crate) ow: usize,
    pub(crate) dkern: &'a mut [f32],
    pub(crate) dx: Option<(&'a [f32], &'a mut [f32], &'a mut [f32])>,
}

// SAFETY: `grad_plane` asserts the reach of every raw load before it runs.
unsafe impl LaneKernel for GradPlane<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<V: Lanes>(self) {
        let s = self.spec;
        match [s.kh, s.kw, s.sh, s.sw] {
            [5, 5, 2, 2] => grad_plane::<V>(self, [5, 5, 2, 2]),
            [9, 9, 4, 4] => grad_plane::<V>(self, [9, 9, 4, 4]),
            [17, 17, 8, 8] => grad_plane::<V>(self, [17, 17, 8, 8]),
            k => grad_plane::<V>(self, k),
        }
    }
}

/// [`GradPlane`]'s body, compiled per kernel shape `[kh, kw, sh, sw]`.
///
/// # Safety
///
/// [`Lanes`]' CPU contract (the loads' reach is asserted here).
#[inline(always)]
unsafe fn grad_plane<V: Lanes>(g: GradPlane<'_>, [kh, kw, sh, sw]: [usize; 4]) {
    let GradPlane { xpad, stride, dyplane, spec, w, oh, ow, dkern, dx } = g;
    assert!(oh * ow > 0 && dyplane.len() == oh * ow && dkern.len() >= kh * kw, "depthwise gradient plane");
    // Tap vector `t` is row `t / vw` of the kernel, columns `8 (t % vw)..`.
    let vw = kw.div_ceil(8);
    let reach = ((oh - 1) * sh + kh - 1) * stride + (ow - 1) * sw + 8 * vw;
    assert!(reach <= xpad.len(), "depthwise gradient image {} of {reach}", xpad.len());
    let x = xpad.as_ptr();
    for t0 in (0..kh * vw).step_by(12) {
        let n = 12.min(kh * vw - t0);
        let off: [usize; 12] = std::array::from_fn(|i| (t0 + i) / vw * stride + (t0 + i) % vw * 8);
        let mut acc = [V::splat(0.0); 12];
        for (oy, dyrow) in dyplane.chunks_exact(ow).enumerate() {
            for (ox, &gv) in dyrow.iter().enumerate() {
                if gv == 0.0 {
                    continue;
                }
                let (gv, at) = (V::splat(gv), oy * sh * stride + ox * sw);
                for (i, acc) in acc.iter_mut().enumerate() {
                    if i < n {
                        *acc = acc.add(gv.mul(V::load(x.add(at + off[i]))));
                    }
                }
            }
        }
        for (i, acc) in acc.into_iter().enumerate().take(n) {
            let (ky, c) = ((t0 + i) / vw, (t0 + i) % vw * 8);
            let lanes = (kw - c).min(8);
            dkern[ky * kw + c..][..lanes].copy_from_slice(&acc.to_array()[..lanes]);
        }
    }

    let Some((kern, work, dxplane)) = dx else { return };
    let rows = GatherRows::new(w, ow, spec);
    assert!(
        work.len() >= rows.floats(oh, spec) && kern.len() >= kh * kw && dxplane.len() % w == 0,
        "depthwise gradient gather scratch"
    );
    let (dypad, stage) = work.split_at_mut(oh * rows.row);
    for (dst, src) in dypad.chunks_exact_mut(rows.row).zip(dyplane.chunks_exact(ow)) {
        dst[rows.m..rows.m + ow].copy_from_slice(src);
    }
    // The last column step, from the literal shape.
    let mmax = (kw - 1) / sw;
    for (iy, dxrow) in dxplane.chunks_exact_mut(w).enumerate() {
        // Padded row `py` takes tap row `a + sh j` from output row `r - j`;
        // `j` descends, so output rows ascend.
        let py = iy + spec.ph;
        let (a, r) = (py % sh, py / sh);
        let js = (r + 1).saturating_sub(oh)..if a < kh { ((kh - 1 - a) / sh).min(r) + 1 } else { 0 };
        for q0 in (rows.q_lo..rows.q_end).step_by(8) {
            for p0 in (0..sw).step_by(8) {
                let np = (sw - p0).min(8);
                let mut acc = [V::splat(0.0); 8];
                for j in js.clone().rev() {
                    let (row, ky) = (&dypad[(r - j) * rows.row..][..rows.row], a + sh * j);
                    // Output column `q - m` of each lane's `q`, `m` descending.
                    for m in (0..=mmax).rev() {
                        let v = V::load(row[q0 + mmax - m..][..8].as_ptr());
                        let nz = v.nonzero();
                        for (p, acc) in acc.iter_mut().enumerate() {
                            let kx = p0 + p + sw * m;
                            if p < np && kx < kw {
                                *acc = acc.add(v.mul(V::splat(kern[ky * kw + kx])).and(nz));
                            }
                        }
                    }
                }
                if matches!(sw, 1 | 2 | 4 | 8) {
                    zip_rounds(&mut acc, sw);
                    for (i, v) in acc.into_iter().take(sw).enumerate() {
                        v.store(stage[q0 * sw + 8 * i..][..8].as_mut_ptr());
                    }
                } else {
                    for (p, v) in acc.into_iter().take(np).enumerate() {
                        for (l, v) in v.to_array().into_iter().enumerate() {
                            stage[(q0 + l) * sw + p0 + p] = v;
                        }
                    }
                }
            }
        }
        dxrow.copy_from_slice(&stage[spec.pw..spec.pw + w]);
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every lane operation the deal, the gather and the upsample add, on
    /// one twin: unzip, zip, permute and the nonzero mask of `a` and `b`.
    struct Ops([f32; 8], [f32; 8]);

    // SAFETY: loads and stores of eight-float arrays only.
    unsafe impl LaneKernel for Ops {
        type Out = Vec<u32>;

        unsafe fn run<V: Lanes>(self) -> Vec<u32> {
            let (a, b) = (V::load(self.0.as_ptr()), V::load(self.1.as_ptr()));
            let idx = V::load([5u32, 0, 7, 7, 2, 1, 3, 6].as_ptr().cast());
            let ((e, o), (lo, hi)) = (a.unzip(b), a.zip(b));
            [e, o, lo, hi, a.permute(idx), a.nonzero(), b.sub(a)].iter().flat_map(|v| v.to_array().map(f32::to_bits)).collect()
        }
    }

    #[test]
    fn lane_twins_agree_on_the_shuffles() {
        let a = [1.5, -0.0, 0.0, f32::NAN, -2.0, 3.25, 1e-40, -7.0];
        let b: [f32; 8] = std::array::from_fn(|l| 10.0 + l as f32);
        let scalar = run_lanes(false, Ops(a, b));
        assert_eq!(scalar, run_lanes(true, Ops(a, b)), "[f32; 8] twin vs avx2");
        let lane = |v: usize, l: usize| f32::from_bits(scalar[8 * v + l]);
        assert_eq!((lane(0, 6), lane(1, 0), lane(2, 1), lane(3, 7)), (10.0 + 4.0, -0.0, 10.0, 17.0));
        assert_eq!((lane(5, 1).to_bits(), lane(5, 3).to_bits()), (0, u32::MAX), "-0 is zero, NaN is not");
    }

    #[test]
    fn deal_twins_agree_and_follow_the_phase_layout() {
        // Both twins of the image prep against its definition: padded
        // column `x` of row `y` in phase `x % sw` at column `x / sw`, zero
        // outside the plane — at the vector strides and one without a
        // vector deal, with and without a lead, on odd widths.
        let mut rng = StdRng::seed_from_u64(21);
        for (k, sw) in [(5, 2), (9, 4), (17, 8), (3, 3), (3, 2)] {
            for (w, h) in [(1, 1), (7, 3), (16, 2), (17, 5), (56, 4), (61, 2)] {
                for pw in [k / 2, 1, 0] {
                    let spec = ConvSpec::depthwise(k, sw, 1).with_padding(1, pw);
                    let plane = crate::Tensor::randn(crate::Shape::new(1, 1, h, w), 1.5, &mut rng).into_vec();
                    let lay = PlaneImage::new(h, w, &spec);
                    let image = |avx2: bool| {
                        let mut img = vec![0.0f32; lay.floats(w)];
                        run_lanes(avx2, Pad { plane: &plane, w, ph: 1, pw, lay, img: &mut img });
                        img.truncate(lay.len());
                        img
                    };
                    let (twin, wide) = (image(false), image(true));
                    let what = format!("k{k} s{sw} {h}x{w} pw {pw}");
                    assert_eq!(twin.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), wide.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), "{what}: twins");
                    let mut want = vec![0.0f32; lay.len()];
                    for (y, row) in plane.chunks_exact(w).enumerate() {
                        for (c, &v) in row.iter().enumerate() {
                            let x = c + pw;
                            want[x % sw * lay.phase_len + (y + 1) * lay.stride + x / sw] = v;
                        }
                    }
                    assert!(twin == want, "{what}: layout");
                }
            }
        }
    }
}
