//! Int8 quantized GEMM: per-row (output-channel) symmetric int8 weights
//! against dynamically quantized unsigned activations, with a fused
//! dequantize + bias + activation epilogue. No model path calls it: frozen
//! int8 convs keep int8 weights and run the f32 kernels on them
//! ([`crate::PlanKind::Int8`]); only [`quantize_weights_per_row`] serves them.
//! The kernels stay for the benchmark's int8 kernel rates.
//!
//! # Quantization scheme
//!
//! * **Weights** are quantized per output channel at pack time:
//!   `scale_w[r] = max|w[r, :]| / 127`, `q = round(w / scale_w[r])` clamped
//!   to `[-127, 127]` (round half away from zero, i.e. `f32::round`).
//! * **Activations** are quantized per tensor at call time from an absmax
//!   scan: `scale_a = absmax / 63`, `q = round(v / scale_a)` clamped to
//!   `[-63, 63]`, then biased by the zero point [`INT8_ACT_ZERO_POINT`]`=
//!   64` into an unsigned byte in `[1, 127]`. Rounding here is the
//!   branch-free `trunc(t + copysign(0.5, t))` (half away from zero; see
//!   `quant_round`) — unlike `f32::round` it can differ by one step when
//!   `t + 0.5` itself rounds, but it keeps the quantize loops free of libm
//!   calls, and scalar and vector dispatches share the formula exactly.
//!
//! The 7-bit activation range is deliberate: `_mm256_maddubs_epi16`
//! multiplies unsigned × signed bytes and **saturates** the pairwise i16
//! sum. With `|a| <= 127` (biased) and `|w| <= 127` the worst pair is
//! `127*127*2 = 32258 < 32767`, so saturation can never fire and the i32
//! accumulation is exact. The scalar fallback still emulates the saturating
//! semantics instruction-for-instruction, so scalar and AVX2 kernels are
//! **bit-identical** even for hand-packed out-of-range panels.
//!
//! The zero-point bias is corrected in the epilogue: since every activation
//! byte carries `+64`, the raw accumulator holds `sum(a_q * w_q) + 64 *
//! sum(w_q[row, :])`; subtracting `64 * wsum[row]` (precomputed at pack
//! time) recovers the symmetric product, which then dequantizes as
//! `scale_a * scale_w[row] * acc`.
//!
//! # Blocking
//!
//! The engine mirrors the f32 one in [`crate::matmul`]: `6 x 16` register
//! micro-tile, `96 x 512` macro-tiles fanned out with
//! [`crate::par::parallel_tiles`]. Depth is processed in **quads** of 4
//! `k`-values (the `maddubs`/`madd` pair consumes 4 bytes per lane), and a
//! macro-tile accumulates its full depth in i32 before a single dequantized
//! write-back — integer accumulation is exact, so no KC-slice ordering
//! concerns exist and results are byte-identical for any thread count.

#[cfg(target_arch = "x86_64")]
use crate::matmul::act_avx2;
use crate::matmul::{Epilogue, EpilogueAct};
use crate::par::{parallel_tiles, SyncPtr};
use crate::scratch;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::OnceLock;

/// Micro-kernel rows (register-tile height), as in the f32 engine.
const QMR: usize = 6;
/// Micro-kernel columns (two 8-lane i32 AVX2 accumulators per row).
const QNR: usize = 16;
/// Depth values consumed per `maddubs`+`madd` step.
const QK: usize = 4;
/// Macro-tile height (multiple of `QMR`).
const QMC: usize = 96;
/// Macro-tile width (multiple of `QNR`).
const QNC: usize = 512;

/// Zero point added to quantized activations so they fit the unsigned
/// operand of `maddubs`: `byte = q + 64` with `q` in `[-63, 63]`.
pub const INT8_ACT_ZERO_POINT: i32 = 64;
/// Quantized activation magnitude bound (7-bit symmetric).
pub const INT8_ACT_QMAX: f32 = 63.0;

/// Activation scale for a tensor with the given absolute maximum. A
/// constant-zero tensor gets scale 1 (all bytes land on the zero point).
pub fn int8_act_scale(absmax: f32) -> f32 {
    if absmax > 0.0 {
        absmax / INT8_ACT_QMAX
    } else {
        1.0
    }
}

/// Round-half-away-from-zero as `trunc(t + copysign(0.5, t))`: branch-free
/// float ops plus one truncating cast, so the quantization loops
/// auto-vectorize at the baseline target (`f32::round` lowers to a libm
/// call there and dominated the int8 path's runtime). Operands are
/// pre-clamped well inside i32 range, so the cast never saturates.
#[inline(always)]
fn quant_round(t: f32) -> i32 {
    (t + 0.5f32.copysign(t)) as i32
}

/// Quantizes activations into biased unsigned bytes:
/// `round(clamp(v / scale, -63, 63)) + 64` with [`quant_round`] semantics
/// (half away from zero; clamping before rounding is equivalent because the
/// range ends are integers and rounding is monotone).
///
/// # Panics
///
/// Panics if `dst` is shorter than `src`.
pub fn quantize_activations(src: &[f32], scale: f32, dst: &mut [u8]) {
    assert!(dst.len() >= src.len(), "activation buffer too short");
    let inv = 1.0 / scale;
    #[cfg(target_arch = "x86_64")]
    if int8_use_avx2() {
        // SAFETY: AVX2 presence checked by the dispatch; slice extents
        // checked above.
        unsafe { quantize_activations_avx2(src, inv, dst) };
        return;
    }
    quantize_activations_scalar(src, inv, dst);
}

fn quantize_activations_scalar(src: &[f32], inv: f32, dst: &mut [u8]) {
    for (d, &v) in dst.iter_mut().zip(src) {
        let q = quant_round((v * inv).clamp(-INT8_ACT_QMAX, INT8_ACT_QMAX));
        *d = (q + INT8_ACT_ZERO_POINT) as u8;
    }
}

/// Vector form of [`quantize_activations_scalar`] with identical per-lane
/// arithmetic (mul, min/max clamp, copysign-0.5 add, truncating convert) —
/// finite inputs quantize bit-identically under either dispatch. 32 floats
/// per step; the i32 lanes sit in `[1, 127]`, so the signed `packs` /
/// unsigned `packus` narrowing chain never saturates (the
/// `permutevar8x32` undoes the packs' 128-bit-lane interleave).
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and `dst.len() >= src.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_activations_avx2(src: &[f32], inv: f32, dst: &mut [u8]) {
    use std::arch::x86_64::*;
    let n = src.len();
    let vinv = _mm256_set1_ps(inv);
    let vmin = _mm256_set1_ps(-INT8_ACT_QMAX);
    let vmax = _mm256_set1_ps(INT8_ACT_QMAX);
    let sign = _mm256_set1_ps(-0.0);
    let half = _mm256_set1_ps(0.5);
    let zp = _mm256_set1_epi32(INT8_ACT_ZERO_POINT);
    let fix = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    let mut i = 0;
    while i + 32 <= n {
        let quad = |off: usize| {
            let t = _mm256_mul_ps(_mm256_loadu_ps(src.as_ptr().add(i + off)), vinv);
            let t = _mm256_min_ps(_mm256_max_ps(t, vmin), vmax);
            let h = _mm256_or_ps(_mm256_and_ps(t, sign), half);
            _mm256_add_epi32(_mm256_cvttps_epi32(_mm256_add_ps(t, h)), zp)
        };
        let ab = _mm256_packs_epi32(quad(0), quad(8));
        let cd = _mm256_packs_epi32(quad(16), quad(24));
        let bytes = _mm256_permutevar8x32_epi32(_mm256_packus_epi16(ab, cd), fix);
        _mm256_storeu_si256(dst.as_mut_ptr().add(i) as *mut __m256i, bytes);
        i += 32;
    }
    quantize_activations_scalar(&src[i..], inv, &mut dst[i..n]);
}

/// Per-row symmetric int8 weight quantization: `scale[r] = max|w[r,:]| /
/// 127` (1.0 for an all-zero row), `q = clamp(round(w / scale[r]), -127,
/// 127)`. Returns the quantized rows and their scales.
///
/// # Panics
///
/// Panics if `w.len() != m * k`.
pub fn quantize_weights_per_row(m: usize, k: usize, w: &[f32]) -> (Vec<i8>, Vec<f32>) {
    assert_eq!(w.len(), m * k, "w must be m*k");
    let mut q = vec![0i8; m * k];
    let mut scales = vec![1.0f32; m];
    for r in 0..m {
        let row = &w[r * k..(r + 1) * k];
        let absmax = row.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let scale = if absmax > 0.0 { absmax / 127.0 } else { 1.0 };
        scales[r] = scale;
        let inv = 1.0 / scale;
        for (d, &v) in q[r * k..(r + 1) * k].iter_mut().zip(row) {
            *d = (v * inv).round().clamp(-127.0, 127.0) as i8;
        }
    }
    (q, scales)
}

/// Padded row count of one full `QMC`-high macro-tile block.
const QMC_PAD: usize = QMC.div_ceil(QMR) * QMR;

/// The left operand of the int8 blocked GEMM: per-output-channel quantized
/// weights packed once into quad-interleaved `QMR`-row panels, with the f32
/// dequantization scales and the zero-point correction row sums alongside.
#[derive(Clone, Debug)]
pub struct PackedGemmAI8 {
    data: Vec<i8>,
    scales: Vec<f32>,
    wsums: Vec<i32>,
    m: usize,
    k: usize,
    kq: usize,
}

impl PackedGemmAI8 {
    /// Quantizes a row-major f32 `[m, k]` matrix per row and packs it. The
    /// packed image is laid out as macro-tile blocks in `i0` order; within a
    /// block, panel `ir` stores the 4 bytes of row `r`, depth quad `q` at
    /// `ir*QMR*kq*4 + q*QMR*4 + r*4`, zero-padded to full `QMR` rows and
    /// whole quads so the micro-kernel never branches on an edge.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != m * k` or either dimension is zero.
    pub fn pack_quantize(m: usize, k: usize, w: &[f32]) -> Self {
        assert!(m > 0 && k > 0, "packed int8 GEMM operand must be non-empty");
        let (q, scales) = quantize_weights_per_row(m, k, w);
        let wsums = (0..m)
            .map(|r| q[r * k..(r + 1) * k].iter().map(|&v| v as i32).sum())
            .collect();
        let kq = k.div_ceil(QK);
        let mut data = vec![0i8; Self::packed_len(m, kq)];
        let mut off = 0;
        for i0 in (0..m).step_by(QMC) {
            let mc = QMC.min(m - i0);
            for ir in 0..mc.div_ceil(QMR) {
                let rows = QMR.min(mc - ir * QMR);
                for qi in 0..kq {
                    let at = off + ir * QMR * kq * QK + qi * QMR * QK;
                    for r in 0..rows {
                        for dk in 0..QK {
                            let p = qi * QK + dk;
                            if p < k {
                                data[at + r * QK + dk] = q[(i0 + ir * QMR + r) * k + p];
                            }
                        }
                    }
                }
            }
            off += mc.div_ceil(QMR) * QMR * kq * QK;
        }
        Self { data, scales, wsums, m, k, kq }
    }

    fn packed_len(m: usize, kq: usize) -> usize {
        (0..m)
            .step_by(QMC)
            .map(|i0| QMC.min(m - i0).div_ceil(QMR) * QMR * kq * QK)
            .sum()
    }

    /// The full-depth panel block for macro-tile `ic`.
    #[inline]
    fn block(&self, ic: usize) -> &[i8] {
        let i0 = ic * QMC;
        let rows_padded = QMC.min(self.m - i0).div_ceil(QMR) * QMR;
        let off = ic * QMC_PAD * self.kq * QK;
        &self.data[off..off + rows_padded * self.kq * QK]
    }

    /// Packed row count (`m` of the original matrix).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Packed depth (`k` of the original matrix).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Resident bytes of the packed image plus its f32/i32 sidecars.
    pub fn bytes(&self) -> usize {
        self.data.len() + self.scales.len() * 4 + self.wsums.len() * 4
    }
}

/// Packs depth-major `[k, n]` unsigned activation bytes for columns
/// `j0..j0+nc` into quad-interleaved `QNR`-column panels: panel `jr` stores
/// column `j`, depth `p = 4q + dk` at `jr*QNR*kq*4 + q*QNR*4 + j*4 + dk`.
/// `dst` must be pre-zeroed (k-tail and column padding pair with zero
/// weights / discarded outputs).
fn qpack_b(b: &[u8], k: usize, n: usize, j0: usize, nc: usize, kq: usize, dst: &mut [u8]) {
    for jr in 0..nc.div_ceil(QNR) {
        let base = jr * QNR * kq * QK;
        let cols = QNR.min(nc - jr * QNR);
        let col0 = j0 + jr * QNR;
        // Full 16-column panels with a full depth quad are a 4x16 byte
        // transpose; two rounds of SSE2 unpacks do it in 4 loads + 4 stores
        // instead of 64 single-byte writes. Output bytes are identical to
        // the scalar tail loop (pure data movement).
        #[cfg(target_arch = "x86_64")]
        let p0 = if cols == QNR {
            use std::arch::x86_64::*;
            for q in 0..k / QK {
                // SAFETY: rows `4q..4q+3` are all `< k` and the 16 columns
                // from `col0` fit inside the row (`col0 + 16 <= n`), so each
                // load reads in-bounds; the 64 output bytes land inside this
                // panel's `kq * 64`-byte region.
                unsafe {
                    let row = |dk: usize| {
                        _mm_loadu_si128(b.as_ptr().add((q * QK + dk) * n + col0) as *const __m128i)
                    };
                    let (r0, r1, r2, r3) = (row(0), row(1), row(2), row(3));
                    let t0 = _mm_unpacklo_epi8(r0, r1);
                    let t1 = _mm_unpackhi_epi8(r0, r1);
                    let t2 = _mm_unpacklo_epi8(r2, r3);
                    let t3 = _mm_unpackhi_epi8(r2, r3);
                    let out = dst.as_mut_ptr().add(base + q * QNR * QK);
                    _mm_storeu_si128(out as *mut __m128i, _mm_unpacklo_epi16(t0, t2));
                    _mm_storeu_si128(out.add(16) as *mut __m128i, _mm_unpackhi_epi16(t0, t2));
                    _mm_storeu_si128(out.add(32) as *mut __m128i, _mm_unpacklo_epi16(t1, t3));
                    _mm_storeu_si128(out.add(48) as *mut __m128i, _mm_unpackhi_epi16(t1, t3));
                }
            }
            k / QK * QK
        } else {
            0
        };
        #[cfg(not(target_arch = "x86_64"))]
        let p0 = 0;
        for p in p0..k {
            let (q, dk) = (p / QK, p % QK);
            let brow = &b[p * n + col0..p * n + col0 + cols];
            let at = base + q * QNR * QK + dk;
            for (j, &bv) in brow.iter().enumerate() {
                dst[at + j * QK] = bv;
            }
        }
    }
}

/// Portable micro-kernel, instruction-for-instruction equivalent to
/// [`qmk_avx2`]: per depth quad and column, two saturating-i16 byte-pair
/// products (`maddubs`) are widened and summed exactly (`madd` against
/// ones), then accumulated in wrapping i32 (`paddd` wraps).
fn qmk_scalar(kq: usize, ap: &[i8], bp: &[u8], acc: &mut [[i32; QNR]; QMR]) {
    #[inline(always)]
    fn maddubs(a0: u8, w0: i8, a1: u8, w1: i8) -> i32 {
        ((a0 as i32) * (w0 as i32) + (a1 as i32) * (w1 as i32)).clamp(-32768, 32767)
    }
    for q in 0..kq {
        let a_at = q * QMR * QK;
        let b_at = q * QNR * QK;
        for (r, accrow) in acc.iter_mut().enumerate() {
            let w = &ap[a_at + r * QK..a_at + r * QK + QK];
            for (j, av) in accrow.iter_mut().enumerate() {
                let b = &bp[b_at + j * QK..b_at + j * QK + QK];
                let s01 = maddubs(b[0], w[0], b[1], w[1]);
                let s23 = maddubs(b[2], w[2], b[3], w[3]);
                *av = av.wrapping_add(s01 + s23);
            }
        }
    }
}

/// AVX2 micro-kernel: 6x16 i32 tile in twelve ymm accumulators, four depth
/// values per `_mm256_maddubs_epi16` + `_mm256_madd_epi16` step.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2, `ap` points to at least
/// `kq * QMR * 4` bytes and `bp` to at least `kq * QNR * 4` bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn qmk_avx2(kq: usize, ap: *const i8, bp: *const u8, acc: &mut [[i32; QNR]; QMR]) {
    use std::arch::x86_64::*;
    let ones = _mm256_set1_epi16(1);
    let mut lo = [_mm256_setzero_si256(); QMR];
    let mut hi = [_mm256_setzero_si256(); QMR];
    for q in 0..kq {
        let bbase = bp.add(q * QNR * QK);
        let b0 = _mm256_loadu_si256(bbase as *const __m256i);
        let b1 = _mm256_loadu_si256(bbase.add(32) as *const __m256i);
        let abase = ap.add(q * QMR * QK);
        for r in 0..QMR {
            let w = _mm256_set1_epi32((abase.add(r * QK) as *const i32).read_unaligned());
            lo[r] = _mm256_add_epi32(lo[r], _mm256_madd_epi16(_mm256_maddubs_epi16(b0, w), ones));
            hi[r] = _mm256_add_epi32(hi[r], _mm256_madd_epi16(_mm256_maddubs_epi16(b1, w), ones));
        }
    }
    for r in 0..QMR {
        _mm256_storeu_si256(acc[r].as_mut_ptr() as *mut __m256i, lo[r]);
        _mm256_storeu_si256(acc[r].as_mut_ptr().add(8) as *mut __m256i, hi[r]);
    }
}

fn force_scalar_flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| {
        let on = std::env::var_os("REVBIFPN_INT8_FORCE_SCALAR").is_some_and(|v| v != "0");
        AtomicBool::new(on)
    })
}

/// Forces the int8 GEMM onto the scalar micro-kernel (`true`) or restores
/// runtime CPU dispatch (`false`). Also settable via the
/// `REVBIFPN_INT8_FORCE_SCALAR` environment variable (read once at first
/// use). The two kernels are bit-identical; this exists so non-AVX2
/// behavior stays testable on AVX2 hosts (CI runs a forced-scalar pass).
pub fn set_int8_force_scalar(on: bool) {
    force_scalar_flag().store(on, Ordering::Relaxed);
}

/// AVX2 dispatch for the int8 kernels: the CPU check minus the forced-scalar
/// switch.
fn int8_use_avx2() -> bool {
    crate::dw_plane::cpu_has_avx2() && !force_scalar_flag().load(Ordering::Relaxed)
}

/// Vector write-back for one output row of the int8 GEMM: dequantize
/// (`(acc - corr) * scale`), bias, activation, store, and fold the row's
/// absolute maximum — per-lane arithmetic identical to the scalar loop in
/// [`qgemm_prepacked`] (wrapping i32 subtract, round-to-nearest convert,
/// same-order float ops), so both dispatches write the same bits.
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and `crow.len() == cols <= QNR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn qdequant_row_avx2(
    accrow: &[i32; QNR],
    cols: usize,
    corr: i32,
    scale: f32,
    bias: Option<f32>,
    act: EpilogueAct,
    crow: &mut [f32],
) -> f32 {
    use std::arch::x86_64::*;
    let vcorr = _mm256_set1_epi32(corr);
    let vscale = _mm256_set1_ps(scale);
    let vbias = _mm256_set1_ps(bias.unwrap_or(0.0));
    let absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
    let mut vmax = _mm256_setzero_ps();
    let mut j = 0;
    while j + 8 <= cols {
        let a = _mm256_loadu_si256(accrow.as_ptr().add(j) as *const __m256i);
        let mut v = _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_sub_epi32(a, vcorr)), vscale);
        if bias.is_some() {
            v = _mm256_add_ps(v, vbias);
        }
        v = act_avx2(act, v);
        _mm256_storeu_ps(crow.as_mut_ptr().add(j), v);
        vmax = _mm256_max_ps(vmax, _mm256_and_ps(v, absmask));
        j += 8;
    }
    let m = _mm_max_ps(_mm256_castps256_ps128(vmax), _mm256_extractf128_ps(vmax, 1));
    let m = _mm_max_ps(m, _mm_movehl_ps(m, m));
    let m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
    let mut tmax = _mm_cvtss_f32(m);
    for jj in j..cols {
        let mut v = accrow[jj].wrapping_sub(corr) as f32 * scale;
        if let Some(b) = bias {
            v += b;
        }
        let v = act.apply(v);
        crow[jj] = v;
        tmax = tmax.max(v.abs());
    }
    tmax
}

#[inline]
fn qmicrokernel(kq: usize, ap: &[i8], bp: &[u8], acc: &mut [[i32; QNR]; QMR]) {
    debug_assert!(ap.len() >= kq * QMR * QK && bp.len() >= kq * QNR * QK);
    #[cfg(target_arch = "x86_64")]
    if int8_use_avx2() {
        // SAFETY: feature presence checked above; pointer extents checked by
        // the debug assert and guaranteed by the packed-panel layout.
        unsafe { qmk_avx2(kq, ap.as_ptr(), bp.as_ptr(), acc) };
        return;
    }
    qmk_scalar(kq, ap, bp, acc);
}

/// `c = epilogue(dequant(pa @ bq))` against a persistently packed-and-
/// quantized left operand and a `[k, n]` buffer of biased unsigned
/// activation bytes (see [`quantize_activations`]). `a_scale` is the
/// activation scale; the per-element transform is
/// `epi.apply(row, (acc - 64 * wsum[row]) * a_scale * scale_w[row])`.
///
/// Returns the absolute maximum of the written outputs (the next quantized
/// layer's absmax scan, folded into this write-back), computed per tile and
/// max-reduced — order-independent, so byte-identical for any thread count.
///
/// # Panics
///
/// Panics if slice lengths disagree with `(pa.m(), pa.k(), n)` or a bias is
/// present with length != `pa.m()`.
pub fn qgemm_prepacked(
    pa: &PackedGemmAI8,
    n: usize,
    bq: &[u8],
    a_scale: f32,
    c: &mut [f32],
    epi: &Epilogue<'_>,
) -> f32 {
    let (m, k, kq) = (pa.m, pa.k, pa.kq);
    assert_eq!(bq.len(), k * n, "bq must be k*n");
    assert_eq!(c.len(), m * n, "c must be m*n");
    if n == 0 {
        return 0.0;
    }
    let n_ic = m.div_ceil(QMC);
    let n_jc = n.div_ceil(QNC);
    let cptr = SyncPtr::new(c.as_mut_ptr());
    // Non-negative f32 max over u32 bit patterns is monotone, so fetch_max
    // on the bits computes the true maximum deterministically.
    let gmax = AtomicU32::new(0);
    parallel_tiles(n_ic * n_jc, |tile| {
        let (ic, jc) = (tile / n_jc, tile % n_jc);
        let i0 = ic * QMC;
        let j0 = jc * QNC;
        let mc = QMC.min(m - i0);
        let nc = QNC.min(n - j0);
        let npan = nc.div_ceil(QNR);
        let mut bpack = scratch::take_u8(npan * QNR * kq * QK);
        qpack_b(bq, k, n, j0, nc, kq, &mut bpack);
        let ablock = pa.block(ic);
        let mut tmax = 0.0f32;
        for jr in 0..npan {
            let bpanel = &bpack[jr * QNR * kq * QK..(jr + 1) * QNR * kq * QK];
            let cols = QNR.min(nc - jr * QNR);
            for ir in 0..mc.div_ceil(QMR) {
                let apanel = &ablock[ir * QMR * kq * QK..(ir + 1) * QMR * kq * QK];
                let rows = QMR.min(mc - ir * QMR);
                let mut acc = [[0i32; QNR]; QMR];
                qmicrokernel(kq, apanel, bpanel, &mut acc);
                for (r, accrow) in acc.iter().enumerate().take(rows) {
                    let row = i0 + ir * QMR + r;
                    let scale = a_scale * pa.scales[row];
                    let corr = INT8_ACT_ZERO_POINT * pa.wsums[row];
                    // SAFETY: this tile exclusively owns C rows i0..i0+mc x
                    // cols j0..j0+nc; tiles are disjoint.
                    let crow = unsafe {
                        let start = row * n + j0 + jr * QNR;
                        std::slice::from_raw_parts_mut(cptr.get().add(start), cols)
                    };
                    #[cfg(target_arch = "x86_64")]
                    if int8_use_avx2() {
                        // SAFETY: feature presence checked; `crow` has
                        // exactly `cols <= QNR` elements.
                        let m = unsafe {
                            qdequant_row_avx2(
                                accrow,
                                cols,
                                corr,
                                scale,
                                epi.bias_at(row),
                                epi.act(),
                                crow,
                            )
                        };
                        tmax = tmax.max(m);
                        continue;
                    }
                    for (cv, &av) in crow.iter_mut().zip(accrow) {
                        let v = epi.apply(row, av.wrapping_sub(corr) as f32 * scale);
                        *cv = v;
                        tmax = tmax.max(v.abs());
                    }
                }
            }
        }
        gmax.fetch_max(tmax.to_bits(), Ordering::Relaxed);
    });
    f32::from_bits(gmax.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::EpilogueAct;

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut s = seed.wrapping_mul(2862933555777941757).wrapping_add(1);
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    /// Exact integer oracle: quantize the same way, accumulate in i64 (no
    /// saturation can fire for in-range operands), dequantize, epilogue.
    fn qref(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        bq: &[u8],
        a_scale: f32,
        epi: &Epilogue<'_>,
    ) -> Vec<f32> {
        let (q, scales) = quantize_weights_per_row(m, k, a);
        let mut c = vec![0.0f32; m * n];
        for r in 0..m {
            let wsum: i64 = q[r * k..(r + 1) * k].iter().map(|&v| v as i64).sum();
            let scale = a_scale * scales[r];
            for j in 0..n {
                let mut acc = 0i64;
                for p in 0..k {
                    acc += (bq[p * n + j] as i64) * (q[r * k + p] as i64);
                }
                let v = (acc - INT8_ACT_ZERO_POINT as i64 * wsum) as f32 * scale;
                c[r * n + j] = epi.apply(r, v);
            }
        }
        c
    }

    #[test]
    fn weight_quantization_is_per_row_symmetric() {
        let w = vec![1.0, -2.0, 0.5, /* row 1 */ 0.0, 0.0, 0.0];
        let (q, s) = quantize_weights_per_row(2, 3, &w);
        assert_eq!(q[1], -127, "row max magnitude must hit -127");
        assert!((s[0] - 2.0 / 127.0).abs() < 1e-9);
        assert_eq!(&q[3..], &[0, 0, 0], "zero row stays zero");
        assert_eq!(s[1], 1.0, "zero row gets unit scale");
    }

    #[test]
    fn activation_quantization_is_biased_7_bit() {
        let src = [0.0, 1.0, -1.0, 0.25];
        let mut dst = [0u8; 4];
        let scale = int8_act_scale(1.0);
        quantize_activations(&src, scale, &mut dst);
        assert_eq!(dst[0], 64, "zero maps to the zero point");
        assert_eq!(dst[1], 64 + 63, "absmax maps to +63");
        assert_eq!(dst[2], 64 - 63, "-absmax maps to -63");
        assert_eq!(dst[3], 64 + 16, "quarter-scale maps to +16");
    }

    #[test]
    fn activation_quantization_scalar_matches_vector() {
        // Odd length exercises the vector body plus the scalar tail.
        let src = rand_vec(1037, 23);
        let absmax = src.iter().fold(0.0f32, |x, &v| x.max(v.abs()));
        let scale = int8_act_scale(absmax);
        let mut auto = vec![0u8; src.len()];
        let mut scal = vec![0u8; src.len()];
        set_int8_force_scalar(false);
        quantize_activations(&src, scale, &mut auto);
        set_int8_force_scalar(true);
        quantize_activations(&src, scale, &mut scal);
        set_int8_force_scalar(false);
        assert_eq!(auto, scal, "vector quantization must match the scalar path byte-for-byte");
    }

    #[test]
    fn qgemm_matches_the_integer_oracle() {
        for &(m, k, n) in &[(1, 1, 1), (3, 4, 5), (17, 9, 33), (97, 130, 101), (6, 520, 300)] {
            let a = rand_vec(m * k, 7);
            let b = rand_vec(k * n, 8);
            let absmax = b.iter().fold(0.0f32, |x, &v| x.max(v.abs()));
            let a_scale = int8_act_scale(absmax);
            let mut bq = vec![0u8; k * n];
            quantize_activations(&b, a_scale, &mut bq);
            let bias = rand_vec(m, 9);
            let epi = Epilogue::new(Some(&bias), EpilogueAct::HardSwish);
            let pa = PackedGemmAI8::pack_quantize(m, k, &a);
            assert_eq!((pa.m(), pa.k()), (m, k));
            assert!(pa.bytes() >= m * k);
            let mut c = vec![0.0f32; m * n];
            let got_max = qgemm_prepacked(&pa, n, &bq, a_scale, &mut c, &epi);
            let want = qref(m, k, n, &a, &bq, a_scale, &epi);
            assert_eq!(c, want, "({m},{k},{n}): engine must match the integer oracle");
            let want_max = want.iter().fold(0.0f32, |x, &v| x.max(v.abs()));
            assert_eq!(got_max, want_max, "({m},{k},{n}): folded absmax must be exact");
        }
    }

    #[test]
    fn scalar_and_avx2_kernels_are_bit_identical() {
        let (m, k, n) = (61, 259, 143);
        let a = rand_vec(m * k, 17);
        let b = rand_vec(k * n, 18);
        let absmax = b.iter().fold(0.0f32, |x, &v| x.max(v.abs()));
        let a_scale = int8_act_scale(absmax);
        let mut bq = vec![0u8; k * n];
        quantize_activations(&b, a_scale, &mut bq);
        let bias = rand_vec(m, 19);
        let epi = Epilogue::new(Some(&bias), EpilogueAct::Relu);
        let pa = PackedGemmAI8::pack_quantize(m, k, &a);
        let mut vect = vec![0.0f32; m * n];
        let mut scal = vec![0.0f32; m * n];
        set_int8_force_scalar(false);
        let mv = qgemm_prepacked(&pa, n, &bq, a_scale, &mut vect, &epi);
        set_int8_force_scalar(true);
        let ms = qgemm_prepacked(&pa, n, &bq, a_scale, &mut scal, &epi);
        set_int8_force_scalar(false);
        assert_eq!(vect, scal, "scalar fallback must be bit-identical to the vector path");
        assert_eq!(mv.to_bits(), ms.to_bits());
    }

    #[test]
    fn scalar_kernel_emulates_maddubs_saturation() {
        // Hand-built panels with 8-bit activations (outside what the
        // quantizer produces) force the i16 pair saturation: 255*127*2
        // saturates to 32767 per pair. The scalar kernel must clamp exactly
        // like the instruction; on AVX2 hosts this asserts cross-kernel
        // equality under saturation too.
        let kq = 1usize;
        let ap = vec![127i8; QMR * QK];
        let bp = vec![255u8; QNR * QK];
        let mut acc = [[0i32; QNR]; QMR];
        qmk_scalar(kq, &ap, &bp, &mut acc);
        assert!(acc.iter().all(|row| row.iter().all(|&v| v == 2 * 32767)));
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            let mut vacc = [[0i32; QNR]; QMR];
            // SAFETY: AVX2 presence checked; slices sized above.
            unsafe { qmk_avx2(kq, ap.as_ptr(), bp.as_ptr(), &mut vacc) };
            assert_eq!(acc, vacc, "saturation semantics must match the instruction");
        }
    }

    #[test]
    fn qgemm_is_thread_count_invariant() {
        let (m, k, n) = (150, 96, 333);
        let a = rand_vec(m * k, 41);
        let b = rand_vec(k * n, 42);
        let absmax = b.iter().fold(0.0f32, |x, &v| x.max(v.abs()));
        let a_scale = int8_act_scale(absmax);
        let mut bq = vec![0u8; k * n];
        quantize_activations(&b, a_scale, &mut bq);
        let epi = Epilogue::new(None, EpilogueAct::None);
        let pa = PackedGemmAI8::pack_quantize(m, k, &a);
        let mut c1 = vec![0.0f32; m * n];
        let mut c8 = vec![0.0f32; m * n];
        crate::par::set_max_threads(1);
        let m1 = qgemm_prepacked(&pa, n, &bq, a_scale, &mut c1, &epi);
        crate::par::set_max_threads(8);
        let m8 = qgemm_prepacked(&pa, n, &bq, a_scale, &mut c8, &epi);
        crate::par::set_max_threads(0);
        assert_eq!(c1, c8);
        assert_eq!(m1.to_bits(), m8.to_bits());
    }

    #[test]
    fn quantization_error_is_within_one_step_per_operand() {
        // End-to-end dequantized output vs the f32 product: for unit-scale
        // random operands the error per output is bounded by the combined
        // quantization steps times the L1 mass of the row; check a safe
        // multiple rather than a tight bound.
        let (m, k, n) = (24, 64, 40);
        let a = rand_vec(m * k, 51);
        let b = rand_vec(k * n, 52);
        let absmax = b.iter().fold(0.0f32, |x, &v| x.max(v.abs()));
        let a_scale = int8_act_scale(absmax);
        let mut bq = vec![0u8; k * n];
        quantize_activations(&b, a_scale, &mut bq);
        let epi = Epilogue::new(None, EpilogueAct::None);
        let pa = PackedGemmAI8::pack_quantize(m, k, &a);
        let mut c = vec![0.0f32; m * n];
        qgemm_prepacked(&pa, n, &bq, a_scale, &mut c, &epi);
        let mut exact = vec![0.0f32; m * n];
        crate::matmul::reference::sgemm(m, k, n, 1.0, &a, &b, 0.0, &mut exact);
        for r in 0..m {
            let w_l1: f32 = a[r * k..(r + 1) * k].iter().map(|v| v.abs()).sum();
            let w_max = a[r * k..(r + 1) * k].iter().fold(0.0f32, |x, &v| x.max(v.abs()));
            // Half-step errors: activations a_scale/2 against |w| mass,
            // weights scale_w/2 against quantized |b| mass (<= absmax * k).
            let bound = 0.5 * a_scale * w_l1 + 0.5 * (w_max / 127.0) * absmax * k as f32 + 1e-5;
            for j in 0..n {
                let d = (c[r * n + j] - exact[r * n + j]).abs();
                assert!(d <= bound, "({r},{j}): err {d} exceeds bound {bound}");
            }
        }
    }
}
