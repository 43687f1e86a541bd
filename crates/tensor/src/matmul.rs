//! Row-major single-precision GEMM: a cache-blocked, panel-packing engine
//! with a register-tiled micro-kernel, parallelized over macro-tiles.
//!
//! The three public entry points ([`sgemm`], [`sgemm_at_b`], [`sgemm_a_bt`])
//! share one engine that views its operands through arbitrary row/column
//! strides, so the transposed variants cost one packing pass instead of a
//! materialized transpose.
//!
//! # Blocking scheme
//!
//! BLIS-style three-level blocking with fixed tile sizes:
//!
//! - `MC x NC = 96 x 512` macro-tiles of C, distributed over the worker
//!   pool with [`crate::par::parallel_tiles`];
//! - `KC = 256` depth slices. A is packed into contiguous `MR`-row panels
//!   (per call into thread-local [`crate::scratch`], or once as a
//!   [`PackedGemmA`]). B is **not** copied when its rows are contiguous: a
//!   full `NR`-column panel is read where it lies, one `NR`-float row per
//!   depth step at the caller's row stride. Only a ragged last panel, or a B
//!   viewed through a column stride ([`sgemm_a_bt`]), is packed first — into
//!   one `NR x KC` scratch panel the same kernel reads at row stride `NR`.
//!   [`gemm_stats`] counts both kinds;
//! - micro-kernel: `MR x NR = 6 x 16` register tile (12 AVX2 accumulators +
//!   broadcast + two B vectors fits the 16 ymm registers). The kernel also
//!   finishes its tile in those registers — `alpha`, the first slice's
//!   `beta`, later slices' accumulate and, on the last slice, bias and
//!   activation — and stores each C element once per slice, with the
//!   operations and order of `beta * c + alpha * acc` and
//!   [`Epilogue::apply`] and no `fma`, so a fused call equals the unfused
//!   call plus a separate epilogue pass bit for bit.
//!
//! The macro-tile grid depends only on `(m, n)` and the constants — never on
//! the worker count — each tile accumulates its `KC` slices sequentially,
//! and an element's FMA chain is the same whether its B panel was packed or
//! read in place, so results are **byte-identical for any thread count and
//! either B layout**. The micro-kernel uses AVX2+FMA when the CPU has it
//! (checked at runtime) with a portable fallback of the same interface;
//! those two may round differently, but the choice is per-process, not
//! per-call.
//!
//! Problems too small to amortize packing fall through to the simple
//! [`reference`] kernels, which are also kept as the oracle for tests and
//! the baseline for before/after benchmarks.

use crate::blob::{Panel, SharedBytes};
use crate::par::{parallel_tiles, tiles_mut, Runs, SyncPtr};
use crate::scratch;
use std::sync::atomic::{AtomicU64, Ordering};

/// Activation applied by a fused GEMM epilogue during tile write-back.
///
/// The formulas are kept textually identical to the activation layers in the
/// `nn` crate so a fused epilogue computes bit-for-bit the same value as the
/// separate activation pass it replaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EpilogueAct {
    /// Pass the accumulated value through unchanged.
    None,
    /// `max(v, 0)`.
    Relu,
    /// `v * clamp(v + 3, 0, 6) / 6`.
    HardSwish,
    /// `clamp(v + 3, 0, 6) / 6`.
    HardSigmoid,
}

impl EpilogueAct {
    /// Applies the activation to one value.
    #[inline(always)]
    pub fn apply(self, v: f32) -> f32 {
        match self {
            Self::None => v,
            Self::Relu => v.max(0.0),
            Self::HardSwish => v * (v + 3.0).clamp(0.0, 6.0) / 6.0,
            Self::HardSigmoid => (v + 3.0).clamp(0.0, 6.0) / 6.0,
        }
    }
}

/// A fused GEMM epilogue: per-row (output-channel) bias plus an activation,
/// applied to fully-accumulated output values during the final write-back
/// instead of as separate full-tensor passes.
///
/// # Contract
///
/// For every output element the transformation is exactly
/// `act(value + bias[row])` where `value` is what the same GEMM call would
/// have produced with no epilogue. Both the blocked engine and the
/// small-matrix reference fallback funnel through [`Epilogue::apply`], so on
/// either dispatch path a fused call is **bit-identical** to the unfused
/// call followed by a separate bias-and-activation pass.
#[derive(Clone, Copy, Debug)]
pub struct Epilogue<'a> {
    bias: Option<&'a [f32]>,
    act: EpilogueAct,
}

impl<'a> Epilogue<'a> {
    /// An epilogue adding `bias[row]` (when present; length must be `m`)
    /// then applying `act`.
    pub fn new(bias: Option<&'a [f32]>, act: EpilogueAct) -> Self {
        Self { bias, act }
    }

    /// The shared per-element transform: `act(v + bias[row])`.
    #[inline(always)]
    pub fn apply(&self, row: usize, v: f32) -> f32 {
        let v = match self.bias {
            Some(b) => v + b[row],
            None => v,
        };
        self.act.apply(v)
    }

    /// The bias term for `row`, when a bias is present (vector write-backs
    /// hoist it out of the lane loop instead of re-branching per element).
    pub(crate) fn bias_at(&self, row: usize) -> Option<f32> {
        self.bias.map(|b| b[row])
    }

    /// The fused activation kind.
    pub(crate) fn act(&self) -> EpilogueAct {
        self.act
    }

    /// Applies the epilogue to a row-major `[m, n]` buffer as a separate
    /// pass (the reference-path fallback and the test oracle).
    pub fn apply_rows(&self, m: usize, n: usize, c: &mut [f32]) {
        debug_assert_eq!(c.len(), m * n);
        for (row, crow) in c.chunks_mut(n.max(1)).enumerate().take(m) {
            for v in crow.iter_mut() {
                *v = self.apply(row, *v);
            }
        }
    }
}

/// The left operand of the blocked GEMM, pre-packed once into the exact
/// per-(macro-tile, KC-slice) panel layout [`pack_a`] produces, so repeated
/// multiplies against changing right-hand sides (conv weights against
/// per-call im2col columns) skip the A-packing pass entirely.
#[derive(Clone, Debug)]
pub struct PackedGemmA {
    data: Panel<f32>,
    m: usize,
    k: usize,
}

/// Padded row count of one full `MC`-high macro-tile.
const MC_PAD: usize = MC.div_ceil(MR) * MR;

impl PackedGemmA {
    /// Packs a row-major `[m, k]` matrix. The packed image is laid out as
    /// macro-tile blocks in `i0` order, each holding its `KC` slices in `p0`
    /// order, matching the traversal of the blocked engine.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != m * k` or either dimension is zero.
    pub fn pack(m: usize, k: usize, a: &[f32]) -> Self {
        assert_eq!(a.len(), m * k, "a must be m*k");
        assert!(m > 0 && k > 0, "packed GEMM operand must be non-empty");
        let view = MatRef { data: a, rs: k, cs: 1 };
        let mut data = vec![0.0f32; Self::packed_len(m, k)];
        let mut off = 0;
        for i0 in (0..m).step_by(MC) {
            let mc = MC.min(m - i0);
            let rows_padded = mc.div_ceil(MR) * MR;
            for p0 in (0..k).step_by(KC) {
                let kc = KC.min(k - p0);
                pack_a(view, i0, mc, p0, kc, &mut data[off..off + rows_padded * kc]);
                off += rows_padded * kc;
            }
        }
        Self { data: data.into(), m, k }
    }

    /// Length in floats of the packed image for an `[m, k]` operand — the
    /// serialized size of [`PackedGemmA::image`].
    pub fn image_len(m: usize, k: usize) -> usize {
        Self::packed_len(m, k)
    }

    /// The raw packed panel image (layout documented on
    /// [`PackedGemmA::pack`]; stable only for a fixed
    /// [`gemm_layout_fingerprint`]).
    pub fn image(&self) -> &[f32] {
        self.data.as_slice()
    }

    /// Rebuilds a packed operand from an image previously obtained via
    /// [`PackedGemmA::image`], taking ownership of the buffer.
    ///
    /// # Errors
    ///
    /// Rejects empty dimensions and an image whose length disagrees with
    /// [`PackedGemmA::image_len`].
    pub fn from_owned_image(m: usize, k: usize, image: Vec<f32>) -> Result<Self, &'static str> {
        if m == 0 || k == 0 {
            return Err("packed GEMM operand must be non-empty");
        }
        if image.len() != Self::packed_len(m, k) {
            return Err("packed image length disagrees with (m, k)");
        }
        Ok(Self { data: image.into(), m, k })
    }

    /// Rebuilds a packed operand whose image *borrows* `bytes` at byte
    /// `offset` — the zero-copy artifact-loading path. The shared buffer is
    /// kept alive for the life of the operand (and its clones).
    ///
    /// # Errors
    ///
    /// Rejects empty dimensions, out-of-bounds ranges and offsets not
    /// 4-byte aligned within the buffer.
    pub fn from_shared_image(
        m: usize,
        k: usize,
        bytes: SharedBytes,
        offset: usize,
    ) -> Result<Self, &'static str> {
        if m == 0 || k == 0 {
            return Err("packed GEMM operand must be non-empty");
        }
        let data = Panel::from_shared(bytes, offset, Self::packed_len(m, k))?;
        Ok(Self { data, m, k })
    }

    /// Whether the image borrows a shared (typically mmap-backed) buffer.
    pub fn is_shared(&self) -> bool {
        self.data.is_shared()
    }

    fn packed_len(m: usize, k: usize) -> usize {
        (0..m)
            .step_by(MC)
            .map(|i0| MC.min(m - i0).div_ceil(MR) * MR * k)
            .sum()
    }

    /// The panel block for macro-tile `ic`, depth slice starting at `p0`.
    ///
    /// Only the last macro-tile can be partial, so the offset is closed-form:
    /// full blocks before it are `MC_PAD * k` floats each, and within a
    /// block the slices before `p0` hold exactly `rows_padded * p0` floats.
    #[inline]
    fn block(&self, ic: usize, p0: usize, kc: usize) -> &[f32] {
        let i0 = ic * MC;
        let rows_padded = MC.min(self.m - i0).div_ceil(MR) * MR;
        let off = ic * MC_PAD * self.k + rows_padded * p0;
        &self.data.as_slice()[off..off + rows_padded * kc]
    }

    /// Packed row count (`m` of the original matrix).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Packed depth (`k` of the original matrix).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Resident size of the packed image in bytes.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

/// FNV-1a fingerprint of every blocking constant that shapes packed panel
/// images. A serialized panel image is only loadable by a build with the
/// same fingerprint — artifact containers store it and refuse mismatches
/// instead of multiplying with garbage layouts.
pub fn gemm_layout_fingerprint() -> u32 {
    let consts: [usize; 5] = [MR, NR, KC, MC, NC];
    let mut h: u32 = 0x811c_9dc5;
    for c in consts {
        for b in (c as u64).to_le_bytes() {
            h ^= b as u32;
            h = h.wrapping_mul(0x0100_0193);
        }
    }
    h
}

/// Micro-kernel rows (register-tile height).
pub(crate) const MR: usize = 6;
/// Micro-kernel columns (register-tile width, two 8-float AVX2 vectors).
const NR: usize = 16;
/// Depth of one packed slice; `KC * (MR + NR) * 4` bytes of panel data stay
/// L1/L2-resident while a macro-tile multiplies.
const KC: usize = 256;
/// Macro-tile height (multiple of `MR`).
const MC: usize = 96;
/// Macro-tile width (multiple of `NR`).
const NC: usize = 512;

/// Problems with `m*n*k` at or below this run on the [`reference`] kernels:
/// packing overhead would dominate.
pub(crate) const SMALL_FLOP_CUTOFF: usize = 32 * 32 * 32;

/// A strided read-only view of a row-major matrix: element `(i, j)` lives at
/// `data[i * rs + j * cs]`. Transposition is `rs`/`cs` swapping.
#[derive(Clone, Copy)]
struct MatRef<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl MatRef<'_> {
    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.rs + j * self.cs]
    }
}

/// Row-major `[m, k]` int8 weights with one f32 scale per row: element
/// `(i, j)` is `q[i * k + j] as f32 * scales[i]`.
#[derive(Clone, Copy)]
pub(crate) struct Int8Rows<'a> {
    pub(crate) q: &'a [i8],
    pub(crate) scales: &'a [f32],
    pub(crate) k: usize,
}

/// Packs rows `i0..i0+mc`, depth `p0..p0+kc` of `a` into `MR`-row panels:
/// panel `ir` stores element `(p, r)` at `ir*MR*kc + p*MR + r`, zero-padded
/// to a full `MR` rows so the micro-kernel never branches on the edge.
fn pack_a(a: MatRef<'_>, i0: usize, mc: usize, p0: usize, kc: usize, dst: &mut [f32]) {
    for ir in 0..mc.div_ceil(MR) {
        let base = ir * MR * kc;
        let rows = MR.min(mc - ir * MR);
        for p in 0..kc {
            let at = base + p * MR;
            for r in 0..rows {
                dst[at + r] = a.at(i0 + ir * MR + r, p0 + p);
            }
            for r in rows..MR {
                dst[at + r] = 0.0;
            }
        }
    }
}

/// [`pack_a`] of the dequantized int8 rows `a`: each row's `kc` weights are
/// read in a run and written down its lane of the panel.
fn pack_a_int8(a: Int8Rows<'_>, i0: usize, mc: usize, p0: usize, kc: usize, dst: &mut [f32]) {
    for (ir, panel) in dst[..mc.div_ceil(MR) * MR * kc].chunks_exact_mut(MR * kc).enumerate() {
        let rows = MR.min(mc - ir * MR);
        for r in 0..MR {
            let lane = panel[r..].iter_mut().step_by(MR);
            if r < rows {
                let i = i0 + ir * MR + r;
                let (row, scale) = (&a.q[i * a.k + p0..][..kc], a.scales[i]);
                lane.zip(row).for_each(|(d, &q)| *d = q as f32 * scale);
            } else {
                lane.for_each(|d| *d = 0.0);
            }
        }
    }
}

/// Packs depth `p0..p0+kc`, columns `j..j+cols` of `b` into one `NR`-column
/// panel: element `(p, c)` lands at `p*NR + c`, zero-padded to `NR` columns.
fn pack_b(b: MatRef<'_>, j: usize, cols: usize, p0: usize, kc: usize, dst: &mut [f32]) {
    for (p, drow) in dst[..kc * NR].chunks_exact_mut(NR).enumerate() {
        for (c, d) in drow.iter_mut().enumerate() {
            *d = if c < cols { b.at(p0 + p, j + c) } else { 0.0 };
        }
    }
}

/// What a micro-kernel does with its finished tile, per element: `v = alpha
/// * acc`, then `v = beta * c + v` and `v = epi.apply(row, v)` for whichever
/// of `beta` and `epi` is present, then one store to C.
struct Finish<'a> {
    alpha: f32,
    /// `None` on a first K slice with `beta == 0` (C is never read), else
    /// the caller's beta; `1.0` on later slices (`1.0 * c` is exact).
    beta: Option<f32>,
    /// Present on the last K slice only.
    epi: Option<&'a Epilogue<'a>>,
}

/// The C side of one micro-kernel call: `rows x cols` elements at `c`, row
/// stride `ldc`; `row0` is the first row's index in C (the bias index).
struct CTile {
    c: *mut f32,
    ldc: usize,
    rows: usize,
    cols: usize,
    row0: usize,
}

/// One tile of C from an `MR`-row packed A panel and `NR` columns of B whose
/// depth step `p` starts at `bp + p * ldb` — a packed panel is `ldb == NR`,
/// B read in place is `ldb ==` its row stride.
///
/// # Safety
///
/// `ap` must be valid for `kc * MR` reads, `bp + p * ldb` for `NR` reads at
/// every `p < kc`, and `t.c + r * t.ldc` for `t.cols` reads and writes at
/// every `r < t.rows`, with `t.rows <= MR`, `1 <= t.cols <= NR` and no other
/// thread touching those C elements. [`mk_avx2`] also needs AVX2 and FMA.
type MicroKernel =
    unsafe fn(kc: usize, ap: *const f32, bp: *const f32, ldb: usize, t: &CTile, fin: &Finish<'_>);

/// Portable micro-kernel (see [`MicroKernel`] for the contract).
unsafe fn mk_portable(kc: usize, ap: *const f32, bp: *const f32, ldb: usize, t: &CTile, fin: &Finish<'_>) {
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..kc {
        // SAFETY: the caller guarantees `MR` floats at `ap + p * MR` and
        // `NR` floats at `bp + p * ldb` for every `p < kc`.
        let (arow, brow) = unsafe {
            (std::slice::from_raw_parts(ap.add(p * MR), MR), std::slice::from_raw_parts(bp.add(p * ldb), NR))
        };
        for (accrow, &av) in acc.iter_mut().zip(arow) {
            for (c, &bv) in accrow.iter_mut().zip(brow) {
                *c += av * bv;
            }
        }
    }
    for (r, accrow) in acc.iter().enumerate().take(t.rows) {
        // SAFETY: the caller owns `t.cols` elements at `t.c + r * t.ldc`.
        let crow = unsafe { std::slice::from_raw_parts_mut(t.c.add(r * t.ldc), t.cols) };
        for (cv, &av) in crow.iter_mut().zip(accrow) {
            let mut v = fin.alpha * av;
            if let Some(beta) = fin.beta {
                v += beta * *cv;
            }
            *cv = fin.epi.map_or(v, |e| e.apply(t.row0 + r, v));
        }
    }
}

/// Eight lanes of [`EpilogueAct::apply`], shared by the f32 tile store and
/// the int8 dequantizing write-back. Same IEEE operations in the same order
/// as the scalar form and no `fma`, so finite and infinite inputs give the
/// same bits; `min`/`max` take the constant first so a NaN lane comes back
/// as NaN exactly where `f32::clamp` passes it through (`Relu` maps NaN to
/// 0 in both forms). Only NaN payloads may differ.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
pub(crate) unsafe fn act_avx2(act: EpilogueAct, v: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let zero = _mm256_setzero_ps();
    let six = _mm256_set1_ps(6.0);
    let gate = |v| _mm256_min_ps(six, _mm256_max_ps(zero, _mm256_add_ps(v, _mm256_set1_ps(3.0))));
    match act {
        EpilogueAct::None => v,
        EpilogueAct::Relu => _mm256_max_ps(v, zero),
        EpilogueAct::HardSwish => _mm256_div_ps(_mm256_mul_ps(v, gate(v)), six),
        EpilogueAct::HardSigmoid => _mm256_div_ps(gate(v), six),
    }
}

/// AVX2+FMA micro-kernel (see [`MicroKernel`] for the contract): the 6x16
/// tile lives in twelve ymm accumulators from the first FMA to its single
/// store; a tile narrower than `NR` masks its loads and stores.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn mk_avx2(kc: usize, ap: *const f32, bp: *const f32, ldb: usize, t: &CTile, fin: &Finish<'_>) {
    use std::arch::x86_64::*;
    let mut lo = [_mm256_setzero_ps(); MR];
    let mut hi = [_mm256_setzero_ps(); MR];
    for p in 0..kc {
        let b0 = _mm256_loadu_ps(bp.add(p * ldb));
        let b1 = _mm256_loadu_ps(bp.add(p * ldb + 8));
        for r in 0..MR {
            let av = _mm256_set1_ps(*ap.add(p * MR + r));
            lo[r] = _mm256_fmadd_ps(av, b0, lo[r]);
            hi[r] = _mm256_fmadd_ps(av, b1, hi[r]);
        }
    }
    let cols = t.cols;
    let alpha = _mm256_set1_ps(fin.alpha);
    let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    // Finishes lanes `j0..j0+8` of row `r`; rows at or past `t.rows` and
    // lanes at or past `cols` are neither read nor written. A macro repeated
    // per register, not a loop or a closure: a loop stays rolled and indexes
    // `lo`/`hi` at run time, a call clobbers every ymm register, and either
    // way all twelve accumulators go through the stack.
    macro_rules! finish {
        ($($r:literal $j0:literal $acc:ident;)*) => {$(
            if $r < t.rows && cols > $j0 {
                let at = t.c.add($r * t.ldc + $j0);
                let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32((cols - $j0) as i32), lane);
                let mut v = _mm256_mul_ps(alpha, $acc[$r]);
                if let Some(beta) = fin.beta {
                    let old = if cols >= $j0 + 8 { _mm256_loadu_ps(at) } else { _mm256_maskload_ps(at, mask) };
                    v = _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(beta), old), v);
                }
                if let Some(e) = fin.epi {
                    if let Some(bias) = e.bias_at(t.row0 + $r) {
                        v = _mm256_add_ps(v, _mm256_set1_ps(bias));
                    }
                    v = act_avx2(e.act(), v);
                }
                if cols >= $j0 + 8 {
                    _mm256_storeu_ps(at, v);
                } else {
                    _mm256_maskstore_ps(at, mask, v);
                }
            }
        )*};
    }
    const _: () = assert!(MR == 6, "the tile store below is written out for six rows");
    finish! { 0 0 lo; 0 8 hi; 1 0 lo; 1 8 hi; 2 0 lo; 2 8 hi; 3 0 lo; 3 8 hi; 4 0 lo; 4 8 hi; 5 0 lo; 5 8 hi; }
}

/// Whether the CPU has AVX2 and FMA (the detection macro caches its answer).
fn avx2_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// This process's micro-kernel.
fn microkernel() -> MicroKernel {
    #[cfg(target_arch = "x86_64")]
    if avx2_fma() {
        return mk_avx2;
    }
    mk_portable
}

/// B panels multiplied in place, and packed first (process-wide, monotonic).
static B_IN_PLACE: AtomicU64 = AtomicU64::new(0);
static B_PACKED: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the blocked GEMM's B-operand counters. One panel is `NR`
/// columns of one `KC` depth slice of one macro-tile.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GemmStats {
    /// Panels read in place: B's rows are contiguous and the panel is full.
    pub b_panels_in_place: u64,
    /// Panels packed first: a ragged last panel, or a transposed B.
    pub b_panels_packed: u64,
}

/// Reads the blocked GEMM's B-operand counters.
pub fn gemm_stats() -> GemmStats {
    GemmStats {
        b_panels_in_place: B_IN_PLACE.load(Ordering::Relaxed),
        b_panels_packed: B_PACKED.load(Ordering::Relaxed),
    }
}

/// The A operand of the blocked engine: a strided view or int8 rows, packed
/// per call into thread-local scratch, or a [`PackedGemmA`] whose panels are
/// sliced directly (no per-call A traffic).
#[derive(Clone, Copy)]
enum ASrc<'a> {
    Mat(MatRef<'a>),
    Int8(Int8Rows<'a>),
    Packed(&'a PackedGemmA),
}

/// `c[m, n] = beta * c + alpha * a[m, k] @ b[k, n]` through strided views,
/// blocked and parallelized as described in the module docs. Beta is folded
/// into the first KC slice's tile store: with `beta == 0` the output is
/// written without being read or pre-zeroed, which matters for small-k GEMMs
/// (e.g. the 3x3 stem conv) where output traffic rivals the FLOPs.
///
/// When an [`Epilogue`] is supplied the micro-kernel applies it in the
/// **last** KC slice's tile store — the values are then fully accumulated
/// and still in registers.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked(
    m: usize,
    k: usize,
    n: usize,
    alpha: f32,
    beta: f32,
    a: ASrc<'_>,
    b: MatRef<'_>,
    c: &mut [f32],
    epi: Option<&Epilogue<'_>>,
) {
    let n_ic = m.div_ceil(MC);
    let n_jc = n.div_ceil(NC);
    let cptr = SyncPtr::new(c.as_mut_ptr());
    let mk = microkernel();
    parallel_tiles(n_ic * n_jc, |tile| {
        let (ic, jc) = (tile / n_jc, tile % n_jc);
        let i0 = ic * MC;
        let j0 = jc * NC;
        let mc = MC.min(m - i0);
        let nc = NC.min(n - j0);
        let mut apack = match a {
            ASrc::Mat(_) | ASrc::Int8(_) => Some(scratch::take(mc.div_ceil(MR) * MR * KC.min(k))),
            ASrc::Packed(_) => None,
        };
        let mut bpack = scratch::take(NR * KC.min(k));
        let (mut in_place, mut packed) = (0, 0);
        for p0 in (0..k).step_by(KC) {
            let kc = KC.min(k - p0);
            let fin = Finish {
                alpha,
                beta: if p0 > 0 { Some(1.0) } else { Some(beta).filter(|&b| b != 0.0) },
                epi: epi.filter(|_| p0 + kc == k),
            };
            let apanels: &[f32] = match (a, apack.as_mut()) {
                (ASrc::Mat(view), Some(buf)) => {
                    pack_a(view, i0, mc, p0, kc, buf);
                    buf
                }
                (ASrc::Int8(rows), Some(buf)) => {
                    pack_a_int8(rows, i0, mc, p0, kc, buf);
                    buf
                }
                (ASrc::Packed(pa), _) => pa.block(ic, p0, kc),
                (_, None) => unreachable!("scratch panel allocated for unpacked operands"),
            };
            for j in (j0..j0 + nc).step_by(NR) {
                let cols = NR.min(j0 + nc - j);
                let (bp, ldb) = if b.cs == 1 && cols == NR {
                    in_place += 1;
                    // The last depth row's `NR` floats end inside the slice.
                    debug_assert!((p0 + kc - 1) * b.rs + j + NR <= b.data.len());
                    (b.data[p0 * b.rs + j..].as_ptr(), b.rs)
                } else {
                    packed += 1;
                    pack_b(b, j, cols, p0, kc, &mut bpack);
                    (bpack.as_ptr(), NR)
                };
                for ir in 0..mc.div_ceil(MR) {
                    let apanel = &apanels[ir * MR * kc..(ir + 1) * MR * kc];
                    let row = i0 + ir * MR;
                    let rows = MR.min(m - row);
                    debug_assert!((row + rows - 1) * n + j + cols <= m * n);
                    // SAFETY: `mk` is `mk_avx2` only when the CPU has AVX2
                    // and FMA. `apanel` holds `kc * MR` floats. `bp` is the
                    // packed panel (`kc * NR` floats, `ldb == NR`) or row
                    // `p0`, column `j` of the caller's B, where `cs == 1`,
                    // `j + NR <= n` and `p0 + kc <= k` keep every `NR`-float
                    // row read inside the slice (asserted above). This tile
                    // alone owns C rows `i0..i0+mc` x cols `j0..j0+nc`, and
                    // `rows` / `cols` stop at `m` / `n`.
                    unsafe {
                        let t = CTile { c: cptr.get().add(row * n + j), ldc: n, rows, cols, row0: row };
                        mk(kc, apanel.as_ptr(), bp, ldb, &t, &fin)
                    };
                }
            }
        }
        B_IN_PLACE.fetch_add(in_place, Ordering::Relaxed);
        B_PACKED.fetch_add(packed, Ordering::Relaxed);
    });
}

/// Applies the `beta` scaling of the full output buffer.
fn apply_beta(beta: f32, c: &mut [f32]) {
    if beta == 0.0 {
        c.iter_mut().for_each(|v| *v = 0.0);
    } else if beta != 1.0 {
        c.iter_mut().for_each(|v| *v *= beta);
    }
}

fn is_small(m: usize, k: usize, n: usize) -> bool {
    m.saturating_mul(k).saturating_mul(n) <= SMALL_FLOP_CUTOFF
}

/// Whether an `(m, k, n)` product runs on the blocked engine rather than the
/// reference kernels (which [`sgemm_prepacked`] never uses).
pub fn runs_blocked(m: usize, k: usize, n: usize) -> bool {
    !is_small(m, k, n)
}

/// `c = alpha * a @ b + beta * c` with row-major `a: [m, k]`, `b: [k, n]`,
/// `c: [m, n]`.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `(m, k, n)`.
#[allow(clippy::too_many_arguments)]
pub fn sgemm(m: usize, k: usize, n: usize, alpha: f32, a: &[f32], b: &[f32], beta: f32, c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "a must be m*k");
    assert_eq!(b.len(), k * n, "b must be k*n");
    assert_eq!(c.len(), m * n, "c must be m*n");
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        apply_beta(beta, c);
        return;
    }
    if is_small(m, k, n) {
        reference::sgemm(m, k, n, alpha, a, b, beta, c);
        return;
    }
    gemm_blocked(
        m,
        k,
        n,
        alpha,
        beta,
        ASrc::Mat(MatRef { data: a, rs: k, cs: 1 }),
        MatRef { data: b, rs: n, cs: 1 },
        c,
        None,
    );
}

/// `c = epilogue(alpha * a @ b)` with row-major `a: [m, k]`, `b: [k, n]`,
/// `c: [m, n]`: a beta-0 GEMM whose per-channel bias and activation are
/// applied in the tile write-back instead of as separate passes.
///
/// Dispatches exactly like [`sgemm`] (small problems run on the reference
/// kernel, with the epilogue as a post-pass through the same
/// [`Epilogue::apply`]), so on either path the result is bit-identical to
/// the unfused call followed by a separate epilogue pass.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `(m, k, n)` or a bias is
/// present with length != `m`.
#[allow(clippy::too_many_arguments)]
pub fn sgemm_fused(m: usize, k: usize, n: usize, alpha: f32, a: &[f32], b: &[f32], c: &mut [f32], epi: &Epilogue<'_>) {
    assert_eq!(a.len(), m * k, "a must be m*k");
    assert_eq!(b.len(), k * n, "b must be k*n");
    assert_eq!(c.len(), m * n, "c must be m*n");
    if let Some(bias) = epi.bias {
        assert_eq!(bias.len(), m, "bias must have one entry per output row");
    }
    if m == 0 || n == 0 {
        return;
    }
    if alpha == 0.0 || k == 0 {
        apply_beta(0.0, c);
        epi.apply_rows(m, n, c);
        return;
    }
    if is_small(m, k, n) {
        reference::sgemm(m, k, n, alpha, a, b, 0.0, c);
        epi.apply_rows(m, n, c);
        return;
    }
    gemm_blocked(
        m,
        k,
        n,
        alpha,
        0.0,
        ASrc::Mat(MatRef { data: a, rs: k, cs: 1 }),
        MatRef { data: b, rs: n, cs: 1 },
        c,
        Some(epi),
    );
}

/// `c = epilogue(pa @ b)` against a persistently packed left operand: the
/// A-panel packing pass is skipped entirely and B, whose contents change
/// every call, is read in place (all but a ragged last panel).
///
/// Always runs the blocked engine — a packed operand exists precisely so
/// repeated calls avoid per-call A traffic, and the reference kernels cannot
/// consume panel layout.
///
/// # Panics
///
/// Panics if slice lengths disagree with `(pa.m(), pa.k(), n)` or a bias is
/// present with length != `pa.m()`.
pub fn sgemm_prepacked(pa: &PackedGemmA, n: usize, b: &[f32], c: &mut [f32], epi: &Epilogue<'_>) {
    let (m, k) = (pa.m, pa.k);
    assert_eq!(b.len(), k * n, "b must be k*n");
    assert_eq!(c.len(), m * n, "c must be m*n");
    if let Some(bias) = epi.bias {
        assert_eq!(bias.len(), m, "bias must have one entry per output row");
    }
    if n == 0 {
        return;
    }
    gemm_blocked(m, k, n, 1.0, 0.0, ASrc::Packed(pa), MatRef { data: b, rs: n, cs: 1 }, c, Some(epi));
}

/// [`sgemm_prepacked`] whose left operand is int8 rows: the blocked engine
/// packs each A panel from `rows` as `q as f32 * scale`, so the product has
/// the bits `sgemm_prepacked` gives for a [`PackedGemmA`] of those
/// dequantized values.
pub(crate) fn sgemm_int8(rows: Int8Rows<'_>, n: usize, b: &[f32], c: &mut [f32], epi: &Epilogue<'_>) {
    let (m, k) = (rows.scales.len(), rows.k);
    assert_eq!(rows.q.len(), m * k, "int8 rows must be m*k");
    assert_eq!(b.len(), k * n, "b must be k*n");
    assert_eq!(c.len(), m * n, "c must be m*n");
    if n > 0 {
        gemm_blocked(m, k, n, 1.0, 0.0, ASrc::Int8(rows), MatRef { data: b, rs: n, cs: 1 }, c, Some(epi));
    }
}

/// [`sgemm_prepacked`] of one column: `c = epilogue(pa @ b)` with `b: [k]`
/// and `c: [m]`, bit for bit. Each output keeps the blocked engine's
/// arithmetic — per `KC` slice one multiply-add chain over the depth in
/// order (fused where the micro-kernel fuses), then the slice's finish:
/// added to the earlier slices' sum, and on the last slice the epilogue —
/// but the chains run straight down the packed A panels, where the engine
/// would pad the one column to a 16-wide tile. One tile per macro-tile of
/// rows, as the engine's.
///
/// # Panics
///
/// Panics if `b.len() != pa.k()`, `c.len() != pa.m()` or a bias is present
/// with length != `pa.m()`.
pub fn sgemv_prepacked(pa: &PackedGemmA, b: &[f32], c: &mut [f32], epi: &Epilogue<'_>) {
    let (m, k) = (pa.m, pa.k);
    assert_eq!(b.len(), k, "b must be k");
    assert_eq!(c.len(), m, "c must be m");
    if let Some(bias) = epi.bias {
        assert_eq!(bias.len(), m, "bias must have one entry per output row");
    }
    let fused = avx2_fma();
    tiles_mut(m.div_ceil(MC), Runs::new(c, MC), |ic, rows| {
        for p0 in (0..k).step_by(KC) {
            let kc = KC.min(k - p0);
            let mut acc = [[0.0f32; MR]; MC_PAD / MR];
            let acc = &mut acc[..rows.len().div_ceil(MR)];
            panel_chains(fused, kc, pa.block(ic, p0, kc), &b[p0..p0 + kc], acc);
            // The micro-kernel's finish at `alpha = 1`, `beta = 1` after the
            // first slice: `1 * x` is exact, so this is its sum.
            for (r, (cv, &v)) in rows.iter_mut().zip(acc.iter().flatten()).enumerate() {
                let v = if p0 > 0 { *cv + v } else { v };
                *cv = if p0 + kc == k { epi.apply(ic * MC + r, v) } else { v };
            }
        }
    });
}

/// Lane `r` of `acc[i]` = the depth chain of row `r` of packed A panel `i`
/// in `panels` against `b`: `fma` steps when `fused` (the AVX2 engine's),
/// else a multiply then an add (the portable engine's).
fn panel_chains(fused: bool, kc: usize, panels: &[f32], b: &[f32], acc: &mut [[f32; MR]]) {
    assert!(panels.len() >= acc.len() * MR * kc && b.len() == kc);
    #[cfg(target_arch = "x86_64")]
    if fused {
        let (full, rest) = acc.split_at_mut(acc.len() / 4 * 4);
        let at = |i: usize| panels[i * MR * kc..].as_ptr();
        // SAFETY: `fused` means the CPU has AVX2 and FMA; panel `i` holds
        // `MR * kc` floats from `at(i)` and `b` holds `kc` (asserted above).
        unsafe {
            for (g, accs) in full.chunks_exact_mut(4).enumerate() {
                chains_avx2::<4>(at(4 * g), b, accs);
            }
            for (i, lanes) in rest.iter_mut().enumerate() {
                chains_avx2::<1>(at(full.len() + i), b, std::slice::from_mut(lanes));
            }
        }
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = fused;
    for (i, lanes) in acc.iter_mut().enumerate() {
        for (p, &bv) in b.iter().enumerate() {
            let a = &panels[(i * kc + p) * MR..][..MR];
            lanes.iter_mut().zip(a).for_each(|(s, &av)| *s += av * bv);
        }
    }
}

/// [`panel_chains`]' fused form for `G` consecutive panels from `ap`, each
/// panel's chains in the six low lanes of one register.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA; `ap` must be valid for `G` panels of
/// `MR * b.len()` floats, and `acc` must hold `G` entries.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn chains_avx2<const G: usize>(ap: *const f32, b: &[f32], acc: &mut [[f32; MR]]) {
    use std::arch::x86_64::*;
    const _: () = assert!(MR == 6, "a panel's rows fill six lanes");
    let (kc, six) = (b.len(), _mm256_setr_epi32(-1, -1, -1, -1, -1, -1, 0, 0));
    let mut v = [_mm256_setzero_ps(); G];
    for (p, &bv) in b.iter().enumerate() {
        let bv = _mm256_set1_ps(bv);
        for (i, v) in v.iter_mut().enumerate() {
            *v = _mm256_fmadd_ps(_mm256_maskload_ps(ap.add((i * kc + p) * MR), six), bv, *v);
        }
    }
    let mut out = [0.0f32; 8];
    for (lanes, v) in acc.iter_mut().zip(v) {
        _mm256_storeu_ps(out.as_mut_ptr(), v);
        lanes.copy_from_slice(&out[..MR]);
    }
}

/// `c = alpha * a^T @ b + beta * c` with `a: [k, m]`, `b: [k, n]`, `c: [m, n]`.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `(m, k, n)`.
#[allow(clippy::too_many_arguments)]
pub fn sgemm_at_b(m: usize, k: usize, n: usize, alpha: f32, a: &[f32], b: &[f32], beta: f32, c: &mut [f32]) {
    assert_eq!(a.len(), k * m, "a must be k*m (transposed)");
    assert_eq!(b.len(), k * n, "b must be k*n");
    assert_eq!(c.len(), m * n, "c must be m*n");
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        apply_beta(beta, c);
        return;
    }
    if is_small(m, k, n) {
        reference::sgemm_at_b(m, k, n, alpha, a, b, beta, c);
        return;
    }
    gemm_blocked(
        m,
        k,
        n,
        alpha,
        beta,
        ASrc::Mat(MatRef { data: a, rs: 1, cs: m }),
        MatRef { data: b, rs: n, cs: 1 },
        c,
        None,
    );
}

/// `c = alpha * a @ b^T + beta * c` with `a: [m, k]`, `b: [n, k]`, `c: [m, n]`.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `(m, k, n)`.
#[allow(clippy::too_many_arguments)]
pub fn sgemm_a_bt(m: usize, k: usize, n: usize, alpha: f32, a: &[f32], b: &[f32], beta: f32, c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "a must be m*k");
    assert_eq!(b.len(), n * k, "b must be n*k (transposed)");
    assert_eq!(c.len(), m * n, "c must be m*n");
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        apply_beta(beta, c);
        return;
    }
    if is_small(m, k, n) {
        reference::sgemm_a_bt(m, k, n, alpha, a, b, beta, c);
        return;
    }
    gemm_blocked(
        m,
        k,
        n,
        alpha,
        beta,
        ASrc::Mat(MatRef { data: a, rs: k, cs: 1 }),
        MatRef { data: b, rs: 1, cs: k },
        c,
        None,
    );
}

/// The per-sample GEMMs `c_s = op(a) @ b_s` of a batch that shares its left
/// operand, run as one GEMM over the samples' columns gathered in scratch,
/// when a per-sample call would leave a ragged last micro-tile panel
/// (`n % NR != 0`: the 3² and 6² maps, the squeeze-excite's 1²) or go to the
/// [`reference`] kernel. `b` holds the samples' row-major `[k, n]` operands
/// back to back, `c` their `[m, n]` outputs. `op(a)` is a row-major
/// `[m, k]` `a`, or with `a_t` the transpose of a row-major `[k, m]` `a`
/// (the input gradient's `w^T`). Returns `false`, touching nothing, when
/// every sample's columns fill whole panels of the blocked engine: per-sample
/// calls already run at its rate there.
///
/// Every element gets the bits that a per-sample [`sgemm`] (or, with `a_t`,
/// [`sgemm_at_b`]) at `alpha = 1`, `beta = 0` gives it. The blocked-vs-
/// reference choice is still made per sample, from `(m, k, n)`, and either
/// kernel gives a column the same adds in the same order wherever the column
/// sits in B: the reference kernels loop over columns innermost, and the
/// engine keeps its `KC` slicing and micro-kernel. Only the packing changes:
/// A is packed once per (row block, depth slice) for the whole batch.
///
/// # Panics
///
/// Panics if `b` and `c` do not hold the same whole number of samples.
pub(crate) fn sgemm_gathered(m: usize, k: usize, n: usize, a: &[f32], a_t: bool, b: &[f32], c: &mut [f32]) -> bool {
    assert_eq!(a.len(), m * k, "a must hold m*k");
    let count = c.len().checked_div(m * n).unwrap_or(0);
    assert_eq!(c.len(), count * m * n, "c must hold whole m*n samples");
    assert_eq!(b.len(), count * k * n, "b must hold one k*n operand per sample");
    let small = is_small(m, k, n);
    if count == 0 || k == 0 || (!small && n.is_multiple_of(NR)) {
        return false;
    }
    let cols = count * n;
    let mut bg = scratch::take(k * cols);
    for (s, bs) in b.chunks_exact(k * n).enumerate() {
        for (dst, src) in bg.chunks_exact_mut(cols).zip(bs.chunks_exact(n)) {
            dst[s * n..(s + 1) * n].copy_from_slice(src);
        }
    }
    let mut cg = scratch::take(m * cols);
    match (small, a_t) {
        (true, false) => reference::sgemm(m, k, cols, 1.0, a, &bg, 0.0, &mut cg),
        (true, true) => reference::sgemm_at_b(m, k, cols, 1.0, a, &bg, 0.0, &mut cg),
        (false, _) => {
            let view = if a_t { MatRef { data: a, rs: 1, cs: m } } else { MatRef { data: a, rs: k, cs: 1 } };
            let rows = MatRef { data: &bg, rs: cols, cs: 1 };
            gemm_blocked(m, k, cols, 1.0, 0.0, ASrc::Mat(view), rows, &mut cg, None);
        }
    }
    for (s, cs) in c.chunks_exact_mut(m * n).enumerate() {
        for (dst, src) in cs.chunks_exact_mut(n).zip(cg.chunks_exact(cols)) {
            dst.copy_from_slice(&src[s * n..(s + 1) * n]);
        }
    }
    true
}

/// The pre-optimization scalar kernels: register-light, loop-order-tuned,
/// single-threaded. Retained verbatim as (a) the correctness oracle for the
/// packed engine's tests, (b) the dispatch target for tiny problems, and
/// (c) the "before" side of the kernel benchmarks.
pub mod reference {
    /// `c = alpha * a @ b + beta * c` with row-major `a: [m, k]`,
    /// `b: [k, n]`, `c: [m, n]` (scalar ikj kernel).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with `(m, k, n)`.
    #[allow(clippy::too_many_arguments)]
    pub fn sgemm(m: usize, k: usize, n: usize, alpha: f32, a: &[f32], b: &[f32], beta: f32, c: &mut [f32]) {
        assert_eq!(a.len(), m * k, "a must be m*k");
        assert_eq!(b.len(), k * n, "b must be k*n");
        assert_eq!(c.len(), m * n, "c must be m*n");
        if beta == 0.0 {
            c.iter_mut().for_each(|v| *v = 0.0);
        } else if beta != 1.0 {
            c.iter_mut().for_each(|v| *v *= beta);
        }
        if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
            return;
        }
        // ikj loop order: the inner loop is a contiguous axpy over rows of
        // b, which vectorizes well and is cache-friendly for both b and c.
        const KB: usize = 64;
        for kb in (0..k).step_by(KB) {
            let k_end = (kb + KB).min(k);
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                let crow = &mut c[i * n..(i + 1) * n];
                for p in kb..k_end {
                    let av = alpha * arow[p];
                    if av == 0.0 {
                        continue;
                    }
                    let brow = &b[p * n..(p + 1) * n];
                    for (cv, &bv) in crow.iter_mut().zip(brow) {
                        *cv += av * bv;
                    }
                }
            }
        }
    }

    /// `c = alpha * a^T @ b + beta * c` with `a: [k, m]`, `b: [k, n]`,
    /// `c: [m, n]` (scalar kernel).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with `(m, k, n)`.
    #[allow(clippy::too_many_arguments)]
    pub fn sgemm_at_b(m: usize, k: usize, n: usize, alpha: f32, a: &[f32], b: &[f32], beta: f32, c: &mut [f32]) {
        assert_eq!(a.len(), k * m, "a must be k*m (transposed)");
        assert_eq!(b.len(), k * n, "b must be k*n");
        assert_eq!(c.len(), m * n, "c must be m*n");
        if beta == 0.0 {
            c.iter_mut().for_each(|v| *v = 0.0);
        } else if beta != 1.0 {
            c.iter_mut().for_each(|v| *v *= beta);
        }
        if alpha == 0.0 {
            return;
        }
        for p in 0..k {
            let arow = &a[p * m..(p + 1) * m];
            let brow = &b[p * n..(p + 1) * n];
            for i in 0..m {
                let av = alpha * arow[i];
                if av == 0.0 {
                    continue;
                }
                let crow = &mut c[i * n..(i + 1) * n];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
    }

    /// `c = alpha * a @ b^T + beta * c` with `a: [m, k]`, `b: [n, k]`,
    /// `c: [m, n]` (scalar dot-product kernel).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with `(m, k, n)`.
    #[allow(clippy::too_many_arguments)]
    pub fn sgemm_a_bt(m: usize, k: usize, n: usize, alpha: f32, a: &[f32], b: &[f32], beta: f32, c: &mut [f32]) {
        assert_eq!(a.len(), m * k, "a must be m*k");
        assert_eq!(b.len(), n * k, "b must be n*k (transposed)");
        assert_eq!(c.len(), m * n, "c must be m*n");
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let brow = &b[j * k..(j + 1) * k];
                let dot: f32 = arow.iter().zip(brow).map(|(&x, &y)| x * y).sum();
                let cv = &mut c[i * n + j];
                *cv = alpha * dot + beta * *cv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        // Tiny LCG so tests need no external RNG plumbing.
        let mut s = seed.wrapping_mul(2862933555777941757).wrapping_add(1);
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn matches_naive() {
        for &(m, k, n) in &[(1, 1, 1), (3, 4, 5), (17, 9, 33), (64, 70, 8)] {
            let a = rand_vec(m * k, 1);
            let b = rand_vec(k * n, 2);
            let mut c = vec![0.0; m * n];
            sgemm(m, k, n, 1.0, &a, &b, 0.0, &mut c);
            let want = naive(m, k, n, &a, &b);
            for (x, y) in c.iter().zip(&want) {
                assert!((x - y).abs() < 1e-4, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn blocked_path_matches_reference() {
        // Shapes chosen to exceed SMALL_FLOP_CUTOFF and to hit every edge
        // case: non-multiples of MR/NR/MC/NC and of KC.
        for &(m, k, n) in &[(64, 64, 64), (97, 130, 101), (6, 300, 520), (200, 37, 65), (130, 257, 17)] {
            assert!(!is_small(m, k, n), "shape must take the blocked path");
            let a = rand_vec(m * k, 11);
            let b = rand_vec(k * n, 12);
            let mut c = rand_vec(m * n, 13);
            let mut want = c.clone();
            sgemm(m, k, n, 0.7, &a, &b, 0.3, &mut c);
            reference::sgemm(m, k, n, 0.7, &a, &b, 0.3, &mut want);
            for (x, y) in c.iter().zip(&want) {
                assert!((x - y).abs() < 1e-3, "({m},{k},{n}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn blocked_at_b_matches_reference() {
        let (m, k, n) = (70, 150, 90);
        let at = rand_vec(k * m, 21);
        let b = rand_vec(k * n, 22);
        let mut c = rand_vec(m * n, 23);
        let mut want = c.clone();
        sgemm_at_b(m, k, n, 1.3, &at, &b, 0.5, &mut c);
        reference::sgemm_at_b(m, k, n, 1.3, &at, &b, 0.5, &mut want);
        for (x, y) in c.iter().zip(&want) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn blocked_a_bt_matches_reference() {
        let (m, k, n) = (80, 120, 75);
        let a = rand_vec(m * k, 31);
        let bt = rand_vec(n * k, 32);
        let mut c = rand_vec(m * n, 33);
        let mut want = c.clone();
        sgemm_a_bt(m, k, n, 0.9, &a, &bt, 1.0, &mut c);
        reference::sgemm_a_bt(m, k, n, 0.9, &a, &bt, 1.0, &mut want);
        for (x, y) in c.iter().zip(&want) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn blocked_result_is_thread_count_invariant() {
        let (m, k, n) = (150, 96, 333);
        let a = rand_vec(m * k, 41);
        let b = rand_vec(k * n, 42);
        let mut c1 = vec![0.0; m * n];
        let mut c8 = vec![0.0; m * n];
        crate::par::set_max_threads(1);
        sgemm(m, k, n, 1.0, &a, &b, 0.0, &mut c1);
        crate::par::set_max_threads(8);
        sgemm(m, k, n, 1.0, &a, &b, 0.0, &mut c8);
        crate::par::set_max_threads(0);
        assert_eq!(c1, c8, "tiling must make results bitwise thread-invariant");
    }

    #[test]
    fn alpha_beta_semantics() {
        let a = vec![1.0, 2.0];
        let b = vec![3.0, 4.0];
        let mut c = vec![10.0];
        // 1x2 @ 2x1 = [11]; c = 2*11 + 0.5*10 = 27
        sgemm(1, 2, 1, 2.0, &a, &b, 0.5, &mut c);
        assert!((c[0] - 27.0).abs() < 1e-6);
    }

    #[test]
    fn alpha_zero_only_scales(){
        let a = rand_vec(40 * 50, 51);
        let b = rand_vec(50 * 60, 52);
        let mut c = vec![2.0; 40 * 60];
        sgemm(40, 50, 60, 0.0, &a, &b, 0.5, &mut c);
        assert!(c.iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn fused_epilogue_is_bit_identical_across_the_small_cutoff() {
        // Shapes straddling SMALL_FLOP_CUTOFF (32*32*32): the first two run
        // on the reference fallback, the rest on the blocked engine. On each
        // path a fused call must be *bit-identical* to the unfused call on
        // that same path followed by a separate epilogue pass, for every
        // activation kind — i.e. enabling the epilogue never changes which
        // numerical result the dispatch produces.
        let shapes = [(8, 8, 8), (32, 32, 32), (32, 32, 33), (33, 32, 32), (97, 64, 120)];
        let acts = [
            EpilogueAct::None,
            EpilogueAct::Relu,
            EpilogueAct::HardSwish,
            EpilogueAct::HardSigmoid,
        ];
        for &(m, k, n) in &shapes {
            let a = rand_vec(m * k, 61);
            let b = rand_vec(k * n, 62);
            let bias = rand_vec(m, 63);
            for act in acts {
                for with_bias in [false, true] {
                    let epi = Epilogue::new(with_bias.then_some(&bias[..]), act);
                    let mut fused = vec![0.0; m * n];
                    sgemm_fused(m, k, n, 1.0, &a, &b, &mut fused, &epi);
                    let mut want = vec![0.0; m * n];
                    sgemm(m, k, n, 1.0, &a, &b, 0.0, &mut want);
                    epi.apply_rows(m, n, &mut want);
                    assert_eq!(
                        fused, want,
                        "({m},{k},{n}) act={act:?} bias={with_bias}: fused must be bit-identical"
                    );
                }
            }
        }
    }

    #[test]
    fn prepacked_is_bit_identical_to_per_call_packing() {
        // The persistent pack uses the same pack_a layout the engine builds
        // per call, so the micro-kernel consumes identical panels and the
        // result is bitwise equal — including M/K edges that pad panels.
        for &(m, k, n) in &[(97, 130, 101), (200, 300, 65), (6, 520, 300)] {
            let a = rand_vec(m * k, 71);
            let b = rand_vec(k * n, 72);
            let bias = rand_vec(m, 73);
            let epi = Epilogue::new(Some(&bias), EpilogueAct::HardSwish);
            let mut fused = vec![0.0; m * n];
            sgemm_fused(m, k, n, 1.0, &a, &b, &mut fused, &epi);
            let pa = PackedGemmA::pack(m, k, &a);
            assert_eq!(pa.m(), m);
            assert_eq!(pa.k(), k);
            assert!(pa.bytes() >= m * k * 4);
            let mut packed = vec![0.0; m * n];
            sgemm_prepacked(&pa, n, &b, &mut packed, &epi);
            assert_eq!(packed, fused, "({m},{k},{n}): prepacked must match per-call packing bitwise");
        }
    }

    #[test]
    fn gemv_is_the_one_column_prepacked_gemm() {
        // Row and depth edges: a ragged last panel and macro-tile, one and
        // several KC slices, at one and four threads.
        for &(m, k) in &[(1, 1), (7, 33), (97, 256), (1000, 1280), (200, 600)] {
            let (a, b, bias) = (rand_vec(m * k, 74), rand_vec(k, 75), rand_vec(m, 76));
            let pa = PackedGemmA::pack(m, k, &a);
            for act in ACTS {
                let epi = Epilogue::new(Some(&bias), act);
                let mut want = vec![0.0; m];
                sgemm_prepacked(&pa, 1, &b, &mut want, &epi);
                for threads in [1, 4] {
                    crate::par::set_max_threads(threads);
                    let mut got = vec![f32::NAN; m];
                    sgemv_prepacked(&pa, &b, &mut got, &epi);
                    let same = got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits());
                    assert!(same, "({m},{k}) {act:?} at {threads} threads");
                }
            }
        }
        crate::par::set_max_threads(0);
    }

    #[test]
    fn gemv_chains_are_the_micro_kernels_column() {
        // Each kernel family against its own micro-kernel: the portable
        // chains against `mk_portable`, the fused ones (where the CPU has
        // AVX2 and FMA) against `mk_avx2`, column 0 of a one-column tile.
        let (m, k) = (31, 300);
        let (a, b) = (rand_vec(m * k, 77), rand_vec(k, 78));
        let panels = m.div_ceil(MR);
        let mut ap = vec![0.0; panels * MR * k];
        pack_a(MatRef { data: &a, rs: k, cs: 1 }, 0, m, 0, k, &mut ap);
        let mut bp = vec![0.0; NR * k];
        pack_b(MatRef { data: &b, rs: 1, cs: 1 }, 0, 1, 0, k, &mut bp);
        let fin = Finish { alpha: 1.0, beta: None, epi: None };
        for fused in [false, avx2_fma()] {
            let mk: MicroKernel = if fused { microkernel() } else { mk_portable };
            let mut acc = vec![[0.0f32; MR]; panels];
            panel_chains(fused, k, &ap, &b, &mut acc);
            for (i, lanes) in acc.iter().enumerate() {
                let mut c = [0.0f32; MR];
                // SAFETY: panel `i` holds `MR * k` floats, `bp` a `k * NR`
                // packed panel, and `c` the `MR x 1` tile (`ldc == 1`); the
                // fused kernel is only chosen where the CPU has AVX2 and FMA.
                unsafe {
                    let t = CTile { c: c.as_mut_ptr(), ldc: 1, rows: MR, cols: 1, row0: 0 };
                    mk(k, ap[i * MR * k..].as_ptr(), bp.as_ptr(), NR, &t, &fin);
                }
                assert_eq!(lanes.map(f32::to_bits), c.map(f32::to_bits), "panel {i}, fused {fused}");
            }
        }
    }

    #[test]
    fn prepacked_result_is_thread_count_invariant() {
        let (m, k, n) = (150, 96, 333);
        let a = rand_vec(m * k, 81);
        let b = rand_vec(k * n, 82);
        let bias = rand_vec(m, 83);
        let pa = PackedGemmA::pack(m, k, &a);
        let epi = Epilogue::new(Some(&bias), EpilogueAct::Relu);
        let mut c1 = vec![0.0; m * n];
        let mut c8 = vec![0.0; m * n];
        crate::par::set_max_threads(1);
        sgemm_prepacked(&pa, n, &b, &mut c1, &epi);
        crate::par::set_max_threads(8);
        sgemm_prepacked(&pa, n, &b, &mut c8, &epi);
        crate::par::set_max_threads(0);
        assert_eq!(c1, c8);
    }

    const ACTS: [EpilogueAct; 4] =
        [EpilogueAct::None, EpilogueAct::Relu, EpilogueAct::HardSwish, EpilogueAct::HardSigmoid];

    /// The blocked engine itself (no small-problem cutoff) on a row-major A.
    #[allow(clippy::too_many_arguments)]
    fn engine(m: usize, k: usize, n: usize, alpha: f32, beta: f32, a: &[f32], b: MatRef<'_>, c0: &[f32], epi: Option<&Epilogue<'_>>) -> Vec<f32> {
        let mut c = c0.to_vec();
        gemm_blocked(m, k, n, alpha, beta, ASrc::Mat(MatRef { data: a, rs: k, cs: 1 }), b, &mut c, epi);
        c
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Differential test of the engine over tile-edge shapes: B read in
        /// place and the same B passed through a column stride (which packs
        /// every panel) must agree bit for bit, a fused epilogue must equal
        /// the unfused result plus `apply_rows` bit for bit, and the unfused
        /// result must match the scalar reference. Runs with debug
        /// assertions on, so every in-place read and tile store also passes
        /// the engine's extent contracts.
        #[test]
        fn engine_is_bitwise_stable_across_b_layouts_and_epilogues(
            m in proptest::sample::select(vec![1usize, 5, 7, 97, 100]),
            k in proptest::sample::select(vec![1usize, 24, KC, KC + 1, 2 * KC + 3]),
            n in proptest::sample::select(vec![1usize, 7, 15, 16, 17, 31, 32, 33, NC, NC + 1, NC + 15]),
            act in proptest::sample::select(ACTS.to_vec()),
            with_bias in proptest::prelude::any::<bool>(),
            alpha in proptest::sample::select(vec![1.0f32, 0.7, -1.3]),
            beta in proptest::sample::select(vec![0.0f32, 1.0, 0.5]),
            seed in 0u64..1000,
        ) {
            let a = rand_vec(m * k, seed);
            let b = rand_vec(k * n, seed + 1);
            let c0 = rand_vec(m * n, seed + 2);
            let bias = rand_vec(m, seed + 3);
            let mut bt = vec![0.0; n * k];
            for p in 0..k {
                for j in 0..n {
                    bt[j * k + p] = b[p * n + j];
                }
            }
            let rows = MatRef { data: &b, rs: n, cs: 1 };
            let strided = MatRef { data: &bt, rs: 1, cs: k };
            let epi = Epilogue::new(with_bias.then_some(&bias[..]), act);

            let before = gemm_stats();
            let plain = engine(m, k, n, alpha, beta, &a, rows, &c0, None);
            let full_panels = (k.div_ceil(KC) * (n / NR)) as u64;
            assert!(gemm_stats().b_panels_in_place - before.b_panels_in_place >= full_panels);
            assert_eq!(plain, engine(m, k, n, alpha, beta, &a, strided, &c0, None), "in place vs packed");

            let fused = engine(m, k, n, alpha, beta, &a, rows, &c0, Some(&epi));
            assert_eq!(fused, engine(m, k, n, alpha, beta, &a, strided, &c0, Some(&epi)), "fused: in place vs packed");
            let mut want = plain.clone();
            epi.apply_rows(m, n, &mut want);
            assert_eq!(fused, want, "fused vs unfused + apply_rows");

            let mut oracle = c0.clone();
            reference::sgemm(m, k, n, alpha, &a, &b, beta, &mut oracle);
            for (x, y) in plain.iter().zip(&oracle) {
                assert!((x - y).abs() < 1e-3, "({m},{k},{n}): {x} vs {y}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_activation_is_bitwise_the_scalar_one() {
        if !std::is_x86_feature_detected!("avx2") {
            return;
        }
        use std::arch::x86_64::*;
        // Signed zeros, the clamp's corners and their neighbours, subnormals,
        // infinities, values whose `v * 6` overflows, and NaN. A NaN result
        // must be NaN in both forms (its payload is not compared).
        let sweep = [
            0.0f32, -0.0, 3.0, -3.0, 6.0, -6.0, 2.999_999_8, -2.999_999_8, 3.000_000_2, -3.000_000_2,
            1e-40, -1e-40, f32::MIN_POSITIVE, -f32::MIN_POSITIVE, f32::INFINITY, f32::NEG_INFINITY,
            3e38, -3e38, f32::MAX, f32::MIN, 1.5, -1.5, 0.1, f32::NAN,
        ];
        for act in ACTS {
            for lanes in sweep.chunks_exact(8) {
                let mut got = [0.0f32; 8];
                // SAFETY: AVX2 checked above; both arrays hold eight floats.
                unsafe { _mm256_storeu_ps(got.as_mut_ptr(), act_avx2(act, _mm256_loadu_ps(lanes.as_ptr()))) };
                for (&v, &g) in lanes.iter().zip(&got) {
                    let want = act.apply(v);
                    assert!(
                        g.to_bits() == want.to_bits() || (g.is_nan() && want.is_nan()),
                        "{act:?}({v:e}): vector {g:e} vs scalar {want:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn portable_tile_body_matches_reference() {
        // (rows, cols, k, n, j): one tile at column `j` of a `[k, n]` B —
        // full-width tiles read B in place, the narrow ones a packed panel.
        for &(rows, cols, k, n, j) in &[(6, 16, 24, 40, 16), (6, 16, 300, 16, 0), (5, 9, 37, 9, 0), (1, 1, 1, 1, 0), (3, 4, 8, 20, 16)] {
            let a = rand_vec(rows * k, 91);
            let b = rand_vec(k * n, 92);
            let c0 = rand_vec(rows * n, 93);
            let (mut c, mut want) = (c0.clone(), c0.clone());
            reference::sgemm(rows, k, n, 0.7, &a, &b, 0.5, &mut want);
            let mut ap = vec![0.0; MR * k];
            pack_a(MatRef { data: &a, rs: k, cs: 1 }, 0, rows, 0, k, &mut ap);
            let bview = MatRef { data: &b, rs: n, cs: 1 };
            let mut bpack = vec![0.0; NR * k];
            let (bp, ldb) = if cols == NR {
                (b[j..].as_ptr(), n)
            } else {
                pack_b(bview, j, cols, 0, k, &mut bpack);
                (bpack.as_ptr(), NR)
            };
            let fin = Finish { alpha: 0.7, beta: Some(0.5), epi: None };
            // SAFETY: `ap` holds `k * MR` floats; `bp` either a `k * NR`
            // packed panel or column `j` of `b` with `j + NR <= n`; the tile
            // is `rows x cols` of `c` at column `j`, `j + cols <= n`.
            unsafe {
                let t = CTile { c: c.as_mut_ptr().add(j), ldc: n, rows, cols, row0: 0 };
                mk_portable(k, ap.as_ptr(), bp, ldb, &t, &fin);
            }
            for r in 0..rows {
                for col in 0..n {
                    let (x, y) = (c[r * n + col], want[r * n + col]);
                    if (j..j + cols).contains(&col) {
                        assert!((x - y).abs() < 1e-5, "({rows},{cols},{k}) at ({r},{col}): {x} vs {y}");
                    } else {
                        assert_eq!(x.to_bits(), c0[r * n + col].to_bits(), "wrote outside the tile");
                    }
                }
            }
        }
    }

    #[test]
    fn epilogue_math_matches_the_definitions() {
        let bias = [1.0f32];
        let e = Epilogue::new(Some(&bias), EpilogueAct::HardSwish);
        // v=2, +bias=3 -> hswish(3) = 3*6/6... clamp(6,0,6)=6 -> 3.0
        assert_eq!(e.apply(0, 2.0), 3.0);
        assert_eq!(EpilogueAct::Relu.apply(-2.0), 0.0);
        assert_eq!(EpilogueAct::HardSigmoid.apply(3.0), 1.0);
        assert_eq!(EpilogueAct::None.apply(-7.5), -7.5);
    }

    #[test]
    fn at_b_matches_naive() {
        let (m, k, n) = (5, 7, 3);
        let at = rand_vec(k * m, 3); // stored as [k, m]
        let b = rand_vec(k * n, 4);
        let mut c = vec![0.0; m * n];
        sgemm_at_b(m, k, n, 1.0, &at, &b, 0.0, &mut c);
        // Build a = at^T and compare.
        let mut a = vec![0.0; m * k];
        for p in 0..k {
            for i in 0..m {
                a[i * k + p] = at[p * m + i];
            }
        }
        let want = naive(m, k, n, &a, &b);
        for (x, y) in c.iter().zip(&want) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn a_bt_matches_naive() {
        let (m, k, n) = (4, 6, 5);
        let a = rand_vec(m * k, 5);
        let bt = rand_vec(n * k, 6); // stored as [n, k]
        let mut c = vec![0.0; m * n];
        sgemm_a_bt(m, k, n, 1.0, &a, &bt, 0.0, &mut c);
        let mut b = vec![0.0; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = bt[j * k + p];
            }
        }
        let want = naive(m, k, n, &a, &b);
        for (x, y) in c.iter().zip(&want) {
            assert!((x - y).abs() < 1e-4);
        }
    }
}
