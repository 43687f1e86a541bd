//! 2-D convolution: forward and exact backward, with fast paths for the two
//! shapes RevBiFPN uses constantly (1x1 pointwise and depthwise) and a
//! general im2col path for everything else (dense 3x3 stems, baselines).
//!
//! # Parallelism and determinism
//!
//! Every path parallelizes at two granularities and picks between them by
//! batch size:
//!
//! - **batch splitting** when the batch has at least one sample per worker
//!   (per-sample output slices are disjoint, inner kernels run inline);
//! - **intra-sample tiling** otherwise: the packed GEMM fans its macro-tiles
//!   out over the pool, im2col fills column rows in parallel, col2im and the
//!   depthwise kernels tile over `(sample, channel)` planes.
//!
//! Both regimes compute each output element from the same sequence of
//! operations, so `conv2d` / `conv2d_backward` results are **bitwise
//! identical for any thread count** (see `tests/determinism.rs`). Weight
//! gradients are reduced from per-*sample* partial slabs merged in a fixed
//! pairwise tree — never from per-*thread* accumulators, whose count would
//! vary with the pool size.
//!
//! Workspace buffers (im2col columns, gradient slabs, padded planes) come
//! from the thread-local scratch arena ([`crate::scratch`]), so steady-state
//! calls perform no heap allocation beyond the output tensors themselves.
//!
//! # One depthwise family
//!
//! Frozen plans and training share one depthwise kernel over **zero-padded
//! plane images** ([`crate::dw_plane`]: register tile, column phases for
//! strided kernels, epilogue and plane sum in registers, AVX2 and a scalar
//! twin with the same bits):
//!
//! - the forward is `depthwise_planes` everywhere — f32 plans, int8 plans
//!   (whose taps are dequantized as the driver writes them) and training,
//!   which passes the identity epilogue (`bias 0`, no activation);
//! - at stride 1 the input gradient **is that forward kernel**, run over
//!   `dy` zero-padded by `k - 1 - p` with the taps flipped, and each tap's
//!   weight gradient is one contiguous dot product of the padded `dy` and
//!   `x` images (`lane_dot`: eight lanes by position, four accumulators,
//!   reduced in one order fixed by the source);
//! - the strided silo kernels (5/s2, 9/s4, 17/s8) and any other geometry
//!   gather (`GradPlane`): each tap sums its pixels in raster order, the
//!   taps held as register lanes, and each `dx` element sums its terms in a
//!   register in the reference walk's order, zero-`dy` terms masked.
//!
//! Every kernel of the backward runs on the lane twins (`run_lanes`: AVX2,
//! never `fma`, or `[f32; 8]`) with the same bits either way; small planes
//! (6², 3²) go several to a parallel tile so one scratch borrow serves them
//! all.

use crate::dw_plane::{
    cpu_has_avx2, depthwise_padded_plane, pad_plane, run_lanes, DwCall, GatherRows, GradPlane, LaneKernel, Lanes,
    PlaneImage,
};
use crate::matmul::{
    sgemm, sgemm_a_bt, sgemm_at_b, sgemm_gathered, sgemm_int8, sgemm_prepacked, Epilogue, EpilogueAct, Int8Rows,
    PackedGemmA,
};
use crate::par::{for_each_sample, plane_groups_mut, tiles_mut, GradSink, Runs, SyncPtr};
use crate::qmatmul::quantize_weights_per_row;
use crate::scratch;
use crate::shape::{Shape, ShapeError};
use crate::tensor::Tensor;

/// Geometry of a 2-D convolution.
///
/// Weights are `[c_out, c_in / groups, kh, kw]`; `groups == c_in == c_out`
/// is a depthwise convolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvSpec {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Vertical stride.
    pub sh: usize,
    /// Horizontal stride.
    pub sw: usize,
    /// Vertical zero-padding (both sides).
    pub ph: usize,
    /// Horizontal zero-padding (both sides).
    pub pw: usize,
    /// Channel groups.
    pub groups: usize,
}

impl ConvSpec {
    /// Square-kernel spec with "same"-style padding `k / 2`.
    pub fn kxk(k: usize, stride: usize) -> Self {
        Self { kh: k, kw: k, sh: stride, sw: stride, ph: k / 2, pw: k / 2, groups: 1 }
    }

    /// 1x1 pointwise convolution.
    pub fn pointwise() -> Self {
        Self::kxk(1, 1)
    }

    /// Depthwise square-kernel spec for `c` channels.
    pub fn depthwise(k: usize, stride: usize, c: usize) -> Self {
        Self { groups: c, ..Self::kxk(k, stride) }
    }

    /// Returns a copy with explicit padding.
    pub fn with_padding(mut self, ph: usize, pw: usize) -> Self {
        self.ph = ph;
        self.pw = pw;
        self
    }

    /// Output spatial size for an input of `(h, w)`.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.ph).saturating_sub(self.kh) / self.sh + 1;
        let ow = (w + 2 * self.pw).saturating_sub(self.kw) / self.sw + 1;
        (oh, ow)
    }

    /// Output shape for input `x` and `c_out` output channels.
    pub fn out_shape(&self, x: Shape, c_out: usize) -> Shape {
        let (oh, ow) = self.out_hw(x.h, x.w);
        Shape::new(x.n, c_out, oh, ow)
    }

    /// Multiply-accumulate count of the forward pass.
    pub fn macs(&self, x: Shape, c_out: usize) -> u64 {
        let (oh, ow) = self.out_hw(x.h, x.w);
        (x.n * oh * ow * c_out * (x.c / self.groups) * self.kh * self.kw) as u64
    }

    fn is_pointwise(&self) -> bool {
        self.kh == 1 && self.kw == 1 && self.sh == 1 && self.sw == 1 && self.ph == 0 && self.pw == 0 && self.groups == 1
    }
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug)]
pub struct ConvGrads {
    /// Gradient w.r.t. the input (present unless `need_dx` was false).
    pub dx: Option<Tensor>,
    /// Gradient w.r.t. the weights.
    pub dw: Tensor,
    /// Gradient w.r.t. the bias (per output channel).
    pub db: Tensor,
}

fn check_conv_args(x: &Tensor, w: &Tensor, spec: &ConvSpec) -> Result<(), ShapeError> {
    let xs = x.shape();
    let ws = w.shape();
    if spec.groups == 0 || spec.kh == 0 || spec.kw == 0 || spec.sh == 0 || spec.sw == 0 {
        return Err(ShapeError::ZeroWindow { what: "conv2d kernel/stride/groups" });
    }
    if !xs.c.is_multiple_of(spec.groups) {
        return Err(ShapeError::Indivisible {
            what: "conv2d input channels vs groups",
            value: xs.c,
            divisor: spec.groups,
        });
    }
    if !ws.n.is_multiple_of(spec.groups) {
        return Err(ShapeError::Indivisible {
            what: "conv2d output channels vs groups",
            value: ws.n,
            divisor: spec.groups,
        });
    }
    if ws.c != xs.c / spec.groups || (ws.h, ws.w) != (spec.kh, spec.kw) {
        return Err(ShapeError::DimMismatch {
            what: "conv2d weight shape (c_in/groups, kh, kw)",
            expected: Shape::new(ws.n, xs.c / spec.groups, spec.kh, spec.kw),
            got: ws,
        });
    }
    // The spatial output must be non-empty: padded input at least one kernel.
    if xs.h + 2 * spec.ph < spec.kh || xs.w + 2 * spec.pw < spec.kw {
        return Err(ShapeError::DimMismatch {
            what: "conv2d input smaller than kernel",
            expected: Shape::new(xs.n, xs.c, spec.kh.saturating_sub(2 * spec.ph), spec.kw.saturating_sub(2 * spec.pw)),
            got: xs,
        });
    }
    Ok(())
}

/// Convolution forward pass.
///
/// # Panics
///
/// Panics if weight/bias shapes disagree with `spec` and `x`. Untrusted
/// inputs should go through [`try_conv2d`].
pub fn conv2d(x: &Tensor, w: &Tensor, bias: Option<&Tensor>, spec: &ConvSpec) -> Tensor {
    try_conv2d(x, w, bias, spec).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`conv2d`]: shape-contract violations come back as
/// [`ShapeError`] values instead of panics.
///
/// # Errors
///
/// Returns an error if weight/bias shapes disagree with `spec` and `x`, or
/// if the padded input is smaller than the kernel.
pub fn try_conv2d(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    spec: &ConvSpec,
) -> Result<Tensor, ShapeError> {
    check_conv_args(x, w, spec)?;
    let xs = x.shape();
    let c_out = w.shape().n;
    let out_shape = spec.out_shape(xs, c_out);
    let mut out = Tensor::zeros(out_shape);
    if spec.is_pointwise() {
        pointwise_forward(x, w, &mut out);
    } else if spec.groups == xs.c && c_out == xs.c {
        depthwise_forward(x, w, spec, &mut out);
    } else {
        general_forward(x, w, spec, &mut out);
    }
    if let Some(b) = bias {
        if b.shape().c != c_out || b.shape().numel() != c_out {
            return Err(ShapeError::DimMismatch {
                what: "conv2d bias shape",
                expected: Shape::vector(c_out),
                got: b.shape(),
            });
        }
        out.add_channel_bias(b);
    }
    Ok(out)
}

/// Convolution backward pass.
///
/// `dy` must have the shape [`ConvSpec::out_shape`] produces for `x`.
/// Set `need_dx = false` at the first layer of a network to skip the
/// (useless) input-gradient computation.
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn conv2d_backward(x: &Tensor, w: &Tensor, dy: &Tensor, spec: &ConvSpec, need_dx: bool) -> ConvGrads {
    let mut dw = Tensor::zeros(w.shape());
    let mut db = Tensor::zeros(Shape::vector(w.shape().n));
    let sinks = (GradSink::Owned(dw.data_mut()), Some(GradSink::Owned(db.data_mut())));
    let dx = conv2d_backward_accumulate(x, w, dy, spec, need_dx, sinks.0, sinks.1);
    ConvGrads { dx, dw, db }
}

/// [`conv2d_backward`] that adds the weight gradient into `dw` and the bias
/// gradient into `db` where they lie — a layer's gradient accumulators, its
/// own or the ones it shares with a partner shard — instead of returning
/// fresh tensors. Each element receives the reduced per-sample sum `s`
/// with one IEEE add, `a + s`: into zeros that is
/// [`conv2d_backward`]'s result, and into an accumulator it is the value of
/// `a += conv2d_backward(..).dw`, `a + (0 + s)`, bit for bit unless `a` and
/// `s` are both `-0.0` (an accumulator zeroed to `+0.0` never reads `-0.0`).
/// A bias-free layer passes `db = None` and skips the bias reduction, a
/// full read pass over `dy`. Returns `dx` unless `need_dx` is false.
///
/// # Panics
///
/// Panics on shape mismatches, or if `dw` / `db` do not hold the weight's /
/// `c_out` elements.
pub fn conv2d_backward_accumulate(
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    spec: &ConvSpec,
    need_dx: bool,
    dw: GradSink<'_>,
    db: Option<GradSink<'_>>,
) -> Option<Tensor> {
    check_conv_args(x, w, spec).unwrap_or_else(|e| panic!("{e}"));
    let c_out = w.shape().n;
    assert_eq!(dy.shape(), spec.out_shape(x.shape(), c_out), "dy shape mismatch");
    assert_eq!(dw.len(), w.shape().numel(), "dw must hold the weight's elements");
    if let Some(db) = db {
        assert_eq!(db.len(), c_out, "db must hold c_out elements");
        bias_grad(dy, db);
    }
    if spec.is_pointwise() {
        pointwise_backward(x, w, dy, need_dx, dw)
    } else if spec.groups == x.shape().c && c_out == x.shape().c {
        depthwise_backward(x, w, dy, spec, need_dx, dw)
    } else {
        general_backward(x, w, dy, spec, need_dx, dw)
    }
}

// ------------------------------------------------------------- frozen plans

/// Where a [`ConvPlan`]'s weights live. Public so frozen-model artifacts can
/// disassemble and rebuild plans without re-packing or re-quantizing.
#[derive(Clone, Debug)]
pub enum PlanKind {
    /// `[c_out, c_in]` weights packed once as the GEMM left operand.
    Pointwise(PackedGemmA),
    /// Depthwise kernels kept raw (the plane kernel consumes them directly);
    /// bias and activation are applied plane-at-a-time while hot.
    Depthwise {
        /// Raw `[c, kh, kw]` depthwise taps.
        weight: Vec<f32>,
    },
    /// One packed left operand per group for the im2col path.
    General {
        /// Per-group packed operands, group-major.
        groups: Vec<PackedGemmA>,
    },
    /// Per-output-channel int8 weights, any geometry: the f32 kernels read
    /// `q as f32 * scale` where they read a weight (the GEMM as it packs its
    /// A panel, the depthwise driver as it writes a channel's taps), so the
    /// plan computes what an f32 plan of those dequantized weights does, bit
    /// for bit. Activations stay f32.
    Int8 {
        /// Row-major `[c_out, c_in / groups * kh * kw]`, each row
        /// `round(w / scale)` clamped to `[-127, 127]`.
        qweight: Vec<i8>,
        /// Per-output-channel scales, `max|w| / 127` (1 for a zero row).
        scales: Vec<f32>,
    },
}

/// A convolution compiled for frozen inference: weights pre-packed into the
/// blocked GEMM's panel layout exactly once (or kept as int8 rows, see
/// [`PlanKind::Int8`]), with the per-channel bias and activation fused into
/// the kernel write-back.
///
/// The plan is immutable after construction — repeated [`ConvPlan::forward`]
/// calls never re-pack weights; only the per-call im2col columns and the
/// GEMM's B panels go through the thread-local scratch arena.
#[derive(Clone, Debug)]
pub struct ConvPlan {
    spec: ConvSpec,
    c_in: usize,
    c_out: usize,
    bias: Vec<f32>,
    act: EpilogueAct,
    kind: PlanKind,
}

impl ConvPlan {
    /// Compiles a plan from folded weights `[c_out, c_in/groups, kh, kw]`,
    /// a per-channel bias (length `c_out`; pass zeros for a bias-free conv)
    /// and the activation to fuse.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != c_out` or the weight shape disagrees with
    /// `spec` (zero-sized kernels/groups included).
    pub fn new(w: &Tensor, bias: Vec<f32>, spec: ConvSpec, act: EpilogueAct) -> Self {
        let (c_in, c_out) = check_plan_args(w, &bias, &spec);
        let data = w.data();
        let kind = if spec.is_pointwise() {
            PlanKind::Pointwise(PackedGemmA::pack(c_out, c_in, data))
        } else if is_depthwise(&spec, c_in, c_out) {
            PlanKind::Depthwise { weight: data.to_vec() }
        } else {
            let (cout_g, k) = (c_out / spec.groups, data.len() / c_out);
            let groups = data.chunks_exact(cout_g * k).map(|wg| PackedGemmA::pack(cout_g, k, wg)).collect();
            PlanKind::General { groups }
        };
        Self { spec, c_in, c_out, bias, act, kind }
    }

    /// [`ConvPlan::new`] with the weights quantized per output channel to
    /// int8 ([`PlanKind::Int8`]).
    ///
    /// # Panics
    ///
    /// As [`ConvPlan::new`].
    pub fn new_int8(w: &Tensor, bias: Vec<f32>, spec: ConvSpec, act: EpilogueAct) -> Self {
        let (c_in, c_out) = check_plan_args(w, &bias, &spec);
        let (qweight, scales) = quantize_weights_per_row(c_out, w.data().len() / c_out, w.data());
        Self { spec, c_in, c_out, bias, act, kind: PlanKind::Int8 { qweight, scales } }
    }

    /// The convolution geometry this plan was compiled for.
    pub fn spec(&self) -> &ConvSpec {
        &self.spec
    }

    /// Output channels.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// Expected input channels.
    pub fn c_in(&self) -> usize {
        self.c_in
    }

    /// The fused per-channel bias.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// The fused epilogue activation.
    pub fn act(&self) -> EpilogueAct {
        self.act
    }

    /// The weight payload (packed panels, raw taps or int8 rows).
    pub fn kind(&self) -> &PlanKind {
        &self.kind
    }

    /// Whether the weights are int8 ([`PlanKind::Int8`]).
    pub fn is_int8(&self) -> bool {
        matches!(self.kind, PlanKind::Int8 { .. })
    }

    /// Reassembles a plan from serialized parts without re-packing —
    /// the artifact-loading counterpart of [`ConvPlan::new`] and
    /// [`ConvPlan::new_int8`].
    ///
    /// # Errors
    ///
    /// Rejects any inconsistency between `spec`, the channel counts, the
    /// bias length and the payload's own dimensions.
    pub fn from_parts(
        spec: ConvSpec,
        c_in: usize,
        c_out: usize,
        bias: Vec<f32>,
        act: EpilogueAct,
        kind: PlanKind,
    ) -> Result<Self, &'static str> {
        if bias.len() != c_out {
            return Err("conv plan bias must have c_out entries");
        }
        if spec.groups == 0 || spec.kh == 0 || spec.kw == 0 || spec.sh == 0 || spec.sw == 0 {
            return Err("degenerate conv spec");
        }
        if c_out == 0 || c_in == 0 || !c_out.is_multiple_of(spec.groups) || !c_in.is_multiple_of(spec.groups) {
            return Err("channel counts must divide into groups");
        }
        let k = (c_in / spec.groups) * spec.kh * spec.kw;
        let fits = match &kind {
            PlanKind::Pointwise(pa) => spec.is_pointwise() && pa.m() == c_out && pa.k() == c_in,
            PlanKind::Depthwise { weight } => is_depthwise(&spec, c_in, c_out) && weight.len() == c_out * k,
            PlanKind::General { groups } => {
                groups.len() == spec.groups && groups.iter().all(|pa| pa.m() == c_out / spec.groups && pa.k() == k)
            }
            PlanKind::Int8 { qweight, scales } => qweight.len() == c_out * k && scales.len() == c_out,
        };
        if fits {
            Ok(Self { spec, c_in, c_out, bias, act, kind })
        } else {
            Err("weight payload disagrees with the plan header")
        }
    }

    /// Resident bytes of the persistent packed/retained weight image (int8
    /// rows and their scales for an int8 plan).
    pub fn packed_bytes(&self) -> usize {
        match &self.kind {
            PlanKind::Pointwise(pa) => pa.bytes(),
            PlanKind::Depthwise { weight } => weight.len() * std::mem::size_of::<f32>(),
            PlanKind::General { groups } => groups.iter().map(PackedGemmA::bytes).sum(),
            PlanKind::Int8 { qweight, scales } => qweight.len() + scales.len() * std::mem::size_of::<f32>(),
        }
    }

    /// Output shape for input shape `xs`.
    pub fn out_shape(&self, xs: Shape) -> Shape {
        self.spec.out_shape(xs, self.c_out)
    }

    /// Fused forward: convolution, bias and activation in one pass.
    ///
    /// # Panics
    ///
    /// Panics on input-shape violations; see [`ConvPlan::try_forward`].
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.try_forward(x).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible fused forward.
    ///
    /// # Errors
    ///
    /// Returns an error if `x`'s channels disagree with the plan or the
    /// padded input is smaller than the kernel.
    pub fn try_forward(&self, x: &Tensor) -> Result<Tensor, ShapeError> {
        self.try_forward_sums(x).map(|(y, _)| y)
    }

    /// [`ConvPlan::try_forward`] that also hands back what a depthwise plan
    /// summed on the way: every output plane's sum, `[n, c, 1, 1]`, finished
    /// in the kernel's registers (`None` from pointwise and general plans).
    /// A squeeze-excite gate that follows reads its pooled input from it.
    ///
    /// # Errors
    ///
    /// As [`ConvPlan::try_forward`].
    pub fn try_forward_sums(&self, x: &Tensor) -> Result<(Tensor, Option<Tensor>), ShapeError> {
        let xs = x.shape();
        if xs.c != self.c_in {
            return Err(ShapeError::DimMismatch {
                what: "fused conv input channels",
                expected: Shape::new(xs.n, self.c_in, xs.h, xs.w),
                got: xs,
            });
        }
        if xs.h + 2 * self.spec.ph < self.spec.kh || xs.w + 2 * self.spec.pw < self.spec.kw {
            return Err(ShapeError::DimMismatch {
                what: "fused conv input smaller than kernel",
                expected: Shape::new(
                    xs.n,
                    xs.c,
                    self.spec.kh.saturating_sub(2 * self.spec.ph),
                    self.spec.kw.saturating_sub(2 * self.spec.pw),
                ),
                got: xs,
            });
        }
        let mut out = Tensor::zeros(self.out_shape(xs));
        let (xdata, chw_in, chw_out) = (x.data(), xs.chw(), out.shape().chw());
        let ksz = self.spec.kh * self.spec.kw;
        let sums = match &self.kind {
            PlanKind::Depthwise { weight } => Some(self.depthwise(x, &mut out, |c, kern| {
                kern.copy_from_slice(&weight[c * ksz..(c + 1) * ksz]);
            })),
            PlanKind::Int8 { qweight, scales } if is_depthwise(&self.spec, self.c_in, self.c_out) => {
                Some(self.depthwise(x, &mut out, |c, kern| {
                    for (t, &q) in kern.iter_mut().zip(&qweight[c * ksz..(c + 1) * ksz]) {
                        *t = q as f32 * scales[c];
                    }
                }))
            }
            _ if self.spec.is_pointwise() => {
                for_each_sample(out.data_mut(), chw_out, |n, yslice| {
                    self.gemm(0, xs.hw(), &xdata[n * chw_in..(n + 1) * chw_in], yslice);
                });
                None
            }
            _ => {
                let (oh, ow) = (out.shape().h, out.shape().w);
                let cin_g = xs.c / self.spec.groups;
                let ycols = self.c_out / self.spec.groups * oh * ow;
                for_each_sample(out.data_mut(), chw_out, |n, yslice| {
                    let xn = &xdata[n * chw_in..(n + 1) * chw_in];
                    let mut col = scratch::take(cin_g * ksz * oh * ow);
                    for (g, yg) in yslice.chunks_exact_mut(ycols).enumerate() {
                        im2col(xn, xs, &self.spec, g * cin_g, (g + 1) * cin_g, oh, ow, &mut col);
                        self.gemm(g, oh * ow, &col, yg);
                    }
                });
                None
            }
        };
        Ok((out, sums))
    }

    /// `c = epilogue(w_g @ b)` for group `g`'s rows of the weights, `b`
    /// holding `n` columns.
    fn gemm(&self, g: usize, n: usize, b: &[f32], c: &mut [f32]) {
        let cout_g = self.c_out / self.spec.groups;
        let rows = g * cout_g..(g + 1) * cout_g;
        let epi = Epilogue::new(Some(&self.bias[rows.clone()]), self.act);
        match &self.kind {
            PlanKind::Pointwise(pa) => sgemm_prepacked(pa, n, b, c, &epi),
            PlanKind::General { groups } => sgemm_prepacked(&groups[g], n, b, c, &epi),
            PlanKind::Int8 { qweight, scales } => {
                let k = qweight.len() / self.c_out;
                let q = &qweight[rows.start * k..rows.end * k];
                sgemm_int8(Int8Rows { q, scales: &scales[rows], k }, n, b, c, &epi);
            }
            PlanKind::Depthwise { .. } => unreachable!("depthwise plans run the plane kernel"),
        }
    }

    /// The depthwise forward with `taps` writing a channel's f32 taps;
    /// returns the output's plane sums.
    fn depthwise(&self, x: &Tensor, out: &mut Tensor, taps: impl Fn(usize, &mut [f32]) + Sync) -> Tensor {
        depthwise_planes(x, &self.spec, cpu_has_avx2(), out, taps, |c| (self.bias[c], self.act))
    }
}

/// Checks a plan's weights `[c_out, c_in/groups, kh, kw]` and bias against
/// `spec`; returns `(c_in, c_out)`.
fn check_plan_args(w: &Tensor, bias: &[f32], spec: &ConvSpec) -> (usize, usize) {
    let ws = w.shape();
    assert_eq!(bias.len(), ws.n, "conv plan bias must have c_out entries");
    assert!(spec.groups > 0 && spec.kh > 0 && spec.kw > 0 && spec.sh > 0 && spec.sw > 0, "degenerate conv spec");
    assert_eq!((ws.h, ws.w), (spec.kh, spec.kw), "weight kernel dims must match spec");
    assert!(ws.n.is_multiple_of(spec.groups), "c_out must divide into groups");
    (ws.c * spec.groups, ws.n)
}

/// Whether a plan runs the depthwise plane kernel: one input and one output
/// channel per group.
fn is_depthwise(spec: &ConvSpec, c_in: usize, c_out: usize) -> bool {
    spec.groups > 1 && spec.groups == c_in && c_in == c_out
}

// -------------------------------------------------------------- scheduling

/// Accumulates per-**sample** weight-gradient slabs into `dw` with the
/// crate-wide pairwise sample tree — see
/// [`crate::par::tree_reduce_with_slabs`] for the determinism and
/// shard-alignment contract and the row blocks `fill` is called with.
fn reduce_sample_grads<F>(n: usize, rows: usize, cols: usize, dw: GradSink<'_>, fill: F)
where
    F: Fn(usize, std::ops::Range<usize>, &mut [f32]) + Sync,
{
    crate::par::tree_reduce_with_slabs(n, rows, cols, dw, fill);
}

/// Per-channel bias gradient: each sample's per-channel plane sums are
/// reduced over the batch with the same pairwise tree as the weight
/// gradients, so `db` is bitwise invariant to both thread count and
/// micro-batch shard boundaries (see [`crate::par::tree_reduce_serial`]'s
/// shard-alignment docs). A straight `for n in 0..n` fold would tie the
/// f32 association to the batch extent and break shard invariance. The
/// root is added into `db`.
fn bias_grad(dy: &Tensor, db: GradSink<'_>) {
    let os = dy.shape();
    let hw = os.hw();
    let dydata = dy.data();
    reduce_sample_grads(os.n, 1, os.c, db, |n, _, slab| {
        for (c, s) in slab.iter_mut().enumerate() {
            let base = (n * os.c + c) * hw;
            *s = dydata[base..base + hw].iter().sum::<f32>();
        }
    });
}

// ---------------------------------------------------------------- pointwise

// Forward and input gradient run per sample, except where a per-sample GEMM
// would leave a ragged panel or go to the reference kernel: there the
// samples are the columns of one GEMM (`sgemm_gathered`), with the bits of
// the per-sample calls.

fn pointwise_forward(x: &Tensor, w: &Tensor, out: &mut Tensor) {
    let xs = x.shape();
    let c_out = w.shape().n;
    let hw = xs.hw();
    let chw_in = xs.chw();
    let chw_out = out.shape().chw();
    let xdata = x.data();
    let wdata = w.data();
    if !sgemm_gathered(c_out, xs.c, hw, wdata, false, xdata, out.data_mut()) {
        for_each_sample(out.data_mut(), chw_out, |n, yslice| {
            let xn = &xdata[n * chw_in..(n + 1) * chw_in];
            // y [c_out, hw] = w [c_out, c_in] @ x [c_in, hw]
            sgemm(c_out, xs.c, hw, 1.0, wdata, xn, 0.0, yslice);
        });
    }
}

fn pointwise_backward(x: &Tensor, w: &Tensor, dy: &Tensor, need_dx: bool, dw: GradSink<'_>) -> Option<Tensor> {
    let xs = x.shape();
    let c_out = w.shape().n;
    let hw = xs.hw();
    let chw_in = xs.chw();
    let chw_out = dy.shape().chw();
    let xdata = x.data();
    let wdata = w.data();
    let dydata = dy.data();

    // dw [c_out, c_in] += sum_n dy_n [c_out, hw] @ x_n^T [hw, c_in], one
    // block of output channels at a time.
    reduce_sample_grads(xs.n, c_out, xs.c, dw, |n, rows, slab| {
        let dyn_ = &dydata[n * chw_out + rows.start * hw..n * chw_out + rows.end * hw];
        let xn = &xdata[n * chw_in..(n + 1) * chw_in];
        sgemm_a_bt(rows.len(), hw, xs.c, 1.0, dyn_, xn, 1.0, slab);
    });

    let dx = if need_dx {
        let mut dx = Tensor::zeros(xs);
        if !sgemm_gathered(xs.c, c_out, hw, wdata, true, dydata, dx.data_mut()) {
            for_each_sample(dx.data_mut(), chw_in, |n, dxslice| {
                let dyn_ = &dydata[n * chw_out..(n + 1) * chw_out];
                // dx [c_in, hw] = w^T [c_in, c_out] @ dy [c_out, hw]
                sgemm_at_b(xs.c, c_out, hw, 1.0, wdata, dyn_, 0.0, dxslice);
            });
        }
        Some(dx)
    } else {
        None
    };
    dx
}

// ---------------------------------------------------------------- depthwise

/// Runs [`depthwise_padded_plane`] over every `(sample, channel)` plane of
/// `x` into `out` — the one driver of frozen f32 and int8 plans and the
/// training forward. `taps` writes a channel's taps as f32, `epilogue` gives
/// a channel's `(bias, act)`. Returns the output's plane sums as
/// `[n, c, 1, 1]`, finished in the kernel's registers.
fn depthwise_planes(
    x: &Tensor,
    spec: &ConvSpec,
    avx2: bool,
    out: &mut Tensor,
    taps: impl Fn(usize, &mut [f32]) + Sync,
    epilogue: impl Fn(usize) -> (f32, EpilogueAct) + Sync,
) -> Tensor {
    let (xs, os) = (x.shape(), out.shape());
    let (hw, ohw) = (xs.hw(), os.hw());
    let ksz = spec.kh * spec.kw;
    let xdata = x.data();
    let lay = PlaneImage::new(xs.h, xs.w, spec);
    let floats = lay.floats(xs.w);
    let mut sums = Tensor::zeros(Shape::new(xs.n, xs.c, 1, 1));
    let runs = (Runs::new(out.data_mut(), ohw), Runs::new(sums.data_mut(), 1));
    plane_groups_mut(xs.n * xs.c, floats, runs, |group, (yplanes, plane_sums)| {
        // One copy into a zero-padded image buys a plane kernel with every
        // window in-bounds. Small planes go several to a tile and share its
        // image: each overwrites the interior, the zero border stays.
        let mut buf = scratch::take(ksz + floats);
        let (kern, img) = buf.split_at_mut(ksz);
        for (k, p) in group.enumerate() {
            let c = p % xs.c;
            taps(c, kern);
            pad_plane(&xdata[p * hw..(p + 1) * hw], xs.w, spec.ph, spec.pw, lay, img);
            let (bias, act) = epilogue(c);
            let call = DwCall { lay, oh: os.h, ow: os.w, bias, act };
            plane_sums[k] = depthwise_padded_plane(img, kern, spec, &call, avx2, &mut yplanes[k * ohw..(k + 1) * ohw]);
        }
    });
    sums
}

/// The training depthwise forward: the frozen plans' kernel and driver with
/// the identity epilogue (`bias 0`, no activation).
fn depthwise_forward(x: &Tensor, w: &Tensor, spec: &ConvSpec, out: &mut Tensor) {
    let ksz = spec.kh * spec.kw;
    let wdata = w.data();
    depthwise_planes(
        x,
        spec,
        cpu_has_avx2(),
        out,
        |c, kern| kern.copy_from_slice(&wdata[c * ksz..(c + 1) * ksz]),
        |_| (0.0, EpilogueAct::None),
    );
}

/// Scratch geometry of one depthwise-backward plane: the row stride both
/// images share, then the lengths of the padded `x` image, of the second
/// image and of the tap workspace.
///
/// With stride 1 and padding within the kernel's reach (`stencil`), the
/// second image is `dy` zero-padded by `k - 1 - p` — the input of the
/// forward kernel that computes `dx` — laid out at the `x` image's row
/// stride so that every tap gradient is one contiguous dot product of the
/// two images (eight floats of zero slack round its length up); the
/// workspace holds the flipped taps and eight lanes per tap. Every other
/// geometry gathers both gradients from the `x` image (eight floats of
/// slack behind it) and, for `dx`, from `dy`'s rows laid out by
/// [`GatherRows`] ([`GradPlane`]).
struct DwBackwardGeometry {
    stencil: bool,
    stride: usize,
    x_len: usize,
    aux_len: usize,
    taps_len: usize,
}

impl DwBackwardGeometry {
    fn new(xs: Shape, spec: &ConvSpec, need_dx: bool) -> Self {
        let stencil = spec.sh == 1 && spec.sw == 1 && spec.ph < spec.kh && spec.pw < spec.kw;
        let ksz = spec.kh * spec.kw;
        if stencil {
            let stride = xs.w + (2 * spec.pw).max(spec.kw - 1);
            let (x_len, aux_len) = ((xs.h + 2 * spec.ph) * stride + 8, (xs.h + spec.kh - 1) * stride + 8);
            Self { stencil, stride, x_len, aux_len, taps_len: 9 * ksz }
        } else {
            let stride = xs.w + 2 * spec.pw;
            let (oh, ow) = spec.out_hw(xs.h, xs.w);
            let aux_len = if need_dx { GatherRows::new(xs.w, ow, spec).floats(oh, spec) } else { 0 };
            Self { stencil, stride, x_len: (xs.h + 2 * spec.ph) * stride + 8, aux_len, taps_len: 0 }
        }
    }

    fn floats(&self) -> usize {
        self.x_len + self.aux_len + self.taps_len
    }
}

/// Products of two equally long slices (a multiple of eight floats) summed
/// into eight lanes: element `i` lands in lane `i % 8`, through one of four
/// independent accumulators (`i / 8 % 4`) that are then added lane by lane
/// as `(a0 + a1) + (a2 + a3)`. Element-wise only, so the two lane twins give
/// the same bits.
///
/// # Safety
///
/// [`Lanes`]' CPU contract (every load is of a slice sliced to it).
#[inline(always)]
unsafe fn lane_dot<V: Lanes>(a: &[f32], b: &[f32]) -> [f32; 8] {
    let mut acc = [V::splat(0.0); 4];
    let (a32, b32) = (a.chunks_exact(32), b.chunks_exact(32));
    let (a_rest, b_rest) = (a32.remainder(), b32.remainder());
    for (x, y) in a32.zip(b32) {
        for (q, acc) in acc.iter_mut().enumerate() {
            let (x, y) = (&x[8 * q..8 * q + 8], &y[8 * q..8 * q + 8]);
            *acc = acc.add(V::load(x.as_ptr()).mul(V::load(y.as_ptr())));
        }
    }
    for ((x, y), acc) in a_rest.chunks_exact(8).zip(b_rest.chunks_exact(8)).zip(acc.iter_mut()) {
        *acc = acc.add(V::load(x.as_ptr()).mul(V::load(y.as_ptr())));
    }
    acc[0].add(acc[1]).add(acc[2].add(acc[3])).to_array()
}

/// Every tap's [`lane_dot`] of the padded `dy` and `x` images, for
/// [`run_lanes`]: tap `(ky, kx)` reads `x` from `ky * stride + kx` on, and
/// its eight lanes go to `lanes[8 tap..]`.
struct TapDots<'a> {
    dy_img: &'a [f32],
    xpad: &'a [f32],
    stride: usize,
    kw: usize,
    lanes: &'a mut [f32],
}

// SAFETY: `lane_dot` loads only from slices sliced to its loads.
unsafe impl LaneKernel for TapDots<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<V: Lanes>(self) {
        let len = self.dy_img.len();
        for (tap, lanes) in self.lanes.chunks_exact_mut(8).enumerate() {
            let at = tap / self.kw * self.stride + tap % self.kw;
            lanes.copy_from_slice(&lane_dot::<V>(self.dy_img, &self.xpad[at..at + len]));
        }
    }
}

/// Reduces each tap's eight lanes in one fixed order. Out of line on
/// purpose: inlined next to [`lane_dot`], LLVM's SLP pass seeds two-float
/// vectors from this tree and drags the dot loops down to 64-bit loads.
#[inline(never)]
fn sum_tap_lanes(lanes: &[f32], dkern: &mut [f32]) {
    for (d, a) in dkern.iter_mut().zip(lanes.chunks_exact(8)) {
        *d = ((a[0] + a[4]) + (a[2] + a[6])) + ((a[1] + a[5]) + (a[3] + a[7]));
    }
}

/// Both gradients of one `(sample, channel)` plane. `work` is the tile's
/// scratch, laid out by [`DwBackwardGeometry`]; the padding of its images
/// must be zero on entry and is zero again on return. `avx2` allows the
/// AVX2 twin of its lane kernels.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn depthwise_backward_plane_body(
    xplane: &[f32],
    dyplane: &[f32],
    kern: &[f32],
    spec: &ConvSpec,
    xs: Shape,
    os: Shape,
    work: &mut [f32],
    dkern: &mut [f32],
    dxplane: Option<&mut [f32]>,
    avx2: bool,
) {
    let geo = DwBackwardGeometry::new(xs, spec, dxplane.is_some());
    let stride = geo.stride;
    let (xpad, rest) = work.split_at_mut(geo.x_len);
    let (aux, taps) = rest.split_at_mut(geo.aux_len);
    // Both images are single-phase, whatever the stride: only the stride-1
    // path runs the phase-reading forward kernel.
    let lay = PlaneImage::single_phase(stride);
    pad_plane(xplane, xs.w, spec.ph, spec.pw, lay, xpad);
    if geo.stencil {
        let (kflip, lanes) = taps.split_at_mut(kern.len());
        let (qh, qw) = (spec.kh - 1 - spec.ph, spec.kw - 1 - spec.pw);
        pad_plane(dyplane, os.w, qh, qw, lay, aux);
        // dw[ky][kx] = Σ dy[oy][ox] · xpad[oy + ky][ox + kx]: with both
        // images at one row stride that is a single dot product per tap
        // (the gaps between `dy`'s rows are zero).
        let len = ((os.h - 1) * stride + os.w).next_multiple_of(8);
        let dy_img = &aux[qh * stride + qw..qh * stride + qw + len];
        run_lanes(avx2, TapDots { dy_img, xpad, stride, kw: spec.kw, lanes: &mut *lanes });
        sum_tap_lanes(lanes, dkern);
        if let Some(dxplane) = dxplane {
            // dx = dy ⋆ flip(w): per element the taps add in the reference
            // walk's order (the last output pixel's tap first).
            kflip.iter_mut().zip(kern.iter().rev()).for_each(|(f, &k)| *f = k);
            let call = DwCall { lay, oh: xs.h, ow: xs.w, bias: 0.0, act: EpilogueAct::None };
            depthwise_padded_plane(aux, kflip, spec, &call, avx2, dxplane);
        }
    } else {
        let dx = dxplane.map(|d| (kern, &mut *aux, d));
        let (w, oh, ow) = (xs.w, os.h, os.w);
        run_lanes(avx2, GradPlane { xpad, stride, dyplane, spec, w, oh, ow, dkern, dx });
    }
}

/// The depthwise backward on the forward's padded planes, one pass per
/// `(sample, channel)` plane for both gradients (see
/// [`DwBackwardGeometry`]): at stride 1 `dx` **is** the forward kernel, run
/// over zero-padded `dy` with the taps flipped, and `dw` is one
/// [`lane_dot`] per tap; other geometries gather ([`GradPlane`]). Per-sample
/// tap gradients merge through the pairwise sample tree.
fn depthwise_backward(
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    spec: &ConvSpec,
    need_dx: bool,
    dw: GradSink<'_>,
) -> Option<Tensor> {
    let xs = x.shape();
    let os = dy.shape();
    let (hw, ohw) = (xs.hw(), os.hw());
    let ksz = spec.kh * spec.kw;
    let (xdata, wdata, dydata) = (x.data(), w.data(), dy.data());
    let floats = DwBackwardGeometry::new(xs, spec, need_dx).floats();

    let mut dx = need_dx.then(|| Tensor::zeros(xs));
    let dxptr = dx.as_mut().map(|t| SyncPtr::new(t.data_mut().as_mut_ptr()));
    reduce_sample_grads(xs.n, xs.c, ksz, dw, |n, rows, slab| {
        let dxs: &mut [f32] = match &dxptr {
            // SAFETY: sample `n`'s fill of this row block is the only writer
            // of its input-gradient planes `rows`.
            Some(d) => unsafe {
                std::slice::from_raw_parts_mut(d.get().add((n * xs.c + rows.start) * hw), rows.len() * hw)
            },
            None => &mut [],
        };
        // Channels within a sample are independent; tile over them so a
        // single-sample backward still fills the pool.
        plane_groups_mut(rows.len(), floats, (Runs::new(slab, ksz), Runs::new(dxs, hw)), |group, (dkerns, dxplanes)| {
            let mut work = scratch::take(floats);
            for (k, i) in group.enumerate() {
                let c = rows.start + i;
                let p = n * xs.c + c;
                let xplane = &xdata[p * hw..(p + 1) * hw];
                let dyplane = &dydata[p * ohw..(p + 1) * ohw];
                let kern = &wdata[c * ksz..(c + 1) * ksz];
                let dkern = &mut dkerns[k * ksz..(k + 1) * ksz];
                let dxplane = if need_dx { Some(&mut dxplanes[k * hw..(k + 1) * hw]) } else { None };
                depthwise_backward_plane_body(xplane, dyplane, kern, spec, xs, os, &mut work, dkern, dxplane, true);
            }
        });
    });
    dx
}

// ------------------------------------------------------------------ general

/// Fills one row of the im2col matrix: input channel `c`, kernel offset
/// `(ky, kx)`, all output positions.
#[allow(clippy::too_many_arguments)]
fn im2col_row(
    xn: &[f32],
    xs: Shape,
    spec: &ConvSpec,
    c: usize,
    ky: usize,
    kx: usize,
    oh: usize,
    ow: usize,
    dst: &mut [f32],
) {
    let xplane = &xn[c * xs.hw()..(c + 1) * xs.hw()];
    // `ix = ox*sw + kx - pw` is monotone in `ox`, so the in-bounds outputs
    // form one contiguous run `[ox_lo, ox_end)`; everything outside it is
    // padding. Computing the run bounds once removes the per-element branch.
    let (sw, pw) = (spec.sw, spec.pw);
    let ox_lo = if pw > kx { (pw - kx).div_ceil(sw).min(ow) } else { 0 };
    let ox_end = if xs.w + pw > kx { ((xs.w + pw - kx - 1) / sw + 1).min(ow) } else { 0 };
    let ox_end = ox_end.max(ox_lo);
    for oy in 0..oh {
        let iy = (oy * spec.sh + ky) as isize - spec.ph as isize;
        let dst_row = &mut dst[oy * ow..(oy + 1) * ow];
        if iy < 0 || iy >= xs.h as isize {
            dst_row.iter_mut().for_each(|v| *v = 0.0);
            continue;
        }
        let xrow = &xplane[iy as usize * xs.w..(iy as usize + 1) * xs.w];
        dst_row[..ox_lo].iter_mut().for_each(|v| *v = 0.0);
        dst_row[ox_end..].iter_mut().for_each(|v| *v = 0.0);
        let ix0 = ox_lo * sw + kx - pw;
        if sw == 1 {
            dst_row[ox_lo..ox_end].copy_from_slice(&xrow[ix0..ix0 + (ox_end - ox_lo)]);
        } else {
            for (i, d) in dst_row[ox_lo..ox_end].iter_mut().enumerate() {
                *d = xrow[ix0 + i * sw];
            }
        }
    }
}

/// Builds the `[(c1-c0) * kh * kw, oh * ow]` column matrix, one parallel
/// tile per row (each row is written by exactly one tile).
#[allow(clippy::too_many_arguments)]
fn im2col(xn: &[f32], xs: Shape, spec: &ConvSpec, c0: usize, c1: usize, oh: usize, ow: usize, col: &mut [f32]) {
    let ohw = oh * ow;
    let ksz = spec.kh * spec.kw;
    let rows = (c1 - c0) * ksz;
    tiles_mut(rows, Runs::new(col, ohw), |row, dst| {
        let c = c0 + row / ksz;
        let (ky, kx) = ((row % ksz) / spec.kw, row % spec.kw);
        im2col_row(xn, xs, spec, c, ky, kx, oh, ow, dst);
    });
}

/// Scatters column-gradient rows back onto the input gradient, one parallel
/// tile per input channel (a channel's `kh*kw` rows all land on its plane).
#[allow(clippy::too_many_arguments)]
fn col2im(col: &[f32], xs: Shape, spec: &ConvSpec, c0: usize, c1: usize, oh: usize, ow: usize, dxn: &mut [f32]) {
    let ohw = oh * ow;
    let ksz = spec.kh * spec.kw;
    let hw = xs.hw();
    tiles_mut(c1 - c0, Runs::new(&mut dxn[c0 * hw..c1 * hw], hw), |ci, dxplane| {
        for ky in 0..spec.kh {
            for kx in 0..spec.kw {
                let row = ci * ksz + ky * spec.kw + kx;
                let src = &col[row * ohw..(row + 1) * ohw];
                for oy in 0..oh {
                    let iy = (oy * spec.sh + ky) as isize - spec.ph as isize;
                    if iy < 0 || iy >= xs.h as isize {
                        continue;
                    }
                    let src_row = &src[oy * ow..(oy + 1) * ow];
                    for (ox, &s) in src_row.iter().enumerate() {
                        let ix = (ox * spec.sw + kx) as isize - spec.pw as isize;
                        if ix < 0 || ix >= xs.w as isize {
                            continue;
                        }
                        dxplane[iy as usize * xs.w + ix as usize] += s;
                    }
                }
            }
        }
    });
}

fn general_forward(x: &Tensor, w: &Tensor, spec: &ConvSpec, out: &mut Tensor) {
    let xs = x.shape();
    let os = out.shape();
    let (oh, ow) = (os.h, os.w);
    let c_out = os.c;
    let cin_g = xs.c / spec.groups;
    let cout_g = c_out / spec.groups;
    let k = cin_g * spec.kh * spec.kw;
    let xdata = x.data();
    let wdata = w.data();
    let chw_in = xs.chw();
    let chw_out = os.chw();
    for_each_sample(out.data_mut(), chw_out, |n, yslice| {
        let xn = &xdata[n * chw_in..(n + 1) * chw_in];
        let mut col = scratch::take(k * oh * ow);
        for g in 0..spec.groups {
            im2col(xn, xs, spec, g * cin_g, (g + 1) * cin_g, oh, ow, &mut col);
            let wg = &wdata[g * cout_g * k..(g + 1) * cout_g * k];
            let yg = &mut yslice[g * cout_g * oh * ow..(g + 1) * cout_g * oh * ow];
            sgemm(cout_g, k, oh * ow, 1.0, wg, &col, 0.0, yg);
        }
    });
}

fn general_backward(
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    spec: &ConvSpec,
    need_dx: bool,
    dw: GradSink<'_>,
) -> Option<Tensor> {
    let xs = x.shape();
    let os = dy.shape();
    let (oh, ow) = (os.h, os.w);
    let cin_g = xs.c / spec.groups;
    let cout_g = os.c / spec.groups;
    let k = cin_g * spec.kh * spec.kw;
    let ohw = oh * ow;
    let xdata = x.data();
    let wdata = w.data();
    let dydata = dy.data();
    let chw_in = xs.chw();
    let chw_out = os.chw();

    let mut dx = if need_dx { Some(Tensor::zeros(xs)) } else { None };
    let dw_len = w.shape().numel();

    // One pass per sample computes both the dw slab (reduced tree-wise by
    // reduce_sample_grads) and, when requested, the sample's dx slice —
    // sharing a single im2col per (sample, group). The slab is passed as a
    // single row, which is never split: `dx` must be written once.
    let dxptr = dx.as_mut().map(|t| SyncPtr::new(t.data_mut().as_mut_ptr()));
    reduce_sample_grads(xs.n, 1, dw_len, dw, |n, _, slab| {
        let xn = &xdata[n * chw_in..(n + 1) * chw_in];
        let dyn_ = &dydata[n * chw_out..(n + 1) * chw_out];
        let mut col = scratch::take(k * ohw);
        let mut dcol = dxptr.as_ref().map(|_| scratch::take(k * ohw));
        for g in 0..spec.groups {
            im2col(xn, xs, spec, g * cin_g, (g + 1) * cin_g, oh, ow, &mut col);
            let dyg = &dyn_[g * cout_g * ohw..(g + 1) * cout_g * ohw];
            let dwg = &mut slab[g * cout_g * k..(g + 1) * cout_g * k];
            sgemm_a_bt(cout_g, ohw, k, 1.0, dyg, &col, 1.0, dwg);
            if let (Some(dcol), Some(p)) = (dcol.as_mut(), dxptr.as_ref()) {
                let wg = &wdata[g * cout_g * k..(g + 1) * cout_g * k];
                sgemm_at_b(k, cout_g, ohw, 1.0, wg, dyg, 0.0, dcol);
                // SAFETY: each sample tile owns dx slice `n` exclusively.
                let dxs = unsafe { std::slice::from_raw_parts_mut(p.get().add(n * chw_in), chw_in) };
                col2im(dcol, xs, spec, g * cin_g, (g + 1) * cin_g, oh, ow, dxs);
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

    /// Reference direct convolution for verification.
    fn conv_ref(x: &Tensor, w: &Tensor, b: Option<&Tensor>, spec: &ConvSpec) -> Tensor {
        let xs = x.shape();
        let c_out = w.shape().n;
        let os = spec.out_shape(xs, c_out);
        let cin_g = xs.c / spec.groups;
        let cout_g = c_out / spec.groups;
        let mut out = Tensor::zeros(os);
        for n in 0..xs.n {
            for co in 0..c_out {
                let g = co / cout_g;
                for oy in 0..os.h {
                    for ox in 0..os.w {
                        let mut acc = b.map(|bb| bb.data()[co]).unwrap_or(0.0);
                        for ci in 0..cin_g {
                            for ky in 0..spec.kh {
                                for kx in 0..spec.kw {
                                    let iy = (oy * spec.sh + ky) as isize - spec.ph as isize;
                                    let ix = (ox * spec.sw + kx) as isize - spec.pw as isize;
                                    if iy < 0 || iy >= xs.h as isize || ix < 0 || ix >= xs.w as isize {
                                        continue;
                                    }
                                    acc += x.at(n, g * cin_g + ci, iy as usize, ix as usize)
                                        * w.at(co, ci, ky, kx);
                                }
                            }
                        }
                        out.set(n, co, oy, ox, acc);
                    }
                }
            }
        }
        out
    }

    /// Computes one `(sample, channel)` output plane of a depthwise forward.
    ///
    /// This is the bounds-checked reference kernel the padded-plane family
    /// (frozen plans and training alike) is tested against.
    fn depthwise_plane_forward(
        xplane: &[f32],
        kern: &[f32],
        spec: &ConvSpec,
        xs: Shape,
        oh: usize,
        ow: usize,
        yplane: &mut [f32],
    ) {
        for oy in 0..oh {
            let iy0 = (oy * spec.sh) as isize - spec.ph as isize;
            for ox in 0..ow {
                let ix0 = (ox * spec.sw) as isize - spec.pw as isize;
                let mut acc = 0.0f32;
                for ky in 0..spec.kh {
                    let iy = iy0 + ky as isize;
                    if iy < 0 || iy >= xs.h as isize {
                        continue;
                    }
                    let xrow = &xplane[iy as usize * xs.w..(iy as usize + 1) * xs.w];
                    let krow = &kern[ky * spec.kw..(ky + 1) * spec.kw];
                    for (kx, &kv) in krow.iter().enumerate() {
                        let ix = ix0 + kx as isize;
                        if ix < 0 || ix >= xs.w as isize {
                            continue;
                        }
                        acc += xrow[ix as usize] * kv;
                    }
                }
                yplane[oy * ow + ox] = acc;
            }
        }
    }

    fn finite_diff_check(x: &Tensor, w: &Tensor, spec: &ConvSpec) {
        // Loss = sum(conv(x, w) * m) for random m; compare analytic vs numeric grads.
        let mut rng = StdRng::seed_from_u64(42);
        let y0 = conv2d(x, w, None, spec);
        let m = Tensor::uniform(y0.shape(), -1.0, 1.0, &mut rng);
        let grads = conv2d_backward(x, w, &m, spec, true);
        let eps = 1e-2f32;

        // Check a handful of weight coordinates.
        let mut wp = w.clone();
        for idx in [0usize, w.shape().numel() / 2, w.shape().numel() - 1] {
            let orig = wp.data()[idx];
            wp.data_mut()[idx] = orig + eps;
            let lp = (&conv2d(x, &wp, None, spec) * &m).sum();
            wp.data_mut()[idx] = orig - eps;
            let lm = (&conv2d(x, &wp, None, spec) * &m).sum();
            wp.data_mut()[idx] = orig;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let ana = grads.dw.data()[idx];
            assert!((num - ana).abs() < 2e-2 * (1.0 + ana.abs()), "dw[{idx}] num={num} ana={ana}");
        }
        // And a couple of input coordinates.
        let mut xp = x.clone();
        for idx in [0usize, x.shape().numel() - 1] {
            let orig = xp.data()[idx];
            xp.data_mut()[idx] = orig + eps;
            let lp = (&conv2d(&xp, w, None, spec) * &m).sum();
            xp.data_mut()[idx] = orig - eps;
            let lm = (&conv2d(&xp, w, None, spec) * &m).sum();
            xp.data_mut()[idx] = orig;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let ana = grads.dx.as_ref().unwrap().data()[idx];
            assert!((num - ana).abs() < 2e-2 * (1.0 + ana.abs()), "dx[{idx}] num={num} ana={ana}");
        }
    }

    /// Oracle for the fused plan: unfused conv, then bias, then activation
    /// as separate passes.
    fn fused_ref(x: &Tensor, w: &Tensor, bias: &[f32], spec: &ConvSpec, act: EpilogueAct) -> Tensor {
        let b = Tensor::from_vec(Shape::vector(bias.len()), bias.to_vec()).unwrap();
        let mut y = conv2d(x, w, Some(&b), spec);
        y.map_inplace(|v| act.apply(v));
        y
    }

    #[test]
    fn conv_plan_matches_unfused_passes() {
        let mut rng = StdRng::seed_from_u64(20);
        let acts = [EpilogueAct::Relu, EpilogueAct::HardSwish, EpilogueAct::HardSigmoid, EpilogueAct::None];
        // (x shape, w shape, spec): pointwise, depthwise, general, grouped.
        let cases = [
            (Shape::new(2, 12, 9, 9), Shape::new(20, 12, 1, 1), ConvSpec::pointwise()),
            (Shape::new(2, 8, 11, 10), Shape::new(8, 1, 3, 3), ConvSpec::depthwise(3, 2, 8)),
            (Shape::new(2, 6, 12, 12), Shape::new(10, 6, 3, 3), ConvSpec::kxk(3, 2)),
            (Shape::new(1, 8, 10, 10), Shape::new(12, 4, 3, 3), ConvSpec { groups: 2, ..ConvSpec::kxk(3, 1) }),
        ];
        for (i, (xs, ws, spec)) in cases.into_iter().enumerate() {
            let x = Tensor::randn(xs, 1.0, &mut rng);
            let w = Tensor::randn(ws, 0.4, &mut rng);
            let bias: Vec<f32> = (0..ws.n).map(|c| 0.1 * c as f32 - 0.3).collect();
            for act in acts {
                let plan = ConvPlan::new(&w, bias.clone(), spec, act);
                assert!(plan.packed_bytes() > 0);
                assert_eq!(plan.c_out(), ws.n);
                assert_eq!(plan.c_in(), xs.c);
                let got = plan.forward(&x);
                let want = fused_ref(&x, &w, &bias, &spec, act);
                assert_eq!(got.shape(), want.shape());
                assert!(
                    got.max_abs_diff(&want) < 1e-4,
                    "case {i} act {act:?}: diff {}",
                    got.max_abs_diff(&want)
                );
            }
        }
    }

    #[test]
    fn int8_plan_equals_an_f32_plan_of_its_dequantized_weights() {
        // Every geometry an int8 plan serves: pointwise, depthwise at stride
        // 1 and 2, a strided dense conv and a grouped one. The int8 forward
        // must be, bit for bit, the f32 plan's forward of `q * scale`, and
        // within the weight quantization's half step of the f32 weights'.
        let mut rng = StdRng::seed_from_u64(23);
        let acts = [EpilogueAct::Relu, EpilogueAct::HardSwish, EpilogueAct::None];
        let cases = [
            (Shape::new(2, 12, 9, 9), Shape::new(20, 12, 1, 1), ConvSpec::pointwise()),
            (Shape::new(2, 8, 11, 10), Shape::new(8, 1, 3, 3), ConvSpec::depthwise(3, 1, 8)),
            (Shape::new(2, 8, 11, 10), Shape::new(8, 1, 5, 5), ConvSpec::depthwise(5, 2, 8)),
            (Shape::new(2, 6, 12, 12), Shape::new(10, 6, 3, 3), ConvSpec::kxk(3, 2)),
            (Shape::new(1, 8, 10, 10), Shape::new(12, 4, 3, 3), ConvSpec { groups: 2, ..ConvSpec::kxk(3, 1) }),
        ];
        for (i, (xs, ws, spec)) in cases.into_iter().enumerate() {
            let x = Tensor::randn(xs, 1.0, &mut rng);
            let w = Tensor::randn(ws, 0.4, &mut rng);
            let bias: Vec<f32> = (0..ws.n).map(|c| 0.1 * c as f32 - 0.3).collect();
            let k = ws.c * ws.h * ws.w;
            for act in acts {
                let plan = ConvPlan::new_int8(&w, bias.clone(), spec, act);
                assert!(plan.is_int8() && plan.packed_bytes() == ws.numel() + 4 * ws.n);
                let PlanKind::Int8 { qweight, scales } = plan.kind() else { unreachable!() };
                let deq: Vec<f32> = qweight.iter().enumerate().map(|(j, &q)| q as f32 * scales[j / k]).collect();
                let twin = ConvPlan::new(&Tensor::from_vec(ws, deq).unwrap(), bias.clone(), spec, act);
                let (got, sums) = plan.try_forward_sums(&x).unwrap();
                let (want, want_sums) = twin.try_forward_sums(&x).unwrap();
                assert_same_bits(got.data(), want.data(), &format!("case {i} act {act:?}"));
                assert_eq!(sums.map(|t| t.data().to_vec()), want_sums.map(|t| t.data().to_vec()), "case {i} sums");

                // Against the f32 weights: each weight is off by at most half
                // its row's step, times a 1.5x Lipschitz allowance for
                // hard-swish.
                let f32_out = fused_ref(&x, &w, &bias, &spec, act);
                let hw = got.shape().hw();
                for (p, (a, b)) in got.data().chunks_exact(hw).zip(f32_out.data().chunks_exact(hw)).enumerate() {
                    let co = p % ws.n;
                    let bound = 1.5 * 0.5 * scales[co] * x.abs_max() * k as f32 + 1e-4;
                    for (a, b) in a.iter().zip(b) {
                        assert!((a - b).abs() <= bound, "case {i} act {act:?} channel {co}: {a} vs {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn conv_plan_forward_never_repacks() {
        // Repeated forwards must not touch the packed image: scratch borrows
        // happen (im2col, B panels) but the plan itself is read-only, so the
        // output is bitwise stable call over call.
        let mut rng = StdRng::seed_from_u64(21);
        let x = Tensor::randn(Shape::new(1, 8, 16, 16), 1.0, &mut rng);
        let w = Tensor::randn(Shape::new(16, 8, 3, 3), 0.4, &mut rng);
        let plan = ConvPlan::new(&w, vec![0.05; 16], ConvSpec::kxk(3, 1), EpilogueAct::HardSwish);
        let first = plan.forward(&x);
        for _ in 0..3 {
            assert_eq!(plan.forward(&x), first);
        }
    }

    #[test]
    fn conv_plan_rejects_wrong_channels() {
        let w = Tensor::ones(Shape::new(4, 3, 1, 1));
        let plan = ConvPlan::new(&w, vec![0.0; 4], ConvSpec::pointwise(), EpilogueAct::None);
        let x = Tensor::ones(Shape::new(1, 5, 4, 4));
        assert!(matches!(plan.try_forward(&x), Err(ShapeError::DimMismatch { .. })));
    }

    #[test]
    fn try_conv2d_rejects_bad_shapes() {
        let x = Tensor::ones(Shape::new(1, 3, 8, 8));
        let w = Tensor::ones(Shape::new(16, 3, 3, 3));
        assert!(try_conv2d(&x, &w, None, &ConvSpec::kxk(3, 1)).is_ok());
        // Weight kernel size disagrees with the spec.
        assert!(matches!(
            try_conv2d(&x, &w, None, &ConvSpec::kxk(5, 1)),
            Err(ShapeError::DimMismatch { .. })
        ));
        // Channels not divisible by groups.
        let spec = ConvSpec { groups: 2, ..ConvSpec::kxk(3, 1) };
        assert!(matches!(
            try_conv2d(&x, &w, None, &spec),
            Err(ShapeError::Indivisible { .. })
        ));
        // Bias with the wrong channel count.
        let bad_bias = Tensor::ones(Shape::vector(4));
        assert!(matches!(
            try_conv2d(&x, &w, Some(&bad_bias), &ConvSpec::kxk(3, 1)),
            Err(ShapeError::DimMismatch { .. })
        ));
        // Zero stride is a contract violation, not a divide-by-zero panic.
        let spec = ConvSpec { sh: 0, ..ConvSpec::kxk(3, 1) };
        assert!(matches!(
            try_conv2d(&x, &w, None, &spec),
            Err(ShapeError::ZeroWindow { .. })
        ));
    }

    #[test]
    fn out_shape_math() {
        let spec = ConvSpec::kxk(3, 2);
        assert_eq!(spec.out_hw(8, 8), (4, 4));
        assert_eq!(spec.out_hw(7, 7), (4, 4));
        let pw = ConvSpec::pointwise();
        assert_eq!(pw.out_hw(5, 9), (5, 9));
    }

    #[test]
    fn macs_formula() {
        // 1x1 conv: n*h*w*cin*cout
        let spec = ConvSpec::pointwise();
        assert_eq!(spec.macs(Shape::new(2, 8, 4, 4), 16), 2 * 4 * 4 * 8 * 16);
        // depthwise 3x3: n*oh*ow*c*9
        let d = ConvSpec::depthwise(3, 1, 8);
        assert_eq!(d.macs(Shape::new(1, 8, 4, 4), 8), 4 * 4 * 8 * 9);
    }

    #[test]
    fn pointwise_matches_reference() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::randn(Shape::new(2, 5, 4, 3), 1.0, &mut rng);
        let w = Tensor::randn(Shape::new(7, 5, 1, 1), 0.5, &mut rng);
        let b = Tensor::randn(Shape::vector(7), 0.5, &mut rng);
        let spec = ConvSpec::pointwise();
        let got = conv2d(&x, &w, Some(&b), &spec);
        let want = conv_ref(&x, &w, Some(&b), &spec);
        assert!(got.max_abs_diff(&want) < 1e-4);
    }

    #[test]
    fn depthwise_matches_reference() {
        let mut rng = StdRng::seed_from_u64(1);
        for &(k, s) in &[(3usize, 1usize), (3, 2), (5, 2), (7, 4)] {
            let x = Tensor::randn(Shape::new(2, 4, 9, 8), 1.0, &mut rng);
            let w = Tensor::randn(Shape::new(4, 1, k, k), 0.5, &mut rng);
            let spec = ConvSpec::depthwise(k, s, 4);
            let got = conv2d(&x, &w, None, &spec);
            let want = conv_ref(&x, &w, None, &spec);
            assert!(got.max_abs_diff(&want) < 1e-4, "k={k} s={s}");
        }
    }

    #[test]
    fn general_matches_reference() {
        let mut rng = StdRng::seed_from_u64(2);
        for &(k, s, g) in &[(3usize, 1usize, 1usize), (3, 2, 1), (5, 1, 1), (3, 1, 2)] {
            let x = Tensor::randn(Shape::new(2, 4, 7, 6), 1.0, &mut rng);
            let w = Tensor::randn(Shape::new(6, 4 / g, k, k), 0.5, &mut rng);
            let spec = ConvSpec { groups: g, ..ConvSpec::kxk(k, s) };
            let got = conv2d(&x, &w, None, &spec);
            let want = conv_ref(&x, &w, None, &spec);
            assert!(got.max_abs_diff(&want) < 1e-4, "k={k} s={s} g={g}");
        }
    }

    #[test]
    fn larger_shapes_match_reference() {
        // Big enough to engage the blocked GEMM and multi-tile im2col paths.
        let mut rng = StdRng::seed_from_u64(8);
        let x = Tensor::randn(Shape::new(1, 12, 24, 24), 1.0, &mut rng);
        let w = Tensor::randn(Shape::new(20, 12, 3, 3), 0.3, &mut rng);
        let spec = ConvSpec::kxk(3, 2);
        let got = conv2d(&x, &w, None, &spec);
        let want = conv_ref(&x, &w, None, &spec);
        assert!(got.max_abs_diff(&want) < 1e-3);
    }

    #[test]
    fn backward_pointwise_finite_diff() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn(Shape::new(2, 3, 4, 4), 1.0, &mut rng);
        let w = Tensor::randn(Shape::new(5, 3, 1, 1), 0.5, &mut rng);
        finite_diff_check(&x, &w, &ConvSpec::pointwise());
    }

    #[test]
    fn backward_depthwise_finite_diff() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = Tensor::randn(Shape::new(2, 3, 6, 6), 1.0, &mut rng);
        let w = Tensor::randn(Shape::new(3, 1, 3, 3), 0.5, &mut rng);
        finite_diff_check(&x, &w, &ConvSpec::depthwise(3, 2, 3));
    }

    #[test]
    fn backward_general_finite_diff() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::randn(Shape::new(2, 4, 6, 5), 1.0, &mut rng);
        let w = Tensor::randn(Shape::new(6, 2, 3, 3), 0.5, &mut rng);
        let spec = ConvSpec { groups: 2, ..ConvSpec::kxk(3, 2) };
        finite_diff_check(&x, &w, &spec);
    }

    #[test]
    fn backward_bias_gradient() {
        let mut rng = StdRng::seed_from_u64(6);
        let x = Tensor::randn(Shape::new(2, 3, 4, 4), 1.0, &mut rng);
        let w = Tensor::randn(Shape::new(5, 3, 1, 1), 0.5, &mut rng);
        let dy = Tensor::ones(Shape::new(2, 5, 4, 4));
        let g = conv2d_backward(&x, &w, &dy, &ConvSpec::pointwise(), false);
        // db = sum of dy over n,h,w per channel = 2*16 = 32
        assert!(g.db.data().iter().all(|&v| (v - 32.0).abs() < 1e-4));
        assert!(g.dx.is_none());
    }

    /// Differential check of the frozen f32 depthwise against the naive
    /// reference kernel, `==` on every element (the reference skips
    /// out-of-bounds taps where the kernel adds `0 * k`; `==` treats ±0
    /// alike), and of the plan's plane sums against a plain fold. On the
    /// way, on the first plane: the AVX2 and the scalar twin agree bit for
    /// bit, outputs and sum.
    fn check_depthwise_plan(xs: Shape, spec: ConvSpec, act: EpilogueAct, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(xs, 1.0, &mut rng);
        let w = Tensor::randn(Shape::new(xs.c, 1, spec.kh, spec.kw), 0.5, &mut rng);
        let bias: Vec<f32> = (0..xs.c).map(|c| 0.25 * c as f32 - 0.5).collect();
        let ksz = spec.kh * spec.kw;
        let what = format!("{xs} k{}x{} s{} p{},{} {act:?}", spec.kh, spec.kw, spec.sh, spec.ph, spec.pw);

        let (got, sums) = ConvPlan::new(&w, bias.clone(), spec, act).try_forward_sums(&x).unwrap();
        // One channel is one group: that plan takes the im2col path, which
        // sums in the GEMM's order and is held to 1e-5 relative instead.
        assert_eq!(sums.is_some(), xs.c > 1, "{what}: depthwise plans sum their planes");
        let tol = if xs.c > 1 { 0.0 } else { 1e-5 * (1.0 + got.abs_max()) };
        let os = got.shape();
        let mut want = vec![0.0f32; os.hw()];
        for (p, yplane) in got.data().chunks_exact(os.hw()).enumerate() {
            let c = p % xs.c;
            let xplane = &x.data()[p * xs.hw()..(p + 1) * xs.hw()];
            depthwise_plane_forward(xplane, &w.data()[c * ksz..(c + 1) * ksz], &spec, xs, os.h, os.w, &mut want);
            for (i, (g, v)) in yplane.iter().zip(&want).enumerate() {
                let v = act.apply(*v + bias[c]);
                assert!((*g - v).abs() <= tol, "{what}: plane {p} idx {i}: {g} != {v}");
            }
            let (fold, mass) = yplane.iter().fold((0.0f32, 0.0f32), |(s, m), v| (s + v, m + v.abs()));
            if let Some(sum) = sums.as_ref().map(|s| s.data()[p]) {
                assert!((sum - fold).abs() <= 1e-5 * (1.0 + mass), "{what}: plane {p} sum {sum} vs {fold}");
            }
        }

        #[cfg(target_arch = "x86_64")]
        if cpu_has_avx2() {
            let lay = PlaneImage::new(xs.h, xs.w, &spec);
            let mut img = vec![0.0f32; lay.floats(xs.w)];
            pad_plane(&x.data()[..xs.hw()], xs.w, spec.ph, spec.pw, lay, &mut img);
            let call = DwCall { lay, oh: os.h, ow: os.w, bias: bias[0], act };
            let (mut scalar, mut wide) = (vec![0.0f32; os.hw()], vec![0.0f32; os.hw()]);
            let sum_scalar = depthwise_padded_plane(&img, &w.data()[..ksz], &spec, &call, false, &mut scalar);
            let sum_wide = depthwise_padded_plane(&img, &w.data()[..ksz], &spec, &call, true, &mut wide);
            assert_same_bits(&scalar, &wide, &format!("{what}: avx2 vs scalar twin"));
            assert_same_bits(&[sum_scalar], &[sum_wide], &format!("{what}: twin sums"));
        }
    }

    #[test]
    fn frozen_depthwise_matches_reference_on_edge_shapes() {
        // Planes smaller than the kernel (the 17x17/s8 silo hop lands on
        // 7x7 at S0's last stream), single pixels, odd extents under every
        // silo stride, asymmetric and absent padding.
        let acts = [EpilogueAct::None, EpilogueAct::HardSwish];
        let shapes = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (9, 4), (17, 8)];
        for (i, &(k, s)) in shapes.iter().enumerate() {
            for (j, &(h, w)) in [(1, 1), (7, 7), (1, 9), (13, 2), (15, 11)].iter().enumerate() {
                for n in [1, 3] {
                    let xs = Shape::new(n, 5, h, w);
                    check_depthwise_plan(xs, ConvSpec::depthwise(k, s, 5), acts[(i + j) % 2], (i * 10 + j) as u64);
                }
            }
            // Every output width around the vector: the masked tail (< 8),
            // the reused last vector, and heights the row band does not
            // divide.
            for (j, ow) in [1, 3, 6, 7, 8, 9, 15, 16, 17].into_iter().enumerate() {
                let (w, h) = ((ow - 1) * s + k - 2 * (k / 2), (j % 7) * s + k - 2 * (k / 2));
                check_depthwise_plan(Shape::new(1, 2, h, w), ConvSpec::depthwise(k, s, 2), acts[j % 2], (i * 10 + j) as u64);
            }
        }
        for spec in [
            ConvSpec::depthwise(3, 1, 12).with_padding(0, 0),
            ConvSpec::depthwise(5, 2, 12).with_padding(4, 1),
            ConvSpec::depthwise(5, 1, 12).with_padding(0, 3),
            ConvSpec { kh: 3, kw: 5, sh: 2, sw: 3, ..ConvSpec::depthwise(3, 1, 12) },
        ] {
            check_depthwise_plan(Shape::new(1, 12, 9, 8), spec, EpilogueAct::Relu, 99);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn frozen_depthwise_matches_reference_kernel(
            ks in proptest::sample::select(vec![(3usize, 1usize), (5, 1), (7, 1), (3, 2), (5, 2), (9, 4), (17, 8)]),
            h in 1usize..=17,
            w in 1usize..=17,
            c in proptest::sample::select(vec![1usize, 3, 7, 9, 20]),
            n in proptest::sample::select(vec![1usize, 3]),
            act in proptest::sample::select(vec![EpilogueAct::None, EpilogueAct::Relu, EpilogueAct::HardSwish]),
            seed in proptest::prelude::any::<u64>(),
        ) {
            check_depthwise_plan(Shape::new(n, c, h, w), ConvSpec::depthwise(ks.0, ks.1, c), act, seed);
        }
    }

    /// The naive depthwise backward: fully bounds-checked per-pixel walk, the
    /// oracle for the padded-plane production kernels.
    fn depthwise_backward_ref(x: &Tensor, w: &Tensor, dy: &Tensor, spec: &ConvSpec) -> (Tensor, Tensor) {
        let xs = x.shape();
        let os = dy.shape();
        let ksz = spec.kh * spec.kw;
        let slab_len = xs.c * ksz;
        let mut slabs = vec![0.0f32; xs.n * slab_len];
        let mut dx = Tensor::zeros(xs);
        for n in 0..xs.n {
            for c in 0..xs.c {
                let xplane = &x.data()[(n * xs.c + c) * xs.hw()..(n * xs.c + c + 1) * xs.hw()];
                let dyplane = &dy.data()[(n * os.c + c) * os.hw()..(n * os.c + c + 1) * os.hw()];
                let dkern_base = n * slab_len + c * ksz;
                for oy in 0..os.h {
                    let iy0 = (oy * spec.sh) as isize - spec.ph as isize;
                    for ox in 0..os.w {
                        let g = dyplane[oy * os.w + ox];
                        if g == 0.0 {
                            continue;
                        }
                        let ix0 = (ox * spec.sw) as isize - spec.pw as isize;
                        for ky in 0..spec.kh {
                            let iy = iy0 + ky as isize;
                            if iy < 0 || iy >= xs.h as isize {
                                continue;
                            }
                            for kx in 0..spec.kw {
                                let ix = ix0 + kx as isize;
                                if ix < 0 || ix >= xs.w as isize {
                                    continue;
                                }
                                slabs[dkern_base + ky * spec.kw + kx] +=
                                    g * xplane[iy as usize * xs.w + ix as usize];
                                let di = (n * xs.c + c) * xs.hw() + iy as usize * xs.w + ix as usize;
                                dx.data_mut()[di] += g * w.data()[c * ksz + ky * spec.kw + kx];
                            }
                        }
                    }
                }
            }
        }
        // Same pairwise sample tree as reduce_sample_grads.
        crate::par::tree_reduce_serial(xs.n, |d, s| {
            let (head, tail) = slabs.split_at_mut(s * slab_len);
            let dst = &mut head[d * slab_len..(d + 1) * slab_len];
            for (a, b) in dst.iter_mut().zip(&tail[..slab_len]) {
                *a += *b;
            }
        });
        let dw = Tensor::from_vec(w.shape(), slabs[..slab_len].to_vec()).unwrap();
        (dx, dw)
    }

    fn assert_same_bits(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (p, q)) in a.iter().zip(b).enumerate() {
            assert_eq!(p.to_bits(), q.to_bits(), "{what}: idx {i}: {p} vs {q}");
        }
    }

    /// [`depthwise_backward_plane_body`] compiled with AVX2 enabled, without
    /// `fma`: the same bits.
    ///
    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn depthwise_backward_plane_avx2(
        xplane: &[f32],
        dyplane: &[f32],
        kern: &[f32],
        spec: &ConvSpec,
        xs: Shape,
        os: Shape,
        work: &mut [f32],
        dkern: &mut [f32],
        dxplane: Option<&mut [f32]>,
    ) {
        depthwise_backward_plane_body(xplane, dyplane, kern, spec, xs, os, work, dkern, dxplane, true);
    }

    /// Differential check of the training depthwise — forward, `dx`, `dw` —
    /// against the bounds-checked oracles at 1e-5 relative, with exact zeros
    /// sprinkled into `dy`; stride-1 `dx` must equal the reference walk's
    /// value element by element (only the sign of a zero may differ). On the
    /// way: `need_dx = false` gives the same `dw` bits, 1 and 4 threads give
    /// the same bits, and so do the AVX2 and baseline plane bodies.
    fn check_training_depthwise(xs: Shape, spec: ConvSpec, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(xs, 1.0, &mut rng);
        let w = Tensor::randn(Shape::new(xs.c, 1, spec.kh, spec.kw), 0.5, &mut rng);
        let os = spec.out_shape(xs, xs.c);
        let mut dy = Tensor::randn(os, 1.0, &mut rng);
        dy.map_inplace(|v| if v < -0.3 { 0.0 } else { v });
        let ksz = spec.kh * spec.kw;
        let what = format!("{xs} k{}x{} s{} p{},{}", spec.kh, spec.kw, spec.sh, spec.ph, spec.pw);

        let _budget = crate::par::tests_budget_lock();
        let run = || {
            let y = conv2d(&x, &w, None, &spec);
            let g = conv2d_backward(&x, &w, &dy, &spec, true);
            (y, g.dx.expect("need_dx"), g.dw)
        };
        crate::par::set_max_threads(1);
        let (y, dx, dw) = run();
        crate::par::set_max_threads(4);
        let (y4, dx4, dw4) = run();
        let ConvGrads { dx: no_dx, dw: dw_only, .. } = conv2d_backward(&x, &w, &dy, &spec, false);
        crate::par::set_max_threads(0);
        assert_same_bits(y.data(), y4.data(), &format!("{what}: y at 1 vs 4 threads"));
        assert_same_bits(dx.data(), dx4.data(), &format!("{what}: dx at 1 vs 4 threads"));
        assert_same_bits(dw.data(), dw4.data(), &format!("{what}: dw at 1 vs 4 threads"));
        assert!(no_dx.is_none());
        assert_same_bits(dw.data(), dw_only.data(), &format!("{what}: dw without dx"));

        let mut y_want = Tensor::zeros(os);
        for (p, yplane) in y_want.data_mut().chunks_exact_mut(os.hw()).enumerate() {
            let c = p % xs.c;
            let xplane = &x.data()[p * xs.hw()..(p + 1) * xs.hw()];
            depthwise_plane_forward(xplane, &w.data()[c * ksz..(c + 1) * ksz], &spec, xs, os.h, os.w, yplane);
        }
        let (dx_want, dw_want) = depthwise_backward_ref(&x, &w, &dy, &spec);
        for (name, got, want) in [("y", &y, &y_want), ("dx", &dx, &dx_want), ("dw", &dw, &dw_want)] {
            let tol = 1e-5 * (1.0 + want.abs_max());
            assert!(got.max_abs_diff(want) <= tol, "{what}: {name} diff {} > {tol}", got.max_abs_diff(want));
        }
        if spec.sh == 1 && spec.sw == 1 {
            for (i, (a, b)) in dx.data().iter().zip(dx_want.data()).enumerate() {
                assert!(a == b, "{what}: stride-1 dx idx {i}: {a} != {b}");
            }
        }

        #[cfg(target_arch = "x86_64")]
        if cpu_has_avx2() {
            let planes = |avx2: bool| {
                let mut work = vec![0.0f32; DwBackwardGeometry::new(xs, &spec, true).floats()];
                let work = work.as_mut_slice();
                let (mut dk, mut dxp) = (vec![0.0f32; ksz], vec![0.0f32; xs.hw()]);
                let (xp, dyp, kern) = (&x.data()[..xs.hw()], &dy.data()[..os.hw()], &w.data()[..ksz]);
                if avx2 {
                    // SAFETY: AVX2 presence checked just above.
                    unsafe { depthwise_backward_plane_avx2(xp, dyp, kern, &spec, xs, os, work, &mut dk, Some(&mut dxp)) };
                } else {
                    depthwise_backward_plane_body(xp, dyp, kern, &spec, xs, os, work, &mut dk, Some(&mut dxp), false);
                }
                (dk, dxp)
            };
            let ((dk_base, dx_base), (dk_wide, dx_wide)) = (planes(false), planes(true));
            assert_same_bits(&dk_base, &dk_wide, &format!("{what}: dw avx2 vs baseline"));
            assert_same_bits(&dx_base, &dx_wide, &format!("{what}: dx avx2 vs baseline"));
        }
    }

    #[test]
    fn training_depthwise_matches_reference_on_edge_shapes() {
        // Single pixels and 3x3 planes under the silo strides, kernels
        // larger than the plane, odd widths, batch 1 and 3.
        for (i, &(k, s)) in [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (9, 4), (17, 8)].iter().enumerate() {
            for (j, &(h, w)) in [(1, 1), (3, 3), (1, 9), (13, 2), (15, 11), (24, 24)].iter().enumerate() {
                for n in [1, 3] {
                    check_training_depthwise(Shape::new(n, 5, h, w), ConvSpec::depthwise(k, s, 5), (i * 10 + j) as u64);
                }
            }
        }
        // Asymmetric, absent and beyond-the-kernel padding (the last has no
        // forward-kernel `dx`: it runs the walk at stride 1).
        for spec in [
            ConvSpec::depthwise(3, 1, 12).with_padding(0, 0),
            ConvSpec::depthwise(5, 1, 12).with_padding(4, 1),
            ConvSpec::depthwise(5, 2, 12).with_padding(4, 1),
            ConvSpec::depthwise(3, 1, 12).with_padding(3, 4),
            ConvSpec::depthwise(5, 2, 12).with_padding(0, 0),
        ] {
            check_training_depthwise(Shape::new(2, 12, 9, 8), spec, 98);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn training_depthwise_matches_reference_kernels(
            ks in proptest::sample::select(vec![(3usize, 1usize), (5, 1), (7, 1), (3, 2), (5, 2), (9, 4), (17, 8)]),
            h in 1usize..=17,
            w in 1usize..=17,
            pad in proptest::sample::select(vec![None, Some((0usize, 0usize)), Some((4, 1)), Some((1, 6))]),
            c in proptest::sample::select(vec![1usize, 3, 7, 20]),
            n in proptest::sample::select(vec![1usize, 3]),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut spec = ConvSpec::depthwise(ks.0, ks.1, c);
            if let Some((ph, pw)) = pad {
                spec = spec.with_padding(ph, pw);
            }
            proptest::prop_assume!(h + 2 * spec.ph >= spec.kh && w + 2 * spec.pw >= spec.kw);
            check_training_depthwise(Shape::new(n, c, h, w), spec, seed);
        }
    }

    #[test]
    fn conv_backward_grads_are_shard_invariant() {
        // Per-shard backward + pairwise-tree merge must equal the full-batch
        // backward bit for bit, for power-of-two shard counts (the tree
        // alignment theorem in `par::tree_reduce_serial`). This is the
        // kernel-level contract under the sharded train step.
        let mut rng = StdRng::seed_from_u64(32);
        let n = 8usize;
        let cases: Vec<(Shape, Shape, ConvSpec)> = vec![
            (Shape::new(n, 5, 6, 6), Shape::new(7, 5, 1, 1), ConvSpec::pointwise()),
            (Shape::new(n, 4, 9, 8), Shape::new(4, 1, 3, 3), ConvSpec::depthwise(3, 2, 4)),
            (Shape::new(n, 4, 7, 7), Shape::new(6, 4, 3, 3), ConvSpec::kxk(3, 1)),
        ];
        for (xs, ws, spec) in cases {
            let x = Tensor::randn(xs, 1.0, &mut rng);
            let w = Tensor::randn(ws, 0.5, &mut rng);
            let dy = Tensor::randn(spec.out_shape(xs, ws.n), 1.0, &mut rng);
            let full = conv2d_backward(&x, &w, &dy, &spec, false);
            for shards in [2usize, 4] {
                let m = n / shards;
                let chw_x = xs.chw();
                let chw_y = dy.shape().chw();
                let mut dws: Vec<Vec<f32>> = Vec::new();
                let mut dbs: Vec<Vec<f32>> = Vec::new();
                for s in 0..shards {
                    let xsh = Tensor::from_vec(
                        Shape::new(m, xs.c, xs.h, xs.w),
                        x.data()[s * m * chw_x..(s + 1) * m * chw_x].to_vec(),
                    )
                    .unwrap();
                    let dysh = Tensor::from_vec(
                        spec.out_shape(xsh.shape(), ws.n),
                        dy.data()[s * m * chw_y..(s + 1) * m * chw_y].to_vec(),
                    )
                    .unwrap();
                    let g = conv2d_backward(&xsh, &w, &dysh, &spec, false);
                    dws.push(g.dw.data().to_vec());
                    dbs.push(g.db.data().to_vec());
                }
                crate::par::tree_reduce_serial(shards, |d, s| {
                    let (head, tail) = dws.split_at_mut(s);
                    for (a, b) in head[d].iter_mut().zip(&tail[0]) {
                        *a += *b;
                    }
                    let (head, tail) = dbs.split_at_mut(s);
                    for (a, b) in head[d].iter_mut().zip(&tail[0]) {
                        *a += *b;
                    }
                });
                for (i, (a, b)) in dws[0].iter().zip(full.dw.data()).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "dw shards={shards} idx {i}");
                }
                for (i, (a, b)) in dbs[0].iter().zip(full.db.data()).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "db shards={shards} idx {i}");
                }
            }
        }
    }

    #[test]
    fn gathered_depthwise_backward_is_bitwise_the_reference_walk() {
        // The gathered gradients (strided kernels, padding beyond the
        // kernel) against the naive walk, bit for bit: `dx` elements sum in
        // the walk's order with zero-`dy` terms masked, and each tap sums
        // its pixels in raster order. Exact zeros in `dy`; the S0 silo
        // shapes, odd extents and every phase count up to 8, at 1 and 4
        // threads and on both lane twins.
        let cases = [
            (Shape::new(2, 48, 24, 24), ConvSpec::depthwise(5, 2, 48)),
            (Shape::new(2, 48, 24, 24), ConvSpec::depthwise(9, 4, 48)),
            (Shape::new(2, 48, 24, 24), ConvSpec::depthwise(17, 8, 48)),
            (Shape::new(1, 5, 7, 13), ConvSpec::depthwise(5, 2, 5)),
            (Shape::new(3, 3, 11, 9), ConvSpec::depthwise(9, 4, 3)),
            (Shape::new(1, 2, 3, 3), ConvSpec::depthwise(17, 8, 2)),
            (Shape::new(1, 4, 9, 8), ConvSpec::depthwise(3, 1, 4).with_padding(3, 4)),
            (Shape::new(1, 4, 10, 17), ConvSpec { kh: 3, kw: 5, sh: 2, sw: 3, ..ConvSpec::depthwise(3, 1, 4) }),
            (Shape::new(1, 4, 6, 40), ConvSpec { kh: 1, kw: 11, sh: 1, sw: 10, ..ConvSpec::depthwise(1, 1, 4) }),
        ];
        let _budget = crate::par::tests_budget_lock();
        for (i, (xs, spec)) in cases.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(70 + i as u64);
            let x = Tensor::randn(xs, 1.0, &mut rng);
            let w = Tensor::randn(Shape::new(xs.c, 1, spec.kh, spec.kw), 0.5, &mut rng);
            let mut dy = Tensor::randn(spec.out_shape(xs, xs.c), 1.0, &mut rng);
            dy.map_inplace(|v| if v.abs() < 0.4 { 0.0 } else { v });
            let (dx_want, dw_want) = depthwise_backward_ref(&x, &w, &dy, &spec);
            let what = format!("{xs} k{}x{} s{}x{} p{},{}", spec.kh, spec.kw, spec.sh, spec.sw, spec.ph, spec.pw);
            for threads in [1, 4] {
                crate::par::set_max_threads(threads);
                let g = conv2d_backward(&x, &w, &dy, &spec, true);
                assert_same_bits(g.dx.expect("need_dx").data(), dx_want.data(), &format!("{what} dx, {threads} threads"));
                assert_same_bits(g.dw.data(), dw_want.data(), &format!("{what} dw, {threads} threads"));
            }
            crate::par::set_max_threads(0);
            let (os, ksz) = (dy.shape(), spec.kh * spec.kw);
            let plane = |avx2: bool| {
                let mut work = vec![0.0f32; DwBackwardGeometry::new(xs, &spec, true).floats()];
                let (mut dk, mut dxp) = (vec![0.0f32; ksz], vec![0.0f32; xs.hw()]);
                let (xp, dyp, kern) = (&x.data()[..xs.hw()], &dy.data()[..os.hw()], &w.data()[..ksz]);
                depthwise_backward_plane_body(xp, dyp, kern, &spec, xs, os, &mut work, &mut dk, Some(&mut dxp), avx2);
                (dk, dxp)
            };
            let ((dk_twin, dx_twin), (dk_wide, dx_wide)) = (plane(false), plane(true));
            assert_same_bits(&dk_twin, &dk_wide, &format!("{what}: dw [f32; 8] twin vs avx2"));
            assert_same_bits(&dx_twin, &dx_wide, &format!("{what}: dx [f32; 8] twin vs avx2"));
        }
    }

    #[test]
    fn need_dx_false_matches_dw_of_full() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = Tensor::randn(Shape::new(2, 4, 5, 5), 1.0, &mut rng);
        let w = Tensor::randn(Shape::new(6, 4, 3, 3), 0.5, &mut rng);
        let spec = ConvSpec::kxk(3, 1);
        let dy = Tensor::randn(spec.out_shape(x.shape(), 6), 1.0, &mut rng);
        let g1 = conv2d_backward(&x, &w, &dy, &spec, true);
        let g2 = conv2d_backward(&x, &w, &dy, &spec, false);
        assert!(g1.dw.max_abs_diff(&g2.dw) < 1e-4);
    }

    #[test]
    fn accumulating_backward_adds_the_returned_gradients_bitwise() {
        let mut rng = StdRng::seed_from_u64(8);
        for (xs, ws, spec) in [
            (Shape::new(3, 5, 6, 6), Shape::new(7, 5, 1, 1), ConvSpec::pointwise()),
            (Shape::new(3, 4, 9, 8), Shape::new(4, 1, 5, 5), ConvSpec::depthwise(5, 2, 4)),
            (Shape::new(3, 4, 7, 7), Shape::new(6, 4, 3, 3), ConvSpec::kxk(3, 1)),
        ] {
            let x = Tensor::randn(xs, 1.0, &mut rng);
            let w = Tensor::randn(ws, 0.5, &mut rng);
            let dy = Tensor::randn(spec.out_shape(xs, ws.n), 1.0, &mut rng);
            let g = conv2d_backward(&x, &w, &dy, &spec, true);
            let (dw0, db0) = (Tensor::randn(ws, 1.0, &mut rng), Tensor::randn(Shape::vector(ws.n), 1.0, &mut rng));
            let (mut dw, mut db) = (dw0.clone(), db0.clone());
            let sinks = (GradSink::Owned(dw.data_mut()), Some(GradSink::Owned(db.data_mut())));
            let dx = conv2d_backward_accumulate(&x, &w, &dy, &spec, true, sinks.0, sinks.1);
            let (mut dw_want, mut db_want) = (dw0.clone(), db0);
            dw_want.add_assign(&g.dw);
            db_want.add_assign(&g.db);
            assert_same_bits(dx.expect("need_dx").data(), g.dx.expect("need_dx").data(), "dx");
            assert_same_bits(dw.data(), dw_want.data(), "dw");
            assert_same_bits(db.data(), db_want.data(), "db");
            // A bias-free layer skips the bias reduction and gets the same dw.
            let mut dw_nb = dw0;
            assert!(conv2d_backward_accumulate(&x, &w, &dy, &spec, false, GradSink::Owned(dw_nb.data_mut()), None).is_none());
            assert_same_bits(dw_nb.data(), dw_want.data(), "dw without db");
        }
    }
}
