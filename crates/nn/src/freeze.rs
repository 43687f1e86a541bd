//! Inference-time model freezing: BN folding, conv–bias–activation fusion,
//! and persistent pre-packed GEMM weight panels.
//!
//! `Layer::freeze` compiles an eval-mode layer graph into a [`FrozenLayer`]
//! tree whose forward pass uses only fused kernels:
//!
//! * eval-mode BatchNorm becomes a per-channel affine (`scale = gamma /
//!   sqrt(running_var + eps)`, `bias = beta - running_mean * scale`) which is
//!   folded into the preceding convolution's weights and bias;
//! * ReLU / hard-swish / hard-sigmoid following a convolution run inside the
//!   GEMM epilogue ([`EpilogueAct`]) instead of as a separate pass;
//! * each convolution's im2col-GEMM weight panels are packed exactly once
//!   ([`revbifpn_tensor::ConvPlan`]) and reused across every subsequent
//!   forward. The resident bytes are registered with [`meter::add_packed`]
//!   so memory figures stay honest, and each packing increments the
//!   `"freeze.weights_packed"` event counter so tests can assert zero
//!   re-packing at steady state.
//!
//! Freezing is two-phase: [`Layer::freeze`] produces an *uncompiled* tree
//! (cheap, fusion happens structurally via [`FrozenLayer::sequence`]), and
//! [`FrozenLayer::compile`] packs the weights. [`freeze_layer`] does both.
//!
//! A third, optional lowering sits on top: [`FrozenLayer::quantize`] keeps
//! every fused conv's folded weights as per-output-channel symmetric int8
//! (scale `max|w| / 127`) and runs the f32 kernels on them, dequantizing
//! where a kernel reads a weight; activations stay f32
//! ([`revbifpn_tensor::PlanKind::Int8`]; [`freeze_layer_int8`] chains
//! freeze → quantize → compile). Quantized bytes ride the separate
//! [`meter::quant_packed_current`] gauge and the
//! `"freeze.weights_quantized"` event counter.
//!
//! The packed-bytes accounting uses the thread-local meter, so a frozen
//! layer should be compiled and dropped on the same thread.

use crate::meter;
use crate::module::Layer;
use revbifpn_tensor::{
    global_avg_pool, runs_blocked, sgemm_a_bt, sgemv_prepacked, space_to_depth, upsample, ConvPlan,
    ConvSpec, Epilogue, EpilogueAct, PackedGemmA, ResizeMode, Shape, Tensor,
};

/// Error returned when a layer (or one of its children) has no frozen form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FreezeError {
    /// The offending component does not implement freezing.
    Unsupported {
        /// What kind of component refused (`"layer"`, `"reversible stage"`,
        /// `"detection backbone"`, ...), so a failure deep inside a new
        /// architecture is attributable from the error alone.
        kind: String,
        /// The component's reported name.
        layer: String,
    },
}

impl FreezeError {
    /// Convenience constructor for [`FreezeError::Unsupported`].
    pub fn unsupported(kind: impl Into<String>, layer: impl Into<String>) -> Self {
        Self::Unsupported { kind: kind.into(), layer: layer.into() }
    }
}

impl std::fmt::Display for FreezeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Unsupported { kind, layer } => {
                write!(f, "{kind} `{layer}` cannot be frozen")
            }
        }
    }
}

impl std::error::Error for FreezeError {}

/// RAII registration of packed-weight bytes with the thread-local meter:
/// f32 panels on the packed gauge, int8 weights on the quantized one
/// ([`meter::quant_packed_current`]).
#[derive(Debug)]
pub(crate) struct PackedBytes {
    bytes: usize,
    int8: bool,
}

impl PackedBytes {
    fn new(bytes: usize, int8: bool) -> Self {
        if int8 {
            meter::add_quant_packed(bytes);
        } else {
            meter::add_packed(bytes);
        }
        Self { bytes, int8 }
    }
}

impl Drop for PackedBytes {
    fn drop(&mut self) {
        if self.int8 {
            meter::sub_quant_packed(self.bytes);
        } else {
            meter::sub_packed(self.bytes);
        }
    }
}

/// A convolution with folded per-channel scale/bias and an optional fused
/// epilogue activation, executed from persistently packed GEMM weight panels
/// (or, once quantized, from int8 weights).
#[derive(Debug)]
pub struct FusedConv {
    c_out: usize,
    spec: ConvSpec,
    act: EpilogueAct,
    weights: Weights,
}

/// A fused conv's weights: raw until [`FusedConv::compile`] or
/// [`FusedConv::quantize`] lowers them to a plan, which replaces them, so a
/// frozen model holds each weight once.
#[derive(Debug)]
enum Weights {
    /// The folded f32 weights and bias, still open to folding.
    Raw(Tensor, Vec<f32>),
    /// The compiled plan and its meter registration (none for a conv
    /// rebuilt from a serialized plan, see [`FusedConv::from_plan`]).
    Plan { plan: ConvPlan, _resident: Option<PackedBytes> },
}

impl FusedConv {
    /// Builds an uncompiled fused conv from raw weights. A missing bias
    /// becomes zeros (folding a BatchNorm in will overwrite it anyway).
    pub fn new(weight: Tensor, bias: Option<&Tensor>, spec: ConvSpec) -> Self {
        let c_out = weight.shape().n;
        let bias = bias.map(|b| b.data().to_vec()).unwrap_or_else(|| vec![0.0; c_out]);
        assert_eq!(bias.len(), c_out, "fused conv bias length mismatch");
        Self { c_out, spec, act: EpilogueAct::None, weights: Weights::Raw(weight, bias) }
    }

    /// Rebuilds a *plan-only* fused conv from a deserialized [`ConvPlan`]
    /// (the zero-copy artifact path), f32 or int8 — what a compiled conv
    /// looks like. Its weight bytes are deliberately **not** registered on
    /// the thread-local gauges — loaded models may be shared across worker
    /// threads behind an `Arc` and would unbalance per-thread accounting;
    /// the artifact layer reports their residency instead.
    pub fn from_plan(plan: ConvPlan) -> Self {
        Self { c_out: plan.c_out(), spec: *plan.spec(), act: plan.act(), weights: Weights::Plan { plan, _resident: None } }
    }

    /// The compiled plan, if present (serialization support).
    pub fn plan(&self) -> Option<&ConvPlan> {
        match &self.weights {
            Weights::Plan { plan, .. } => Some(plan),
            Weights::Raw(..) => None,
        }
    }

    /// Output channel count.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// Folds a following per-channel affine `y = scale * x + shift` into the
    /// weights and bias: `w' = scale * w`, `b' = scale * b + shift`.
    pub(crate) fn fold_affine(&mut self, scale: &[f32], shift: &[f32]) {
        let Weights::Raw(weight, bias) = &mut self.weights else { panic!("cannot fold into a compiled conv") };
        let c_out = self.c_out;
        assert_eq!(scale.len(), c_out, "affine scale length mismatch");
        assert_eq!(shift.len(), c_out, "affine shift length mismatch");
        let per = weight.shape().numel() / c_out;
        for (o, chunk) in weight.data_mut().chunks_mut(per).enumerate() {
            for w in chunk.iter_mut() {
                *w *= scale[o];
            }
            bias[o] = bias[o] * scale[o] + shift[o];
        }
    }

    /// Attaches `act` as the epilogue activation if none is set yet.
    /// Returns `false` (leaving the conv unchanged) when an activation is
    /// already fused or the conv is compiled.
    pub(crate) fn try_set_act(&mut self, act: EpilogueAct) -> bool {
        if self.act == EpilogueAct::None && act != EpilogueAct::None && self.plan().is_none() {
            self.act = act;
            true
        } else {
            false
        }
    }

    /// Packs the weight panels (idempotent), dropping the raw weights.
    /// Counts one `"freeze.weights_packed"` event and registers the
    /// resident bytes. A no-op on a conv that was already
    /// [`FusedConv::quantize`]d — its int8 weights supersede the f32 panels.
    pub fn compile(&mut self) {
        if let Weights::Raw(weight, bias) = &mut self.weights {
            let plan = ConvPlan::new(weight, std::mem::take(bias), self.spec, self.act);
            meter::count("freeze.weights_packed");
            let resident = PackedBytes::new(plan.packed_bytes(), false);
            self.weights = Weights::Plan { plan, _resident: Some(resident) };
        }
    }

    /// Lowers this conv to int8 (idempotent): quantizes the folded weights
    /// per output channel, drops them, counts one
    /// `"freeze.weights_quantized"` event and registers the resident bytes
    /// on the quantized gauge.
    ///
    /// # Panics
    ///
    /// Panics on an f32-compiled or f32 plan-only conv: its raw weights are
    /// gone ("quantize before compile").
    pub fn quantize(&mut self) {
        match &mut self.weights {
            Weights::Raw(weight, bias) => {
                let plan = ConvPlan::new_int8(weight, std::mem::take(bias), self.spec, self.act);
                meter::count("freeze.weights_quantized");
                let resident = PackedBytes::new(plan.packed_bytes(), true);
                self.weights = Weights::Plan { plan, _resident: Some(resident) };
            }
            Weights::Plan { plan, .. } => assert!(plan.is_int8(), "quantize before compile"),
        }
    }

    /// `true` once [`FusedConv::quantize`] has lowered this conv to int8.
    pub fn is_quantized(&self) -> bool {
        self.plan().is_some_and(ConvPlan::is_int8)
    }

    /// Bytes of packed f32 panels (0 before [`FusedConv::compile`] and
    /// after [`FusedConv::quantize`]).
    pub fn packed_bytes(&self) -> usize {
        self.plan().filter(|p| !p.is_int8()).map_or(0, ConvPlan::packed_bytes)
    }

    /// Bytes of int8 weights and their scales (0 unless quantized).
    pub fn quant_packed_bytes(&self) -> usize {
        self.plan().filter(|p| p.is_int8()).map_or(0, ConvPlan::packed_bytes)
    }

    /// Output shape for input shape `x`.
    pub fn out_shape(&self, x: Shape) -> Shape {
        self.spec.out_shape(x, self.c_out)
    }

    /// Fused forward pass.
    ///
    /// # Panics
    ///
    /// Panics if the conv was not compiled.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.forward_sums(x).0
    }

    /// Fused forward that also hands back a depthwise conv's output plane
    /// sums (see [`ConvPlan::try_forward_sums`]).
    ///
    /// # Panics
    ///
    /// Panics if the conv was not compiled.
    fn forward_sums(&self, x: &Tensor) -> (Tensor, Option<Tensor>) {
        let plan = self.plan().expect("FusedConv::forward before compile()");
        plan.try_forward_sums(x).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// A dense layer whose `[out, in]` weight is packed once as the GEMM's left
/// operand: each sample's logits are `W x + b`, bit for bit what
/// [`sgemm_a_bt`] plus a bias pass gives wherever that GEMM runs on the
/// blocked engine — which is where [`FrozenLayer::compile`] packs one.
#[derive(Debug)]
pub struct PackedLinear {
    pub(crate) weight: PackedGemmA,
    pub(crate) bias: Vec<f32>,
    /// The meter registration (none for a layer loaded from an artifact,
    /// see [`FusedConv::from_plan`]).
    pub(crate) _resident: Option<PackedBytes>,
}

impl PackedLinear {
    /// Packs `weight` (`[out, in]`) when its GEMM runs on the blocked engine
    /// at every batch size, registering the panels on the packed gauge
    /// when `register`; `None` for a layer small enough for the reference
    /// kernel, which keeps its raw weight.
    pub fn pack(weight: &Tensor, bias: &Tensor, register: bool) -> Option<Self> {
        let (out_f, in_f) = (weight.shape().n, weight.shape().c);
        if !runs_blocked(1, in_f, out_f) {
            return None;
        }
        let weight = PackedGemmA::pack(out_f, in_f, weight.data());
        let resident = register.then(|| {
            meter::count("freeze.weights_packed");
            PackedBytes::new(weight.bytes(), false)
        });
        Some(Self { weight, bias: bias.data().to_vec(), _resident: resident })
    }

    /// Each sample's logits as one [`sgemv_prepacked`].
    fn forward(&self, x: &Tensor) -> Tensor {
        let xs = x.shape();
        let (out_f, in_f) = (self.weight.m(), self.weight.k());
        assert_eq!((xs.c, xs.h, xs.w), (in_f, 1, 1), "frozen linear expects [n, {in_f}, 1, 1], got {xs}");
        let mut y = Tensor::zeros(Shape::new(xs.n, out_f, 1, 1));
        let epi = Epilogue::new(Some(&self.bias), EpilogueAct::None);
        for (x, y) in x.data().chunks_exact(in_f).zip(y.data_mut().chunks_exact_mut(out_f)) {
            sgemv_prepacked(&self.weight, x, y, &epi);
        }
        y
    }
}

/// Standalone activation kinds, for positions where the activation cannot
/// ride a GEMM epilogue (e.g. not preceded by a convolution).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActKind {
    /// Rectified linear unit.
    Relu,
    /// Hard-swish.
    HardSwish,
    /// Hard-sigmoid.
    HardSigmoid,
    /// Logistic sigmoid (never fused; has no epilogue form).
    Sigmoid,
}

impl ActKind {
    fn epilogue(self) -> Option<EpilogueAct> {
        match self {
            Self::Relu => Some(EpilogueAct::Relu),
            Self::HardSwish => Some(EpilogueAct::HardSwish),
            Self::HardSigmoid => Some(EpilogueAct::HardSigmoid),
            Self::Sigmoid => None,
        }
    }

    fn apply(self, x: &Tensor) -> Tensor {
        // Formulas textually match the training-path layers in
        // `layers::act` and the GEMM `EpilogueAct`.
        match self {
            Self::Relu => x.map(|v| v.max(0.0)),
            Self::HardSwish => x.map(|v| v * (v + 3.0).clamp(0.0, 6.0) / 6.0),
            Self::HardSigmoid => x.map(|v| (v + 3.0).clamp(0.0, 6.0) / 6.0),
            Self::Sigmoid => x.map(|v| 1.0 / (1.0 + (-v).exp())),
        }
    }
}

/// The inference-only compiled form of a layer graph.
#[derive(Debug)]
pub enum FrozenLayer {
    /// No-op (frozen dropout / drop-path / empty chains).
    Identity,
    /// A fused convolution (weights pre-packed, bias + activation in the
    /// GEMM epilogue).
    Conv(Box<FusedConv>),
    /// Per-channel `y = scale * x + bias` (an unfused eval-mode BatchNorm).
    Affine {
        /// Per-channel multiplier, `[c]`.
        scale: Tensor,
        /// Per-channel offset, `[c]`.
        bias: Tensor,
    },
    /// A standalone elementwise activation.
    Act(ActKind),
    /// Dense layer `y = x W^T + b`.
    Linear {
        /// Weight matrix stored `[out, in]`.
        weight: Tensor,
        /// Bias vector `[out]`.
        bias: Tensor,
    },
    /// A dense layer after [`FrozenLayer::compile`] packed its weight.
    PackedLinear(Box<PackedLinear>),
    /// Integer-factor upsampling.
    Upsample {
        /// Scale factor.
        factor: usize,
        /// Interpolation mode.
        mode: ResizeMode,
    },
    /// SpaceToDepth rearrangement.
    SpaceToDepth {
        /// Block size.
        block: usize,
    },
    /// Global average pooling to `[n, c, 1, 1]`.
    GlobalAvgPool,
    /// Squeeze-excite gating with both 1x1 convs fused (ReLU and
    /// hard-sigmoid run in the GEMM epilogues).
    SqueezeExcite {
        /// Bottleneck reduction conv (fused ReLU).
        reduce: Box<FusedConv>,
        /// Expansion conv (fused hard-sigmoid gate).
        expand: Box<FusedConv>,
    },
    /// Identity skip around a branch: `y = x + branch(x)`.
    Residual(Box<FrozenLayer>),
    /// Layers applied in order.
    Seq(Vec<FrozenLayer>),
}

impl FrozenLayer {
    /// Builds a chain from already-frozen children, peephole-fusing as it
    /// goes: nested sequences are spliced flat, identities dropped, a
    /// [`FrozenLayer::Affine`] directly after a conv is folded into its
    /// weights, and a fusable activation after a conv becomes its epilogue.
    pub fn sequence(children: Vec<FrozenLayer>) -> FrozenLayer {
        let mut out: Vec<FrozenLayer> = Vec::new();
        for child in children {
            Self::push_fused(&mut out, child);
        }
        match out.len() {
            0 => FrozenLayer::Identity,
            1 => out.pop().expect("len checked"),
            _ => FrozenLayer::Seq(out),
        }
    }

    fn push_fused(out: &mut Vec<FrozenLayer>, child: FrozenLayer) {
        match child {
            FrozenLayer::Identity => {}
            FrozenLayer::Seq(inner) => {
                for sub in inner {
                    Self::push_fused(out, sub);
                }
            }
            FrozenLayer::Affine { scale, bias } => {
                if let Some(FrozenLayer::Conv(fc)) = out.last_mut() {
                    if fc.act == EpilogueAct::None {
                        fc.fold_affine(scale.data(), bias.data());
                        return;
                    }
                }
                out.push(FrozenLayer::Affine { scale, bias });
            }
            FrozenLayer::Act(kind) => {
                if let (Some(FrozenLayer::Conv(fc)), Some(epi)) = (out.last_mut(), kind.epilogue())
                {
                    if fc.try_set_act(epi) {
                        return;
                    }
                }
                out.push(FrozenLayer::Act(kind));
            }
            other => out.push(other),
        }
    }

    /// Packs every conv's weight panels, and a dense layer's weight where
    /// its GEMM runs on the blocked engine (idempotent, recursive).
    pub fn compile(&mut self) {
        match self {
            FrozenLayer::Conv(fc) => fc.compile(),
            FrozenLayer::Linear { weight, bias } => {
                if let Some(p) = PackedLinear::pack(weight, bias, true) {
                    *self = FrozenLayer::PackedLinear(Box::new(p));
                }
            }
            FrozenLayer::SqueezeExcite { reduce, expand } => {
                reduce.compile();
                expand.compile();
            }
            FrozenLayer::Residual(inner) => inner.compile(),
            FrozenLayer::Seq(children) => {
                for c in children {
                    c.compile();
                }
            }
            _ => {}
        }
    }

    /// Lowers every quantizable conv in this subtree to int8 (idempotent,
    /// recursive). Squeeze-excite gates stay f32: their GEMMs are `n x c`
    /// pointwise reductions of a handful of values — no throughput to win —
    /// and the multiplicative gate is the most quantization-sensitive spot
    /// in the network.
    pub fn quantize(&mut self) {
        match self {
            FrozenLayer::Conv(fc) => fc.quantize(),
            FrozenLayer::SqueezeExcite { .. } => {}
            FrozenLayer::Residual(inner) => inner.quantize(),
            FrozenLayer::Seq(children) => {
                for c in children {
                    c.quantize();
                }
            }
            _ => {}
        }
    }

    /// Total bytes of packed f32 weight panels in this subtree.
    pub fn packed_bytes(&self) -> usize {
        match self {
            FrozenLayer::Conv(fc) => fc.packed_bytes(),
            FrozenLayer::PackedLinear(p) => p.weight.bytes(),
            FrozenLayer::SqueezeExcite { reduce, expand } => {
                reduce.packed_bytes() + expand.packed_bytes()
            }
            FrozenLayer::Residual(inner) => inner.packed_bytes(),
            FrozenLayer::Seq(children) => children.iter().map(|c| c.packed_bytes()).sum(),
            _ => 0,
        }
    }

    /// Total bytes of quantized (int8) packed weight panels in this subtree.
    pub fn quant_packed_bytes(&self) -> usize {
        match self {
            FrozenLayer::Conv(fc) => fc.quant_packed_bytes(),
            FrozenLayer::SqueezeExcite { reduce, expand } => {
                reduce.quant_packed_bytes() + expand.quant_packed_bytes()
            }
            FrozenLayer::Residual(inner) => inner.quant_packed_bytes(),
            FrozenLayer::Seq(children) => children.iter().map(|c| c.quant_packed_bytes()).sum(),
            _ => 0,
        }
    }

    /// Fused forward pass.
    ///
    /// # Panics
    ///
    /// Panics if the tree contains an uncompiled conv.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.forward_sums(x, None).0
    }

    /// Fused forward threading the plane sums `sums` of `x`, `[n, c, 1, 1]`,
    /// when its producer had them: a depthwise conv finishes its output's
    /// in the kernel's registers and hands them to a squeeze-excite gate
    /// that directly follows it, which then skips its pooling pass. Layers
    /// that change values drop them.
    ///
    /// # Panics
    ///
    /// Panics if the tree contains an uncompiled conv.
    pub(crate) fn forward_sums(&self, x: &Tensor, sums: Option<Tensor>) -> (Tensor, Option<Tensor>) {
        match self {
            FrozenLayer::Identity => (x.clone(), sums),
            FrozenLayer::Conv(fc) => fc.forward_sums(x),
            FrozenLayer::Seq(children) => match children.split_first() {
                None => (x.clone(), sums),
                Some((first, rest)) => rest
                    .iter()
                    .fold(first.forward_sums(x, sums), |(cur, sums), c| c.forward_sums(&cur, sums)),
            },
            FrozenLayer::Residual(inner) => (&inner.forward_sums(x, sums).0 + x, None),
            FrozenLayer::SqueezeExcite { reduce, expand } => {
                let xs = x.shape();
                let pooled = match sums {
                    Some(mut sums) => {
                        debug_assert_eq!(sums.shape(), Shape::new(xs.n, xs.c, 1, 1));
                        let hw = xs.hw() as f32;
                        sums.map_inplace(|s| s / hw);
                        sums
                    }
                    None => global_avg_pool(x),
                };
                (x.mul_planes(&expand.forward(&reduce.forward(&pooled))), None)
            }
            other => (other.forward_unsummed(x), None),
        }
    }

    /// Forward arms that neither consume nor produce plane sums.
    fn forward_unsummed(&self, x: &Tensor) -> Tensor {
        match self {
            FrozenLayer::Identity
            | FrozenLayer::Conv(_)
            | FrozenLayer::Seq(_)
            | FrozenLayer::Residual(_)
            | FrozenLayer::SqueezeExcite { .. } => unreachable!("handled by forward_sums"),
            FrozenLayer::SpaceToDepth { block } => space_to_depth(x, *block),
            FrozenLayer::Affine { scale, bias } => {
                let mut y = x.clone();
                y.mul_channel(scale);
                y.add_channel_bias(bias);
                y
            }
            FrozenLayer::Act(kind) => kind.apply(x),
            FrozenLayer::Linear { weight, bias } => {
                let xs = x.shape();
                let (out_f, in_f) = (weight.shape().n, weight.shape().c);
                assert_eq!(
                    (xs.c, xs.h, xs.w),
                    (in_f, 1, 1),
                    "frozen linear expects [n, {in_f}, 1, 1], got {xs}"
                );
                let mut y = Tensor::zeros(Shape::new(xs.n, out_f, 1, 1));
                sgemm_a_bt(xs.n, in_f, out_f, 1.0, x.data(), weight.data(), 0.0, y.data_mut());
                for n in 0..xs.n {
                    for o in 0..out_f {
                        y.data_mut()[n * out_f + o] += bias.data()[o];
                    }
                }
                y
            }
            FrozenLayer::PackedLinear(p) => p.forward(x),
            FrozenLayer::Upsample { factor, mode } => upsample(x, *factor, *mode),
            FrozenLayer::GlobalAvgPool => global_avg_pool(x),
        }
    }
}

/// A frozen container (stage, backbone, head, whole model). It lists its
/// [`FrozenLayer`]s once, through one shared and one mutable visitor in the
/// same order, and gets its lowering and accounting from them.
pub trait FrozenTree {
    /// Visits each frozen layer once.
    fn visit_frozen(&self, f: &mut dyn FnMut(&FrozenLayer));

    /// Visits each frozen layer once, mutably, in [`FrozenTree::visit_frozen`]
    /// order.
    fn visit_frozen_mut(&mut self, f: &mut dyn FnMut(&mut FrozenLayer));

    /// Packs every conv's weight panels (idempotent; see
    /// [`FrozenLayer::compile`]).
    fn compile(&mut self) {
        self.visit_frozen_mut(&mut |l| l.compile());
    }

    /// Lowers every quantizable conv to int8 (idempotent; see
    /// [`FrozenLayer::quantize`]). Call before [`FrozenTree::compile`]:
    /// quantized convs skip the f32 panel pack entirely.
    fn quantize(&mut self) {
        self.visit_frozen_mut(&mut |l| l.quantize());
    }

    /// Total bytes of packed f32 weight panels.
    fn packed_bytes(&self) -> usize {
        let mut total = 0;
        self.visit_frozen(&mut |l| total += l.packed_bytes());
        total
    }

    /// Total bytes of quantized (int8) weight panels.
    fn quant_packed_bytes(&self) -> usize {
        let mut total = 0;
        self.visit_frozen(&mut |l| total += l.quant_packed_bytes());
        total
    }

    /// `true` when at least one conv holds int8 weights.
    fn is_quantized(&self) -> bool {
        self.quant_packed_bytes() > 0
    }
}

/// Freezes a layer and compiles the result (packs all conv weight panels).
pub fn freeze_layer(layer: &dyn Layer) -> Result<FrozenLayer, FreezeError> {
    let mut frozen = layer.freeze()?;
    frozen.compile();
    Ok(frozen)
}

/// Freezes a layer and lowers it to int8: quantizes every quantizable conv,
/// then compiles whatever remains f32 (e.g. squeeze-excite gates).
pub fn freeze_layer_int8(layer: &dyn Layer) -> Result<FrozenLayer, FreezeError> {
    let mut frozen = layer.freeze()?;
    frozen.quantize();
    frozen.compile();
    Ok(frozen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{
        BatchNorm2d, Conv2d, DropPath, Dropout, HardSwish, MBConv, MBConvCfg, Relu, Residual,
        SqueezeExcite,
    };
    use crate::mode::CacheMode;
    use crate::module::{Identity, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Trains the BN stats away from (0, 1) so folding is non-trivial.
    fn warm_bn(seq: &mut dyn Layer, x: &Tensor) {
        for _ in 0..3 {
            let _ = seq.forward(x, CacheMode::Stats);
            seq.clear_cache();
        }
    }

    #[test]
    fn conv_bn_act_chain_folds_to_one_fused_conv() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut seq = Sequential::new()
            .push(Box::new(Conv2d::pointwise(6, 10, false, &mut rng)))
            .push(Box::new(BatchNorm2d::new(10)))
            .push(Box::new(HardSwish::new()));
        let x = Tensor::randn(Shape::new(2, 6, 8, 8), 1.0, &mut rng);
        warm_bn(&mut seq, &x);

        let frozen = freeze_layer(&seq).unwrap();
        assert!(matches!(frozen, FrozenLayer::Conv(_)), "chain should fuse to one conv");
        assert!(frozen.packed_bytes() > 0);

        let want = seq.forward(&x, CacheMode::None);
        let got = frozen.forward(&x);
        let tol = 1e-5 * (1.0 + want.abs_max());
        assert!(got.max_abs_diff(&want) < tol, "diff {}", got.max_abs_diff(&want));
    }

    #[test]
    fn dropout_and_droppath_freeze_to_identity() {
        assert!(matches!(Dropout::new(0.5, 1).freeze().unwrap(), FrozenLayer::Identity));
        assert!(matches!(DropPath::new(0.5, 1).freeze().unwrap(), FrozenLayer::Identity));
        let seq = Sequential::new().push(Box::new(Identity)).push(Box::new(Dropout::new(0.3, 2)));
        assert!(matches!(seq.freeze().unwrap(), FrozenLayer::Identity));
    }

    #[test]
    fn squeeze_excite_freezes_with_fused_gates() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut se = SqueezeExcite::new(8, 0.25, &mut rng);
        let x = Tensor::randn(Shape::new(2, 8, 5, 5), 1.0, &mut rng);
        let frozen = freeze_layer(&se).unwrap();
        let want = se.forward(&x, CacheMode::None);
        let got = frozen.forward(&x);
        let tol = 1e-5 * (1.0 + want.abs_max());
        assert!(got.max_abs_diff(&want) < tol, "diff {}", got.max_abs_diff(&want));
    }

    #[test]
    fn squeeze_excite_pools_from_the_depthwise_plane_sums() {
        // Depthwise -> SE, f32 and int8: the gate must take the conv's plane
        // sums (no pooling pass) and land where the pooled fallback does.
        let mut rng = StdRng::seed_from_u64(11);
        let seq = Sequential::new()
            .push(Box::new(Conv2d::depthwise(8, 3, 1, &mut rng)))
            .push(Box::new(HardSwish::new()))
            .push(Box::new(SqueezeExcite::new(8, 0.25, &mut rng)));
        let x = Tensor::randn(Shape::new(2, 8, 9, 7), 1.0, &mut rng);
        for frozen in [freeze_layer(&seq).unwrap(), freeze_layer_int8(&seq).unwrap()] {
            let FrozenLayer::Seq(children) = &frozen else { panic!("conv + gate stay two layers") };
            let (mid, sums) = children[0].forward_sums(&x, None);
            let sums = sums.expect("a depthwise conv hands on its plane sums");
            let (pooled, hw) = (global_avg_pool(&mid), mid.shape().hw() as f32);
            for (s, p) in sums.data().iter().zip(pooled.data()) {
                assert!((s / hw - p).abs() <= 1e-5 * (1.0 + p.abs()), "sum {s} vs mean {p}");
            }
            let (got, want) = (frozen.forward(&x), children[1].forward(&mid));
            let tol = 1e-5 * (1.0 + want.abs_max());
            assert!(got.max_abs_diff(&want) <= tol, "diff {}", got.max_abs_diff(&want));
        }
    }

    #[test]
    fn mbconv_freezes_and_matches_eval() {
        let mut rng = StdRng::seed_from_u64(2);
        for cfg in [
            MBConvCfg::same(8, 3, 2.0).with_se(0.25),
            MBConvCfg::down(8, 12, 1, 2.0),
            MBConvCfg::up(8, 6, 1, 1.5),
        ] {
            let mut b = MBConv::new(cfg, &mut rng);
            let x = Tensor::randn(Shape::new(2, 8, 8, 8), 1.0, &mut rng);
            warm_bn(&mut b, &x);
            let frozen = freeze_layer(&b).unwrap();
            let want = b.forward(&x, CacheMode::None);
            let got = frozen.forward(&x);
            assert_eq!(got.shape(), want.shape());
            let tol = 1e-4 * (1.0 + want.abs_max());
            assert!(
                got.max_abs_diff(&want) < tol,
                "cfg {cfg:?}: diff {}",
                got.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn residual_freeze_keeps_the_skip() {
        let mut rng = StdRng::seed_from_u64(3);
        let conv = Conv2d::pointwise(4, 4, true, &mut rng);
        let mut res = Residual::new(Box::new(conv), 0.1, 7);
        let x = Tensor::randn(Shape::new(1, 4, 6, 6), 1.0, &mut rng);
        let frozen = freeze_layer(&res).unwrap();
        let want = res.forward(&x, CacheMode::None);
        let got = frozen.forward(&x);
        let tol = 1e-5 * (1.0 + want.abs_max());
        assert!(got.max_abs_diff(&want) < tol);
    }

    #[test]
    fn packing_is_metered_and_released_on_drop() {
        let mut rng = StdRng::seed_from_u64(4);
        let before_events = meter::event_count("freeze.weights_packed");
        let base = meter::packed_current();
        let seq = Sequential::new()
            .push(Box::new(Conv2d::pointwise(6, 10, false, &mut rng)))
            .push(Box::new(BatchNorm2d::new(10)));
        let frozen = freeze_layer(&seq).unwrap();
        assert_eq!(meter::event_count("freeze.weights_packed"), before_events + 1);
        assert_eq!(meter::packed_current(), base + frozen.packed_bytes());
        // Forward passes never re-pack.
        let x = Tensor::randn(Shape::new(1, 6, 4, 4), 1.0, &mut rng);
        let _ = frozen.forward(&x);
        let _ = frozen.forward(&x);
        assert_eq!(meter::event_count("freeze.weights_packed"), before_events + 1);
        drop(frozen);
        assert_eq!(meter::packed_current(), base);
    }

    #[test]
    fn compile_is_idempotent() {
        let mut rng = StdRng::seed_from_u64(5);
        let conv = Conv2d::pointwise(4, 4, true, &mut rng);
        let before = meter::event_count("freeze.weights_packed");
        let mut frozen = conv.freeze().unwrap();
        assert_eq!(frozen.packed_bytes(), 0, "freeze alone must not pack");
        frozen.compile();
        frozen.compile();
        assert_eq!(meter::event_count("freeze.weights_packed"), before + 1);
    }

    #[test]
    fn compiled_linear_is_packed_once_and_keeps_the_bits() {
        // The classifier's shape: compile packs the weight once, registers
        // it on the packed gauge and drops the raw clone; every batch's
        // logits are the `sgemm_a_bt` + bias pass's bits. A layer whose GEMM
        // runs on the reference kernel keeps its raw weight.
        let mut rng = StdRng::seed_from_u64(12);
        let linear = crate::layers::Linear::new(1280, 1000, &mut rng);
        let base = meter::packed_current();
        let mut frozen = linear.freeze().unwrap();
        assert_eq!(frozen.packed_bytes(), 0, "freeze alone must not pack");
        let FrozenLayer::Linear { weight, bias } = &frozen else { panic!("a raw linear before compile") };
        let (weight, bias) = (weight.clone(), bias.clone());
        frozen.quantize();
        frozen.compile();
        frozen.compile();
        assert!(matches!(frozen, FrozenLayer::PackedLinear(_)), "compile packs the weight, int8 or not");
        assert_eq!(frozen.packed_bytes(), PackedGemmA::image_len(1000, 1280) * 4);
        assert_eq!(meter::packed_current(), base + frozen.packed_bytes());
        for n in [1, 3, 8] {
            let x = Tensor::randn(Shape::new(n, 1280, 1, 1), 1.0, &mut rng);
            let mut want = vec![0.0f32; n * 1000];
            sgemm_a_bt(n, 1280, 1000, 1.0, x.data(), weight.data(), 0.0, &mut want);
            want.iter_mut().enumerate().for_each(|(i, v)| *v += bias.data()[i % 1000]);
            let got = frozen.forward(&x);
            assert!(got.data().iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()), "batch {n}");
        }
        drop(frozen);
        assert_eq!(meter::packed_current(), base, "dropping the layer releases its panels");
        let mut small = crate::layers::Linear::new(128, 10, &mut rng).freeze().unwrap();
        small.compile();
        assert!(matches!(small, FrozenLayer::Linear { .. }) && small.packed_bytes() == 0);
    }

    #[test]
    fn quantized_chain_tracks_the_f32_frozen_forward() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut seq = Sequential::new()
            .push(Box::new(Conv2d::pointwise(6, 12, false, &mut rng)))
            .push(Box::new(BatchNorm2d::new(12)))
            .push(Box::new(HardSwish::new()))
            .push(Box::new(Conv2d::pointwise(12, 8, true, &mut rng)))
            .push(Box::new(Relu::new()));
        let x = Tensor::randn(Shape::new(2, 6, 8, 8), 1.0, &mut rng);
        warm_bn(&mut seq, &x);

        let f32_frozen = freeze_layer(&seq).unwrap();
        let int8 = freeze_layer_int8(&seq).unwrap();
        assert_eq!(int8.packed_bytes(), 0, "fully quantized chain holds no f32 panels");
        assert!(int8.quant_packed_bytes() > 0);
        assert!(
            int8.quant_packed_bytes() < f32_frozen.packed_bytes(),
            "int8 image must be smaller than the f32 panels"
        );

        let want = f32_frozen.forward(&x);
        let got = int8.forward(&x);
        assert_eq!(got.shape(), want.shape());
        // Loose end-to-end bound: two chained quantized layers on a small
        // random model stay within a few percent of the f32 frozen output.
        let tol = 0.05 * (1.0 + want.abs_max());
        assert!(got.max_abs_diff(&want) < tol, "diff {}", got.max_abs_diff(&want));
    }

    #[test]
    fn quantization_is_metered_and_released_on_drop() {
        let mut rng = StdRng::seed_from_u64(7);
        let before_events = meter::event_count("freeze.weights_quantized");
        let base_q = meter::quant_packed_current();
        let base_f = meter::packed_current();
        let seq = Sequential::new()
            .push(Box::new(Conv2d::pointwise(6, 10, false, &mut rng)))
            .push(Box::new(BatchNorm2d::new(10)));
        let frozen = freeze_layer_int8(&seq).unwrap();
        assert_eq!(meter::event_count("freeze.weights_quantized"), before_events + 1);
        assert_eq!(meter::quant_packed_current(), base_q + frozen.quant_packed_bytes());
        assert_eq!(meter::packed_current(), base_f, "quantized conv registers no f32 panels");
        drop(frozen);
        assert_eq!(meter::quant_packed_current(), base_q);
    }

    #[test]
    fn quantize_after_compile_is_refused() {
        // Compiling drops the raw weights, so an f32-compiled conv, like one
        // rebuilt from its f32 plan, has nothing left to quantize; an int8
        // conv quantizes again as a no-op.
        let mut rng = StdRng::seed_from_u64(8);
        let conv = Conv2d::pointwise(4, 6, true, &mut rng);
        let base_f = meter::packed_current();
        let base_q = meter::quant_packed_current();
        let mut compiled = conv.freeze().unwrap();
        compiled.compile();
        let plan = match &compiled {
            FrozenLayer::Conv(fc) => fc.plan().expect("compiled").clone(),
            _ => panic!("a conv freezes to a conv"),
        };
        let mut plan_only = FrozenLayer::Conv(Box::new(FusedConv::from_plan(plan)));
        for frozen in [&mut compiled, &mut plan_only] {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| frozen.quantize())).unwrap_err();
            assert_eq!(err.downcast_ref::<&str>(), Some(&"quantize before compile"));
            assert_eq!(frozen.quant_packed_bytes(), 0, "the f32 plan stays");
        }
        assert!(meter::packed_current() > base_f && meter::quant_packed_current() == base_q);
        drop((compiled, plan_only));
        assert_eq!(meter::packed_current(), base_f);
        let mut int8 = freeze_layer_int8(&conv).unwrap();
        let bytes = int8.quant_packed_bytes();
        int8.quantize();
        int8.compile();
        assert_eq!((int8.quant_packed_bytes(), meter::quant_packed_current()), (bytes, base_q + bytes));
    }

    #[test]
    fn squeeze_excite_stays_f32_under_quantization() {
        let mut rng = StdRng::seed_from_u64(9);
        let se = SqueezeExcite::new(8, 0.25, &mut rng);
        let mut frozen = se.freeze().unwrap();
        frozen.quantize();
        frozen.compile();
        assert_eq!(frozen.quant_packed_bytes(), 0);
        assert!(frozen.packed_bytes() > 0, "SE gates keep their f32 panels");
    }

    #[test]
    fn unsupported_layers_report_their_name() {
        #[derive(Debug)]
        struct Opaque;
        impl Layer for Opaque {
            fn forward(&mut self, x: &Tensor, _mode: CacheMode) -> Tensor {
                x.clone()
            }
            fn backward(&mut self, dy: &Tensor) -> Tensor {
                dy.clone()
            }
            fn name(&self) -> &str {
                "opaque"
            }
        }
        let err = Opaque.freeze().unwrap_err();
        assert_eq!(err, FreezeError::unsupported("layer", "opaque"));
        assert_eq!(err.to_string(), "layer `opaque` cannot be frozen");
        // A chain containing it fails the same way.
        let seq = Sequential::new().push(Box::new(Relu::new())).push(Box::new(Opaque));
        assert!(seq.freeze().is_err());
    }
}
