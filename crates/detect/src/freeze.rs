//! Frozen (inference-only) detector: fused backbone + fused dense head.
//!
//! [`crate::Detector::freeze`] compiles the whole detector into fused
//! kernels — the backbone through `revbifpn::FrozenBackbone`, the head's
//! lateral/tower/branch convs into [`FrozenLayer`]s with biases and ReLUs in
//! the GEMM epilogues. Decoding and NMS are unchanged, so frozen detections
//! match eval-mode detections up to conv-fusion rounding.

use crate::head::{decode_detections, DetHeadConfig, LevelOutput};
use crate::nms::Detection;
use revbifpn::FrozenBackbone;
use revbifpn_nn::{FrozenLayer, FrozenTree};
use revbifpn_tensor::Tensor;

/// Frozen form of the dense [`crate::DetHead`].
#[derive(Debug)]
pub struct FrozenDetHead {
    pub(crate) cfg: DetHeadConfig,
    pub(crate) strides: Vec<usize>,
    pub(crate) laterals: Vec<FrozenLayer>,
    pub(crate) towers: Vec<FrozenLayer>,
    pub(crate) cls: Vec<FrozenLayer>,
    pub(crate) reg: Vec<FrozenLayer>,
}

impl FrozenDetHead {
    /// The head configuration.
    pub fn cfg(&self) -> &DetHeadConfig {
        &self.cfg
    }

    /// Per-level strides.
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Fused forward over a pyramid: per-level `(cls, reg)` outputs.
    pub fn forward(&self, pyramid: &[Tensor]) -> Vec<LevelOutput> {
        assert_eq!(pyramid.len(), self.laterals.len(), "pyramid level mismatch");
        pyramid
            .iter()
            .enumerate()
            .map(|(l, p)| {
                let lat = self.laterals[l].forward(p);
                let t = self.towers[l].forward(&lat);
                LevelOutput { cls: self.cls[l].forward(&t), reg: self.reg[l].forward(&t) }
            })
            .collect()
    }
}

impl FrozenTree for FrozenDetHead {
    /// Laterals, towers, class branches, then box branches.
    fn visit_frozen(&self, f: &mut dyn FnMut(&FrozenLayer)) {
        [&self.laterals, &self.towers, &self.cls, &self.reg].into_iter().flatten().for_each(f);
    }

    fn visit_frozen_mut(&mut self, f: &mut dyn FnMut(&mut FrozenLayer)) {
        [&mut self.laterals, &mut self.towers, &mut self.cls, &mut self.reg].into_iter().flatten().for_each(f);
    }
}

/// A frozen detector (fused backbone + fused head), produced by
/// [`crate::Detector::freeze`]. Forward-only and `&self`.
#[derive(Debug)]
pub struct FrozenDetector {
    pub(crate) backbone: FrozenBackbone,
    pub(crate) head: FrozenDetHead,
}

impl FrozenDetector {
    /// The frozen backbone.
    pub fn backbone(&self) -> &FrozenBackbone {
        &self.backbone
    }

    /// The frozen head.
    pub fn head(&self) -> &FrozenDetHead {
        &self.head
    }

    /// Raw per-level head outputs (pre-decode); used for fused-vs-unfused
    /// parity checks that must not depend on NMS threshold effects.
    pub fn forward_raw(&self, images: &Tensor) -> Vec<LevelOutput> {
        let pyramid = self.backbone.forward(images);
        self.head.forward(&pyramid)
    }

    /// Inference: per-image detections (decode + NMS, identical to the
    /// unfused [`crate::Detector::detect`] pipeline).
    pub fn detect(&self, images: &Tensor) -> Vec<Vec<Detection>> {
        let outputs = self.forward_raw(images);
        decode_detections(&outputs, self.head.strides(), self.head.cfg())
    }
}

impl FrozenTree for FrozenDetector {
    fn visit_frozen(&self, f: &mut dyn FnMut(&FrozenLayer)) {
        self.backbone.visit_frozen(f);
        self.head.visit_frozen(f);
    }

    fn visit_frozen_mut(&mut self, f: &mut dyn FnMut(&mut FrozenLayer)) {
        self.backbone.visit_frozen_mut(f);
        self.head.visit_frozen_mut(f);
    }
}
