//! FCOS-style dense detection head over a feature pyramid, plus target
//! assignment and the training losses.
//!
//! This is the repository's stand-in for the paper's Faster R-CNN framework
//! (see DESIGN.md): a per-level anchor-free head predicting class logits
//! and log-space `(l, t, r, b)` distances at every location. The backbone /
//! pyramid interface it exercises is identical; only the detector framework
//! differs.

use crate::backbone::Backbone;
use crate::nms::{nms, Detection};
use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn_data::BoxAnnotation;
use revbifpn_nn::layers::{Conv2d, Relu};
use revbifpn_nn::loss::{focal_loss_with_logits, smooth_l1};
use revbifpn_nn::{CacheMode, FrozenTree, Layer, Module, Sequential, ShapeWalk};
use revbifpn_tensor::{ConvSpec, Shape, Tensor};

/// Detection-head hyperparameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DetHeadConfig {
    /// Object classes.
    pub num_classes: usize,
    /// Common head width after the lateral 1x1 convs.
    pub head_channels: usize,
    /// 3x3 conv+ReLU pairs in each level's tower.
    pub tower_depth: usize,
    /// Score threshold at inference.
    pub score_thresh: f32,
    /// NMS IoU threshold.
    pub nms_iou: f32,
    /// Maximum detections per image.
    pub max_dets: usize,
}

impl DetHeadConfig {
    /// A small default.
    pub fn new(num_classes: usize) -> Self {
        Self { num_classes, head_channels: 32, tower_depth: 1, score_thresh: 0.3, nms_iou: 0.5, max_dets: 50 }
    }
}

/// Per-level outputs of the head.
#[derive(Debug)]
pub struct LevelOutput {
    /// Class logits `[n, classes, h, w]`.
    pub cls: Tensor,
    /// Raw log-space box regression `[n, 4, h, w]`.
    pub reg: Tensor,
}

/// The dense head: per-level lateral + tower + (cls, reg) branches.
#[derive(Debug)]
pub struct DetHead {
    cfg: DetHeadConfig,
    strides: Vec<usize>,
    laterals: Vec<Conv2d>,
    towers: Vec<Sequential>,
    cls: Vec<Conv2d>,
    reg: Vec<Conv2d>,
}

impl DetHead {
    /// Builds the head for a backbone's pyramid layout.
    pub fn new(cfg: DetHeadConfig, channels: &[usize], strides: &[usize], seed: u64) -> Self {
        assert_eq!(channels.len(), strides.len());
        let mut rng = StdRng::seed_from_u64(seed);
        let c = cfg.head_channels;
        let laterals = channels.iter().map(|&ci| Conv2d::pointwise(ci, c, true, &mut rng)).collect();
        let towers = (0..channels.len())
            .map(|_| {
                let mut t = Sequential::new();
                for _ in 0..cfg.tower_depth {
                    t.add(Box::new(Conv2d::new(c, c, ConvSpec::kxk(3, 1), true, &mut rng)));
                    t.add(Box::new(Relu::new()));
                }
                t
            })
            .collect();
        let cls = (0..channels.len())
            .map(|_| Conv2d::new(c, cfg.num_classes, ConvSpec::kxk(3, 1), true, &mut rng))
            .collect();
        let reg = (0..channels.len())
            .map(|_| Conv2d::new(c, 4, ConvSpec::kxk(3, 1), true, &mut rng))
            .collect();
        Self { cfg, strides: strides.to_vec(), laterals, towers, cls, reg }
    }

    /// The configuration.
    pub fn cfg(&self) -> &DetHeadConfig {
        &self.cfg
    }

    /// Per-level strides.
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Inference-only frozen form (uncompiled; see
    /// [`crate::freeze::FrozenDetHead`]).
    pub fn freeze(&self) -> Result<crate::freeze::FrozenDetHead, revbifpn_nn::FreezeError> {
        let freeze_all = |layers: &mut dyn Iterator<Item = &dyn Layer>| {
            layers.map(|l| l.freeze()).collect::<Result<Vec<_>, _>>()
        };
        Ok(crate::freeze::FrozenDetHead {
            cfg: self.cfg,
            strides: self.strides.clone(),
            laterals: freeze_all(&mut self.laterals.iter().map(|l| l as &dyn Layer))?,
            towers: freeze_all(&mut self.towers.iter().map(|t| t as &dyn Layer))?,
            cls: freeze_all(&mut self.cls.iter().map(|c| c as &dyn Layer))?,
            reg: freeze_all(&mut self.reg.iter().map(|r| r as &dyn Layer))?,
        })
    }

    /// Forward over a pyramid.
    pub fn forward(&mut self, pyramid: &[Tensor], mode: CacheMode) -> Vec<LevelOutput> {
        assert_eq!(pyramid.len(), self.laterals.len(), "pyramid level mismatch");
        pyramid
            .iter()
            .enumerate()
            .map(|(l, p)| {
                let lat = self.laterals[l].forward(p, mode);
                let t = self.towers[l].forward(&lat, mode);
                LevelOutput { cls: self.cls[l].forward(&t, mode), reg: self.reg[l].forward(&t, mode) }
            })
            .collect()
    }

    /// Backward from per-level gradients; returns pyramid gradients.
    pub fn backward(&mut self, grads: Vec<LevelOutput>) -> Vec<Tensor> {
        grads
            .into_iter()
            .enumerate()
            .map(|(l, g)| {
                let mut dt = self.cls[l].backward(&g.cls);
                dt.add_assign(&self.reg[l].backward(&g.reg));
                let dlat = self.towers[l].backward(&dt);
                self.laterals[l].backward(&dlat)
            })
            .collect()
    }
}

impl Module for DetHead {
    /// Laterals, towers, class branches, then box branches.
    fn visit_layers(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        for l in &mut self.laterals {
            f(l);
        }
        for t in &mut self.towers {
            f(t);
        }
        for c in self.cls.iter_mut().chain(&mut self.reg) {
            f(c);
        }
    }
}

impl ShapeWalk for DetHead {
    /// Each level's lateral at its pyramid map, its tower at the lateral's
    /// output, and its class and box branches at the tower's; returns the
    /// class maps, then the box maps.
    fn visit_layers_at(&self, xs: &[Shape], f: &mut dyn FnMut(&dyn Layer, Shape)) -> Vec<Shape> {
        let mut at = |l: &dyn Layer, x: Shape| {
            f(l, x);
            l.out_shape(x)
        };
        let lats: Vec<Shape> = self.laterals.iter().zip(xs).map(|(l, &x)| at(l, x)).collect();
        let towers: Vec<Shape> = self.towers.iter().zip(lats).map(|(t, x)| at(t, x)).collect();
        let branches = self.cls.iter().zip(&towers).chain(self.reg.iter().zip(&towers));
        branches.map(|(b, &x)| at(b, x)).collect()
    }
}

/// Per-level training targets for one batch.
#[derive(Debug)]
pub struct LevelTargets {
    /// Class targets `[n, classes, h, w]` in {0, 1}.
    pub cls: Tensor,
    /// Log-space box targets `[n, 4, h, w]` (defined on positives).
    pub reg: Tensor,
    /// Positive-location mask broadcast on the 4 regression channels.
    pub reg_weight: Tensor,
    /// Number of positive locations.
    pub num_pos: usize,
}

/// FCOS-style assignment: a location is positive for the smallest ground
/// truth containing it whose maximum `(l,t,r,b)` extent falls in the
/// level's size range (`(4*s_{l-1}, 4*s_l]`, unbounded at the coarsest).
pub fn assign_targets(
    objects: &[Vec<BoxAnnotation>],
    shapes: &[Shape],
    strides: &[usize],
    num_classes: usize,
) -> Vec<LevelTargets> {
    let n = shapes[0].n;
    let num_levels = shapes.len();
    let mut out = Vec::with_capacity(num_levels);
    for (l, (&shape, &stride)) in shapes.iter().zip(strides).enumerate() {
        let lo = if l == 0 { 0.0 } else { 4.0 * strides[l - 1] as f32 };
        let hi = if l + 1 == num_levels { f32::INFINITY } else { 4.0 * stride as f32 };
        let mut cls = Tensor::zeros(Shape::new(n, num_classes, shape.h, shape.w));
        let mut reg = Tensor::zeros(Shape::new(n, 4, shape.h, shape.w));
        let mut w = Tensor::zeros(Shape::new(n, 4, shape.h, shape.w));
        let mut num_pos = 0usize;
        for (img, objs) in objects.iter().enumerate() {
            for y in 0..shape.h {
                for x in 0..shape.w {
                    let px = stride as f32 * (x as f32 + 0.5);
                    let py = stride as f32 * (y as f32 + 0.5);
                    let mut best: Option<(&BoxAnnotation, f32)> = None;
                    for o in objs {
                        let [x1, y1, x2, y2] = o.bbox;
                        if px < x1 || px > x2 || py < y1 || py > y2 {
                            continue;
                        }
                        let ltrb = [px - x1, py - y1, x2 - px, y2 - py];
                        let m = ltrb.iter().fold(0.0f32, |a, &b| a.max(b));
                        if m <= lo || m > hi {
                            continue;
                        }
                        let area = o.area();
                        if best.map(|(_, a)| area < a).unwrap_or(true) {
                            best = Some((o, area));
                        }
                    }
                    if let Some((o, _)) = best {
                        num_pos += 1;
                        cls.set(img, o.class, y, x, 1.0);
                        let [x1, y1, x2, y2] = o.bbox;
                        let ltrb = [px - x1, py - y1, x2 - px, y2 - py];
                        for (k, &d) in ltrb.iter().enumerate() {
                            reg.set(img, k, y, x, (d.max(1e-3) / stride as f32).ln());
                            w.set(img, k, y, x, 1.0);
                        }
                    }
                }
            }
        }
        out.push(LevelTargets { cls, reg, reg_weight: w, num_pos });
    }
    out
}

/// Detection losses: `(total, cls_loss, reg_loss, per-level gradients)`.
pub fn detection_loss(outputs: &[LevelOutput], targets: &[LevelTargets]) -> (f64, f64, f64, Vec<LevelOutput>) {
    let total_pos: usize = targets.iter().map(|t| t.num_pos).sum();
    let norm = total_pos.max(1) as f64;
    let mut cls_loss = 0.0;
    let mut reg_loss = 0.0;
    let mut grads = Vec::with_capacity(outputs.len());
    for (o, t) in outputs.iter().zip(targets) {
        let (lc, dc) = focal_loss_with_logits(&o.cls, &t.cls, 0.25, 2.0, norm);
        let (lr, dr) = smooth_l1(&o.reg, &t.reg, &t.reg_weight, norm);
        cls_loss += lc;
        reg_loss += lr;
        grads.push(LevelOutput { cls: dc, reg: dr });
    }
    (cls_loss + reg_loss, cls_loss, reg_loss, grads)
}

/// Decodes head outputs into per-image detections (with NMS).
pub fn decode_detections(outputs: &[LevelOutput], strides: &[usize], cfg: &DetHeadConfig) -> Vec<Vec<Detection>> {
    let n = outputs[0].cls.shape().n;
    let mut per_image: Vec<Vec<Detection>> = vec![Vec::new(); n];
    for (o, &stride) in outputs.iter().zip(strides) {
        let s = o.cls.shape();
        #[allow(clippy::needless_range_loop)] // `img` also indexes the level tensors below
        for img in 0..n {
            for y in 0..s.h {
                for x in 0..s.w {
                    for k in 0..cfg.num_classes {
                        let logit = o.cls.at(img, k, y, x);
                        let score = 1.0 / (1.0 + (-logit).exp());
                        if score < cfg.score_thresh {
                            continue;
                        }
                        let px = stride as f32 * (x as f32 + 0.5);
                        let py = stride as f32 * (y as f32 + 0.5);
                        let d = |c: usize| o.reg.at(img, c, y, x).clamp(-6.0, 6.0).exp() * stride as f32;
                        per_image[img].push(Detection {
                            bbox: [px - d(0), py - d(1), px + d(2), py + d(3)],
                            class: k,
                            score,
                        });
                    }
                }
            }
        }
    }
    per_image.into_iter().map(|dets| nms(dets, cfg.nms_iou, cfg.max_dets)).collect()
}

/// A complete detector: backbone + dense head.
#[derive(Debug)]
pub struct Detector {
    backbone: Box<dyn Backbone>,
    head: DetHead,
}

impl Detector {
    /// Builds a detector over `backbone`.
    pub fn new(backbone: Box<dyn Backbone>, cfg: DetHeadConfig, seed: u64) -> Self {
        let head = DetHead::new(cfg, &backbone.channels(), &backbone.strides(), seed);
        Self { backbone, head }
    }

    /// The backbone.
    pub fn backbone(&self) -> &dyn Backbone {
        self.backbone.as_ref()
    }

    /// The head.
    pub fn head(&self) -> &DetHead {
        &self.head
    }

    /// Training forward to the raw per-level head outputs: the backbone
    /// caches per its training regime, the head conventionally.
    pub fn forward_train(&mut self, images: &Tensor) -> Vec<LevelOutput> {
        let pyramid = self.backbone.forward_train(images);
        self.head.forward(&pyramid, CacheMode::Full)
    }

    /// One training step: forward, loss, backward. Returns
    /// `(total, cls, reg)` losses. Gradients accumulate into parameters.
    pub fn train_step(&mut self, images: &Tensor, objects: &[Vec<BoxAnnotation>]) -> (f64, f64, f64) {
        let outputs = self.forward_train(images);
        let shapes: Vec<Shape> = outputs.iter().map(|o| o.cls.shape()).collect();
        let targets = assign_targets(objects, &shapes, self.head.strides(), self.head.cfg().num_classes);
        let (total, lc, lr, grads) = detection_loss(&outputs, &targets);
        let dpyr = self.head.backward(grads);
        self.backbone.backward(dpyr);
        (total, lc, lr)
    }

    /// Compiles the detector into its frozen inference form (backbone and
    /// head fused, weight panels packed). The original detector is untouched.
    ///
    /// # Errors
    ///
    /// Returns [`revbifpn_nn::FreezeError`] if the backbone has no fused
    /// kernels or any head layer cannot be fused.
    pub fn freeze(&self) -> Result<crate::freeze::FrozenDetector, revbifpn_nn::FreezeError> {
        let mut frozen = crate::freeze::FrozenDetector {
            backbone: self.backbone.freeze()?,
            head: self.head.freeze()?,
        };
        frozen.compile();
        Ok(frozen)
    }

    /// Like [`Detector::freeze`], but lowers every fused conv to
    /// per-output-channel int8 weights before compiling; inference runs the
    /// f32 kernels on them (activations stay f32). Decoding and NMS are
    /// unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`revbifpn_nn::FreezeError`] if the backbone has no fused
    /// kernels or any head layer cannot be fused.
    pub fn freeze_int8(&self) -> Result<crate::freeze::FrozenDetector, revbifpn_nn::FreezeError> {
        let mut frozen = crate::freeze::FrozenDetector {
            backbone: self.backbone.freeze()?,
            head: self.head.freeze()?,
        };
        frozen.quantize();
        frozen.compile();
        Ok(frozen)
    }

    /// Eval forward to the raw per-level head outputs, before decoding and
    /// NMS — the unfused counterpart of
    /// [`crate::freeze::FrozenDetector::forward_raw`], for parity checks.
    pub fn forward_raw_eval(&mut self, images: &Tensor) -> Vec<LevelOutput> {
        let pyramid = self.backbone.forward_eval(images);
        self.head.forward(&pyramid, CacheMode::None)
    }

    /// Inference: per-image detections.
    pub fn detect(&mut self, images: &Tensor) -> Vec<Vec<Detection>> {
        let outputs = self.forward_raw_eval(images);
        decode_detections(&outputs, self.head.strides(), self.head.cfg())
    }
}

impl Module for Detector {
    fn visit_layers(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        self.backbone.visit_layers(f);
        self.head.visit_layers(f);
    }

    fn clear_state(&mut self) {
        self.backbone.clear_state();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backbone::RevBackbone;
    use revbifpn::{RevBiFPN, RevBiFPNConfig};

    fn shapes_for(n: usize) -> Vec<Shape> {
        vec![Shape::new(n, 3, 16, 16), Shape::new(n, 3, 8, 8), Shape::new(n, 3, 4, 4)]
    }

    #[test]
    fn assignment_prefers_level_by_size() {
        // A small (6px) and a large (28px) object at 32px input with
        // strides [2, 4, 8]: extents 6 -> level 0 (range (0, 8]); 28 ->
        // level 2 (range (16, inf)).
        let objs = vec![vec![
            BoxAnnotation { bbox: [2.0, 2.0, 8.0, 8.0], class: 0 },
            BoxAnnotation { bbox: [2.0, 2.0, 30.0, 30.0], class: 1 },
        ]];
        let t = assign_targets(&objs, &shapes_for(1), &[2, 4, 8], 2);
        // Class 0 mass only on level 0; class 1 only on level 2.
        let mass = |lvl: usize, class: usize| -> f64 {
            let s = t[lvl].cls.shape();
            let mut m = 0.0;
            for y in 0..s.h {
                for x in 0..s.w {
                    m += t[lvl].cls.at(0, class, y, x) as f64;
                }
            }
            m
        };
        assert!(mass(0, 0) > 0.0 && mass(1, 0) == 0.0 && mass(2, 0) == 0.0);
        // The large object's edge regions (extent > 16) land on level 2;
        // its centre (extent ~14) may land on level 1 — but never level 0.
        assert!(mass(2, 1) > 0.0 && mass(0, 1) == 0.0);
    }

    #[test]
    fn reg_targets_roundtrip_through_decode() {
        // If the head outputs exactly the regression targets, decoding must
        // reproduce the ground-truth box.
        let objs = vec![vec![BoxAnnotation { bbox: [4.0, 6.0, 28.0, 26.0], class: 0 }]];
        let shapes = shapes_for(1);
        let strides = [2usize, 4, 8];
        let targets = assign_targets(&objs, &shapes, &strides, 1);
        let outputs: Vec<LevelOutput> = targets
            .iter()
            .map(|t| LevelOutput { cls: t.cls.map(|v| if v > 0.0 { 10.0 } else { -10.0 }), reg: t.reg.clone() })
            .collect();
        let cfg = DetHeadConfig::new(1);
        let dets = decode_detections(&outputs, &strides, &cfg);
        assert!(!dets[0].is_empty());
        let best = &dets[0][0];
        for (a, b) in best.bbox.iter().zip(&objs[0][0].bbox) {
            assert!((a - b).abs() < 0.5, "{:?} vs {:?}", best.bbox, objs[0][0].bbox);
        }
    }

    #[test]
    fn loss_decreases_for_better_predictions() {
        let objs = vec![vec![BoxAnnotation { bbox: [4.0, 4.0, 20.0, 20.0], class: 0 }]];
        let shapes = shapes_for(1);
        let strides = [2usize, 4, 8];
        let targets = assign_targets(&objs, &shapes, &strides, 1);
        let zero_out: Vec<LevelOutput> = targets
            .iter()
            .map(|t| LevelOutput { cls: Tensor::zeros(t.cls.shape()), reg: Tensor::zeros(t.reg.shape()) })
            .collect();
        let good_out: Vec<LevelOutput> = targets
            .iter()
            .map(|t| LevelOutput { cls: t.cls.map(|v| if v > 0.0 { 8.0 } else { -8.0 }), reg: t.reg.clone() })
            .collect();
        let (l0, ..) = detection_loss(&zero_out, &targets);
        let (l1, ..) = detection_loss(&good_out, &targets);
        assert!(l1 < l0 * 0.05, "good {l1} vs zero {l0}");
    }

    #[test]
    fn detector_train_step_produces_grads() {
        let backbone = RevBackbone::new(RevBiFPN::new(RevBiFPNConfig::tiny(4)), true);
        let mut det = Detector::new(Box::new(backbone), DetHeadConfig::new(3), 0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let images = Tensor::randn(Shape::new(2, 3, 32, 32), 1.0, &mut rng);
        let objs = vec![
            vec![BoxAnnotation { bbox: [4.0, 4.0, 20.0, 20.0], class: 0 }],
            vec![BoxAnnotation { bbox: [10.0, 8.0, 28.0, 30.0], class: 2 }],
        ];
        det.zero_grads();
        let (total, lc, lr) = det.train_step(&images, &objs);
        assert!(total.is_finite() && lc > 0.0 && lr >= 0.0);
        let mut nonzero = 0;
        det.visit_params(&mut |p| {
            if p.grad.abs_max() > 0.0 {
                nonzero += 1;
            }
        });
        assert!(nonzero > 20, "only {nonzero} grads");
        det.clear_cache();
    }

    #[test]
    fn detect_runs_in_eval() {
        let backbone = RevBackbone::new(RevBiFPN::new(RevBiFPNConfig::tiny(4)), true);
        let mut det = Detector::new(Box::new(backbone), DetHeadConfig::new(3), 0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let images = Tensor::randn(Shape::new(1, 3, 32, 32), 1.0, &mut rng);
        let dets = det.detect(&images);
        assert_eq!(dets.len(), 1);
    }

    #[test]
    fn frozen_detector_matches_eval_forward() {
        let backbone = RevBackbone::new(RevBiFPN::new(RevBiFPNConfig::tiny(4)), true);
        let mut det = Detector::new(Box::new(backbone), DetHeadConfig::new(3), 7);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        det.visit_params(&mut |p| {
            if p.name == "bn.gamma" {
                p.value = Tensor::uniform(p.value.shape(), 0.5, 1.5, &mut rng);
            }
        });
        // Move BN running stats off their init so the affine fold is
        // non-trivial, then clear training caches.
        let objs = vec![vec![BoxAnnotation { bbox: [4.0, 4.0, 20.0, 20.0], class: 0 }]];
        for _ in 0..3 {
            let images = Tensor::randn(Shape::new(1, 3, 32, 32), 1.0, &mut rng);
            let _ = det.train_step(&images, &objs);
            det.clear_cache();
        }
        det.zero_grads();

        let frozen = det.freeze().unwrap();
        assert!(frozen.packed_bytes() > 0);

        let images = Tensor::randn(Shape::new(2, 3, 32, 32), 1.0, &mut rng);
        let pyramid = det.backbone.forward_eval(&images);
        let want = det.head.forward(&pyramid, CacheMode::None);
        let got = frozen.forward_raw(&images);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            for (gt, wt) in [(&g.cls, &w.cls), (&g.reg, &w.reg)] {
                let tol = 1e-4 * (1.0 + wt.abs_max());
                assert!(gt.max_abs_diff(wt) < tol, "head output diff {}", gt.max_abs_diff(wt));
            }
        }
        // The full pipeline (decode + NMS) runs on the fused outputs too.
        let dets = frozen.detect(&images);
        assert_eq!(dets.len(), 2);
    }
}
