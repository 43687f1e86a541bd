//! Per-pixel mask head: the repository's substitution for Mask R-CNN's
//! instance-mask branch (see DESIGN.md). A small conv tower on the finest
//! pyramid level predicts per-pixel class logits; instance masks are read
//! out inside each detected box. Mask AP is computed with the same COCO
//! machinery as box AP, with mask IoU as the overlap.

use crate::ap::{evaluate_ap_with, ApResult, AreaRanges};
use crate::backbone::Backbone;
use crate::head::{assign_targets, detection_loss, decode_detections, DetHead, DetHeadConfig};
use crate::nms::Detection;
use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn_data::BoxAnnotation;
use revbifpn_nn::layers::{Conv2d, Relu, Upsample};
use revbifpn_nn::{CacheMode, Layer, Module, Sequential};
use revbifpn_tensor::{ConvSpec, ResizeMode, Shape, Tensor};

/// IoU of two binary masks (`[1, 1, h, w]`, nonzero = foreground).
pub fn mask_iou(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.shape(), b.shape(), "mask shapes must match");
    let mut inter = 0.0f64;
    let mut uni = 0.0f64;
    for (&x, &y) in a.data().iter().zip(b.data()) {
        let fa = x > 0.0;
        let fb = y > 0.0;
        if fa && fb {
            inter += 1.0;
        }
        if fa || fb {
            uni += 1.0;
        }
    }
    if uni == 0.0 {
        0.0
    } else {
        (inter / uni) as f32
    }
}

/// COCO-style AP with mask IoU as the overlap function.
pub fn evaluate_mask_ap(
    dets: &[Vec<Detection>],
    det_masks: &[Vec<Tensor>],
    gts: &[Vec<BoxAnnotation>],
    gt_masks: &[Vec<Tensor>],
    num_classes: usize,
    ranges: AreaRanges,
) -> ApResult {
    let iou_fn =
        move |img: usize, di: usize, gi: usize| mask_iou(&det_masks[img][di], &gt_masks[img][gi]);
    evaluate_ap_with(dets, gts, num_classes, ranges, &iou_fn)
}

/// Per-pixel semantic head on the finest pyramid level.
#[derive(Debug)]
pub struct SegHead {
    tower: Sequential,
    stride: usize,
}

impl SegHead {
    /// Builds the head: lateral + tower + per-pixel logits for
    /// `num_classes + 1` channels (class 0 = background), upsampled to the
    /// input resolution.
    pub fn new(c_in: usize, stride: usize, num_classes: usize, width: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tower = Sequential::new();
        tower.add(Box::new(Conv2d::pointwise(c_in, width, true, &mut rng)));
        tower.add(Box::new(Relu::new()));
        tower.add(Box::new(Conv2d::new(width, width, ConvSpec::kxk(3, 1), true, &mut rng)));
        tower.add(Box::new(Relu::new()));
        tower.add(Box::new(Conv2d::new(width, num_classes + 1, ConvSpec::kxk(3, 1), true, &mut rng)));
        if stride > 1 {
            tower.add(Box::new(Upsample::new(stride, ResizeMode::Bilinear)));
        }
        let _ = num_classes;
        Self { tower, stride }
    }

    /// Forward: finest pyramid level to `[n, classes+1, r, r]` logits.
    pub fn forward(&mut self, p0: &Tensor, mode: CacheMode) -> Tensor {
        self.tower.forward(p0, mode)
    }

    /// Backward to the pyramid level.
    pub fn backward(&mut self, dlogits: &Tensor) -> Tensor {
        self.tower.backward(dlogits)
    }

    /// The upsampling stride.
    pub fn stride(&self) -> usize {
        self.stride
    }
}

impl Module for SegHead {
    fn visit_layers(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        f(&mut self.tower);
    }
}

/// Rasterizes ground truth into a per-pixel class map `[n, r, r]`
/// (0 = background, `class + 1` otherwise; later objects overwrite earlier).
pub fn rasterize_targets(masks: &[Vec<Tensor>], objects: &[Vec<BoxAnnotation>], res: usize) -> Vec<Vec<u8>> {
    masks
        .iter()
        .zip(objects)
        .map(|(ms, objs)| {
            let mut plane = vec![0u8; res * res];
            for (m, o) in ms.iter().zip(objs) {
                for y in 0..res {
                    for x in 0..res {
                        if m.at(0, 0, y, x) > 0.0 {
                            plane[y * res + x] = o.class as u8 + 1;
                        }
                    }
                }
            }
            plane
        })
        .collect()
}

/// Per-pixel softmax cross-entropy. Returns `(mean_loss, dlogits)`.
pub fn pixel_cross_entropy(logits: &Tensor, targets: &[Vec<u8>]) -> (f64, Tensor) {
    let s = logits.shape();
    assert_eq!(targets.len(), s.n, "batch mismatch");
    let k = s.c;
    let hw = s.hw();
    let mut loss = 0.0f64;
    let mut d = Tensor::zeros(s);
    let inv = 1.0 / (s.n * hw) as f32;
    for (n, target) in targets.iter().enumerate() {
        assert_eq!(target.len(), hw, "target raster size mismatch");
        for (i, &t_raw) in target.iter().enumerate() {
            // Softmax over channels at pixel i.
            let mut maxv = f32::NEG_INFINITY;
            for c in 0..k {
                maxv = maxv.max(logits.data()[(n * k + c) * hw + i]);
            }
            let mut z = 0.0f32;
            for c in 0..k {
                z += (logits.data()[(n * k + c) * hw + i] - maxv).exp();
            }
            let t = t_raw as usize;
            let logit_t = logits.data()[(n * k + t) * hw + i];
            loss += -((logit_t - maxv) as f64 - (z as f64).ln());
            for c in 0..k {
                let p = (logits.data()[(n * k + c) * hw + i] - maxv).exp() / z;
                let delta = if c == t { 1.0 } else { 0.0 };
                d.data_mut()[(n * k + c) * hw + i] = (p - delta) * inv;
            }
        }
    }
    (loss / (s.n * hw) as f64, d)
}

/// Extracts a binary instance mask for a detection from the per-pixel class
/// prediction: pixels inside the box whose argmax channel equals
/// `class + 1`.
pub fn instance_mask(seg_logits: &Tensor, img: usize, det: &Detection) -> Tensor {
    let s = seg_logits.shape();
    let mut mask = Tensor::zeros(Shape::new(1, 1, s.h, s.w));
    let x1 = det.bbox[0].max(0.0) as usize;
    let y1 = det.bbox[1].max(0.0) as usize;
    let x2 = (det.bbox[2].min(s.w as f32 - 1.0)) as usize;
    let y2 = (det.bbox[3].min(s.h as f32 - 1.0)) as usize;
    for y in y1..=y2.min(s.h - 1) {
        for x in x1..=x2.min(s.w - 1) {
            let mut best_c = 0;
            let mut best_v = f32::NEG_INFINITY;
            for c in 0..s.c {
                let v = seg_logits.at(img, c, y, x);
                if v > best_v {
                    best_v = v;
                    best_c = c;
                }
            }
            if best_c == det.class + 1 {
                mask.set(0, 0, y, x, 1.0);
            }
        }
    }
    mask
}

/// Detector with an additional mask branch (the Mask R-CNN substitute).
#[derive(Debug)]
pub struct MaskDetector {
    backbone: Box<dyn Backbone>,
    det_head: DetHead,
    seg_head: SegHead,
    resolution: usize,
}

impl MaskDetector {
    /// Builds the joint model.
    pub fn new(backbone: Box<dyn Backbone>, cfg: DetHeadConfig, resolution: usize, seed: u64) -> Self {
        let det_head = DetHead::new(cfg, &backbone.channels(), &backbone.strides(), seed);
        let seg_head = SegHead::new(backbone.channels()[0], backbone.strides()[0], cfg.num_classes, 32, seed ^ 0x5E6);
        Self { backbone, det_head, seg_head, resolution }
    }

    /// One joint training step. Returns `(det_loss, seg_loss)`.
    pub fn train_step(
        &mut self,
        images: &Tensor,
        objects: &[Vec<BoxAnnotation>],
        masks: &[Vec<Tensor>],
    ) -> (f64, f64) {
        let pyramid = self.backbone.forward_train(images);
        let outputs = self.det_head.forward(&pyramid, CacheMode::Full);
        let shapes: Vec<Shape> = outputs.iter().map(|o| o.cls.shape()).collect();
        let targets = assign_targets(objects, &shapes, self.det_head.strides(), self.det_head.cfg().num_classes);
        let (det_loss, _, _, det_grads) = detection_loss(&outputs, &targets);
        let mut dpyr = self.det_head.backward(det_grads);

        let seg_logits = self.seg_head.forward(&pyramid[0], CacheMode::Full);
        let raster = rasterize_targets(masks, objects, self.resolution);
        let (seg_loss, dseg) = pixel_cross_entropy(&seg_logits, &raster);
        let dp0 = self.seg_head.backward(&dseg);
        dpyr[0].add_assign(&dp0);

        self.backbone.backward(dpyr);
        (det_loss, seg_loss)
    }

    /// Inference: per-image detections and their instance masks.
    pub fn detect_with_masks(&mut self, images: &Tensor) -> (Vec<Vec<Detection>>, Vec<Vec<Tensor>>) {
        let pyramid = self.backbone.forward_eval(images);
        let outputs = self.det_head.forward(&pyramid, CacheMode::None);
        let dets = decode_detections(&outputs, self.det_head.strides(), self.det_head.cfg());
        let seg_logits = self.seg_head.forward(&pyramid[0], CacheMode::None);
        let masks = dets
            .iter()
            .enumerate()
            .map(|(img, ds)| ds.iter().map(|d| instance_mask(&seg_logits, img, d)).collect())
            .collect();
        (dets, masks)
    }
}

impl Module for MaskDetector {
    fn visit_layers(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        self.backbone.visit_layers(f);
        self.det_head.visit_layers(f);
        self.seg_head.visit_layers(f);
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
    use revbifpn_data::{SynthDet, SynthDetConfig};

    #[test]
    fn mask_iou_basics() {
        let mut a = Tensor::zeros(Shape::new(1, 1, 4, 4));
        let mut b = Tensor::zeros(Shape::new(1, 1, 4, 4));
        for i in 0..8 {
            a.data_mut()[i] = 1.0;
        }
        for i in 4..12 {
            b.data_mut()[i] = 1.0;
        }
        assert!((mask_iou(&a, &b) - 4.0 / 12.0).abs() < 1e-6);
        assert_eq!(mask_iou(&a, &a), 1.0);
    }

    #[test]
    fn pixel_ce_gradient_matches_finite_diff() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut logits = Tensor::randn(Shape::new(1, 3, 2, 2), 1.0, &mut rng);
        let targets = vec![vec![0u8, 1, 2, 1]];
        let (_, d) = pixel_cross_entropy(&logits, &targets);
        let eps = 1e-3f32;
        for i in 0..logits.shape().numel() {
            let orig = logits.data()[i];
            logits.data_mut()[i] = orig + eps;
            let (lp, _) = pixel_cross_entropy(&logits, &targets);
            logits.data_mut()[i] = orig - eps;
            let (lm, _) = pixel_cross_entropy(&logits, &targets);
            logits.data_mut()[i] = orig;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!((num - d.data()[i]).abs() < 1e-3, "coord {i}");
        }
    }

    #[test]
    fn rasterize_marks_classes() {
        let ds = SynthDet::new(SynthDetConfig::new(16), 0);
        let s = ds.sample(0);
        let raster = rasterize_targets(std::slice::from_ref(&s.masks), std::slice::from_ref(&s.objects), 16);
        let fg = raster[0].iter().filter(|&&v| v > 0).count();
        assert!(fg > 0);
    }

    #[test]
    fn instance_mask_respects_box() {
        let mut logits = Tensor::zeros(Shape::new(1, 3, 8, 8));
        // Class 1 (channel 2) dominant everywhere.
        for i in 0..64 {
            logits.data_mut()[2 * 64 + i] = 5.0;
        }
        let det = Detection { bbox: [2.0, 2.0, 5.0, 5.0], class: 1, score: 0.9 };
        let m = instance_mask(&logits, 0, &det);
        assert!(m.at(0, 0, 3, 3) > 0.0);
        assert_eq!(m.at(0, 0, 0, 0), 0.0);
        assert_eq!(m.at(0, 0, 7, 7), 0.0);
    }

    #[test]
    fn mask_detector_trains_and_infers() {
        let backbone = RevBackbone::new(RevBiFPN::new(RevBiFPNConfig::tiny(4)), true);
        let mut md = MaskDetector::new(Box::new(backbone), DetHeadConfig::new(3), 32, 0);
        let ds = SynthDet::new(SynthDetConfig::new(32), 1);
        let s0 = ds.sample(0);
        let s1 = ds.sample(1);
        let images = Tensor::concat_channels(&[&s0.image]); // single image batch
        md.zero_grads();
        let (dl, sl) = md.train_step(&images, std::slice::from_ref(&s0.objects), std::slice::from_ref(&s0.masks));
        assert!(dl.is_finite() && sl.is_finite() && sl > 0.0);
        md.clear_cache();
        let (dets, masks) = md.detect_with_masks(&s1.image);
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].len(), masks[0].len());
    }
}
