//! Cross-crate integration: SynthDet -> RevBiFPN backbone -> FCOS-lite head
//! -> COCO-style AP, in both training regimes, plus the mask branch.

use revbifpn::{RevBiFPN, RevBiFPNConfig};
use revbifpn_data::{SynthDet, SynthDetConfig};
use revbifpn_detect::{
    evaluate_box_ap, evaluate_mask_ap, AreaRanges, DetHeadConfig, Detector, MaskDetector, RevBackbone,
};
use revbifpn_nn::{meter, Module};
use revbifpn_train::{clip_grad_norm, LrSchedule, Sgd};

fn train_detector(reversible: bool, steps: usize) -> (Detector, SynthDet, usize) {
    let res = 32;
    let data = SynthDet::new(SynthDetConfig::new(res), 3);
    let backbone =
        RevBackbone::new(RevBiFPN::new(RevBiFPNConfig::tiny(3).with_resolution(res)), reversible);
    let mut det = Detector::new(Box::new(backbone), DetHeadConfig::new(3), 0);
    let mut opt = Sgd::new(0.9, 1e-4);
    let schedule = LrSchedule::paper_like(0.02, steps);
    let mut peak = 0;
    for step in 0..steps {
        let (images, objects) = data.batch((step * 8) as u64, 8);
        meter::reset();
        det.zero_grads();
        let (total, _, _) = det.train_step(&images, &objects);
        assert!(total.is_finite(), "loss blew up at step {step}");
        peak = peak.max(meter::peak());
        let _ = clip_grad_norm(|f| det.visit_params(f), 5.0);
        opt.step(schedule.lr(step), |f| det.visit_params(f));
    }
    det.clear_cache();
    (det, data, peak)
}

fn eval_ap(det: &mut Detector, data: &SynthDet, n: usize) -> f64 {
    let mut dets = Vec::new();
    let mut gts = Vec::new();
    for i in 0..n {
        let s = data.sample(500_000 + i as u64);
        dets.push(det.detect(&s.image).into_iter().next().unwrap());
        gts.push(s.objects);
    }
    evaluate_box_ap(&dets, &gts, 3, AreaRanges::scaled_to(32)).ap50
}

#[test]
fn detector_learns_from_synthdet() {
    let (mut det, data, _) = train_detector(true, 60);
    let ap50 = eval_ap(&mut det, &data, 24);
    assert!(ap50 > 0.02, "AP50 {ap50} — detector failed to learn anything");
}

#[test]
fn reversible_detection_uses_less_memory_same_quality() {
    let (mut det_rev, data, peak_rev) = train_detector(true, 30);
    let (mut det_conv, _, peak_conv) = train_detector(false, 30);
    assert!(
        (peak_rev as f64) < 0.6 * peak_conv as f64,
        "reversible {peak_rev} vs conventional {peak_conv}"
    );
    let ap_rev = eval_ap(&mut det_rev, &data, 16);
    let ap_conv = eval_ap(&mut det_conv, &data, 16);
    assert!(
        (ap_rev - ap_conv).abs() < 0.1,
        "AP drifted between regimes: rev {ap_rev} vs conv {ap_conv}"
    );
}

#[test]
fn mask_detector_end_to_end() {
    let res = 32;
    let data = SynthDet::new(SynthDetConfig::new(res), 9);
    let backbone = RevBackbone::new(RevBiFPN::new(RevBiFPNConfig::tiny(3).with_resolution(res)), true);
    let mut md = MaskDetector::new(Box::new(backbone), DetHeadConfig::new(3), res, 0);
    let mut opt = Sgd::new(0.9, 1e-4);
    for step in 0..40 {
        let mut images = Vec::new();
        let mut objects = Vec::new();
        let mut masks = Vec::new();
        for b in 0..6 {
            let s = data.sample((step * 6 + b) as u64);
            images.push(s.image);
            objects.push(s.objects);
            masks.push(s.masks);
        }
        let s0 = images[0].shape();
        let mut batch = revbifpn_tensor::Tensor::zeros(s0.with_n(images.len()));
        let chw = s0.chw();
        for (i, im) in images.iter().enumerate() {
            batch.data_mut()[i * chw..(i + 1) * chw].copy_from_slice(im.data());
        }
        md.zero_grads();
        let (dl, sl) = md.train_step(&batch, &objects, &masks);
        assert!(dl.is_finite() && sl.is_finite());
        let _ = clip_grad_norm(|f| md.visit_params(f), 5.0);
        opt.step(0.01, |f| md.visit_params(f));
    }
    md.clear_cache();
    // Evaluate mask AP machinery on a handful of held-out scenes.
    let (mut dets, mut det_masks, mut gts, mut gt_masks) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..12 {
        let s = data.sample(700_000 + i as u64);
        let (d, m) = md.detect_with_masks(&s.image);
        dets.push(d.into_iter().next().unwrap());
        det_masks.push(m.into_iter().next().unwrap());
        gts.push(s.objects);
        gt_masks.push(s.masks);
    }
    let r = evaluate_mask_ap(&dets, &det_masks, &gts, &gt_masks, 3, AreaRanges::scaled_to(res));
    assert!((0.0..=1.0).contains(&r.ap));
}
