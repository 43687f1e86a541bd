//! Fine-tune a RevBiFPN backbone for object detection on SynthDet with the
//! FCOS-lite dense head, then evaluate COCO-style AP — the paper's
//! Section 4.2 workflow at laptop scale, with reversible recomputation
//! keeping the training memory at the O(nchw) floor.
//!
//! Run with: `cargo run --release --example detect_synthetic`
//! (set `STEPS=400` for a longer run).

use revbifpn::{RevBiFPN, RevBiFPNConfig};
use revbifpn_data::{SynthDet, SynthDetConfig};
use revbifpn_detect::{evaluate_box_ap, AreaRanges, DetHeadConfig, Detector, RevBackbone};
use revbifpn_nn::{meter, Module};
use revbifpn_train::{clip_grad_norm, LrSchedule, Sgd};

fn main() {
    let steps: usize = std::env::var("STEPS").ok().and_then(|v| v.parse().ok()).unwrap_or(200);
    let res = 48;
    let data = SynthDet::new(SynthDetConfig::new(res), 11);
    let backbone = RevBackbone::new(RevBiFPN::new(RevBiFPNConfig::tiny(3).with_resolution(res)), true);
    let mut det = Detector::new(Box::new(backbone), DetHeadConfig::new(data.cfg().num_classes), 0);
    println!(
        "fine-tuning {} + FCOS-lite head ({} params) on SynthDet for {steps} steps",
        det.backbone().name(),
        det.param_count()
    );

    let mut opt = Sgd::new(0.9, 1e-4);
    let schedule = LrSchedule::paper_like(0.02, steps);
    let mut peak = 0usize;
    for step in 0..steps {
        let (images, objects) = data.batch((step * 8) as u64, 8);
        meter::reset();
        det.zero_grads();
        let (total, cls, reg) = det.train_step(&images, &objects);
        peak = peak.max(meter::peak());
        let _ = clip_grad_norm(|f| det.visit_params(f), 5.0);
        opt.step(schedule.lr(step), |f| det.visit_params(f));
        if step % 25 == 0 {
            println!("step {step:>4}: loss {total:.4} (cls {cls:.4}, reg {reg:.4})");
        }
    }
    det.clear_cache();
    println!("peak training activation bytes: {peak}");

    // Held-out COCO-style evaluation.
    let eval_n = 48;
    let mut dets = Vec::new();
    let mut gts = Vec::new();
    for i in 0..eval_n {
        let s = data.sample(1_000_000 + i as u64);
        dets.push(det.detect(&s.image).into_iter().next().unwrap());
        gts.push(s.objects);
    }
    let ap = evaluate_box_ap(&dets, &gts, data.cfg().num_classes, AreaRanges::scaled_to(res));
    println!("\nCOCO-style AP over {eval_n} held-out scenes:");
    println!("  AP       {:.1}", ap.ap * 100.0);
    println!("  AP50     {:.1}", ap.ap50 * 100.0);
    println!("  AP75     {:.1}", ap.ap75 * 100.0);
    println!("  APs/m/l  {:.1} / {:.1} / {:.1}", ap.ap_small * 100.0, ap.ap_medium * 100.0, ap.ap_large * 100.0);

    // Show a couple of detections vs ground truth.
    let s = data.sample(1_000_000);
    let d = det.detect(&s.image);
    println!("\nsample scene: {} ground-truth objects, {} detections", s.objects.len(), d[0].len());
    for o in &s.objects {
        println!("  gt  class {} bbox {:?}", o.class, o.bbox.map(|v| v.round()));
    }
    for dd in d[0].iter().take(5) {
        println!("  det class {} score {:.2} bbox {:?}", dd.class, dd.score, dd.bbox.map(|v| v.round()));
    }
}
