//! **Table 10 / Figure 6 (COCO instance segmentation)**: like Table 9 but
//! with the mask branch (the Mask R-CNN substitution, DESIGN.md): a
//! per-pixel class head on the finest pyramid level, instance masks read
//! out per detection, and COCO-style mask AP (mask IoU in place of box
//! IoU). Paper-scale rows are carried from Table 10 for reference.

use revbifpn::{RevBiFPN, RevBiFPNConfig};
use revbifpn_baselines::published::TABLE10;
use revbifpn_baselines::{HrNet, HrNetConfig};
use revbifpn_bench::{arg_usize, fmt_m, quick_mode, Table};
use revbifpn_data::{SynthDet, SynthDetConfig};
use revbifpn_detect::{
    evaluate_box_ap, evaluate_mask_ap, AreaRanges, Backbone, DetHeadConfig, HrBackbone, MaskDetector,
    RevBackbone,
};
use revbifpn_nn::{meter, Module};
use revbifpn_train::{LrSchedule, Sgd};

struct Row {
    name: String,
    params: u64,
    peak_bytes: usize,
    mask_ap: f64,
    mask_ap_large: f64,
    bbox_ap: f64,
    bbox_ap50: f64,
}

fn train_and_eval(backbone: Box<dyn Backbone>, steps: usize, res: usize) -> Row {
    let data = SynthDet::new(SynthDetConfig::new(res), 23);
    let mut md = MaskDetector::new(backbone, DetHeadConfig::new(data.cfg().num_classes), res, 0);
    let mut params = 0u64;
    md.visit_params(&mut |p| params += p.numel() as u64);
    let mut opt = Sgd::new(0.9, 1e-4);
    let schedule = LrSchedule::paper_like(0.02, steps);
    let batch = 8;
    let mut peak = 0usize;
    for step in 0..steps {
        let mut images = Vec::new();
        let mut objects = Vec::new();
        let mut masks = Vec::new();
        for b in 0..batch {
            let s = data.sample((step * batch + b) as u64);
            images.push(s.image);
            objects.push(s.objects);
            masks.push(s.masks);
        }
        let refs: Vec<&revbifpn_tensor::Tensor> = images.iter().collect();
        let batch_images = {
            // Stack along the batch dimension.
            let s0 = refs[0].shape();
            let mut t = revbifpn_tensor::Tensor::zeros(s0.with_n(refs.len()));
            let chw = s0.chw();
            for (i, im) in refs.iter().enumerate() {
                t.data_mut()[i * chw..(i + 1) * chw].copy_from_slice(im.data());
            }
            t
        };
        meter::reset();
        md.zero_grads();
        let _ = md.train_step(&batch_images, &objects, &masks);
        peak = peak.max(meter::peak());
        let _ = revbifpn_train::clip_grad_norm(|f| md.visit_params(f), 5.0);
        opt.step(schedule.lr(step), |f| md.visit_params(f));
    }
    md.clear_cache();

    let eval_n = if quick_mode() { 16 } else { 48 };
    let (mut dets, mut det_masks, mut gts, mut gt_masks) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..eval_n {
        let s = data.sample(2_000_000 + i as u64);
        let (d, m) = md.detect_with_masks(&s.image);
        dets.push(d.into_iter().next().expect("one image"));
        det_masks.push(m.into_iter().next().expect("one image"));
        gts.push(s.objects);
        gt_masks.push(s.masks);
    }
    let ranges = AreaRanges::scaled_to(res);
    let mask_ap = evaluate_mask_ap(&dets, &det_masks, &gts, &gt_masks, data.cfg().num_classes, ranges);
    let bbox_ap = evaluate_box_ap(&dets, &gts, data.cfg().num_classes, ranges);
    Row {
        name: String::new(),
        params,
        peak_bytes: peak,
        mask_ap: mask_ap.ap * 100.0,
        mask_ap_large: mask_ap.ap_large * 100.0,
        bbox_ap: bbox_ap.ap * 100.0,
        bbox_ap50: bbox_ap.ap50 * 100.0,
    }
}

fn main() {
    println!("# Table 10 / Figure 6 — instance segmentation\n");
    println!("## (a) Paper-scale reference rows (Mask R-CNN, from the paper)\n");
    let mut t = Table::new(vec!["backbone", "params", "MACs", "mem", "LS", "mask AP", "bbox AP"]);
    for r in TABLE10.iter().filter(|r| r.schedule == "1x") {
        t.row(vec![
            r.backbone.to_string(),
            format!("{:.1}M", r.params_m),
            format!("{:.0}B", r.macs_b),
            format!("{:.2}GB", r.mem_gb),
            r.schedule.to_string(),
            format!("{:.1}", r.mask_ap),
            format!("{:.1}", r.bbox_ap),
        ]);
    }
    t.print();

    let res = 48;
    let steps = arg_usize("--steps", if quick_mode() { 30 } else { 200 });
    println!("\n## (b) Measured on SynthDet ({res}px, {steps} steps, mask-head substitution)\n");
    let mut rows = [
        (
            "RevBiFPN-tiny (rev)",
            train_and_eval(
                Box::new(RevBackbone::new(RevBiFPN::new(RevBiFPNConfig::tiny(3).with_resolution(res)), true)),
                steps,
                res,
            ),
        ),
        (
            "HRNet-micro (conv)",
            train_and_eval(
                Box::new(HrBackbone::new(HrNet::new(HrNetConfig { resolution: res, ..HrNetConfig::micro() }))),
                steps,
                res,
            ),
        ),
    ];
    let mut t = Table::new(vec!["backbone", "params", "peak train bytes", "mask AP", "mask APl", "bbox AP", "bbox AP50"]);
    for (name, r) in rows.iter_mut() {
        r.name = name.to_string();
        t.row(vec![
            r.name.clone(),
            fmt_m(r.params),
            format!("{}", r.peak_bytes),
            format!("{:.1}", r.mask_ap),
            format!("{:.1}", r.mask_ap_large),
            format!("{:.1}", r.bbox_ap),
            format!("{:.1}", r.bbox_ap50),
        ]);
    }
    t.print();
    println!("\nShape check: comparable AP at a fraction of HRNet's peak training memory.");
}
