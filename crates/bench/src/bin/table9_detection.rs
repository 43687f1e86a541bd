//! **Table 9 / Figure 5 (COCO detection)**: two sections.
//!
//! 1. *Analytic, paper scale*: backbone params / MACs / training memory at
//!    the detection input resolution for RevBiFPN-S0..S6 (reversible),
//!    HRNetV2-W18/32/48 and ResNet-50/101-FPN (conventional), printed next
//!    to the paper's Table 9. Absolute MACs differ (the paper includes the
//!    Faster R-CNN head at 800x1333; we report backbone+FPN at a square
//!    input) but the ordering and memory ratios are the comparison points.
//! 2. *Measured, reduced scale*: detectors actually trained on SynthDet
//!    with the FCOS-style head (the Faster R-CNN substitution, DESIGN.md),
//!    evaluated with full COCO-style AP, including measured peak training
//!    memory — demonstrating RevBiFPN's AP parity with HRNet at a fraction
//!    of the memory.

use revbifpn::stats::memory_breakdown;
use revbifpn::{RevBiFPN, RevBiFPNClassifier, RevBiFPNConfig, RunMode};
use revbifpn_baselines::published::TABLE9;
use revbifpn_baselines::{HrNet, HrNetConfig, ResNetFpn, ResNetFpnConfig};
use revbifpn_bench::{arg_usize, fmt_b, fmt_gb, fmt_m, quick_mode, Table};
use revbifpn_data::{SynthDet, SynthDetConfig};
use revbifpn_detect::{
    evaluate_box_ap, AreaRanges, Backbone, DetHeadConfig, Detector, HrBackbone, RevBackbone,
};
use revbifpn_nn::{meter, Accounting, Module};
use revbifpn_train::{LrSchedule, Sgd};

fn analytic_section() {
    println!("## (a) Paper-scale backbones (analytic; detection input 256)\n");
    let res = 256;
    // Our columns cover the backbone+pyramid only at a square 256 input;
    // the paper's include the Faster R-CNN head at 800x1333. Orderings and
    // memory ratios are the comparison points.
    let mut t = Table::new(vec![
        "backbone",
        "bb params (ours)",
        "bb MACs@256 (ours)",
        "bb mem/sample (ours)",
        "params (paper)",
        "MACs (paper)",
        "mem (paper)",
        "AP (paper, 1x)",
    ]);
    let max_s = if quick_mode() { 2 } else { 6 };
    for (s, paper) in TABLE9.iter().enumerate().take(max_s + 1) {
        let cfg = RevBiFPNConfig::scaled(s, 1000).with_resolution(res);
        let mut m = RevBiFPNClassifier::new(cfg.clone());
        let b = memory_breakdown(&mut m, 1, RunMode::TrainReversible, Accounting::Autograd);
        let mut bb = RevBiFPN::new(cfg);
        t.row(vec![
            format!("RevBiFPN-S{s} (rev)"),
            fmt_m(bb.param_count()),
            fmt_b(bb.macs(1)),
            fmt_gb(b.activations + b.transient),
            format!("{:.1}M", paper.params_m),
            format!("{:.0}B", paper.macs_b),
            format!("{:.2}GB", paper.mem_gb),
            format!("{:.1}", paper.ap),
        ]);
    }
    let hr_cfgs = if quick_mode() { vec![HrNetConfig::w18()] } else { vec![HrNetConfig::w18(), HrNetConfig::w32(), HrNetConfig::w48()] };
    for cfg in hr_cfgs {
        let mut net = HrNet::new(cfg);
        let paper = TABLE9
            .iter()
            .find(|r| r.backbone.ends_with(&net.cfg().name["HRNetV2-".len()..]) && r.schedule == "1x")
            .expect("published row");
        t.row(vec![
            format!("{} (conv)", net.cfg().name),
            fmt_m(net.param_count()),
            fmt_b(net.macs_at(1, res)),
            fmt_gb(net.activation_bytes_at(1, res)),
            format!("{:.1}M", paper.params_m),
            format!("{:.0}B", paper.macs_b),
            format!("{:.2}GB", paper.mem_gb),
            format!("{:.1}", paper.ap),
        ]);
    }
    let rn_cfgs = if quick_mode() { vec![ResNetFpnConfig::r50()] } else { vec![ResNetFpnConfig::r50(), ResNetFpnConfig::r101()] };
    for cfg in rn_cfgs {
        let name = cfg.name.clone();
        let mut net = ResNetFpn::new(cfg);
        let paper = TABLE9.iter().find(|r| r.backbone == name && r.schedule == "1x").expect("published row");
        t.row(vec![
            format!("{name} (conv)"),
            fmt_m(net.param_count()),
            fmt_b(net.macs_at(1, res)),
            fmt_gb(net.activation_bytes_at(1, res)),
            format!("{:.1}M", paper.params_m),
            format!("{:.0}B", paper.macs_b),
            format!("{:.2}GB", paper.mem_gb),
            format!("{:.1}", paper.ap),
        ]);
    }
    t.print();
}

struct TrainedRow {
    name: String,
    params: u64,
    peak_bytes: usize,
    ap: revbifpn_detect::ApResult,
}

fn train_and_eval(backbone: Box<dyn Backbone>, steps: usize, res: usize, seed: u64) -> TrainedRow {
    let data = SynthDet::new(SynthDetConfig::new(res), 11);
    let cfg = DetHeadConfig::new(data.cfg().num_classes);
    let mut det = Detector::new(backbone, cfg, seed);
    let params = det.param_count();
    let mut opt = Sgd::new(0.9, 1e-4);
    let schedule = LrSchedule::paper_like(0.02, steps);
    let batch = 8;
    let mut peak = 0usize;
    for step in 0..steps {
        let (images, objects) = data.batch((step * batch) as u64, batch);
        meter::reset();
        det.zero_grads();
        let _ = det.train_step(&images, &objects);
        peak = peak.max(meter::peak());
        let _ = revbifpn_train::clip_grad_norm(|f| det.visit_params(f), 5.0);
        opt.step(schedule.lr(step), |f| det.visit_params(f));
    }
    det.clear_cache();
    // Held-out evaluation (indices far above the training range).
    let eval_n = if quick_mode() { 24 } else { 64 };
    let mut dets = Vec::new();
    let mut gts = Vec::new();
    for i in 0..eval_n {
        let s = data.sample(1_000_000 + i as u64);
        let d = det.detect(&s.image);
        dets.push(d.into_iter().next().expect("one image"));
        gts.push(s.objects);
    }
    let ap = evaluate_box_ap(&dets, &gts, data.cfg().num_classes, AreaRanges::scaled_to(res));
    TrainedRow { name: det.backbone().name(), params, peak_bytes: peak, ap }
}

fn measured_section() {
    let res = 48;
    let steps = arg_usize("--steps", if quick_mode() { 40 } else { 250 });
    println!("\n## (b) Measured on SynthDet ({res}px, {steps} steps, FCOS-lite head)\n");
    let rows = vec![
        train_and_eval(
            Box::new(RevBackbone::new(RevBiFPN::new(RevBiFPNConfig::tiny(3).with_resolution(res)), true)),
            steps,
            res,
            0,
        ),
        train_and_eval(
            Box::new(RevBackbone::new(RevBiFPN::new(RevBiFPNConfig::tiny(3).with_resolution(res)), false)),
            steps,
            res,
            0,
        ),
        train_and_eval(
            Box::new(HrBackbone::new(HrNet::new(HrNetConfig { resolution: res, ..HrNetConfig::micro() }))),
            steps,
            res,
            0,
        ),
    ];
    let mut t = Table::new(vec!["backbone", "params", "peak train bytes", "AP", "AP50", "AP75", "APs", "APm", "APl"]);
    for r in &rows {
        t.row(vec![
            r.name.clone(),
            fmt_m(r.params),
            format!("{}", r.peak_bytes),
            format!("{:.1}", r.ap.ap * 100.0),
            format!("{:.1}", r.ap.ap50 * 100.0),
            format!("{:.1}", r.ap.ap75 * 100.0),
            format!("{:.1}", r.ap.ap_small * 100.0),
            format!("{:.1}", r.ap.ap_medium * 100.0),
            format!("{:.1}", r.ap.ap_large * 100.0),
        ]);
    }
    t.print();
    println!(
        "\nShape checks: the reversible and conventional RevBiFPN rows match in AP \
         (identical training, frozen-stat recomputation) while the reversible row's \
         peak memory is a fraction of both its conventional twin and HRNet's."
    );
}

fn main() {
    println!("# Table 9 / Figure 5 — object detection\n");
    analytic_section();
    measured_section();
}
