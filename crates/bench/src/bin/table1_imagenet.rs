//! **Table 1 / Table 11 (ImageNet classification)**: parameters, MACs and
//! accuracy of RevBiFPN-S0..S6 next to the paper's numbers and the
//! EfficientNet/HRNet baselines.
//!
//! Absolute ImageNet accuracy is not reproducible without ImageNet (see
//! DESIGN.md); the accuracy column carries the paper's value for reference,
//! while params/MACs/memory come from *our* implementation and should track
//! the paper's within the architecture-detail tolerance discussed in
//! DESIGN.md. A trained-accuracy column at reduced scale is produced by
//! `fig14_train_equivalence` and `table3/4/5` (SynthScale).

use revbifpn::stats::summarize;
use revbifpn::RevBiFPNConfig;
use revbifpn_baselines::published::{EFFICIENTNET_IMAGENET, HRNET_IMAGENET, REVBIFPN_IMAGENET};
use revbifpn_baselines::{EfficientNet, EfficientNetConfig};
use revbifpn_bench::{fmt_b, fmt_gb, fmt_m, quick_mode, Table};
use revbifpn_nn::{Accounting, Module};

fn main() {
    println!("# Table 1 / Table 11 — ImageNet model comparison\n");
    println!("Our columns are computed from this repository's implementations;");
    println!("paper columns are carried from Chiley et al. (MLSys 2023).\n");

    let mut t = Table::new(vec![
        "model",
        "params (ours)",
        "params (paper)",
        "MACs (ours)",
        "MACs (paper)",
        "res",
        "mem/sample rev (ours)",
        "mem/sample conv (ours)",
        "top-1 (paper)",
    ]);
    let max_s = if quick_mode() { 2 } else { 6 };
    for (s, paper) in REVBIFPN_IMAGENET.iter().enumerate().take(max_s + 1) {
        let cfg = RevBiFPNConfig::scaled(s, 1000);
        let sum = summarize(&cfg);
        t.row(vec![
            sum.name.clone(),
            fmt_m(sum.params),
            format!("{:.2}M", paper.params_m),
            fmt_b(sum.macs),
            format!("{:.2}B", paper.macs_b),
            format!("{}", sum.resolution),
            format!("{:.3}GB", sum.mem_rev_gb),
            format!("{:.3}GB", sum.mem_conv_gb),
            format!("{:.1}%", paper.top1),
        ]);
    }
    // EfficientNet rows (ours built; big variants only when not quick).
    let max_b = if quick_mode() { 1 } else { 4 };
    for (b, paper) in EFFICIENTNET_IMAGENET.iter().enumerate().take(max_b + 1) {
        let mut net = EfficientNet::new(EfficientNetConfig::bx(b, 1000));
        let params = net.param_count();
        let macs = net.macs(1);
        let mem = net.activation_bytes(1, Accounting::Autograd);
        t.row(vec![
            net.cfg().name.clone(),
            fmt_m(params),
            format!("{:.2}M", paper.params_m),
            fmt_b(macs),
            format!("{:.2}B", paper.macs_b),
            format!("{}", net.cfg().resolution),
            "-".into(),
            fmt_gb(mem),
            format!("{:.1}%", paper.top1),
        ]);
    }
    for paper in HRNET_IMAGENET {
        t.row(vec![
            paper.model.to_string(),
            "-".into(),
            format!("{:.2}M", paper.params_m),
            "-".into(),
            format!("{:.2}B", paper.macs_b),
            format!("{}", paper.res),
            "-".into(),
            "-".into(),
            format!("{:.1}%", paper.top1),
        ]);
    }
    t.print();

    println!("\nShape checks (paper claims):");
    let s6 = summarize(&RevBiFPNConfig::scaled(if quick_mode() { 2 } else { 6 }, 1000));
    println!(
        "- RevBiFPN-{} conv/rev memory ratio: {:.1}x (reversibility pays more the larger the model)",
        if quick_mode() { "S2" } else { "S6" },
        s6.mem_conv_gb / s6.mem_rev_gb
    );
}
