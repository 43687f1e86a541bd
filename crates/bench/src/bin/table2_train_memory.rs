//! **Table 2 (training memory per sample)**: RevBiFPN-S6 (reversible) vs
//! EfficientNet-B7 (conventional) at the training resolutions and at
//! 224 / 384. Our values are accounted activation bytes from the same
//! models the other tables use, counted as per-op autograd saves them; the
//! paper's CUDA GBs are shown alongside, and the last column gives this
//! repo's own cache layout at the training resolution.

use revbifpn::stats::memory_breakdown;
use revbifpn::{RevBiFPNClassifier, RevBiFPNConfig, RunMode};
use revbifpn_baselines::published::TABLE2;
use revbifpn_baselines::{EfficientNet, EfficientNetConfig};
use revbifpn_bench::{quick_mode, Table};
use revbifpn_nn::Accounting;

fn rev_gb(s: usize, res: usize, acct: Accounting) -> f64 {
    let cfg = RevBiFPNConfig::scaled(s, 1000).with_resolution(res);
    let mut m = RevBiFPNClassifier::new(cfg);
    let b = memory_breakdown(&mut m, 1, RunMode::TrainReversible, acct);
    (b.activations + b.transient) as f64 / 1e9
}

fn main() {
    println!("# Table 2 — training memory (GB) per sample\n");
    let (s, b, s_name, b_name) = if quick_mode() {
        (2usize, 2usize, "RevBiFPN-S2", "EfficientNet-B2")
    } else {
        (6, 7, "RevBiFPN-S6", "EfficientNet-B7")
    };
    let s_train_res = RevBiFPNConfig::scaled(s, 1000).resolution;
    let eff = EfficientNet::new(EfficientNetConfig::bx(b, 1000));
    let b_train_res = eff.cfg().resolution;

    let mut t = Table::new(vec![
        "model",
        "train res (ours)",
        "@224 (ours)",
        "@384 (ours)",
        "train res (paper)",
        "@224 (paper)",
        "@384 (paper)",
        "train res (this repo's layout)",
    ]);
    let autograd = Accounting::Autograd;
    let rev_gb_at = |res| rev_gb(s, res, autograd);
    t.row(vec![
        s_name.to_string(),
        format!("{:.3} ({}px)", rev_gb_at(s_train_res), s_train_res),
        format!("{:.3}", rev_gb_at(224)),
        format!("{:.3}", rev_gb_at(384)),
        format!("{:.3}", TABLE2[0].train_res_gb),
        "-".into(),
        format!("{:.3}", TABLE2[0].at384_gb),
        format!("{:.3}", rev_gb(s, s_train_res, Accounting::Layout)),
    ]);
    let eff_gb = |res: usize, acct| eff.activation_bytes_at(1, res, acct) as f64 / 1e9;
    let gb_at = |res: usize| eff_gb(res, autograd);
    t.row(vec![
        b_name.to_string(),
        format!("{:.3} ({}px)", gb_at(b_train_res), b_train_res),
        format!("{:.3}", gb_at(224)),
        format!("{:.3}", gb_at(384)),
        format!("{:.3}", TABLE2[1].train_res_gb),
        TABLE2[1].at224_gb.map(|v| format!("{v:.3}")).unwrap_or_else(|| "-".into()),
        format!("{:.3}", TABLE2[1].at384_gb),
        format!("{:.3}", eff_gb(b_train_res, Accounting::Layout)),
    ]);
    t.print();

    let ratio_train = gb_at(b_train_res) / rev_gb_at(s_train_res);
    let ratio_384 = gb_at(384) / rev_gb_at(384);
    println!("\nmemory ratios ({b_name} / {s_name}):");
    println!("- at training resolutions: {ratio_train:.1}x (paper: {:.1}x)", TABLE2[1].train_res_gb / TABLE2[0].train_res_gb);
    println!("- at 384: {ratio_384:.1}x (paper: {:.1}x)", TABLE2[1].at384_gb / TABLE2[0].at384_gb);
}
