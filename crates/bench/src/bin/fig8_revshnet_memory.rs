//! **Figures 8 & 9 (RevBiFPN vs RevSHNet memory vs depth)**: the reversible
//! stacked-hourglass alternative must rematerialize an entire hourglass of
//! activations per block, so even with reversible recomputation it uses
//! ~40% more memory than RevBiFPN at 224 input (Figure 8) and ~2x at 288
//! (Figure 9) — and the gap grows with resolution.
//!
//! `--res 224` (default, Figure 8) or `--res 288` (Figure 9); pass
//! `--res 32` together with `REVBIFPN_QUICK=1` for a fast measured run.

use revbifpn::stats::memory_breakdown;
use revbifpn::{RevBiFPNClassifier, RevBiFPNConfig, RunMode};
use revbifpn_baselines::{RevShNet, RevShNetConfig};
use revbifpn_bench::{arg_usize, fmt_gb, quick_mode, Table};
use revbifpn_nn::Accounting;

fn main() {
    let res = arg_usize("--res", if quick_mode() { 96 } else { 224 });
    let max_depth = arg_usize("--max-depth", if quick_mode() { 4 } else { 8 });
    println!("# Figures 8/9 — RevBiFPN vs RevSHNet memory as depth scales (input {res})\n");

    let mut t = Table::new(vec![
        "d",
        "RevBiFPN rev",
        "RevSHNet rev",
        "SHNet/BiFPN",
        "RevBiFPN conv",
        "RevSHNet conv",
    ]);
    let mut last_ratio = 0.0;
    for d in 1..=max_depth {
        let cfg = RevBiFPNConfig::s0(1000).with_depth(d).with_resolution(res);
        let mut m = RevBiFPNClassifier::new(cfg);
        let rev = memory_breakdown(&mut m, 1, RunMode::TrainReversible, Accounting::Autograd);
        let conv = memory_breakdown(&mut m, 1, RunMode::TrainConventional, Accounting::Autograd);
        let bifpn_rev = rev.activations + rev.transient;
        let bifpn_conv = conv.activations;

        let sh = RevShNet::new(RevShNetConfig::s0_like().with_depth(d).with_resolution(res));
        let sh_rev = sh.activation_bytes_rev(1, res, Accounting::Autograd);
        let sh_conv = sh.activation_bytes_conv(1, res, Accounting::Autograd);
        last_ratio = sh_rev as f64 / bifpn_rev as f64;
        t.row(vec![
            format!("{d}"),
            fmt_gb(bifpn_rev),
            fmt_gb(sh_rev),
            format!("{last_ratio:.2}x"),
            fmt_gb(bifpn_conv),
            fmt_gb(sh_conv),
        ]);
    }
    t.print();
    println!(
        "\nRevSHNet/RevBiFPN reversible-memory ratio at d={max_depth}: {last_ratio:.2}x \
         (paper: ~1.4x at 224, ~2x at 288 — the hourglass transient dominates)"
    );
}
