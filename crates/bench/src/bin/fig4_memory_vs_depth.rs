//! **Figure 4 (memory vs depth)**: training RevBiFPN-S0-width with and
//! without reversible recomputation as the fusion depth `d` is scaled.
//! Reversible memory is ~constant in depth; conventional is linear.
//!
//! Two sections: (a) the paper-scale S0 configuration via the analytic
//! memory model (batch 64 like the paper) in per-op autograd bytes, as the
//! paper's PyTorch counts them, with this repo's own layout beside them, and
//! (b) a scaled-down variant actually executed with the byte-exact meter,
//! cross-validating the model.

use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn::stats::memory_breakdown;
use revbifpn::{RevBiFPNClassifier, RevBiFPNConfig, RunMode};
use revbifpn_bench::{arg_usize, fmt_gb, quick_mode, Table};
use revbifpn_nn::Accounting;
use revbifpn_tensor::{Shape, Tensor};

fn main() {
    let max_depth = arg_usize("--max-depth", if quick_mode() { 4 } else { 8 });

    println!("# Figure 4 — memory vs depth (with / without reversible recomputation)\n");
    println!("## (a) S0-width at 224, batch 64, analytic model\n");
    let mut t = Table::new(vec![
        "d (extra silos)",
        "reversible",
        "conventional",
        "ratio",
        "this repo's layout: reversible / conventional",
    ]);
    for d in 1..=max_depth {
        let cfg = RevBiFPNConfig::s0(1000).with_depth(d);
        let mut m = RevBiFPNClassifier::new(cfg);
        let mut bytes = |acct| {
            let rev = memory_breakdown(&mut m, 64, RunMode::TrainReversible, acct);
            let conv = memory_breakdown(&mut m, 64, RunMode::TrainConventional, acct);
            (rev.activations + rev.transient, conv.activations)
        };
        let (rev_b, conv_b) = bytes(Accounting::Autograd);
        let (rev_l, conv_l) = bytes(Accounting::Layout);
        t.row(vec![
            format!("{d}"),
            fmt_gb(rev_b),
            fmt_gb(conv_b),
            format!("{:.1}x", conv_b as f64 / rev_b as f64),
            format!("{} / {}", fmt_gb(rev_l), fmt_gb(conv_l)),
        ]);
    }
    t.print();

    println!("\n## (b) tiny variant, batch 8, measured with the byte-exact meter\n");
    let mut t = Table::new(vec!["d", "measured rev (bytes)", "measured conv (bytes)", "ratio"]);
    let mut rng = StdRng::seed_from_u64(0);
    let x = Tensor::randn(Shape::new(8, 3, 32, 32), 1.0, &mut rng);
    let depths: Vec<usize> = (1..=max_depth.min(6)).collect();
    let mut first_rev = 0usize;
    let mut last_rev = 0usize;
    for &d in &depths {
        let mut m = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(10).with_depth(d));
        let (rev, _) = m.measure_step(&x, RunMode::TrainReversible);
        let (conv, _) = m.measure_step(&x, RunMode::TrainConventional);
        if d == depths[0] {
            first_rev = rev;
        }
        last_rev = rev;
        t.row(vec![
            format!("{d}"),
            format!("{rev}"),
            format!("{conv}"),
            format!("{:.1}x", conv as f64 / rev as f64),
        ]);
    }
    t.print();
    println!(
        "\nReversible memory growth across the sweep: {:.1}% (paper: ~constant)",
        (last_rev as f64 / first_rev as f64 - 1.0) * 100.0
    );
}
