//! **Figure 1 (MACs vs measured training memory)**: RevBiFPN-S0..S6 with
//! reversible recomputation vs EfficientNet-B0..B7 with conventional
//! training, per-sample activation memory at the training resolution.
//!
//! The paper's headline: at matched MACs (S6 ~ B7), RevBiFPN uses ~19.8x
//! less training memory. Our memory axis is accounted activation bytes, not
//! CUDA allocator GBs, so absolute values differ from the paper's but the
//! curve shapes and the ratio do not. The memory column counts what per-op
//! autograd would save, as PyTorch does; the layout column counts what this
//! repo's layers store, which the byte-exact meter (`revbifpn_nn::meter`)
//! checks.

use revbifpn::stats::{memory_breakdown, summarize};
use revbifpn::{RevBiFPNClassifier, RevBiFPNConfig, RunMode};
use revbifpn_baselines::{EfficientNet, EfficientNetConfig};
use revbifpn_bench::{fmt_b, quick_mode, Table};
use revbifpn_nn::Accounting;

fn main() {
    println!("# Figure 1 — MACs vs per-sample training memory\n");
    let mut t = Table::new(vec!["series", "model", "MACs", "mem/sample (GB)", "regime", "this repo's layout (GB)"]);

    let max_s = if quick_mode() { 2 } else { 6 };
    let mut s6_rev_gb = 0.0;
    for s in 0..=max_s {
        let cfg = RevBiFPNConfig::scaled(s, 1000);
        let sum = summarize(&cfg);
        if s == max_s {
            s6_rev_gb = sum.mem_rev_gb;
        }
        t.row(vec![
            "RevBiFPN".to_string(),
            sum.name.clone(),
            fmt_b(sum.macs),
            format!("{:.3}", sum.mem_rev_gb),
            "reversible".into(),
            format!("{:.3}", sum.mem_rev_layout_gb),
        ]);
    }
    let max_b = if quick_mode() { 2 } else { 7 };
    let mut b7_gb = 0.0;
    for b in 0..=max_b {
        let net = EfficientNet::new(EfficientNetConfig::bx(b, 1000));
        let macs = net.macs(1);
        let gb = net.activation_bytes(1, Accounting::Autograd) as f64 / 1e9;
        let layout_gb = net.activation_bytes(1, Accounting::Layout) as f64 / 1e9;
        if b == max_b {
            b7_gb = gb;
        }
        t.row(vec![
            "EfficientNet".to_string(),
            net.cfg().name.clone(),
            fmt_b(macs),
            format!("{gb:.3}"),
            "conventional".into(),
            format!("{layout_gb:.3}"),
        ]);
    }
    t.print();

    println!("\nHeadline ratio (largest models, ours): {:.1}x (paper: 19.8x at S6 vs B7)", b7_gb / s6_rev_gb);

    // Cross-check the analytic reversible figure, in the layout the meter
    // counts, against the measured meter on a variant small enough to run.
    let mut m = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(10));
    let bd = memory_breakdown(&mut m, 1, RunMode::TrainReversible, Accounting::Layout);
    println!(
        "\nMeter cross-check (tiny variant): analytic activations+transient = {} bytes",
        bd.activations + bd.transient
    );
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
    let x = revbifpn_tensor::Tensor::randn(revbifpn_tensor::Shape::new(1, 3, 32, 32), 1.0, &mut rng);
    let (peak, _) = m.measure_step(&x, RunMode::TrainReversible);
    println!("measured peak = {peak} bytes (must be <= analytic and close)");
}
