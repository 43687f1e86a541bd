//! **Figure 12 + Appendix C.4 (memory vs input resolution)**: with or
//! without reversibility memory is quadratic in resolution, but the
//! reversible offset lets ~4x larger inputs fit in the same budget — the
//! paper's 2Kx2K -> 8Kx8K claim on a 16 GB device. Bytes are per-op
//! autograd's, as the paper's PyTorch counts them; one column gives this
//! repo's own layout.

use revbifpn::stats::memory_breakdown;
use revbifpn::{RevBiFPNClassifier, RevBiFPNConfig, RunMode};
use revbifpn_bench::{arg_usize, fmt_gb, quick_mode, Table};
use revbifpn_nn::Accounting;

fn breakdown_at(res: usize, batch: usize, mode: RunMode, acct: Accounting) -> u64 {
    let cfg = RevBiFPNConfig::s0(1000).with_resolution(res);
    let mut m = RevBiFPNClassifier::new(cfg);
    let b = memory_breakdown(&mut m, batch, mode, acct);
    b.activations + b.transient
}

fn main() {
    let batch = arg_usize("--batch", 16);
    println!("# Figure 12 — activation memory vs input resolution (S0 width, batch {batch})\n");
    let resolutions: &[usize] = if quick_mode() { &[96, 160, 224, 320] } else { &[96, 160, 224, 320, 448, 640, 896] };
    let mut t = Table::new(vec![
        "resolution",
        "reversible",
        "conventional",
        "ratio",
        "this repo's layout: reversible / conventional",
    ]);
    for &res in resolutions {
        let bytes = |acct| {
            let rev = breakdown_at(res, batch, RunMode::TrainReversible, acct);
            (rev, breakdown_at(res, batch, RunMode::TrainConventional, acct))
        };
        let (rev, conv) = bytes(Accounting::Autograd);
        let (rev_l, conv_l) = bytes(Accounting::Layout);
        t.row(vec![
            format!("{res}"),
            fmt_gb(rev),
            fmt_gb(conv),
            format!("{:.1}x", conv as f64 / rev as f64),
            format!("{} / {}", fmt_gb(rev_l), fmt_gb(conv_l)),
        ]);
    }
    t.print();

    // Appendix C.4: the largest square input fitting a 16 GB activation
    // budget, batch 1, with and without reversibility.
    println!("\n## Appendix C.4 — largest input on a 16 GB budget (batch 1)\n");
    let budget = 16u64 * 1_000_000_000;
    let mut t = Table::new(vec!["regime", "max resolution (multiple of 224)"]);
    let mut maxres = Vec::new();
    for (name, mode) in [("conventional", RunMode::TrainConventional), ("reversible", RunMode::TrainReversible)] {
        let mut best = 0usize;
        let mut res = 224;
        while res <= 8960 {
            if breakdown_at(res, 1, mode, Accounting::Autograd) <= budget {
                best = res;
            } else {
                break;
            }
            res += 224;
        }
        maxres.push(best);
        t.row(vec![name.to_string(), format!("{best}x{best}")]);
    }
    t.print();
    println!(
        "\nLinear max-resolution advantage of reversibility: {:.1}x (paper: ~4x, 2Kx2K -> 8Kx8K).",
        maxres[1] as f64 / maxres[0].max(1) as f64
    );
    println!("Our accounted bytes omit CUDA allocator overheads, so the conventional limit lands");
    println!("higher than the paper's in absolute terms; the advantage ratio is the comparison point.");
}
