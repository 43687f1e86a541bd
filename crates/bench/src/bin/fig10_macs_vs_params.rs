//! **Figure 10 (MACs vs parameters under depth scaling)**: scaling RevSHNet
//! produces a much higher compute-per-parameter profile than RevBiFPN —
//! every stacked hourglass re-traverses the whole resolution pyramid.

use revbifpn::{RevBiFPN, RevBiFPNConfig};
use revbifpn_baselines::{RevShNet, RevShNetConfig};
use revbifpn_bench::{arg_usize, fmt_b, fmt_m, quick_mode, Table};
use revbifpn_nn::Module;

fn main() {
    let max_depth = arg_usize("--max-depth", if quick_mode() { 4 } else { 8 });
    let res = arg_usize("--res", 224);
    println!("# Figure 10 — MACs vs params as depth is scaled (input {res})\n");

    let mut t = Table::new(vec![
        "d",
        "RevBiFPN params",
        "RevBiFPN MACs",
        "BiFPN MACs/Mparam",
        "RevSHNet params",
        "RevSHNet MACs",
        "SHNet MACs/Mparam",
    ]);
    let mut last = (0.0, 0.0);
    for d in 1..=max_depth {
        let mut bifpn = RevBiFPN::new(RevBiFPNConfig::s0(1000).with_depth(d).with_resolution(res));
        let bp = bifpn.param_count();
        let bm = bifpn.macs(1);
        let mut sh = RevShNet::new(RevShNetConfig::s0_like().with_depth(d).with_resolution(res));
        let sp = sh.param_count();
        let sm = sh.macs_at(1, res);
        let b_per = bm as f64 / (bp as f64 / 1e6);
        let s_per = sm as f64 / (sp as f64 / 1e6);
        last = (b_per, s_per);
        t.row(vec![
            format!("{d}"),
            fmt_m(bp),
            fmt_b(bm),
            format!("{:.2}B", b_per / 1e9),
            fmt_m(sp),
            fmt_b(sm),
            format!("{:.2}B", s_per / 1e9),
        ]);
    }
    t.print();
    println!(
        "\nPaper shape: at matched parameter counts RevSHNet costs substantially more MACs.\n\
         At the deepest sweep point, compute per million parameters: RevSHNet {:.2}B vs RevBiFPN {:.2}B ({:.2}x).",
        last.1 / 1e9,
        last.0 / 1e9,
        last.1 / last.0
    );
}
