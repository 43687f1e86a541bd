//! **Extra experiment (paper Appendix A context)**: activation memory of the
//! three training regimes the paper discusses — conventional O(D), gradient
//! checkpointing O(sqrt(D)) (Chen et al. 2016), and reversible
//! recomputation O(1) — computed analytically over the RevBiFPN-S0 body as
//! depth is scaled, from the same per-stage cache model validated against
//! the runtime meter, in the paper's per-op autograd accounting.

use revbifpn::{RevBiFPN, RevBiFPNConfig};
use revbifpn_bench::{arg_usize, fmt_mb, quick_mode, Table};
use revbifpn_nn::{Accounting, CacheMode, ShapeWalk};
use revbifpn_tensor::Shape;

fn main() {
    let max_depth = arg_usize("--max-depth", if quick_mode() { 4 } else { 10 });
    let res = arg_usize("--res", 224);
    println!("# Extra — conventional vs sqrt-checkpointing vs reversible (S0 width, input {res}, batch 1)\n");

    let mut t = Table::new(vec![
        "d",
        "stages",
        "conventional O(D)",
        "checkpoint O(sqrt D)",
        "reversible O(1)",
        "ckpt/rev",
    ]);
    for d in 1..=max_depth {
        let b = RevBiFPN::new(RevBiFPNConfig::s0(1000).with_depth(d).with_resolution(res));
        let img = Shape::new(1, 3, res, res);
        let s0 = b.stem().out_shape(img);
        let body = b.body();
        let stages = body.len();
        let acct = Accounting::Autograd;
        let conv = body.cache_bytes(&[s0], CacheMode::Full, acct);
        let seg = (stages as f64).sqrt().round().max(1.0) as usize;
        let ckpt = body.checkpoint_bytes(&[s0], seg, acct);
        let pyramid: u64 = body.out_shapes(&[s0]).iter().map(|s| s.bytes() as u64).sum();
        let rev = body.cache_bytes(&[s0], CacheMode::Stats, acct) + pyramid + body.transient_bytes(&[s0], acct);
        t.row(vec![
            format!("{d}"),
            format!("{stages}"),
            fmt_mb(conv),
            fmt_mb(ckpt),
            fmt_mb(rev),
            format!("{:.1}x", ckpt as f64 / rev as f64),
        ]);
    }
    t.print();
    println!("\nReversible recomputation beats sqrt-checkpointing by a growing margin as depth");
    println!("scales, at the cost of re-running each stage once (roughly one extra forward).");
}
