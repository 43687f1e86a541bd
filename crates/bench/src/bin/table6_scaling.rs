//! **Table 6 (compound scaling)**: the width multiplier / depth / resolution
//! schedule of RevBiFPN-S0..S6, the resulting channel plans, and the
//! activation-set growth that only reversibility makes trainable (the
//! paper's footnote: S6's activation set is ~24x S1's).

use revbifpn::RevBiFPNConfig;
use revbifpn_bench::Table;

fn main() {
    println!("# Table 6 — RevBiFPN compound scaling\n");
    const MW: [f32; 7] = [1.0, 1.33, 2.0, 2.67, 4.0, 5.33, 6.67];
    let mut t = Table::new(vec!["model", "m_w", "d", "h and w", "channels (ours)", "neck channels (ours)"]);
    for (s, mw) in MW.iter().enumerate() {
        let cfg = RevBiFPNConfig::scaled(s, 1000);
        t.row(vec![
            cfg.name.clone(),
            format!("{mw}"),
            format!("{}", cfg.depth),
            format!("{}", cfg.resolution),
            format!("{:?}", cfg.channels),
            format!("{:?}", cfg.neck_channels),
        ]);
    }
    t.print();

    // The footnote: activation-set ratio S6/S1 = (c*h*w*d) ratio.
    let act = |s: usize| {
        let c = RevBiFPNConfig::scaled(s, 1000);
        (c.channels[0] * c.resolution * c.resolution * c.depth) as f64
    };
    println!(
        "\nActivation-set ratio S6/S1 (c*h*w*d): {:.1}x (paper footnote: 23.7x)",
        act(6) / act(1)
    );
    println!("Without reversible recomputation this growth lands directly on accelerator memory;");
    println!("with it, only the output pyramid term (c*h*w) remains.");
}
