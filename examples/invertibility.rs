//! Full reversibility demo (paper Section 2, Appendix B and E):
//!
//! 1. run a RevBiFPN backbone forward to its feature pyramid,
//! 2. reconstruct the exact input image from the pyramid alone
//!    (Equations 9–16 applied stage by stage, then the inverse stem),
//! 3. use invertibility the flow-style way: edit coarse features and decode,
//! 4. show the RevSilo expansion property (growing an N-1 pyramid with an
//!    implicit zero stream is still invertible).
//!
//! Run with: `cargo run --release --example invertibility`

use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn::{RevBiFPN, RevBiFPNConfig};
use revbifpn_nn::layers::{MBConv, MBConvCfg};
use revbifpn_nn::{CacheMode, Layer, Module};
use revbifpn_rev::RevSilo;
use revbifpn_tensor::{Shape, Tensor};

fn main() {
    let mut rng = StdRng::seed_from_u64(0);

    // --- 1+2: whole-backbone inversion.
    let mut backbone = RevBiFPN::new(RevBiFPNConfig::tiny(10));
    // Perturb BatchNorm gains so the network is far from its identity init.
    backbone.visit_params(&mut |p| {
        if p.name == "bn.gamma" {
            p.value = Tensor::uniform(p.value.shape(), 0.6, 1.4, &mut rng);
        }
    });
    let x = Tensor::randn(Shape::new(1, 3, 32, 32), 1.0, &mut rng);
    let pyramid = backbone.forward(&x, CacheMode::None);
    println!("pyramid shapes: {:?}", pyramid.iter().map(|p| p.shape()).collect::<Vec<_>>());
    let reconstructed = backbone.invert(pyramid.clone()).expect("stem inverts");
    println!("input reconstruction max |err|: {:.3e} (fp32 noise only)", reconstructed.max_abs_diff(&x));

    // --- 3: flow-style editing — nudge the coarsest (most semantic) stream.
    let mut edited_pyr = pyramid;
    let coarse = edited_pyr.last_mut().unwrap();
    let noise = Tensor::randn(coarse.shape(), 0.1, &mut rng);
    coarse.add_assign(&noise);
    let edited = backbone.invert(edited_pyr).unwrap();
    println!(
        "after editing the coarse features, decoded image moved by max {:.3} (finite: {})",
        edited.max_abs_diff(&x),
        edited.is_finite()
    );

    // --- 4: a standalone expansion RevSilo (1 stream in, 3 streams out).
    let channels = [8usize, 16, 24];
    let mut rng_d = StdRng::seed_from_u64(1);
    let mut down = |j: usize, i: usize| -> Box<dyn Layer> {
        Box::new(MBConv::new(MBConvCfg::down(channels[j], channels[i], (i - j) as u32, 1.0).plain(), &mut rng_d))
    };
    let mut rng_u = StdRng::seed_from_u64(2);
    let mut up = |j: usize, i: usize| -> Box<dyn Layer> {
        Box::new(MBConv::new(MBConvCfg::up(channels[j], channels[i], (j - i) as u32, 1.0).plain(), &mut rng_u))
    };
    let mut silo = RevSilo::new(1, 3, &mut down, &mut up);
    let x0 = Tensor::randn(Shape::new(1, 8, 16, 16), 1.0, &mut rng);
    let ys = silo.forward(std::slice::from_ref(&x0), CacheMode::None);
    println!(
        "expansion silo grew 1 stream into {:?}",
        ys.iter().map(|y| y.shape()).collect::<Vec<_>>()
    );
    let back = silo.inverse(&ys);
    println!("expansion inverse max |err|: {:.3e}", back[0].max_abs_diff(&x0));
}
