//! Appendix E (future work) realized: the **RevSilo as a reversible
//! multi-modal fusion module**. Two "sensors" — a high-resolution camera
//! stream and a low-resolution wide-context stream (think radar / thermal)
//! — are fused bidirectionally with O(1) activation memory, and both sensor
//! inputs remain exactly recoverable from the fused representation.
//!
//! Run with: `cargo run --release --example multimodal_fusion`

use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn_nn::layers::{MBConv, MBConvCfg};
use revbifpn_nn::{meter, CacheMode, Layer, Module};
use revbifpn_rev::{RevSilo, ReversibleSequence, TrainMode};
use revbifpn_tensor::{Shape, Tensor};

fn make_fusion_silo(channels: &[usize; 2], seed: u64) -> RevSilo {
    let c = *channels;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut down = |j: usize, i: usize| -> Box<dyn Layer> {
        Box::new(MBConv::new(MBConvCfg::down(c[j], c[i], (i - j) as u32, 2.0).plain().with_zero_init(), &mut rng))
    };
    let mut rng2 = StdRng::seed_from_u64(seed ^ 99);
    let mut up = |j: usize, i: usize| -> Box<dyn Layer> {
        Box::new(MBConv::new(MBConvCfg::up(c[j], c[i], (j - i) as u32, 2.0).plain().with_zero_init(), &mut rng2))
    };
    RevSilo::new(2, 2, &mut down, &mut up)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(0);
    let channels = [16usize, 32];

    // Sensor A: 32x32 "camera"; sensor B: 16x16 "wide-context" modality.
    let camera = Tensor::randn(Shape::new(1, channels[0], 32, 32), 1.0, &mut rng);
    let context = Tensor::randn(Shape::new(1, channels[1], 16, 16), 1.0, &mut rng);

    // Stack three fusion silos: repeated bidirectional exchange.
    let mut fusion = ReversibleSequence::new();
    for k in 0..3 {
        fusion.add(Box::new(make_fusion_silo(&channels, 10 + k)));
    }
    // Perturb BN gains so the fusion is non-trivial.
    let mut prng = StdRng::seed_from_u64(7);
    fusion.visit_params(&mut |p| {
        if p.name == "bn.gamma" {
            p.value = Tensor::uniform(p.value.shape(), 0.7, 1.3, &mut prng);
        }
    });

    // Reversible training-style forward: only O(c) stats cached.
    meter::reset();
    let fused = fusion.forward(vec![camera.clone(), context.clone()], CacheMode::Stats);
    println!(
        "fused representations: {:?}, cached bytes during forward: {} (inputs are {} bytes)",
        fused.iter().map(|f| f.shape()).collect::<Vec<_>>(),
        meter::current(),
        camera.bytes() + context.bytes(),
    );

    // Backward without ever having stored the intermediate fusion states.
    let dys: Vec<Tensor> = fused.iter().map(|f| Tensor::randn(f.shape(), 0.1, &mut rng)).collect();
    fusion.visit_params(&mut |p| p.zero_grad());
    let (recovered, _grads) = fusion.backward(fused, dys, TrainMode::Reversible);
    println!(
        "sensor reconstruction during backward: camera err {:.2e}, context err {:.2e}",
        recovered[0].max_abs_diff(&camera),
        recovered[1].max_abs_diff(&context)
    );

    // Standalone inversion (e.g. to audit what each sensor contributed).
    let mut fusion_eval = fusion;
    fusion_eval.clear_cache();
    let fused_eval = fusion_eval.forward(vec![camera.clone(), context.clone()], CacheMode::None);
    let back = fusion_eval.inverse(fused_eval);
    println!(
        "eval-mode inversion: camera err {:.2e}, context err {:.2e}",
        back[0].max_abs_diff(&camera),
        back[1].max_abs_diff(&context)
    );
    println!("\nThe RevSilo fuses modalities bidirectionally, trains in O(nchw) memory,");
    println!("and never destroys sensor information — the Appendix E proposal, working.");
}
