//! Property-based tests of the full RevBiFPN backbone: invertibility,
//! reversible-gradient equivalence, scaling monotonicity, and memory-model
//! consistency over randomized configurations.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn::{RevBiFPN, RevBiFPNConfig, RevBiFPNClassifier, RunMode};
use revbifpn_nn::{meter, Accounting, CacheMode, Module};
use revbifpn_tensor::{Shape, Tensor};

fn random_tiny_config(seed: u64, streams: usize, depth: usize, blocks: usize) -> RevBiFPNConfig {
    let mut cfg = RevBiFPNConfig::tiny(8);
    cfg.channels = (0..streams).map(|i| 8 * (i + 2)).collect();
    cfg.neck_channels = cfg.channels.clone();
    cfg.expansion = vec![1.0; streams];
    cfg.depth = depth;
    cfg.blocks_per_stage = blocks;
    cfg.seed = seed;
    cfg
}

fn randomize_bn(b: &mut RevBiFPN, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    b.visit_params(&mut |p| {
        if p.name == "bn.gamma" {
            p.value = Tensor::uniform(p.value.shape(), 0.6, 1.4, &mut rng);
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The whole backbone inverts back to the input image for randomized
    /// stream counts, depths and parameters.
    #[test]
    fn backbone_inverts_to_image(seed in any::<u64>(), streams in 2usize..=3, depth in 0usize..=2) {
        let cfg = random_tiny_config(seed, streams, depth, 1);
        let mut b = RevBiFPN::new(cfg);
        randomize_bn(&mut b, seed ^ 7);
        let mut rng = StdRng::seed_from_u64(seed ^ 8);
        let x = Tensor::randn(Shape::new(1, 3, 32, 32), 1.0, &mut rng);
        let pyr = b.forward(&x, CacheMode::None);
        let back = b.invert(pyr).expect("SpaceToDepth stem inverts");
        prop_assert!(back.max_abs_diff(&x) < 0.1, "reconstruction error {}", back.max_abs_diff(&x));
    }

    /// Reversible and conventional training produce the same parameter
    /// gradients for randomized configurations.
    #[test]
    fn gradients_equivalent(seed in any::<u64>(), blocks in 1usize..=2) {
        let cfg = random_tiny_config(seed, 2, 1, blocks);
        let mut b1 = RevBiFPN::new(cfg.clone());
        randomize_bn(&mut b1, seed ^ 1);
        let mut b2 = RevBiFPN::new(cfg);
        randomize_bn(&mut b2, seed ^ 1);

        let mut rng = StdRng::seed_from_u64(seed ^ 2);
        let x = Tensor::randn(Shape::new(2, 3, 32, 32), 1.0, &mut rng);
        let dpyr: Vec<Tensor> = b1.pyramid_shapes(2).iter().map(|&s| Tensor::randn(s, 0.2, &mut rng)).collect();

        let _ = b1.forward(&x, CacheMode::Full);
        b1.visit_params(&mut |p| p.zero_grad());
        let _ = b1.backward_cached(dpyr.clone());

        let pyr = b2.forward(&x, CacheMode::Stats);
        b2.visit_params(&mut |p| p.zero_grad());
        let _ = b2.backward_rev(pyr, dpyr);

        let mut g1 = Vec::new();
        b1.visit_params(&mut |p| g1.push(p.grad.clone()));
        let mut worst = 0.0f32;
        let mut i = 0;
        b2.visit_params(&mut |p| {
            worst = worst.max(g1[i].max_abs_diff(&p.grad) / (1.0 + g1[i].abs_max()));
            i += 1;
        });
        prop_assert!(worst < 5e-3, "worst relative grad diff {worst}");
    }

    /// The analytic conventional-memory model equals the measured meter
    /// byte-for-byte for any configuration.
    #[test]
    fn memory_model_exact_for_conventional(seed in any::<u64>(), depth in 0usize..=2) {
        let cfg = random_tiny_config(seed, 3, depth, 1);
        let mut m = RevBiFPNClassifier::new(cfg);
        let mut rng = StdRng::seed_from_u64(seed ^ 3);
        let x = Tensor::randn(Shape::new(2, 3, 32, 32), 1.0, &mut rng);
        meter::reset();
        let _ = m.forward(&x, RunMode::TrainConventional);
        prop_assert_eq!(meter::current() as u64, m.activation_bytes(2, RunMode::TrainConventional, Accounting::Layout));
        m.clear_cache();
        prop_assert_eq!(meter::current(), 0);
    }

    /// Deeper configurations never use less conventional memory or fewer
    /// MACs, while reversible memory stays within a small constant.
    #[test]
    fn depth_monotonicity(seed in any::<u64>()) {
        let shallow = RevBiFPNClassifier::new(random_tiny_config(seed, 3, 0, 1));
        let deep = RevBiFPNClassifier::new(random_tiny_config(seed, 3, 3, 1));
        prop_assert!(deep.macs(1) > shallow.macs(1));
        for acct in [Accounting::Autograd, Accounting::Layout] {
            let cs = shallow.activation_bytes(4, RunMode::TrainConventional, acct);
            let cd = deep.activation_bytes(4, RunMode::TrainConventional, acct);
            prop_assert!(cd > cs, "{:?}", acct);
            let rs = shallow.activation_bytes(4, RunMode::TrainReversible, acct);
            let rd = deep.activation_bytes(4, RunMode::TrainReversible, acct);
            prop_assert!((rd as f64) < 1.25 * rs as f64, "{:?}: reversible grew {} -> {}", acct, rs, rd);
        }
    }
}
