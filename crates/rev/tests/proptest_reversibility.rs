//! Property-based tests of the paper's central invariants: RevSilo and
//! RevBlock invertibility (Equations 1–16) and the equivalence of
//! reversible and cached gradients — for randomized widths, stream counts,
//! batch sizes and parameter draws.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn_nn::layers::{MBConv, MBConvCfg};
use revbifpn_nn::{CacheMode, Layer, Module, ShapeWalk};
use revbifpn_rev::{RevBlock, RevSilo};
use revbifpn_tensor::{Shape, Tensor};

fn make_silo(channels: &[usize], n_in: usize, seed: u64) -> RevSilo {
    let n_out = channels.len();
    let c: Vec<usize> = channels.to_vec();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut down = |j: usize, i: usize| -> Box<dyn Layer> {
        Box::new(MBConv::new(MBConvCfg::down(c[j], c[i], (i - j) as u32, 1.0).plain(), &mut rng))
    };
    let c2: Vec<usize> = channels.to_vec();
    let mut rng2 = StdRng::seed_from_u64(seed ^ 0xABCD);
    let mut up = |j: usize, i: usize| -> Box<dyn Layer> {
        Box::new(MBConv::new(MBConvCfg::up(c2[j], c2[i], (j - i) as u32, 1.0).plain(), &mut rng2))
    };
    RevSilo::new(n_in, n_out, &mut down, &mut up)
}

fn randomize_bn_silo(s: &mut RevSilo, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    s.visit_params(&mut |p| {
        if p.name == "bn.gamma" {
            p.value = Tensor::uniform(p.value.shape(), 0.6, 1.4, &mut rng);
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// forward-then-inverse is the identity for random silo geometries.
    #[test]
    fn silo_inverse_identity(
        seed in any::<u64>(),
        n_out in 2usize..=4,
        n_in_off in 0usize..=2,
        batch in 1usize..=2,
        c_base in prop::sample::select(vec![4usize, 6, 8]),
    ) {
        let n_in = n_out.saturating_sub(n_in_off).max(1);
        let channels: Vec<usize> = (0..n_out).map(|i| c_base * (i + 1)).collect();
        let mut silo = make_silo(&channels, n_in, seed);
        randomize_bn_silo(&mut silo, seed ^ 1);
        let res = 16usize;
        let mut rng = StdRng::seed_from_u64(seed ^ 2);
        let xs: Vec<Tensor> = (0..n_in)
            .map(|i| Tensor::randn(Shape::new(batch, channels[i], res >> i, res >> i), 1.0, &mut rng))
            .collect();
        let ys = silo.forward(&xs, CacheMode::None);
        let back = silo.inverse(&ys);
        for (a, b) in back.iter().zip(&xs) {
            prop_assert!(a.max_abs_diff(b) < 2e-3, "reconstruction error {}", a.max_abs_diff(b));
        }
    }

    /// backward_rev reconstructs the exact training-time inputs and its
    /// gradients match the conventional cached backward.
    #[test]
    fn silo_reversible_gradients_match_cached(seed in any::<u64>(), n_out in 2usize..=3) {
        let channels: Vec<usize> = (0..n_out).map(|i| 6 * (i + 1)).collect();
        let mut s1 = make_silo(&channels, n_out, seed);
        randomize_bn_silo(&mut s1, seed ^ 1);
        let mut s2 = make_silo(&channels, n_out, seed);
        randomize_bn_silo(&mut s2, seed ^ 1);

        let mut rng = StdRng::seed_from_u64(seed ^ 3);
        let res = 8usize;
        let xs: Vec<Tensor> = (0..n_out)
            .map(|i| Tensor::randn(Shape::new(2, channels[i], res >> i, res >> i), 1.0, &mut rng))
            .collect();
        let shapes: Vec<Shape> = xs.iter().map(|x| x.shape()).collect();
        let dys: Vec<Tensor> = s1.out_shapes(&shapes).iter().map(|&s| Tensor::randn(s, 1.0, &mut rng)).collect();

        let _ = s1.forward(&xs, CacheMode::Full);
        s1.visit_params(&mut |p| p.zero_grad());
        let dx1 = s1.backward_cached(&dys);

        let ys = s2.forward(&xs, CacheMode::Stats);
        s2.visit_params(&mut |p| p.zero_grad());
        let (x_rec, dx2) = s2.backward_rev(ys, dys);

        for (a, b) in x_rec.iter().zip(&xs) {
            prop_assert!(a.max_abs_diff(b) < 2e-3);
        }
        for (a, b) in dx1.iter().zip(&dx2) {
            prop_assert!(a.max_abs_diff(b) < 2e-3, "grad diff {}", a.max_abs_diff(b));
        }
        let mut worst = 0.0f32;
        let mut g1 = Vec::new();
        s1.visit_params(&mut |p| g1.push(p.grad.clone()));
        let mut i = 0;
        s2.visit_params(&mut |p| {
            worst = worst.max(g1[i].max_abs_diff(&p.grad) / (1.0 + g1[i].abs_max()));
            i += 1;
        });
        prop_assert!(worst < 2e-3, "worst param grad diff {worst}");
    }

    /// RevBlock invertibility holds for random (even) widths and odd-split
    /// channel counts.
    #[test]
    fn revblock_inverse_identity(seed in any::<u64>(), c in prop::sample::select(vec![6usize, 8, 10, 12])) {
        let mut rng = StdRng::seed_from_u64(seed);
        let c1 = c / 2;
        let c2 = c - c1;
        let f = MBConv::new(MBConvCfg::same(c2, 3, 1.0).with_c_out(c1).plain(), &mut rng);
        let g = MBConv::new(MBConvCfg::same(c1, 3, 1.0).with_c_out(c2).plain(), &mut rng);
        let mut b = RevBlock::new(c, Box::new(f), Box::new(g));
        b.visit_params(&mut |p| {
            if p.name == "bn.gamma" {
                p.value = Tensor::uniform(p.value.shape(), 0.6, 1.4, &mut rng);
            }
        });
        let x = Tensor::randn(Shape::new(1, c, 6, 6), 1.0, &mut rng);
        let y = b.forward(&x, CacheMode::None);
        prop_assert!(b.inverse(&y).max_abs_diff(&x) < 2e-3);
    }

    /// Expansion silos reconstruct the virtual (zero) streams implicitly:
    /// inverse returns exactly the real inputs regardless of how many
    /// streams were grown.
    #[test]
    fn expansion_silo_inverse(seed in any::<u64>(), grow in 1usize..=3) {
        let n_in = 1usize;
        let n_out = n_in + grow;
        let channels: Vec<usize> = (0..n_out).map(|i| 4 << i).collect();
        let mut silo = make_silo(&channels, n_in, seed);
        randomize_bn_silo(&mut silo, seed ^ 9);
        let mut rng = StdRng::seed_from_u64(seed ^ 10);
        let res = 16usize;
        let xs = vec![Tensor::randn(Shape::new(1, channels[0], res, res), 1.0, &mut rng)];
        let ys = silo.forward(&xs, CacheMode::None);
        prop_assert_eq!(ys.len(), n_out);
        let back = silo.inverse(&ys);
        prop_assert_eq!(back.len(), n_in);
        prop_assert!(back[0].max_abs_diff(&xs[0]) < 2e-3);
    }
}
