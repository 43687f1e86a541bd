//! Steady-state allocation accounting for the conv kernels, observed through
//! `nn::meter`'s scratch-arena bridge.
//!
//! This file holds a single test on purpose: the scratch counters are
//! process-global, so it must not share its process slot with other tests
//! that exercise the kernels concurrently.

use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn_nn::layers::Conv2d;
use revbifpn_nn::meter;
use revbifpn_nn::{CacheMode, Layer};
use revbifpn_tensor::{par, ConvSpec, Shape, Tensor};

#[test]
fn conv_layer_makes_zero_heap_allocations_at_steady_state() {
    // Single-threaded so every scratch borrow lands in this thread's arena;
    // with workers, each pool thread additionally pays a one-time warm-up
    // growth the first time dynamic tile scheduling hands it work.
    par::set_max_threads(1);

    let mut rng = StdRng::seed_from_u64(9);
    let mut stem = Conv2d::new(3, 48, ConvSpec::kxk(3, 2), false, &mut rng);
    let mut point = Conv2d::pointwise(48, 96, true, &mut rng);
    let x = Tensor::randn(Shape::new(2, 3, 32, 32), 1.0, &mut rng);

    let step = |stem: &mut Conv2d, point: &mut Conv2d| {
        let y = stem.forward(&x, CacheMode::Full);
        let z = point.forward(&y, CacheMode::Full);
        let dz = point.backward(&Tensor::ones(z.shape()));
        let _ = stem.backward(&dz);
    };

    // Warm the thread-local arena with every shape the step borrows.
    for _ in 0..2 {
        step(&mut stem, &mut point);
    }

    meter::reset_scratch_stats();
    for _ in 0..5 {
        step(&mut stem, &mut point);
    }
    let report = meter::report();
    assert!(report.scratch.borrows > 0, "the kernels should be using the scratch arena");
    assert_eq!(
        report.scratch.heap_growths, 0,
        "steady-state conv2d forward/backward must not allocate: {:?}",
        report.scratch
    );

    // The batched pointwise GEMM: gathered columns and scattered outputs on
    // 3x3 maps (with the weight wider than a row block and deeper than a
    // depth slice) and on the squeeze-excite's 1x1 map, each from scratch.
    for (c_in, c_out, side) in [(80, 480, 3), (320, 1280, 3), (160, 40, 1)] {
        let mut conv = Conv2d::pointwise(c_in, c_out, false, &mut rng);
        let x = Tensor::randn(Shape::new(4, c_in, side, side), 1.0, &mut rng);
        let dy = Tensor::randn(Shape::new(4, c_out, side, side), 1.0, &mut rng);
        let mut step = || {
            conv.forward(&x, CacheMode::Full);
            conv.backward(&dy)
        };
        for _ in 0..2 {
            step();
        }
        meter::reset_scratch_stats();
        for _ in 0..5 {
            step();
        }
        let scratch = meter::report().scratch;
        assert!(scratch.borrows > 0, "{c_in}->{c_out} at {side}x{side} should borrow scratch");
        assert_eq!(
            scratch.heap_growths, 0,
            "steady-state pointwise {c_in}->{c_out} at 4x{side}x{side} must not allocate: {scratch:?}"
        );
    }

    par::set_max_threads(0);
}
