//! Thread-count determinism of the parallel kernel engine.
//!
//! The engine is designed so that the floating-point result of every kernel
//! is a function of the problem shape only, never of the thread count:
//!
//! - The GEMM tile grid (MC x NC macro-tiles) and the KC depth slices depend
//!   only on (m, k, n). Dynamic scheduling decides *which worker* runs a
//!   tile, not what the tile computes, and every accumulation order is fixed.
//! - Conv weight gradients are accumulated into per-sample slabs that are
//!   merged in a fixed pairwise tree, not into per-thread accumulators.
//!
//! Under that design the ISSUE's 1e-5 tolerance is met trivially: results
//! are **bitwise identical** across thread counts, and these tests assert
//! exact equality.
//!
//! What is NOT guaranteed to be bitwise stable:
//! - Across *builds or machines*: the GEMM micro-kernel dispatches to an
//!   AVX2+FMA path when the CPU has it and a scalar path otherwise. FMA
//!   contracts `a*b+c` into one rounding, so the two paths can differ by
//!   ~1 ulp per accumulation step.
//! - Across *code versions*: retuning the tile constants (MR/NR/KC/MC/NC)
//!   changes accumulation order and therefore rounding.
//!
//! Within one process on one machine, any `set_max_threads` value gives the
//! same bytes. See DESIGN.md ("Determinism") for the full story.

use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn_tensor::{
    avg_pool, avg_pool_backward, conv2d, conv2d_backward, global_avg_pool, global_avg_pool_backward, max_pool,
    max_pool_backward, par, resize, resize_backward, ConvSpec, ResizeMode, Shape, Tensor,
};

/// Runs `f` at 1 thread and at `threads` threads, restoring the default
/// budget afterwards, and returns both results. The budget is process-wide,
/// so the tests of this file take turns.
fn at_thread_counts<T>(threads: usize, mut f: impl FnMut() -> T) -> (T, T) {
    static BUDGET: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _turn = BUDGET.lock().unwrap_or_else(|e| e.into_inner());
    par::set_max_threads(1);
    let one = f();
    par::set_max_threads(threads);
    let many = f();
    par::set_max_threads(0);
    (one, many)
}

struct Case {
    name: &'static str,
    x: Shape,
    w: Shape,
    spec: ConvSpec,
}

fn cases() -> Vec<Case> {
    vec![
        // RevBiFPN-S0 stem: general im2col path, strided, batch 1 and 4.
        Case { name: "stem3x3s2_b1", x: Shape::new(1, 3, 32, 32), w: Shape::new(48, 3, 3, 3), spec: ConvSpec::kxk(3, 2) },
        Case { name: "stem3x3s2_b4", x: Shape::new(4, 3, 32, 32), w: Shape::new(48, 3, 3, 3), spec: ConvSpec::kxk(3, 2) },
        // RevSilo fusion: pointwise path.
        Case { name: "revsilo1x1_b1", x: Shape::new(1, 48, 28, 28), w: Shape::new(64, 48, 1, 1), spec: ConvSpec::pointwise() },
        Case { name: "revsilo1x1_b4", x: Shape::new(4, 48, 28, 28), w: Shape::new(64, 48, 1, 1), spec: ConvSpec::pointwise() },
        // Depthwise path.
        Case { name: "dw3x3_b2", x: Shape::new(2, 32, 20, 20), w: Shape::new(32, 1, 3, 3), spec: ConvSpec::depthwise(3, 1, 32) },
    ]
}

#[test]
fn conv2d_forward_is_bitwise_thread_count_invariant() {
    let mut rng = StdRng::seed_from_u64(11);
    for case in cases() {
        let x = Tensor::randn(case.x, 1.0, &mut rng);
        let w = Tensor::randn(case.w, 0.1, &mut rng);
        let bias = Tensor::randn(Shape::vector(case.w.n), 0.1, &mut rng);
        for threads in [2, 8, 32] {
            let (one, many) = at_thread_counts(threads, || conv2d(&x, &w, Some(&bias), &case.spec));
            // Bitwise, not approximate: Tensor equality compares raw f32s.
            assert_eq!(one, many, "{} forward differs at {} threads", case.name, threads);
        }
    }
}

#[test]
fn conv2d_backward_is_bitwise_thread_count_invariant() {
    let mut rng = StdRng::seed_from_u64(12);
    for case in cases() {
        let x = Tensor::randn(case.x, 1.0, &mut rng);
        let w = Tensor::randn(case.w, 0.1, &mut rng);
        let dy = Tensor::randn(case.spec.out_shape(case.x, case.w.n), 1.0, &mut rng);
        for threads in [2, 8, 32] {
            let (one, many) = at_thread_counts(threads, || conv2d_backward(&x, &w, &dy, &case.spec, true));
            assert_eq!(one.dw, many.dw, "{} dw differs at {} threads", case.name, threads);
            assert_eq!(one.db, many.db, "{} db differs at {} threads", case.name, threads);
            assert_eq!(one.dx, many.dx, "{} dx differs at {} threads", case.name, threads);
        }
    }
}

/// The ISSUE's stated acceptance bound (1e-5 agreement) as a separate test,
/// so the contract survives even if a future change legitimately downgrades
/// bitwise equality to close agreement.
#[test]
fn conv2d_matches_single_thread_within_1e5() {
    let mut rng = StdRng::seed_from_u64(13);
    let x = Tensor::randn(Shape::new(2, 16, 24, 24), 1.0, &mut rng);
    let w = Tensor::randn(Shape::new(24, 16, 3, 3), 0.1, &mut rng);
    let spec = ConvSpec::kxk(3, 1);
    let dy = Tensor::randn(spec.out_shape(x.shape(), 24), 1.0, &mut rng);

    let (y1, y8) = at_thread_counts(8, || conv2d(&x, &w, None, &spec));
    assert!(y1.max_abs_diff(&y8) <= 1e-5);

    let (g1, g8) = at_thread_counts(8, || conv2d_backward(&x, &w, &dy, &spec, true));
    assert!(g1.dw.max_abs_diff(&g8.dw) <= 1e-5);
    assert!(g1.dx.as_ref().unwrap().max_abs_diff(g8.dx.as_ref().unwrap()) <= 1e-5);
}

/// A tensor's raw bit patterns: `-0.0` and NaN payloads count.
fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Asserts that `f` gives the same value at 2 and 4 threads as at 1.
fn assert_invariant<T: PartialEq + std::fmt::Debug>(what: &str, mut f: impl FnMut() -> T) {
    for threads in [2, 4] {
        let (one, many) = at_thread_counts(threads, &mut f);
        assert!(one == many, "{what} differs at {threads} threads");
    }
}

/// Plane shapes for the plane-parallel kernels: 1x1 planes, odd `hw`, and
/// `n * c` below the thread count, beside ordinary ones.
fn plane_shapes() -> Vec<Shape> {
    vec![
        Shape::new(1, 3, 1, 1),
        Shape::new(1, 1, 13, 13),
        Shape::new(2, 5, 7, 9),
        Shape::new(3, 7, 6, 10),
        Shape::new(4, 16, 24, 24),
    ]
}

#[test]
fn pooling_is_bitwise_thread_count_invariant() {
    let mut rng = StdRng::seed_from_u64(14);
    for s in plane_shapes() {
        let x = Tensor::randn(s, 1.0, &mut rng);
        let dy = Tensor::randn(Shape::new(s.n, s.c, 1, 1), 1.0, &mut rng);
        assert_invariant(&format!("global_avg_pool {s}"), || bits(&global_avg_pool(&x)));
        assert_invariant(&format!("global_avg_pool_backward {s}"), || bits(&global_avg_pool_backward(&dy, s)));
        for k in [2, 3] {
            if s.h < k || s.w < k {
                continue;
            }
            let os = s.with_hw(s.h / k, s.w / k);
            let dy = Tensor::randn(os, 1.0, &mut rng);
            assert_invariant(&format!("max_pool {s} k{k}"), || {
                let (y, arg) = max_pool(&x, k);
                (bits(&y), arg)
            });
            let (_, arg) = max_pool(&x, k);
            assert_invariant(&format!("max_pool_backward {s} k{k}"), || bits(&max_pool_backward(&dy, &arg, s)));
            assert_invariant(&format!("avg_pool {s} k{k}"), || bits(&avg_pool(&x, k)));
            assert_invariant(&format!("avg_pool_backward {s} k{k}"), || bits(&avg_pool_backward(&dy, k, s)));
        }
    }
}

#[test]
fn resize_is_bitwise_thread_count_invariant() {
    let mut rng = StdRng::seed_from_u64(15);
    for s in plane_shapes() {
        let x = Tensor::randn(s, 1.0, &mut rng);
        let targets = [(2 * s.h, 2 * s.w), (s.h.div_ceil(2), s.w.div_ceil(2)), (s.h + 3, s.w + 1)];
        for (oh, ow) in targets {
            if (oh, ow) == (s.h, s.w) {
                continue;
            }
            let dy = Tensor::randn(s.with_hw(oh, ow), 1.0, &mut rng);
            for mode in [ResizeMode::Bilinear, ResizeMode::Nearest] {
                let what = format!("{mode:?} {s} -> {oh}x{ow}");
                assert_invariant(&format!("resize {what}"), || bits(&resize(&x, oh, ow, mode)));
                assert_invariant(&format!("resize_backward {what}"), || bits(&resize_backward(&dy, s, mode)));
            }
        }
    }
}

#[test]
fn elementwise_and_channel_ops_are_bitwise_thread_count_invariant() {
    let mut rng = StdRng::seed_from_u64(16);
    // The element-wise passes split from 2^15 elements on: below, at an odd
    // length just above (ragged chunks), and well above.
    let flat = [Shape::new(1, 1, 1, 1), Shape::new(1, 1, 1, 32_775), Shape::new(1, 1, 7, 14_287)];
    for s in flat.into_iter().chain(plane_shapes()) {
        let x = Tensor::randn(s, 1.0, &mut rng);
        let y = Tensor::randn(s, 1.0, &mut rng);
        assert_invariant(&format!("map {s}"), || bits(&x.map(|v| v * 1.5 - 0.25)));
        assert_invariant(&format!("map_inplace {s}"), || {
            let mut t = x.clone();
            t.map_inplace(|v| v.max(0.0) * 0.75);
            bits(&t)
        });
        assert_invariant(&format!("zip {s}"), || bits(&x.zip(&y, |a, b| a * b - a)));
        assert_invariant(&format!("axpy {s}"), || {
            let mut t = x.clone();
            t.axpy(-0.3, &y);
            bits(&t)
        });
        let per_c = Tensor::randn(Shape::vector(s.c), 1.0, &mut rng);
        assert_invariant(&format!("add_channel_bias {s}"), || {
            let mut t = x.clone();
            t.add_channel_bias(&per_c);
            bits(&t)
        });
        assert_invariant(&format!("mul_channel {s}"), || {
            let mut t = x.clone();
            t.mul_channel(&per_c);
            bits(&t)
        });
        assert_invariant(&format!("map_planes {s}"), || {
            let [a, b] = Tensor::map_planes([&x, &y], |p| move |[u, v]: [f32; 2]| [u * v + p as f32, u - v]);
            (bits(&a), bits(&b))
        });
        assert_invariant(&format!("sum_per_channel {s}"), || bits(&x.sum_per_channel()));
    }
}

/// Conv cases for the kernels that write planes, im2col rows or per-sample
/// slices: grouped general convs (`im2col` / `col2im`) at batch 1 (each
/// sample's kernels split) and batch 5 (samples split), and depthwise convs
/// on ragged planes.
fn plane_conv_cases() -> Vec<Case> {
    let grouped = |k, s| ConvSpec { groups: 2, ..ConvSpec::kxk(k, s) };
    vec![
        Case { name: "grouped3x3_b1", x: Shape::new(1, 8, 9, 11), w: Shape::new(12, 4, 3, 3), spec: grouped(3, 1) },
        Case { name: "grouped3x3s2_b5", x: Shape::new(5, 6, 7, 9), w: Shape::new(4, 3, 3, 3), spec: grouped(3, 2) },
        Case { name: "general1x1planes_b2", x: Shape::new(2, 3, 1, 1), w: Shape::new(5, 3, 3, 3), spec: ConvSpec::kxk(3, 1) },
        Case { name: "dw3x3_1x1planes", x: Shape::new(1, 3, 1, 1), w: Shape::new(3, 1, 3, 3), spec: ConvSpec::depthwise(3, 1, 3) },
        Case { name: "dw3x3_oddhw_b2", x: Shape::new(2, 5, 7, 9), w: Shape::new(5, 1, 3, 3), spec: ConvSpec::depthwise(3, 1, 5) },
        Case { name: "dw3x3s2_oddhw_b3", x: Shape::new(3, 7, 13, 13), w: Shape::new(7, 1, 3, 3), spec: ConvSpec::depthwise(3, 2, 7) },
        Case { name: "dw5x5_small_planes", x: Shape::new(1, 64, 6, 6), w: Shape::new(64, 1, 5, 5), spec: ConvSpec::depthwise(5, 1, 64) },
        Case { name: "dw3x3_large_b4", x: Shape::new(4, 24, 24, 24), w: Shape::new(24, 1, 3, 3), spec: ConvSpec::depthwise(3, 1, 24) },
    ]
}

#[test]
fn grouped_and_depthwise_convs_are_bitwise_thread_count_invariant() {
    let mut rng = StdRng::seed_from_u64(17);
    for case in plane_conv_cases() {
        let x = Tensor::randn(case.x, 1.0, &mut rng);
        let w = Tensor::randn(case.w, 0.1, &mut rng);
        let bias = Tensor::randn(Shape::vector(case.w.n), 0.1, &mut rng);
        let dy = Tensor::randn(case.spec.out_shape(case.x, case.w.n), 1.0, &mut rng);
        assert_invariant(&format!("{} forward", case.name), || bits(&conv2d(&x, &w, Some(&bias), &case.spec)));
        for need_dx in [true, false] {
            assert_invariant(&format!("{} backward (dx: {need_dx})", case.name), || {
                let g = conv2d_backward(&x, &w, &dy, &case.spec, need_dx);
                (bits(&g.dw), bits(&g.db), g.dx.as_ref().map(bits))
            });
        }
    }
}
