//! The pointwise convolution runs the samples of a call on a narrow map
//! (3², 6², the squeeze-excite's 1²) as the columns of one GEMM, the weight
//! packed once per call, and the samples of a wider map one GEMM each. The
//! contract is that every element keeps the bits of the per-sample
//! decomposition: a
//! per-sample `sgemm` for the forward, `sgemm_at_b` for the input gradient,
//! and `sgemm_a_bt` slabs merged by the pairwise sample tree for the weight
//! gradient (the bias gradient is that tree over per-channel plane sums).
//! This file checks it bit for bit over map sizes on both sides of the
//! micro-tile width, channel counts past the row block (`c_out > 96`) and
//! the depth slice (`c_in > 256`), signed zeros and subnormals, and one, two
//! and four threads. The thread budget is process-wide, so the file holds
//! one test.

use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn_tensor::par::{self, tree_reduce_with_slabs, GradSink};
use revbifpn_tensor::{conv2d, conv2d_backward_accumulate, sgemm, sgemm_a_bt, sgemm_at_b, ConvSpec, Shape, Tensor};

/// `randn`, with every seventh element replaced by a value the adds must
/// keep exactly: signed zeros, subnormals and the smallest normals.
fn awkward(shape: Shape, seed: u64) -> Tensor {
    const SPECIAL: [f32; 6] = [0.0, -0.0, 1e-40, -1e-40, f32::MIN_POSITIVE, -3e-39];
    let mut t = Tensor::randn(shape, 1.0, &mut StdRng::seed_from_u64(seed));
    for (i, v) in t.data_mut().iter_mut().enumerate().filter(|(i, _)| i % 7 == 3) {
        *v = SPECIAL[i % SPECIAL.len()];
    }
    t
}

/// `(y, dx, dw, db)` from the per-sample decomposition, the gradients
/// added into `dw0` / `db0` as the accumulating backward adds them.
fn per_sample(x: &Tensor, w: &Tensor, b: &Tensor, dy: &Tensor, dw0: &[f32], db0: &[f32]) -> [Vec<f32>; 4] {
    let xs = x.shape();
    let (c_in, c_out, hw) = (xs.c, w.shape().n, xs.hw());
    let (xd, wd, dyd) = (x.data(), w.data(), dy.data());
    let mut y = Tensor::zeros(Shape::new(xs.n, c_out, xs.h, xs.w));
    let mut dx = vec![0.0; xs.numel()];
    for s in 0..xs.n {
        let (xn, dyn_) = (&xd[s * c_in * hw..(s + 1) * c_in * hw], &dyd[s * c_out * hw..(s + 1) * c_out * hw]);
        sgemm(c_out, c_in, hw, 1.0, wd, xn, 0.0, &mut y.data_mut()[s * c_out * hw..(s + 1) * c_out * hw]);
        sgemm_at_b(c_in, c_out, hw, 1.0, wd, dyn_, 0.0, &mut dx[s * c_in * hw..(s + 1) * c_in * hw]);
    }
    y.add_channel_bias(b);
    let mut dw = dw0.to_vec();
    tree_reduce_with_slabs(xs.n, c_out, c_in, GradSink::Owned(&mut dw), |s, rows, slab| {
        let dyn_ = &dyd[s * c_out * hw + rows.start * hw..s * c_out * hw + rows.end * hw];
        sgemm_a_bt(rows.len(), hw, c_in, 1.0, dyn_, &xd[s * c_in * hw..(s + 1) * c_in * hw], 1.0, slab);
    });
    let mut db = db0.to_vec();
    tree_reduce_with_slabs(xs.n, 1, c_out, GradSink::Owned(&mut db), |s, _, slab| {
        for (c, v) in slab.iter_mut().enumerate() {
            let at = (s * c_out + c) * hw;
            *v = dyd[at..at + hw].iter().sum::<f32>();
        }
    });
    [y.into_vec(), dx, dw, db]
}

fn same_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
        panic!("{what}: element {i} is {:e}, the per-sample decomposition gives {:e}", got[i], want[i]);
    }
}

#[test]
fn batched_pointwise_keeps_the_bits_of_the_per_sample_gemms() {
    // (c_in, c_out, sides): the wide pairs run on the narrow maps only, to
    // keep the debug build quick.
    let cases: [(usize, usize, &[usize]); 7] = [
        (5, 7, &[1, 3, 6, 12, 24]),
        (24, 48, &[1, 3, 6, 12, 24]),
        (160, 40, &[1, 3, 6, 12]),
        (80, 480, &[1, 3, 6, 12]),
        (480, 80, &[1, 3, 6]),
        (320, 1280, &[1, 3]),
        (480, 1280, &[1, 3]),
    ];
    let spec = ConvSpec::pointwise();
    for threads in [1, 2, 4] {
        par::set_max_threads(threads);
        for (k, &(c_in, c_out, sides)) in cases.iter().enumerate() {
            for &side in sides {
                for n in [1, 3, 4] {
                    let seed = (k * 100 + side * 10 + n) as u64;
                    let x = awkward(Shape::new(n, c_in, side, side), seed);
                    let w = awkward(Shape::new(c_out, c_in, 1, 1), seed + 1);
                    let b = awkward(Shape::vector(c_out), seed + 2);
                    let dy = awkward(Shape::new(n, c_out, side, side), seed + 3);
                    let dw0 = awkward(w.shape(), seed + 4).into_vec();
                    let db0 = awkward(b.shape(), seed + 5).into_vec();
                    let [y, dx, dw, db] = per_sample(&x, &w, &b, &dy, &dw0, &db0);

                    let what = |t: &str| format!("{t} of {n}x{c_in}x{side}x{side} -> {c_out} at {threads} threads");
                    same_bits(conv2d(&x, &w, Some(&b), &spec).data(), &y, &what("forward"));
                    let (mut got_dw, mut got_db) = (dw0.clone(), db0.clone());
                    let sinks = (GradSink::Owned(&mut got_dw), Some(GradSink::Owned(&mut got_db)));
                    let got_dx = conv2d_backward_accumulate(&x, &w, &dy, &spec, true, sinks.0, sinks.1);
                    same_bits(got_dx.expect("dx was asked for").data(), &dx, &what("dx"));
                    same_bits(&got_dw, &dw, &what("dw"));
                    same_bits(&got_db, &db, &what("db"));
                }
            }
        }
    }
    par::set_max_threads(0);
}
