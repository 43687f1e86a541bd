//! Pins how many fork-joins one frozen S0 forward hands to the worker pool,
//! and how many GEMM B panels it multiplies in place and packs first.
//!
//! A dispatch costs about a microsecond when the pool is warm, but a change
//! that splits kernels or adds element-wise passes multiplies them; this
//! number makes that visible as a count instead of as a slowdown somebody
//! has to profile. The count depends on the model and on the budget being
//! at least two threads, not on the machine.
//!
//! The frozen forward hands the pool its independent units of work as the
//! tasks of one join each, and a task's kernels run inline on the thread
//! that took it. The 54 are:
//!
//! - 14 joins: one per silo half with two or more edges (the later four
//!   silos, 8), one per block stage (5) and one for the neck;
//! - 7 kernel fork-joins of the first silo, a (1, 2) silo whose two halves
//!   are one edge each: a lone task runs on the caller, its kernels split;
//! - 23 couplings into the two finest streams (56² x 48 and 28² x 64, large
//!   enough for an element-wise pass to split), which the sweep folds on
//!   the caller after each join;
//! - 10 of the head and tail: three downsampling blocks, one add and the
//!   classifier's 1280-wide tail.
//!
//! The stem is data movement and makes none.
//!
//! The blocked GEMM reads a B panel in place when B's rows are contiguous
//! and the panel is a full 16 columns, and packs it otherwise. Per forward
//! that is 302 packed panels, all ragged last panels: 247 of the body, neck
//! and head (14x14 and 7x7 maps are 196 and 49 columns, squeeze-excite
//! GEMMs one) and 55 of the classifier, whose `[1000, 1280]` weight is
//! packed once as A and whose one-column B is packed per row block (11 x 5
//! depth slices). A larger count means some shape fell off the in-place
//! path.
//!
//! One S0@96 batch-4 `TrainReversible` forward + backward at two threads is
//! pinned too, at `TRAIN_STEP_DISPATCHES`: the training step's task joins
//! (silo halves, block streams, the backward's silo rows) and the kernel
//! fork-joins of every op that runs outside a task. A kernel whose tile
//! count changes moves it. The counters are process-wide, so this file
//! holds exactly one test.

use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn::{RevBiFPNClassifier, RevBiFPNConfig, RunMode};
use revbifpn_nn::meter;
use revbifpn_tensor::{par, Shape, Tensor};

/// Fork-joins of one reversible S0@96 b4 training forward + backward at two
/// threads.
const TRAIN_STEP_DISPATCHES: u64 = 543;

/// Fork-joins of one `TrainReversible` forward + backward of `model` on `x`.
fn train_step_dispatches(model: &mut RevBiFPNClassifier, x: &Tensor) -> u64 {
    let before = meter::par_stats().dispatches;
    let logits = model.forward(x, RunMode::TrainReversible);
    model.backward(&Tensor::randn(logits.shape(), 1.0, &mut StdRng::seed_from_u64(2)));
    model.clear_cache();
    meter::par_stats().dispatches - before
}

#[test]
fn frozen_s0_forward_makes_a_pinned_number_of_dispatches() {
    par::set_max_threads(2);
    let frozen = RevBiFPNClassifier::new(RevBiFPNConfig::s0(1000)).freeze().expect("S0 freezes");
    let x = Tensor::randn(Shape::new(1, 3, 224, 224), 1.0, &mut StdRng::seed_from_u64(1));
    let first = frozen.forward(&x);
    let (before, gemm_before) = (meter::par_stats().dispatches, meter::gemm_stats());
    let second = frozen.forward(&x);
    let per_forward = meter::par_stats().dispatches - before;
    let gemm = meter::gemm_stats();
    let mut model = RevBiFPNClassifier::new(RevBiFPNConfig::s0(10).with_resolution(96));
    let x96 = Tensor::randn(Shape::new(4, 3, 96, 96), 1.0, &mut StdRng::seed_from_u64(3));
    let train_steps = [train_step_dispatches(&mut model, &x96), train_step_dispatches(&mut model, &x96)];
    par::set_max_threads(0);
    assert_eq!(first, second, "repeat forwards must agree bit for bit");
    assert_eq!(
        per_forward, 54,
        "fork-joins per frozen S0@224 batch-1 forward changed; if intended, update this pin \
         and say why in CHANGES.md"
    );
    assert_eq!(
        (
            gemm.b_panels_in_place - gemm_before.b_panels_in_place,
            gemm.b_panels_packed - gemm_before.b_panels_packed
        ),
        (6527, 302),
        "GEMM B panels (read in place, packed first) per forward changed; packing is for ragged \
         last panels and transposed operands only"
    );
    assert_eq!(
        train_steps,
        [TRAIN_STEP_DISPATCHES; 2],
        "fork-joins per reversible S0@96 batch-4 training forward + backward changed; if intended, \
         update this pin and say why in CHANGES.md"
    );
}
