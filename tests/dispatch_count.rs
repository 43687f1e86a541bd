//! Pins how many fork-joins one frozen S0 forward hands to the worker pool.
//!
//! A dispatch costs about a microsecond when the pool is warm, but a change
//! that splits kernels or adds element-wise passes multiplies them; this
//! number makes that visible as a count instead of as a slowdown somebody
//! has to profile. The count depends on the model and on the budget being
//! at least two threads, not on the machine. The counters are process-wide,
//! so this file holds exactly one test.

use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn::{RevBiFPNClassifier, RevBiFPNConfig};
use revbifpn_nn::meter;
use revbifpn_tensor::{par, Shape, Tensor};

#[test]
fn frozen_s0_forward_makes_a_pinned_number_of_dispatches() {
    par::set_max_threads(2);
    let frozen = RevBiFPNClassifier::new(RevBiFPNConfig::s0(1000)).freeze().expect("S0 freezes");
    let x = Tensor::randn(Shape::new(1, 3, 224, 224), 1.0, &mut StdRng::seed_from_u64(1));
    let first = frozen.forward(&x);
    let before = meter::par_stats().dispatches;
    let second = frozen.forward(&x);
    let per_forward = meter::par_stats().dispatches - before;
    par::set_max_threads(0);
    assert_eq!(first, second, "repeat forwards must agree bit for bit");
    assert_eq!(
        per_forward, 276,
        "fork-joins per frozen S0@224 batch-1 forward changed; if intended, update this pin \
         and say why in CHANGES.md"
    );
}
