//! Steady-state allocation accounting for the sharded training step.
//!
//! After warm-up, a sharded `ShardEngine::step` must run entirely out of
//! the primary's parameter tensors (which the replicas read through shared
//! handles), the replicas' own gradients (the merge moves them through
//! reused holders) and the warmed thread-local scratch arenas: the scratch
//! `heap_growths` counter must stay flat across later steps.
//!
//! This file holds a single test on purpose: the scratch counters are
//! process-global, so it must not share its process slot with other tests
//! that exercise the kernels concurrently.

use revbifpn::{RevBiFPNClassifier, RevBiFPNConfig, RunMode};
use revbifpn_data::{SynthScale, SynthScaleConfig};
use revbifpn_nn::meter;
use revbifpn_tensor::par;
use revbifpn_train::{ShardEngine, ShardStepFaults};

#[test]
fn sharded_step_makes_zero_scratch_heap_allocations_at_steady_state() {
    // Single-threaded so every scratch borrow lands in this thread's arena;
    // with workers, each pool thread additionally pays a one-time warm-up
    // growth the first time dynamic tile scheduling hands it work.
    par::set_max_threads(1);

    let data = SynthScale::new(SynthScaleConfig::new(32), 5);
    let mut model = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(data.num_classes()));
    let mut engine = ShardEngine::new(model.cfg(), 2, revbifpn_rev::DriftConfig::default());
    let (images, labels) = data.batch(0, 8);
    let targets = revbifpn_nn::loss::label_smooth(
        &revbifpn_nn::loss::one_hot(&labels, data.num_classes()),
        0.1,
    );

    let step = |engine: &mut ShardEngine, model: &mut RevBiFPNClassifier| {
        let out = engine.step(
            model,
            &images,
            &targets,
            RunMode::TrainReversible,
            &ShardStepFaults::default(),
        );
        assert!(out.backward_ran);
        engine.apply_bn_stats(model);
    };

    // Warm the thread-local arena (and the engine's persistent buffers)
    // with every shape the step borrows.
    for _ in 0..2 {
        step(&mut engine, &mut model);
    }

    meter::reset_scratch_stats();
    for _ in 0..3 {
        step(&mut engine, &mut model);
    }
    let report = meter::report();
    assert!(report.scratch.borrows > 0, "the step should be using the scratch arena");
    assert_eq!(
        report.scratch.heap_growths, 0,
        "steady-state sharded step must not grow the scratch arenas: {:?}",
        report.scratch
    );

    par::set_max_threads(0);
}
