//! The training step runs its independent units as the tasks of one
//! `meter::join`: a silo half's edges and a block stage's streams in the
//! forward, a silo row's edges and a block stage's streams in the
//! reversible backward, and the shards of a `ShardEngine::step`. Its side
//! effects must not depend on the thread count that carries them out. Each
//! task's meter deltas are fenced off and absorbed in item order, and each
//! BatchNorm belongs to one task. So the meter's current bytes, its peak and
//! its event table, every `Held` BatchNorm's batch statistics, the logits,
//! the loss and the parameter gradients must come out the same at one, two
//! and four threads. The thread budget is process-wide, so this file holds
//! one test.

use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn::{RevBiFPNClassifier, RevBiFPNConfig, RunMode};
use revbifpn_nn::layers::BnStats;
use revbifpn_nn::{meter, Module};
use revbifpn_rev::DriftConfig;
use revbifpn_tensor::{par, Shape, Tensor};
use revbifpn_train::{ShardEngine, ShardStepFaults};

/// The meter's current bytes, peak and event table.
type Trace = (usize, usize, Vec<(&'static str, u64)>);

/// What one reversible training forward + backward leaves behind.
#[derive(Debug, PartialEq)]
struct Effects {
    logits: Vec<u32>,
    forward: Trace,
    backward: Trace,
    grads: Vec<Vec<u32>>,
    held: Vec<Vec<u32>>,
}

/// What one `ShardEngine::step` leaves behind.
#[derive(Debug, PartialEq)]
struct StepEffects {
    loss: u64,
    grads: Vec<Vec<u32>>,
    trace: Trace,
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn trace() -> Trace {
    (meter::current(), meter::peak(), meter::events())
}

fn grads(model: &mut RevBiFPNClassifier) -> Vec<Vec<u32>> {
    let mut grads = Vec::new();
    model.visit_params(&mut |p| grads.push(bits(&p.grad)));
    grads
}

fn images(cfg: &RevBiFPNConfig) -> Tensor {
    Tensor::randn(Shape::new(4, 3, cfg.resolution, cfg.resolution), 1.0, &mut StdRng::seed_from_u64(7))
}

fn step_effects(cfg: &RevBiFPNConfig, threads: usize) -> Effects {
    par::set_max_threads(threads);
    let mut model = RevBiFPNClassifier::new(cfg.clone());
    model.visit_bn(&mut |bn| bn.set_stats_mode(BnStats::Held));
    meter::reset();
    meter::reset_events();
    let logits = model.forward(&images(cfg), RunMode::TrainReversible);
    let forward = trace();
    model.backward(&Tensor::randn(logits.shape(), 1.0, &mut StdRng::seed_from_u64(8)));
    let backward = trace();
    let mut held = Vec::new();
    model.visit_bn(&mut |bn| {
        let (mean, var) = bn.take_held().expect("a Held training step holds its statistics");
        held.push(bits(&mean));
        held.push(bits(&var));
    });
    let grads = grads(&mut model);
    model.clear_cache();
    par::set_max_threads(0);
    Effects { logits: bits(&logits), forward, backward, grads, held }
}

fn engine_effects(cfg: &RevBiFPNConfig, shards: usize, threads: usize) -> StepEffects {
    par::set_max_threads(threads);
    // A sharded step draws no dropout or drop-path masks.
    let cfg = &RevBiFPNConfig { dropout: 0.0, drop_path: 0.0, ..cfg.clone() };
    let mut model = RevBiFPNClassifier::new(cfg.clone());
    let mut engine = ShardEngine::new(model.cfg(), shards, DriftConfig::default());
    let targets = revbifpn_nn::loss::one_hot(&[0, 1, 2, 3], cfg.num_classes);
    meter::reset();
    meter::reset_events();
    let out = engine.step(&mut model, &images(cfg), &targets, RunMode::TrainReversible, &ShardStepFaults::default());
    let trace = trace();
    par::set_max_threads(0);
    assert!(out.backward_ran, "a clean step runs its backward");
    assert_eq!(out.shards_used, shards.max(1));
    StepEffects { loss: out.loss.to_bits(), grads: grads(&mut model), trace }
}

#[test]
fn training_step_side_effects_do_not_depend_on_the_thread_count() {
    for cfg in [RevBiFPNConfig::tiny(10), RevBiFPNConfig::s0(10).with_resolution(96)] {
        let r = cfg.resolution;
        let one = step_effects(&cfg, 1);
        assert!(one.forward.0 > 0 && one.forward.1 >= one.forward.0, "the forward should cache something");
        assert!(!one.held.is_empty(), "the model should have BatchNorms");
        assert!(one.grads.iter().flatten().any(|&g| g != 0), "the backward should write gradients");
        for threads in [2, 4] {
            let other = step_effects(&cfg, threads);
            assert_eq!(other.logits, one.logits, "{r}: logits at {threads} threads");
            assert_eq!(other.forward, one.forward, "{r}: forward meter trace at {threads} threads");
            assert_eq!(other.backward, one.backward, "{r}: backward meter trace at {threads} threads");
            assert!(other.grads == one.grads, "{r}: parameter gradients at {threads} threads");
            assert!(other.held == one.held, "{r}: held BatchNorm statistics at {threads} threads");
        }
        for shards in [0, 2] {
            let one = engine_effects(&cfg, shards, 1);
            for threads in [2, 4] {
                let other = engine_effects(&cfg, shards, threads);
                assert_eq!(other.loss, one.loss, "{r}, shards {shards}: loss at {threads} threads");
                assert!(other.grads == one.grads, "{r}, shards {shards}: gradients at {threads} threads");
                assert_eq!(other.trace, one.trace, "{r}, shards {shards}: meter trace at {threads} threads");
            }
        }
    }
}
