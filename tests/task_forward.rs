//! The training forward runs a silo half's edges and a block stage's
//! streams as the tasks of one join. Its side effects must not depend on
//! the thread count that carries them out. Each task's meter deltas are
//! fenced off and absorbed in edge or stream order, and each BatchNorm
//! belongs to one task. So the meter's current bytes, its peak and its event
//! table, every `Held` BatchNorm's batch statistics and the logits must come
//! out the same at one, two and four threads. The thread budget is
//! process-wide, so this file holds one test.

use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn::{RevBiFPNClassifier, RevBiFPNConfig, RunMode};
use revbifpn_nn::layers::BnStats;
use revbifpn_nn::{meter, Module};
use revbifpn_tensor::{par, Shape, Tensor};

/// What one reversible training forward leaves behind.
#[derive(Debug, PartialEq)]
struct Effects {
    logits: Vec<u32>,
    current: usize,
    peak: usize,
    events: Vec<(&'static str, u64)>,
    held: Vec<Vec<u32>>,
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn forward_effects(cfg: &RevBiFPNConfig, threads: usize) -> Effects {
    par::set_max_threads(threads);
    let mut model = RevBiFPNClassifier::new(cfg.clone());
    model.visit_bn(&mut |bn| bn.set_stats_mode(BnStats::Held));
    let x = Tensor::randn(Shape::new(4, 3, cfg.resolution, cfg.resolution), 1.0, &mut StdRng::seed_from_u64(7));
    meter::reset();
    meter::reset_events();
    let logits = model.forward(&x, RunMode::TrainReversible);
    let (current, peak, events) = (meter::current(), meter::peak(), meter::events());
    let mut held = Vec::new();
    model.visit_bn(&mut |bn| {
        let (mean, var) = bn.take_held().expect("a Held training forward holds its statistics");
        held.push(bits(&mean));
        held.push(bits(&var));
    });
    model.clear_cache();
    par::set_max_threads(0);
    Effects { logits: bits(&logits), current, peak, events, held }
}

#[test]
fn training_forward_side_effects_do_not_depend_on_the_thread_count() {
    for cfg in [RevBiFPNConfig::tiny(10), RevBiFPNConfig::s0(10).with_resolution(96)] {
        let one = forward_effects(&cfg, 1);
        assert!(one.current > 0 && one.peak >= one.current, "the forward should cache something");
        assert!(!one.held.is_empty(), "the model should have BatchNorms");
        for threads in [2, 4] {
            let other = forward_effects(&cfg, threads);
            assert_eq!(other.logits, one.logits, "{}: logits at {threads} threads", cfg.resolution);
            assert_eq!(
                (other.current, other.peak),
                (one.current, one.peak),
                "{}: meter bytes at {threads} threads",
                cfg.resolution
            );
            assert_eq!(other.events, one.events, "{}: meter events at {threads} threads", cfg.resolution);
            assert!(other.held == one.held, "{}: held BatchNorm statistics at {threads} threads", cfg.resolution);
        }
    }
}
