//! Pins that a frozen answer, f32 or int8, does not depend on its batch
//! neighbours: every row of a batched forward equals its sample's forward
//! run alone, bit for bit, whatever the neighbours hold and however many
//! threads run.
//!
//! Models: the frozen `tiny`, and S0 with 1000 classes at 96², whose
//! classifier runs on the packed GEMM over the batch's columns, each frozen
//! in f32 and in int8. Batches of 2, 3 and 8, neighbours drawn from the
//! sample's range and from four times it, at 1, 2 and 4 threads.
//! `set_max_threads` is process-wide, so this file holds exactly one test.

use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn::{FrozenClassifier, RevBiFPNClassifier, RevBiFPNConfig};
use revbifpn_tensor::{par, Shape, Tensor};

/// The model with BN scales drawn off their init of 1, as `frozen_digests`
/// draws them.
fn model(cfg: RevBiFPNConfig, seed: u64) -> RevBiFPNClassifier {
    let mut model = RevBiFPNClassifier::new(cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    model.visit_params(&mut |p| {
        if p.name == "bn.gamma" {
            p.value = Tensor::uniform(p.value.shape(), 0.5, 1.5, &mut rng);
        }
    });
    model
}

#[test]
fn frozen_rows_equal_their_samples_run_alone() {
    let models = [("tiny", RevBiFPNConfig::tiny(10), 7), ("S0@96", RevBiFPNConfig::s0(1000).with_resolution(96), 8)];
    for (name, cfg, seed) in models {
        let res = cfg.resolution;
        let model = model(cfg, seed);
        let frozen: [(&str, FrozenClassifier); 2] =
            [("f32", model.freeze().expect("freezes")), ("int8", model.freeze_int8().expect("freezes to int8"))];
        let mut rng = StdRng::seed_from_u64(seed + 20);
        for ((precision, frozen), threads) in frozen.iter().flat_map(|f| [1, 2, 4].map(|t| (f, t))) {
            par::set_max_threads(threads);
            for n in [2, 3, 8] {
                for range in [1.0, 4.0] {
                    // Row 0 is drawn from the unit range, its neighbours
                    // from `range` times it.
                    let rows: Vec<Tensor> = (0..n)
                        .map(|i| Tensor::randn(Shape::new(1, 3, res, res), if i == 0 { 1.0 } else { range }, &mut rng))
                        .collect();
                    let data: Vec<f32> = rows.iter().flat_map(|r| r.data().iter().copied()).collect();
                    let batch = Tensor::from_vec(Shape::new(n, 3, res, res), data).expect("batch shape");
                    let logits = frozen.forward(&batch);
                    let per = logits.shape().chw();
                    for (i, row) in rows.iter().enumerate() {
                        let alone = frozen.forward(row);
                        let got = &logits.data()[i * per..(i + 1) * per];
                        assert!(
                            got.iter().zip(alone.data()).all(|(a, b)| a.to_bits() == b.to_bits()),
                            "{name} {precision}: row {i} of a batch of {n} (neighbours x{range}) at {threads} \
                             threads differs from its sample run alone"
                        );
                    }
                }
            }
        }
        par::set_max_threads(0);
    }
}
