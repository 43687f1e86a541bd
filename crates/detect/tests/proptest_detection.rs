//! Property-based tests for the detection stack: NMS invariants, AP
//! evaluator bounds and monotonicity, and target-assignment consistency.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn_data::{iou, BoxAnnotation};
use revbifpn_detect::{assign_targets, evaluate_box_ap, nms, AreaRanges, Detection};
use revbifpn_tensor::Shape;

fn random_dets(seed: u64, n: usize, classes: usize, extent: f32) -> Vec<Detection> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x1 = rng.random::<f32>() * extent;
            let y1 = rng.random::<f32>() * extent;
            let w = 2.0 + rng.random::<f32>() * extent / 2.0;
            let h = 2.0 + rng.random::<f32>() * extent / 2.0;
            Detection {
                bbox: [x1, y1, x1 + w, y1 + h],
                class: (rng.random::<u32>() as usize) % classes,
                score: rng.random::<f32>(),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// NMS output: scores sorted descending, no same-class pair above the
    /// IoU threshold, and size bounded by max_dets.
    #[test]
    fn nms_invariants(seed in any::<u64>(), n in 0usize..40, thresh in 0.2f32..0.8, cap in 1usize..20) {
        let dets = random_dets(seed, n, 3, 50.0);
        let kept = nms(dets.clone(), thresh, cap);
        prop_assert!(kept.len() <= cap.min(dets.len()));
        for w in kept.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
        for i in 0..kept.len() {
            for j in i + 1..kept.len() {
                if kept[i].class == kept[j].class {
                    prop_assert!(iou(&kept[i].bbox, &kept[j].bbox) <= thresh + 1e-6);
                }
            }
        }
    }

    /// NMS is idempotent: running it twice changes nothing.
    #[test]
    fn nms_idempotent(seed in any::<u64>(), n in 0usize..30) {
        let dets = random_dets(seed, n, 2, 40.0);
        let once = nms(dets, 0.5, 100);
        let twice = nms(once.clone(), 0.5, 100);
        prop_assert_eq!(once, twice);
    }

    /// AP values always lie in [0, 1] and AP50 >= AP (more IoU thresholds
    /// can only be harder).
    #[test]
    fn ap_bounds_and_ordering(seed in any::<u64>(), n_img in 1usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dets = Vec::new();
        let mut gts = Vec::new();
        for i in 0..n_img {
            let img_dets = random_dets(seed ^ i as u64, (rng.random::<u32>() % 8) as usize, 2, 60.0);
            let img_gts: Vec<BoxAnnotation> = random_dets(seed ^ (100 + i as u64), 1 + (rng.random::<u32>() % 4) as usize, 2, 60.0)
                .into_iter()
                .map(|d| BoxAnnotation { bbox: d.bbox, class: d.class })
                .collect();
            dets.push(img_dets);
            gts.push(img_gts);
        }
        let r = evaluate_box_ap(&dets, &gts, 2, AreaRanges::coco());
        for v in [r.ap, r.ap50, r.ap75, r.ap_small, r.ap_medium, r.ap_large] {
            prop_assert!((0.0..=1.0).contains(&v), "{r:?}");
        }
        prop_assert!(r.ap50 >= r.ap - 1e-9);
        prop_assert!(r.ap50 >= r.ap75 - 1e-9);
    }

    /// Evaluating ground truth against itself (perfect detector) always
    /// yields AP == 1 on every populated bucket.
    #[test]
    fn perfect_detector_ap_is_one(seed in any::<u64>(), n_img in 1usize..4) {
        let mut gts = Vec::new();
        let mut dets = Vec::new();
        for i in 0..n_img {
            let objs: Vec<BoxAnnotation> = random_dets(seed ^ i as u64, 3, 2, 60.0)
                .into_iter()
                .map(|d| BoxAnnotation { bbox: d.bbox, class: d.class })
                .collect();
            dets.push(objs.iter().map(|o| Detection { bbox: o.bbox, class: o.class, score: 0.9 }).collect::<Vec<_>>());
            gts.push(objs);
        }
        let r = evaluate_box_ap(&dets, &gts, 2, AreaRanges::coco());
        prop_assert!((r.ap - 1.0).abs() < 1e-9, "{r:?}");
    }

    /// Adding a false positive never increases AP.
    #[test]
    fn false_positive_never_helps(seed in any::<u64>()) {
        let gts = vec![random_dets(seed, 3, 2, 60.0)
            .into_iter()
            .map(|d| BoxAnnotation { bbox: d.bbox, class: d.class })
            .collect::<Vec<_>>()];
        let clean: Vec<Vec<Detection>> =
            vec![gts[0].iter().map(|o| Detection { bbox: o.bbox, class: o.class, score: 0.9 }).collect()];
        let mut noisy = clean.clone();
        noisy[0].push(Detection { bbox: [500.0, 500.0, 520.0, 520.0], class: 0, score: 0.99 });
        let r_clean = evaluate_box_ap(&clean, &gts, 2, AreaRanges::coco());
        let r_noisy = evaluate_box_ap(&noisy, &gts, 2, AreaRanges::coco());
        prop_assert!(r_noisy.ap <= r_clean.ap + 1e-9);
    }

    /// Every ground-truth box that fits a level's size range produces at
    /// least one positive location somewhere in the pyramid (as long as its
    /// centre lies inside the image).
    #[test]
    fn assignment_covers_every_gt(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let res = 32usize;
        let x1 = rng.random::<f32>() * 16.0;
        let y1 = rng.random::<f32>() * 16.0;
        let w = 4.0 + rng.random::<f32>() * 12.0;
        let h = 4.0 + rng.random::<f32>() * 12.0;
        let objs = vec![vec![BoxAnnotation { bbox: [x1, y1, x1 + w, y1 + h], class: 0 }]];
        let shapes = [
            Shape::new(1, 3, res / 2, res / 2),
            Shape::new(1, 3, res / 4, res / 4),
            Shape::new(1, 3, res / 8, res / 8),
        ];
        let targets = assign_targets(&objs, &shapes, &[2, 4, 8], 1);
        let total_pos: usize = targets.iter().map(|t| t.num_pos).sum();
        prop_assert!(total_pos > 0, "object {:?} got no positives", objs[0][0].bbox);
    }
}
