//! Property-based tests for the synthetic datasets and augmentations.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn_data::augment::{cutmix, cutout, mixup, random_hflip};
use revbifpn_data::{SynthDet, SynthDetConfig, SynthScale, SynthScaleConfig};
use revbifpn_tensor::{Shape, Tensor};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// SynthScale is deterministic in (seed, index) and bounded.
    #[test]
    fn synthscale_deterministic_and_bounded(seed in any::<u64>(), index in 0u64..1000) {
        let ds = SynthScale::new(SynthScaleConfig::new(16), seed);
        let (a, la) = ds.sample(index);
        let (b, lb) = ds.sample(index);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(la, lb);
        prop_assert!(a.is_finite());
        prop_assert!(a.abs_max() < 4.0);
        prop_assert!(la < ds.num_classes());
    }

    /// Different seeds give different datasets (same index).
    #[test]
    fn synthscale_seed_sensitivity(s1 in any::<u64>(), s2 in any::<u64>()) {
        prop_assume!(s1 != s2);
        let a = SynthScale::new(SynthScaleConfig::new(16), s1).sample(0).0;
        let b = SynthScale::new(SynthScaleConfig::new(16), s2).sample(0).0;
        prop_assert!(a.max_abs_diff(&b) > 1e-4);
    }

    /// SynthDet scenes always have >= 1 in-bounds object and matching masks.
    #[test]
    fn synthdet_objects_valid(seed in any::<u64>(), index in 0u64..500) {
        let res = 32usize;
        let ds = SynthDet::new(SynthDetConfig::new(res), seed);
        let s = ds.sample(index);
        prop_assert!(!s.objects.is_empty());
        prop_assert_eq!(s.objects.len(), s.masks.len());
        for o in &s.objects {
            prop_assert!(o.bbox[0] >= 0.0 && o.bbox[1] >= 0.0);
            prop_assert!(o.bbox[2] <= res as f32 && o.bbox[3] <= res as f32);
            prop_assert!(o.area() > 0.0);
        }
        for m in &s.masks {
            prop_assert!(m.sum() > 0.0, "empty mask");
        }
    }

    /// Horizontal flip is an involution when applied with a forced-flip RNG
    /// state... instead: flip preserves every channel's pixel multiset sum.
    #[test]
    fn hflip_preserves_sums(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Tensor::randn(Shape::new(3, 2, 5, 6), 1.0, &mut rng);
        let before = x.sum();
        let before_sq = x.sq_sum();
        random_hflip(&mut x, &mut rng);
        prop_assert!((x.sum() - before).abs() < 1e-3);
        prop_assert!((x.sq_sum() - before_sq).abs() < 1e-2);
    }

    /// Cutout zeroes exactly size^2 pixels per channel per image.
    #[test]
    fn cutout_patch_size(seed in any::<u64>(), size in 1usize..=4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Tensor::ones(Shape::new(2, 3, 8, 8));
        cutout(&mut x, size, &mut rng);
        let zeros = x.data().iter().filter(|&&v| v == 0.0).count();
        prop_assert_eq!(zeros, 2 * 3 * size * size);
    }

    /// Mixup and CutMix keep soft targets on the probability simplex.
    #[test]
    fn mix_targets_stay_simplex(seed in any::<u64>(), use_cutmix in any::<bool>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Tensor::randn(Shape::new(4, 1, 6, 6), 1.0, &mut rng);
        let mut t = Tensor::zeros(Shape::new(4, 3, 1, 1));
        for n in 0..4 {
            t.data_mut()[n * 3 + n % 3] = 1.0;
        }
        if use_cutmix {
            cutmix(&mut x, &mut t, 1.0, &mut rng);
        } else {
            mixup(&mut x, &mut t, 0.4, &mut rng);
        }
        for n in 0..4 {
            let row: f32 = t.data()[n * 3..(n + 1) * 3].iter().sum();
            prop_assert!((row - 1.0).abs() < 1e-5);
            prop_assert!(t.data()[n * 3..(n + 1) * 3].iter().all(|&v| (-1e-6..=1.0 + 1e-6).contains(&v)));
        }
    }

    /// Batch generation equals per-sample generation.
    #[test]
    fn batch_consistency(seed in any::<u64>(), start in 0u64..100, n in 1usize..5) {
        let ds = SynthScale::new(SynthScaleConfig::new(8), seed);
        let (images, labels) = ds.batch(start, n);
        prop_assert_eq!(images.shape().n, n);
        prop_assert_eq!(labels.len(), n);
        let chw = images.shape().chw();
        for (i, &label) in labels.iter().enumerate() {
            let (img, l) = ds.sample(start + i as u64);
            prop_assert_eq!(label, l);
            prop_assert_eq!(&images.data()[i * chw..(i + 1) * chw], img.data());
        }
    }
}
