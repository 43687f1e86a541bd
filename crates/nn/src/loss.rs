//! Losses: softmax cross-entropy with soft targets (supports label
//! smoothing, mixup and CutMix targets), binary cross-entropy on logits, and
//! smooth-L1 regression (detection heads).

use revbifpn_tensor::{par, Shape, Tensor};

/// Numerically stable per-row softmax of `[n, k, 1, 1]` logits.
pub fn softmax(logits: &Tensor) -> Tensor {
    let s = logits.shape();
    assert_eq!((s.h, s.w), (1, 1), "softmax expects [n, k, 1, 1]");
    let mut out = logits.clone();
    for n in 0..s.n {
        let row = &mut out.data_mut()[n * s.c..(n + 1) * s.c];
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let mut z = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            z += *v;
        }
        for v in row.iter_mut() {
            *v /= z;
        }
    }
    out
}

/// Softmax cross-entropy against soft targets.
///
/// Returns `(mean_loss, dlogits)` where `dlogits = (softmax - target) / n`.
/// This is [`softmax_cross_entropy_per_sample`] over the whole batch, its
/// per-sample terms summed with the pairwise sample tree
/// (`par::tree_reduce_serial`) and divided by `n`: the same arithmetic as
/// the step engines' loss, bit for bit.
///
/// # Panics
///
/// Panics if shapes differ or are not `[n, k, 1, 1]`. Also panics if the
/// computed loss is non-finite, reporting which input (logits or targets)
/// carried non-finite values, so a poisoned batch is diagnosed at the loss
/// instead of propagating NaN silently through the backward pass.
pub fn softmax_cross_entropy(logits: &Tensor, targets: &Tensor) -> (f64, Tensor) {
    let n = logits.shape().n;
    let (mut losses, d) = softmax_cross_entropy_per_sample(logits, targets, n);
    par::tree_reduce_serial(n, |dst, src| losses[dst] += losses[src]);
    (losses[0] / n as f64, d)
}

/// Per-sample softmax cross-entropy for the sharded training step.
///
/// Returns `(losses, dlogits)` where `losses[i]` is sample `i`'s (unscaled)
/// cross-entropy in f64, summed over classes in ascending order, and
/// `dlogits` is `(softmax - target) / batch_total` per element.
///
/// Contract with the sharded trainer: per-sample losses and per-element
/// gradients depend only on that sample's row, never on the batch extent,
/// so a shard computes identical values whether it holds 4 samples or 16.
/// The trainer merges shard loss vectors in sample order and reduces them
/// with the pairwise tree, then divides by `batch_total`, making the step
/// loss bitwise invariant to the shard count. `batch_total` is the *global*
/// batch size (not this shard's), so gradient scaling also matches.
///
/// # Panics
///
/// Panics on shape mismatch or non-finite loss, with the same input
/// attribution as [`softmax_cross_entropy`]. Callers on the tripwire path
/// scan logits for finiteness before calling.
pub fn softmax_cross_entropy_per_sample(
    logits: &Tensor,
    targets: &Tensor,
    batch_total: usize,
) -> (Vec<f64>, Tensor) {
    let s = logits.shape();
    assert_eq!(s, targets.shape(), "logits/targets shape mismatch");
    assert!(batch_total > 0, "batch_total must be positive");
    let p = softmax(logits);
    let mut losses = Vec::with_capacity(s.n);
    for n in 0..s.n {
        let mut loss = 0.0f64;
        for k in 0..s.c {
            let t = targets.data()[n * s.c + k] as f64;
            if t != 0.0 {
                let q = (p.data()[n * s.c + k] as f64).max(1e-12);
                loss -= t * q.ln();
            }
        }
        losses.push(loss);
    }
    if losses.iter().any(|l| !l.is_finite()) || !p.is_finite() {
        logits.assert_finite("softmax_cross_entropy: non-finite loss; logits");
        targets.assert_finite("softmax_cross_entropy: non-finite loss; targets");
        panic!("softmax_cross_entropy: non-finite loss with finite inputs");
    }
    let mut d = &p - targets;
    d.scale(1.0 / batch_total as f32);
    (losses, d)
}

/// One-hot targets `[n, k, 1, 1]` from class labels.
///
/// # Panics
///
/// Panics if a label is out of range.
pub fn one_hot(labels: &[usize], k: usize) -> Tensor {
    let mut t = Tensor::zeros(Shape::new(labels.len(), k, 1, 1));
    for (n, &l) in labels.iter().enumerate() {
        assert!(l < k, "label {l} out of range for {k} classes");
        t.data_mut()[n * k + l] = 1.0;
    }
    t
}

/// Applies label smoothing with coefficient `eps` to soft targets.
pub fn label_smooth(targets: &Tensor, eps: f32) -> Tensor {
    let k = targets.shape().c as f32;
    targets.map(|t| t * (1.0 - eps) + eps / k)
}

/// Top-1 predictions from logits.
pub fn argmax_rows(logits: &Tensor) -> Vec<usize> {
    let s = logits.shape();
    (0..s.n)
        .map(|n| {
            let row = &logits.data()[n * s.c..(n + 1) * s.c];
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect()
}

/// Binary cross-entropy on logits with per-element targets and weights.
///
/// Returns `(sum_loss / normalizer, dlogits)`.
///
/// # Panics
///
/// Panics if shapes differ or `normalizer <= 0`.
pub fn bce_with_logits(logits: &Tensor, targets: &Tensor, normalizer: f64) -> (f64, Tensor) {
    assert_eq!(logits.shape(), targets.shape(), "bce shape mismatch");
    assert!(normalizer > 0.0, "normalizer must be positive");
    let mut loss = 0.0f64;
    let mut d = Tensor::zeros(logits.shape());
    for i in 0..logits.data().len() {
        let z = logits.data()[i] as f64;
        let t = targets.data()[i] as f64;
        // log(1 + exp(-|z|)) stable form.
        let l = z.max(0.0) - z * t + (1.0 + (-z.abs()).exp()).ln();
        loss += l;
        let sig = 1.0 / (1.0 + (-z).exp());
        d.data_mut()[i] = ((sig - t) / normalizer) as f32;
    }
    (loss / normalizer, d)
}

/// Focal loss on logits (Lin et al. 2017): BCE modulated by `(1-p_t)^gamma`
/// with positive-class weight `alpha` — the standard remedy for the extreme
/// foreground/background imbalance of dense detection heads.
///
/// Returns `(sum_loss / normalizer, dlogits)`.
///
/// # Panics
///
/// Panics if shapes differ or `normalizer <= 0`.
pub fn focal_loss_with_logits(
    logits: &Tensor,
    targets: &Tensor,
    alpha: f64,
    gamma: f64,
    normalizer: f64,
) -> (f64, Tensor) {
    assert_eq!(logits.shape(), targets.shape(), "focal loss shape mismatch");
    assert!(normalizer > 0.0, "normalizer must be positive");
    let mut loss = 0.0f64;
    let mut d = Tensor::zeros(logits.shape());
    for i in 0..logits.data().len() {
        let z = logits.data()[i] as f64;
        let t = targets.data()[i] as f64;
        let p = 1.0 / (1.0 + (-z).exp());
        // p_t and alpha_t for the binary target.
        let (pt, at) = if t > 0.5 { (p, alpha) } else { (1.0 - p, 1.0 - alpha) };
        let pt = pt.clamp(1e-8, 1.0 - 1e-8);
        let mod_ = (1.0 - pt).powf(gamma);
        loss += -at * mod_ * pt.ln();
        // dL/dz with dp/dz = p(1-p); for t=1: dpt/dz = p(1-p); for t=0: -p(1-p).
        let dpt_dz = if t > 0.5 { p * (1.0 - p) } else { -(p * (1.0 - p)) };
        // dL/dpt = -at [ -gamma (1-pt)^(g-1) ln pt + (1-pt)^g / pt ]
        let dl_dpt = -at * (-(gamma) * (1.0 - pt).powf(gamma - 1.0) * pt.ln() + mod_ / pt);
        d.data_mut()[i] = ((dl_dpt * dpt_dz) / normalizer) as f32;
    }
    (loss / normalizer, d)
}

/// Smooth-L1 (Huber) regression loss with `beta = 1`, masked by `weights`.
///
/// Returns `(sum_loss / normalizer, dpred)`.
///
/// # Panics
///
/// Panics on shape mismatch or non-positive normalizer.
pub fn smooth_l1(pred: &Tensor, target: &Tensor, weights: &Tensor, normalizer: f64) -> (f64, Tensor) {
    assert_eq!(pred.shape(), target.shape(), "smooth_l1 shape mismatch");
    assert_eq!(pred.shape(), weights.shape(), "smooth_l1 weights mismatch");
    assert!(normalizer > 0.0, "normalizer must be positive");
    let mut loss = 0.0f64;
    let mut d = Tensor::zeros(pred.shape());
    for i in 0..pred.data().len() {
        let w = weights.data()[i] as f64;
        if w == 0.0 {
            continue;
        }
        let diff = (pred.data()[i] - target.data()[i]) as f64;
        let (l, g) = if diff.abs() < 1.0 { (0.5 * diff * diff, diff) } else { (diff.abs() - 0.5, diff.signum()) };
        loss += w * l;
        d.data_mut()[i] = (w * g / normalizer) as f32;
    }
    (loss / normalizer, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_sample_ce_is_shard_invariant_and_matches_full_batch_gradient() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        let (n, k) = (8usize, 5usize);
        let logits = Tensor::randn(Shape::new(n, k, 1, 1), 2.0, &mut rng);
        let labels: Vec<usize> = (0..n).map(|i| (i * 3 + 1) % k).collect();
        let targets = one_hot(&labels, k);
        let (losses_full, d_full) = softmax_cross_entropy_per_sample(&logits, &targets, n);
        assert_eq!(losses_full.len(), n);
        // dlogits with batch_total == n is the full-batch function's.
        let (_, d_batch) = softmax_cross_entropy(&logits, &targets);
        for (a, b) in d_full.data().iter().zip(d_batch.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Splitting the batch into shards must reproduce the same per-sample
        // losses and gradient rows bit for bit: every value depends only on
        // its own sample's row plus the global batch_total.
        for shards in [2usize, 4] {
            let m = n / shards;
            for s in 0..shards {
                let ls = Tensor::from_vec(
                    Shape::new(m, k, 1, 1),
                    logits.data()[s * m * k..(s + 1) * m * k].to_vec(),
                )
                .unwrap();
                let ts = Tensor::from_vec(
                    Shape::new(m, k, 1, 1),
                    targets.data()[s * m * k..(s + 1) * m * k].to_vec(),
                )
                .unwrap();
                let (losses_s, d_s) = softmax_cross_entropy_per_sample(&ls, &ts, n);
                for i in 0..m {
                    assert_eq!(losses_s[i].to_bits(), losses_full[s * m + i].to_bits());
                }
                for (i, (a, b)) in d_s.data().iter().zip(&d_full.data()[s * m * k..]).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "shards={shards} s={s} idx={i}");
                }
            }
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let l = Tensor::from_vec(Shape::new(2, 3, 1, 1), vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]).unwrap();
        let p = softmax(&l);
        for n in 0..2 {
            let s: f32 = p.data()[n * 3..(n + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn ce_perfect_prediction_is_low() {
        let l = Tensor::from_vec(Shape::new(1, 2, 1, 1), vec![10.0, -10.0]).unwrap();
        let t = one_hot(&[0], 2);
        let (loss, _) = softmax_cross_entropy(&l, &t);
        assert!(loss < 1e-3);
    }

    #[test]
    fn ce_gradient_matches_finite_diff() {
        let mut l = Tensor::from_vec(Shape::new(2, 3, 1, 1), vec![0.5, -0.2, 0.1, 1.0, 0.0, -1.0]).unwrap();
        let t = label_smooth(&one_hot(&[2, 0], 3), 0.1);
        let (_, d) = softmax_cross_entropy(&l, &t);
        let eps = 1e-3f32;
        for i in 0..6 {
            let orig = l.data()[i];
            l.data_mut()[i] = orig + eps;
            let (lp, _) = softmax_cross_entropy(&l, &t);
            l.data_mut()[i] = orig - eps;
            let (lm, _) = softmax_cross_entropy(&l, &t);
            l.data_mut()[i] = orig;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!((num - d.data()[i]).abs() < 1e-3, "coord {i}");
        }
    }

    #[test]
    #[should_panic(expected = "non-finite loss; logits")]
    fn ce_reports_nonfinite_logits() {
        let mut l = Tensor::from_vec(Shape::new(1, 2, 1, 1), vec![0.0, 0.0]).unwrap();
        l.data_mut()[0] = f32::NAN;
        let t = one_hot(&[0], 2);
        let _ = softmax_cross_entropy(&l, &t);
    }

    #[test]
    #[should_panic(expected = "non-finite loss; targets")]
    fn ce_reports_nonfinite_targets() {
        let l = Tensor::from_vec(Shape::new(1, 2, 1, 1), vec![0.0, 0.0]).unwrap();
        let mut t = one_hot(&[0], 2);
        t.data_mut()[0] = f32::INFINITY;
        let _ = softmax_cross_entropy(&l, &t);
    }

    #[test]
    fn label_smoothing_distributes_mass() {
        let t = label_smooth(&one_hot(&[1], 4), 0.2);
        assert!((t.data()[1] - (0.8 + 0.05)).abs() < 1e-6);
        assert!((t.data()[0] - 0.05).abs() < 1e-6);
        assert!((t.sum() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn argmax_rows_picks_max() {
        let l = Tensor::from_vec(Shape::new(2, 3, 1, 1), vec![0.1, 0.9, 0.3, 2.0, -1.0, 0.0]).unwrap();
        assert_eq!(argmax_rows(&l), vec![1, 0]);
    }

    #[test]
    fn bce_gradient_matches_finite_diff() {
        let mut l = Tensor::from_vec(Shape::new(1, 4, 1, 1), vec![0.3, -0.8, 1.2, 0.0]).unwrap();
        let t = Tensor::from_vec(Shape::new(1, 4, 1, 1), vec![1.0, 0.0, 0.5, 1.0]).unwrap();
        let (_, d) = bce_with_logits(&l, &t, 4.0);
        let eps = 1e-3f32;
        for i in 0..4 {
            let orig = l.data()[i];
            l.data_mut()[i] = orig + eps;
            let (lp, _) = bce_with_logits(&l, &t, 4.0);
            l.data_mut()[i] = orig - eps;
            let (lm, _) = bce_with_logits(&l, &t, 4.0);
            l.data_mut()[i] = orig;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!((num - d.data()[i]).abs() < 1e-4, "coord {i}");
        }
    }

    #[test]
    fn focal_gradient_matches_finite_diff() {
        let mut l = Tensor::from_vec(Shape::new(1, 4, 1, 1), vec![0.3, -0.8, 1.2, -2.0]).unwrap();
        let t = Tensor::from_vec(Shape::new(1, 4, 1, 1), vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let (_, d) = focal_loss_with_logits(&l, &t, 0.25, 2.0, 2.0);
        let eps = 1e-3f32;
        for i in 0..4 {
            let orig = l.data()[i];
            l.data_mut()[i] = orig + eps;
            let (lp, _) = focal_loss_with_logits(&l, &t, 0.25, 2.0, 2.0);
            l.data_mut()[i] = orig - eps;
            let (lm, _) = focal_loss_with_logits(&l, &t, 0.25, 2.0, 2.0);
            l.data_mut()[i] = orig;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!((num - d.data()[i]).abs() < 1e-4, "coord {i}: {num} vs {}", d.data()[i]);
        }
    }

    #[test]
    fn focal_downweights_easy_negatives() {
        // A confidently-correct negative contributes far less than under BCE.
        let l = Tensor::from_vec(Shape::new(1, 1, 1, 1), vec![-4.0]).unwrap();
        let t = Tensor::zeros(l.shape());
        let (fl, _) = focal_loss_with_logits(&l, &t, 0.25, 2.0, 1.0);
        let (bce, _) = bce_with_logits(&l, &t, 1.0);
        assert!(fl < bce * 0.01, "focal {fl} vs bce {bce}");
    }

    #[test]
    fn smooth_l1_quadratic_and_linear_regions() {
        let p = Tensor::from_vec(Shape::new(1, 2, 1, 1), vec![0.5, 3.0]).unwrap();
        let t = Tensor::zeros(p.shape());
        let w = Tensor::ones(p.shape());
        let (loss, d) = smooth_l1(&p, &t, &w, 1.0);
        assert!((loss - (0.125 + 2.5)).abs() < 1e-6);
        assert!((d.data()[0] - 0.5).abs() < 1e-6);
        assert!((d.data()[1] - 1.0).abs() < 1e-6);
    }
}
