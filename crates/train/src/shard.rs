//! The training step: forward, loss and backward of one batch, with its
//! BatchNorm statistics held back until the caller knows the step is clean.
//!
//! Built with `shards = 0` the engine is the serial step: one coupled shard
//! on the primary model, its BatchNorms in [`BnStats::Held`] mode —
//! normalizing with the batch statistics and holding them — so a tripped
//! step writes no model state. Built with `shards >= 1` it is the
//! data-parallel step: micro-batch shards run forward + reversible backward
//! (shard 0 on the primary model, the others on persistent replicas), and
//! the per-shard gradients are merged with a pairwise tree so the result is
//! **bitwise invariant to the shard count and the thread count**.
//!
//! # Determinism contract
//!
//! Every cross-sample reduction in the training step is a pairwise
//! stride-doubling tree over per-sample partials (see
//! `revbifpn_tensor::par::tree_reduce_serial` for the shard-alignment
//! theorem). A shard of `m = n / S` contiguous samples computes exactly the
//! aligned depth-`log2(m)` subtree of the global `n`-leaf tree, so merging
//! the `S` shard partials with the same tree performs the *same `f32`
//! additions in the same order* as a single-shard run:
//!
//! * parameter gradients: per-sample slabs are tree-reduced inside each
//!   layer (conv, linear, decoupled BN); shards `2j` and `2j + 1` add their
//!   roots into shard `2j`'s gradient, zeroed to `+0`, under a per-parameter
//!   lock (`revbifpn_tensor::par::GradSink` shows either order gives the
//!   tree's bits), and [`ShardEngine::step`] merges the pairs with the tree;
//! * the loss: per-sample `f64` cross-entropy terms are tree-summed over
//!   the full batch in sample order (sample order is shard-independent);
//! * BatchNorm statistics: every shard's model (the primary included, for
//!   the duration of the step) runs in [`BnStats::Decoupled`] mode — it normalizes
//!   with the pre-step running statistics (making every sample's
//!   activations independent of its batch neighbours) and records
//!   per-sample `f64` moments, which the engine tree-merges globally and
//!   applies to the primary model once the step is known to be clean.
//!
//! The sharded engine requires `dropout == 0` and `drop_path == 0`:
//! stochastic layers draw from a batch-order-dependent RNG stream, which
//! would break the per-sample-independence property everything above rests
//! on. The coupled engine draws the whole batch's masks on the primary, as
//! a hand-written loop would.

use crate::reduce::{concat_moments, effective_split, reduce_moments, slice_batch};
use revbifpn::{RevBiFPNClassifier, RunMode};
use revbifpn_nn::layers::{BnMoments, BnStats};
use revbifpn_nn::loss::softmax_cross_entropy_per_sample;
use revbifpn_nn::{meter, without_grads, Module, SharedGrads};
use revbifpn_rev::{DriftConfig, ReconFault};
use revbifpn_tensor::{par, Shape, Tensor};
use std::borrow::Cow;

/// Faults to inject into one step, both on shard 0 — the primary model (see
/// [`crate::FaultPlan`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStepFaults {
    /// Poison the first logit gradient of shard 0 (sample 0, class 0) with
    /// a NaN after the loss is formed (`Fault::NanGrad`).
    pub nan_grad: bool,
    /// Flip a bit in a reconstructed activation of shard 0's backward
    /// (`Fault::BitFlip`).
    pub bit_flip: Option<ReconFault>,
}

/// What one step produced.
#[derive(Debug)]
pub struct ShardStepOutput {
    /// Full-batch logits, assembled in sample order.
    pub logits: Tensor,
    /// Mean cross-entropy loss (pairwise tree over per-sample terms, in
    /// sample order, divided by the batch size). Zero when `backward_ran`
    /// is false.
    pub loss: f64,
    /// `false` when a shard saw non-finite logits: the loss was not formed,
    /// and the primary's `grad` slots hold the merge of what the shards that
    /// reached their backward added. The caller's tripwire should skip the
    /// step (or form the loss, which panics on non-finite logits).
    pub backward_ran: bool,
    /// Number of shards the batch was actually split into (collapses to 1
    /// when the batch size is incompatible with the configured count).
    pub shards_used: usize,
}

/// What one shard task returns.
struct ShardResult {
    logits: Tensor,
    losses: Vec<f64>,
    finite: bool,
}

/// Persistent training-step engine.
///
/// Shard 0 runs on the primary model the caller owns; the engine holds one
/// replica for each of shards `1..S`, which owns caches but no parameter
/// values or BN buffers: it reads the primary's through handles
/// ([`Tensor::share`]), and an odd shard's adds into its even partner's
/// gradients, so nothing is copied or staged. Only the primary receives
/// merged gradients, BN statistics, optimizer updates and checkpoints, and
/// once a step returns it owns every value alone.
#[derive(Debug)]
pub struct ShardEngine {
    replicas: Vec<RevBiFPNClassifier>,
    /// The mode the primary's BatchNorms run a step in: `Held` for the
    /// coupled engine (`shards = 0`), `Decoupled` for the sharded one.
    stats: BnStats,
    /// The replicas' drift-sentinel config; the primary must carry the same.
    drift: DriftConfig,
    /// The accumulators of each shard pair `(2j, 2j + 1)`: shard `2j`'s
    /// gradients while a step runs, shard `2j + 1`'s model linked for good.
    pairs: Vec<SharedGrads>,
    /// Per-BN `(mean, var)` computed by the last step, awaiting
    /// [`ShardEngine::apply_bn_stats`].
    pending_stats: Vec<(Tensor, Tensor)>,
}

/// What a slot holds while it owns no tensor: a replica's value or buffer
/// between steps (no allocation).
fn hole() -> Tensor {
    Tensor::zeros(Shape::vector(0))
}

/// Visits what a replica reads from the primary during a step: every
/// parameter value, then every persistent buffer, in walk order.
fn visit_read_state(model: &mut RevBiFPNClassifier, f: &mut dyn FnMut(&mut Tensor)) {
    model.visit_params(&mut |p| f(&mut p.value));
    model.visit_buffers(f);
}

/// Shard `k`'s samples `[k*m, (k+1)*m)` of a batch tensor (sample-major):
/// the tensor itself, not a copy, when it is the only shard.
fn shard_of(t: &Tensor, k: usize, m: usize) -> Cow<'_, Tensor> {
    if m == t.shape().n {
        Cow::Borrowed(t)
    } else {
        Cow::Owned(slice_batch(t, k * m, m))
    }
}

/// The models of shards `0..=replicas.len()`, in shard order.
fn shard_models<'a>(
    primary: &'a mut RevBiFPNClassifier,
    replicas: &'a mut [RevBiFPNClassifier],
) -> impl Iterator<Item = &'a mut RevBiFPNClassifier> {
    std::iter::once(primary).chain(replicas)
}

impl ShardEngine {
    /// Builds an engine for the model described by `cfg`. `shards = 0`
    /// builds the coupled engine: no replica, the whole batch on the
    /// primary with coupled BatchNorm. A power of two `shards >= 1` builds
    /// the sharded engine: `shards - 1` replicas configured for
    /// deterministic sharding (decoupled BN, drift sentinel `drift`). The
    /// primary keeps the drift config its owner set, which must equal
    /// `drift`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is neither zero nor a power of two, or if a
    /// sharded engine's config enables stochastic regularization (see
    /// module docs).
    pub fn new(cfg: &revbifpn::RevBiFPNConfig, shards: usize, drift: DriftConfig) -> Self {
        assert!(shards == 0 || shards.is_power_of_two(), "shard count must be 0 or a power of two, got {shards}");
        assert!(
            shards == 0 || (cfg.dropout == 0.0 && cfg.drop_path == 0.0),
            "sharded training requires dropout == 0 and drop_path == 0 \
             (stochastic layers depend on batch order)"
        );
        let mut pairs = Vec::new();
        let replicas = (1..shards)
            .map(|k| {
                let build = || RevBiFPNClassifier::new(cfg.clone());
                let mut r = if k % 2 == 1 { without_grads(build) } else { build() };
                r.backbone_mut().body_mut().set_drift_config(drift);
                r.visit_bn(&mut |bn| bn.set_stats_mode(BnStats::Decoupled));
                visit_read_state(&mut r, &mut |t| *t = hole());
                if k % 2 == 1 {
                    pairs.push(SharedGrads::link(|f| r.visit_params(f)));
                }
                r
            })
            .collect();
        let stats = if shards == 0 { BnStats::Held } else { BnStats::Decoupled };
        Self { replicas, stats, drift, pairs, pending_stats: Vec::new() }
    }

    /// The most shards a step splits its batch into (1 for the coupled
    /// engine).
    pub fn shards(&self) -> usize {
        self.replicas.len() + 1
    }

    /// Runs one training step against the primary model.
    ///
    /// Hands the replicas in use handles to the primary's parameter values
    /// and buffers, switches the primary's BatchNorms to the engine's
    /// statistics mode, zeroes the even shards' gradients and lends them to
    /// their pairs, runs forward + loss + backward on each micro-batch shard
    /// as one pool task (shard 0 on the primary; a single shard reads the
    /// caller's batch in place), and takes the handles and the gradients
    /// back. The primary's `grad` slots then hold the merged gradient
    /// (overwritten, like `zero_grads` + `backward`), and its BatchNorms are
    /// back in [`BnStats::Immediate`]. BN statistics are collected but
    /// **not** applied — call [`ShardEngine::apply_bn_stats`] once the step
    /// passes the caller's tripwires.
    pub fn step(
        &mut self,
        primary: &mut RevBiFPNClassifier,
        images: &Tensor,
        targets: &Tensor,
        mode: RunMode,
        faults: &ShardStepFaults,
    ) -> ShardStepOutput {
        assert!(mode != RunMode::Eval, "a training step requires a training mode");
        debug_assert_eq!(primary.backbone().body().drift_config(), self.drift, "primary drift config");
        let n = images.shape().n;
        assert_eq!(targets.shape().n, n, "images/targets batch mismatch");
        let s_eff = effective_split(n, self.shards());
        let m = n / s_eff;
        self.pending_stats.clear();

        let replicas = &mut self.replicas[..s_eff - 1];
        for r in replicas.iter_mut() {
            let mut handles = Vec::new();
            visit_read_state(primary, &mut |t| handles.push(t.share()));
            let mut handles = handles.into_iter();
            visit_read_state(r, &mut |t| *t = handles.next().expect("replica and primary trees differ"));
        }
        let stats = self.stats;
        primary.visit_bn(&mut |bn| bn.set_stats_mode(stats));
        // Zeroed here, once, and not in the tasks: a task that zeroed a
        // shared accumulator would erase what its partner had added.
        let pairs = &self.pairs[..s_eff / 2];
        for (j, model) in shard_models(&mut *primary, &mut *replicas).step_by(2).enumerate() {
            model.zero_grads();
            if let Some(accs) = pairs.get(j) {
                accs.swap(|f| model.visit_params(f), true);
            }
        }

        let shard_inputs = (0..s_eff).map(|k| (k, shard_of(images, k, m), shard_of(targets, k, m)));

        // One round of shard tasks: forward, per-sample loss, reversible
        // backward, all inside the task so every model's caches live and
        // die on one worker. The round is one `meter::join`, so the step's
        // meter trace (peak, drift-fallback counts, ...) is a sequential
        // run's at any thread count.
        let models = shard_models(&mut *primary, &mut *replicas);
        let mut results = meter::join(models.zip(shard_inputs), |(model, (k, img, tgt))| {
            let logits = meter::time_phase(meter::Phase::Forward, || model.forward(&img, mode));
            if !logits.is_finite() {
                // Don't form the loss (it asserts finiteness); drop the
                // caches so the model is reusable.
                model.clear_cache();
                return ShardResult { logits, losses: Vec::new(), finite: false };
            }
            let (losses, mut dlogits) = softmax_cross_entropy_per_sample(&logits, &tgt, n);
            if faults.nan_grad && k == 0 {
                dlogits.data_mut()[0] = f32::NAN;
            }
            if let Some(f) = faults.bit_flip.filter(|_| k == 0) {
                model.backbone_mut().body_mut().inject_recon_fault(f);
            }
            model.backward(&dlogits);
            ShardResult { logits, losses, finite: true }
        });
        // Every path below writes the primary's values or buffers only
        // after this, so each write finds its buffer unshared and in place.
        for r in replicas.iter_mut() {
            visit_read_state(r, &mut |t| {
                debug_assert!(t.is_shared(), "a shard wrote a parameter value or buffer during its task");
                *t = hole();
            });
        }
        // The tree's levels above the pairs (S >= 4), then the even shards
        // take their gradients back, on the tripped path too.
        meter::time_phase(meter::Phase::Reduce, || par::tree_reduce_serial(pairs.len(), |d, s| pairs[d].add(&pairs[s])));
        for (model, accs) in shard_models(&mut *primary, &mut *replicas).step_by(2).zip(pairs) {
            accs.swap(|f| model.visit_params(f), false);
        }

        let finite = results.iter().all(|r| r.finite);
        let mut sample_losses: Vec<f64> = results.iter().flat_map(|r| r.losses.iter().copied()).collect();
        // Full-batch logits in sample order: a single shard's as they are.
        let logits = if s_eff == 1 {
            results.pop().expect("one shard").logits
        } else {
            let classes = targets.shape().c;
            let mut logits = Tensor::zeros(Shape { n, ..results[0].logits.shape() });
            for (k, r) in results.iter().enumerate() {
                logits.data_mut()[k * m * classes..(k + 1) * m * classes].copy_from_slice(r.logits.data());
            }
            logits
        };

        if !finite {
            // A shard tripped before backward: merge nothing, and hand the
            // primary back with its BatchNorms immediate and nothing
            // recorded or held.
            shard_models(&mut *primary, &mut self.replicas[..s_eff - 1]).for_each(|m| m.clear_cache());
            primary.visit_bn(&mut |bn| bn.set_stats_mode(BnStats::Immediate));
            return ShardStepOutput { logits, loss: 0.0, backward_ran: false, shards_used: s_eff };
        }

        // Mean loss: pairwise tree over the per-sample f64 terms in sample
        // order — the term values and the tree depend only on n, so the
        // result is bitwise invariant to the shard split (and equal to
        // `softmax_cross_entropy`'s over the whole batch).
        par::tree_reduce_serial(n, |d, s| sample_losses[d] += sample_losses[s]);
        let loss = sample_losses.first().copied().unwrap_or(0.0) / n as f64;

        meter::time_phase(meter::Phase::Reduce, || self.merge_bn_stats(primary, n, s_eff));
        primary.visit_bn(&mut |bn| bn.set_stats_mode(BnStats::Immediate));

        ShardStepOutput { logits, loss, backward_ran: true, shards_used: s_eff }
    }

    /// Applies the BN statistics collected by the last [`ShardEngine::step`]
    /// to the primary model's running buffers. Call exactly once per clean
    /// step, after tripwires pass; skipping it on a tripped step leaves
    /// the primary's buffers untouched (no rollback needed).
    pub fn apply_bn_stats(&mut self, primary: &mut RevBiFPNClassifier) {
        let stats = std::mem::take(&mut self.pending_stats);
        let mut it = stats.iter();
        primary.visit_bn(&mut |bn| {
            let (mean, var) = it.next().expect("BN count changed between step and apply");
            bn.apply_global_stats(mean, var);
        });
        assert!(it.next().is_none(), "BN count changed between step and apply");
    }

    /// Drops all replica caches and the step's pending BN statistics. Used
    /// by the trainer's tripwire path alongside the primary's `clear_cache`.
    pub fn clear_replica_caches(&mut self) {
        for r in &mut self.replicas {
            r.clear_cache();
        }
        self.pending_stats.clear();
    }

    /// Collects per-BN global `(mean, var)` pairs: the statistics the
    /// primary held (coupled engine), or the per-sample BN moments recorded
    /// by every shard model merged with a pairwise `f64` tree over the full
    /// batch, in sample order.
    fn merge_bn_stats(&mut self, primary: &mut RevBiFPNClassifier, n: usize, s_eff: usize) {
        if self.stats == BnStats::Held {
            let pending = &mut self.pending_stats;
            primary.visit_bn(&mut |bn| pending.push(bn.take_held().expect("held BN holds no statistics")));
            return;
        }
        let mut per_shard: Vec<Vec<BnMoments>> = Vec::with_capacity(s_eff);
        for model in shard_models(primary, &mut self.replicas[..s_eff - 1]) {
            let mut list = Vec::new();
            model.visit_bn(&mut |bn| {
                list.push(bn.take_moments().expect("decoupled BN recorded no moments"));
            });
            per_shard.push(list);
        }
        for j in 0..per_shard[0].len() {
            // Global sample-major moment table: shard k's samples land at
            // rows [k*m, (k+1)*m), restoring batch order.
            let table = concat_moments(per_shard.iter().map(|shard| &shard[j]));
            self.pending_stats.push(reduce_moments(n, table));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revbifpn::RevBiFPNConfig;
    use revbifpn_data::{SynthScale, SynthScaleConfig};
    use revbifpn_nn::loss::{label_smooth, one_hot};

    /// The address of every `value`, `grad` and buffer, the value and
    /// buffer bits, and how many values and buffers are still shared.
    fn primary_state(m: &mut RevBiFPNClassifier) -> (Vec<*const f32>, Vec<u32>, usize) {
        let (mut ptrs, mut bits, mut shared) = (Vec::new(), Vec::new(), 0);
        m.visit_params(&mut |p| ptrs.push(p.grad.data().as_ptr()));
        visit_read_state(m, &mut |t| {
            ptrs.push(t.data().as_ptr());
            bits.extend(t.data().iter().map(|v| v.to_bits()));
            shared += usize::from(t.is_shared());
        });
        (ptrs, bits, shared)
    }

    #[test]
    fn step_hands_the_primary_back_as_its_owner_left_it() {
        let data = SynthScale::new(SynthScaleConfig::new(32), 5);
        let (images, labels) = data.batch(0, 8);
        let targets = label_smooth(&one_hot(&labels, data.num_classes()), 0.1);
        // A NaN in the last sample makes the last shard's logits non-finite:
        // the primary's own at S = 0 and S = 1, a replica's (after the
        // primary ran its backward) at S = 2.
        let mut poisoned = images.clone();
        *poisoned.data_mut().last_mut().expect("non-empty batch") = f32::NAN;
        let bit_flip = ReconFault { stage: 1, stream: 0, index: 3, bit: 30 };
        let steps = [
            ("clean", &images, ShardStepFaults::default(), true),
            ("non-finite", &poisoned, ShardStepFaults::default(), false),
            ("nan_grad", &images, ShardStepFaults { nan_grad: true, bit_flip: None }, true),
            ("bit_flip", &images, ShardStepFaults { nan_grad: false, bit_flip: Some(bit_flip) }, true),
        ];
        for shards in [0, 1, 2] {
            let mut model = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(data.num_classes()));
            let mut engine = ShardEngine::new(model.cfg(), shards, DriftConfig::default());
            let before = primary_state(&mut model);
            for (what, x, faults, backward_ran) in &steps {
                let label = format!("S={shards} {what}");
                let out = engine.step(&mut model, x, &targets, RunMode::TrainReversible, faults);
                assert_eq!(out.backward_ran, *backward_ran, "{label}");
                model.visit_bn(&mut |bn| {
                    assert_eq!(bn.stats_mode(), BnStats::Immediate, "{label}: a primary BN kept the step's mode");
                    assert!(bn.take_moments().is_none(), "{label}: a primary BN kept its moments");
                    assert!(bn.take_held().is_none(), "{label}: a primary BN kept its statistics");
                });
                assert_eq!(engine.pending_stats.is_empty(), !backward_ran, "{label}: statistics pending");
                let (ptrs, bits, shared) = primary_state(&mut model);
                assert!(ptrs == before.0, "{label}: a value, grad or buffer was reallocated");
                assert!(bits == before.1, "{label}: the step changed a parameter value or buffer");
                assert_eq!(shared, 0, "{label}: a primary value or buffer is still shared");
                assert_eq!(engine.replicas.len(), shards.saturating_sub(1), "{label}");
                for r in &mut engine.replicas {
                    visit_read_state(r, &mut |t| assert!(t.data().is_empty(), "{label}: a replica holds values"));
                    r.visit_params(&mut |p| assert!(p.grad.data().is_empty(), "{label}: a replica holds gradients"));
                }
            }
        }
    }

    /// Two parameters linked to one accumulator, in both arrival orders and
    /// through both writes (a whole-tensor `accumulate`, the slab tree's
    /// root add), against the plain add of two owned gradients: the
    /// same bits for random values, subnormals, every signed-zero pair,
    /// exact cancellations and overflow. NaN payloads are exempt: a NaN
    /// reaches only a tripped step, which the trainer discards.
    #[test]
    fn a_pair_sharing_one_accumulator_adds_like_the_tree() {
        use rand::{rngs::StdRng, SeedableRng};
        use revbifpn_nn::Param;
        let mut rng = StdRng::seed_from_u64(11);
        let [mut a, mut b] = [0, 1].map(|_| Tensor::randn(Shape::vector(256), 3.0, &mut rng).data().to_vec());
        let sub = [f32::from_bits(1), f32::from_bits(0x007f_ffff), -f32::from_bits(0x0040_0000), f32::MIN_POSITIVE];
        for (x, y) in sub.iter().flat_map(|&x| sub.iter().map(move |&y| (x, y))) {
            a.push(x);
            b.push(y);
        }
        for (x, y) in [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (1.5, -1.5), (-0.0, 2.0), (f32::MAX, f32::MAX)] {
            a.push(x);
            b.push(y);
        }
        let len = a.len();
        let shape = Shape::vector(len);
        let g = [a, b].map(|v| Tensor::from_vec(shape, v).expect("shape"));
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        let [mut a, b] = [0, 1].map(|k| {
            let mut p = Param::zeros(shape, false, "w");
            p.accumulate(&g[k]);
            p.grad
        });
        for (x, y) in a.data_mut().iter_mut().zip(b.data()) {
            *x += *y;
        }
        let want = bits(&a);

        for order in [[0, 1], [1, 0]] {
            for through_slabs in [false, true] {
                // As a step pairs them: the even model lends its zeroed
                // gradient, the odd one owns none and is linked.
                let mut ps = [Param::zeros(shape, false, "w"), without_grads(|| Param::zeros(shape, false, "w"))];
                let accs = SharedGrads::link(|f| f(&mut ps[1]));
                accs.swap(|f| f(&mut ps[0]), true);
                for k in order {
                    if through_slabs {
                        let (_, sink) = ps[k].value_and_sink();
                        par::tree_reduce_with_slabs(1, 1, len, sink, |_, _, slab| slab.copy_from_slice(g[k].data()));
                    } else {
                        ps[k].accumulate(&g[k]);
                    }
                }
                assert!(ps.iter().all(|p| p.grad.data().is_empty()), "a linked parameter wrote its own grad");
                accs.swap(|f| f(&mut ps[0]), false);
                assert!(bits(&ps[0].grad) == want, "order {order:?}, through slabs {through_slabs}");
            }
        }
    }

    #[test]
    fn step_loss_is_softmax_cross_entropy_bitwise() {
        let data = SynthScale::new(SynthScaleConfig::new(32), 5);
        let mut model = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(data.num_classes()));
        for shards in [0, 2] {
            let mut engine = ShardEngine::new(model.cfg(), shards, DriftConfig::default());
            for n in [1, 3, 4, 16] {
                let (images, labels) = data.batch(0, n);
                let targets = label_smooth(&one_hot(&labels, data.num_classes()), 0.1);
                let out = engine.step(&mut model, &images, &targets, RunMode::TrainReversible, &ShardStepFaults::default());
                let (loss, _) = revbifpn_nn::loss::softmax_cross_entropy(&out.logits, &targets);
                assert_eq!(out.loss.to_bits(), loss.to_bits(), "S={shards} n={n}: {} vs {loss}", out.loss);
            }
        }
    }
}
