//! Data-parallel sharded training step: micro-batch shards run forward +
//! reversible backward on persistent model replicas, and the per-shard
//! gradients are merged with a pairwise tree so the result is **bitwise
//! invariant to the shard count and the thread count**.
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
//!   layer (conv, linear, decoupled BN), and [`ShardEngine::step`] merges
//!   the shard gradients with the stride tree;
//! * the loss: per-sample `f64` cross-entropy terms are tree-summed over
//!   the full batch in sample order (sample order is shard-independent);
//! * BatchNorm statistics: replicas run in *decoupled* mode — they
//!   normalize with the pre-step running statistics (making every sample's
//!   activations independent of its batch neighbours) and record per-sample
//!   `f64` moments, which the engine tree-merges globally and applies to
//!   the primary model once the step is known to be clean.
//!
//! The engine requires `dropout == 0` and `drop_path == 0`: stochastic
//! layers draw from a batch-order-dependent RNG stream, which would break
//! the per-sample-independence property everything above rests on.

use crate::reduce::{concat_moments, effective_split, reduce_moments, slice_batch, tree_merge_slabs};
use revbifpn::{RevBiFPNClassifier, RunMode};
use revbifpn_nn::layers::BnMoments;
use revbifpn_nn::loss::softmax_cross_entropy_per_sample;
use revbifpn_nn::meter;
use revbifpn_rev::{DriftConfig, ReconFault};
use revbifpn_tensor::{par, Shape, Tensor};

/// Faults to inject into one sharded step (mirrors the serial trainer's
/// fault points; see [`crate::FaultPlan`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStepFaults {
    /// Poison the first logit gradient of shard 0 (sample 0, class 0) with
    /// a NaN after the loss is formed — the sharded analogue of the serial
    /// trainer's `Fault::NanGrad`.
    pub nan_grad: bool,
    /// Flip a bit in a reconstructed activation on replica 0 (the sharded
    /// analogue of `Fault::BitFlip`).
    pub bit_flip: Option<ReconFault>,
}

/// What one sharded step produced.
#[derive(Debug)]
pub struct ShardStepOutput {
    /// Full-batch logits, assembled in sample order.
    pub logits: Tensor,
    /// Mean cross-entropy loss (pairwise tree over per-sample terms, in
    /// sample order, divided by the batch size). Zero when `backward_ran`
    /// is false.
    pub loss: f64,
    /// `false` when a shard saw non-finite logits: the loss was not formed
    /// and no gradients were merged into the primary model. The caller's
    /// tripwire should skip the step (or reproduce the serial panic).
    pub backward_ran: bool,
    /// Number of shards the batch was actually split into (collapses to 1
    /// when the batch size is incompatible with the configured count).
    pub shards_used: usize,
}

/// Per-shard task result, produced under [`meter::isolated`].
struct ShardResult {
    logits: Tensor,
    losses: Vec<f64>,
    finite: bool,
}

/// Persistent data-parallel step engine.
///
/// Holds one model replica per shard plus reusable staging buffers, so the
/// per-step cost is copies (parameter sync, gradient gather) and not
/// allocation. The primary model owned by the caller remains the source of
/// truth: replicas are re-synced from it at the start of every step, and
/// only the primary receives merged gradients, BN statistics, optimizer
/// updates, and checkpoints.
#[derive(Debug)]
pub struct ShardEngine {
    replicas: Vec<RevBiFPNClassifier>,
    shards: usize,
    /// Primary parameter/buffer values staged for broadcast (reused).
    param_src: Vec<Tensor>,
    buffer_src: Vec<Tensor>,
    /// Per-shard gradient staging buffers (reused; also the tree scratch).
    shard_grads: Vec<Vec<Tensor>>,
    /// Per-BN `(mean, var)` computed by the last step, awaiting
    /// [`ShardEngine::apply_bn_stats`].
    pending_stats: Vec<(Tensor, Tensor)>,
}

impl ShardEngine {
    /// Builds an engine with `shards` replicas of the model described by
    /// `cfg`, configured for deterministic sharding (decoupled BN, drift
    /// sentinel matching the trainer's resilience settings).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or not a power of two, or if the config
    /// enables stochastic regularization (see module docs).
    pub fn new(cfg: &revbifpn::RevBiFPNConfig, shards: usize, drift: DriftConfig) -> Self {
        assert!(shards >= 1 && shards.is_power_of_two(), "shard count must be a power of two, got {shards}");
        assert!(
            cfg.dropout == 0.0 && cfg.drop_path == 0.0,
            "sharded training requires dropout == 0 and drop_path == 0 \
             (stochastic layers depend on batch order)"
        );
        let replicas = (0..shards)
            .map(|_| {
                let mut r = RevBiFPNClassifier::new(cfg.clone());
                r.backbone_mut().body_mut().set_drift_config(drift);
                r.visit_bn(&mut |bn| bn.set_decoupled(true));
                r
            })
            .collect();
        Self {
            replicas,
            shards,
            param_src: Vec::new(),
            buffer_src: Vec::new(),
            shard_grads: vec![Vec::new(); shards],
            pending_stats: Vec::new(),
        }
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Runs one sharded training step against the primary model.
    ///
    /// Broadcasts the primary's parameters and buffers to the replicas,
    /// runs forward + loss + backward on each micro-batch shard as one
    /// pool task, then tree-merges per-shard gradients into the primary's
    /// `grad` slots (overwriting them, like `zero_grads` + `backward`).
    /// BN statistics are merged but **not** applied — call
    /// [`ShardEngine::apply_bn_stats`] once the step passes the caller's
    /// tripwires.
    pub fn step(
        &mut self,
        primary: &mut RevBiFPNClassifier,
        images: &Tensor,
        targets: &Tensor,
        mode: RunMode,
        faults: &ShardStepFaults,
    ) -> ShardStepOutput {
        assert!(mode != RunMode::Eval, "sharded step requires a training mode");
        let n = images.shape().n;
        assert_eq!(targets.shape().n, n, "images/targets batch mismatch");
        let s_eff = effective_split(n, self.shards);
        let m = n / s_eff;
        self.pending_stats.clear();

        self.broadcast(primary);
        if let Some(f) = faults.bit_flip {
            self.replicas[0].backbone_mut().body_mut().inject_recon_fault(f);
        }

        // Slice the batch into contiguous per-shard tensors (sample-major,
        // so shard k owns samples [k*m, (k+1)*m)).
        let mut shard_inputs: Vec<(Tensor, Tensor)> = (0..s_eff)
            .map(|k| (slice_batch(images, k * m, m), slice_batch(targets, k * m, m)))
            .collect();

        // One round of shard tasks: forward, per-sample loss, reversible
        // backward — all inside the task so every replica's caches live and
        // die on one worker, with meter effects fenced by `isolated`.
        let mut slots: Vec<Option<(ShardResult, meter::TaskMeter)>> =
            (0..s_eff).map(|_| None).collect();
        {
            let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(s_eff);
            for (k, ((replica, slot), (img, tgt))) in self.replicas[..s_eff]
                .iter_mut()
                .zip(slots.iter_mut())
                .zip(shard_inputs.drain(..))
                .enumerate()
            {
                let poison = faults.nan_grad && k == 0;
                tasks.push(Box::new(move || {
                    *slot = Some(meter::isolated(|| {
                        let logits = meter::time_phase(meter::Phase::Forward, || {
                            replica.forward(&img, mode)
                        });
                        if !logits.is_finite() {
                            // Don't form the loss (it asserts finiteness);
                            // drop the caches so the replica is reusable.
                            replica.clear_cache();
                            return ShardResult { logits, losses: Vec::new(), finite: false };
                        }
                        let (losses, mut dlogits) =
                            softmax_cross_entropy_per_sample(&logits, &tgt, n);
                        if poison {
                            dlogits.data_mut()[0] = f32::NAN;
                        }
                        replica.zero_grads();
                        replica.backward(&dlogits);
                        ShardResult { logits, losses, finite: true }
                    }));
                }));
            }
            par::parallel_join(tasks);
        }

        // Absorb meter deltas in shard order: the dispatcher's byte/event
        // trace (peak, drift-fallback counts, ...) is then identical to a
        // sequential run of the shards, independent of thread count.
        let results: Vec<ShardResult> = slots
            .into_iter()
            .map(|s| {
                let (r, tm) = s.expect("shard task did not run");
                meter::absorb(&tm);
                r
            })
            .collect();

        // Reassemble full-batch logits in sample order.
        let classes = targets.shape().c;
        let mut logits = Tensor::zeros(Shape { n, ..results[0].logits.shape() });
        for (k, r) in results.iter().enumerate() {
            logits.data_mut()[k * m * classes..(k + 1) * m * classes]
                .copy_from_slice(r.logits.data());
        }

        if results.iter().any(|r| !r.finite) {
            // A shard tripped before backward; leave primary grads alone.
            for r in &mut self.replicas[..s_eff] {
                r.clear_cache();
            }
            return ShardStepOutput { logits, loss: 0.0, backward_ran: false, shards_used: s_eff };
        }

        // Mean loss: pairwise tree over the per-sample f64 terms in sample
        // order — the term values and the tree depend only on n, so the
        // result is bitwise invariant to the shard split.
        let mut sample_losses: Vec<f64> = Vec::with_capacity(n);
        for r in &results {
            sample_losses.extend_from_slice(&r.losses);
        }
        par::tree_reduce_serial(n, |d, s| sample_losses[d] += sample_losses[s]);
        let loss = sample_losses.first().copied().unwrap_or(0.0) / n as f64;

        meter::time_phase(meter::Phase::Reduce, || {
            self.merge_grads(primary, s_eff);
            self.merge_bn_stats(n, s_eff);
        });

        ShardStepOutput { logits, loss, backward_ran: true, shards_used: s_eff }
    }

    /// Applies the BN statistics merged by the last [`ShardEngine::step`]
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

    /// Drops all replica caches (pending BN moments included). Used by the
    /// trainer's tripwire path alongside the primary's `clear_cache`.
    pub fn clear_replica_caches(&mut self) {
        for r in &mut self.replicas {
            r.clear_cache();
        }
        self.pending_stats.clear();
    }

    /// Copies the primary's parameters and persistent buffers into every
    /// replica. Staging tensors are allocated on first use and reused, so
    /// steady-state steps are copy-only.
    fn broadcast(&mut self, primary: &mut RevBiFPNClassifier) {
        if self.param_src.is_empty() {
            primary.visit_params(&mut |p| self.param_src.push(p.value.clone()));
            primary.visit_buffers(&mut |t| self.buffer_src.push(t.clone()));
        } else {
            let mut i = 0;
            primary.visit_params(&mut |p| {
                self.param_src[i].data_mut().copy_from_slice(p.value.data());
                i += 1;
            });
            let mut j = 0;
            primary.visit_buffers(&mut |t| {
                self.buffer_src[j].data_mut().copy_from_slice(t.data());
                j += 1;
            });
        }
        for r in &mut self.replicas {
            let mut i = 0;
            r.visit_params(&mut |p| {
                p.value.data_mut().copy_from_slice(self.param_src[i].data());
                i += 1;
            });
            let mut j = 0;
            r.visit_buffers(&mut |t| {
                t.data_mut().copy_from_slice(self.buffer_src[j].data());
                j += 1;
            });
        }
    }

    /// Gathers each shard's parameter gradients and merges them with the
    /// pairwise stride tree, writing the root into the primary's `grad`
    /// slots. With per-shard gradients being aligned subtrees of the
    /// global per-sample tree, the merged result is bitwise identical to a
    /// single-shard run.
    fn merge_grads(&mut self, primary: &mut RevBiFPNClassifier, s_eff: usize) {
        for k in 0..s_eff {
            let grads = &mut self.shard_grads[k];
            if grads.is_empty() {
                self.replicas[k].visit_params(&mut |p| grads.push(p.grad.clone()));
            } else {
                let mut i = 0;
                self.replicas[k].visit_params(&mut |p| {
                    grads[i].data_mut().copy_from_slice(p.grad.data());
                    i += 1;
                });
            }
        }
        tree_merge_slabs(&mut self.shard_grads[..s_eff]);
        let mut i = 0;
        primary.visit_params(&mut |p| {
            p.grad.data_mut().copy_from_slice(self.shard_grads[0][i].data());
            i += 1;
        });
    }

    /// Collects the per-sample BN moments recorded by every replica and
    /// merges them into per-BN global `(mean, var)` pairs with a pairwise
    /// `f64` tree over the full batch, in sample order.
    fn merge_bn_stats(&mut self, n: usize, s_eff: usize) {
        let mut per_shard: Vec<Vec<BnMoments>> = Vec::with_capacity(s_eff);
        for r in &mut self.replicas[..s_eff] {
            let mut list = Vec::new();
            r.visit_bn(&mut |bn| {
                list.push(bn.take_moments().expect("decoupled BN recorded no moments"));
            });
            per_shard.push(list);
        }
        let num_bns = per_shard[0].len();
        for j in 0..num_bns {
            // Global sample-major moment table: shard k's samples land at
            // rows [k*m, (k+1)*m), restoring batch order.
            let table = concat_moments(per_shard.iter().map(|shard| &shard[j]));
            self.pending_stats.push(reduce_moments(n, table));
        }
    }
}
