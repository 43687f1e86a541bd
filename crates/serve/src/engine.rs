//! The serving engine: worker pool, batch assembly, panic bisection,
//! degradation routing, and the watchdog.
//!
//! Ownership layout: all cross-thread state lives in one `Arc<Shared>`.
//! Worker threads own their model replicas outright as a [`ModelBank`] of
//! *frozen* models ([`revbifpn::FrozenClassifier`]): BN folded into the
//! convs, activations in the GEMM epilogues, weight panels pre-packed once
//! at freeze time. Replicas are built from the same seeded config, so every
//! worker holds identical weights. The watchdog owns nothing but the `Arc`
//! and the right to replace worker slots.

use crate::batcher::{BatchConfig, Batcher, BucketKey};
use crate::cost::{CostKey, CostModel};
use crate::degrade::{downscale_rung, DegradeConfig, DegradeController};
use crate::error::{ReloadError, ServeError};
use crate::health::BucketHealth;
use crate::governor::{GovernorConfig, MemoryGovernor, PanelKey, Reserve};
use crate::health::{Counters, HealthSnapshot, LatencyWindow, TenantHealth};
use crate::queue::BoundedQueue;
use crate::request::{InferResponse, Outcome, PendingResponse, Ticket};
use crate::tenant::{
    BreakerConfig, BreakerDecision, CircuitBreaker, QuotaScope, TenantId, TenantQuota,
    TenantStats, TokenBucket,
};
use crate::validate::{Quarantine, ValidationPolicy};
use revbifpn::artifact::load_classifier_artifact;
use revbifpn::{FrozenClassifier, RevBiFPNClassifier, RevBiFPNConfig};
use revbifpn_nn::artifact::{prune_quarantine, quarantine_path, rename_with_retries};
use revbifpn_nn::{meter, FrozenTree};
use revbifpn_tensor::{try_resize, ResizeMode, Shape, Tensor};
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Numeric precision a model variant is served at.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Precision {
    /// f32 fused kernels (the PR-4 frozen fast path).
    #[default]
    F32,
    /// Per-output-channel int8 weights, run by the f32 kernels with f32
    /// activations, so an answer does not depend on its batch neighbours;
    /// falls back to [`Precision::F32`] when the accuracy gate trips.
    Int8,
}

/// Accuracy gate applied before an [`Precision::Int8`] variant is allowed
/// to serve: the int8 model must agree with its f32 twin on a batch of
/// seeded calibration inputs, otherwise the worker keeps f32 and counts
/// `serve.quant_gate_trip`.
#[derive(Clone, Copy, Debug)]
pub struct QuantGateConfig {
    /// Calibration images generated (deterministically) per gate check.
    pub calibration_images: usize,
    /// Minimum fraction of calibration images whose argmax must match
    /// between the int8 and f32 variants. Values above 1.0 always trip the
    /// gate (test hook).
    pub min_agreement: f64,
}

impl Default for QuantGateConfig {
    fn default() -> Self {
        Self { calibration_images: 8, min_agreement: 0.75 }
    }
}

/// Everything needed to start a [`ServeEngine`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Primary model variant served at level 0..=2.
    pub model: RevBiFPNConfig,
    /// Optional smaller variant served at degradation level 3.
    pub fallback: Option<RevBiFPNConfig>,
    /// Precision the primary variant is served at.
    pub precision: Precision,
    /// Precision the fallback variant is served at.
    pub fallback_precision: Precision,
    /// Accuracy gate for [`Precision::Int8`] variants.
    pub quant_gate: QuantGateConfig,
    /// Worker threads (each owns a model replica).
    pub workers: usize,
    /// Bounded queue capacity; admissions beyond it are shed.
    pub queue_capacity: usize,
    /// Largest batch a worker assembles at level 0. At degradation
    /// level 1 and deeper the effective cap comes from the cost model
    /// when calibrated (see [`effective_max_batch`]), else falls back to
    /// halving.
    pub max_batch: usize,
    /// Continuous-batching knobs: linger, deadline closing margin, and the
    /// freeze-time cost-model calibration switch.
    pub batch: BatchConfig,
    /// Default per-request deadline, milliseconds from admission.
    pub default_timeout_ms: u64,
    /// Validation bound on input magnitude.
    pub max_abs_input: f32,
    /// Degradation-ladder thresholds.
    pub degrade: DegradeConfig,
    /// Watchdog poll period, milliseconds.
    pub watchdog_poll_ms: u64,
    /// A worker whose heartbeat is older than this is declared stalled and
    /// replaced.
    pub stall_limit_ms: u64,
    /// Capacity of the rejected-payload quarantine ring.
    pub quarantine_capacity: usize,
    /// Latency samples retained for the p50/p99 window.
    pub latency_window: usize,
    /// Restart-storm window: worker restarts within this many milliseconds
    /// count against [`ServeConfig::max_restarts_per_window`].
    pub restart_window_ms: u64,
    /// Restarts a slot may consume inside one window before the watchdog
    /// retires it as lost ([`ServeError::WorkerLost`]).
    pub max_restarts_per_window: u32,
    /// Base delay between consecutive restarts of the same slot,
    /// milliseconds; doubles per restart while the storm persists.
    pub restart_backoff_ms: u64,
    /// Quota applied to tenants without an explicit entry in
    /// [`ServeConfig::tenant_quotas`] (including [`TenantId::DEFAULT`]).
    /// The default is fully permissive, so single-tenant deployments never
    /// notice the quota layer.
    pub default_quota: TenantQuota,
    /// Per-tenant quota overrides installed at startup (later updates via
    /// [`ServeEngine::set_tenant_quota`]).
    pub tenant_quotas: Vec<(TenantId, TenantQuota)>,
    /// Per-tenant circuit-breaker thresholds. The default `trip_ratio`
    /// here is above 1.0, i.e. breakers never trip unless explicitly
    /// configured — opting multi-tenant deployments in, leaving
    /// single-tenant behavior untouched.
    pub breaker: BreakerConfig,
    /// Resident packed-panel byte budget across all workers' `ModelBank`s
    /// (0 = unlimited). Under a budget, cold variants' panels are
    /// LRU-evicted and re-frozen on demand; without one, a variant swap
    /// eagerly drops the other variant's panels (the pre-governor
    /// behavior).
    pub memory_budget_bytes: u64,
    /// When non-zero, bank variants idle at least this long are evicted
    /// proactively by the watchdog, not just under budget pressure.
    pub cold_after_ms: u64,
    /// Quarantined (`.corrupt`) artifacts retained next to the artifact
    /// path; older ones are pruned after each new quarantine.
    pub quarantine_keep: usize,
}

impl ServeConfig {
    /// Defaults around a model config; fields are public for tuning.
    pub fn new(model: RevBiFPNConfig) -> Self {
        Self {
            model,
            fallback: None,
            precision: Precision::F32,
            fallback_precision: Precision::F32,
            quant_gate: QuantGateConfig::default(),
            workers: 2,
            queue_capacity: 32,
            max_batch: 4,
            batch: BatchConfig::default(),
            default_timeout_ms: 2_000,
            max_abs_input: 64.0,
            degrade: DegradeConfig::default(),
            watchdog_poll_ms: 20,
            stall_limit_ms: 2_000,
            quarantine_capacity: 64,
            latency_window: 256,
            restart_window_ms: 10_000,
            max_restarts_per_window: 5,
            restart_backoff_ms: 25,
            default_quota: TenantQuota::default(),
            tenant_quotas: Vec::new(),
            // trip_ratio > 1.0 can never be reached: breakers are inert
            // until a deployment opts in with a real ratio.
            breaker: BreakerConfig { trip_ratio: 1.1, ..BreakerConfig::default() },
            memory_budget_bytes: 0,
            cold_after_ms: 0,
            quarantine_keep: 8,
        }
    }
}

/// A hot-reloaded model generation, shared read-only across workers.
///
/// Workers hold an `Arc` clone while serving, so in-flight batches finish
/// on the generation they started on even if a newer one is published
/// mid-batch; the old mapping is unmapped when the last `Arc` drops.
struct Published {
    model: FrozenClassifier,
    digest: u64,
}

/// What [`ServeEngine::reload_artifact`] reports on success.
#[derive(Clone, Debug, PartialEq)]
pub struct ReloadReport {
    /// Generation number the new model was published under.
    pub generation: u64,
    /// Content digest of the artifact (FNV-1a over TOC + structure).
    pub digest: u64,
    /// Whether the weights are served straight out of the file mapping.
    pub mapped: bool,
    /// Calibration argmax agreement against the previously published
    /// generation, when there was one to compare against.
    pub agreement: Option<f64>,
}

/// What [`ServeEngine::drain`] reports.
#[derive(Clone, Debug, PartialEq)]
pub struct DrainStats {
    /// `true` when the queue emptied before the deadline.
    pub drained_in_time: bool,
    /// Requests still queued at the deadline, each answered with
    /// [`ServeError::ShuttingDown`] — never silently dropped.
    pub flushed: usize,
}

/// Per-tenant live state: quota machinery plus accounting. Lives behind
/// one Mutex keyed by tenant — admission takes the lock once, outcome
/// settlement once; both critical sections are a few arithmetic ops.
struct TenantState {
    quota: TenantQuota,
    bucket: TokenBucket,
    breaker: CircuitBreaker,
    in_flight: u32,
    stats: TenantStats,
}

impl TenantState {
    fn new(quota: TenantQuota, breaker: BreakerConfig, now_ms: u64) -> Self {
        Self {
            quota,
            bucket: TokenBucket::new(&quota, now_ms),
            breaker: CircuitBreaker::new(breaker),
            in_flight: 0,
            stats: TenantStats::default(),
        }
    }
}

/// State shared by clients, workers, and the watchdog.
struct Shared {
    cfg: ServeConfig,
    queue: BoundedQueue,
    policy: ValidationPolicy,
    quarantine: Quarantine,
    degrade: DegradeController,
    latency: LatencyWindow,
    counters: Arc<Counters>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    start: Instant,
    /// Per-slot wall-clock heartbeat (ms since `start`).
    heartbeats: Vec<AtomicU64>,
    /// Per-slot generation; a worker exits when its generation is stale.
    generations: Vec<AtomicU64>,
    /// Test hook: a set flag makes the slot's worker panic outside the
    /// batch `catch_unwind`, killing the thread (watchdog must recover).
    crash_flags: Vec<AtomicBool>,
    /// Test hook: milliseconds the slot's worker should sleep without
    /// heart-beating (stall simulation; watchdog must replace it).
    stall_flags: Vec<AtomicU64>,
    /// Test hook: a sticky crash flag makes the slot's worker panic on
    /// *every* loop pass, so replacements die too — the restart-storm case.
    sticky_crash_flags: Vec<AtomicBool>,
    /// Slots the watchdog has permanently retired after a restart storm.
    lost_flags: Vec<AtomicBool>,
    /// Count of retired slots; admission fails once all slots are lost.
    lost_slots: AtomicUsize,
    /// The hot-reloaded model generation currently published, if any.
    /// `None` means workers serve the config-frozen baseline.
    published: Mutex<Option<Arc<Published>>>,
    /// Monotone generation counter; workers re-fetch `published` when this
    /// differs from the generation they last loaded.
    model_generation: AtomicU64,
    /// Graceful drain in progress: admission refuses with `ShuttingDown`
    /// but workers keep flushing the queue.
    draining: AtomicBool,
    /// Per-tenant quota/breaker state, created lazily on first submit.
    tenants: Mutex<BTreeMap<TenantId, TenantState>>,
    /// Shared packed-panel byte ledger all `ModelBank`s freeze through.
    governor: Arc<MemoryGovernor>,
    /// The continuous batcher between the tenant queue and the workers.
    batcher: Batcher,
    /// Affine service-time estimates per (variant, precision, rung),
    /// seeded at freeze time and refined from observed batch timings.
    cost: Arc<CostModel>,
    workers: Mutex<Vec<Option<JoinHandle<()>>>>,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Runs `f` on the (lazily created) state for `tenant`.
    fn with_tenant<R>(&self, tenant: TenantId, f: impl FnOnce(&mut TenantState) -> R) -> R {
        let now_ms = self.now_ms();
        let mut tenants = self.tenants.lock().unwrap();
        let state = tenants
            .entry(tenant)
            .or_insert_with(|| TenantState::new(self.cfg.default_quota, self.cfg.breaker, now_ms));
        f(state)
    }
}

/// Settles one post-admission ticket: tenant accounting, breaker feedback,
/// then outcome delivery. EVERY path that resolves an admitted ticket goes
/// through here — deliver, bisection, deadline sheds (dequeue and sweep),
/// drain flushes, and the watchdog's all-lost flush — so the in-flight
/// ledger and breaker windows can never leak.
fn finish(shared: &Shared, ticket: Ticket, outcome: Outcome) {
    let now_ms = shared.now_ms();
    shared.with_tenant(ticket.tenant, |st| {
        st.in_flight = st.in_flight.saturating_sub(1);
        match &outcome {
            Ok(_) => {
                st.stats.completed += 1;
                st.breaker.record(false, ticket.probe, now_ms);
            }
            // Worker-burning failures feed the breaker: the tenant's
            // payloads panicked, missed deadlines, failed batch assembly,
            // or rode a worker down.
            Err(
                ServeError::Poisoned
                | ServeError::WorkerLost
                | ServeError::DeadlineExceeded { .. }
                | ServeError::InvalidShape(_),
            ) => {
                st.stats.failed += 1;
                st.breaker.record(true, ticket.probe, now_ms);
            }
            // Shutdown/global sheds say nothing about the tenant; just
            // hand a probe slot back if this was one.
            Err(_) => {
                if ticket.probe {
                    st.breaker.release_probe();
                }
            }
        }
    });
    ticket.respond(outcome);
}

/// The cost key describing the serving context the engine would dispatch a
/// request under *right now*: variant and precision from the config plus
/// the current degradation level, rung from the level's target resolution.
///
/// Precision is the *configured* one even when the quantization gate trips
/// back to f32 at freeze time — the key labels the serving intent, and
/// calibration/observation both use the same labeling, so the fits stay
/// coherent (documented skew: a tripped gate serves f32 under the int8
/// label).
fn serving_cost_key(cfg: &ServeConfig, level: u8) -> CostKey {
    let use_fallback = level >= 3 && cfg.fallback.is_some();
    let (variant, precision, base_res) = if use_fallback {
        let fb = cfg.fallback.as_ref().expect("checked above");
        (1u8, cfg.fallback_precision, fb.resolution)
    } else {
        (0u8, cfg.precision, cfg.model.resolution)
    };
    let rung = if !use_fallback && level >= 2 {
        downscale_rung(&cfg.model).unwrap_or(base_res)
    } else {
        base_res
    };
    CostKey { variant, precision, rung: rung as u16 }
}

/// End-to-end latency estimate for a newly admitted request, ms:
/// its own single-item dispatch (`a + c` from the calibrated fit) plus
/// the `backlog` items already waiting, each costing the marginal
/// per-item time amortized across the `workers` pool (the per-flush
/// setup cost amortizes across batches and is charged only once, on the
/// request's own dispatch). `None` until the key is calibrated —
/// uncalibrated contexts must admit everything.
fn predict_with_backlog(
    cost: &CostModel,
    key: &CostKey,
    backlog: usize,
    workers: usize,
) -> Option<f64> {
    let own = cost.predict_ms(key, 1)?;
    let marginal = cost.marginal_ms(key).unwrap_or(0.0);
    Some(own + marginal * backlog as f64 / workers.max(1) as f64)
}

/// The batch-size cap the degradation ladder imposes at `level`.
///
/// Level 0 serves the configured `max_batch`. At level >= 1 the ladder's
/// batch-shrink rung consults the cost model: the cap becomes the
/// cost-optimal batch (the knee where amortized dispatch overhead falls
/// below `overhead_frac` of the marginal item cost) — usually smaller than
/// the configured cap, and never larger. Uncalibrated keys fall back to the
/// classic unconditional halving.
pub fn effective_max_batch(
    cost: &CostModel,
    key: &CostKey,
    level: u8,
    configured: usize,
    overhead_frac: f64,
) -> usize {
    let configured = configured.max(1);
    if level == 0 {
        return configured;
    }
    match cost.optimal_batch(key, configured, overhead_frac) {
        Some(b) => b,
        None => (configured / 2).max(1),
    }
}

/// One-shot freeze-time calibration: time single-image and 4-image
/// forwards on deterministic calibration inputs and seed the cost model
/// with the implied affine fit. Seeding is only-if-absent, so a second
/// worker freezing the same variant (or a reload re-publishing it) never
/// clobbers an online-refined fit.
fn calibrate_service_time(cost: &CostModel, key: CostKey, model: &FrozenClassifier) {
    if cost.has(&key) {
        return;
    }
    let res = model.cfg().resolution;
    let one = calibration_batch(1, res);
    let four = calibration_batch(4, res);
    // Warmup pass: first-touch page faults and lazily allocated scratch
    // would otherwise pollute the intercept.
    let _ = model.forward(&one);
    let t0 = Instant::now();
    let _ = model.forward(&one);
    let t1 = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let _ = model.forward(&four);
    let t4 = t0.elapsed().as_secs_f64() * 1e3;
    let c = ((t4 - t1) / 3.0).max(1e-6);
    let a = (t1 - c).max(0.0);
    cost.seed(key, a, c);
    meter::count("serve.cost_calibrated");
}

/// A running inference engine. Submit with [`ServeEngine::submit`], poll
/// with [`ServeEngine::health`], stop with [`ServeEngine::shutdown`] (also
/// runs on drop).
pub struct ServeEngine {
    shared: Arc<Shared>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
}

impl ServeEngine {
    /// Tag value that makes the batch runner panic on the tagged request —
    /// the test hook behind the panic-isolation soak.
    pub const POISON_TAG: u64 = 0xDEAD_BEEF;

    /// Builds replicas, spawns the worker pool and the watchdog.
    ///
    /// # Panics
    ///
    /// Panics if the model (or fallback) configuration fails
    /// [`RevBiFPNConfig::validate`] — a construction-time error, not a
    /// serving-path one.
    pub fn start(cfg: ServeConfig) -> Self {
        let shared = Self::build_shared(cfg);
        Self::spawn_threads(shared)
    }

    /// Like [`ServeEngine::start`], but publishes a pre-frozen artifact as
    /// generation 1 *before* the workers spawn. Workers then skip the
    /// expensive config freeze entirely and serve straight off the file
    /// mapping — the millisecond cold-start path.
    ///
    /// # Errors
    ///
    /// Any [`ReloadError`]; no threads are started on failure.
    ///
    /// # Panics
    ///
    /// Same construction-time panics as [`ServeEngine::start`].
    pub fn start_with_artifact(cfg: ServeConfig, path: &Path) -> Result<Self, ReloadError> {
        let shared = Self::build_shared(cfg);
        reload_into(&shared, path)?;
        Ok(Self::spawn_threads(shared))
    }

    fn build_shared(cfg: ServeConfig) -> Arc<Shared> {
        cfg.model.validate().unwrap_or_else(|e| panic!("serve: invalid model config: {e}"));
        if let Some(fb) = &cfg.fallback {
            fb.validate().unwrap_or_else(|e| panic!("serve: invalid fallback config: {e}"));
        }
        assert!(cfg.workers > 0, "serve: need at least one worker");
        assert!(cfg.max_batch > 0, "serve: max_batch must be positive");

        // Startup quota overrides; everyone else is created lazily with the
        // default quota on first submit.
        let mut tenants = BTreeMap::new();
        for (tid, quota) in &cfg.tenant_quotas {
            tenants.insert(*tid, TenantState::new(*quota, cfg.breaker, 0));
        }

        let n = cfg.workers;
        Arc::new(Shared {
            queue: BoundedQueue::new(cfg.queue_capacity),
            policy: ValidationPolicy::for_resolution(cfg.model.resolution, cfg.max_abs_input),
            quarantine: Quarantine::new(cfg.quarantine_capacity),
            degrade: DegradeController::new(cfg.degrade),
            latency: LatencyWindow::new(cfg.latency_window),
            counters: Arc::new(Counters::default()),
            next_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            start: Instant::now(),
            heartbeats: (0..n).map(|_| AtomicU64::new(0)).collect(),
            generations: (0..n).map(|_| AtomicU64::new(0)).collect(),
            crash_flags: (0..n).map(|_| AtomicBool::new(false)).collect(),
            stall_flags: (0..n).map(|_| AtomicU64::new(0)).collect(),
            sticky_crash_flags: (0..n).map(|_| AtomicBool::new(false)).collect(),
            lost_flags: (0..n).map(|_| AtomicBool::new(false)).collect(),
            lost_slots: AtomicUsize::new(0),
            published: Mutex::new(None),
            model_generation: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            tenants: Mutex::new(tenants),
            governor: Arc::new(MemoryGovernor::new(GovernorConfig {
                budget_bytes: cfg.memory_budget_bytes,
                cold_after_ms: cfg.cold_after_ms,
            })),
            batcher: Batcher::new(cfg.batch),
            cost: Arc::new(CostModel::new()),
            workers: Mutex::new(Vec::new()),
            cfg,
        })
    }

    fn spawn_threads(shared: Arc<Shared>) -> Self {
        {
            let mut workers = shared.workers.lock().unwrap();
            for slot in 0..shared.cfg.workers {
                workers.push(Some(spawn_worker(Arc::clone(&shared), slot, 0)));
            }
        }
        let watchdog = spawn_watchdog(Arc::clone(&shared));
        Self { shared, watchdog: Mutex::new(Some(watchdog)) }
    }

    /// Submits one image with the default deadline as [`TenantId::DEFAULT`].
    ///
    /// # Errors
    ///
    /// Any admission-time [`ServeError`]: validation rejections, queue-full
    /// shedding, tenant quota/breaker rejections, or shutdown.
    pub fn submit(&self, image: Tensor) -> Result<PendingResponse, ServeError> {
        self.submit_tenant_with(
            TenantId::DEFAULT,
            image,
            self.shared.cfg.default_timeout_ms,
            None,
        )
    }

    /// Submits one image with an explicit deadline and optional test tag as
    /// [`TenantId::DEFAULT`].
    ///
    /// # Errors
    ///
    /// See [`ServeEngine::submit`].
    pub fn submit_with(
        &self,
        image: Tensor,
        timeout_ms: u64,
        tag: Option<u64>,
    ) -> Result<PendingResponse, ServeError> {
        self.submit_tenant_with(TenantId::DEFAULT, image, timeout_ms, tag)
    }

    /// Submits one image on behalf of `tenant` with the default deadline.
    ///
    /// # Errors
    ///
    /// See [`ServeEngine::submit`].
    pub fn submit_tenant(
        &self,
        tenant: TenantId,
        image: Tensor,
    ) -> Result<PendingResponse, ServeError> {
        self.submit_tenant_with(tenant, image, self.shared.cfg.default_timeout_ms, None)
    }

    /// The full admission pipeline: engine liveness, input validation, then
    /// the tenant gates (circuit breaker, rate quota, in-flight cap), then
    /// the shared bounded queue. Every rejection is a typed [`ServeError`].
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] / [`ServeError::WorkerLost`] when the
    /// engine cannot serve at all; a validation error for bad inputs;
    /// [`ServeError::CircuitOpen`] / [`ServeError::QuotaExceeded`] from the
    /// tenant gates; [`ServeError::QueueFull`] from the shared queue.
    pub fn submit_tenant_with(
        &self,
        tenant: TenantId,
        image: Tensor,
        timeout_ms: u64,
        tag: Option<u64>,
    ) -> Result<PendingResponse, ServeError> {
        let shared = &self.shared;
        if shared.shutdown.load(Ordering::Relaxed) || shared.draining.load(Ordering::Relaxed) {
            return Err(ServeError::ShuttingDown);
        }
        if shared.lost_slots.load(Ordering::Relaxed) >= shared.cfg.workers {
            return Err(ServeError::WorkerLost);
        }
        if let Err(e) = shared.policy.check(&image) {
            shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
            shared.quarantine.record(&image, e.label());
            meter::count("serve.rejected_input");
            return Err(e);
        }

        // Deadline feasibility: when the cost model is calibrated for the
        // current serving context and the request cannot make its budget,
        // shed now instead of burning a worker on a guaranteed deadline
        // miss. The estimate folds the waiting work ahead of this request
        // (tenant queue plus whatever the batcher currently holds) through
        // the same cost model: each backlog item costs the marginal
        // per-item time amortized across the worker pool, on top of the
        // request's own single-item dispatch. Uncalibrated contexts admit
        // everything.
        let ckey = serving_cost_key(&shared.cfg, shared.degrade.level());
        let backlog = shared.queue.depth() + shared.batcher.depth();
        if let Some(predicted) =
            predict_with_backlog(&shared.cost, &ckey, backlog, shared.cfg.workers)
        {
            if (timeout_ms as f64) < predicted {
                shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                shared.counters.infeasible.fetch_add(1, Ordering::Relaxed);
                meter::count("serve.shed_infeasible");
                return Err(ServeError::Infeasible {
                    predicted_ms: predicted.ceil() as u64,
                    budget_ms: timeout_ms,
                });
            }
        }
        let cost = shared.cost.cost_units(&ckey);

        // Tenant gates, all under one short lock. A probe slot taken by the
        // breaker is handed back if a later gate refuses.
        enum Gate {
            Admit { probe: bool, weight: u32 },
            BreakerOpen { retry_in_ms: u64 },
            Quota(QuotaScope),
        }
        let now_ms = shared.now_ms();
        let gate = shared.with_tenant(tenant, |st| {
            let probe = match st.breaker.admit(now_ms) {
                BreakerDecision::Admit => false,
                BreakerDecision::AdmitProbe => true,
                BreakerDecision::Reject { retry_in_ms } => {
                    st.stats.shed_breaker += 1;
                    return Gate::BreakerOpen { retry_in_ms };
                }
            };
            if !st.bucket.try_take(now_ms) {
                if probe {
                    st.breaker.release_probe();
                }
                st.stats.shed_quota += 1;
                return Gate::Quota(QuotaScope::Rate);
            }
            if st.in_flight >= st.quota.max_in_flight {
                if probe {
                    st.breaker.release_probe();
                }
                st.stats.shed_quota += 1;
                return Gate::Quota(QuotaScope::InFlight);
            }
            st.in_flight += 1;
            st.stats.admitted += 1;
            Gate::Admit { probe, weight: st.quota.weight.max(1) }
        });
        let (probe, weight) = match gate {
            Gate::Admit { probe, weight } => (probe, weight),
            Gate::BreakerOpen { retry_in_ms } => {
                shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                meter::count("serve.shed_breaker");
                return Err(ServeError::CircuitOpen { tenant, retry_in_ms });
            }
            Gate::Quota(scope) => {
                shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                meter::count("serve.shed_quota");
                return Err(ServeError::QuotaExceeded { tenant, scope });
            }
        };

        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        let (tx, rx) = mpsc::channel();
        let ticket = Ticket {
            id,
            image,
            tag,
            tenant,
            weight,
            cost,
            probe,
            enqueued: now,
            deadline: now + Duration::from_millis(timeout_ms),
            responder: tx,
        };
        match shared.queue.push(ticket) {
            Ok(()) => Ok(PendingResponse { id, rx }),
            Err(rejected) => {
                // Past the tenant gates but refused by the shared queue:
                // unwind the tenant accounting (a queue-full shed is global,
                // not a verdict on this tenant).
                let (_, e) = *rejected;
                shared.with_tenant(tenant, |st| {
                    st.in_flight = st.in_flight.saturating_sub(1);
                    if probe {
                        st.breaker.release_probe();
                    }
                });
                if e.is_shed() {
                    shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                    meter::count("serve.shed_admission");
                }
                Err(e)
            }
        }
    }

    /// Installs (or replaces) `tenant`'s quota at runtime. The token bucket
    /// is reconfigured in place, keeping already-earned tokens capped at
    /// the new burst; the DRR weight applies to subsequent admissions.
    pub fn set_tenant_quota(&self, tenant: TenantId, quota: TenantQuota) {
        self.shared.with_tenant(tenant, |st| {
            st.quota = quota;
            st.bucket.reconfigure(&quota);
        });
    }

    /// Retargets the resident packed-panel budget at runtime (`0` =
    /// unlimited). Shrinking takes effect at the next reservation or
    /// watchdog enforcement tick.
    pub fn set_memory_budget(&self, bytes: u64) {
        self.shared.governor.set_budget_bytes(bytes);
    }

    /// The engine's service-time cost model. Exposed so operators (and
    /// tests) can pre-seed fits — e.g. carry calibration across restarts —
    /// or inspect the live estimates beyond the [`HealthSnapshot`] view.
    pub fn cost_model(&self) -> &CostModel {
        &self.shared.cost
    }

    /// One health poll; cheap and callable from any thread.
    pub fn health(&self) -> HealthSnapshot {
        let s = &self.shared;
        let (batch_size_closes, batch_deadline_closes, batch_linger_closes,
            batch_generation_closes, batch_flush_closes) = s.batcher.close_counts();
        HealthSnapshot {
            queue_depth: s.queue.depth(),
            batcher_depth: s.batcher.depth(),
            batch_size_closes,
            batch_deadline_closes,
            batch_linger_closes,
            batch_generation_closes,
            batch_flush_closes,
            infeasible_count: s.counters.infeasible.load(Ordering::Relaxed),
            batch_buckets: s
                .batcher
                .bucket_stats()
                .iter()
                .map(|(key, stats)| BucketHealth::from_stats(*key, stats))
                .collect(),
            cost_model: s.cost.snapshot(),
            shed_count: s.counters.shed.load(Ordering::Relaxed),
            rejected_count: s.counters.rejected.load(Ordering::Relaxed),
            completed_count: s.counters.completed.load(Ordering::Relaxed),
            quarantined_count: s.counters.quarantined.load(Ordering::Relaxed),
            batch_panic_count: s.counters.batch_panics.load(Ordering::Relaxed),
            degrade_level: s.degrade.level(),
            p50_ms: s.latency.percentile(0.50),
            p99_ms: s.latency.percentile(0.99),
            worker_restarts: s.counters.worker_restarts.load(Ordering::Relaxed),
            peak_cached_bytes: s.counters.peak_cached_bytes.load(Ordering::Relaxed),
            peak_scratch_bytes: s.counters.peak_scratch_bytes.load(Ordering::Relaxed),
            quant_gate_trips: s.counters.quant_gate_trips.load(Ordering::Relaxed),
            resident_f32_bytes: s.counters.resident_f32_bytes.load(Ordering::Relaxed),
            resident_int8_bytes: s.counters.resident_int8_bytes.load(Ordering::Relaxed),
            model_generation: s.model_generation.load(Ordering::Relaxed),
            artifact_digest: s.published.lock().unwrap().as_ref().map(|p| p.digest),
            reloads_ok: s.counters.reloads_ok.load(Ordering::Relaxed),
            reloads_failed: s.counters.reloads_failed.load(Ordering::Relaxed),
            workers_lost: s.counters.worker_lost.load(Ordering::Relaxed),
            swept_expired: s.counters.swept_expired.load(Ordering::Relaxed),
            resident_budget_bytes: s.governor.budget_bytes(),
            resident_governed_bytes: s.governor.resident_bytes(),
            resident_evictions: s.governor.evictions(),
            governor_oversize_grants: s.governor.oversize_grants(),
            tenants: s
                .tenants
                .lock()
                .unwrap()
                .iter()
                .map(|(tid, st)| TenantHealth {
                    tenant: *tid,
                    in_flight: st.in_flight,
                    breaker: st.breaker.state(),
                    breaker_trips: st.breaker.trips(),
                    stats: st.stats,
                })
                .collect(),
        }
    }

    /// Validates the artifact at `path` and, if it passes, publishes it as
    /// the new model generation. In-flight and already-queued requests
    /// finish on the generation they started with; new batches pick up the
    /// new one at their next loop pass.
    ///
    /// Validation runs in this caller's thread, not on the serving path:
    /// structural CRCs, a full per-section payload scan, a serving-contract
    /// check, and a calibration forward that must produce finite logits of
    /// the right shape and (when a previous generation is published) agree
    /// with it on at least `quant_gate.min_agreement` of the calibration
    /// argmaxes.
    ///
    /// # Errors
    ///
    /// Any [`ReloadError`]. Corrupt and gate-rejected artifacts are moved
    /// to `<path>.corrupt` so a retry loop cannot re-publish them; the
    /// previously published generation keeps serving in every failure case.
    pub fn reload_artifact(&self, path: &Path) -> Result<ReloadReport, ReloadError> {
        reload_into(&self.shared, path)
    }

    /// Stops admission (new submissions get [`ServeError::ShuttingDown`]),
    /// lets the workers flush the queue for up to `deadline`, then shuts
    /// down. Every request still queued at the deadline is answered with a
    /// typed [`ServeError::ShuttingDown`] — nothing is dropped silently.
    pub fn drain(&self, deadline: Duration) -> DrainStats {
        self.shared.draining.store(true, Ordering::Relaxed);
        let until = Instant::now() + deadline;
        let mut drained_in_time = true;
        while self.shared.queue.depth() + self.shared.batcher.depth() > 0 {
            if Instant::now() >= until {
                drained_in_time = false;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let flushed = self.shutdown_inner();
        DrainStats { drained_in_time, flushed }
    }

    /// Snapshot of the quarantine ring, oldest first.
    pub fn quarantine_records(&self) -> Vec<crate::validate::QuarantineRecord> {
        self.shared.quarantine.records()
    }

    /// Current degradation level (0 = full quality).
    pub fn degrade_level(&self) -> u8 {
        self.shared.degrade.level()
    }

    /// Test hook: kill worker `slot`'s thread with a panic outside the
    /// batch guard. The watchdog must observe the death and respawn.
    pub fn inject_worker_crash(&self, slot: usize) {
        self.shared.crash_flags[slot].store(true, Ordering::Relaxed);
    }

    /// Test hook: make worker `slot` sleep `ms` without heart-beating, so
    /// the watchdog declares it stalled and replaces it.
    pub fn inject_worker_stall(&self, slot: usize, ms: u64) {
        self.shared.stall_flags[slot].store(ms, Ordering::Relaxed);
    }

    /// Test hook: make worker `slot` crash on *every* loop pass, including
    /// in watchdog-spawned replacements — a restart storm. The watchdog
    /// must retire the slot once its restart budget is exhausted instead
    /// of respawning forever.
    pub fn inject_worker_crash_sticky(&self, slot: usize) {
        self.shared.sticky_crash_flags[slot].store(true, Ordering::Relaxed);
    }

    /// Stops admission, delivers [`ServeError::ShuttingDown`] to every
    /// queued request, and joins all threads. Idempotent.
    pub fn shutdown(&self) {
        let _ = self.shutdown_inner();
    }

    /// The single teardown path behind [`ServeEngine::shutdown`] and
    /// [`ServeEngine::drain`]: close the queue, flush it, join the
    /// threads, then flush whatever the batcher still held (workers are
    /// gone, so its contents are final). Returns the flush count so drain
    /// can report it exactly.
    fn shutdown_inner(&self) -> usize {
        // Close first so the flush count is exact: nothing can slip into
        // the queue between measuring and joining (admission is already
        // refusing, but workers racing pop_batch are not).
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.queue.close();
        let mut flushed = 0;
        for ticket in self.shared.queue.drain() {
            flushed += 1;
            finish(&self.shared, ticket, Err(ServeError::ShuttingDown));
        }
        if let Some(h) = self.watchdog.lock().unwrap().take() {
            let _ = h.join();
        }
        {
            let mut workers = self.shared.workers.lock().unwrap();
            for slot in workers.iter_mut() {
                if let Some(h) = slot.take() {
                    let _ = h.join();
                }
            }
        }
        // Workers joined: any tickets parked in open buckets can no longer
        // be dispatched. Answer them typed instead of dropping.
        for ticket in self.shared.batcher.drain() {
            flushed += 1;
            finish(&self.shared, ticket, Err(ServeError::ShuttingDown));
        }
        flushed
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Variant index of the primary model within a bank / the governor ledger.
const VAR_PRIMARY: u32 = 0;
/// Variant index of the fallback model.
const VAR_FALLBACK: u32 = 1;

/// Total patience for a [`Reserve::Pending`] reservation before the
/// [`MemoryGovernor::force_reserve`] liveness valve fires. Kept well under
/// the default `stall_limit_ms` (2 s) so a worker waiting on another slot's
/// eviction is never mistaken for a stalled worker.
const RESERVE_PATIENCE: Duration = Duration::from_millis(250);

/// A worker's resident frozen models, governed by the engine's shared
/// [`MemoryGovernor`].
///
/// Under a byte budget (`memory_budget_bytes > 0`), both variants may stay
/// resident while they fit; the coldest unpinned variants across all
/// workers are LRU-evicted when a reservation needs room, and evicted
/// variants are re-frozen on demand (deterministic per config, so a rebuilt
/// variant is identical to the one dropped). Ungoverned (budget 0), the
/// bank keeps the classic hard-swap discipline: at most one variant's
/// panels live at a time, a swap eagerly drops the other. Every swap is
/// metered `serve.variant_swap`; every governed eviction
/// `serve.panel_evicted`.
///
/// Variants configured as [`Precision::Int8`] pass through the quantization
/// accuracy gate at build time: the int8 model must agree with its f32 twin
/// on seeded calibration inputs, else the worker serves f32 and counts
/// `serve.quant_gate_trip`. The bank publishes its resident f32/int8 weight
/// bytes to the engine [`Counters`] (delta-adjusted, so totals across
/// workers stay exact) and withdraws them on drop.
struct ModelBank {
    primary_cfg: RevBiFPNConfig,
    fallback_cfg: Option<RevBiFPNConfig>,
    primary_precision: Precision,
    fallback_precision: Precision,
    gate: QuantGateConfig,
    counters: Arc<Counters>,
    governor: Arc<MemoryGovernor>,
    /// Shared cost model, seeded after each first freeze of a variant.
    cost: Arc<CostModel>,
    /// Whether install() runs the one-shot service-time calibration.
    calibrate: bool,
    slot: usize,
    /// The engine's epoch, so this bank's ledger timestamps are comparable
    /// with every other worker's (the LRU order is global).
    epoch: Instant,
    primary: Option<FrozenClassifier>,
    fallback: Option<FrozenClassifier>,
    published_f32: usize,
    published_int8: usize,
}

impl ModelBank {
    /// `eager` freezes the primary up front (the classic worker start).
    /// Workers that begin life serving a published artifact generation pass
    /// `false` and never pay the config freeze unless the degradation
    /// ladder routes to the fallback variant.
    fn new(
        cfg: &ServeConfig,
        counters: Arc<Counters>,
        governor: Arc<MemoryGovernor>,
        cost: Arc<CostModel>,
        slot: usize,
        epoch: Instant,
        eager: bool,
    ) -> Self {
        let mut bank = Self {
            primary_cfg: cfg.model.clone(),
            fallback_cfg: cfg.fallback.clone(),
            primary_precision: cfg.precision,
            fallback_precision: cfg.fallback_precision,
            gate: cfg.quant_gate,
            counters,
            governor,
            cost,
            calibrate: cfg.batch.calibrate_on_freeze,
            slot,
            epoch,
            primary: None,
            fallback: None,
            published_f32: 0,
            published_int8: 0,
        };
        if eager {
            bank.install(VAR_PRIMARY);
            bank.governor.set_pinned(bank.key(VAR_PRIMARY), true);
        }
        bank
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn key(&self, variant: u32) -> PanelKey {
        PanelKey::new(self.slot, variant)
    }

    /// Freezes `variant` through the governor: reserve (waiting out victim
    /// evictions if the budget demands them) → pin → freeze → commit the
    /// true panel bytes. The first freeze of a variant reserves 0 bytes
    /// (size unknown); its commit teaches the governor the real size and
    /// self-heals any overshoot by flagging LRU victims.
    fn install(&mut self, variant: u32) {
        let key = self.key(variant);
        let est = self.governor.estimate(variant, 0);
        let patience = Instant::now() + RESERVE_PATIENCE;
        loop {
            match self.governor.reserve(key, est, self.now_ms()) {
                Reserve::Granted => break,
                Reserve::GrantedOversize => {
                    meter::count("serve.governor_oversize");
                    break;
                }
                Reserve::Pending => {
                    // Our own flagged variants we can evict right now; other
                    // slots' victims drain when their workers poll. Past the
                    // patience window (victim owner stalled/dead), take the
                    // liveness valve instead of wedging the serving path.
                    if !self.process_evictions() {
                        if Instant::now() >= patience {
                            self.governor.force_reserve(key, est, self.now_ms());
                            meter::count("serve.governor_oversize");
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
        }
        // Pin before the freeze so a concurrent enforcement tick cannot
        // flag the panels we are about to build.
        self.governor.set_pinned(key, true);
        let (cfg, precision) = match variant {
            VAR_FALLBACK => (
                self.fallback_cfg.clone().expect("install(VAR_FALLBACK) requires a fallback"),
                self.fallback_precision,
            ),
            _ => (self.primary_cfg.clone(), self.primary_precision),
        };
        let frozen = freeze_gated(&cfg, precision, &self.gate, &self.counters);
        let actual = (frozen.packed_bytes() + frozen.quant_packed_bytes()) as u64;
        self.governor.commit(key, actual, self.now_ms());
        if self.calibrate {
            // Key under the *configured* precision even if the quant gate
            // tripped back to f32 — admission and dispatch look the fit up
            // under the configured label (see `serving_cost_key`).
            let ckey = CostKey {
                variant: variant as u8,
                precision,
                rung: cfg.resolution as u16,
            };
            calibrate_service_time(&self.cost, ckey, &frozen);
        }
        match variant {
            VAR_FALLBACK => self.fallback = Some(frozen),
            _ => self.primary = Some(frozen),
        }
        self.republish();
    }

    /// Drops every variant the governor flagged for this slot. Returns
    /// whether anything was actually released.
    fn process_evictions(&mut self) -> bool {
        let mut released = false;
        for variant in self.governor.take_evictions(self.slot) {
            released |= self.drop_variant(variant, true);
        }
        released
    }

    /// Drops one variant's panels and clears its ledger entry. `evicted`
    /// marks a governor-driven eviction (metered) as opposed to an
    /// ordinary withdrawal (hard swap, hot-reload release, drop).
    fn drop_variant(&mut self, variant: u32, evicted: bool) -> bool {
        let model = match variant {
            VAR_FALLBACK => self.fallback.take(),
            _ => self.primary.take(),
        };
        let dropped = model.is_some();
        drop(model);
        self.governor.released(self.key(variant), evicted && dropped);
        if dropped {
            if evicted {
                meter::count("serve.panel_evicted");
            }
            self.republish();
        }
        dropped
    }

    /// Drops the config-frozen primary's packed panels: a hot-reloaded
    /// generation is serving in its place, so keeping both resident would
    /// double the weight footprint. The primary rebuilds deterministically
    /// via [`ModelBank::select`] if it is ever needed again.
    fn release_primary(&mut self) {
        self.drop_variant(VAR_PRIMARY, false);
    }

    /// Whether ladder level `level` routes to the fallback variant.
    fn uses_fallback(&self, level: u8) -> bool {
        level >= 3 && self.fallback_cfg.is_some()
    }

    /// The frozen model serving at ladder level `level`, freezing it on
    /// demand. The selected variant is pinned (never an eviction victim)
    /// and touched for LRU recency; the deselected one is unpinned and —
    /// ungoverned only — dropped eagerly.
    fn select(&mut self, level: u8) -> &FrozenClassifier {
        let governed = self.governor.budget_bytes() > 0;
        let (want, other) = if self.uses_fallback(level) {
            (VAR_FALLBACK, VAR_PRIMARY)
        } else {
            (VAR_PRIMARY, VAR_FALLBACK)
        };
        let missing = match want {
            VAR_FALLBACK => self.fallback.is_none(),
            _ => self.primary.is_none(),
        };
        if missing {
            self.governor.set_pinned(self.key(other), false);
            if !governed {
                self.drop_variant(other, false);
            }
            self.install(want);
            meter::count("serve.variant_swap");
        }
        self.governor.set_pinned(self.key(want), true);
        self.governor.set_pinned(self.key(other), false);
        self.governor.touch(self.key(want), self.now_ms());
        match want {
            VAR_FALLBACK => self.fallback.as_ref().expect("fallback frozen above"),
            _ => self.primary.as_ref().expect("primary frozen above"),
        }
    }

    /// Re-publishes this bank's resident panel bytes to the engine
    /// counters by delta, so the gauges stay a true sum across workers.
    fn republish(&mut self) {
        let f32_now = self.primary.as_ref().map_or(0, |m| m.packed_bytes())
            + self.fallback.as_ref().map_or(0, |m| m.packed_bytes());
        let int8_now = self.primary.as_ref().map_or(0, |m| m.quant_packed_bytes())
            + self.fallback.as_ref().map_or(0, |m| m.quant_packed_bytes());
        adjust_gauge(&self.counters.resident_f32_bytes, self.published_f32, f32_now);
        adjust_gauge(&self.counters.resident_int8_bytes, self.published_int8, int8_now);
        self.published_f32 = f32_now;
        self.published_int8 = int8_now;
    }
}

impl Drop for ModelBank {
    fn drop(&mut self) {
        // Runs during unwinding too, so a crashed worker's contribution is
        // withdrawn (gauges and governor ledger both) before the watchdog's
        // replacement publishes its own.
        self.drop_variant(VAR_PRIMARY, false);
        self.drop_variant(VAR_FALLBACK, false);
    }
}

/// Moves a shared gauge from `prev` to `now` without ever underflowing.
fn adjust_gauge(gauge: &std::sync::atomic::AtomicUsize, prev: usize, now: usize) {
    if now >= prev {
        gauge.fetch_add(now - prev, Ordering::Relaxed);
    } else {
        gauge.fetch_sub(prev - now, Ordering::Relaxed);
    }
}

/// Builds the seeded replica for `cfg` and compiles its frozen form.
fn freeze_variant(cfg: &RevBiFPNConfig, precision: Precision) -> FrozenClassifier {
    let model = RevBiFPNClassifier::new(cfg.clone());
    let frozen = match precision {
        Precision::F32 => model.freeze(),
        Precision::Int8 => model.freeze_int8(),
    };
    frozen.unwrap_or_else(|e| panic!("serve: model config does not freeze: {e}"))
}

/// Builds the variant at the requested precision, applying the quantization
/// accuracy gate to int8 builds. A gate trip keeps the f32 twin.
fn freeze_gated(
    cfg: &RevBiFPNConfig,
    precision: Precision,
    gate: &QuantGateConfig,
    counters: &Counters,
) -> FrozenClassifier {
    match precision {
        Precision::F32 => freeze_variant(cfg, Precision::F32),
        Precision::Int8 => {
            let f32_twin = freeze_variant(cfg, Precision::F32);
            let int8 = freeze_variant(cfg, Precision::Int8);
            if quant_gate_passes(&f32_twin, &int8, gate) {
                int8
            } else {
                counters.quant_gate_trips.fetch_add(1, Ordering::Relaxed);
                meter::count("serve.quant_gate_trip");
                f32_twin
            }
        }
    }
}

/// Runs the calibration batch through both variants and compares per-image
/// argmax agreement against the gate threshold.
fn quant_gate_passes(
    f32_twin: &FrozenClassifier,
    int8: &FrozenClassifier,
    gate: &QuantGateConfig,
) -> bool {
    let n = gate.calibration_images.max(1);
    let res = f32_twin.cfg().resolution;
    let input = calibration_batch(n, res);
    let want = argmaxes(&f32_twin.forward(&input));
    let got = argmaxes(&int8.forward(&input));
    let matches = want.iter().zip(&got).filter(|(a, b)| a == b).count();
    (matches as f64) >= gate.min_agreement * n as f64
}

/// Deterministic pseudo-random calibration images in roughly `[-1, 1]`
/// (xorshift; no RNG dependency, identical on every worker).
fn calibration_batch(n: usize, res: usize) -> Tensor {
    let len = n * 3 * res * res;
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let data = (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / 8_388_608.0) - 1.0
        })
        .collect();
    Tensor::from_vec(Shape::new(n, 3, res, res), data)
        .expect("serve: calibration batch length is exact by construction")
}

/// Per-image argmax over logits `[n, classes, 1, 1]`.
fn argmaxes(logits: &Tensor) -> Vec<usize> {
    let classes = logits.shape().c;
    logits
        .data()
        .chunks_exact(classes)
        .map(|row| {
            row.iter()
                .copied()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map_or(0, |(i, _)| i)
        })
        .collect()
}

/// Moves a failed artifact to its `.corrupt` quarantine path so retry
/// loops cannot re-publish it, then prunes the quarantine directory down
/// to the `keep` newest `.corrupt` files so a reload-retry storm cannot
/// fill the disk. Best-effort: reports whether the move landed, and never
/// masks the original failure.
fn quarantine_artifact(path: &Path, keep: usize) -> bool {
    let ok = rename_with_retries(path, &quarantine_path(path)).is_ok();
    if ok {
        meter::count("serve.artifact_quarantined");
        if let Some(dir) = path.parent() {
            let _ = prune_quarantine(dir, keep);
        }
    }
    ok
}

/// The reload pipeline shared by [`ServeEngine::reload_artifact`] and
/// [`ServeEngine::start_with_artifact`]: load → validate → gate → publish.
fn reload_into(shared: &Arc<Shared>, path: &Path) -> Result<ReloadReport, ReloadError> {
    let fail = |e: ReloadError| -> ReloadError {
        shared.counters.reloads_failed.fetch_add(1, Ordering::Relaxed);
        meter::count("serve.reload_failed");
        e
    };

    // 1. Open and structurally validate (magic, header/TOC/structure CRCs).
    let (model, reader) = match load_classifier_artifact(path, true) {
        Ok(pair) => pair,
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
            let quarantined = quarantine_artifact(path, shared.cfg.quarantine_keep);
            return Err(fail(ReloadError::Corrupt { detail: e.to_string(), quarantined }));
        }
        Err(e) => return Err(fail(ReloadError::Io { detail: e.to_string() })),
    };

    // 2. Full payload scan. Reload is off the serving path, so unlike the
    // cold start we can afford to touch every section before publishing.
    if let Err(e) = reader.verify_sections() {
        let quarantined = quarantine_artifact(path, shared.cfg.quarantine_keep);
        return Err(fail(ReloadError::Corrupt { detail: e.to_string(), quarantined }));
    }

    // 3. Serving-contract compatibility (not quarantined: the artifact may
    // be valid for some other deployment).
    let want = &shared.cfg.model;
    if model.cfg().resolution != want.resolution {
        return Err(fail(ReloadError::Incompatible {
            detail: format!(
                "artifact resolution {} but engine serves {}",
                model.cfg().resolution,
                want.resolution
            ),
        }));
    }
    if model.cfg().num_classes != want.num_classes {
        return Err(fail(ReloadError::Incompatible {
            detail: format!(
                "artifact has {} classes but engine serves {}",
                model.cfg().num_classes,
                want.num_classes
            ),
        }));
    }

    // 4. Calibration forward: must not panic and must produce finite logits
    // of the contracted shape.
    let gate = &shared.cfg.quant_gate;
    let n = gate.calibration_images.max(1);
    let input = calibration_batch(n, want.resolution);
    let logits = match panic::catch_unwind(AssertUnwindSafe(|| model.forward(&input))) {
        Ok(l) => l,
        Err(_) => {
            let quarantined = quarantine_artifact(path, shared.cfg.quarantine_keep);
            return Err(fail(ReloadError::Corrupt {
                detail: "model panicked on calibration inputs".into(),
                quarantined,
            }));
        }
    };
    if logits.shape() != model.logit_shape(n) {
        let quarantined = quarantine_artifact(path, shared.cfg.quarantine_keep);
        return Err(fail(ReloadError::Corrupt {
            detail: "calibration logits have the wrong shape".into(),
            quarantined,
        }));
    }
    if !logits.data().iter().all(|v| v.is_finite()) {
        let quarantined = quarantine_artifact(path, shared.cfg.quarantine_keep);
        return Err(fail(ReloadError::Corrupt {
            detail: "calibration logits contain non-finite values".into(),
            quarantined,
        }));
    }

    // 5. Argmax agreement against the generation currently serving, when
    // there is one. First publish has no reference — the finite/shape
    // checks above are the whole gate.
    let previous = shared.published.lock().unwrap().clone();
    let agreement = previous.as_ref().map(|prev| {
        let want_args = argmaxes(&prev.model.forward(&input));
        let got_args = argmaxes(&logits);
        let matches = want_args.iter().zip(&got_args).filter(|(a, b)| a == b).count();
        matches as f64 / n as f64
    });
    if let Some(agr) = agreement {
        if agr < gate.min_agreement {
            let quarantined = quarantine_artifact(path, shared.cfg.quarantine_keep);
            return Err(fail(ReloadError::GateRejected {
                agreement: agr,
                threshold: gate.min_agreement,
                quarantined,
            }));
        }
    }

    // 5b. Service-time calibration for the cost model, off the serving
    // path like the rest of reload validation. Seed-if-absent: an engine
    // that already refined this key online keeps its fit.
    if shared.cfg.batch.calibrate_on_freeze {
        let key = CostKey {
            variant: 0,
            precision: shared.cfg.precision,
            rung: model.cfg().resolution as u16,
        };
        calibrate_service_time(&shared.cost, key, &model);
    }

    // 6. Publish. The generation counter bumps after the slot swap so a
    // worker that observes the new number always finds the new Arc.
    let digest = reader.digest();
    let mapped = reader.is_mapped();
    let generation = shared.model_generation.load(Ordering::Relaxed) + 1;
    *shared.published.lock().unwrap() =
        Some(Arc::new(Published { model, digest }));
    shared.model_generation.store(generation, Ordering::Release);
    shared.counters.reloads_ok.fetch_add(1, Ordering::Relaxed);
    meter::count("serve.reload_ok");
    Ok(ReloadReport { generation, digest, mapped, agreement })
}

fn spawn_worker(shared: Arc<Shared>, slot: usize, generation: u64) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("serve-worker-{slot}"))
        .spawn(move || worker_loop(shared, slot, generation))
        .expect("serve: failed to spawn worker thread")
}

fn worker_loop(shared: Arc<Shared>, slot: usize, generation: u64) {
    // A worker born while an artifact generation is published serves it
    // straight off the mapping and skips the config freeze entirely — the
    // cold-start path.
    let mut published_gen = shared.model_generation.load(Ordering::Acquire);
    let mut published: Option<Arc<Published>> = if published_gen > 0 {
        shared.published.lock().unwrap().clone()
    } else {
        None
    };
    let mut bank = ModelBank::new(
        &shared.cfg,
        Arc::clone(&shared.counters),
        Arc::clone(&shared.governor),
        Arc::clone(&shared.cost),
        slot,
        shared.start,
        published.is_none(),
    );
    let rung = downscale_rung(&shared.cfg.model);

    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        if shared.generations[slot].load(Ordering::Relaxed) != generation {
            // The watchdog declared this thread stalled and replaced it;
            // bow out quietly instead of double-serving the slot.
            return;
        }
        shared.heartbeats[slot].store(shared.now_ms(), Ordering::Relaxed);
        let stall_ms = shared.stall_flags[slot].swap(0, Ordering::Relaxed);
        if stall_ms > 0 {
            std::thread::sleep(Duration::from_millis(stall_ms));
            continue;
        }
        if shared.crash_flags[slot].swap(false, Ordering::Relaxed)
            || shared.sticky_crash_flags[slot].load(Ordering::Relaxed)
        {
            // Deliberately OUTSIDE any catch_unwind: the thread dies and
            // recovery is the watchdog's job, not ours.
            panic!("injected worker crash (slot {slot})");
        }

        // Pick up a newly published generation between batches — never
        // mid-batch, so every request is answered by exactly one model.
        let gen_now = shared.model_generation.load(Ordering::Acquire);
        if gen_now != published_gen {
            published = shared.published.lock().unwrap().clone();
            published_gen = gen_now;
            if published.is_some() {
                bank.release_primary();
            }
        }

        // Honor any eviction flags the governor raised against this slot
        // before pulling more work (panels drop between batches, never
        // under an in-flight forward).
        bank.process_evictions();

        // The serving context this pass dispatches under: the cost key
        // labels (variant, precision, rung); the bucket key adds the model
        // generation so a bucket can never span a generation swap.
        let level = shared.degrade.level();
        let use_fallback = bank.uses_fallback(level);
        let ckey = serving_cost_key(&shared.cfg, level);
        let bkey = BucketKey { generation: published_gen, key: ckey };
        let cap = effective_max_batch(
            &shared.cost,
            &ckey,
            level,
            shared.cfg.max_batch,
            shared.cfg.batch.overhead_frac,
        );
        let target = if shared.cfg.batch.enabled {
            shared.cost.optimal_batch(&ckey, cap, shared.cfg.batch.overhead_frac).unwrap_or(1)
        } else {
            cap
        };

        // With tickets lingering in open buckets, poll fast so linger and
        // deadline-margin edges are honored at millisecond granularity;
        // idle, block the full poll period as before.
        let wait = if shared.batcher.depth() > 0 { 1 } else { 20 };
        let popped = shared.queue.pop_batch(cap, Duration::from_millis(wait));
        if !popped.expired.is_empty() {
            let n = popped.expired.len() as u64;
            shared.counters.shed.fetch_add(n, Ordering::Relaxed);
            meter::count_n("serve.shed_deadline", n);
            let now = Instant::now();
            for ticket in popped.expired {
                let waited_ms = ticket.waited_ms(now);
                finish(&shared, ticket, Err(ServeError::DeadlineExceeded { waited_ms }));
            }
        }
        let now = Instant::now();
        shared.batcher.offer(bkey, popped.batch, now);
        if shared.degrade.level() != level {
            // The pop waited across a ladder step: start the pass again at
            // the level in force, which closes this bucket as stale and
            // serves it there instead of at the level the wait began at.
            continue;
        }
        let Some(closed) = shared.batcher.try_close(
            &bkey,
            target,
            cap,
            |b| shared.cost.predict_ms(&ckey, b),
            now,
        ) else {
            continue;
        };

        // Tickets can expire while lingering in a bucket; shed them typed
        // at dispatch instead of wasting forward work on them.
        let dispatch_at = Instant::now();
        let mut batch = Vec::with_capacity(closed.tickets.len());
        for ticket in closed.tickets {
            if ticket.deadline <= dispatch_at {
                shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                meter::count("serve.shed_deadline");
                let waited_ms = ticket.waited_ms(dispatch_at);
                finish(&shared, ticket, Err(ServeError::DeadlineExceeded { waited_ms }));
            } else {
                batch.push(ticket);
            }
        }
        if batch.is_empty() {
            continue;
        }
        let dispatched = batch.len();
        // The fallback route always comes from the bank (a published
        // artifact replaces the *primary* variant only); otherwise the
        // published generation wins over the config-frozen primary.
        let model: &FrozenClassifier = match (&published, use_fallback) {
            (Some(p), false) => &p.model,
            _ => bank.select(level),
        };
        let panics_before = shared.counters.batch_panics.load(Ordering::Relaxed);
        let t0 = Instant::now();
        run_partition(&shared, model, use_fallback, rung, batch, level);
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        // Bisected batches re-run partitions serially; their timings say
        // nothing about a clean forward, so only clean runs feed the fit.
        if shared.counters.batch_panics.load(Ordering::Relaxed) == panics_before {
            shared.cost.observe(ckey, dispatched, elapsed_ms);
        }
    }
}

/// Runs one partition of a batch, bisecting on panic until the poisoned
/// request is isolated and quarantined. Well-behaved co-batched requests
/// are always eventually served.
fn run_partition(
    shared: &Shared,
    model: &FrozenClassifier,
    use_fallback: bool,
    rung: Option<usize>,
    mut tickets: Vec<Ticket>,
    level: u8,
) {
    if tickets.is_empty() {
        return;
    }
    // The frozen models are fully convolutional, so the level-2 rung needs
    // no model swap: the same packed panels serve any input resolution.
    let target_res = if use_fallback {
        model.cfg().resolution
    } else if level >= 2 {
        rung.unwrap_or(shared.cfg.model.resolution)
    } else {
        shared.cfg.model.resolution
    };

    // Assemble the input outside the guard: any per-request preparation
    // failure is delivered individually, not allowed to sink the batch.
    let mut kept: Vec<Ticket> = Vec::with_capacity(tickets.len());
    let mut data: Vec<f32> = Vec::new();
    for ticket in tickets.drain(..) {
        if ticket.image.shape().h == target_res {
            data.extend_from_slice(ticket.image.data());
            kept.push(ticket);
            continue;
        }
        match try_resize(&ticket.image, target_res, target_res, ResizeMode::Bilinear) {
            Ok(img) => {
                data.extend_from_slice(img.data());
                kept.push(ticket);
            }
            Err(e) => {
                shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
                finish(shared, ticket, Err(ServeError::InvalidShape(e)));
            }
        }
    }
    if kept.is_empty() {
        return;
    }
    let input = Tensor::from_vec(Shape::new(kept.len(), 3, target_res, target_res), data)
        .expect("serve: batch assembly produced a mis-sized buffer");

    let poison = kept.iter().any(|t| t.tag == Some(ServeEngine::POISON_TAG));
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        assert!(!poison, "poisoned request in batch (injected)");
        model.forward(&input)
    }));

    match result {
        Ok(logits) => {
            // Publish memory peaks before delivering, so a client that polls
            // health() right after its response sees this batch accounted.
            let report = meter::report();
            Counters::raise_peak(&shared.counters.peak_cached_bytes, report.cached_peak);
            Counters::raise_peak(
                &shared.counters.peak_scratch_bytes,
                report.scratch.peak_bytes as usize,
            );
            deliver(shared, kept, &logits, level);
        }
        Err(_) => {
            shared.counters.batch_panics.fetch_add(1, Ordering::Relaxed);
            meter::count("serve.batch_panic");
            // Frozen models are stateless across forwards (`&self`, no
            // activation caches), so an aborted batch leaves nothing to
            // clear — bisect and retry directly.
            if kept.len() == 1 {
                let ticket = kept.pop().unwrap();
                shared.quarantine.record(&ticket.image, "poisoned");
                shared.counters.quarantined.fetch_add(1, Ordering::Relaxed);
                meter::count("serve.quarantined");
                finish(shared, ticket, Err(ServeError::Poisoned));
            } else {
                let right = kept.split_off(kept.len() / 2);
                run_partition(shared, model, use_fallback, rung, kept, level);
                run_partition(shared, model, use_fallback, rung, right, level);
            }
        }
    }
}

/// Splits batched logits `[n, classes, 1, 1]` back into per-ticket
/// responses.
fn deliver(shared: &Shared, tickets: Vec<Ticket>, logits: &Tensor, level: u8) {
    let classes = logits.shape().c;
    let now = Instant::now();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let lvec = logits.data()[i * classes..(i + 1) * classes].to_vec();
        let (class, score) = lvec
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap_or((0, f32::NEG_INFINITY));
        let latency_ms = ticket.waited_ms(now) as f64;
        shared.latency.record(latency_ms);
        shared.counters.completed.fetch_add(1, Ordering::Relaxed);
        let response = InferResponse {
            id: ticket.id,
            class,
            score,
            logits: lvec,
            degrade_level: level,
            latency_ms,
        };
        let outcome: Outcome = Ok(response);
        finish(shared, ticket, outcome);
    }
}

fn spawn_watchdog(shared: Arc<Shared>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("serve-watchdog".into())
        .spawn(move || watchdog_loop(shared))
        .expect("serve: failed to spawn watchdog thread")
}

fn watchdog_loop(shared: Arc<Shared>) {
    let n = shared.cfg.workers;
    // Restart-storm bookkeeping is watchdog-local: per-slot restart
    // timestamps inside the sliding window, the next instant a restart is
    // allowed (exponential backoff), and the current backoff step.
    let mut history: Vec<std::collections::VecDeque<u64>> =
        (0..n).map(|_| std::collections::VecDeque::new()).collect();
    let mut next_ok = vec![0u64; n];
    let mut backoff = vec![shared.cfg.restart_backoff_ms.max(1); n];

    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        std::thread::sleep(Duration::from_millis(shared.cfg.watchdog_poll_ms));
        let now = shared.now_ms();
        // Tickets lingering in open buckets are queue pressure too: the
        // degrade controller must see the true backlog.
        shared.degrade.observe(
            shared.queue.depth() + shared.batcher.depth(),
            shared.latency.percentile(0.99),
            now,
        );

        // Proactive deadline sweep: long-deadline floods must not pin queue
        // slots (or bucket slots) until a worker happens to dequeue them.
        let mut swept = shared.queue.sweep_expired(Instant::now());
        swept.extend(shared.batcher.sweep_expired(Instant::now()));
        if !swept.is_empty() {
            let n = swept.len() as u64;
            shared.counters.swept_expired.fetch_add(n, Ordering::Relaxed);
            shared.counters.shed.fetch_add(n, Ordering::Relaxed);
            meter::count_n("queue.swept_expired", n);
            let at = Instant::now();
            for ticket in swept {
                let waited_ms = ticket.waited_ms(at);
                finish(&shared, ticket, Err(ServeError::DeadlineExceeded { waited_ms }));
            }
        }

        // Apply standing memory pressure (cold variants, runtime budget
        // squeezes); owning workers drop flagged panels between batches.
        shared.governor.enforce(now);

        let mut workers = shared.workers.lock().unwrap();
        for slot in 0..workers.len() {
            if shared.lost_flags[slot].load(Ordering::Relaxed) {
                continue; // retired: no more respawns for this slot
            }
            let dead = workers[slot].as_ref().is_none_or(|h| h.is_finished());
            let stalled = !dead
                && now.saturating_sub(shared.heartbeats[slot].load(Ordering::Relaxed))
                    > shared.cfg.stall_limit_ms;
            if dead || stalled {
                if shared.shutdown.load(Ordering::Relaxed) {
                    // Workers exiting at shutdown are not casualties.
                    return;
                }
                let hist = &mut history[slot];
                while hist
                    .front()
                    .is_some_and(|&t| now.saturating_sub(t) > shared.cfg.restart_window_ms)
                {
                    hist.pop_front();
                }
                if hist.is_empty() {
                    // The storm (if any) has aged out: restart cheap again.
                    backoff[slot] = shared.cfg.restart_backoff_ms.max(1);
                }
                if hist.len() >= shared.cfg.max_restarts_per_window as usize {
                    // Restart storm: retire the slot instead of burning CPU
                    // respawning a worker that dies every time.
                    shared.lost_flags[slot].store(true, Ordering::Relaxed);
                    shared.counters.worker_lost.fetch_add(1, Ordering::Relaxed);
                    shared.lost_slots.fetch_add(1, Ordering::Relaxed);
                    meter::count("serve.worker_lost");
                    continue;
                }
                if now < next_ok[slot] {
                    continue; // still backing off
                }
                // Bump the generation first so a merely-stalled thread
                // retires itself when it wakes instead of double-serving.
                let gen = shared.generations[slot].fetch_add(1, Ordering::Relaxed) + 1;
                shared.counters.worker_restarts.fetch_add(1, Ordering::Relaxed);
                shared.heartbeats[slot].store(now, Ordering::Relaxed);
                let handle = spawn_worker(Arc::clone(&shared), slot, gen);
                // Dropping the old handle detaches a stalled-but-alive
                // thread; it exits on its own at the generation check.
                let _old = workers[slot].replace(handle);
                hist.push_back(now);
                next_ok[slot] = now + backoff[slot];
                backoff[slot] = (backoff[slot] * 2).min(shared.cfg.restart_window_ms.max(1));
            }
        }
        drop(workers);

        if shared.lost_slots.load(Ordering::Relaxed) >= n {
            // Nobody left to serve: answer the backlog with the typed
            // error instead of letting tickets wait out their deadlines.
            for ticket in shared.queue.drain() {
                finish(&shared, ticket, Err(ServeError::WorkerLost));
            }
            for ticket in shared.batcher.drain() {
                finish(&shared, ticket, Err(ServeError::WorkerLost));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::BreakerState;

    fn tiny_engine(workers: usize, queue: usize) -> ServeEngine {
        let mut cfg = ServeConfig::new(RevBiFPNConfig::tiny(10));
        cfg.workers = workers;
        cfg.queue_capacity = queue;
        cfg.max_batch = 2;
        cfg.watchdog_poll_ms = 10;
        ServeEngine::start(cfg)
    }

    fn image(fill: f32) -> Tensor {
        Tensor::full(Shape::new(1, 3, 32, 32), fill)
    }

    #[test]
    fn serves_a_request_end_to_end() {
        let engine = tiny_engine(1, 8);
        let pending = engine.submit(image(0.1)).unwrap();
        let resp = pending.wait().expect("inference should succeed");
        assert_eq!(resp.logits.len(), 10);
        assert!(resp.logits.iter().all(|v| v.is_finite()));
        assert_eq!(resp.degrade_level, 0);
        let h = engine.health();
        assert_eq!(h.completed_count, 1);
        assert!(h.peak_scratch_bytes > 0);
        engine.shutdown();
    }

    #[test]
    fn batching_preserves_per_request_results() {
        let engine = tiny_engine(1, 8);
        // Identical inputs through a deterministic model: identical logits,
        // whether batched together or not.
        let a = engine.submit(image(0.2)).unwrap();
        let b = engine.submit(image(0.2)).unwrap();
        let ra = a.wait().unwrap();
        let rb = b.wait().unwrap();
        assert_eq!(ra.logits, rb.logits);
        engine.shutdown();
    }

    #[test]
    fn invalid_inputs_are_rejected_and_quarantined() {
        let engine = tiny_engine(1, 8);
        let bad_shape = Tensor::zeros(Shape::new(1, 3, 16, 16));
        assert!(matches!(
            engine.submit(bad_shape),
            Err(ServeError::InvalidShape(_))
        ));
        let mut nan = image(0.0);
        nan.data_mut()[0] = f32::NAN;
        assert!(matches!(
            engine.submit(nan),
            Err(ServeError::NonFiniteInput { count: 1 })
        ));
        assert!(matches!(
            engine.submit(image(1e9)),
            Err(ServeError::OutOfRange { .. })
        ));
        let h = engine.health();
        assert_eq!(h.rejected_count, 3);
        assert_eq!(h.completed_count, 0);
        assert_eq!(engine.quarantine_records().len(), 3);
        engine.shutdown();
    }

    #[test]
    fn poison_pill_is_bisected_out_and_neighbours_survive() {
        let engine = tiny_engine(1, 8);
        let good1 = engine.submit(image(0.1)).unwrap();
        let poison = engine
            .submit_with(image(0.2), 5_000, Some(ServeEngine::POISON_TAG))
            .unwrap();
        let good2 = engine.submit(image(0.3)).unwrap();
        assert_eq!(poison.wait(), Err(ServeError::Poisoned));
        assert!(good1.wait().is_ok());
        assert!(good2.wait().is_ok());
        let h = engine.health();
        assert_eq!(h.quarantined_count, 1);
        assert!(h.batch_panic_count >= 1);
        assert_eq!(h.completed_count, 2);
        // The worker survived: serve one more.
        assert!(engine.submit(image(0.4)).unwrap().wait().is_ok());
        engine.shutdown();
    }

    #[test]
    fn watchdog_restarts_a_crashed_worker() {
        let engine = tiny_engine(1, 8);
        assert!(engine.submit(image(0.1)).unwrap().wait().is_ok());
        engine.inject_worker_crash(0);
        // The crash fires on the worker's next loop pass; the watchdog then
        // respawns. Serve again to prove recovery.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if engine.health().worker_restarts >= 1 {
                break;
            }
            assert!(Instant::now() < deadline, "watchdog never restarted the worker");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(engine.submit(image(0.2)).unwrap().wait().is_ok());
        engine.shutdown();
    }

    #[test]
    fn watchdog_replaces_a_stalled_worker() {
        let mut cfg = ServeConfig::new(RevBiFPNConfig::tiny(10));
        cfg.workers = 1;
        cfg.watchdog_poll_ms = 10;
        cfg.stall_limit_ms = 50;
        let engine = ServeEngine::start(cfg);
        assert!(engine.submit(image(0.1)).unwrap().wait().is_ok());
        engine.inject_worker_stall(0, 400);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if engine.health().worker_restarts >= 1 {
                break;
            }
            assert!(Instant::now() < deadline, "watchdog never replaced the stalled worker");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(engine.submit(image(0.2)).unwrap().wait().is_ok());
        engine.shutdown();
    }

    #[test]
    fn queue_overflow_sheds_with_typed_error() {
        // No workers draining: fill the queue synchronously.
        let mut cfg = ServeConfig::new(RevBiFPNConfig::tiny(10));
        cfg.workers = 1;
        cfg.queue_capacity = 2;
        cfg.max_batch = 1;
        // Stall the only worker so nothing drains while we overfill.
        let engine = ServeEngine::start(cfg);
        engine.inject_worker_stall(0, 300);
        std::thread::sleep(Duration::from_millis(30));
        let mut shed = 0;
        let mut pendings = Vec::new();
        for _ in 0..6 {
            match engine.submit(image(0.1)) {
                Ok(p) => pendings.push(p),
                Err(ServeError::QueueFull { .. }) => shed += 1,
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        }
        assert!(shed >= 1, "overfill should shed at least one request");
        assert!(engine.health().shed_count >= shed);
        engine.shutdown();
    }

    #[test]
    fn model_bank_swaps_packed_panels_with_the_ladder() {
        let mut cfg = ServeConfig::new(RevBiFPNConfig::tiny(10));
        cfg.fallback = Some(RevBiFPNConfig::tiny(10).with_resolution(16));
        cfg.batch.calibrate_on_freeze = false;
        let swaps_before = meter::event_count("serve.variant_swap");

        let counters = Arc::new(Counters::default());
        // Ungoverned (budget 0): the classic hard-swap discipline.
        let governor = Arc::new(MemoryGovernor::new(GovernorConfig::default()));
        let mut bank = ModelBank::new(
            &cfg,
            Arc::clone(&counters),
            governor,
            Arc::new(CostModel::new()),
            0,
            Instant::now(),
            true,
        );
        let resident = meter::packed_current();
        assert!(resident > 0, "primary must be frozen eagerly");

        // Levels 0..=2 serve the primary without touching the panels.
        for level in 0..=2 {
            assert_eq!(bank.select(level).cfg().resolution, 32);
        }
        assert_eq!(meter::packed_current(), resident);
        assert_eq!(meter::event_count("serve.variant_swap"), swaps_before);

        // Level 3 swaps to the fallback: the primary's panels are gone,
        // the (identical-plan, same channel widths) fallback's are resident.
        assert_eq!(bank.select(3).cfg().resolution, 16);
        assert_eq!(meter::event_count("serve.variant_swap"), swaps_before + 1);
        assert!(bank.primary.is_none(), "primary must be dropped on swap");
        assert!(meter::packed_current() > 0);

        // Steady state at level 3: no re-freeze, no extra swap events.
        let at_fallback = meter::packed_current();
        assert_eq!(bank.select(3).cfg().resolution, 16);
        assert_eq!(meter::packed_current(), at_fallback);
        assert_eq!(meter::event_count("serve.variant_swap"), swaps_before + 1);

        // Recovery below level 3 rebuilds the primary deterministically.
        assert_eq!(bank.select(0).cfg().resolution, 32);
        assert_eq!(meter::event_count("serve.variant_swap"), swaps_before + 2);
        assert!(bank.fallback.is_none(), "fallback must be dropped on recovery");
        assert_eq!(meter::packed_current(), resident, "rebuilt primary packs the same bytes");

        assert_eq!(
            counters.resident_f32_bytes.load(Ordering::Relaxed),
            meter::packed_current(),
            "published gauge must track the thread-local meter"
        );
        drop(bank);
        assert_eq!(meter::packed_current(), 0, "dropping the bank releases all panels");
        assert_eq!(counters.resident_f32_bytes.load(Ordering::Relaxed), 0);
        assert_eq!(counters.resident_int8_bytes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn governed_bank_keeps_both_variants_until_budget_presses() {
        let mut cfg = ServeConfig::new(RevBiFPNConfig::tiny(10));
        cfg.fallback = Some(RevBiFPNConfig::tiny(10).with_resolution(16));
        cfg.batch.calibrate_on_freeze = false;

        // Learn the primary's true panel size with a throwaway ungoverned
        // bank, then set a budget that fits exactly one variant.
        let counters = Arc::new(Counters::default());
        let probe_gov = Arc::new(MemoryGovernor::new(GovernorConfig::default()));
        let probe = ModelBank::new(
            &cfg,
            Arc::clone(&counters),
            probe_gov,
            Arc::new(CostModel::new()),
            0,
            Instant::now(),
            true,
        );
        let one_variant = meter::packed_current() as u64;
        drop(probe);
        assert!(one_variant > 0);

        let governor = Arc::new(MemoryGovernor::new(GovernorConfig {
            budget_bytes: one_variant + one_variant / 2,
            cold_after_ms: 0,
        }));
        let mut bank = ModelBank::new(
            &cfg,
            Arc::clone(&counters),
            Arc::clone(&governor),
            Arc::new(CostModel::new()),
            0,
            Instant::now(),
            true,
        );
        assert_eq!(bank.select(0).cfg().resolution, 32);

        // Routing to the fallback must NOT hard-drop the primary: the
        // governor decides. Freezing the (equal-sized) fallback overflows
        // the 1.5x budget, so the unpinned primary is flagged; the worker
        // loop's eviction poll (process_evictions here) drops it.
        assert_eq!(bank.select(3).cfg().resolution, 16);
        assert!(bank.process_evictions(), "budget pressure must evict the cold primary");
        assert!(bank.primary.is_none());
        assert!(bank.fallback.is_some());
        assert!(governor.evictions() >= 1);
        assert!(governor.resident_bytes() <= governor.budget_bytes());
        assert_eq!(governor.oversize_grants(), 0);

        // Recovery re-freezes the primary; now the fallback is the victim,
        // processed inside install()'s own reservation loop.
        assert_eq!(bank.select(0).cfg().resolution, 32);
        bank.process_evictions();
        assert!(bank.fallback.is_none(), "budget fits one variant; fallback must go");
        assert!(governor.evictions() >= 2);
        assert!(governor.resident_bytes() <= governor.budget_bytes());
        assert_eq!(governor.oversize_grants(), 0, "no oversize grant was ever needed");

        drop(bank);
        assert_eq!(governor.resident_bytes(), 0, "drop clears the ledger");
        assert_eq!(meter::packed_current(), 0);
    }

    #[test]
    fn rate_quota_sheds_with_typed_error_and_counts() {
        let mut cfg = ServeConfig::new(RevBiFPNConfig::tiny(10));
        cfg.workers = 1;
        cfg.queue_capacity = 16;
        // Effectively no refill, burst of 2: the third submit must shed.
        cfg.default_quota =
            TenantQuota { rate_per_sec: 0.001, burst: 2, max_in_flight: 64, weight: 1 };
        let engine = ServeEngine::start(cfg);
        let t = TenantId(7);
        let a = engine.submit_tenant(t, image(0.1)).unwrap();
        let b = engine.submit_tenant(t, image(0.1)).unwrap();
        match engine.submit_tenant(t, image(0.1)) {
            Err(ServeError::QuotaExceeded { tenant, scope }) => {
                assert_eq!(tenant, t);
                assert_eq!(scope, QuotaScope::Rate);
            }
            other => panic!("expected a rate-quota shed, got {other:?}"),
        }
        assert!(a.wait().is_ok());
        assert!(b.wait().is_ok());
        let h = engine.health();
        let th = h.tenant(t).expect("tenant must appear in health");
        assert_eq!(th.stats.admitted, 2);
        assert_eq!(th.stats.shed_quota, 1);
        assert_eq!(th.stats.completed, 2);
        assert_eq!(th.in_flight, 0, "finish() must settle the in-flight ledger");
        // Another tenant is untouched by tenant 7's empty bucket.
        assert!(engine.submit_tenant(TenantId(8), image(0.1)).unwrap().wait().is_ok());
        engine.shutdown();
    }

    #[test]
    fn in_flight_cap_sheds_until_requests_resolve() {
        let mut cfg = ServeConfig::new(RevBiFPNConfig::tiny(10));
        cfg.workers = 1;
        cfg.queue_capacity = 16;
        cfg.default_quota =
            TenantQuota { rate_per_sec: f64::INFINITY, burst: 8, max_in_flight: 2, weight: 1 };
        let engine = ServeEngine::start(cfg);
        engine.inject_worker_stall(0, 200);
        std::thread::sleep(Duration::from_millis(20));
        let t = TenantId(3);
        let a = engine.submit_tenant(t, image(0.1)).unwrap();
        let b = engine.submit_tenant(t, image(0.1)).unwrap();
        match engine.submit_tenant(t, image(0.1)) {
            Err(ServeError::QuotaExceeded { tenant, scope }) => {
                assert_eq!(tenant, t);
                assert_eq!(scope, QuotaScope::InFlight);
            }
            other => panic!("expected an in-flight shed, got {other:?}"),
        }
        assert!(a.wait().is_ok());
        assert!(b.wait().is_ok());
        // Both resolved: capacity is available again.
        assert!(engine.submit_tenant(t, image(0.2)).unwrap().wait().is_ok());
        engine.shutdown();
    }

    #[test]
    fn breaker_trips_on_poison_and_recovers_through_probes() {
        let mut cfg = ServeConfig::new(RevBiFPNConfig::tiny(10));
        cfg.workers = 1;
        cfg.queue_capacity = 16;
        cfg.max_batch = 1; // keep poison isolation out of the picture
        cfg.breaker = BreakerConfig {
            window: 8,
            min_samples: 4,
            trip_ratio: 0.5,
            open_ms: 100,
            half_open_probes: 1,
        };
        let engine = ServeEngine::start(cfg);
        let t = TenantId(9);

        // Four poison pills: every outcome is a worker-burning failure, so
        // the breaker must trip at the window minimum.
        for _ in 0..4 {
            let p = engine
                .submit_tenant_with(t, image(0.2), 5_000, Some(ServeEngine::POISON_TAG))
                .unwrap();
            assert_eq!(p.wait(), Err(ServeError::Poisoned));
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        let retry_hint = loop {
            match engine.submit_tenant(t, image(0.1)) {
                Err(ServeError::CircuitOpen { tenant, retry_in_ms }) => {
                    assert_eq!(tenant, t);
                    break retry_in_ms;
                }
                Ok(p) => {
                    // A pre-trip straggler outcome may still be settling;
                    // drain and retry.
                    let _ = p.wait();
                }
                Err(e) => panic!("unexpected admission error: {e}"),
            }
            assert!(Instant::now() < deadline, "breaker never opened");
        };
        assert!(retry_hint <= 100);
        let th = engine.health();
        let slice = th.tenant(t).expect("tenant slice");
        assert_eq!(slice.breaker, BreakerState::Open);
        assert!(slice.breaker_trips >= 1);
        assert!(slice.stats.shed_breaker >= 1);

        // Other tenants keep serving while tenant 9 is locked out.
        assert!(engine.submit_tenant(TenantId(1), image(0.1)).unwrap().wait().is_ok());

        // After open_ms, a clean probe closes the breaker again.
        std::thread::sleep(Duration::from_millis(120));
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match engine.submit_tenant(t, image(0.1)) {
                Ok(p) => {
                    assert!(p.wait().is_ok());
                    break;
                }
                Err(ServeError::CircuitOpen { .. }) => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("unexpected admission error: {e}"),
            }
            assert!(Instant::now() < deadline, "breaker never re-admitted");
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if engine.health().tenant(t).unwrap().breaker == BreakerState::Closed {
                break;
            }
            assert!(Instant::now() < deadline, "breaker never re-closed");
            std::thread::sleep(Duration::from_millis(10));
        }
        engine.shutdown();
    }

    #[test]
    fn runtime_quota_update_applies_immediately() {
        let mut cfg = ServeConfig::new(RevBiFPNConfig::tiny(10));
        cfg.workers = 1;
        let engine = ServeEngine::start(cfg);
        let t = TenantId(5);
        assert!(engine.submit_tenant(t, image(0.1)).unwrap().wait().is_ok());
        // Choke the tenant: no refill, burst 1. Reconfiguration keeps one
        // earned token (capped at the new burst), then the bucket is dry.
        engine.set_tenant_quota(
            t,
            TenantQuota { rate_per_sec: 0.001, burst: 1, max_in_flight: 64, weight: 1 },
        );
        assert!(engine.submit_tenant(t, image(0.1)).unwrap().wait().is_ok());
        assert!(matches!(
            engine.submit_tenant(t, image(0.1)),
            Err(ServeError::QuotaExceeded { scope: QuotaScope::Rate, .. })
        ));
        // And re-open it.
        engine.set_tenant_quota(t, TenantQuota::default());
        assert!(engine.submit_tenant(t, image(0.1)).unwrap().wait().is_ok());
        engine.shutdown();
    }

    #[test]
    fn int8_precision_serves_and_reports_resident_bytes() {
        let mut cfg = ServeConfig::new(RevBiFPNConfig::tiny(10));
        cfg.workers = 1;
        cfg.precision = Precision::Int8;
        cfg.quant_gate = QuantGateConfig { calibration_images: 4, min_agreement: 0.0 };
        let engine = ServeEngine::start(cfg);
        let resp = engine.submit(image(0.1)).unwrap().wait().expect("int8 serving must work");
        assert!(resp.logits.iter().all(|v| v.is_finite()));
        let h = engine.health();
        assert_eq!(h.completed_count, 1);
        assert_eq!(h.quant_gate_trips, 0);
        assert!(h.resident_int8_bytes > 0, "int8 panels must be resident");
        assert!(
            h.resident_int8_bytes > h.resident_f32_bytes,
            "int8 panels ({}) should dominate the residual f32 (squeeze-excite) panels ({})",
            h.resident_int8_bytes,
            h.resident_f32_bytes
        );
        engine.shutdown();
    }

    #[test]
    fn quant_gate_trip_falls_back_to_f32_serving() {
        let mut cfg = ServeConfig::new(RevBiFPNConfig::tiny(10));
        cfg.workers = 1;
        cfg.precision = Precision::Int8;
        // min_agreement above 1.0 cannot be met: the gate must trip.
        cfg.quant_gate = QuantGateConfig { calibration_images: 2, min_agreement: 1.5 };
        let engine = ServeEngine::start(cfg);
        let resp = engine.submit(image(0.1)).unwrap().wait().expect("f32 fallback must serve");
        assert!(resp.logits.iter().all(|v| v.is_finite()));
        let h = engine.health();
        assert!(h.quant_gate_trips >= 1, "the impossible gate must trip");
        assert_eq!(h.resident_int8_bytes, 0, "tripped gate must not keep int8 panels");
        assert!(h.resident_f32_bytes > 0, "the f32 twin must serve instead");
        engine.shutdown();
    }

    #[test]
    fn overload_routes_to_fallback_variant_and_recovers() {
        let mut cfg = ServeConfig::new(RevBiFPNConfig::tiny(10));
        cfg.fallback = Some(RevBiFPNConfig::tiny(10).with_resolution(16));
        cfg.workers = 1;
        cfg.queue_capacity = 16;
        cfg.max_batch = 2;
        cfg.watchdog_poll_ms = 5;
        cfg.default_timeout_ms = 20_000;
        cfg.degrade = DegradeConfig {
            max_level: 3,
            high_depth: 4,
            low_depth: 1,
            p99_high_ms: f64::INFINITY, // depth-driven
            p99_low_ms: f64::INFINITY,
            cooldown_ms: 10,
            calm_hold_ms: 20,
        };
        let engine = ServeEngine::start(cfg);

        // Stall the only worker so the queue provably fills; the watchdog
        // walks the ladder down to level 3 while the backlog sits.
        engine.inject_worker_stall(0, 200);
        std::thread::sleep(Duration::from_millis(20));
        let mut pendings = Vec::new();
        for _ in 0..10 {
            if let Ok(p) = engine.submit(image(0.1)) {
                pendings.push(p);
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.degrade_level() < 3 {
            assert!(Instant::now() < deadline, "backlog never drove the ladder to level 3");
            std::thread::sleep(Duration::from_millis(5));
        }

        // The stalled worker wakes into level 3 and serves the backlog from
        // the frozen fallback variant.
        let mut served_at_fallback = 0;
        for p in pendings {
            let resp = p.wait().expect("backlog requests must be served");
            assert!(resp.logits.iter().all(|v| v.is_finite()));
            if resp.degrade_level >= 3 {
                served_at_fallback += 1;
            }
        }
        assert!(served_at_fallback > 0, "some responses must come from the fallback variant");

        // Load gone: the ladder must recover to 0, and full-quality serving
        // must work again (the worker re-freezes the primary on demand).
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.degrade_level() != 0 {
            assert!(Instant::now() < deadline, "ladder never recovered after the backlog drained");
            std::thread::sleep(Duration::from_millis(10));
        }
        // The worker samples the level once per loop pass, so the first
        // response after recovery may still carry a stale (higher) level;
        // retry until one is served at full quality.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let resp = engine.submit(image(0.2)).unwrap().wait().unwrap();
            if resp.degrade_level == 0 {
                break;
            }
            assert!(Instant::now() < deadline, "full-quality serving never resumed");
            std::thread::sleep(Duration::from_millis(10));
        }
        engine.shutdown();
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("revbifpn_serve_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn saved_artifact(dir: &Path, name: &str, seed: u64) -> (std::path::PathBuf, FrozenClassifier) {
        let model = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(10).with_seed(seed));
        let frozen = model.freeze().unwrap();
        let path = dir.join(name);
        revbifpn::artifact::save_classifier_artifact(&path, &frozen).unwrap();
        (path, frozen)
    }

    #[test]
    fn reload_publishes_new_generation_and_serves_it_bitwise() {
        let dir = tmp_dir("reload_ok");
        let (path, frozen) = saved_artifact(&dir, "m.frz", 9);
        let x = image(0.1);
        let want = frozen.forward(&x);

        let mut cfg = ServeConfig::new(RevBiFPNConfig::tiny(10));
        cfg.workers = 1;
        cfg.quant_gate.min_agreement = 0.0; // differently-seeded weights may disagree
        let engine = ServeEngine::start(cfg);
        assert!(engine.submit(x.clone()).unwrap().wait().is_ok());
        assert_eq!(engine.health().model_generation, 0);

        let report = engine.reload_artifact(&path).expect("valid artifact must publish");
        assert_eq!(report.generation, 1);
        assert_eq!(report.agreement, None, "first publish has no reference generation");
        let h = engine.health();
        assert_eq!((h.model_generation, h.reloads_ok, h.reloads_failed), (1, 1, 0));
        assert_eq!(h.artifact_digest, Some(report.digest));

        // Workers pick the new generation up between batches; retry until a
        // response is bitwise equal to the artifact model's own forward.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let resp = engine.submit(x.clone()).unwrap().wait().unwrap();
            if resp.logits == want.data() {
                break;
            }
            assert!(Instant::now() < deadline, "reloaded generation never started serving");
            std::thread::sleep(Duration::from_millis(5));
        }
        engine.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reload_failures_are_typed_and_roll_back() {
        let dir = tmp_dir("reload_fail");
        let mut cfg = ServeConfig::new(RevBiFPNConfig::tiny(10));
        cfg.workers = 1;
        cfg.quant_gate.min_agreement = 0.0;
        let engine = ServeEngine::start(cfg);

        // Missing file: Io, nothing quarantined, generation unchanged.
        let missing = dir.join("nope.frz");
        let err = engine.reload_artifact(&missing).unwrap_err();
        assert!(matches!(err, ReloadError::Io { .. }), "{err}");

        // Truncated file: Corrupt + quarantined to .corrupt.
        let (good, _) = saved_artifact(&dir, "good.frz", 3);
        let bytes = std::fs::read(&good).unwrap();
        let torn = dir.join("torn.frz");
        std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();
        let err = engine.reload_artifact(&torn).unwrap_err();
        assert!(matches!(err, ReloadError::Corrupt { quarantined: true, .. }), "{err}");
        assert!(!torn.exists(), "corrupt artifact must move aside");
        assert!(quarantine_path(&torn).exists(), "quarantine file must exist");

        // Wrong resolution: Incompatible, file left in place (not our kind
        // of corruption).
        let other = RevBiFPNClassifier::new(RevBiFPNConfig::tiny(10).with_resolution(16));
        let incompat = dir.join("incompat.frz");
        revbifpn::artifact::save_classifier_artifact(&incompat, &other.freeze().unwrap())
            .unwrap();
        let err = engine.reload_artifact(&incompat).unwrap_err();
        assert!(matches!(err, ReloadError::Incompatible { .. }), "{err}");
        assert!(incompat.exists(), "incompatible artifacts are not quarantined");

        // After three failures: still generation 0 and still serving.
        let h = engine.health();
        assert_eq!((h.model_generation, h.reloads_ok, h.reloads_failed), (0, 0, 3));
        assert!(engine.submit(image(0.2)).unwrap().wait().is_ok());
        engine.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reload_gate_rejects_against_published_generation() {
        let dir = tmp_dir("reload_gate");
        let (path_a, _) = saved_artifact(&dir, "a.frz", 1);
        let (path_b, _) = saved_artifact(&dir, "b.frz", 2);

        let mut cfg = ServeConfig::new(RevBiFPNConfig::tiny(10));
        cfg.workers = 1;
        // Impossible threshold: the first publish passes (no reference to
        // compare against), every later one must gate-reject.
        cfg.quant_gate = QuantGateConfig { calibration_images: 4, min_agreement: 1.5 };
        let engine = ServeEngine::start(cfg);

        assert_eq!(engine.reload_artifact(&path_a).unwrap().generation, 1);
        let err = engine.reload_artifact(&path_b).unwrap_err();
        match err {
            ReloadError::GateRejected { agreement, threshold, quarantined } => {
                assert!(agreement <= 1.0);
                assert_eq!(threshold, 1.5);
                assert!(quarantined);
            }
            other => panic!("expected gate rejection, got {other}"),
        }
        assert!(quarantine_path(&path_b).exists());
        // The previous generation keeps serving.
        let h = engine.health();
        assert_eq!((h.model_generation, h.reloads_ok, h.reloads_failed), (1, 1, 1));
        assert!(engine.submit(image(0.1)).unwrap().wait().is_ok());
        engine.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cold_start_from_artifact_serves_bitwise_without_config_freeze() {
        let dir = tmp_dir("coldstart");
        let (path, frozen) = saved_artifact(&dir, "m.frz", 7);
        let x = image(0.3);
        let want = frozen.forward(&x);

        let mut cfg = ServeConfig::new(RevBiFPNConfig::tiny(10));
        cfg.workers = 1;
        cfg.quant_gate.min_agreement = 0.0;
        let engine = ServeEngine::start_with_artifact(cfg, &path).unwrap();
        let h = engine.health();
        assert_eq!(h.model_generation, 1);
        assert!(h.artifact_digest.is_some());
        // Every response comes from the artifact generation — there is no
        // config-frozen baseline to race against.
        let resp = engine.submit(x).unwrap().wait().unwrap();
        assert_eq!(resp.logits, want.data(), "mmap-served logits must be bitwise equal");
        engine.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drain_flushes_queue_with_typed_errors_only() {
        // Generous deadline: everything queued is served.
        let mut cfg = ServeConfig::new(RevBiFPNConfig::tiny(10));
        cfg.workers = 1;
        cfg.queue_capacity = 8;
        cfg.default_timeout_ms = 30_000;
        let engine = ServeEngine::start(cfg);
        engine.inject_worker_stall(0, 50);
        std::thread::sleep(Duration::from_millis(10));
        let pendings: Vec<_> =
            (0..4).map(|_| engine.submit(image(0.1)).unwrap()).collect();
        let stats = engine.drain(Duration::from_secs(30));
        assert!(stats.drained_in_time);
        assert_eq!(stats.flushed, 0);
        for p in pendings {
            p.wait().expect("drained-in-time requests must be served");
        }
        assert!(matches!(engine.submit(image(0.2)), Err(ServeError::ShuttingDown)));

        // Zero deadline with a stalled worker: queued requests are flushed
        // with typed ShuttingDown — never dropped, never hung.
        let mut cfg = ServeConfig::new(RevBiFPNConfig::tiny(10));
        cfg.workers = 1;
        cfg.queue_capacity = 8;
        cfg.default_timeout_ms = 30_000;
        let engine = ServeEngine::start(cfg);
        engine.inject_worker_stall(0, 2_000);
        std::thread::sleep(Duration::from_millis(20));
        let pendings: Vec<_> =
            (0..3).map(|_| engine.submit(image(0.1)).unwrap()).collect();
        let stats = engine.drain(Duration::ZERO);
        let mut outcomes = 0;
        for p in pendings {
            match p.wait() {
                Ok(_) | Err(ServeError::ShuttingDown) | Err(ServeError::DeadlineExceeded { .. }) => {
                    outcomes += 1;
                }
                Err(e) => panic!("untyped drain outcome: {e}"),
            }
        }
        assert_eq!(outcomes, 3, "every request must resolve");
        assert!(stats.flushed >= 1, "the stalled worker cannot have drained everything");
        assert!(!stats.drained_in_time);
    }

    #[test]
    fn restart_storm_retires_the_slot_and_escalates_worker_lost() {
        let mut cfg = ServeConfig::new(RevBiFPNConfig::tiny(10));
        cfg.workers = 1;
        cfg.watchdog_poll_ms = 5;
        cfg.restart_backoff_ms = 1;
        cfg.restart_window_ms = 60_000;
        cfg.max_restarts_per_window = 3;
        let engine = ServeEngine::start(cfg);
        assert!(engine.submit(image(0.1)).unwrap().wait().is_ok());

        engine.inject_worker_crash_sticky(0);
        let deadline = Instant::now() + Duration::from_secs(30);
        while engine.health().workers_lost == 0 {
            assert!(Instant::now() < deadline, "watchdog never retired the crashing slot");
            std::thread::sleep(Duration::from_millis(10));
        }
        let h = engine.health();
        assert_eq!(h.workers_lost, 1);
        assert!(
            h.worker_restarts <= 3,
            "restarts ({}) must stay within the per-window budget",
            h.worker_restarts
        );
        // All slots lost: admission escalates with the typed error.
        assert!(matches!(engine.submit(image(0.2)), Err(ServeError::WorkerLost)));
        engine.shutdown();
    }

    #[test]
    fn shutdown_delivers_typed_error_to_queued_requests() {
        let mut cfg = ServeConfig::new(RevBiFPNConfig::tiny(10));
        cfg.workers = 1;
        cfg.queue_capacity = 8;
        let engine = ServeEngine::start(cfg);
        engine.inject_worker_stall(0, 500);
        std::thread::sleep(Duration::from_millis(30));
        let pending = engine.submit(image(0.1)).unwrap();
        engine.shutdown();
        // Either the worker drained it just before the stall took effect,
        // or it was still queued and must get ShuttingDown — never a hang.
        match pending.wait() {
            Ok(_) | Err(ServeError::ShuttingDown) => {}
            Err(e) => panic!("unexpected outcome: {e}"),
        }
        assert!(matches!(engine.submit(image(0.2)), Err(ServeError::ShuttingDown)));
    }

    #[test]
    fn infeasible_deadlines_are_shed_at_admission() {
        let mut cfg = ServeConfig::new(RevBiFPNConfig::tiny(10));
        cfg.workers = 1;
        cfg.queue_capacity = 8;
        // Seed manually instead of racing the worker's freeze calibration,
        // so the fit is exactly known when the submissions land.
        cfg.batch.calibrate_on_freeze = false;
        let engine = ServeEngine::start(cfg);
        let key = CostKey { variant: 0, precision: Precision::F32, rung: 32 };
        engine.cost_model().seed(key, 50.0, 50.0); // predict(1) = 100 ms

        match engine.submit_with(image(0.1), 10, None) {
            Err(ServeError::Infeasible { predicted_ms, budget_ms }) => {
                assert_eq!(budget_ms, 10);
                assert!(predicted_ms >= 100, "predicted_ms = {predicted_ms}");
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
        let h = engine.health();
        assert_eq!(h.infeasible_count, 1);
        assert!(h.shed_count >= 1);
        // A budget that covers the prediction is admitted and served.
        assert!(engine.submit_with(image(0.2), 5_000, None).unwrap().wait().is_ok());
        engine.shutdown();
    }

    /// The admission estimate folds waiting work through the cost model:
    /// `backlog` items ahead each cost the marginal per-item time divided
    /// across the worker pool, on top of the request's own dispatch. A
    /// budget that covers an empty system therefore stops covering a
    /// backlogged one, and the uncalibrated model predicts nothing.
    #[test]
    fn backlog_raises_the_admission_estimate() {
        let m = CostModel::new();
        let key = CostKey { variant: 0, precision: Precision::F32, rung: 32 };
        assert_eq!(predict_with_backlog(&m, &key, 64, 2), None);
        m.seed(key, 10.0, 5.0); // own dispatch: 10 + 5 = 15 ms
        assert_eq!(predict_with_backlog(&m, &key, 0, 2), Some(15.0));
        // 8 waiting items * 5 ms / 2 workers = +20 ms.
        assert_eq!(predict_with_backlog(&m, &key, 8, 2), Some(35.0));
        // A degenerate worker count is clamped, never a division by zero.
        assert_eq!(predict_with_backlog(&m, &key, 8, 0), Some(55.0));
    }

    /// Satellite: the degradation ladder's batch-shrink rung consults the
    /// cost model, and the resulting cap trace is deterministic — two
    /// identical replays of (level, key) sequences produce identical caps,
    /// with calibrated caps coming from the amortization knee rather than
    /// blind halving.
    #[test]
    fn degrade_batch_rung_follows_cost_model_deterministically() {
        let key = CostKey { variant: 0, precision: Precision::F32, rung: 32 };
        let levels: [u8; 6] = [0, 1, 2, 1, 3, 0];
        let configured = 16;

        // Uncalibrated: level >= 1 falls back to the classic halving.
        let cold = CostModel::new();
        let cold_trace: Vec<usize> = levels
            .iter()
            .map(|&l| effective_max_batch(&cold, &key, l, configured, 0.25))
            .collect();
        assert_eq!(cold_trace, vec![16, 8, 8, 8, 8, 16]);

        // Calibrated: a = 2ms, c = 0.5ms → knee at ceil(2 / (0.25 * 0.5))
        // = 16, clamped to the configured cap.
        let warm = CostModel::new();
        warm.seed(key, 2.0, 0.5);
        let warm_trace: Vec<usize> = levels
            .iter()
            .map(|&l| effective_max_batch(&warm, &key, l, configured, 0.25))
            .collect();
        // Steeper marginal cost moves the knee below the halving point.
        let steep = CostModel::new();
        steep.seed(key, 0.5, 1.0);
        let steep_trace: Vec<usize> = levels
            .iter()
            .map(|&l| effective_max_batch(&steep, &key, l, configured, 0.25))
            .collect();
        assert_eq!(warm_trace, vec![16, 16, 16, 16, 16, 16]);
        assert_eq!(steep_trace, vec![16, 2, 2, 2, 2, 16]);

        // Determinism under replay: same model state, same trace.
        let replay: Vec<usize> = levels
            .iter()
            .map(|&l| effective_max_batch(&steep, &key, l, configured, 0.25))
            .collect();
        assert_eq!(replay, steep_trace);
    }
}
