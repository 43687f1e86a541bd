//! Engine observability: latency window, atomic counters, and the
//! poll-style [`HealthSnapshot`].

use crate::batcher::{BucketStats, HIST_BINS};
use crate::cost::{CostKey, CostReading};
use crate::tenant::{BreakerState, TenantId, TenantStats};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Sliding window of recent request latencies with percentile queries.
#[derive(Debug)]
pub struct LatencyWindow {
    window: Mutex<VecDeque<f64>>,
    capacity: usize,
}

impl LatencyWindow {
    /// A window over the last `capacity` latencies.
    pub fn new(capacity: usize) -> Self {
        Self { window: Mutex::new(VecDeque::with_capacity(capacity)), capacity }
    }

    /// Records one latency in milliseconds.
    pub fn record(&self, ms: f64) {
        let mut w = self.window.lock().unwrap();
        if w.len() == self.capacity {
            w.pop_front();
        }
        w.push_back(ms);
    }

    /// Nearest-rank percentile (`p` in `[0, 1]`) over the window; 0.0 when
    /// empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let w = self.window.lock().unwrap();
        if w.is_empty() {
            return 0.0;
        }
        let mut sorted: Vec<f64> = w.iter().copied().collect();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize)
            .clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Number of recorded samples currently in the window.
    pub fn len(&self) -> usize {
        self.window.lock().unwrap().len()
    }

    /// `true` before the first sample.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Cross-thread engine counters (the meter is thread-local; these are the
/// authoritative whole-engine statistics).
#[derive(Debug, Default)]
pub struct Counters {
    /// Requests completed with an [`crate::InferResponse`].
    pub completed: AtomicU64,
    /// Requests shed by admission control or deadline expiry.
    pub shed: AtomicU64,
    /// Requests rejected by input validation.
    pub rejected: AtomicU64,
    /// Requests quarantined after poisoning a batch.
    pub quarantined: AtomicU64,
    /// Batch panics caught (a single poison pill can contribute several
    /// while bisection narrows it down).
    pub batch_panics: AtomicU64,
    /// Worker threads restarted by the watchdog.
    pub worker_restarts: AtomicU64,
    /// Peak cached activation bytes observed on any worker (from
    /// `nn::meter`).
    pub peak_cached_bytes: AtomicUsize,
    /// Peak kernel scratch-arena bytes observed on any worker.
    pub peak_scratch_bytes: AtomicUsize,
    /// Quantization accuracy-gate trips (an int8 variant disagreed with its
    /// f32 twin on calibration inputs and the worker kept f32).
    pub quant_gate_trips: AtomicU64,
    /// f32 packed weight-panel bytes currently resident across all workers.
    pub resident_f32_bytes: AtomicUsize,
    /// int8 weight bytes (with their scales) currently resident across all
    /// workers.
    pub resident_int8_bytes: AtomicUsize,
    /// Hot reloads that published a new model generation.
    pub reloads_ok: AtomicU64,
    /// Hot reloads rejected (corrupt, incompatible, or gate-failed); the
    /// previous generation kept serving.
    pub reloads_failed: AtomicU64,
    /// Worker slots permanently retired after exhausting their restart
    /// budget (crash storms).
    pub worker_lost: AtomicU64,
    /// Expired tickets removed by the proactive queue sweep (as opposed to
    /// shedding at dequeue).
    pub swept_expired: AtomicU64,
    /// Requests shed at admission because their deadline budget cannot
    /// cover a single-item dispatch under the calibrated cost model.
    pub infeasible: AtomicU64,
}

impl Counters {
    /// Raises a peak gauge to at least `value`.
    pub fn raise_peak(gauge: &AtomicUsize, value: usize) {
        gauge.fetch_max(value, Ordering::Relaxed);
    }
}

/// Per-tenant slice of a [`HealthSnapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantHealth {
    /// The tenant.
    pub tenant: TenantId,
    /// Admitted-but-unresolved requests right now.
    pub in_flight: u32,
    /// Circuit-breaker state at snapshot time.
    pub breaker: BreakerState,
    /// Times the tenant's breaker has tripped open.
    pub breaker_trips: u64,
    /// Cumulative admission/outcome counters.
    pub stats: TenantStats,
}

/// Per-service-key slice of a [`HealthSnapshot`]: achieved batch sizes for
/// one batcher bucket key (variant, precision, rung).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BucketHealth {
    /// Service key the stats are for.
    pub key: CostKey,
    /// Achieved-batch-size histogram, bins 1 / 2 / 3–4 / 5–8 / 9–16 / 17+
    /// (see [`HIST_BINS`]).
    pub hist: [u64; HIST_BINS],
    /// Batches dispatched under this key.
    pub closes: u64,
    /// Mean achieved batch size.
    pub mean_batch: f64,
}

impl BucketHealth {
    pub(crate) fn from_stats(key: CostKey, stats: &BucketStats) -> Self {
        Self { key, hist: stats.hist, closes: stats.closes, mean_batch: stats.mean_batch() }
    }
}

/// One poll of the engine's health, safe to call from any thread at any
/// time (all sources are atomics or short critical sections).
#[derive(Clone, Debug, PartialEq)]
pub struct HealthSnapshot {
    /// Requests currently queued.
    pub queue_depth: usize,
    /// Requests shed so far (queue-full + deadline).
    pub shed_count: u64,
    /// Requests rejected by validation so far.
    pub rejected_count: u64,
    /// Requests completed successfully so far.
    pub completed_count: u64,
    /// Requests quarantined after panicking the model.
    pub quarantined_count: u64,
    /// Caught batch panics.
    pub batch_panic_count: u64,
    /// Current degradation-ladder level (0 = full quality).
    pub degrade_level: u8,
    /// Median request latency over the recent window, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency over the recent window, milliseconds.
    pub p99_ms: f64,
    /// Worker threads restarted by the watchdog.
    pub worker_restarts: u64,
    /// Peak cached activation bytes on any worker thread.
    pub peak_cached_bytes: usize,
    /// Peak kernel scratch bytes on any worker thread.
    pub peak_scratch_bytes: usize,
    /// Quantization accuracy-gate trips across all workers.
    pub quant_gate_trips: u64,
    /// f32 packed weight-panel bytes resident across all workers.
    pub resident_f32_bytes: usize,
    /// int8 weight bytes (with their scales) resident across all workers.
    pub resident_int8_bytes: usize,
    /// Model generation currently published (0 = config-frozen baseline,
    /// bumped once per successful hot reload).
    pub model_generation: u64,
    /// Content digest of the published artifact, when one is serving.
    pub artifact_digest: Option<u64>,
    /// Successful hot reloads.
    pub reloads_ok: u64,
    /// Failed hot reloads (the previous generation kept serving).
    pub reloads_failed: u64,
    /// Worker slots permanently lost to restart storms.
    pub workers_lost: u64,
    /// Expired tickets removed by the proactive queue sweep.
    pub swept_expired: u64,
    /// Configured resident packed-panel budget in bytes (0 = unlimited).
    pub resident_budget_bytes: u64,
    /// Bytes the memory governor currently counts resident (committed
    /// panels plus in-flight reservations across all workers).
    pub resident_governed_bytes: u64,
    /// Packed-panel evictions completed by the memory governor.
    pub resident_evictions: u64,
    /// Reservations the governor granted over budget to keep serving live
    /// (non-zero means the budget is smaller than the active working set).
    pub governor_oversize_grants: u64,
    /// Tickets currently waiting in open batcher buckets (admitted and
    /// dequeued, not yet dispatched).
    pub batcher_depth: usize,
    /// Batches closed because they reached the cost-model-optimal size.
    pub batch_size_closes: u64,
    /// Batches closed because the earliest deadline minus predicted
    /// service time hit the closing margin.
    pub batch_deadline_closes: u64,
    /// Batches closed because the max linger expired before filling.
    pub batch_linger_closes: u64,
    /// Buckets force-closed on a generation swap or degrade-rung move.
    pub batch_generation_closes: u64,
    /// Pass-through dispatches (batching disabled).
    pub batch_flush_closes: u64,
    /// Requests shed at admission as deadline-infeasible under the cost
    /// model.
    pub infeasible_count: u64,
    /// Per-service-key achieved-batch-size histograms, sorted by key.
    pub batch_buckets: Vec<BucketHealth>,
    /// Cost-model table: affine fit plus residual gauge per service key,
    /// sorted by key. Residual is the EWMA of |observed − predicted|
    /// batch service time in ms — a calibration-quality signal.
    pub cost_model: Vec<CostReading>,
    /// Per-tenant counters and breaker states, sorted by tenant id. Only
    /// tenants that have submitted at least one request appear.
    pub tenants: Vec<TenantHealth>,
}

impl HealthSnapshot {
    /// The [`TenantHealth`] slice for `tenant`, if it has submitted.
    pub fn tenant(&self, tenant: TenantId) -> Option<&TenantHealth> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let w = LatencyWindow::new(10);
        assert_eq!(w.percentile(0.5), 0.0);
        for v in [10.0, 20.0, 30.0, 40.0] {
            w.record(v);
        }
        assert_eq!(w.percentile(0.5), 20.0);
        assert_eq!(w.percentile(0.99), 40.0);
        assert_eq!(w.percentile(0.0), 10.0);
    }

    #[test]
    fn window_evicts_oldest() {
        let w = LatencyWindow::new(3);
        for v in [1.0, 2.0, 3.0, 100.0] {
            w.record(v);
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.percentile(0.0), 2.0);
        assert_eq!(w.percentile(1.0), 100.0);
    }

    #[test]
    fn raise_peak_is_monotone() {
        let g = AtomicUsize::new(0);
        Counters::raise_peak(&g, 100);
        Counters::raise_peak(&g, 40);
        assert_eq!(g.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn snapshot_tenant_lookup_finds_the_right_slice() {
        let snap = HealthSnapshot {
            queue_depth: 0,
            shed_count: 3,
            rejected_count: 0,
            completed_count: 10,
            quarantined_count: 0,
            batch_panic_count: 0,
            degrade_level: 0,
            p50_ms: 1.0,
            p99_ms: 2.0,
            worker_restarts: 0,
            peak_cached_bytes: 0,
            peak_scratch_bytes: 0,
            quant_gate_trips: 0,
            resident_f32_bytes: 0,
            resident_int8_bytes: 0,
            model_generation: 0,
            artifact_digest: None,
            reloads_ok: 0,
            reloads_failed: 0,
            workers_lost: 0,
            swept_expired: 1,
            resident_budget_bytes: 1 << 20,
            resident_governed_bytes: 1 << 19,
            resident_evictions: 2,
            governor_oversize_grants: 0,
            batcher_depth: 0,
            batch_size_closes: 5,
            batch_deadline_closes: 1,
            batch_linger_closes: 2,
            batch_generation_closes: 0,
            batch_flush_closes: 0,
            infeasible_count: 0,
            batch_buckets: Vec::new(),
            cost_model: Vec::new(),
            tenants: vec![
                TenantHealth {
                    tenant: TenantId(1),
                    in_flight: 2,
                    breaker: BreakerState::Closed,
                    breaker_trips: 0,
                    stats: TenantStats { admitted: 8, completed: 6, ..Default::default() },
                },
                TenantHealth {
                    tenant: TenantId(2),
                    in_flight: 0,
                    breaker: BreakerState::Open,
                    breaker_trips: 1,
                    stats: TenantStats { shed_breaker: 4, ..Default::default() },
                },
            ],
        };
        let t1 = snap.tenant(TenantId(1)).expect("tenant 1 present");
        assert_eq!((t1.in_flight, t1.stats.admitted), (2, 8));
        let t2 = snap.tenant(TenantId(2)).expect("tenant 2 present");
        assert_eq!(t2.breaker, BreakerState::Open);
        assert_eq!(t2.stats.shed_breaker, 4);
        assert!(snap.tenant(TenantId(9)).is_none());
        // The snapshot stays cloneable/comparable for test harnesses.
        assert_eq!(snap.clone(), snap);
    }
}
