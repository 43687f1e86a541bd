//! `serve_steady` / `serve_overload`: open loop against a one-worker
//! `ServeEngine` serving S0 (10 classes) at 96².
//!
//! * steady — one tenant, Poisson 12 req/s: about a fifth of full-quality
//!   capacity (17 ms per forward on the sizing host). Four requests in five
//!   find the worker idle, so the median is service time plus
//!   admission/queue/batcher overhead and batches rarely form. Closer to
//!   capacity the median is mostly queueing, which amplifies every slow
//!   spell of a shared host: at 20 req/s an 8 % slower host moved it by
//!   25 %, at 40 req/s it swung 30 % from seed to seed. In a calm spell 12
//!   and 20 req/s read the same 18–20 ms.
//! * overload — three tenants on one merged schedule at 400 req/s, about six
//!   times capacity: the batcher, cost model, DRR, quotas, typed shedding
//!   and the degrade ladder do most of the work.

use crate::harness::{repeated_setup, time_median_ns, Latencies, Outcome, Params, Window};
use crate::json::Json;
use crate::loadgen::{drive, poisson_schedule, Arrival, LoadResult, Record, Service};
use crate::metrics::Values;
use crate::stats;
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn::{RevBiFPNClassifier, RevBiFPNConfig};
use revbifpn_serve::{
    HealthSnapshot, InferResponse, PendingResponse, ServeConfig, ServeEngine, ServeError, TenantId,
    TenantQuota,
};
use revbifpn_tensor::{Shape, Tensor};
use std::hint::black_box;
use std::time::{Duration, Instant};

const RES: usize = 96;
const CLASSES: usize = 10;
const IMAGES: usize = 64;
const WARMUPS: usize = 3;
/// Every submission must resolve within this long of the last send.
const GUARD: Duration = Duration::from_secs(5);
/// Level-0 responses compared against a direct forward.
const PARITY_SAMPLES: usize = 32;

struct Tenant {
    name: &'static str,
    id: TenantId,
    rate_per_s: f64,
    /// Latency limit for `goodput_slo_rps`.
    limit_us: u64,
    /// Deadline handed to the engine.
    timeout_ms: u64,
    quota: Option<TenantQuota>,
    /// Whether this tenant's latencies are the workload's `latency_*`.
    headline: bool,
}

fn quota(weight: u32, max_in_flight: u32) -> Option<TenantQuota> {
    Some(TenantQuota {
        rate_per_sec: f64::INFINITY,
        burst: 256,
        max_in_flight,
        weight,
    })
}

fn tenants(overload: bool) -> Vec<Tenant> {
    let t = |name, id, rate_per_s, limit_ms: u64, timeout_ms, quota, headline| Tenant {
        name,
        id: TenantId(id),
        rate_per_s,
        limit_us: limit_ms * 1_000,
        timeout_ms,
        quota,
        headline,
    };
    if overload {
        vec![
            t("interactive", 1, 20.0, 150, 250, quota(4, 16), true),
            t("flood_a", 2, 240.0, 400, 400, quota(1, 24), false),
            t("flood_b", 3, 140.0, 400, 400, quota(2, 16), false),
        ]
    } else {
        vec![t("interactive", 1, 12.0, 100, 250, None, true)]
    }
}

fn serve_config(seed: u64, tenants: &[Tenant]) -> ServeConfig {
    let mut cfg = ServeConfig::new(
        RevBiFPNConfig::s0(CLASSES)
            .with_resolution(RES)
            .with_seed(seed),
    );
    cfg.workers = 1;
    cfg.queue_capacity = 64;
    cfg.max_batch = 8;
    cfg.default_timeout_ms = 250;
    cfg.tenant_quotas = tenants
        .iter()
        .filter_map(|t| Some((t.id, t.quota?)))
        .collect();
    cfg
}

struct Rig {
    engine: ServeEngine,
    images: Vec<Tensor>,
    /// Engine start until the first response.
    start_us: f64,
}

/// Image pool, engine start (the worker builds, freezes and calibrates the
/// model) and sequential warm-up requests.
fn build(seed: u64, tenants: &[Tenant]) -> Rig {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E7E);
    let images: Vec<Tensor> = (0..IMAGES)
        .map(|_| Tensor::randn(Shape::new(1, 3, RES, RES), 1.0, &mut rng))
        .collect();
    let t = Instant::now();
    let engine = ServeEngine::start(serve_config(seed, tenants));
    // Submit only once the worker holds its frozen model. A request that
    // waits out the model build is answered in hundreds of milliseconds,
    // and that one sample sits in the engine's 256-deep latency window for
    // the whole run: when it crosses the ladder's p99 threshold (a slow
    // moment of the host is enough) every measured answer is degraded.
    while engine.health().resident_f32_bytes == 0 && t.elapsed() < GUARD {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut start_us = 0.0;
    for (i, x) in images.iter().take(WARMUPS).enumerate() {
        // A generous deadline all the same: calibration may still be running.
        let r = engine
            .submit_tenant_with(tenants[0].id, x.clone(), 5_000, None)
            .and_then(PendingResponse::wait);
        assert!(r.is_ok(), "warm-up request failed: {r:?}");
        if i == 0 {
            start_us = t.elapsed().as_nanos() as f64 / 1e3;
        }
    }
    Rig {
        engine,
        images,
        start_us,
    }
}

struct EngineService<'a> {
    engine: &'a ServeEngine,
    tenants: &'a [Tenant],
    images: &'a [Tensor],
}

impl Service for EngineService<'_> {
    type Pending = PendingResponse;
    type Reply = InferResponse;
    type Error = ServeError;

    fn submit(&self, a: &Arrival) -> Result<PendingResponse, ServeError> {
        let t = &self.tenants[a.tenant];
        self.engine
            .submit_tenant_with(t.id, self.images[a.image].clone(), t.timeout_ms, None)
    }

    fn poll(&self, p: &PendingResponse) -> Option<Result<InferResponse, ServeError>> {
        p.wait_timeout(Duration::ZERO)
    }
}

type Rec = Record<InferResponse, ServeError>;

/// Requests shed with the typed error labelled `label` (`ServeError::label`).
fn shed_count(load: &LoadResult<InferResponse, ServeError>, label: &str) -> u64 {
    let labelled = |r: &&Rec| matches!(&r.outcome, Err(e) if e.is_shed() && e.label() == label);
    load.records.iter().filter(labelled).count() as u64
}

pub fn run(p: &Params, overload: bool) -> Outcome {
    let tenants = tenants(overload);
    let (rig, setup_s) = repeated_setup(|| build(p.seed, &tenants));
    let mut out = Outcome::default();
    let rates: Vec<f64> = tenants.iter().map(|t| t.rate_per_s).collect();
    let schedule = poisson_schedule(p.seed, &rates, p.seconds, IMAGES);
    let svc = EngineService {
        engine: &rig.engine,
        tenants: &tenants,
        images: &rig.images,
    };

    // A traced run records spans for every other request, on the collector.
    let mut tracer = Tracer::new(Instant::now());
    let [n_req, n_submit, n_wait] =
        ["serve.request", "serve.submit", "serve.wait"].map(|n| tracer.name(n));
    let traced = p.traced;
    let window = Window::open();
    let load = drive(&svc, &schedule, GUARD, |r: &Rec| {
        if traced && r.op % 2 == 1 {
            let op = r.op as u64;
            let root = tracer.record(n_req, None, op, r.arrival.due_ns, r.done_ns);
            tracer.record(n_submit, Some(root), op, r.submit_start_ns, r.submit_end_ns);
            if !r.refused {
                tracer.record(n_wait, Some(root), op, r.submit_end_ns, r.done_ns);
            }
        }
    });
    let w = window.close();
    let health = rig.engine.health();

    let offered = schedule.len() as u64;
    let ok: Vec<&Rec> = load.records.iter().filter(|r| r.outcome.is_ok()).collect();
    // Typed load shedding is the engine working as designed; any other
    // error (poisoned, worker lost, shutting down, rejected input) is broken.
    let broken = load
        .records
        .iter()
        .filter(|r| matches!(&r.outcome, Err(e) if !e.is_shed()))
        .count() as u64;
    out.attempted = offered;
    // Typed shedding is the engine working; it is counted by `failed_share`.
    out.failed = broken + load.unresolved as u64;

    let headline = |r: &&Rec| tenants[r.arrival.tenant].headline;
    let mut lat = Latencies::default();
    let (mut lat_plain, mut lat_traced) = (Vec::new(), Vec::new());
    for r in ok.iter().copied().filter(headline) {
        lat.push_ns(r.latency_ns());
        if r.op % 2 == 1 {
            &mut lat_traced
        } else {
            &mut lat_plain
        }
        .push(r.latency_ns());
    }
    let within = ok
        .iter()
        .filter(|r| r.latency_ns() / 1_000 <= tenants[r.arrival.tenant].limit_us)
        .count();
    let degraded = ok
        .iter()
        .filter(|r| r.outcome.as_ref().is_ok_and(|x| x.degrade_level > 0))
        .count();
    let not_ok = offered - ok.len() as u64;

    // Output checks.
    out.check(
        "resolved_once",
        load.unresolved == 0 && load.records.len() as u64 == offered,
        format!(
            "{} of {offered} resolved, {} pending after the {GUARD:?} guard",
            load.records.len(),
            load.unresolved
        ),
    );
    out.check(
        "typed_outcomes",
        broken == 0,
        format!("{broken} requests ended in an error that is not load shedding"),
    );
    out.check(
        "drained",
        health.queue_depth == 0 && health.batcher_depth == 0,
        format!(
            "queue_depth {} batcher_depth {} after the run",
            health.queue_depth, health.batcher_depth
        ),
    );
    let reference = RevBiFPNClassifier::new(serve_config(p.seed, &tenants).model)
        .freeze()
        .expect("S0 freezes");
    let sampled: Vec<&&Rec> = ok
        .iter()
        .filter(|r| r.outcome.as_ref().is_ok_and(|x| x.degrade_level == 0))
        .take(PARITY_SAMPLES)
        .collect();
    let mut worst = 0.0f32;
    for r in &sampled {
        let want = reference.forward(&rig.images[r.arrival.image]);
        let got = &r.outcome.as_ref().expect("filtered to ok").logits;
        let diff = got
            .iter()
            .zip(want.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        worst = worst.max(diff / (1e-4 * (1.0 + want.abs_max())));
    }
    // A run served entirely degraded has nothing to compare; `degraded_share`
    // reports it.
    out.check(
        "parity",
        worst < 1.0,
        format!(
            "worst diff is {worst:.3} of 1e-4 relative over {} level-0 responses",
            sampled.len()
        ),
    );

    // First request due until the last outcome observed.
    let wall_s = load.wall_s;
    let v = &mut out.values;
    if !p.traced {
        v.set("throughput_img_s", ok.len() as f64 / wall_s);
        v.set("goodput_slo_rps", within as f64 / wall_s);
        v.set("peak_heap_bytes", w.peak_heap_bytes as f64);
        v.set("setup_s", setup_s);
    }
    lat.report(v);
    v.set("cpu_ms_per_img", w.cpu_s * 1e3 / ok.len().max(1) as f64);
    v.set("failed_share", not_ok as f64 / offered.max(1) as f64);
    v.set("degraded_share", degraded as f64 / ok.len().max(1) as f64);
    if p.traced {
        layer_values(v, &rig, &reference, &tenants, &load, &health, lat.p50());
        if let (Some(a), Some(b)) = (
            stats::median_u64(&lat_plain),
            stats::median_u64(&lat_traced),
        ) {
            v.set("trace.overhead_share", b as f64 / a as f64 - 1.0);
        }
        out.trace = Some(tracer);
    }

    let sheds = [
        "quota",
        "queue_full",
        "deadline",
        "infeasible",
        "breaker_open",
    ]
    .map(|label| (label.to_string(), Json::Int(shed_count(&load, label))))
    .to_vec();
    out.detail.push(("offered".into(), Json::Int(offered)));
    out.detail.push(("ok".into(), Json::Int(ok.len() as u64)));
    out.detail.push(("shed".into(), Json::Obj(sheds)));
    out.detail.push(("wall_s".into(), Json::Num(wall_s)));
    out.detail
        .push(("lag_p99_us".into(), Json::Int(load.lag_p99_us())));
    out.detail
        .push(("tenants".into(), tenants_json(&tenants, &load)));
    let fits = health.cost_model.iter().map(|c| {
        Json::obj(vec![
            ("variant", Json::Int(u64::from(c.key.variant))),
            ("rung", Json::Int(u64::from(c.key.rung))),
            ("a_ms", Json::Num(c.a_ms)),
            ("c_ms", Json::Num(c.c_ms)),
            ("residual_ms", Json::Num(c.residual_ewma_ms)),
            ("samples", Json::Int(c.samples)),
        ])
    });
    out.detail
        .push(("cost_model".into(), Json::Arr(fits.collect())));
    out
}

fn per_tenant(
    load: &LoadResult<InferResponse, ServeError>,
    i: usize,
) -> impl Iterator<Item = &Rec> {
    load.records.iter().filter(move |r| r.arrival.tenant == i)
}

fn tenants_json(tenants: &[Tenant], load: &LoadResult<InferResponse, ServeError>) -> Json {
    Json::Arr(
        tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let offered = per_tenant(load, i).count();
                let ok: Vec<u64> = per_tenant(load, i)
                    .filter(|r| r.outcome.is_ok())
                    .map(|r| r.latency_ns() / 1_000)
                    .collect();
                let (p50, n) = stats::percentile_of(&ok, 0.5);
                Json::obj(vec![
                    ("name", Json::str(t.name)),
                    ("rate_per_s", Json::Num(t.rate_per_s)),
                    ("limit_us", Json::Int(t.limit_us)),
                    ("offered", Json::Int(offered as u64)),
                    ("ok", Json::Int(n as u64)),
                    ("latency_p50_us", p50.map_or(Json::Null, Json::Int)),
                ])
            })
            .collect(),
    )
}

fn layer_values(
    v: &mut Values,
    rig: &Rig,
    reference: &revbifpn::FrozenClassifier,
    tenants: &[Tenant],
    load: &LoadResult<InferResponse, ServeError>,
    health: &HealthSnapshot,
    e2e_p50_us: Option<u64>,
) {
    v.set("serve.start.us", rig.start_us);
    let submit: Vec<u64> = load
        .records
        .iter()
        .map(|r| r.submit_end_ns - r.submit_start_ns)
        .collect();
    v.set(
        "serve.submit.us",
        stats::median_u64(&submit).unwrap_or(0) as f64 / 1e3,
    );
    let x = &rig.images[0];
    let floor_us = time_median_ns(200, || {
        black_box(reference.forward(black_box(x)));
    }) as f64
        / 1e3;
    v.set("serve.direct_forward.us", floor_us);
    if let Some(p50) = e2e_p50_us {
        v.set("serve.queue_overhead.us", p50 as f64 - floor_us);
    }

    let closes: u64 = health.batch_buckets.iter().map(|b| b.closes).sum();
    let items: f64 = health
        .batch_buckets
        .iter()
        .map(|b| b.mean_batch * b.closes as f64)
        .sum();
    v.set(
        "serve.batch.mean_size",
        if closes > 0 {
            items / closes as f64
        } else {
            0.0
        },
    );
    v.set("serve.batch.close_size", health.batch_size_closes as f64);
    v.set(
        "serve.batch.close_deadline",
        health.batch_deadline_closes as f64,
    );
    v.set(
        "serve.batch.close_linger",
        health.batch_linger_closes as f64,
    );

    v.set("serve.shed.quota", shed_count(load, "quota") as f64);
    v.set(
        "serve.shed.queue_full",
        shed_count(load, "queue_full") as f64,
    );
    v.set("serve.shed.deadline", shed_count(load, "deadline") as f64);
    v.set(
        "serve.shed.infeasible",
        shed_count(load, "infeasible") as f64,
    );
    let level_max = load
        .records
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .map(|x| x.degrade_level)
        .max();
    v.set(
        "serve.degrade.level_max",
        f64::from(level_max.unwrap_or(0).max(health.degrade_level)),
    );

    // The cost model's fit for full-resolution service.
    if let Some(c) = health
        .cost_model
        .iter()
        .find(|c| c.key.variant == 0 && usize::from(c.key.rung) == RES)
    {
        v.set("serve.cost.c_ms", c.c_ms);
        v.set("serve.cost.residual_ms", c.residual_ewma_ms);
    }
    v.set(
        "serve.resident_bytes",
        (health.resident_f32_bytes + health.resident_int8_bytes) as f64,
    );

    let share = |i: usize| {
        let offered = per_tenant(load, i).count();
        let ok = per_tenant(load, i).filter(|r| r.outcome.is_ok()).count();
        (
            ok,
            if offered > 0 {
                ok as f64 / offered as f64
            } else {
                0.0
            },
        )
    };
    let names = [
        "serve.tenant.interactive.ok_share",
        "serve.tenant.flood_a.ok_share",
        "serve.tenant.flood_b.ok_share",
    ];
    for (i, name) in names.into_iter().enumerate().take(tenants.len()) {
        v.set(name, share(i).1);
    }
    if tenants.len() == 3 && share(1).0 > 0 {
        v.set("serve.drr.b_over_a", share(2).0 as f64 / share(1).0 as f64);
    }
    v.set("loadgen.lag_p99_us", load.lag_p99_us() as f64);
    v.set("loadgen.collect_res_us", load.collect_res_us() as f64);
}
