//! `infer_f32_b1` / `infer_int8_b1`: closed loop, one caller, frozen S0 at
//! 224², batch 1 — the latency path of the paper's baseline model.

use crate::harness::{repeated_setup, Latencies, Outcome, Params, Window};
use crate::json::Json;
use crate::layers::{self, rate};
use crate::metrics::Values;
use crate::stats;
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn::{FrozenClassifier, FrozenStem, Neck, RevBiFPNClassifier, RevBiFPNConfig, RunMode};
use revbifpn_nn::layers::{
    BatchNorm2d, Conv2d, Dropout, GlobalAvgPool, HardSwish, Linear, MBConv, MBConvCfg,
};
use revbifpn_nn::{meter, FrozenLayer, Layer, Param, Sequential};
use revbifpn_rev::FrozenStage;
use revbifpn_tensor::{Shape, Tensor};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const IMAGES: usize = 16;
const WARMUPS: usize = 3;
const CLASSES: usize = 1000;
/// Latency limits for `goodput_slo_rps`: about twice today's median.
const LIMIT_F32_US: u64 = 100_000;
const LIMIT_INT8_US: u64 = 70_000;
/// Scratch-arena growths tolerated in the steady half of the window: a pool
/// thread may first touch a size class late (a handful per run at most),
/// while a per-call allocation shows up as hundreds.
const SCRATCH_GROWTH_ALLOWANCE: u64 = 8;

/// Moves the BN affine parameters off their init — the reversible couplings
/// are zero-initialised, and a model whose every F and G returns 0 would
/// make the parity checks vacuous. Zero-initialised gammas get a small
/// positive value, the rest stay near 1: with the default running statistics
/// nothing normalises, and wider ranges blow the logits up to 1e4, where
/// the int8 comparison stops meaning anything.
fn randomize_bn(model: &mut RevBiFPNClassifier, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB17);
    model.visit_params(&mut |p| {
        if p.name == "bn.gamma" {
            let zero_init = p.value.abs_max() == 0.0;
            let (lo, hi) = if zero_init { (0.1, 0.3) } else { (0.8, 1.2) };
            p.value = Tensor::uniform(p.value.shape(), lo, hi, &mut rng);
        } else if p.name == "bn.beta" {
            p.value = Tensor::uniform(p.value.shape(), -0.2, 0.2, &mut rng);
        }
    });
}

struct Rig {
    model: RevBiFPNClassifier,
    frozen: FrozenClassifier,
    images: Vec<Tensor>,
}

fn freeze(model: &RevBiFPNClassifier, int8: bool) -> FrozenClassifier {
    if int8 {
        model.freeze_int8()
    } else {
        model.freeze()
    }
    .expect("S0 freezes")
}

fn build(seed: u64, int8: bool) -> Rig {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1A6E);
    let images: Vec<Tensor> = (0..IMAGES)
        .map(|_| Tensor::randn(Shape::new(1, 3, 224, 224), 1.0, &mut rng))
        .collect();
    let mut model = RevBiFPNClassifier::new(RevBiFPNConfig::s0(CLASSES).with_seed(seed));
    randomize_bn(&mut model, seed);
    let frozen = freeze(&model, int8);
    for x in images.iter().take(WARMUPS) {
        std::hint::black_box(frozen.forward(x));
    }
    Rig {
        model,
        frozen,
        images,
    }
}

/// The model split at the layer boundaries the public API exposes, frozen
/// piece by piece with the model's own weights. The head is rebuilt from
/// `nn` layers (a `FrozenClsHead` cannot be compiled from outside `core`);
/// the bitwise check against the whole forward catches a drifted replica.
struct Staged {
    stem: FrozenStem,
    stages: Vec<FrozenStage>,
    neck: Vec<FrozenLayer>,
    head_downs: Vec<FrozenLayer>,
    head_tail: FrozenLayer,
}

fn lower(mut layer: FrozenLayer, int8: bool) -> FrozenLayer {
    if int8 {
        layer.quantize();
    }
    layer.compile();
    layer
}

impl Staged {
    fn build(model: &mut RevBiFPNClassifier, int8: bool) -> Self {
        let cfg = model.cfg().clone();
        let stem = model.backbone().stem().freeze().expect("stem freezes");
        let stages = model
            .backbone()
            .body()
            .stages()
            .iter()
            .map(|s| {
                let mut f = s.freeze().expect("stage freezes");
                if int8 {
                    f.quantize();
                }
                f.compile();
                f
            })
            .collect();

        // Same layer structure as `core::Neck` / `core::ClsHead`; the
        // values come from the model, in its own visiting order.
        let mut rng = StdRng::seed_from_u64(0);
        let mut neck = Neck::from_config(&cfg);
        let nc = &cfg.neck_channels;
        let mut downs: Vec<MBConv> = (0..nc.len() - 1)
            .map(|i| {
                MBConv::new(
                    MBConvCfg::down(nc[i], nc[i + 1], 1, cfg.fusion_expansion).plain(),
                    &mut rng,
                )
            })
            .collect();
        let mut tail = Sequential::new();
        tail.add(Box::new(Conv2d::pointwise(
            nc[nc.len() - 1],
            cfg.head_dim,
            false,
            &mut rng,
        )));
        tail.add(Box::new(BatchNorm2d::new(cfg.head_dim)));
        tail.add(Box::new(HardSwish::new()));
        tail.add(Box::new(GlobalAvgPool::new()));
        if cfg.dropout > 0.0 {
            tail.add(Box::new(Dropout::new(cfg.dropout, 0)));
        }
        tail.add(Box::new(Linear::new(
            cfg.head_dim,
            cfg.num_classes,
            &mut rng,
        )));

        let mut params = Vec::new();
        model.visit_neck_head_params(&mut |p| params.push(p.value.clone()));
        let mut buffers = Vec::new();
        model.visit_neck_head_buffers(&mut |t| buffers.push(t.clone()));
        let (mut pi, mut bi) = (params.into_iter(), buffers.into_iter());
        let mut set_param = |p: &mut Param| {
            let v = pi
                .next()
                .expect("head replica has more parameters than the model");
            assert_eq!(
                v.shape(),
                p.value.shape(),
                "head replica parameter shape drifted"
            );
            p.value = v;
        };
        let mut set_buffer = |t: &mut Tensor| {
            let v = bi
                .next()
                .expect("head replica has more buffers than the model");
            assert_eq!(v.shape(), t.shape(), "head replica buffer shape drifted");
            *t = v;
        };
        neck.visit_params(&mut set_param);
        neck.visit_buffers(&mut set_buffer);
        for d in &mut downs {
            d.visit_params(&mut set_param);
            d.visit_buffers(&mut set_buffer);
        }
        tail.visit_params(&mut set_param);
        tail.visit_buffers(&mut set_buffer);
        assert!(
            pi.next().is_none() && bi.next().is_none(),
            "head replica is missing layers"
        );

        Self {
            stem,
            stages,
            neck: neck
                .freeze()
                .expect("neck freezes")
                .into_iter()
                .map(|l| lower(l, int8))
                .collect(),
            head_downs: downs
                .iter()
                .map(|d| lower(d.freeze().expect("head down freezes"), int8))
                .collect(),
            head_tail: lower(tail.freeze().expect("head tail freezes"), int8),
        }
    }

    fn head(&self, neck: &[Tensor]) -> Tensor {
        let mut h = neck[0].clone();
        for (i, d) in self.head_downs.iter().enumerate() {
            let down = d.forward(&h);
            h = &down + &neck[i + 1];
        }
        self.head_tail.forward(&h)
    }
}

/// One row of the per-stage table.
struct StageRow {
    name: String,
    kind: &'static str,
    macs: u64,
}

/// Span names and MACs of stem, the body stages, neck and head, in order.
fn stage_rows(model: &RevBiFPNClassifier) -> Vec<StageRow> {
    let cfg = model.cfg();
    let img = Shape::new(1, 3, cfg.resolution, cfg.resolution);
    let stem = model.backbone().stem();
    let mut rows = vec![StageRow {
        name: "core.stem".into(),
        kind: "stem",
        macs: stem.macs(img),
    }];
    let mut shapes = vec![stem.out_shape(img)];
    for (i, s) in model.backbone().body().stages().iter().enumerate() {
        let kind = if s.name() == "rev_silo" {
            "silo"
        } else {
            "block"
        };
        rows.push(StageRow {
            name: format!("rev.stage[{i:02}].{kind}"),
            kind,
            macs: s.macs(&shapes),
        });
        shapes = s.out_shapes(&shapes);
    }
    let neck = Neck::from_config(cfg);
    let head = revbifpn::ClsHead::from_config(cfg);
    rows.push(StageRow {
        name: "core.neck".into(),
        kind: "neck",
        macs: neck.macs(&shapes),
    });
    rows.push(StageRow {
        name: "core.head".into(),
        kind: "head",
        macs: head.macs(&neck.out_shapes(&shapes)),
    });
    rows
}

fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One measured forward: panics and non-finite logits count as failures.
fn guarded(f: impl FnOnce() -> Tensor) -> Option<Tensor> {
    catch_unwind(AssertUnwindSafe(f))
        .ok()
        .filter(Tensor::is_finite)
}

pub fn run(p: &Params, int8: bool) -> Outcome {
    let (mut rig, setup_s) = repeated_setup(|| build(p.seed, int8));
    let mut out = Outcome::default();
    let limit_us = if int8 { LIMIT_INT8_US } else { LIMIT_F32_US };

    let staged = p.traced.then(|| Staged::build(&mut rig.model, int8));
    let rows = stage_rows(&rig.model);
    let mut tracer = Tracer::new(Instant::now());
    let op_name = tracer.name("infer.forward");
    let names: Vec<_> = rows.iter().map(|r| tracer.name(&r.name)).collect();

    // First logits seen per image; every later forward must repeat them
    // bit for bit (whole and staged forwards alike).
    let mut first: Vec<Option<Tensor>> = vec![None; IMAGES];
    let mut repeat_mismatches = 0u64;
    let mut lat = Latencies::default();
    let mut staged_lat = Latencies::default();
    let mut within_limit = 0u64;
    let mut growths_at_half = None;

    let window = Window::open();
    let growths0 = meter::scratch_stats().heap_growths;
    let mut op = 0u64;
    while window.elapsed_s() < p.seconds {
        let i = (op as usize) % IMAGES;
        let x = &rig.images[i];
        // A traced run alternates whole forwards (the untraced arm) with
        // staged, span-recording forwards on the same inputs.
        let use_staged = staged.is_some() && op % 2 == 1;
        let t = Instant::now();
        let y = match &staged {
            Some(s) if use_staged => {
                let root = tracer.begin(op_name, None, op);
                let y = guarded(|| {
                    let mut span = tracer.begin(names[0], Some(root), op);
                    let mut xs = vec![s.stem.forward(x)];
                    tracer.end(span);
                    for (stage, &name) in s.stages.iter().zip(&names[1..]) {
                        span = tracer.begin(name, Some(root), op);
                        xs = stage.forward(&xs);
                        tracer.end(span);
                    }
                    span = tracer.begin(names[names.len() - 2], Some(root), op);
                    let neck: Vec<Tensor> =
                        xs.iter().zip(&s.neck).map(|(t, b)| b.forward(t)).collect();
                    tracer.end(span);
                    span = tracer.begin(names[names.len() - 1], Some(root), op);
                    let y = s.head(&neck);
                    tracer.end(span);
                    y
                });
                tracer.end(root);
                y
            }
            _ => guarded(|| rig.frozen.forward(x)),
        };
        let ns = t.elapsed().as_nanos() as u64;
        out.attempted += 1;
        match y {
            Some(y) => {
                if use_staged {
                    &mut staged_lat
                } else {
                    &mut lat
                }
                .push_ns(ns);
                within_limit += u64::from(ns / 1_000 <= limit_us);
                match &first[i] {
                    Some(want) => repeat_mismatches += u64::from(!same_bits(want, &y)),
                    None => first[i] = Some(y),
                }
            }
            None => out.failed += 1,
        }
        if growths_at_half.is_none() && window.elapsed_s() >= 0.5 * p.seconds {
            growths_at_half = Some(meter::scratch_stats().heap_growths);
        }
        op += 1;
    }
    let w = window.close();
    let growths_end = meter::scratch_stats().heap_growths;
    let steady_growths = growths_end - growths_at_half.unwrap_or(growths0);
    let ok = out.attempted - out.failed;

    // Output checks, outside the window.
    out.check(
        "finite",
        out.failed == 0,
        format!(
            "{} of {} forwards panicked or were non-finite",
            out.failed, out.attempted
        ),
    );
    out.check(
        "bitwise_repeat",
        repeat_mismatches == 0,
        format!("{repeat_mismatches} forwards differed from the first on the same image"),
    );
    out.check(
        "scratch_steady",
        steady_growths <= SCRATCH_GROWTH_ALLOWANCE,
        format!("{steady_growths} scratch-arena growths in the second half of the window (allowance {SCRATCH_GROWTH_ALLOWANCE})"),
    );
    let seen: Vec<(usize, &Tensor)> = first
        .iter()
        .enumerate()
        .filter_map(|(i, y)| Some((i, y.as_ref()?)))
        .collect();
    let reference = int8.then(|| freeze(&rig.model, false));
    let mut worst = 0.0f32;
    for (i, got) in &seen {
        let x = &rig.images[*i];
        // Tolerances of tests/freeze_parity.rs: fused f32 against the
        // unfused eval forward, int8 against the f32 frozen forward.
        let (want, tol_scale) = match &reference {
            Some(f32_frozen) => (f32_frozen.forward(x), 0.5),
            None => (rig.model.forward(x, RunMode::Eval), 1e-4),
        };
        worst = worst.max(got.max_abs_diff(&want) / (tol_scale * (1.0 + want.abs_max())));
    }
    out.check(
        "parity",
        !seen.is_empty() && worst < 1.0,
        format!(
            "worst diff is {worst:.3} of the freeze_parity tolerance over {} images",
            seen.len()
        ),
    );

    let v = &mut out.values;
    if p.traced {
        *v = traced_values(
            &rig,
            &tracer,
            &rows,
            &lat,
            &staged_lat,
            steady_growths,
            int8,
            p,
        );
        out.detail
            .push(("stage_table".into(), stage_table(&rows, &tracer, &lat, v)));
    } else {
        v.set("throughput_img_s", ok as f64 / w.wall_s);
        v.set("goodput_slo_rps", within_limit as f64 / w.wall_s);
        v.set("peak_heap_bytes", w.peak_heap_bytes as f64);
        v.set("setup_s", setup_s);
    }
    lat.report(v);
    v.set("cpu_ms_per_img", w.cpu_s * 1e3 / ok.max(1) as f64);
    v.set(
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.detail
        .push(("latency_limit_us".into(), Json::Int(limit_us)));
    out.detail
        .push(("model_macs".into(), Json::Int(rig.model.macs(1))));
    if p.traced {
        out.trace = Some(tracer);
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn traced_values(
    rig: &Rig,
    tracer: &Tracer,
    rows: &[StageRow],
    whole: &Latencies,
    staged: &Latencies,
    steady_growths: u64,
    int8: bool,
    p: &Params,
) -> Values {
    let mut v = Values::default();
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0x7E50);
    layers::tensor_f32(&mut v, &mut rng);
    if int8 {
        layers::tensor_int8(&mut v, &mut rng);
    }
    layers::nn_infer(&mut v, int8, &mut rng);
    layers::core_freeze_and_artifact(&mut v, &rig.model, &rig.frozen, int8, &p.work_dir);
    v.set("tensor.scratch.grow_events", steady_growths as f64);

    let p50 = |name: &str| tracer.p50_ns(name);
    for kind in ["silo", "block"] {
        let of_kind = rows.iter().filter(|r| r.kind == kind);
        let ns: u64 = of_kind.clone().map(|r| p50(&r.name)).sum();
        let macs: u64 = of_kind.map(|r| r.macs).sum();
        let (us, gm) = if kind == "silo" {
            ("rev.silo.us", "rev.silo.gmacs")
        } else {
            ("rev.block.us", "rev.block.gmacs")
        };
        v.set(us, ns as f64 / 1e3);
        v.set(gm, rate(macs, ns));
    }
    v.set("core.stem.us", p50("core.stem") as f64 / 1e3);
    v.set("core.neck.us", p50("core.neck") as f64 / 1e3);
    v.set("core.head.us", p50("core.head") as f64 / 1e3);

    // Plain medians here: both arms hold ~100 samples in a 10 s run and each
    // sample is a full forward.
    let whole_p50 = stats::median_u64(&whole.0).unwrap_or(0) as f64;
    let staged_p50 = stats::median_u64(&staged.0).unwrap_or(0) as f64;
    let stage_sum: u64 = rows.iter().map(|r| p50(&r.name)).sum();
    if whole_p50 > 0.0 {
        let forward_gmacs = rig.model.macs(1) as f64 / (whole_p50 * 1e3);
        v.set("core.forward.gmacs", forward_gmacs);
        v.set(
            "core.gemm_roof_share",
            forward_gmacs / v.get("tensor.sgemm_256.gmacs").expect("set above"),
        );
        v.set(
            "core.stage_sum_over_forward",
            stage_sum as f64 / 1e3 / whole_p50,
        );
        v.set("trace.overhead_share", staged_p50 / whole_p50 - 1.0);
    }
    v
}

/// The per-stage table: MACs, median time, achieved GMAC/s and share of the
/// whole forward, beside the GEMM roof.
fn stage_table(rows: &[StageRow], tracer: &Tracer, whole: &Latencies, v: &Values) -> Json {
    let whole_ns = stats::median_u64(&whole.0).unwrap_or(0) as f64 * 1e3;
    let stages = rows
        .iter()
        .map(|r| {
            let ns = tracer.p50_ns(&r.name);
            Json::obj(vec![
                ("stage", Json::str(&r.name)),
                ("macs", Json::Int(r.macs)),
                ("p50_us", Json::Num(ns as f64 / 1e3)),
                ("gmacs", Json::Num(rate(r.macs, ns))),
                ("share_of_forward", Json::Num(ns as f64 / whole_ns)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("whole_forward_p50_us", Json::Num(whole_ns / 1e3)),
        (
            "sgemm_256_gmacs",
            Json::Num(v.get("tensor.sgemm_256.gmacs").unwrap_or(0.0)),
        ),
        ("stages", Json::Arr(stages)),
    ])
}
