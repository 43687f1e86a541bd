//! The metric registry: every name the benchmark may print, with its unit
//! and direction. `BENCHMARK.json` must list exactly these (a test checks),
//! and later issues refer to the names verbatim.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Gated end-to-end metrics with their regression bounds (share of the
/// parent's median). Every workload reports every one, none is ever 0.
///
/// Each bound is about three times the widest interquartile spread any
/// gated workload showed over ten seeds in a calm spell of the 2-cpu shared
/// host (up to 9 % for the timings, whose drift is minute-scale and common
/// to a whole run; up to 6 % for the heap peak), the margin the driver's
/// acceptance asks for. In a noisy spell the same runs spread by 30 % and
/// more.
/// They catch a broken path, not a 5 % regression: that takes `compare` on
/// interleaved sets.
pub const END_TO_END: &[(Def, f64)] = &[
    (hi("throughput_img_s", "img/s"), 0.25),
    (lo("latency_p50_us", "us"), 0.25),
    (hi("goodput_slo_rps", "1/s"), 0.25),
    (lo("peak_heap_bytes", "bytes"), 0.20),
    (lo("setup_s", "s"), 0.25),
];

/// End-to-end metrics that are reported but not gated: they are 0 on most
/// workloads (`failed_share`, `degraded_share`), need more samples than a
/// gated run length yields (`latency_p95_us`, `latency_p99_us`), or do not
/// repeat within a tenth (`cpu_ms_per_img`: on `serve_steady` it falls into
/// one of two levels a fifth apart per process, at equal latency). Printed
/// by every run; in `BENCHMARK.json` they sit with the layer metrics.
pub const UNGATED: &[Def] = &[
    lo("cpu_ms_per_img", "ms"),
    lo("latency_p95_us", "us"),
    lo("latency_p99_us", "us"),
    lo("failed_share", "ratio"),
    lo("degraded_share", "ratio"),
];

/// Per-layer metrics, grouped by crate. A traced run prints all of them;
/// one that is not on the workload's path reads 0.
pub const PER_LAYER: &[Def] = &[
    // tensor — kernel calls at the S0 shapes the workloads run.
    hi("tensor.sgemm_256.gmacs", "GMAC/s"),
    hi("tensor.pw_expand_s0.gmacs", "GMAC/s"),
    hi("tensor.pw_project_s3.gmacs", "GMAC/s"),
    hi("tensor.dw_s0.gmacs", "GMAC/s"),
    hi("tensor.dw_s3.gmacs", "GMAC/s"),
    hi("tensor.dw_stride2.gmacs", "GMAC/s"),
    hi("tensor.resize_up2.gbps", "GB/s"),
    hi("tensor.s2d_stem.gbps", "GB/s"),
    hi("tensor.gap.gbps", "GB/s"),
    hi("tensor.qgemm_pw_expand_s0.gmacs", "GMAC/s"),
    hi("tensor.qgemm_pw_project_s3.gmacs", "GMAC/s"),
    hi("tensor.quantize_act.gbps", "GB/s"),
    hi("tensor.conv_bwd_pw_s0.gmacs", "GMAC/s"),
    hi("tensor.dw_bwd_s0.gmacs", "GMAC/s"),
    hi("tensor.resize_bwd.gbps", "GB/s"),
    lo("tensor.scratch.grow_events", "count"),
    // nn
    lo("nn.mbconv_s0.us", "us"),
    lo("nn.se_s0.us", "us"),
    lo("nn.mbconv_s0.train_fwd_us", "us"),
    lo("nn.mbconv_s0.train_bwd_us", "us"),
    lo("nn.bn_s0.train_fwd_us", "us"),
    lo("nn.meter.cached_peak_bytes", "bytes"),
    lo("nn.meter.heap_ratio", "ratio"),
    lo("nn.checkpoint.save_us", "us"),
    lo("nn.checkpoint.load_us", "us"),
    // rev — the S0 body stages driven one at a time, summed per kind.
    lo("rev.silo.us", "us"),
    hi("rev.silo.gmacs", "GMAC/s"),
    lo("rev.block.us", "us"),
    hi("rev.block.gmacs", "GMAC/s"),
    lo("rev.train_fwd.us", "us"),
    lo("rev.inverse.us", "us"),
    lo("rev.bwd_rev.us", "us"),
    // core
    lo("core.stem.us", "us"),
    lo("core.neck.us", "us"),
    lo("core.head.us", "us"),
    hi("core.forward.gmacs", "GMAC/s"),
    hi("core.gemm_roof_share", "ratio"),
    lo("core.stage_sum_over_forward", "ratio"),
    lo("core.freeze.us", "us"),
    lo("core.artifact.write_us", "us"),
    lo("core.artifact.load_mmap_us", "us"),
    lo("core.artifact.load_copy_us", "us"),
    // data
    lo("data.batch.us", "us"),
    // train
    lo("train.phase.forward_ms", "ms"),
    lo("train.phase.reconstruct_ms", "ms"),
    lo("train.phase.backward_ms", "ms"),
    lo("train.phase.reduce_ms", "ms"),
    lo("train.phase.optimizer_ms", "ms"),
    lo("train.recompute_share", "ratio"),
    lo("train.loss_epoch1", "nats"),
    lo("train.conv_mode.cached_peak_bytes", "bytes"),
    lo("train.rev_over_conv_peak", "ratio"),
    lo("train.shard2.step_us", "us"),
    lo("train.pipe_p2m2.step_us", "us"),
    lo("train.pipe_p2m2.bubble_fraction", "ratio"),
    hi("train.delayed_k1.img_s", "img/s"),
    // serve — counters read from health() when the run ends.
    lo("serve.start.us", "us"),
    lo("serve.submit.us", "us"),
    lo("serve.direct_forward.us", "us"),
    lo("serve.queue_overhead.us", "us"),
    hi("serve.batch.mean_size", "count"),
    hi("serve.batch.close_size", "count"),
    lo("serve.batch.close_deadline", "count"),
    lo("serve.batch.close_linger", "count"),
    lo("serve.shed.quota", "count"),
    lo("serve.shed.queue_full", "count"),
    lo("serve.shed.deadline", "count"),
    lo("serve.shed.infeasible", "count"),
    lo("serve.degrade.level_max", "count"),
    lo("serve.cost.c_ms", "ms"),
    lo("serve.cost.residual_ms", "ms"),
    lo("serve.resident_bytes", "bytes"),
    hi("serve.tenant.interactive.ok_share", "ratio"),
    hi("serve.tenant.flood_a.ok_share", "ratio"),
    hi("serve.tenant.flood_b.ok_share", "ratio"),
    hi("serve.drr.b_over_a", "ratio"),
    // harness
    lo("loadgen.lag_p99_us", "us"),
    lo("loadgen.collect_res_us", "us"),
    lo("trace.overhead_share", "ratio"),
];

/// The unit of a registered metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|(d, _)| d)
        .chain(UNGATED)
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map(|d| d.unit)
}

/// One measured value. `samples` is stated for every percentile.
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub samples: Option<usize>,
}

/// The values one run measured, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Values(pub Vec<Value>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.push(name, value, None);
    }

    pub fn set_with_samples(&mut self, name: &'static str, value: f64, samples: usize) {
        self.push(name, value, Some(samples));
    }

    fn push(&mut self, name: &'static str, value: f64, samples: Option<usize>) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the registry"
        );
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.0.push(Value {
            name,
            value,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|v| v.name == name).map(|v| v.value)
    }

    /// `{name: {value, unit}}` over exactly `defs`, for the driver's result
    /// line; a metric this run did not measure reads 0 (not on the
    /// workload's path, or a percentile with too few samples beyond it).
    pub fn json_over<'a>(&self, defs: impl Iterator<Item = &'a Def>) -> Json {
        Json::Obj(
            defs.map(|d| {
                let fields = vec![
                    ("value", Json::Num(self.get(d.name).unwrap_or(0.0))),
                    ("unit", Json::str(d.unit)),
                ];
                (d.name.to_string(), Json::obj(fields))
            })
            .collect(),
        )
    }

    /// `{name: {value, unit[, samples]}}` over what was measured.
    pub fn json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|v| {
                    let mut fields = vec![
                        ("value", Json::Num(v.value)),
                        ("unit", Json::str(unit_of(v.name).expect("registered"))),
                    ];
                    if let Some(n) = v.samples {
                        fields.push(("samples", Json::Int(n as u64)));
                    }
                    (v.name.to_string(), Json::obj(fields))
                })
                .collect(),
        )
    }
}

/// `BENCHMARK.json`: the driver's command, the workloads and every metric.
pub fn manifest() -> Json {
    let row = |d: &Def, bound: Option<f64>| {
        let mut f = vec![
            ("name", Json::str(d.name)),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better.as_str())),
        ];
        if let Some(b) = bound {
            f.push(("bound", Json::Num(b)));
        }
        Json::obj(f)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "-p",
        "revbifpn-perf",
        "--",
        "run",
    ];
    let workloads = crate::workloads::NAMES
        .iter()
        .zip(crate::workloads::WHY)
        .take(crate::workloads::GATED)
        .map(|(n, w)| Json::obj(vec![("name", Json::str(*n)), ("why", Json::str(w))]));
    Json::obj(vec![
        ("command", Json::Arr(command.map(Json::str).to_vec())),
        ("paths", Json::Arr(vec![Json::str("crates/perf")])),
        ("run_seconds", Json::Int(crate::DEFAULT_SECONDS as u64)),
        ("workloads", Json::Arr(workloads.collect())),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|(d, b)| row(d, Some(*b))).collect()),
        ),
        (
            "per_layer",
            Json::Arr(traced_defs().map(|d| row(d, None)).collect()),
        ),
    ])
}

/// Every metric a traced run's result line carries: the ungated end-to-end
/// metrics, then the layer metrics.
pub fn traced_defs() -> impl Iterator<Item = &'static Def> {
    UNGATED.iter().chain(PER_LAYER)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().map(|(d, _)| d).chain(traced_defs()) {
            assert!(name_ok(d.name, 64, "_.-"), "bad metric name {}", d.name);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name_ok(d.unit, 16, "_/%.-"),
                "bad unit {} on {}",
                d.unit,
                d.name
            );
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|(d, _)| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
        assert!(END_TO_END.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
    }

    /// `BENCHMARK.json` is what the driver and later issues read; the
    /// registry is what the binary prints. The file must be the manifest.
    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let file = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            file,
            manifest().pretty(),
            "regenerate with `revbifpn-perf manifest > BENCHMARK.json`"
        );
        assert!(file.len() <= 64 * 1024);
        for why in crate::workloads::WHY {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
        }
    }
}
