//! `revbifpn-perf`: the one benchmark of this repository.
//!
//! ```text
//! revbifpn-perf run --workload <name|all> --seed <u64> [--seconds <s>]
//!                   [--trace [0|1]] [--smoke] [--out <dir>]
//! revbifpn-perf compare <setA> <setB>
//! revbifpn-perf manifest
//! ```
//!
//! `run` generates the workload's inputs from the seed, runs it, checks the
//! outputs, prints every metric by name with its unit, writes one stamped
//! JSON per workload, and ends with the one-line result object that
//! `BENCHMARK.json`'s driver reads. See `crates/perf/README.md`.

mod alloc;
mod compare;
mod harness;
mod json;
mod layers;
mod loadgen;
mod metrics;
mod stamp;
mod stats;
mod trace;
mod workloads;

use harness::{Outcome, Params};
use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Window length when `--seconds` is not given; equals `run_seconds` in
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;
const SMOKE_SECONDS: f64 = 2.0;
/// Where full runs write unless `--out` says otherwise.
const RESULTS_DIR: &str = "crates/perf/results";

const USAGE: &str = "usage:
  revbifpn-perf run --workload <name|all> --seed <u64> [--seconds <s>] [--trace [0|1]] [--smoke] [--out <dir>]
  revbifpn-perf compare <setA> <setB>
  revbifpn-perf manifest        (prints BENCHMARK.json from the metric registry)";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: String::new(),
        seed: 0,
        seconds: None,
        traced: false,
        smoke: false,
        out: None,
    };
    let mut seed_given = false;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs {what}"))
        };
        match a.as_str() {
            "--workload" => r.workload = value("a workload name")?,
            "--seed" => {
                r.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
                seed_given = true;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                r.seconds = Some(s);
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                r.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => r.smoke = true,
            "--out" => r.out = Some(PathBuf::from(value("a directory")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if r.workload.is_empty() || !seed_given {
        return Err("run needs --workload and --seed".into());
    }
    if r.workload != "all" && !workloads::NAMES.contains(&r.workload.as_str()) {
        return Err(format!(
            "unknown workload {}; known: all, {}",
            r.workload,
            workloads::NAMES.join(", ")
        ));
    }
    Ok(r)
}

/// The cargo target directory, for scratch files and smoke output.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// `path` made absolute and stripped of `.`/`..` without touching the
/// file system (it may not exist yet).
fn normalized(path: &Path) -> PathBuf {
    let abs = if path.is_absolute() {
        path.to_path_buf()
    } else {
        std::env::current_dir().unwrap_or_default().join(path)
    };
    let mut out = PathBuf::new();
    for c in abs.components() {
        match c {
            std::path::Component::ParentDir => {
                out.pop();
            }
            std::path::Component::CurDir => {}
            other => out.push(other),
        }
    }
    out
}

fn out_dir(args: &RunArgs) -> Result<PathBuf, String> {
    if !args.smoke {
        return Ok(args
            .out
            .clone()
            .unwrap_or_else(|| PathBuf::from(RESULTS_DIR)));
    }
    // A smoke run may never land where published results live.
    let dir = args
        .out
        .clone()
        .unwrap_or_else(|| target_dir().join("perf-smoke"));
    if normalized(&dir).starts_with(normalized(Path::new(RESULTS_DIR))) {
        return Err(format!("--smoke refuses to write inside {RESULTS_DIR}"));
    }
    Ok(dir)
}

fn print_values(title: &str, doc: &Json) {
    println!("{title}");
    let Json::Obj(pairs) = doc else { return };
    for (name, m) in pairs {
        let value = m.get("value").map_or_else(|| "-".into(), Json::compact);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        match m.get("samples") {
            Some(n) => println!("  {name:<40} {value:>18} {unit:<8} n={}", n.compact()),
            None => println!("  {name:<40} {value:>18} {unit}"),
        }
    }
}

/// The driver's result object: the gated end-to-end metrics of an untraced
/// run, the ungated and layer metrics of a traced one.
fn result_line(o: &Outcome, traced: bool) -> Json {
    let metrics = if traced {
        o.values.json_over(metrics::traced_defs())
    } else {
        o.values
            .json_over(metrics::END_TO_END.iter().map(|(d, _)| d))
    };
    Json::obj(vec![
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::Int(o.attempted.max(1))),
        ("failed", Json::Int(o.failed)),
        ("metrics", metrics),
    ])
}

fn run_one(
    name: &str,
    args: &RunArgs,
    seconds: f64,
    dir: &Path,
    work_dir: &Path,
) -> Result<(Json, bool), String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    let params = Params {
        seed: args.seed,
        seconds,
        traced: args.traced,
        work_dir: work_dir.to_path_buf(),
    };
    let mode = match (args.smoke, args.traced) {
        (true, _) => "smoke",
        (false, true) => "traced",
        (false, false) => "full",
    };
    println!("== {name} seed {} seconds {seconds} mode {mode}", args.seed);
    let mut o = workloads::run(name, &params).expect("workload names are validated");

    print_values("metrics:", &o.values.json());
    for c in &o.checks {
        let verdict = match (c.ok, c.note) {
            (true, false) => "ok  ",
            (false, false) => "FAIL",
            (true, true) => "yes ",
            (false, true) => "no  ",
        };
        println!(
            "  {} {:<16} {verdict}  {}",
            if c.note { "note " } else { "check" },
            c.name,
            c.detail
        );
    }
    println!(
        "  attempted {} failed {} correct {}",
        o.attempted,
        o.failed,
        o.correct()
    );

    let mut doc = vec![
        (
            "stamp".to_string(),
            stamp::stamp(name, args.seed, seconds, mode),
        ),
        ("traced".to_string(), Json::Bool(args.traced)),
        ("correct".to_string(), Json::Bool(o.correct())),
        ("attempted".to_string(), Json::Int(o.attempted)),
        ("failed".to_string(), Json::Int(o.failed)),
        (
            "checks".to_string(),
            Json::Arr(
                o.checks
                    .iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("name", Json::str(c.name)),
                            ("ok", Json::Bool(c.ok)),
                            ("note", Json::Bool(c.note)),
                            ("detail", Json::str(&c.detail)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("metrics".to_string(), o.values.json()),
    ];
    doc.append(&mut o.detail);
    if let Some(t) = &o.trace {
        doc.push(("span_table".to_string(), trace::table_json(&t.table())));
    }
    std::fs::create_dir_all(dir).map_err(io)?;
    let file = dir.join(if args.traced {
        format!("{name}_traced.json")
    } else {
        format!("{name}.json")
    });
    std::fs::write(&file, Json::Obj(doc).pretty()).map_err(io)?;
    println!("  wrote {}", file.display());
    if let Some(t) = &o.trace {
        let file = dir.join(format!("trace_{name}.json"));
        std::fs::write(&file, t.to_json().compact()).map_err(io)?;
        println!("  wrote {} ({} spans)", file.display(), t.spans().len());
    }
    Ok((result_line(&o, args.traced), o.correct()))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_run(args)?;
    let dir = out_dir(&args)?;
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let names: Vec<&str> = if args.workload == "all" {
        workloads::NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let work_dir = target_dir()
        .join("perf-tmp")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;

    // Stops at the first workload whose result cannot be written.
    let results: Result<Vec<(Json, bool)>, String> = names
        .iter()
        .map(|name| run_one(name, &args, seconds, &dir, &work_dir))
        .collect();
    let _ = std::fs::remove_dir_all(&work_dir);
    let results = results?;
    // The result object is the last line of standard output.
    for (line, _) in &results {
        println!("{}", line.compact());
    }
    Ok(if results.iter().all(|(_, correct)| *correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") if args.len() == 3 => {
            compare::run(Path::new(&args[1]), Path::new(&args[2]))
        }
        Some("manifest") => {
            print!("{}", metrics::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("revbifpn-perf: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_and_the_manual_forms() {
        let r = parse_run(&args(
            "--workload serve_steady --seed 7 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert_eq!(
            (r.workload.as_str(), r.seed, r.seconds, r.traced),
            ("serve_steady", 7, Some(10.0), false)
        );
        assert!(
            parse_run(&args("--workload all --seed 1 --trace 1"))
                .unwrap()
                .traced
        );
        assert!(
            parse_run(&args("--workload all --seed 1 --trace --smoke"))
                .unwrap()
                .traced
        );
        assert!(parse_run(&args("--workload nope --seed 1")).is_err());
        assert!(
            parse_run(&args("--workload all")).is_err(),
            "the seed is required"
        );
        assert!(parse_run(&args("--workload all --seed 1 --seconds 0")).is_err());
    }

    #[test]
    fn smoke_output_never_lands_in_results() {
        let mut r = parse_run(&args("--workload all --seed 1 --smoke")).unwrap();
        assert!(out_dir(&r).unwrap().ends_with("perf-smoke"));
        r.out = Some(PathBuf::from("crates/perf/results/x"));
        assert!(out_dir(&r).is_err());
        r.out = Some(PathBuf::from("crates/perf/../perf/results"));
        assert!(out_dir(&r).is_err());
        r.out = Some(PathBuf::from("elsewhere"));
        assert_eq!(out_dir(&r).unwrap(), PathBuf::from("elsewhere"));
        r.smoke = false;
        r.out = None;
        assert_eq!(out_dir(&r).unwrap(), PathBuf::from(RESULTS_DIR));
    }
}
