//! `revbifpn-perf compare <setA> <setB>`: the A/B rule of this benchmark.
//!
//! A set is a directory; every untraced full-mode result file under it
//! (itself and one level of sub-directories, one per repeat) is one run.
//! For each workload and end-to-end metric the tool prints both medians,
//! the relative difference (positive = B worse), the bound and a verdict:
//!
//! * `unresolved` — a set's own spread (interquartile distance over its
//!   median) exceeds the bound, unless every run of B beats every run of A;
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `ok` — otherwise. Ungated metrics are listed as `info`.

use crate::json::Json;
use crate::metrics::{Better, Def, END_TO_END, UNGATED};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug, Default)]
struct Set {
    /// workload -> metric -> one value per run.
    runs: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// workload -> seed -> bit patterns of `train.loss_epoch1` seen.
    loss_bits: BTreeMap<String, BTreeMap<u64, Vec<String>>>,
}

fn load_file(set: &mut Set, path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(stamp) = doc.get("stamp") else {
        return Ok(());
    };
    let (Some(workload), Some("full"), Some(Json::Bool(false))) = (
        stamp.get("workload").and_then(Json::as_str),
        stamp.get("mode").and_then(Json::as_str),
        doc.get("traced"),
    ) else {
        return Ok(()); // traced and smoke runs never feed a comparison
    };
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Ok(());
    };
    let per_metric = set.runs.entry(workload.to_string()).or_default();
    for (name, m) in metrics {
        if let Some(v) = m.get("value").and_then(Json::as_f64) {
            per_metric.entry(name.clone()).or_default().push(v);
        }
    }
    if let (Some(Json::Int(seed)), Some(bits)) = (
        stamp.get("seed"),
        doc.get("loss_epoch1_bits").and_then(Json::as_str),
    ) {
        set.loss_bits
            .entry(workload.to_string())
            .or_default()
            .entry(*seed)
            .or_default()
            .push(bits.to_string());
    }
    Ok(())
}

fn load_set(dir: &Path) -> Result<Set, String> {
    let list = |d: &Path| -> Result<Vec<std::path::PathBuf>, String> {
        let mut v: Vec<_> = std::fs::read_dir(d)
            .map_err(|e| format!("{}: {e}", d.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        v.sort();
        Ok(v)
    };
    let mut set = Set::default();
    for p in list(dir)? {
        if p.is_dir() {
            for q in list(&p)? {
                if q.extension().is_some_and(|e| e == "json") {
                    load_file(&mut set, &q)?;
                }
            }
        } else if p.extension().is_some_and(|e| e == "json") {
            load_file(&mut set, &p)?;
        }
    }
    if set.runs.is_empty() {
        return Err(format!(
            "{}: no untraced full-mode result files",
            dir.display()
        ));
    }
    Ok(set)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Positive when `b` is worse than `a`, as a share of `a`.
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    let d = if better == Better::Lower {
        b - a
    } else {
        a - b
    };
    if a == 0.0 {
        if d > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        d / a.abs()
    }
}

fn judge(def: &Def, bound: f64, a: &[f64], b: &[f64]) -> (f64, f64, f64, Verdict) {
    let (ma, mb) = (
        stats::median(a).expect("non-empty"),
        stats::median(b).expect("non-empty"),
    );
    let rel = worse_by(def.better, ma, mb);
    // One run has no spread to speak of; it is taken at face value.
    let wide = |v: &[f64]| stats::spread(v).is_some_and(|s| s > bound);
    let verdict = if wide(a) || wide(b) {
        let b_always_better = b
            .iter()
            .all(|&y| a.iter().all(|&x| worse_by(def.better, x, y) < 0.0));
        if b_always_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if rel > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (ma, mb, rel, verdict)
}

pub fn run(dir_a: &Path, dir_b: &Path) -> Result<ExitCode, String> {
    let (a, b) = (load_set(dir_a)?, load_set(dir_b)?);
    let mut worse = 0;
    let mut unresolved = 0;
    println!(
        "{:<18} {:<18} {:>4} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "runs", "median A", "median B", "B worse", "bound"
    );
    for name in crate::workloads::NAMES {
        let (Some(ra), Some(rb)) = (a.runs.get(name), b.runs.get(name)) else {
            println!("{name:<18} (missing from one set)");
            continue;
        };
        for (def, bound) in END_TO_END
            .iter()
            .map(|(d, b)| (d, Some(*b)))
            .chain(UNGATED.iter().map(|d| (d, None)))
        {
            let (Some(va), Some(vb)) = (ra.get(def.name), rb.get(def.name)) else {
                continue;
            };
            let runs = format!("{}/{}", va.len(), vb.len());
            match bound {
                Some(bound) => {
                    let (ma, mb, rel, verdict) = judge(def, bound, va, vb);
                    worse += usize::from(verdict == Verdict::Worse);
                    unresolved += usize::from(verdict == Verdict::Unresolved);
                    let verdict = match verdict {
                        Verdict::Ok => "ok",
                        Verdict::Worse => "worse",
                        Verdict::Unresolved => "unresolved",
                    };
                    println!(
                        "{name:<18} {:<18} {runs:>4} {ma:>14.4} {mb:>14.4} {:>+8.2}% {:>5.0}%  {verdict}",
                        def.name,
                        rel * 100.0,
                        bound * 100.0
                    );
                }
                None => {
                    let (ma, mb) = (
                        stats::median(va).expect("non-empty"),
                        stats::median(vb).expect("non-empty"),
                    );
                    println!(
                        "{name:<18} {:<18} {runs:>4} {ma:>14.4} {mb:>14.4} {:>9} {:>6}  info",
                        def.name, "-", "-"
                    );
                }
            }
        }
        // Same seed, same commit: the training run must repeat to the bit.
        if let (Some(la), Some(lb)) = (a.loss_bits.get(name), b.loss_bits.get(name)) {
            for (seed, bits_a) in la {
                if let Some(bits_b) = lb.get(seed) {
                    let same = bits_a.iter().chain(bits_b).all(|x| x == &bits_a[0]);
                    println!(
                        "{name:<18} train.loss_epoch1 seed {seed}: {}",
                        if same { "bit-identical" } else { "DIFFERS" }
                    );
                }
            }
        }
    }
    println!("{worse} worse, {unresolved} unresolved");
    Ok(if worse > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Def = Def {
        name: "m",
        unit: "us",
        better: Better::Lower,
    };
    const HIGHER: Def = Def {
        name: "m",
        unit: "1/s",
        better: Better::Higher,
    };

    #[test]
    fn verdicts_follow_the_rule() {
        let tight = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound either way.
        assert_eq!(judge(&LOWER, 0.07, &tight, &[105.0; 5]).3, Verdict::Ok);
        // Beyond the bound, in the metric's bad direction only.
        assert_eq!(judge(&LOWER, 0.07, &tight, &[110.0; 5]).3, Verdict::Worse);
        assert_eq!(judge(&LOWER, 0.07, &tight, &[90.0; 5]).3, Verdict::Ok);
        assert_eq!(judge(&HIGHER, 0.07, &tight, &[90.0; 5]).3, Verdict::Worse);
        assert_eq!(judge(&HIGHER, 0.07, &tight, &[110.0; 5]).3, Verdict::Ok);
        // A set noisier than the bound resolves nothing...
        let noisy = [80.0, 120.0, 100.0, 70.0, 130.0];
        assert_eq!(
            judge(&LOWER, 0.07, &noisy, &[125.0; 5]).3,
            Verdict::Unresolved
        );
        // ...unless every run of B beats every run of A.
        assert_eq!(judge(&LOWER, 0.07, &noisy, &[60.0; 5]).3, Verdict::Ok);
        // Single runs are compared at face value.
        assert_eq!(judge(&LOWER, 0.07, &[100.0], &[120.0]).3, Verdict::Worse);
        let (ma, mb, rel, _) = judge(&LOWER, 0.07, &[100.0], &[120.0]);
        assert_eq!((ma, mb), (100.0, 120.0));
        assert!((rel - 0.2).abs() < 1e-12);
    }

    #[test]
    fn zero_baselines_do_not_divide_by_zero() {
        assert_eq!(worse_by(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worse_by(Better::Lower, 0.0, 0.1), f64::INFINITY);
        assert_eq!(worse_by(Better::Higher, 0.0, 0.1), 0.0);
    }
}
