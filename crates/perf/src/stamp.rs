//! Host facts stamped into every result file, so two numbers that disagree
//! can be told apart by where and how they were measured.

use crate::json::Json;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

pub const SCHEMA: &str = "revbifpn-perf/1";

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// `YYYY-MM-DDTHH:MM:SSZ` from seconds since the epoch (civil-from-days,
/// proleptic Gregorian).
pub fn utc_iso(secs: u64) -> String {
    let (days, rem) = (secs / 86_400, secs % 86_400);
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3_600,
        rem % 3_600 / 60,
        rem % 60
    )
}

/// The stamp object. `mode` is `full`, `smoke` or `traced`.
pub fn stamp(workload: &str, seed: u64, seconds: f64, mode: &str) -> Json {
    let mut env: Vec<(String, Json)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("REVBIFPN_"))
        .map(|(k, v)| (k, Json::Str(v)))
        .collect();
    env.sort_by(|a, b| a.0.cmp(&b.0));
    #[cfg(target_arch = "x86_64")]
    let (avx2, fma) = (
        is_x86_feature_detected!("avx2"),
        is_x86_feature_detected!("fma"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, fma) = (false, false);
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Json::obj(vec![
        ("schema", Json::str(SCHEMA)),
        ("workload", Json::str(workload)),
        ("seed", Json::Int(seed)),
        ("seconds", Json::Num(seconds)),
        ("mode", Json::str(mode)),
        (
            "git_rev",
            Json::Str(tool_line("git", &["rev-parse", "--short=12", "HEAD"])),
        ),
        ("rustc", Json::Str(tool_line("rustc", &["--version"]))),
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        (
            "par_pool_size",
            Json::Int(revbifpn_tensor::par::pool_size() as u64),
        ),
        ("avx2", Json::Bool(avx2)),
        ("fma", Json::Bool(fma)),
        ("env", Json::Obj(env)),
        ("utc", Json::Str(utc_iso(now))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_matches_known_instants() {
        assert_eq!(utc_iso(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc_iso(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc_iso(1_790_553_599), "2026-09-27T23:59:59Z");
    }
}
