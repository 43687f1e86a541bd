//! What every workload shares: run parameters, the measured window (wall,
//! process CPU, peak heap), repeated set-up, output checks and the outcome.

use crate::alloc;
use crate::json::Json;
use crate::metrics::Values;
use crate::stats;
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median, the last one is measured.
/// Five, because in a fresh process the first one or two pay for cold pages
/// and thread-pool start-up, and a median of three still lands on those.
pub const SETUPS: usize = 5;

#[derive(Clone, Debug)]
pub struct Params {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub traced: bool,
    /// Scratch directory inside the checkout for checkpoints and artifacts.
    pub work_dir: PathBuf,
}

/// One output check; a failed check fails the run unless it is a note.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    /// Reported like a check, but does not decide `correct`.
    pub note: bool,
    pub detail: String,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Untraced run: every end-to-end metric this workload reports.
    /// Traced run: the ungated end-to-end metrics plus the layer metrics.
    pub values: Values,
    /// Workload detail for the result file (stage table, shed breakdown..).
    pub detail: Vec<(String, Json)>,
    pub trace: Option<Tracer>,
}

impl Outcome {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            note: false,
            detail: detail.into(),
        });
    }

    /// An observation that depends on the inputs rather than on the program
    /// being right: printed and stored with the checks, never failing the run.
    pub fn note(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            note: true,
            detail: detail.into(),
        });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok || c.note)
    }
}

/// Process CPU seconds (utime + stime of every thread, living or joined)
/// from `/proc/self/stat`. Linux reports them in 1/100 s ticks (`USER_HZ`
/// is 100 on every architecture), so windows must be seconds long.
pub fn process_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may contain spaces; fields resume after the last ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// The measured window: opened after set-up and warm-up, closed after the
/// last measured operation.
pub struct Window {
    start: Instant,
    cpu0: f64,
}

#[derive(Clone, Copy, Debug)]
pub struct WindowStats {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_heap_bytes: usize,
}

impl Window {
    pub fn open() -> Self {
        alloc::reset_peak();
        Self {
            cpu0: process_cpu_seconds(),
            start: Instant::now(),
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    pub fn close(self) -> WindowStats {
        WindowStats {
            wall_s: self.start.elapsed().as_secs_f64(),
            cpu_s: process_cpu_seconds() - self.cpu0,
            peak_heap_bytes: alloc::peak(),
        }
    }
}

/// Runs `build` [`SETUPS`] times, dropping each rig before the next is
/// built, and returns the last rig with the median build time in seconds.
pub fn repeated_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut rig = None;
    for _ in 0..SETUPS {
        drop(rig.take());
        let t = Instant::now();
        rig = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        rig.expect("SETUPS >= 1"),
        stats::median(&times).expect("SETUPS >= 1"),
    )
}

/// Latency samples of one run, in whole microseconds.
#[derive(Clone, Debug, Default)]
pub struct Latencies(pub Vec<u64>);

impl Latencies {
    pub fn push_ns(&mut self, ns: u64) {
        self.0.push(ns / 1_000);
    }

    /// Sets the three latency percentiles on `values`, each only when
    /// enough samples lie beyond it.
    pub fn report(&self, values: &mut Values) {
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        for (name, p) in [
            ("latency_p50_us", 0.50),
            ("latency_p95_us", 0.95),
            ("latency_p99_us", 0.99),
        ] {
            if let Some(v) = stats::percentile(&sorted, p) {
                values.set_with_samples(name, v as f64, sorted.len());
            }
        }
    }

    pub fn p50(&self) -> Option<u64> {
        stats::percentile_of(&self.0, 0.50).0
    }
}

/// Median wall time of `f` in nanoseconds: two warm-up calls, then repeats
/// until `budget_ms` is spent (at least 5, at most 200).
pub fn time_median_ns(budget_ms: u64, mut f: impl FnMut()) -> u64 {
    f();
    f();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5
        || (samples.len() < 200 && start.elapsed().as_millis() < u128::from(budget_ms))
    {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as u64);
    }
    stats::median_u64(&samples).expect("at least five samples")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let c0 = process_cpu_seconds();
        let t = Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(
            process_cpu_seconds() - c0 >= 0.03,
            "60 ms of spinning must show in utime"
        );
    }

    #[test]
    fn window_sees_the_heap_peak_inside_it_only() {
        let before = vec![1u8; 64 << 20];
        std::hint::black_box(&before);
        drop(before);
        let w = Window::open();
        let inside = vec![1u8; 4 << 20];
        std::hint::black_box(&inside);
        drop(inside);
        let s = w.close();
        // Other tests allocate concurrently, but nowhere near 60 MiB: the
        // peak was re-armed at open, after the big block was gone.
        assert!(
            s.peak_heap_bytes >= 4 << 20,
            "the 4 MiB block was live inside the window"
        );
        assert!(
            s.peak_heap_bytes < 64 << 20,
            "the block freed before the window must not count"
        );
    }

    #[test]
    fn repeated_setup_returns_the_last_rig() {
        let mut n = 0;
        let (rig, secs) = repeated_setup(|| {
            n += 1;
            n
        });
        assert_eq!(rig, SETUPS);
        assert!(secs >= 0.0);
    }
}
