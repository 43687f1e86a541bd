//! Open-loop load: a seeded Poisson schedule, one generator thread that
//! submits each request when it is due, and a collector that observes
//! completions.
//!
//! Latency is taken from the **due** time, not the send time: when the
//! service (or the generator itself) stalls, the requests scheduled behind
//! the stall are charged the wait a real independent caller would have
//! seen. `lag` reports how late the generator sent.

use crate::stats;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Pause between collector sweeps; completions are observed this coarsely.
const SWEEP_PAUSE: Duration = Duration::from_micros(200);

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// When the request is due, from the start of the run.
    pub due_ns: u64,
    /// Index into the tenant list the schedule was built from.
    pub tenant: usize,
    /// Index into the workload's image pool.
    pub image: usize,
}

/// One independent Poisson stream per tenant at `rates_per_s[t]`, merged by
/// due time; a pure function of its arguments. Each stream is conditioned on
/// its expected count — `round(rate x horizon)` arrival times drawn uniformly
/// over the horizon, which is exactly a Poisson process given that count —
/// so every seed offers the same number of requests and only their timing
/// (bursts and gaps) differs.
pub fn poisson_schedule(
    seed: u64,
    rates_per_s: &[f64],
    horizon_s: f64,
    images: usize,
) -> Vec<Arrival> {
    let mut all = Vec::new();
    for (tenant, &rate) in rates_per_s.iter().enumerate() {
        let mut rng =
            StdRng::seed_from_u64(seed ^ (tenant as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for _ in 0..(rate * horizon_s).round() as usize {
            let due_ns = (rng.random::<f64>() * horizon_s * 1e9) as u64;
            let image = (rng.random::<u64>() % images.max(1) as u64) as usize;
            all.push(Arrival {
                due_ns,
                tenant,
                image,
            });
        }
    }
    all.sort_by_key(|a| (a.due_ns, a.tenant));
    all
}

/// What the load is offered to. `submit` runs on the generator thread and
/// may refuse; `poll` must not block.
pub trait Service: Sync {
    type Pending: Send;
    type Reply: Send;
    type Error: Send;
    fn submit(&self, arrival: &Arrival) -> Result<Self::Pending, Self::Error>;
    fn poll(&self, pending: &Self::Pending) -> Option<Result<Self::Reply, Self::Error>>;
}

/// The life of one request; times count from the start of the run.
#[derive(Debug)]
pub struct Record<R, E> {
    /// Position in the schedule; the span `op_id`.
    pub op: usize,
    pub arrival: Arrival,
    pub submit_start_ns: u64,
    pub submit_end_ns: u64,
    /// When the collector saw the outcome (for a refusal: `submit_end_ns`).
    pub done_ns: u64,
    pub refused: bool,
    pub outcome: Result<R, E>,
}

impl<R, E> Record<R, E> {
    /// Completion observed minus due time.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.arrival.due_ns)
    }
}

#[derive(Debug)]
pub struct LoadResult<R, E> {
    /// Every request that resolved, in completion order.
    pub records: Vec<Record<R, E>>,
    /// Requests still pending when the guard expired.
    pub unresolved: usize,
    /// Send time minus due time, per request.
    pub lag_ns: Vec<u64>,
    /// Gaps between consecutive collector sweeps.
    pub sweep_gap_ns: Vec<u64>,
    pub wall_s: f64,
}

/// p99 in µs, or the maximum when there are too few samples to name a p99:
/// these two are bounds on the harness, where over-stating is the safe side.
fn p99_or_max_us(ns: &[u64]) -> u64 {
    let (p99, _) = stats::percentile_of(ns, 0.99);
    p99.or_else(|| ns.iter().copied().max()).unwrap_or(0) / 1_000
}

impl<R, E> LoadResult<R, E> {
    /// How late the generator sent.
    pub fn lag_p99_us(&self) -> u64 {
        p99_or_max_us(&self.lag_ns)
    }

    /// The collector's sweep period while requests were pending.
    pub fn collect_res_us(&self) -> u64 {
        p99_or_max_us(&self.sweep_gap_ns)
    }
}

/// When one request went out; travels with what `submit` returned.
struct Sent {
    op: usize,
    submit_start_ns: u64,
    submit_end_ns: u64,
}

/// Offers `schedule` to `svc` in real time and collects every outcome,
/// showing each to `on_done` as the collector sees it (span recording).
/// Returns once all requests resolved, or `guard` after the last one was
/// sent (whatever is pending then is counted `unresolved`).
pub fn drive<S: Service>(
    svc: &S,
    schedule: &[Arrival],
    guard: Duration,
    mut on_done: impl FnMut(&Record<S::Reply, S::Error>),
) -> LoadResult<S::Reply, S::Error> {
    let epoch = Instant::now();
    let now_ns = move || epoch.elapsed().as_nanos() as u64;
    let (tx, rx) = mpsc::channel::<(Sent, Result<S::Pending, S::Error>)>();
    let mut records = Vec::with_capacity(schedule.len());
    let mut lag_ns = Vec::with_capacity(schedule.len());
    let mut sweep_gap_ns = Vec::new();
    let mut unresolved = 0;

    std::thread::scope(|scope| {
        scope.spawn(move || {
            for (op, arrival) in schedule.iter().enumerate() {
                let now = now_ns();
                if arrival.due_ns > now {
                    std::thread::sleep(Duration::from_nanos(arrival.due_ns - now));
                }
                let submit_start_ns = now_ns();
                let pending = svc.submit(arrival);
                let sent = Sent {
                    op,
                    submit_start_ns,
                    submit_end_ns: now_ns(),
                };
                if tx.send((sent, pending)).is_err() {
                    return; // the collector gave up (guard expired)
                }
            }
        });

        // Admitted requests awaiting their outcome.
        let mut open: Vec<(Sent, S::Pending)> = Vec::new();
        let mut generator_done = false;
        let mut last_sweep = None;
        let mut last_sent_ns = 0;
        let mut finish = |sent: &Sent, done_ns, refused, outcome| {
            let record = Record {
                op: sent.op,
                arrival: schedule[sent.op],
                submit_start_ns: sent.submit_start_ns,
                submit_end_ns: sent.submit_end_ns,
                done_ns,
                refused,
                outcome,
            };
            on_done(&record);
            records.push(record);
        };
        loop {
            // With nothing pending, sleep until the generator sends again
            // rather than poll: the harness should not burn the CPU it is
            // measuring.
            let mut next = if open.is_empty() && !generator_done {
                last_sweep = None;
                rx.recv().map_err(|_| mpsc::TryRecvError::Disconnected)
            } else {
                rx.try_recv()
            };
            loop {
                match next {
                    Ok((sent, pending)) => {
                        let due_ns = schedule[sent.op].due_ns;
                        lag_ns.push(sent.submit_start_ns.saturating_sub(due_ns));
                        last_sent_ns = sent.submit_end_ns;
                        match pending {
                            Ok(pending) => open.push((sent, pending)),
                            // A refusal is final the moment `submit` returns.
                            Err(e) => finish(&sent, sent.submit_end_ns, true, Err(e)),
                        }
                    }
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        generator_done = true;
                        break;
                    }
                }
                next = rx.try_recv();
            }
            let now = now_ns();
            if let Some(last) = last_sweep.replace(now) {
                sweep_gap_ns.push(now - last);
            }
            let mut i = 0;
            while i < open.len() {
                match svc.poll(&open[i].1) {
                    Some(outcome) => {
                        let (sent, _) = open.swap_remove(i);
                        finish(&sent, now, false, outcome);
                    }
                    None => i += 1,
                }
            }
            if generator_done && open.is_empty() {
                break;
            }
            if generator_done && now.saturating_sub(last_sent_ns) > guard.as_nanos() as u64 {
                unresolved = open.len();
                break;
            }
            if !open.is_empty() {
                std::thread::sleep(SWEEP_PAUSE);
            }
        }
        drop(rx);
    });

    LoadResult {
        records,
        unresolved,
        lag_ns,
        sweep_gap_ns,
        wall_s: epoch.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = poisson_schedule(11, &[40.0, 200.0], 5.0, 64);
        let b = poisson_schedule(11, &[40.0, 200.0], 5.0, 64);
        let c = poisson_schedule(12, &[40.0, 200.0], 5.0, 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(
            a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns),
            "merged in due order"
        );
        assert!(a
            .iter()
            .all(|x| x.due_ns < 5_000_000_000 && x.image < 64 && x.tenant < 2));
        // 5 s at 40/s and 200/s: the counts do not depend on the seed.
        for s in [&a, &c] {
            assert_eq!(s.iter().filter(|x| x.tenant == 0).count(), 200);
            assert_eq!(s.iter().filter(|x| x.tenant == 1).count(), 1000);
        }
        // Poisson gaps, not a metronome: some gap is several times the mean.
        let t0: Vec<u64> = a
            .iter()
            .filter(|x| x.tenant == 0)
            .map(|x| x.due_ns)
            .collect();
        let longest = t0.windows(2).map(|w| w[1] - w[0]).max().unwrap();
        assert!(
            longest > 3 * 25_000_000,
            "longest gap {longest} ns at a 25 ms mean"
        );
    }

    /// Answers at once, except that submitting request `stall_at` blocks the
    /// generator for `stall`; request `refuse_at` is refused.
    struct Fake {
        stall_at: u64,
        stall: Duration,
        refuse_at: u64,
    }

    impl Service for Fake {
        type Pending = u64;
        type Reply = u64;
        type Error = &'static str;

        fn submit(&self, a: &Arrival) -> Result<u64, &'static str> {
            let id = a.image as u64;
            if id == self.stall_at {
                std::thread::sleep(self.stall);
            }
            if id == self.refuse_at {
                return Err("refused");
            }
            Ok(id)
        }

        fn poll(&self, p: &u64) -> Option<Result<u64, &'static str>> {
            Some(Ok(*p))
        }
    }

    #[test]
    fn latency_counts_from_the_due_time_and_lag_reports_the_stall() {
        // 20 requests 1 ms apart; submitting #5 stalls the generator 40 ms,
        // so #6..#19 fall due during the stall and are sent late.
        let schedule: Vec<Arrival> = (0..20)
            .map(|i| Arrival {
                due_ns: i * 1_000_000,
                tenant: 0,
                image: i as usize,
            })
            .collect();
        let fake = Fake {
            stall_at: 5,
            stall: Duration::from_millis(40),
            refuse_at: 12,
        };
        let mut seen = 0;
        let r = drive(&fake, &schedule, Duration::from_secs(5), |_| seen += 1);
        assert_eq!(seen, 20, "the observer sees every record");

        assert_eq!(r.records.len(), 20, "every request resolves exactly once");
        assert_eq!(r.unresolved, 0);
        let by_op = |op: usize| r.records.iter().find(|x| x.op == op).unwrap();
        // #6 was due at 6 ms but could not be sent before 45 ms.
        assert!(
            by_op(6).latency_ns() >= 39_000_000,
            "latency must include the wait: {}",
            by_op(6).latency_ns()
        );
        assert!(by_op(19).latency_ns() >= 26_000_000);
        // Measured from the send time it would have looked instant.
        assert!(by_op(6).done_ns - by_op(6).submit_start_ns < 30_000_000);
        assert!(
            r.lag_p99_us() >= 26_000,
            "lag must report the stall: {} us",
            r.lag_p99_us()
        );
        let refused = by_op(12);
        assert!(refused.refused && refused.outcome == Err("refused"));
        assert_eq!(refused.done_ns, refused.submit_end_ns);
        assert_eq!(by_op(3).outcome, Ok(3));
    }
}
