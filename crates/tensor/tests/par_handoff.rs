//! Stress tests for the pool's spin-then-park fork-join handoff.
//!
//! The handoff has three states per side (polling, parked, running) and the
//! bugs worth fearing are the transitions: a wake-up lost between "about to
//! park" and "job published", a caller released before its worker is done,
//! a worker stuck on a stale job, an offer withdrawn by the caller while the
//! worker takes it. A lost wake-up hangs rather than fails, so every test
//! runs under a watchdog that kills the process with a message.
//!
//! `set_max_threads` and the `par::stats` counters are process-global, so
//! the tests in this file take one lock and run one at a time; the pool is
//! then theirs alone, which the rendezvous in the panic test relies on.

use rand::rngs::StdRng;
use rand::SeedableRng;
use revbifpn_tensor::par::{parallel_tiles, set_max_threads, stats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier, Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `body` with the budget set to `threads`; if it has not returned
/// after `limit` the process is killed (a hung fork-join cannot be unwound).
fn with_watchdog(what: &'static str, threads: usize, limit: Duration, body: impl FnOnce()) {
    let _g = serial();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let dog = std::thread::spawn(move || {
        if done_rx.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout) {
            eprintln!("watchdog: `{what}` still running after {limit:?}: lost wake-up or deadlock");
            std::process::abort();
        }
    });
    set_max_threads(threads);
    let outcome = catch_unwind(AssertUnwindSafe(body));
    set_max_threads(0);
    drop(done_tx);
    dog.join().expect("watchdog thread");
    if let Err(payload) = outcome {
        std::panic::resume_unwind(payload);
    }
}

fn busy_wait(d: Duration) {
    let t = Instant::now();
    while t.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// A seeded pause: mostly none, otherwise inside the pool's 50 µs spin
/// window, straddling its edge, or well beyond it.
fn gap(rng: &mut StdRng) -> Duration {
    let mut micros = |lo: u64, hi: u64| Duration::from_micros(lo + rng.random::<u64>() % (hi - lo));
    match micros(0, 100).as_micros() {
        0..=89 => Duration::ZERO,
        90..=93 => micros(2, 20),
        94..=96 => micros(40, 60),
        _ => micros(120, 200),
    }
}

/// `dispatches` back-to-back fork-joins of `tiles` tiles. The caller idles
/// a seeded gap between dispatches (the workers poll, then park, then must
/// be woken) and one tile per job stalls a seeded gap (the caller polls,
/// then parks, then must be woken). Every tile must run exactly once.
fn hammer(dispatches: usize, tiles: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let hits: Vec<AtomicU64> = (0..tiles).map(|_| AtomicU64::new(0)).collect();
    let before = stats();
    for _ in 0..dispatches {
        let stall = gap(&mut rng);
        parallel_tiles(tiles, |t| {
            if t == tiles - 1 {
                busy_wait(stall);
            }
            hits[t].fetch_add(1, Ordering::Relaxed);
        });
        busy_wait(gap(&mut rng));
    }
    let after = stats();
    for (t, h) in hits.iter().enumerate() {
        assert_eq!(h.load(Ordering::Relaxed), dispatches as u64, "tile {t} ran a wrong number of times");
    }
    assert_eq!(after.dispatches - before.dispatches, dispatches as u64, "every job must fork");
    assert!(after.parks > before.parks, "gaps beyond the spin window must park the workers");
}

#[test]
fn back_to_back_dispatches_survive_every_spin_park_wake_transition() {
    with_watchdog("100k dispatches, 2 threads", 2, Duration::from_secs(300), || {
        hammer(100_000, 2, 0x5eed_0001);
    });
}

#[test]
fn oversubscribed_pool_still_hands_off_every_job() {
    // Four participants on (typically) two cores: a worker that is polling
    // can hold the core the dispatcher or a peer needs, so this leans on
    // the yield in the poll loop and on the park fallback.
    with_watchdog("100k dispatches, 4 threads", 4, Duration::from_secs(600), || {
        hammer(100_000, 4, 0x5eed_0002);
    });
}

#[test]
fn two_callers_dispatch_concurrently_without_waiting_on_each_other() {
    with_watchdog("concurrent dispatchers", 4, Duration::from_secs(300), || {
        const JOBS: usize = 20_000;
        const TILES: usize = 8;
        let start = Barrier::new(2);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let hits: Vec<AtomicU64> = (0..TILES).map(|_| AtomicU64::new(0)).collect();
            start.wait();
            for _ in 0..JOBS {
                parallel_tiles(TILES, |t| {
                    hits[t].fetch_add(1, Ordering::Relaxed);
                });
                busy_wait(gap(&mut rng));
            }
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == JOBS as u64));
        };
        std::thread::scope(|s| {
            let other = s.spawn(|| run(0x5eed_0003));
            run(0x5eed_0004);
            other.join().expect("second dispatcher");
        });
    });
}

#[test]
fn panicking_tile_is_reraised_on_the_caller_and_the_pool_stays_usable() {
    with_watchdog("panicking tiles", 2, Duration::from_secs(120), || {
        let caller = std::thread::current().id();
        for panic_on_worker in [true, false] {
            for round in 0..50 {
                // A job just before leaves the worker polling its mailbox.
                parallel_tiles(2, |_| {});
                let arrived = AtomicUsize::new(0);
                let result = catch_unwind(AssertUnwindSafe(|| {
                    parallel_tiles(2, |_| {
                        // Rendezvous: both participants are inside the job
                        // (the pool is ours alone, so the worker shows up;
                        // the timeout only keeps a broken pool from hanging).
                        arrived.fetch_add(1, Ordering::SeqCst);
                        let t = Instant::now();
                        while arrived.load(Ordering::SeqCst) < 2 && t.elapsed() < Duration::from_secs(5) {
                            std::hint::spin_loop();
                        }
                        let on_worker = std::thread::current().id() != caller;
                        if on_worker == panic_on_worker {
                            panic!("tile boom (expected by the test)");
                        }
                    });
                }));
                assert_eq!(arrived.load(Ordering::SeqCst), 2, "the worker must have joined the job");
                assert!(result.is_err(), "round {round}: a tile panic must reach the caller");
            }
        }
        hammer(2_000, 2, 0x5eed_0005);
    });
}

#[test]
fn idle_worker_parks_once_and_stays_parked() {
    // "Burns no CPU when idle" as a count: after its spin window the one
    // worker a two-thread job engaged parks (one park, not a park/wake
    // churn) and the counter then stays put for as long as nothing arrives.
    with_watchdog("idle pool", 2, Duration::from_secs(60), || {
        let before = stats().parks;
        let arrived = AtomicUsize::new(0);
        parallel_tiles(2, |_| {
            // Both participants must show up, or the caller could run both
            // tiles and withdraw the offer from a worker that stays parked.
            arrived.fetch_add(1, Ordering::SeqCst);
            let t = Instant::now();
            while arrived.load(Ordering::SeqCst) < 2 && t.elapsed() < Duration::from_secs(5) {
                std::hint::spin_loop();
            }
        });
        assert_eq!(arrived.load(Ordering::SeqCst), 2, "the worker must have joined the job");
        let t = Instant::now();
        while stats().parks == before && t.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(stats().parks, before + 1, "the engaged worker must park after its spin window");
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(stats().parks, before + 1, "a parked worker must stay parked while the pool is idle");
    });
}

#[test]
fn caller_does_not_wait_for_a_worker_that_has_not_started() {
    // The worker is parked (the pool idled past its spin window) when a job
    // of two short tiles arrives. The caller runs both long before the
    // futex wake lands, withdraws the offer and returns: the tiles ran
    // exactly once each, on the caller, and the pool is usable afterwards.
    with_watchdog("withdrawn offers", 2, Duration::from_secs(120), || {
        let caller = std::thread::current().id();
        let before = stats();
        let mut on_caller = 0;
        for _ in 0..200 {
            // Let the worker park: an engaged worker polls 50 us, then parks.
            let parks = stats().parks;
            let arrived = AtomicUsize::new(0);
            parallel_tiles(2, |_| {
                arrived.fetch_add(1, Ordering::SeqCst);
                let t = Instant::now();
                while arrived.load(Ordering::SeqCst) < 2 && t.elapsed() < Duration::from_secs(5) {
                    std::hint::spin_loop();
                }
            });
            let t = Instant::now();
            while stats().parks == parks && t.elapsed() < Duration::from_secs(5) {
                std::thread::sleep(Duration::from_micros(200));
            }
            let hits = [AtomicU64::new(0), AtomicU64::new(0)];
            let ran_here = AtomicUsize::new(0);
            parallel_tiles(2, |t| {
                hits[t].fetch_add(1, Ordering::Relaxed);
                if std::thread::current().id() == caller {
                    ran_here.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "every tile runs exactly once");
            on_caller += usize::from(ran_here.load(Ordering::Relaxed) == 2);
        }
        let after = stats();
        // A job the caller ran alone while the worker was parked ends in a
        // withdrawal or in a worker that woke in time to take the (empty)
        // job; on any host the first must happen at least once in 200 tries.
        assert!(on_caller > 0, "a parked worker cannot beat the caller to two empty tiles every time");
        assert!(after.withdrawn > before.withdrawn, "a job finished before the worker woke must be withdrawn");
        hammer(2_000, 2, 0x5eed_0006);
    });
}
