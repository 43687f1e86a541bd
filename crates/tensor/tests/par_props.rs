//! Property-based tests for the `par` module's helpers: chunk splitting must
//! partition the index space for any (items, threads) combination, tiny
//! workloads (items < threads) must still visit everything exactly once, and
//! `parallel_map_reduce` must reduce partials in chunk order regardless of
//! scheduling.
//!
//! `set_max_threads` is a process-global budget, so every property that sets
//! it holds a shared lock and restores the default (0 = auto) afterwards.

use proptest::prelude::*;
use revbifpn_tensor::par::{
    num_threads_for, parallel_chunks, parallel_map_reduce, parallel_over_slices, parallel_tiles,
    set_max_threads,
};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Serializes property cases that reconfigure the global thread budget.
fn budget_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// RAII guard: set an explicit budget, restore auto on drop (even on panic,
/// so one failing case does not poison the budget for the next).
struct Budget;
impl Budget {
    fn new(threads: usize) -> Self {
        set_max_threads(threads);
        Budget
    }
}
impl Drop for Budget {
    fn drop(&mut self) {
        set_max_threads(0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every index in `0..items` is visited by exactly one chunk, chunks are
    /// disjoint, and their union is the full range — for any thread budget,
    /// including uneven splits and items < threads.
    #[test]
    fn chunks_partition_the_index_space(items in 0usize..500, threads in 1usize..17) {
        let _g = budget_lock();
        let _b = Budget::new(threads);
        let visits: Vec<AtomicUsize> = (0..items).map(|_| AtomicUsize::new(0)).collect();
        let calls = AtomicUsize::new(0);
        let bad_chunks = AtomicUsize::new(0);
        parallel_chunks(items, |a, b| {
            if a >= b || b > items {
                // Empty or out-of-range chunk: flag it (asserted below —
                // panicking inside the pool would also fail, less clearly).
                bad_chunks.fetch_add(1, Ordering::Relaxed);
                return;
            }
            calls.fetch_add(1, Ordering::Relaxed);
            for v in &visits[a..b] {
                v.fetch_add(1, Ordering::Relaxed);
            }
        });
        prop_assert_eq!(bad_chunks.load(Ordering::Relaxed), 0, "empty/out-of-range chunks dispatched");
        for (i, v) in visits.iter().enumerate() {
            prop_assert_eq!(v.load(Ordering::Relaxed), 1, "index {} visited wrong number of times", i);
        }
        // Never more chunks than the budget (or than items, whichever is
        // smaller), so tiny workloads don't produce empty dispatches.
        prop_assert!(calls.load(Ordering::Relaxed) <= threads.min(items.max(1)));
    }

    /// `parallel_tiles` visits each tile exactly once even when tiles are
    /// fewer than the thread budget.
    #[test]
    fn tiles_visit_once_when_items_below_threads(tiles in 0usize..8, threads in 8usize..33) {
        let _g = budget_lock();
        let _b = Budget::new(threads);
        let visits: Vec<AtomicUsize> = (0..tiles).map(|_| AtomicUsize::new(0)).collect();
        parallel_tiles(tiles, |t| {
            visits[t].fetch_add(1, Ordering::Relaxed);
        });
        for (t, v) in visits.iter().enumerate() {
            prop_assert_eq!(v.load(Ordering::Relaxed), 1, "tile {} visited wrong number of times", t);
        }
    }

    /// The reduction sees exactly one partial per non-empty chunk, in chunk
    /// order: reducing chunk start indices must yield a sorted sequence, and
    /// a non-commutative reduction must give the same result as a sequential
    /// left fold over the chunks.
    #[test]
    fn map_reduce_is_ordered_and_complete(items in 1usize..300, threads in 1usize..17) {
        let _g = budget_lock();
        let _b = Budget::new(threads);

        // Partials arrive in chunk order.
        let mut starts: Vec<usize> = Vec::new();
        parallel_map_reduce(items, |a, _b| a, &mut starts, |acc, s| acc.push(s));
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&starts, &sorted, "partials must reduce in chunk order");

        // A non-commutative fold (string concatenation of per-chunk sums)
        // matches the single-threaded fold exactly.
        let fold = |acc: &mut String, part: u64| {
            acc.push_str(&part.to_string());
            acc.push(';');
        };
        let chunk_sum = |a: usize, b: usize| (a..b).map(|i| i as u64).sum::<u64>();
        let mut parallel_result = String::new();
        parallel_map_reduce(items, chunk_sum, &mut parallel_result, fold);

        let n = num_threads_for(items);
        let mut sequential_result = String::new();
        let chunk = items.div_ceil(n);
        let mut a = 0;
        while a < items {
            let b = (a + chunk).min(items);
            fold(&mut sequential_result, chunk_sum(a, b));
            a = b;
        }
        prop_assert_eq!(parallel_result, sequential_result);
    }

    /// `parallel_over_slices` hands every slice to exactly one call, with the
    /// right index, and writes through disjoint slices land where they should.
    #[test]
    fn over_slices_visits_each_slice_once(count in 0usize..12, seed in any::<u64>(), threads in 1usize..17) {
        let _g = budget_lock();
        let _b = Budget::new(threads);
        // Derive pseudo-random slice lengths (0..=8) from the seed.
        let lens: Vec<usize> = (0..count)
            .map(|i| (seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64) >> 33) as usize % 9)
            .collect();
        let total: usize = lens.iter().sum();
        let mut buf = vec![0.0f32; total];
        {
            let mut rest: &mut [f32] = &mut buf;
            let mut slices: Vec<&mut [f32]> = Vec::new();
            for &len in &lens {
                let (head, tail) = rest.split_at_mut(len);
                slices.push(head);
                rest = tail;
            }
            parallel_over_slices(slices, |i, s| {
                for v in s.iter_mut() {
                    *v += (i + 1) as f32;
                }
            });
        }
        let mut off = 0;
        for (i, &len) in lens.iter().enumerate() {
            for k in 0..len {
                prop_assert_eq!(buf[off + k], (i + 1) as f32, "slice {} written incorrectly", i);
            }
            off += len;
        }
    }

    /// The atomic tile scheduler hands out each tile once even under heavy
    /// oversubscription (threads far above the core count), and the total of
    /// a parallel sum matches the closed form.
    #[test]
    fn oversubscribed_tile_sum_is_exact(tiles in 1usize..400, threads in 1usize..65) {
        let _g = budget_lock();
        let _b = Budget::new(threads);
        let sum = AtomicU64::new(0);
        parallel_tiles(tiles, |t| {
            sum.fetch_add(t as u64 + 1, Ordering::Relaxed);
        });
        let n = tiles as u64;
        prop_assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2);
    }
}
