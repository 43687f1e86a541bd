//! Property-based tests for the `par` module's helpers: the splitters
//! (`tiles_mut`, `plane_groups_mut`, `chunks_mut`) must hand every element of
//! every output buffer to exactly the tile that owns it, for any (items,
//! threads) combination, and tiny workloads (items < threads) must still
//! visit everything exactly once.
//!
//! `set_max_threads` is a process-global budget, so every property that sets
//! it holds a shared lock and restores the default (0 = auto) afterwards.

use proptest::prelude::*;
use revbifpn_tensor::par::{chunks_mut, parallel_tiles, plane_groups_mut, set_max_threads, tiles_mut, Runs};
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

    /// `chunks_mut` hands every element of the buffer to one chunk, with the
    /// index of the chunk's first element, in at most one chunk per thread —
    /// for any thread budget, including uneven splits and items < threads.
    #[test]
    fn chunks_partition_the_buffer(items in 0usize..500, threads in 1usize..17) {
        let _g = budget_lock();
        let _b = Budget::new(threads);
        let mut buf = vec![usize::MAX; items];
        let chunks = AtomicUsize::new(0);
        chunks_mut(&mut buf, |at, chunk| {
            if !chunk.is_empty() {
                chunks.fetch_add(1, Ordering::Relaxed);
            }
            for (i, v) in chunk.iter_mut().enumerate() {
                // A second visit would find its own index, not `MAX`.
                *v = if *v == usize::MAX { at + i } else { usize::MAX - 1 };
            }
        });
        for (i, &v) in buf.iter().enumerate() {
            prop_assert_eq!(v, i, "element {} visited wrongly", i);
        }
        prop_assert!(chunks.load(Ordering::Relaxed) <= threads.min(items.max(1)));
    }

    /// `tiles_mut` gives tile `t` elements `[t·per, (t+1)·per)` of each
    /// buffer, clipped to its end, for buffers of different element types
    /// and run lengths; elements past the last tile's run stay untouched.
    #[test]
    fn tiles_get_their_runs(tiles in 0usize..40, per_a in 0usize..5, per_b in 1usize..4, len_a in 0usize..120, threads in 1usize..17) {
        let _g = budget_lock();
        let _b = Budget::new(threads);
        let mut a = vec![0.0f32; len_a];
        let mut b = vec![usize::MAX; tiles * per_b];
        tiles_mut(tiles, (Runs::new(&mut a, per_a), Runs::new(&mut b, per_b)), |t, (ra, rb)| {
            for v in ra.iter_mut() {
                *v += (t + 1) as f32;
            }
            rb.fill(t);
        });
        for (i, &v) in a.iter().enumerate() {
            let owner = i.checked_div(per_a).unwrap_or(tiles);
            let want = if owner < tiles { (owner + 1) as f32 } else { 0.0 };
            prop_assert_eq!(v, want, "float element {} of {} runs of {}", i, tiles, per_a);
        }
        for (i, &v) in b.iter().enumerate() {
            prop_assert_eq!(v, i / per_b, "index element {}", i);
        }
    }

    /// `plane_groups_mut` covers `0..planes` with disjoint consecutive plane
    /// ranges, and each range's runs are exactly its planes in every buffer.
    #[test]
    fn plane_groups_get_their_planes(planes in 0usize..60, plane_len in 1usize..40, threads in 1usize..17) {
        let _g = budget_lock();
        let _b = Budget::new(threads);
        let mut ys = vec![usize::MAX; planes * plane_len];
        let mut sums = vec![usize::MAX; planes];
        plane_groups_mut(planes, plane_len, (Runs::new(&mut ys, plane_len), Runs::new(&mut sums, 1)), |group, (yr, sr)| {
            assert_eq!((yr.len(), sr.len()), (group.len() * plane_len, group.len()), "runs cover the group");
            for (k, p) in group.enumerate() {
                yr[k * plane_len..(k + 1) * plane_len].fill(p);
                sr[k] = p;
            }
        });
        for (i, &v) in ys.iter().enumerate() {
            prop_assert_eq!(v, i / plane_len, "plane element {}", i);
        }
        for (p, &v) in sums.iter().enumerate() {
            prop_assert_eq!(v, p, "plane slot {}", p);
        }
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
