//! Thread-local scratch arenas for kernel workspace buffers.
//!
//! The convolution and GEMM engines need sizable temporaries — im2col
//! matrices, packed GEMM panels, per-sample weight-gradient slabs. Allocating
//! those per call dominated small-batch latency and made throughput depend on
//! the allocator. Instead, every thread (pool workers included, since they
//! live for the whole process) keeps a free list of reusable buffers:
//! [`take`] hands out a zeroed buffer, dropping the [`ScratchGuard`] returns
//! it. After a warm-up call per shape, steady state performs **zero** heap
//! allocations per kernel invocation. The tasks of a
//! [`crate::par::join_map`] borrow from arenas that belong to the calling
//! thread and travel with the task, one per task index, so their sizes do
//! not depend on which thread took which task.
//!
//! That claim is enforceable, not aspirational: global counters record every
//! borrow and every heap growth, and [`stats`] exposes them (they are also
//! surfaced through `revbifpn-nn`'s memory meter). A test or benchmark can
//! assert `heap_growths` stayed flat across a window of calls.
//!
//! Buffers are zero-filled on every [`take`]: the kernels rely on
//! zero-initialized accumulators/padding, and a predictable starting state
//! costs one cheap linear pass over memory that is about to be touched
//! repeatedly anyway.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

/// Total number of [`take`] calls, process-wide.
static BORROWS: AtomicU64 = AtomicU64::new(0);
/// Number of takes that had to grow the heap (cold arena or a new high-water
/// size). Zero growth across a window of calls == zero steady-state
/// allocation.
static HEAP_GROWTHS: AtomicU64 = AtomicU64::new(0);
/// High-water mark of bytes resident across all thread arenas.
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
/// Current bytes resident across all thread arenas (owned by arenas or
/// borrowed out).
static RESIDENT_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARENA: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
    /// The arenas this thread's joins lend their tasks, by task index.
    static TASK_ARENAS: RefCell<Vec<Arena>> = const { RefCell::new(Vec::new()) };
}

/// A free list of scratch buffers that travels with a pool task.
#[derive(Default)]
pub(crate) struct Arena(Vec<Vec<f32>>);

impl Arena {
    /// Runs `f` with this arena in place of the current thread's: every
    /// [`take`] inside `f` borrows from it.
    pub(crate) fn run<R>(&mut self, f: impl FnOnce() -> R) -> R {
        struct Swap<'a>(&'a mut Vec<Vec<f32>>);
        impl Drop for Swap<'_> {
            fn drop(&mut self) {
                ARENA.with(|a| std::mem::swap(&mut *a.borrow_mut(), self.0));
            }
        }
        let swap = Swap(&mut self.0);
        ARENA.with(|a| std::mem::swap(&mut *a.borrow_mut(), swap.0));
        f()
    }
}

/// Runs `f` on this thread's task arenas `0..n`, one for each task of one
/// join. Which thread takes which task is a race, so a task that borrowed
/// from the thread it landed on could meet a size that thread's arena has
/// never held, however long the pool had been warm. Task `k` of every join
/// this thread makes runs on arena `k` instead: an arena meets the same
/// sizes on every pass and stops growing after the first.
pub(crate) fn with_task_arenas<R>(n: usize, f: impl FnOnce(&mut [Arena]) -> R) -> R {
    let mut arenas = TASK_ARENAS.take();
    if arenas.len() < n {
        arenas.resize_with(n, Arena::default);
    }
    let r = f(&mut arenas[..n]);
    TASK_ARENAS.set(arenas);
    r
}

/// Snapshot of the arena counters. All values are process-wide and
/// monotonic except `resident_bytes`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Total buffers handed out by [`take`].
    pub borrows: u64,
    /// Takes that performed a heap allocation (first use of a size class on
    /// a thread). Flat across calls ⇒ allocation-free steady state.
    pub heap_growths: u64,
    /// Peak bytes resident across all thread arenas.
    pub peak_bytes: u64,
    /// Bytes currently resident across all thread arenas.
    pub resident_bytes: u64,
}

/// Reads the current counter values.
pub fn stats() -> ScratchStats {
    ScratchStats {
        borrows: BORROWS.load(Ordering::Relaxed),
        heap_growths: HEAP_GROWTHS.load(Ordering::Relaxed),
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed),
        resident_bytes: RESIDENT_BYTES.load(Ordering::Relaxed),
    }
}

/// Resets the monotonic counters (`borrows`, `heap_growths`) and re-bases
/// `peak_bytes` to the current resident size. Buffers stay cached.
pub fn reset_stats() {
    BORROWS.store(0, Ordering::Relaxed);
    HEAP_GROWTHS.store(0, Ordering::Relaxed);
    PEAK_BYTES.store(RESIDENT_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// A zeroed `f32` workspace borrowed from the current thread's arena.
/// Dereferences to `[f32]` of exactly the requested length; the backing
/// buffer returns to the arena on drop.
pub struct ScratchGuard {
    buf: Vec<f32>,
    len: usize,
}

impl Deref for ScratchGuard {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.buf[..self.len]
    }
}

impl DerefMut for ScratchGuard {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf[..self.len]
    }
}

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        // During thread teardown the TLS slot may already be gone; then the
        // buffer simply drops (and leaves the resident count, which is fine:
        // the counters are diagnostics, not a ledger audited on exit).
        let cap = buf.capacity();
        let res = ARENA.try_with(|arena| arena.borrow_mut().push(buf));
        if res.is_err() {
            RESIDENT_BYTES.fetch_sub((cap * 4) as u64, Ordering::Relaxed);
        }
    }
}

fn bump_peak() {
    let now = RESIDENT_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
}

/// Borrows a zeroed scratch buffer of `len` floats from this thread's arena.
///
/// Best-fit reuse: the smallest cached buffer with sufficient capacity is
/// picked; only a cold arena (or an unprecedented size) touches the heap.
pub fn take(len: usize) -> ScratchGuard {
    BORROWS.fetch_add(1, Ordering::Relaxed);
    let mut buf = ARENA.with(|arena| {
        let mut free = arena.borrow_mut();
        let mut best: Option<usize> = None;
        for (i, v) in free.iter().enumerate() {
            if v.capacity() >= len && best.is_none_or(|b| v.capacity() < free[b].capacity()) {
                best = Some(i);
            }
        }
        match best {
            Some(i) => free.swap_remove(i),
            None => {
                // Reuse the largest cached buffer as the growth base so the
                // arena converges on a few maximal size classes instead of
                // hoarding one buffer per distinct size.
                let largest = (0..free.len()).max_by_key(|&i| free[i].capacity());
                largest.map(|i| free.swap_remove(i)).unwrap_or_default()
            }
        }
    });
    if buf.capacity() < len {
        HEAP_GROWTHS.fetch_add(1, Ordering::Relaxed);
        let grown = (len - buf.capacity()) * 4;
        buf.clear();
        buf.reserve_exact(len);
        RESIDENT_BYTES.fetch_add(grown as u64, Ordering::Relaxed);
        bump_peak();
    }
    buf.clear();
    buf.resize(len, 0.0);
    ScratchGuard { buf, len }
}

/// A zeroed byte workspace borrowed from the same arena as [`take`]: the
/// backing storage is an `f32` buffer reinterpreted as bytes, so int8
/// kernels share the f32 size classes instead of growing a second arena.
/// Dereferences to `[u8]` of exactly the requested length.
pub struct ScratchGuardU8 {
    guard: ScratchGuard,
    len: usize,
}

impl Deref for ScratchGuardU8 {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // SAFETY: f32 -> u8 reinterpretation is always valid (alignment 4 ->
        // 1, any bit pattern is a valid u8) and the f32 backing covers
        // ceil(len/4)*4 >= len bytes.
        unsafe { std::slice::from_raw_parts(self.guard.buf.as_ptr() as *const u8, self.len) }
    }
}

impl DerefMut for ScratchGuardU8 {
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `Deref`, plus exclusive access via `&mut self`.
        unsafe { std::slice::from_raw_parts_mut(self.guard.buf.as_mut_ptr() as *mut u8, self.len) }
    }
}

/// Borrows a zeroed scratch buffer of `len` bytes from this thread's arena.
/// Shares storage (and the steady-state zero-allocation guarantee) with the
/// `f32` [`take`].
pub fn take_u8(len: usize) -> ScratchGuardU8 {
    ScratchGuardU8 { guard: take(len.div_ceil(4)), len }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_zeroed_and_sized() {
        let mut a = take(100);
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|&v| v == 0.0));
        a[0] = 7.0;
        drop(a);
        let b = take(100);
        assert!(b.iter().all(|&v| v == 0.0), "reused buffer must be re-zeroed");
    }

    #[test]
    fn steady_state_is_allocation_free() {
        // The growth counter is process-global, so a concurrent test on
        // another thread may legitimately grow its own arena while we
        // measure. Retry a few times: a genuinely leaky arena fails every
        // attempt, a neighbourly bump passes the next one.
        for attempt in 0..5 {
            // Warm the arena with the shapes this test uses.
            for _ in 0..2 {
                let _a = take(512);
                let _b = take(1024);
            }
            let before = stats().heap_growths;
            for _ in 0..50 {
                let _a = take(512);
                let _b = take(1024);
            }
            if stats().heap_growths == before {
                return;
            }
            assert!(attempt < 4, "warm takes must not touch the heap");
        }
    }

    #[test]
    fn concurrent_borrows_are_distinct() {
        let mut a = take(64);
        let mut b = take(64);
        a[0] = 1.0;
        b[0] = 2.0;
        assert_eq!(a[0], 1.0);
        assert_eq!(b[0], 2.0);
    }

    #[test]
    fn byte_buffers_are_zeroed_and_share_the_arena() {
        let mut a = take_u8(101);
        assert_eq!(a.len(), 101);
        assert!(a.iter().all(|&v| v == 0));
        a[100] = 7;
        drop(a);
        let b = take_u8(101);
        assert!(b.iter().all(|&v| v == 0), "reused byte buffer must be re-zeroed");
    }

    #[test]
    fn counters_move() {
        let s0 = stats();
        let _g = take(2048);
        let s1 = stats();
        assert!(s1.borrows > s0.borrows);
        assert!(s1.peak_bytes >= 2048 * 4);
    }
}
