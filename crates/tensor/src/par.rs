//! Data-parallel helpers backed by a persistent worker pool.
//!
//! The kernels in this crate parallelize in two styles: coarse batch
//! splitting ([`parallel_chunks`], [`parallel_over_slices`]) and fine
//! intra-sample tiling ([`parallel_tiles`], used by the blocked GEMM and the
//! convolution engines). Both run on one shared pool of long-lived worker
//! threads, so a conv layer pays the thread-spawn cost once per process, not
//! once per call — and pool threads keep their thread-local scratch arenas
//! (see [`crate::scratch`]) warm across calls.
//!
//! # Threading model
//!
//! - The caller always participates in its own job, so a "w-way" parallel
//!   section uses up to `w - 1` pool workers plus the calling thread.
//! - [`parallel_tiles`] hands out tile indices from a shared atomic counter
//!   (dynamic load balancing). Every tile computes a value that depends only
//!   on the tile index, never on which worker ran it, so results are
//!   byte-identical for any worker count.
//! - Nested parallel sections run inline on the current thread: a kernel
//!   that is already inside a parallel region never fans out again, which
//!   keeps the pool deadlock-free without a work-stealing scheduler.
//! - Worker panics are captured and re-raised on the calling thread after
//!   all participants finish, so a failing tile cannot leave the pool wedged
//!   or let a caller observe partially-written output silently.
//!
//! # The fork-join handoff: spin, then park
//!
//! A frozen batch-1 forward makes a few hundred fork-joins of tens of
//! microseconds each, so the handoff itself is on the latency path. It is
//! built to cost two cache-line transfers when the pool is warm and to cost
//! no CPU when it is idle:
//!
//! - Each worker owns one mailbox: an atomic pointer to the dispatching
//!   caller's `Job`, which lives **on the caller's stack**. A dispatch
//!   claims idle workers by compare-and-swap on their mailboxes — no lock, no
//!   queue, no heap allocation. A worker that is busy with another caller's
//!   job is skipped: the tile counter is shared, so the job completes with
//!   however many participants it got (the caller alone, at worst), and two
//!   concurrent callers never wait on each other.
//! - An idle worker polls its mailbox for `SPIN_WINDOW` (50 µs) and then
//!   parks. After the first 2 µs every poll also yields the core, so a
//!   waiter that shares its core with the thread it is waiting for
//!   (oversubscribed budget, busy host) hands the core over instead of
//!   burning the window against it. The dispatcher wakes only a worker whose
//!   `parked` flag is up, and lowers the flag as it does (one futex wake per
//!   sleep, however many dispatches pass while the worker wakes up); a
//!   polling worker picks the job up from the mailbox on its own. Both sides
//!   use `SeqCst` on the (`parked`, mailbox) pair, so a worker about to park
//!   and a dispatcher publishing a job cannot miss each other. A woken
//!   worker goes back to polling for a full window even when the job that
//!   woke it is gone: the wake says fork-joins are flowing again.
//! - A worker *takes* an offered job by compare-and-swap (offered -> taken)
//!   before it touches it. The caller runs its share — for tiles, until the
//!   shared counter is exhausted — and then **withdraws** the offer from
//!   every claimed worker that has not taken it yet (offered -> free), so a
//!   fork-join never waits for a worker that is still parked, being woken,
//!   or off its core: such a worker would find no tile left anyway. Without
//!   this, every stall of a worker *between* jobs (a futex wake after serial
//!   glue, a neighbour process on its core, and above all a worker that the
//!   guest scheduler left on the caller's own core, which it can do for
//!   hundreds of milliseconds) was charged to the next fork-join in full,
//!   and the step or request time swung with placement and neighbours.
//! - The caller then waits for the workers that did take the job: polling
//!   for the same window first, parking after. The last one to finish
//!   unparks it.
//!
//! [`stats`] counts fork-joins (`dispatches`), worker parks (`parks`) and
//! withdrawn offers (`withdrawn`), so "this change multiplied the
//! dispatches", "the pool never sleeps" and "the workers keep arriving late"
//! are numbers rather than guesses.
//!
//! The worker count defaults to `std::thread::available_parallelism`, can be
//! capped process-wide with the `REVBIFPN_MAX_THREADS` environment variable
//! (read once at first use), and can be overridden programmatically with
//! [`set_max_threads`], which takes precedence over both. An explicit
//! override is honored verbatim even when it exceeds the physical core
//! count; that is deliberate so the multi-threaded code paths stay testable
//! on small CI machines.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Upper bound on pool size; guards against pathological
/// `set_max_threads(huge)` calls. Far above any sensible worker count.
const MAX_POOL_WORKERS: usize = 192;

/// How long an idle worker polls its mailbox before parking, and how long a
/// caller polls for its workers before parking. Long enough to cover the
/// serial glue between two kernels of a frozen forward (so back-to-back
/// fork-joins never pay a futex wake), short enough that an idle or
/// oversubscribed pool gives its cores back almost at once.
const SPIN_WINDOW: Duration = Duration::from_micros(50);

/// The part of [`SPIN_WINDOW`] spent in a pure busy-wait before polls start
/// yielding the core (see [`spin_until`]).
const SPIN_BEFORE_YIELD: Duration = Duration::from_micros(2);

/// Fork-joins dispatched to the pool (inline runs are not counted).
static DISPATCHES: AtomicU64 = AtomicU64::new(0);
/// Times a worker gave up polling and parked.
static PARKS: AtomicU64 = AtomicU64::new(0);
/// Offers a caller took back because the worker had not taken them.
static WITHDRAWN: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// True while this thread is executing inside a parallel section
    /// (either as a pool worker or as a participating caller). Used to run
    /// nested parallel calls inline.
    static IN_PARALLEL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Sets the worker-thread budget for all parallel helpers in this crate.
///
/// `0` (the default) means "use the process default" — the
/// `REVBIFPN_MAX_THREADS` environment variable when set, otherwise
/// `std::thread::available_parallelism`. Any
/// other value is used verbatim — including values larger than the physical
/// core count, which oversubscribes the CPU but lets tests exercise the
/// multi-threaded paths on machines with few cores. The pool grows lazily;
/// lowering the budget leaves already-spawned workers idle but parked.
pub fn set_max_threads(n: usize) {
    MAX_THREADS.store(n, Ordering::Relaxed);
}

/// Default thread budget when no [`set_max_threads`] override is active:
/// the `REVBIFPN_MAX_THREADS` environment variable if set to a positive
/// integer (read once, so CI can cap a whole test run), otherwise
/// `std::thread::available_parallelism`.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let from_env = std::env::var("REVBIFPN_MAX_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0);
        from_env.unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        })
    })
}

/// Effective worker count (callers + pool workers) for `items` parallel items.
pub fn num_threads_for(items: usize) -> usize {
    let cap = MAX_THREADS.load(Ordering::Relaxed);
    let t = if cap == 0 { default_threads() } else { cap.min(MAX_POOL_WORKERS + 1) };
    t.max(1).min(items.max(1))
}

/// Snapshot of the fork-join counters (process-wide, monotonic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Fork-joins handed to the pool. Sections that ran inline (one-thread
    /// budget, one tile, nested) are not counted.
    pub dispatches: u64,
    /// Times a pool worker stopped polling and parked. Flat while jobs
    /// arrive back to back; one per worker once the pool goes idle.
    pub parks: u64,
    /// Offers a caller withdrew because it finished its share before the
    /// worker took the job (the worker was parked, waking or off its core).
    /// A few per hundred dispatches on a quiet host; most of them on a host
    /// whose cores are shared.
    pub withdrawn: u64,
}

/// Reads the fork-join counters.
pub fn stats() -> ParStats {
    ParStats {
        dispatches: DISPATCHES.load(Ordering::Relaxed),
        parks: PARKS.load(Ordering::Relaxed),
        withdrawn: WITHDRAWN.load(Ordering::Relaxed),
    }
}

/// One fork-join, living on the dispatching caller's stack for exactly the
/// duration of [`run_job`]. Workers reach it through their mailbox pointer.
struct Job {
    /// The caller's closure with its lifetime erased.
    task: *const (dyn Fn() + Sync),
    /// Claimed workers that have neither finished nor had their offer
    /// withdrawn. A worker's decrement is its last access to the job; zero
    /// releases the caller.
    remaining: AtomicUsize,
    panicked: AtomicBool,
    /// Whom the last finishing worker unparks.
    caller: Thread,
}

/// One pool worker's mailbox, alive for the whole process. Aligned so that
/// neighbouring workers polling their own slots share no cache line.
#[repr(align(128))]
struct WorkerSlot {
    /// Null when the worker is free, a job a dispatcher offers it, or
    /// [`TAKEN`] while it runs one. Dispatchers claim the slot null -> job
    /// and may withdraw job -> null; the worker takes job -> `TAKEN` and
    /// releases `TAKEN` -> null.
    job: AtomicPtr<Job>,
    /// Up while the worker is parked or about to park.
    parked: AtomicBool,
    /// The worker's handle, set before the slot is published.
    thread: OnceLock<Thread>,
}

static SLOTS: [WorkerSlot; MAX_POOL_WORKERS] = [const {
    WorkerSlot {
        job: AtomicPtr::new(std::ptr::null_mut()),
        parked: AtomicBool::new(false),
        thread: OnceLock::new(),
    }
}; MAX_POOL_WORKERS];

/// Mailbox value of a worker that has taken a job and not finished it: not
/// null (the slot is not claimable) and no job's address (nothing to
/// withdraw). Never dereferenced.
const TAKEN: *mut Job = std::ptr::NonNull::dangling().as_ptr();

/// Number of leading [`SLOTS`] that have a live worker thread.
static SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// Polls `ready` for [`SPIN_WINDOW`]; returns whether it came true. After
/// [`SPIN_BEFORE_YIELD`] every poll also yields the core: on a core of its
/// own the yield returns at once, but when the thread being waited for
/// shares this core (oversubscribed budget, busy host) it is what lets that
/// thread run instead of burning the rest of the window against it.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    if ready() {
        return true;
    }
    let start = Instant::now();
    loop {
        let waited = start.elapsed();
        if waited >= SPIN_WINDOW {
            return false;
        }
        if waited < SPIN_BEFORE_YIELD {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
        if ready() {
            return true;
        }
    }
}

fn worker_main(slot: &'static WorkerSlot) {
    IN_PARALLEL.with(|f| f.set(true));
    loop {
        if !spin_until(|| !slot.job.load(Ordering::Acquire).is_null()) {
            PARKS.fetch_add(1, Ordering::Relaxed);
            // Raise the flag, then look again: a dispatcher stores the job
            // and then reads the flag, both `SeqCst`, so either this load
            // sees the job or the dispatcher sees the flag, lowers it and
            // unparks us (an unpark that arrives before `park` makes it
            // return at once). Sleep until the flag is down — not until a
            // job is there: the job that woke us may be finished and
            // withdrawn by now, but its dispatcher is in a run of fork-joins
            // and the next offer should find this worker polling, not
            // asleep again behind another futex wake. A stale unpark token
            // finds the flag still up and parks again.
            slot.parked.store(true, Ordering::SeqCst);
            while slot.parked.load(Ordering::SeqCst) && slot.job.load(Ordering::SeqCst).is_null() {
                std::thread::park();
            }
            slot.parked.store(false, Ordering::Relaxed);
        }
        // Take the offer. Losing the exchange means the dispatcher withdrew
        // it (its own share covered the job): back to polling.
        let job = slot.job.load(Ordering::Acquire);
        let took = !job.is_null()
            && slot.job.compare_exchange(job, TAKEN, Ordering::AcqRel, Ordering::Relaxed).is_ok();
        if !took {
            continue;
        }
        // SAFETY: `job` was in the mailbox at the exchange, so it points to
        // a `Job` on the stack of a caller that is inside `run_job`, and
        // that caller cannot leave before this worker's `remaining`
        // decrement below: the claim incremented `remaining` before
        // publishing the pointer, the offer can no longer be withdrawn (the
        // mailbox holds `TAKEN`), and `run_job` returns (or unwinds) only
        // after observing zero. The same argument keeps the erased `task`
        // borrow alive. (A pointer loaded before a withdrawal is never
        // dereferenced: either the exchange fails, or the mailbox holds
        // that address again because a live job at it was offered since.)
        let (task, caller) = unsafe { (&*(*job).task, (*job).caller.clone()) };
        let panicked = catch_unwind(AssertUnwindSafe(task)).is_err();
        if panicked {
            // SAFETY: as above; still before the decrement.
            unsafe { (*job).panicked.store(true, Ordering::Relaxed) };
        }
        // Free the mailbox first: once `remaining` hits zero the caller may
        // dispatch again at once and should find this worker claimable.
        slot.job.store(std::ptr::null_mut(), Ordering::Release);
        // SAFETY: as above. This decrement is the last access to `*job`:
        // the moment it lands the caller may pop the frame, which is why the
        // caller's handle was cloned out beforehand. `Release` publishes the
        // tile writes and the panic flag to the caller's `Acquire` load.
        if unsafe { (*job).remaining.fetch_sub(1, Ordering::AcqRel) } == 1 {
            caller.unpark();
        }
    }
}

/// Number of pool threads spawned so far (they persist for the process).
pub fn pool_size() -> usize {
    SPAWNED.load(Ordering::Acquire)
}

/// Grows the pool to at least `want` workers (fewer if thread spawning
/// fails, e.g. under resource limits) and returns how many exist. Takes the
/// growth lock only when the pool is actually short.
fn ensure_workers(want: usize) -> usize {
    static GROW: Mutex<()> = Mutex::new(());
    let want = want.min(MAX_POOL_WORKERS);
    let have = SPAWNED.load(Ordering::Acquire);
    if have >= want {
        return have;
    }
    let _g = GROW.lock().unwrap_or_else(|e| e.into_inner());
    let mut have = SPAWNED.load(Ordering::Acquire);
    while have < want {
        let slot = &SLOTS[have];
        let spawned = std::thread::Builder::new()
            .name(format!("revbifpn-par-{have}"))
            .spawn(move || worker_main(slot));
        let Ok(handle) = spawned else { break };
        slot.thread.set(handle.thread().clone()).expect("slot is published once");
        have += 1;
        SPAWNED.store(have, Ordering::Release);
    }
    have
}

/// Runs `task` on the current thread and on up to `extra` pool workers,
/// returning once every participant that started is done. `task` must pull
/// its work from a shared source and return when that is spent (as the tile
/// puller does): a worker that has not started when the caller's own call
/// returns is not waited for — its offer is withdrawn. Panics from any
/// participant are re-raised here.
fn run_job(extra: usize, task: &(dyn Fn() + Sync)) {
    DISPATCHES.fetch_add(1, Ordering::Relaxed);
    let job = Job {
        // SAFETY: only the lifetime is erased, to let the pointer sit in a
        // `'static` mailbox; the wait below keeps `task` borrowed until no
        // worker can dereference it any more.
        task: unsafe {
            std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(task)
        },
        remaining: AtomicUsize::new(0),
        panicked: AtomicBool::new(false),
        caller: std::thread::current(),
    };
    let job_ptr = std::ptr::addr_of!(job).cast_mut();
    let pool = &SLOTS[..ensure_workers(extra)];
    let mut claimed = 0;
    for slot in pool {
        if claimed == extra {
            break;
        }
        // Count the worker in before it can see the job (and count it out
        // again if the slot turns out to be busy with another caller's job).
        job.remaining.fetch_add(1, Ordering::Relaxed);
        let won = slot.job.compare_exchange(
            std::ptr::null_mut(),
            job_ptr,
            Ordering::SeqCst,
            Ordering::Relaxed,
        );
        if won.is_err() {
            job.remaining.fetch_sub(1, Ordering::Relaxed);
            continue;
        }
        claimed += 1;
        // Lower the flag before the wake so that the dispatches that follow
        // while the worker is still waking up skip the futex call.
        if slot.parked.load(Ordering::SeqCst) && slot.parked.swap(false, Ordering::SeqCst) {
            slot.thread.get().expect("published slots carry their thread").unpark();
        }
    }
    IN_PARALLEL.with(|f| f.set(true));
    let caller = catch_unwind(AssertUnwindSafe(task));
    IN_PARALLEL.with(|f| f.set(false));
    // Always wait before returning or unwinding: until `remaining` reads
    // zero a worker may still dereference `job` and `task`.
    let done = || job.remaining.load(Ordering::Acquire) == 0;
    if !done() {
        // This thread's share is over — for tiles, the counter is spent — so
        // a worker that has not taken the offer yet has nothing left to do:
        // take the offer back instead of waiting for it to wake up, look
        // and leave. Winning the exchange means the worker never saw (and
        // now never will see) this job, so its count is ours to drop.
        for slot in pool {
            let withdrew = slot.job.load(Ordering::Relaxed) == job_ptr
                && slot
                    .job
                    .compare_exchange(job_ptr, std::ptr::null_mut(), Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok();
            if withdrew {
                job.remaining.fetch_sub(1, Ordering::Relaxed);
                WITHDRAWN.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    if !spin_until(done) {
        // A worker's unpark can predate this park (then it returns at
        // once) or belong to an earlier job (then the loop parks again).
        while !done() {
            std::thread::park();
        }
    }
    match caller {
        Err(payload) => resume_unwind(payload),
        Ok(()) if job.panicked.load(Ordering::Relaxed) => panic!("parallel worker panicked"),
        Ok(()) => {}
    }
}

/// Runs `f(tile_index)` for every index in `0..tiles`, distributing tiles
/// over the worker pool via a shared atomic counter.
///
/// This is the primitive the blocked GEMM and the conv engines build on:
/// callers carve their output into disjoint tiles, and each tile's result
/// must depend only on its index — under that contract the output is
/// byte-identical for any thread count, because tile-to-worker assignment
/// affects only scheduling, never values.
///
/// Nested calls (from inside another parallel section) run inline.
pub fn parallel_tiles<F>(tiles: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if tiles == 0 {
        return;
    }
    let threads = num_threads_for(tiles);
    if threads == 1 || IN_PARALLEL.with(|flag| flag.get()) {
        for t in 0..tiles {
            f(t);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let puller = || loop {
        let t = next.fetch_add(1, Ordering::Relaxed);
        if t >= tiles {
            break;
        }
        f(t);
    };
    run_job(threads - 1, &puller);
}

/// Fewest floats of work a [`parallel_plane_groups`] tile covers.
const PLANE_GROUP_FLOATS: usize = 2048;

/// Runs `f(range)` over `0..planes` in tiles of whole consecutive planes:
/// one plane per tile when a plane brings `plane_floats >= 2048` floats of
/// work, otherwise as many as reach that — so per-tile costs (the tile
/// hand-out, a scratch borrow and its zero-fill) are shared by the 6² and 3²
/// planes that would otherwise be dominated by them. The grouping is a
/// function of the plane size alone, and under [`parallel_tiles`]' contract
/// (a plane's result depends only on its index) it never changes a value.
pub(crate) fn parallel_plane_groups<F>(planes: usize, plane_floats: usize, f: F)
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    let per = (PLANE_GROUP_FLOATS / plane_floats.max(1)).max(1);
    parallel_tiles(planes.div_ceil(per), |tile| f(tile * per..((tile + 1) * per).min(planes)));
}

/// Splits `0..items` into `num_threads_for(items)` contiguous chunks and
/// returns the half-open range of chunk `t`.
fn chunk_range(items: usize, chunks: usize, t: usize) -> (usize, usize) {
    let chunk = items.div_ceil(chunks);
    (t * chunk, ((t + 1) * chunk).min(items))
}

/// Runs `f(start, end)` over disjoint contiguous chunks of `0..items`.
///
/// `f` is called once per chunk with that chunk's half-open index range.
/// With a single worker the call happens on the current thread (no
/// dispatch).
pub fn parallel_chunks<F>(items: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    if items == 0 {
        return;
    }
    let threads = num_threads_for(items);
    if threads == 1 {
        f(0, items);
        return;
    }
    parallel_tiles(threads, |t| {
        let (start, end) = chunk_range(items, threads, t);
        if start < end {
            f(start, end);
        }
    });
}

/// Runs a set of heterogeneous one-shot tasks concurrently on the worker
/// pool, returning when all of them have finished ("join").
///
/// This is the task-group primitive used by the reversible backward pass
/// (independent `U_ij`/`D_ij` transform calls) and the sharded train step
/// (per-shard forward+backward). Unlike [`parallel_tiles`], each task is a
/// distinct `FnOnce` closure, so tasks may capture different `&mut` state.
///
/// Scheduling rules:
/// - With a single-thread budget, inside an already-parallel section, or
///   with fewer than two tasks, the tasks run inline **in order** on the
///   current thread. The inline path does *not* mark the thread as inside a
///   parallel section, so kernels invoked by a lone task still fan out.
/// - Otherwise tasks are dispatched over the pool; each task runs exactly
///   once, on an arbitrary participant. Tasks then execute inside a
///   parallel section, so nested kernel calls run inline (deadlock-free
///   nesting, same rule as [`parallel_tiles`]).
///
/// Determinism contract: every task must write only to state it owns (or
/// disjoint slots), and each task's result must not depend on which thread
/// runs it or on execution order. Under that contract the combined result
/// is byte-identical for any thread count.
pub fn parallel_join<'a>(tasks: Vec<Box<dyn FnOnce() + Send + 'a>>) {
    let n = tasks.len();
    if n == 0 {
        return;
    }
    let threads = num_threads_for(n);
    if threads == 1 || n == 1 || IN_PARALLEL.with(|flag| flag.get()) {
        for t in tasks {
            t();
        }
        return;
    }
    // Each slot is taken exactly once by the tile that owns its index; the
    // Mutex is never contended, it only makes the slot type `Sync`.
    type TaskSlot<'a> = Mutex<Option<Box<dyn FnOnce() + Send + 'a>>>;
    let slots: Vec<TaskSlot<'a>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    parallel_tiles(n, |i| {
        let task = slots[i].lock().unwrap().take();
        if let Some(task) = task {
            task();
        }
    });
}

/// Calls `pair(dst, src)` for every reduction edge of the stride-doubling
/// pairwise tree over `n` leaves, in deterministic order. After the walk,
/// leaf `0` holds the reduction of all `n` leaves.
///
/// The edge set is `stride = 1, 2, 4, ...`: at each level, leaves
/// `i ≡ 0 (mod 2·stride)` absorb leaf `i + stride` (when it exists). The
/// order depends only on `n`, never on thread count or scheduling.
///
/// # Shard-alignment theorem
///
/// This tree is the backbone of the sharded training step's bitwise
/// determinism guarantee. Split the `n` leaves into `S` equal contiguous
/// shards of `m = n / S` leaves, with `m` and `S` powers of two. Then:
///
/// - every edge with `stride < m` connects two leaves of the *same* shard,
///   and the edges within one shard form exactly the tree this function
///   walks over `m` leaves (shifted by the shard base); and
/// - the edges with `stride >= m` connect shard representatives (leaf
///   `s·m` for shard `s`) and form exactly this tree over the `S` shard
///   partials.
///
/// So "reduce each shard locally with this tree, then reduce the shard
/// partials with this tree" performs the *same additions in the same
/// order* as one global tree over all `n` leaves — the merged result is
/// bitwise identical for any power-of-two shard count dividing `n`.
pub fn tree_reduce_serial<F>(n: usize, mut pair: F)
where
    F: FnMut(usize, usize),
{
    let mut stride = 1;
    while stride < n {
        let mut i = 0;
        while i + stride < n {
            pair(i, i + stride);
            i += 2 * stride;
        }
        stride *= 2;
    }
}

/// Parallel form of [`tree_reduce_serial`]: within each stride level the
/// pair reductions touch disjoint leaves, so they are dispatched over the
/// pool; levels are separated by a barrier. The edge set and per-edge
/// `pair(dst, src)` arguments are identical to the serial walk, so results
/// agree bitwise with it whenever each `pair` call is deterministic.
fn tree_reduce_parallel<F>(n: usize, pair: F)
where
    F: Fn(usize, usize) + Sync,
{
    let mut stride = 1;
    while stride < n {
        let step = 2 * stride;
        let pairs = if n > stride { (n - stride).div_ceil(step) } else { 0 };
        parallel_tiles(pairs, |p| {
            let i = p * step;
            pair(i, i + stride);
        });
        stride *= 2;
    }
}

/// Floats in one row block of a per-leaf slab (256 KiB): twice the GEMM's
/// small-problem cutoff, so that no block of a split slab is small (see
/// [`slab_row_blocks`]).
const SLAB_BLOCK: usize = 2 * crate::matmul::SMALL_FLOP_CUTOFF;

/// The row blocks [`tree_reduce_with_slabs`] walks a `rows x cols` slab in.
///
/// A slab of at most [`SLAB_BLOCK`] floats, or of one row, is one block (a
/// fill that cannot work on a row range passes its slab as one row). A
/// larger one is cut into blocks of as many whole `MR`-row groups as fit
/// the budget (at least one group), and a tail of at most half the budget
/// joins the block before it. Every block of a split slab therefore holds
/// more than half the budget, which is more than the GEMM's small-problem
/// cutoff: a fill that runs the blocked GEMM on the whole slab runs it on
/// every block too, with the same micro-tiles and the same k-order.
fn slab_row_blocks(rows: usize, cols: usize) -> Vec<std::ops::Range<usize>> {
    const MR: usize = crate::matmul::MR;
    if rows * cols <= SLAB_BLOCK {
        return std::iter::once(0..rows).collect();
    }
    let per = (SLAB_BLOCK / cols / MR).max(1) * MR;
    let mut blocks: Vec<_> = (0..rows).step_by(per).map(|lo| lo..rows.min(lo + per)).collect();
    if blocks.len() > 1 && blocks[blocks.len() - 1].len() * cols <= SLAB_BLOCK / 2 {
        let tail = blocks.pop().expect("two blocks");
        blocks.last_mut().expect("one block").end = tail.end;
    }
    blocks
}

/// Where a gradient is added: the one write every parameter gradient of a
/// training step goes through (the root of [`tree_reduce_with_slabs`], and
/// the layers' whole-tensor accumulates).
///
/// A sharded training step pairs its shards `(2j, 2j + 1)` and lets both
/// add into one accumulator, so the first level of the shard tree happens
/// at the write: the accumulator starts at `+0`, and `(+0 + a) + b` equals
/// the tree's `(+0 + a) + (+0 + b)` bit for bit in either arrival order
/// (`+` commutes, and `+0 + x` is `-0` for no `x`; NaN payloads aside, which
/// only reach a step that its tripwire discards).
#[derive(Debug)]
pub enum GradSink<'a> {
    /// An accumulator the writer owns: a plain add.
    Owned(&'a mut [f32]),
    /// An accumulator shared with the partner shard, locked for each add
    /// and for nothing else.
    Shared(&'a Mutex<crate::Tensor>),
}

impl GradSink<'_> {
    /// Elements in the accumulator.
    pub fn len(&self) -> usize {
        match self {
            Self::Owned(dst) => dst.len(),
            Self::Shared(acc) => lock_grad(acc).data().len(),
        }
    }

    /// Whether the accumulator holds no element.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds `src` into elements `[at, at + src.len())`, one IEEE add each.
    ///
    /// # Panics
    ///
    /// Panics if the range leaves the accumulator.
    pub fn add_at(&mut self, at: usize, src: &[f32]) {
        let add = |dst: &mut [f32]| {
            for (d, s) in dst[at..at + src.len()].iter_mut().zip(src) {
                *d += s;
            }
        };
        match self {
            Self::Owned(dst) => add(dst),
            Self::Shared(acc) => add(lock_grad(acc).data_mut()),
        }
    }
}

/// Locks a shared gradient accumulator. A partner that panicked mid-add is
/// re-raised on its own thread, so the data behind a poisoned lock is never
/// read as a result.
pub fn lock_grad(acc: &Mutex<crate::Tensor>) -> std::sync::MutexGuard<'_, crate::Tensor> {
    acc.lock().unwrap_or_else(|e| e.into_inner())
}

/// Accumulates `n` per-leaf gradient slabs of `rows x cols` floats into
/// `dst` via the pairwise tree of [`tree_reduce_serial`], one row block at a
/// time.
///
/// `fill(leaf, rows, slab)` writes leaf `leaf`'s contribution to the row
/// range `rows` into a zeroed `rows.len() * cols`-float scratch slab (leaves
/// are typically batch samples). Slabs are merged with the stride-doubling
/// tree and the root added into the block's rows of `dst` (the only step that
/// locks a [`GradSink::Shared`] accumulator). Every element
/// keeps its place in the tree, and the blocks of [`slab_row_blocks`] keep
/// every GEMM element in its micro-tile and k-order, so the result is the
/// one-block result bit for bit while the scratch holds `n` slabs of one
/// block rather than of the whole weight.
///
/// Because the slab count is a property of the problem (not the machine)
/// and the merge order is the fixed tree, the reduction is bitwise
/// invariant to thread count *and* — per the shard-alignment theorem — to
/// power-of-two micro-batch shard boundaries.
pub fn tree_reduce_with_slabs<F>(n: usize, rows: usize, cols: usize, mut dst: GradSink<'_>, fill: F)
where
    F: Fn(usize, std::ops::Range<usize>, &mut [f32]) + Sync,
{
    debug_assert_eq!(dst.len(), rows * cols);
    if n == 0 || rows * cols == 0 {
        return;
    }
    let blocks = slab_row_blocks(rows, cols);
    let widest = blocks.iter().map(|b| b.len()).max().unwrap_or(0) * cols;
    // One take per call, sized for the widest block, so the arena sees one
    // size per weight shape.
    let mut slabs = crate::scratch::take(n * widest);
    for (k, block) in blocks.into_iter().enumerate() {
        let len = block.len() * cols;
        if k > 0 {
            slabs[..n * len].fill(0.0);
        }
        {
            let slices: Vec<&mut [f32]> = slabs[..n * len].chunks_mut(len).collect();
            let fill_block = |i: usize, s: &mut [f32]| fill(i, block.clone(), s);
            if slices.len() >= num_threads_for(usize::MAX) {
                parallel_over_slices(slices, fill_block);
            } else {
                for (i, s) in slices.into_iter().enumerate() {
                    fill_block(i, s);
                }
            }
        }
        let ptr = SyncPtr::new(slabs.as_mut_ptr());
        tree_reduce_parallel(n, |d, s| {
            // SAFETY: within one stride level the (dst, src) pairs touch
            // disjoint slabs, and levels are separated by a barrier.
            let (dst_s, src_s) = unsafe {
                (
                    std::slice::from_raw_parts_mut(ptr.get().add(d * len), len),
                    std::slice::from_raw_parts(ptr.get().add(s * len), len),
                )
            };
            for (a, b) in dst_s.iter_mut().zip(src_s) {
                *a += *b;
            }
        });
        dst.add_at(block.start * cols, &slabs[..len]);
    }
}

/// Wrapper making a raw pointer shareable across the pool. Soundness is the
/// caller's obligation: every tile must touch disjoint memory. Used by the
/// kernels in this crate to let tiles write disjoint regions of one buffer.
///
/// The pointer is deliberately private: edition-2021 closures capture
/// *fields*, and capturing the bare pointer would sidestep this wrapper's
/// `Sync` impl. Going through [`SyncPtr::get`] keeps the wrapper itself the
/// captured value.
pub(crate) struct SyncPtr<T>(*mut T);
unsafe impl<T> Sync for SyncPtr<T> {}

impl<T> SyncPtr<T> {
    pub(crate) fn new(ptr: *mut T) -> Self {
        Self(ptr)
    }

    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

/// Like [`parallel_chunks`] but each chunk produces a partial result, and
/// the partials are reduced into `init` **in chunk order** after all chunks
/// finish. The reduction order is therefore a deterministic function of
/// `items` and the thread budget, independent of scheduling.
pub fn parallel_map_reduce<A, T, F, R>(items: usize, f: F, init: &mut A, mut reduce: R)
where
    A: ?Sized,
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
    R: FnMut(&mut A, T),
{
    if items == 0 {
        return;
    }
    let threads = num_threads_for(items);
    if threads == 1 {
        let part = f(0, items);
        reduce(init, part);
        return;
    }
    let mut parts: Vec<Option<T>> = (0..threads).map(|_| None).collect();
    let out = SyncPtr::new(parts.as_mut_ptr());
    parallel_tiles(threads, |t| {
        let (start, end) = chunk_range(items, threads, t);
        if start < end {
            let part = f(start, end);
            // SAFETY: tile t is the only writer of slot t, and `parts`
            // outlives the parallel section (we're still borrowing it).
            unsafe { *out.get().add(t) = Some(part) };
        }
    });
    for part in parts.into_iter().flatten() {
        reduce(init, part);
    }
}

/// Runs `f(item_index, slice)` for every slice in `slices`, distributing the
/// items over worker threads. Slices are disjoint `&mut` borrows (typically
/// per-batch-item chunks of an output buffer), so this is safe parallelism
/// by construction.
pub fn parallel_over_slices<F>(slices: Vec<&mut [f32]>, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let items = slices.len();
    if items == 0 {
        return;
    }
    if num_threads_for(items) == 1 {
        for (i, s) in slices.into_iter().enumerate() {
            f(i, s);
        }
        return;
    }
    let raw: Vec<(*mut f32, usize)> =
        slices.into_iter().map(|s| (s.as_mut_ptr(), s.len())).collect();
    let raw = SyncPtr::new(raw.as_ptr() as *mut (*mut f32, usize));
    parallel_tiles(items, |i| {
        // SAFETY: the source slices were disjoint `&mut` borrows and each
        // index is visited by exactly one tile.
        let (ptr, len) = unsafe { *raw.get().add(i) };
        let slice = unsafe { std::slice::from_raw_parts_mut(ptr, len) };
        f(i, slice);
    });
}

/// Serializes tests (crate-wide) that touch the global thread budget.
#[cfg(test)]
pub(crate) fn tests_budget_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    use super::tests_budget_lock as budget_lock;

    #[test]
    fn chunks_cover_all_items_once() {
        let counter = AtomicU64::new(0);
        parallel_chunks(1000, |a, b| {
            for i in a..b {
                counter.fetch_add(i as u64, Ordering::Relaxed);
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn zero_items_is_noop() {
        parallel_chunks(0, |_, _| panic!("should not run"));
        parallel_tiles(0, |_| panic!("should not run"));
    }

    #[test]
    fn map_reduce_sums_partials() {
        let mut total = 0u64;
        parallel_map_reduce(
            100,
            |a, b| (a..b).map(|i| i as u64).sum::<u64>(),
            &mut total,
            |acc, p| *acc += p,
        );
        assert_eq!(total, 99 * 100 / 2);
    }

    #[test]
    fn slices_receive_correct_indices() {
        let mut buf = [0.0f32; 40];
        let slices: Vec<&mut [f32]> = buf.chunks_mut(10).collect();
        parallel_over_slices(slices, |i, s| {
            for v in s.iter_mut() {
                *v = i as f32;
            }
        });
        for (i, chunk) in buf.chunks(10).enumerate() {
            assert!(chunk.iter().all(|&v| v == i as f32));
        }
    }

    #[test]
    fn thread_cap_respected() {
        let _g = budget_lock();
        set_max_threads(1);
        assert_eq!(num_threads_for(64), 1);
        set_max_threads(0);
        assert!(num_threads_for(64) >= 1);
    }

    #[test]
    fn explicit_budget_may_exceed_core_count() {
        let _g = budget_lock();
        set_max_threads(7);
        assert_eq!(num_threads_for(64), 7);
        assert_eq!(num_threads_for(3), 3);
        set_max_threads(0);
    }

    #[test]
    fn tiles_visit_each_index_exactly_once_oversubscribed() {
        let _g = budget_lock();
        set_max_threads(5);
        let hits: Vec<AtomicU64> = (0..137).map(|_| AtomicU64::new(0)).collect();
        parallel_tiles(hits.len(), |t| {
            hits[t].fetch_add(1, Ordering::Relaxed);
        });
        set_max_threads(0);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_threads_are_reused() {
        let _g = budget_lock();
        set_max_threads(4);
        parallel_tiles(16, |_| {});
        let after_first = pool_size();
        for _ in 0..8 {
            parallel_tiles(16, |_| {});
        }
        set_max_threads(0);
        assert!(after_first >= 1, "pool should have spawned workers");
        assert_eq!(pool_size(), after_first, "repeat jobs must not grow the pool");
    }

    #[test]
    fn nested_parallel_sections_run_inline() {
        let _g = budget_lock();
        set_max_threads(4);
        let counter = AtomicU64::new(0);
        parallel_tiles(8, |_| {
            // Inner section must not deadlock; it runs inline.
            parallel_tiles(8, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        set_max_threads(0);
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let _g = budget_lock();
        set_max_threads(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_tiles(64, |t| {
                if t == 13 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "panic inside a tile must propagate");
        // The pool must still be usable after a panicked job.
        let counter = AtomicU64::new(0);
        parallel_tiles(32, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        set_max_threads(0);
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn join_runs_every_task_once() {
        let _g = budget_lock();
        set_max_threads(4);
        let hits: Vec<AtomicU64> = (0..23).map(|_| AtomicU64::new(0)).collect();
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..hits.len())
            .map(|i| {
                let cell = &hits[i];
                Box::new(move || {
                    cell.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        parallel_join(tasks);
        set_max_threads(0);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn join_tasks_may_mutate_disjoint_state() {
        let _g = budget_lock();
        set_max_threads(4);
        let mut outs = vec![0u64; 8];
        let tasks: Vec<Box<dyn FnOnce() + Send>> = outs
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                Box::new(move || {
                    *slot = (i as u64 + 1) * 10;
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        parallel_join(tasks);
        set_max_threads(0);
        assert_eq!(outs, vec![10, 20, 30, 40, 50, 60, 70, 80]);
    }

    #[test]
    fn join_single_task_does_not_enter_parallel_section() {
        let _g = budget_lock();
        set_max_threads(4);
        let entered = std::sync::atomic::AtomicBool::new(false);
        let probe = &entered;
        parallel_join(vec![Box::new(move || {
            probe.store(IN_PARALLEL.with(|f| f.get()), Ordering::Relaxed);
        })]);
        set_max_threads(0);
        assert!(
            !entered.load(Ordering::Relaxed),
            "lone task must run outside a parallel section"
        );
    }

    #[test]
    fn join_panic_propagates() {
        let _g = budget_lock();
        set_max_threads(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..8)
                .map(|i| {
                    Box::new(move || {
                        if i == 3 {
                            panic!("task boom");
                        }
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            parallel_join(tasks);
        }));
        set_max_threads(0);
        assert!(result.is_err());
    }

    #[test]
    fn tree_reduce_matches_between_serial_and_parallel() {
        let _g = budget_lock();
        for n in [1usize, 2, 3, 5, 8, 16, 17] {
            let mut serial_edges = Vec::new();
            tree_reduce_serial(n, |d, s| serial_edges.push((d, s)));
            let par_edges = Mutex::new(Vec::new());
            set_max_threads(4);
            tree_reduce_parallel(n, |d, s| par_edges.lock().unwrap().push((d, s)));
            set_max_threads(0);
            let mut par_edges = par_edges.into_inner().unwrap();
            // Parallel order within a level is nondeterministic; the edge
            // *set* must match, and level order is preserved by stride.
            par_edges.sort_unstable();
            serial_edges.sort_unstable();
            assert_eq!(serial_edges, par_edges, "edge set mismatch at n={n}");
        }
    }

    #[test]
    fn tree_reduce_shard_alignment() {
        // The theorem in the docs, checked concretely: local trees over
        // power-of-two shards followed by a tree over shard bases perform
        // the same (dst, src) adds as one global tree, in an order that
        // yields bitwise-identical sums for f32 accumulation.
        let n = 16usize;
        for shards in [1usize, 2, 4, 8] {
            let m = n / shards;
            let leaves: Vec<f32> = (0..n).map(|i| (i as f32).sin() * 1e3).collect();
            let mut global = leaves.clone();
            tree_reduce_serial(n, |d, s| global[d] += global[s]);
            let mut sharded = leaves.clone();
            for s in 0..shards {
                let base = s * m;
                tree_reduce_serial(m, |d, s2| sharded[base + d] += sharded[base + s2]);
            }
            let mut partials: Vec<f32> = (0..shards).map(|s| sharded[s * m]).collect();
            tree_reduce_serial(shards, |d, s2| partials[d] += partials[s2]);
            assert_eq!(global[0].to_bits(), partials[0].to_bits(), "shards={shards}");
        }
    }

    #[test]
    fn slab_row_blocks_cover_whole_mr_groups_above_the_gemm_cutoff() {
        const MR: usize = crate::matmul::MR;
        for cols in [1usize, 7, 320, 1280, 5461, 5462, 10923, 70_000] {
            for rows in [1usize, 5, 6, 7, 13, 100, 204, 205, 500, 1280, 4096] {
                let blocks = slab_row_blocks(rows, cols);
                assert_eq!(blocks.first().unwrap().start, 0);
                assert_eq!(blocks.last().unwrap().end, rows);
                for pair in blocks.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start, "{rows}x{cols}: blocks must tile the rows");
                }
                if blocks.len() > 1 {
                    for b in &blocks {
                        assert_eq!(b.start % MR, 0, "{rows}x{cols}: {b:?} starts inside an MR group");
                        assert!(
                            b.len() * cols > crate::matmul::SMALL_FLOP_CUTOFF,
                            "{rows}x{cols}: {b:?} would drop onto the small-GEMM path"
                        );
                    }
                }
            }
        }
        assert_eq!(slab_row_blocks(1, 1 << 20).len(), 1, "one row is never split");
    }

    type SlabFill<'a> = dyn Fn(usize, std::ops::Range<usize>, &mut [f32]) + Sync + 'a;

    /// The one-block reduction `tree_reduce_with_slabs` performed before it
    /// walked row blocks: whole slabs, the same sample tree.
    fn one_block_reduce(
        n: usize,
        rows: usize,
        cols: usize,
        fill: &SlabFill<'_>,
    ) -> Vec<f32> {
        let mut slabs = vec![vec![0.0f32; rows * cols]; n];
        for (i, s) in slabs.iter_mut().enumerate() {
            fill(i, 0..rows, s);
        }
        tree_reduce_serial(n, |d, s| {
            let (head, tail) = slabs.split_at_mut(s);
            for (a, b) in head[d].iter_mut().zip(&tail[0]) {
                *a += *b;
            }
        });
        let mut dst = vec![0.0f32; rows * cols];
        for (d, s) in dst.iter_mut().zip(&slabs[0]) {
            *d += s;
        }
        dst
    }

    #[test]
    fn row_blocked_slab_tree_equals_one_block_bitwise() {
        use crate::{sgemm_a_bt, Shape, Tensor};
        use rand::{rngs::StdRng, SeedableRng};
        let first_diff = |a: &[f32], b: &[f32]| a.iter().zip(b).position(|(x, y)| x.to_bits() != y.to_bits());
        let mut rng = StdRng::seed_from_u64(7);
        // Pointwise conv dW: [c_out, c_in] += dy [c_out, hw] @ x^T [hw, c_in],
        // with hw = 260 crossing one KC = 256 slice, and hw = 9 (a 3x3 map),
        // where a 7-row block alone would be a small GEMM. c_in = 320 makes a
        // block 204 rows; 619 rows ends in a merged 7-row tail, 762 in its
        // own 150-row block.
        let c_in = 320usize;
        let per = slab_row_blocks(1 << 20, c_in)[0].len();
        assert_eq!(per, 204);
        for (hw, c_out) in [9usize, 260].into_iter().flat_map(|hw| {
            [1usize, 5, 6, 7, per - 1, per + 1, 3 * per + 7, 3 * per + 150].map(|c| (hw, c))
        }) {
            for n in [1usize, 2, 3, 4, 8] {
                let dy = Tensor::randn(Shape::new(n, c_out, 1, hw), 1.0, &mut rng);
                let x = Tensor::randn(Shape::new(n, c_in, 1, hw), 1.0, &mut rng);
                let (dyd, xd) = (dy.data(), x.data());
                let fill = |i: usize, rows: std::ops::Range<usize>, slab: &mut [f32]| {
                    let dy_rows = &dyd[(i * c_out + rows.start) * hw..(i * c_out + rows.end) * hw];
                    sgemm_a_bt(rows.len(), hw, c_in, 1.0, dy_rows, &xd[i * c_in * hw..(i + 1) * c_in * hw], 1.0, slab);
                };
                let want = one_block_reduce(n, c_out, c_in, &fill);
                let mut got = vec![0.0f32; c_out * c_in];
                tree_reduce_with_slabs(n, c_out, c_in, GradSink::Owned(&mut got), fill);
                assert_eq!(first_diff(&got, &want), None, "pointwise dW hw={hw} c_out={c_out} n={n}");
            }
        }
        assert_eq!(slab_row_blocks(3 * per + 7, c_in).len(), 3);
        assert_eq!(slab_row_blocks(3 * per + 150, c_in).len(), 4);

        // Linear dW: [out, in] += dy_i [out, 1] @ x_i [1, in] (K = 1). With
        // in = 1280 a block is 48 rows; a tail of up to 25 rows merges.
        let inf = 1280usize;
        let per = slab_row_blocks(1 << 20, inf)[0].len();
        assert_eq!(per, 48);
        for of in [1usize, 5, 6, 7, per - 1, per + 1, 3 * per + 5, 3 * per + 30] {
            for n in [1usize, 2, 3, 4, 8] {
                let dy = Tensor::randn(Shape::new(n, of, 1, 1), 1.0, &mut rng);
                let x = Tensor::randn(Shape::new(n, inf, 1, 1), 1.0, &mut rng);
                let (dyd, xd) = (dy.data(), x.data());
                let fill = |i: usize, rows: std::ops::Range<usize>, slab: &mut [f32]| {
                    let dy_rows = &dyd[i * of + rows.start..i * of + rows.end];
                    sgemm_a_bt(rows.len(), 1, inf, 1.0, dy_rows, &xd[i * inf..(i + 1) * inf], 1.0, slab);
                };
                let want = one_block_reduce(n, of, inf, &fill);
                let mut got = vec![0.0f32; of * inf];
                tree_reduce_with_slabs(n, of, inf, GradSink::Owned(&mut got), fill);
                assert_eq!(first_diff(&got, &want), None, "Linear dW out={of} n={n}");
            }
        }
        assert_eq!(slab_row_blocks(3 * per + 5, inf).len(), 3);
        assert_eq!(slab_row_blocks(3 * per + 30, inf).len(), 4);
    }

    #[test]
    fn map_reduce_order_is_chunk_order() {
        let _g = budget_lock();
        set_max_threads(4);
        let mut seen: Vec<usize> = Vec::new();
        parallel_map_reduce(100, |start, _end| start, &mut seen, |acc, s| acc.push(s));
        set_max_threads(0);
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(seen, sorted, "partials must reduce in chunk order");
        assert_eq!(seen[0], 0);
    }
}
