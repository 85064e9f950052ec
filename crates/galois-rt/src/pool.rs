//! Persistent thread pool with fork-join parallel regions.
//!
//! The pool is created lazily on first use and lives for the rest of the
//! process, like the Galois substrate's thread pool. Worker threads park on
//! a condition variable between regions, so an idle pool costs nothing but
//! address space.
//!
//! A *region* runs a closure once on each participating thread; every other
//! parallel construct in this crate ([`crate::do_all()`], [`crate::for_each()`],
//! [`crate::for_each_ordered`]) is built on top of it.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use substrate::sync::{Condvar, Mutex};

/// Type-erased pointer to the closure executed by a region.
///
/// The pointee is guaranteed to outlive the region because
/// [`ThreadPool::region`] blocks until every participant has finished.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` and `region` keeps it alive until all
// workers are done with it, so sending the pointer across threads is sound.
unsafe impl Send for JobPtr {}

struct JobSlot {
    /// Monotonically increasing region counter; a change wakes the workers.
    epoch: u64,
    /// Closure for the current region, if one is in flight.
    job: Option<JobPtr>,
    /// Number of threads (including the caller) participating in the
    /// current region. Workers with an id `>= participants` skip it.
    participants: usize,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<JobSlot>,
    /// Set while some caller owns the workers for a region. A second
    /// concurrent caller (a service job on another thread) does not block
    /// on it — it runs its region's shares sequentially on its own thread
    /// instead, so the pool is shared without head-of-line blocking.
    busy: AtomicBool,
    work_cv: Condvar,
    /// Workers still running the current region (excludes the caller).
    remaining: AtomicUsize,
    done_lock: Mutex<()>,
    done_cv: Condvar,
    /// First panic payload captured from any participant of the current
    /// region; rethrown on the calling thread once the region completes.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// A persistent fork-join thread pool.
///
/// Most code should use the process-global pool via the free functions
/// ([`crate::do_all()`], …) rather than construct one directly; constructing
/// private pools is supported for tests.
pub struct ThreadPool {
    shared: Arc<Shared>,
    max_threads: usize,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("max_threads", &self.max_threads)
            .finish()
    }
}

thread_local! {
    /// Thread id within the current region (0 for the caller), or usize::MAX
    /// outside any region.
    static THREAD_ID: Cell<usize> = const { Cell::new(usize::MAX) };
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Returns the caller's thread id inside a parallel region.
///
/// Inside a region the ids are `0..threads`; outside any region this
/// returns `0` so that per-thread data structures (reduction lanes,
/// [`crate::InsertBag`]) remain usable from plain serial code.
#[inline]
pub fn current_thread_id() -> usize {
    let id = THREAD_ID.with(|t| t.get());
    if id == usize::MAX {
        0
    } else {
        id
    }
}

impl ThreadPool {
    /// Creates a pool with `max_threads - 1` worker threads (the caller of
    /// [`ThreadPool::region`] is always participant 0).
    ///
    /// # Panics
    ///
    /// Panics if `max_threads` is zero.
    pub fn new(max_threads: usize) -> Self {
        assert!(max_threads > 0, "thread pool needs at least one thread");
        let shared = Arc::new(Shared {
            slot: Mutex::new(JobSlot {
                epoch: 0,
                job: None,
                participants: 0,
                shutdown: false,
            }),
            busy: AtomicBool::new(false),
            work_cv: Condvar::new(),
            remaining: AtomicUsize::new(0),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        });
        let mut handles = Vec::new();
        for tid in 1..max_threads {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("galois-worker-{tid}"))
                    .spawn(move || worker_loop(tid, shared))
                    .expect("failed to spawn worker thread"),
            );
        }
        ThreadPool {
            shared,
            max_threads,
            handles: Mutex::new(handles),
        }
    }

    /// Maximum number of threads this pool can use for a region.
    #[inline]
    pub fn max_threads(&self) -> usize {
        self.max_threads
    }

    /// Runs `f(tid)` once on each of `threads` participants and returns when
    /// all of them have finished.
    ///
    /// `threads` is clamped to `1..=max_threads()`. Nested calls (a region
    /// started from inside a region) degrade to serial execution of `f(0)`
    /// on the calling thread, matching Galois' behaviour for nested
    /// parallelism.
    ///
    /// Concurrent calls from *different* threads (e.g. two service jobs
    /// sharing the global pool) are also supported: the first caller owns
    /// the workers, every other caller runs all of its region's shares
    /// `f(0..threads)` sequentially on its own thread. Sequential fallback
    /// is correct for every construct in this crate because no region
    /// closure waits on another participant's progress — each share drains
    /// shared work until a pending count reaches zero or processes a
    /// disjoint block.
    ///
    /// # Panics
    ///
    /// If any participant panics, the region still runs to completion on
    /// the other threads (so no worker is lost) and the first panic is
    /// then rethrown on the calling thread. The pool fully recovers: the
    /// next region starts from a clean slate even when the caller's share
    /// and a worker panicked in the same region.
    pub fn region<F>(&self, threads: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let threads = threads.clamp(1, self.max_threads);
        let nested = IN_REGION.with(|r| r.get());
        if threads == 1 || nested {
            let prev = THREAD_ID.with(|t| t.replace(0));
            let was_in = IN_REGION.with(|r| r.replace(true));
            f(0);
            IN_REGION.with(|r| r.set(was_in));
            THREAD_ID.with(|t| t.set(prev));
            return;
        }

        // Claim the workers. Losing the race means another thread's region
        // is in flight; run this region's shares sequentially instead of
        // blocking behind it (bounded latency, no lost work — see above).
        if self
            .shared
            .busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            run_shares_serially(threads, &f);
            return;
        }
        // Release on every exit path, including an unwind from a
        // panicking share rethrown below.
        struct BusyGuard<'a>(&'a AtomicBool);
        impl Drop for BusyGuard<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::Release);
            }
        }
        let _busy = BusyGuard(&self.shared.busy);

        let job: &(dyn Fn(usize) + Sync) = &f;
        // Erase the lifetime; `region` blocks until the workers are done so
        // the reference cannot dangle.
        let job: JobPtr = JobPtr(unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                job as *const _,
            )
        });
        {
            let mut slot = self.shared.slot.lock();
            debug_assert!(slot.job.is_none(), "overlapping parallel regions");
            // A previous region that rethrew the *caller's* panic leaves
            // any worker payload behind; clear it so this region cannot
            // spuriously rethrow a stale panic.
            *self.shared.panic.lock() = None;
            slot.epoch += 1;
            slot.job = Some(job);
            slot.participants = threads;
            self.shared
                .remaining
                .store(threads - 1, Ordering::Release);
            self.shared.work_cv.notify_all();
        }

        THREAD_ID.with(|t| t.set(0));
        IN_REGION.with(|r| r.set(true));
        // The caller's share runs under catch_unwind so a panicking
        // operator cannot leave the workers running against a dead `f`.
        let caller_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if substrate::fault::point("pool.worker") {
                panic!("injected fault: pool.worker (participant 0)");
            }
            f(0)
        }));
        IN_REGION.with(|r| r.set(false));
        THREAD_ID.with(|t| t.set(usize::MAX));

        if self.shared.remaining.load(Ordering::Acquire) != 0 {
            let mut guard = self.shared.done_lock.lock();
            while self.shared.remaining.load(Ordering::Acquire) != 0 {
                self.shared.done_cv.wait(&mut guard);
            }
        }
        self.shared.slot.lock().job = None;

        // Every participant is done; rethrow the first captured panic.
        if let Err(payload) = caller_result {
            std::panic::resume_unwind(payload);
        }
        if let Some(payload) = self.shared.panic.lock().take() {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock();
            slot.shutdown = true;
            slot.epoch += 1;
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

/// Runs every share of a region sequentially on the calling thread with
/// region-correct `current_thread_id` values — the fallback for a caller
/// that lost the race for the pool's workers. Thread-locals are restored
/// even if a share panics (the panic propagates to the caller, mirroring
/// the parallel path's rethrow).
fn run_shares_serially(threads: usize, f: &(dyn Fn(usize) + Sync)) {
    struct Restore {
        prev_id: usize,
        prev_in: bool,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_REGION.with(|r| r.set(self.prev_in));
            THREAD_ID.with(|t| t.set(self.prev_id));
        }
    }
    let _restore = Restore {
        prev_id: THREAD_ID.with(|t| t.get()),
        prev_in: IN_REGION.with(|r| r.replace(true)),
    };
    for tid in 0..threads {
        THREAD_ID.with(|t| t.set(tid));
        f(tid);
    }
}

fn worker_loop(tid: usize, shared: Arc<Shared>) {
    let mut seen_epoch = 0u64;
    loop {
        let (job, participants) = {
            let mut slot = shared.slot.lock();
            while slot.epoch == seen_epoch && !slot.shutdown {
                shared.work_cv.wait(&mut slot);
            }
            if slot.shutdown {
                return;
            }
            seen_epoch = slot.epoch;
            match slot.job {
                Some(job) => (job, slot.participants),
                None => continue,
            }
        };
        if tid >= participants {
            continue;
        }
        THREAD_ID.with(|t| t.set(tid));
        IN_REGION.with(|r| r.set(true));
        // SAFETY: `region` keeps the closure alive until `remaining` drops
        // to zero, which happens strictly after this call returns.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if substrate::fault::point("pool.worker") {
                panic!("injected fault: pool.worker (participant {tid})");
            }
            unsafe { (*job.0)(tid) }
        }));
        IN_REGION.with(|r| r.set(false));
        THREAD_ID.with(|t| t.set(usize::MAX));
        if let Err(payload) = result {
            let mut slot = shared.panic.lock();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = shared.done_lock.lock();
            shared.done_cv.notify_one();
        }
    }
}

fn default_max_threads() -> usize {
    if let Ok(v) = std::env::var("GALOIS_MAX_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

static GLOBAL_POOL: OnceLock<ThreadPool> = OnceLock::new();
static ACTIVE_THREADS: AtomicUsize = AtomicUsize::new(0);

/// The process-global thread pool used by the free functions in this crate.
pub fn global_pool() -> &'static ThreadPool {
    GLOBAL_POOL.get_or_init(|| ThreadPool::new(default_max_threads()))
}

/// Sets the number of threads subsequent parallel constructs will use
/// (clamped to [`max_threads`]). Mirrors Galois' `setActiveThreads`.
pub fn set_threads(n: usize) {
    ACTIVE_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Number of threads parallel constructs currently use.
pub fn threads() -> usize {
    let n = ACTIVE_THREADS.load(Ordering::Relaxed);
    let max = global_pool().max_threads();
    if n == 0 {
        max
    } else {
        n.min(max)
    }
}

/// Upper bound on [`threads`]: the size of the global pool.
pub fn max_threads() -> usize {
    global_pool().max_threads()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn region_runs_each_participant_once() {
        let pool = ThreadPool::new(4);
        let hits = AtomicU64::new(0);
        pool.region(4, |tid| {
            assert!(tid < 4);
            hits.fetch_add(1 << (tid * 8), Ordering::Relaxed);
        });
        assert_eq!(hits.into_inner(), 0x01_01_01_01);
    }

    #[test]
    fn region_clamps_thread_count() {
        let pool = ThreadPool::new(2);
        let hits = AtomicU64::new(0);
        pool.region(100, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.into_inner(), 2);
    }

    #[test]
    fn nested_region_runs_serially() {
        let pool = ThreadPool::new(4);
        let hits = AtomicU64::new(0);
        pool.region(2, |_| {
            pool.region(4, |tid| {
                assert_eq!(tid, 0);
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.into_inner(), 2);
    }

    #[test]
    fn many_small_regions() {
        let pool = ThreadPool::new(3);
        let sum = AtomicU64::new(0);
        for _ in 0..1000 {
            pool.region(3, |_| {
                sum.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(sum.into_inner(), 3000);
    }

    #[test]
    fn single_thread_region_runs_on_caller() {
        let pool = ThreadPool::new(4);
        let caller = std::thread::current().id();
        let ran = AtomicU64::new(0);
        pool.region(1, |tid| {
            assert_eq!(tid, 0);
            assert_eq!(std::thread::current().id(), caller);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.into_inner(), 1);
    }

    #[test]
    fn thread_ids_are_distinct() {
        let pool = ThreadPool::new(4);
        let mask = AtomicU64::new(0);
        pool.region(4, |tid| {
            let prev = mask.fetch_or(1 << tid, Ordering::Relaxed);
            assert_eq!(prev & (1 << tid), 0, "duplicate tid {tid}");
        });
        assert_eq!(mask.into_inner(), 0b1111);
    }

    #[test]
    fn panicking_participant_propagates_without_wedging() {
        let pool = ThreadPool::new(3);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.region(3, |tid| {
                if tid == 1 {
                    panic!("operator failure");
                }
            });
        }));
        assert!(caught.is_err(), "panic must propagate to the caller");
        // The pool must still be usable afterwards.
        let ok = AtomicU64::new(0);
        pool.region(3, |_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.into_inner(), 3);
    }

    #[test]
    fn panicking_caller_share_still_joins_workers() {
        let pool = ThreadPool::new(4);
        let others = std::sync::Arc::new(AtomicU64::new(0));
        let o = std::sync::Arc::clone(&others);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.region(4, |tid| {
                if tid == 0 {
                    panic!("caller failure");
                }
                o.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(caught.is_err());
        assert_eq!(others.load(Ordering::Relaxed), 3, "workers completed");
    }

    #[test]
    fn double_panic_region_leaves_no_stale_payload() {
        // Caller AND worker panic in the same region: the caller's payload
        // wins the rethrow, and the worker's captured payload must not
        // leak into the next region.
        let pool = ThreadPool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.region(2, |_| panic!("everyone fails"));
        }));
        assert!(caught.is_err());
        let clean = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let ok = AtomicU64::new(0);
            pool.region(2, |_| {
                ok.fetch_add(1, Ordering::Relaxed);
            });
            ok.into_inner()
        }));
        assert_eq!(clean.expect("no stale panic rethrown"), 2);
    }

    // Injected `pool.worker` faults are exercised by the serialized
    // chaos suite (`tests/chaos.rs`): a fault plan is process-global, so
    // installing one here would race with the other tests in this binary
    // that share the global pool.

    #[test]
    fn concurrent_callers_share_the_pool_without_losing_work() {
        // Two threads drive regions on the same pool at once. Whichever
        // caller loses the busy race must still run *all* of its shares
        // (sequentially), so tid-partitioned work like `do_all_static`
        // cannot lose blocks.
        let pool = std::sync::Arc::new(ThreadPool::new(4));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let pool = std::sync::Arc::clone(&pool);
            joins.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let mask = AtomicU64::new(0);
                    pool.region(4, |tid| {
                        mask.fetch_or(1 << tid, Ordering::Relaxed);
                    });
                    assert_eq!(mask.into_inner(), 0b1111, "a share was skipped");
                }
            }));
        }
        for j in joins {
            j.join().expect("caller thread panicked");
        }
    }

    #[test]
    fn contended_caller_panic_releases_the_pool() {
        let pool = std::sync::Arc::new(ThreadPool::new(2));
        // Occupy the pool from a helper thread, then panic a region on
        // the main thread (which may take either path) and verify the
        // pool still works afterwards.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.region(2, |_| panic!("job failure"));
        }));
        assert!(caught.is_err());
        let ok = AtomicU64::new(0);
        pool.region(2, |_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.into_inner(), 2);
    }

    #[test]
    fn global_thread_setting_round_trips() {
        set_threads(2);
        assert_eq!(threads(), 2.min(max_threads()));
        set_threads(0);
        assert_eq!(threads(), 1);
    }
}
