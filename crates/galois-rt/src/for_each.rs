//! Asynchronous data-driven loops over an unordered work-list.
//!
//! [`for_each`] is Galois' unordered data-driven loop: there is a single
//! work-list, no rounds and no barriers, and operator applications see
//! each other's updates immediately (Gauss-Seidel iteration) — the
//! execution model Section II-D of the paper says a matrix-based API
//! cannot express. No study algorithm calls it: `cc-ls-sv`
//! (`lonestar::cc::shiloach_vishkin`) runs rounds of `do_all`, and
//! `sssp-ls` runs on the ordered [`crate::for_each_ordered`]. The repo
//! benchmark's `galois-rt.for_each_mitems_per_s` probe and this crate's
//! tests are its callers.

use crate::do_all::record_loop;
use crate::pool::{global_pool, threads};
use crate::substrate::CachePadded;
use perfmon::trace::{self, LoopKind};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;
use substrate::deque::{Injector, Steal, Stealer, Worker};

/// Handle passed to a [`for_each`] operator for generating new work.
///
/// Pushed items become visible to all threads; they may be processed
/// immediately by the pushing thread (LIFO local order) or stolen.
pub struct Ctx<'a, T> {
    local: &'a Worker<T>,
    pending: &'a AtomicUsize,
}

impl<T> Ctx<'_, T> {
    /// Adds `item` to the work-list.
    #[inline]
    pub fn push(&self, item: T) {
        self.pending.fetch_add(1, Ordering::Relaxed);
        self.local.push(item);
    }
}

impl<T> std::fmt::Debug for Ctx<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx").finish_non_exhaustive()
    }
}

/// Applies `operator` to every item of `initial` and to every item pushed
/// through the operator's [`Ctx`], with work-stealing and no round barriers.
///
/// Termination: returns when every pushed item has been processed (a
/// distributed count of outstanding items reaches zero).
///
/// # Example
///
/// Label propagation to all reachable vertices:
///
/// ```
/// use std::sync::atomic::{AtomicBool, Ordering};
/// // a tiny path graph 0 - 1 - 2 - 3
/// let adj = vec![vec![1], vec![0, 2], vec![1, 3], vec![2]];
/// let visited: Vec<AtomicBool> = (0..4).map(|_| AtomicBool::new(false)).collect();
/// visited[0].store(true, Ordering::Relaxed);
/// galois_rt::for_each([0usize], |node, ctx| {
///     for &next in &adj[node] {
///         if !visited[next].swap(true, Ordering::Relaxed) {
///             ctx.push(next);
///         }
///     }
/// });
/// assert!(visited.iter().all(|v| v.load(Ordering::Relaxed)));
/// ```
pub fn for_each<T, I, F>(initial: I, operator: F)
where
    T: Send,
    I: IntoIterator<Item = T>,
    F: Fn(T, &Ctx<'_, T>) + Sync,
{
    let traced = trace::enabled();
    let started = traced.then(Instant::now);
    let injector = Injector::new();
    let mut count = 0usize;
    for item in initial {
        injector.push(item);
        count += 1;
    }
    if count == 0 {
        return;
    }
    let pending = CachePadded(AtomicUsize::new(count));
    let nthreads = threads();

    // Trace tallies, touched only when tracing is on: each thread keeps
    // local counts and folds them in once, after its drain loop exits.
    let iterations = AtomicU64::new(0);
    let steals = AtomicU64::new(0);
    let rounds = AtomicU64::new(0);

    let workers: Vec<Worker<T>> = (0..nthreads).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<Stealer<T>> = workers.iter().map(|w| w.stealer()).collect();
    let workers: Vec<substrate::sync::Mutex<Option<Worker<T>>>> = workers
        .into_iter()
        .map(|w| substrate::sync::Mutex::new(Some(w)))
        .collect();

    global_pool().region(nthreads, |tid| {
        let local = workers[tid]
            .lock()
            .take()
            .expect("worker deque already claimed");
        let ctx = Ctx {
            local: &local,
            pending: &pending,
        };
        let mut backoff = 0u32;
        let mut my_iterations = 0u64;
        let mut my_steals = 0u64;
        let mut my_rounds = 0u64;
        loop {
            let item = local
                .pop()
                .or_else(|| loop {
                    match injector.steal_batch_and_pop(&local) {
                        Steal::Success(t) => {
                            if traced {
                                my_rounds += 1;
                            }
                            break Some(t);
                        }
                        Steal::Empty => break None,
                        Steal::Retry => continue,
                    }
                })
                .or_else(|| {
                    for (i, stealer) in stealers.iter().enumerate() {
                        if i == tid {
                            continue;
                        }
                        loop {
                            match stealer.steal_batch_and_pop(&local) {
                                Steal::Success(t) => {
                                    if traced {
                                        my_steals += 1;
                                    }
                                    return Some(t);
                                }
                                Steal::Empty => break,
                                Steal::Retry => continue,
                            }
                        }
                    }
                    None
                });
            match item {
                Some(item) => {
                    backoff = 0;
                    if traced {
                        my_iterations += 1;
                    }
                    operator(item, &ctx);
                    pending.fetch_sub(1, Ordering::AcqRel);
                }
                None => {
                    if pending.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    backoff = (backoff + 1).min(10);
                    if backoff > 4 {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }
        }
        if traced {
            iterations.fetch_add(my_iterations, Ordering::Relaxed);
            steals.fetch_add(my_steals, Ordering::Relaxed);
            rounds.fetch_add(my_rounds, Ordering::Relaxed);
        }
    });

    debug_assert_eq!(pending.load(Ordering::Relaxed), 0);
    if let Some(started) = started {
        record_loop(
            LoopKind::ForEach,
            iterations.into_inner(),
            steals.into_inner(),
            rounds.into_inner(),
            0,
            nthreads as u64,
            started,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize};

    #[test]
    fn processes_all_initial_items() {
        let sum = AtomicU64::new(0);
        for_each(0..1000u64, |x, _ctx| {
            sum.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), (0..1000u64).sum());
    }

    #[test]
    fn empty_initial_returns_immediately() {
        for_each(std::iter::empty::<u32>(), |_, _| panic!("no work expected"));
    }

    #[test]
    fn pushed_work_is_processed() {
        // Each item 0..100 spawns two children until depth 3: 100 * (1+2+4+8)
        let count = AtomicUsize::new(0);
        for_each((0..100u32).map(|_| 0u32), |depth, ctx| {
            count.fetch_add(1, Ordering::Relaxed);
            if depth < 3 {
                ctx.push(depth + 1);
                ctx.push(depth + 1);
            }
        });
        assert_eq!(count.into_inner(), 100 * 15);
    }

    #[test]
    fn reaches_fixpoint_on_graph_traversal() {
        // Ring of n vertices, mark all reachable from 0.
        let n = 5000;
        let visited: Vec<std::sync::atomic::AtomicBool> =
            (0..n).map(|_| std::sync::atomic::AtomicBool::new(false)).collect();
        visited[0].store(true, Ordering::Relaxed);
        for_each([0usize], |v, ctx| {
            let next = (v + 1) % n;
            if !visited[next].swap(true, Ordering::Relaxed) {
                ctx.push(next);
            }
        });
        assert!(visited.iter().all(|v| v.load(Ordering::Relaxed)));
    }

    #[test]
    fn single_threaded_execution_works() {
        let saved = crate::threads();
        crate::set_threads(1);
        let count = AtomicUsize::new(0);
        for_each(0..10u32, |x, ctx| {
            count.fetch_add(1, Ordering::Relaxed);
            if x < 5 {
                ctx.push(x + 100);
            }
        });
        crate::set_threads(saved);
        assert_eq!(count.into_inner(), 15);
    }
}
