//! Soft-priority data-driven loops (ordered-by-integer-metric).
//!
//! [`for_each_ordered`] approximates Galois' OBIM work-list: items carry an
//! integer priority, threads preferentially draw work from the lowest
//! non-empty priority bucket, and newly generated work is processed
//! immediately when it falls at-or-below the generating thread's current
//! priority. Priorities are *soft* — correctness must not depend on strict
//! ordering — which is exactly the contract asynchronous delta-stepping
//! SSSP needs (`sssp-ls` in the paper).

use crate::do_all::record_loop;
use crate::pool::{global_pool, threads};
use crate::substrate::CachePadded;
use perfmon::trace::{self, LoopKind};
use std::cell::UnsafeCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;
use substrate::sync::Mutex;

/// Items drawn from the global bucket map per lock acquisition.
const BATCH: usize = 128;

struct Buckets<T> {
    map: Mutex<BTreeMap<u64, Vec<T>>>,
}

impl<T> Buckets<T> {
    fn push(&self, prio: u64, item: T) {
        self.map.lock().entry(prio).or_default().push(item);
    }

    /// Moves up to [`BATCH`] items from the lowest non-empty bucket into
    /// `out`, returning that bucket's priority.
    fn grab_batch(&self, out: &mut VecDeque<T>) -> Option<u64> {
        let mut map = self.map.lock();
        while let Some((&prio, _)) = map.iter().next() {
            let bucket = map.get_mut(&prio).expect("bucket vanished under lock");
            if bucket.is_empty() {
                map.remove(&prio);
                continue;
            }
            let take = bucket.len().min(BATCH);
            out.extend(bucket.drain(bucket.len() - take..));
            if bucket.is_empty() {
                map.remove(&prio);
            }
            return Some(prio);
        }
        None
    }
}

/// Handle passed to a [`for_each_ordered`] operator for generating new work.
pub struct OrderedCtx<'a, T> {
    current_prio: u64,
    local: &'a UnsafeCell<VecDeque<T>>,
    buckets: &'a Buckets<T>,
    pending: &'a AtomicUsize,
}

impl<T> OrderedCtx<'_, T> {
    /// Adds `item` with priority `prio` to the work-list.
    ///
    /// Work at or below the caller's current priority is processed by the
    /// calling thread before it returns to the global buckets (this is the
    /// locality optimisation that makes OBIM effective for delta-stepping).
    #[inline]
    pub fn push(&self, item: T, prio: u64) {
        self.pending.fetch_add(1, Ordering::Relaxed);
        if prio <= self.current_prio {
            // SAFETY: `local` is owned by the current thread for the
            // duration of the operator call.
            unsafe { (*self.local.get()).push_back(item) };
        } else {
            self.buckets.push(prio, item);
        }
    }
}

impl<T> std::fmt::Debug for OrderedCtx<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedCtx")
            .field("current_prio", &self.current_prio)
            .finish_non_exhaustive()
    }
}

/// Applies `operator` to work items in (soft) ascending priority order.
///
/// `priority` maps an item to its scheduling bucket; lower values run
/// earlier. The ordering is best-effort: the algorithm must be correct for
/// any execution order (delta-stepping, for example, merely converges
/// faster under good ordering).
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// let done = AtomicUsize::new(0);
/// galois_rt::for_each_ordered(
///     (0..100u64).map(|i| (i, ())),
///     |&(p, _)| p / 10,
///     |(_, _), _ctx| {
///         done.fetch_add(1, Ordering::Relaxed);
///     },
/// );
/// assert_eq!(done.into_inner(), 100);
/// ```
pub fn for_each_ordered<T, I, P, F>(initial: I, priority: P, operator: F)
where
    T: Send,
    I: IntoIterator<Item = T>,
    P: Fn(&T) -> u64 + Sync,
    F: Fn(T, &OrderedCtx<'_, T>) + Sync,
{
    let traced = trace::enabled();
    let started = traced.then(Instant::now);
    let buckets = CachePadded(Buckets {
        map: Mutex::new(BTreeMap::new()),
    });
    let mut count = 0usize;
    {
        let mut map = buckets.map.lock();
        for item in initial {
            let p = priority(&item);
            map.entry(p).or_default().push(item);
            count += 1;
        }
    }
    if count == 0 {
        return;
    }
    let pending = CachePadded(AtomicUsize::new(count));
    let nthreads = threads();

    // Trace tallies, touched only when tracing is on: each thread keeps
    // local counts and folds them in once, after its drain loop exits.
    let iterations = AtomicU64::new(0);
    let rounds = AtomicU64::new(0);
    let bucket_visits = AtomicU64::new(0);

    global_pool().region(nthreads, |_tid| {
        let local: UnsafeCell<VecDeque<T>> = UnsafeCell::new(VecDeque::with_capacity(BATCH * 2));
        let mut current_prio = u64::MAX;
        let mut backoff = 0u32;
        let mut my_iterations = 0u64;
        let mut my_rounds = 0u64;
        let mut my_bucket_visits = 0u64;
        loop {
            // SAFETY: `local` never escapes this thread except via the
            // `OrderedCtx` reference used inside `operator`, which runs on
            // this thread.
            let item = unsafe { (*local.get()).pop_front() };
            match item {
                Some(item) => {
                    backoff = 0;
                    if traced {
                        my_iterations += 1;
                    }
                    let ctx = OrderedCtx {
                        current_prio,
                        local: &local,
                        buckets: &buckets,
                        pending: &pending,
                    };
                    operator(item, &ctx);
                    pending.fetch_sub(1, Ordering::AcqRel);
                }
                None => {
                    // Refill from the lowest global bucket.
                    match buckets.grab_batch(unsafe { &mut *local.get() }) {
                        Some(prio) => {
                            if traced {
                                my_bucket_visits += 1;
                                if prio != current_prio {
                                    my_rounds += 1;
                                }
                            }
                            current_prio = prio;
                            backoff = 0;
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
            }
        }
        if traced {
            iterations.fetch_add(my_iterations, Ordering::Relaxed);
            rounds.fetch_add(my_rounds, Ordering::Relaxed);
            bucket_visits.fetch_add(my_bucket_visits, Ordering::Relaxed);
        }
    });

    debug_assert_eq!(pending.load(Ordering::Relaxed), 0);
    if let Some(started) = started {
        record_loop(
            LoopKind::ForEachOrdered,
            iterations.into_inner(),
            0,
            rounds.into_inner(),
            bucket_visits.into_inner(),
            nthreads as u64,
            started,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn processes_all_items() {
        let sum = AtomicU64::new(0);
        for_each_ordered(0..1000u64, |&x| x % 7, |x, _| {
            sum.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), (0..1000u64).sum());
    }

    #[test]
    fn empty_input_is_noop() {
        for_each_ordered(std::iter::empty::<u64>(), |&x| x, |_, _| {
            panic!("no work expected")
        });
    }

    #[test]
    fn pushed_items_are_processed() {
        let count = AtomicU64::new(0);
        for_each_ordered([0u64], |&x| x, |x, ctx| {
            count.fetch_add(1, Ordering::Relaxed);
            if x < 100 {
                ctx.push(x + 1, x + 1);
            }
        });
        assert_eq!(count.into_inner(), 101);
    }

    #[test]
    fn lower_priority_pushes_are_not_lost() {
        // Push work with *decreasing* priority; everything must still run.
        let count = AtomicU64::new(0);
        for_each_ordered([100u64], |&x| x, |x, ctx| {
            count.fetch_add(1, Ordering::Relaxed);
            if x > 0 {
                ctx.push(x - 1, x - 1);
            }
        });
        assert_eq!(count.into_inner(), 101);
    }

    #[test]
    fn single_thread_ordering_is_ascending_across_buckets() {
        // With one thread and no pushes, items must come out bucket-by-bucket.
        let saved = crate::threads();
        crate::set_threads(1);
        let order = Mutex::new(Vec::new());
        for_each_ordered([30u64, 10, 20, 11], |&x| x / 10, |x, _| {
            order.lock().push(x / 10);
        });
        crate::set_threads(saved);
        let order = order.into_inner();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted, "bucket order must ascend on one thread");
    }

    #[test]
    fn simulated_sssp_on_a_chain_converges() {
        // chain 0->1->...->n-1, weight 1; distances must be exact.
        let n = 2000usize;
        let dist: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
        dist[0].store(0, Ordering::Relaxed);
        for_each_ordered([0usize], |_| 0, |v, ctx| {
            let d = dist[v].load(Ordering::Relaxed);
            if v + 1 < n {
                let nd = d + 1;
                let mut cur = dist[v + 1].load(Ordering::Relaxed);
                while nd < cur {
                    match dist[v + 1].compare_exchange_weak(
                        cur,
                        nd,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            ctx.push(v + 1, nd);
                            break;
                        }
                        Err(actual) => cur = actual,
                    }
                }
            }
        });
        for (i, d) in dist.iter().enumerate() {
            assert_eq!(d.load(Ordering::Relaxed), i as u64);
        }
    }
}
