//! Topology-driven parallel loops.
//!
//! `do_all` is the Galois construct used to iterate over all vertices or
//! edges of a graph in parallel (Algorithm 1 of the paper uses it for
//! initialisation and for processing the frontier). Two scheduling policies
//! are provided:
//!
//! * [`do_all`] — dynamic self-scheduling of fixed-size chunks via a shared
//!   atomic counter; this is what the Galois runtime effectively does and it
//!   load-balances irregular per-iteration cost.
//! * [`do_all_static`] — one contiguous block per thread, mimicking
//!   OpenMP's `schedule(static)` used by SuiteSparse.

use crate::pool::{global_pool, threads};
use crate::substrate::CachePadded;
use perfmon::trace::{self, Event, LoopKind, LoopSpan};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Records one aggregated [`LoopSpan`] for a loop that just completed.
///
/// Called from the launching thread after the closing barrier, so it adds
/// nothing to the per-iteration path.
pub(crate) fn record_loop(
    kind: LoopKind,
    iterations: u64,
    steals: u64,
    rounds: u64,
    bucket_visits: u64,
    threads: u64,
    started: Instant,
) {
    trace::record(Event::Loop(LoopSpan {
        seq: 0,
        kind,
        iterations,
        steals,
        rounds,
        bucket_visits,
        threads,
        elapsed_ns: started.elapsed().as_nanos() as u64,
    }));
}

/// Default number of iterations claimed per dynamic-scheduling grab.
pub const DEFAULT_CHUNK: usize = 64;

/// Runs `f(i)` for every `i` in `range`, in parallel, with dynamic
/// chunk self-scheduling.
///
/// Iterations may run in any order and on any thread; `f` must therefore be
/// safe to call concurrently for distinct `i`.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// let count = AtomicUsize::new(0);
/// galois_rt::do_all(0..1000, |_| {
///     count.fetch_add(1, Ordering::Relaxed);
/// });
/// assert_eq!(count.into_inner(), 1000);
/// ```
pub fn do_all<F>(range: Range<usize>, f: F)
where
    F: Fn(usize) + Sync,
{
    do_all_chunked(range, DEFAULT_CHUNK, f);
}

/// [`do_all`] with an explicit chunk size.
///
/// Small chunks balance load for irregular work at the cost of more atomic
/// traffic; large chunks approach static scheduling.
pub fn do_all_chunked<F>(range: Range<usize>, chunk: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let len = range.end.saturating_sub(range.start);
    if len == 0 {
        return;
    }
    // `Instant::now` only when tracing, to keep the disabled cost at one
    // relaxed load.
    let started = trace::enabled().then(Instant::now);
    let nthreads = threads();
    if nthreads == 1 || len <= chunk {
        for i in range {
            f(i);
        }
        if let Some(started) = started {
            record_loop(LoopKind::DoAll, len as u64, 0, 1, 0, 1, started);
        }
        return;
    }
    let chunk = chunk.max(1);
    let base = range.start;
    // Padded: every worker hammers the cursor, so it must not share a
    // line with the read-only `chunk` / `base` / `len` captures.
    let next = CachePadded(AtomicUsize::new(0));
    global_pool().region(nthreads, |_tid| loop {
        let start = next.fetch_add(chunk, Ordering::Relaxed);
        if start >= len {
            break;
        }
        let end = (start + chunk).min(len);
        for i in start..end {
            f(base + i);
        }
    });
    if let Some(started) = started {
        record_loop(
            LoopKind::DoAll,
            len as u64,
            0,
            1,
            0,
            nthreads as u64,
            started,
        );
    }
}

/// Runs `f(i)` for every `i` in `range` with one contiguous block per
/// thread (OpenMP `schedule(static)` semantics).
pub fn do_all_static<F>(range: Range<usize>, f: F)
where
    F: Fn(usize) + Sync,
{
    let len = range.end.saturating_sub(range.start);
    if len == 0 {
        return;
    }
    let started = trace::enabled().then(Instant::now);
    let nthreads = threads().min(len);
    if nthreads == 1 {
        for i in range {
            f(i);
        }
        if let Some(started) = started {
            record_loop(LoopKind::DoAllStatic, len as u64, 0, 1, 0, 1, started);
        }
        return;
    }
    let base = range.start;
    let per = len / nthreads;
    let extra = len % nthreads;
    global_pool().region(nthreads, |tid| {
        // The first `extra` threads process one extra iteration.
        let start = tid * per + tid.min(extra);
        let end = start + per + usize::from(tid < extra);
        for i in start..end {
            f(base + i);
        }
    });
    if let Some(started) = started {
        record_loop(
            LoopKind::DoAllStatic,
            len as u64,
            0,
            1,
            0,
            nthreads as u64,
            started,
        );
    }
}

/// Runs `f(i)` for every index in every range of `ranges`, in parallel,
/// processing each range as one unit of work.
///
/// The ranges are the schedule: callers partition their iteration space
/// into chunks of roughly equal *cost* (e.g. equal flops for SpGEMM rows)
/// and this executor distributes whole chunks round-robin across threads,
/// with deque stealing soaking up the residual imbalance. Iterations may
/// run in any order and on any thread; `f` must be safe to call
/// concurrently for distinct `i`.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// let count = AtomicUsize::new(0);
/// galois_rt::do_all_ranges(&[0..700, 700..990, 990..1000], |_| {
///     count.fetch_add(1, Ordering::Relaxed);
/// });
/// assert_eq!(count.into_inner(), 1000);
/// ```
pub fn do_all_ranges<F>(ranges: &[Range<usize>], f: F)
where
    F: Fn(usize) + Sync,
{
    let total: usize = ranges.iter().map(|r| r.end.saturating_sub(r.start)).sum();
    if total == 0 {
        return;
    }
    let started = trace::enabled().then(Instant::now);
    let nthreads = threads();
    if nthreads == 1 || ranges.len() == 1 {
        for r in ranges {
            for i in r.clone() {
                f(i);
            }
        }
        if let Some(started) = started {
            record_loop(LoopKind::DoAllBalanced, total as u64, 0, 1, 0, 1, started);
        }
        return;
    }

    use substrate::deque::{Steal, Stealer, Worker};
    let nthreads = nthreads.min(ranges.len());
    let workers: Vec<Worker<Range<usize>>> = (0..nthreads).map(|_| Worker::new_lifo()).collect();
    // Round-robin seeding: chunk k starts on thread k % nthreads, so with
    // no stealing the assignment is deterministic and cost-balanced (the
    // caller already equalized per-chunk cost).
    for (k, r) in ranges.iter().enumerate() {
        if !r.is_empty() {
            workers[k % nthreads].push(r.clone());
        }
    }
    let stealers: Vec<Stealer<Range<usize>>> = workers.iter().map(Worker::stealer).collect();
    let workers: Vec<substrate::sync::Mutex<Option<Worker<Range<usize>>>>> = workers
        .into_iter()
        .map(|w| substrate::sync::Mutex::new(Some(w)))
        .collect();
    let steals = AtomicUsize::new(0);

    global_pool().region(nthreads, |tid| {
        let local = workers[tid]
            .lock()
            .take()
            .expect("worker deque already claimed");
        let mut my_steals = 0usize;
        'drain: loop {
            let r = match local.pop() {
                Some(r) => r,
                None => {
                    // Own deque dry: sweep the other threads' deques once
                    // per attempt, retrying while any stealer says Retry.
                    let mut found = None;
                    loop {
                        let mut retry = false;
                        for (vid, s) in stealers.iter().enumerate() {
                            if vid == tid {
                                continue;
                            }
                            match s.steal() {
                                Steal::Success(r) => {
                                    my_steals += 1;
                                    found = Some(r);
                                    break;
                                }
                                Steal::Retry => retry = true,
                                Steal::Empty => {}
                            }
                        }
                        if found.is_some() || !retry {
                            break;
                        }
                    }
                    match found {
                        Some(r) => r,
                        None => break 'drain,
                    }
                }
            };
            for i in r {
                f(i);
            }
        }
        if my_steals > 0 {
            steals.fetch_add(my_steals, Ordering::Relaxed);
        }
    });
    if let Some(started) = started {
        record_loop(
            LoopKind::DoAllBalanced,
            total as u64,
            steals.into_inner() as u64,
            1,
            0,
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
    fn do_all_covers_every_index_once() {
        let n = 4096;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        do_all(0..n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn do_all_empty_range_is_noop() {
        do_all(10..10, |_| panic!("must not run"));
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = 10..5;
        do_all(reversed, |_| panic!("must not run"));
    }

    #[test]
    fn do_all_respects_offset_range() {
        let sum = AtomicU64::new(0);
        do_all(100..200, |i| {
            assert!((100..200).contains(&i));
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), (100..200u64).sum());
    }

    #[test]
    fn do_all_static_covers_every_index_once() {
        let n = 1000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        do_all_static(0..n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn do_all_static_with_fewer_items_than_threads() {
        let hits: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        do_all_static(0..3, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn do_all_chunked_tiny_chunk() {
        let n = 513;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        do_all_chunked(0..n, 1, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // chunk lists really are lists of ranges
    fn do_all_ranges_covers_every_index_once() {
        let n = 4096;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        // Deliberately skewed chunks: one huge, many tiny.
        let mut ranges = vec![0..3000];
        ranges.extend((3000..n).map(|i| i..i + 1));
        do_all_ranges(&ranges, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn do_all_ranges_empty_is_noop() {
        do_all_ranges(&[], |_| panic!("must not run"));
        do_all_ranges(&[5..5, 9..9], |_| panic!("must not run"));
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // a one-chunk list, not a range
    fn do_all_ranges_single_chunk_runs_serially_in_order() {
        let seen = std::sync::Mutex::new(Vec::new());
        do_all_ranges(&[10..20], |i| seen.lock().unwrap().push(i));
        assert_eq!(*seen.lock().unwrap(), (10..20).collect::<Vec<_>>());
    }

    #[test]
    fn do_all_ranges_covers_uneven_ranges_once_at_one_and_two_threads() {
        let saved = crate::threads();
        for nthreads in [1, 2] {
            crate::set_threads(nthreads);
            let n = 2048;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let mut ranges: Vec<Range<usize>> =
                (0..n).step_by(100).map(|s| s..(s + 100).min(n)).collect();
            ranges.push(7..7); // empty chunks are dropped, not executed
            do_all_ranges(&ranges, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{nthreads} threads"
            );
        }
        crate::set_threads(saved);
    }
}
