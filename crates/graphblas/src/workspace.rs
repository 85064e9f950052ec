//! Per-op workspace counters and flop-balanced scheduling.
//!
//! Kernels allocate their scratch — entry lists, SpGEMM result rows,
//! accumulators, pair lanes — on each call and drop it at the end, as
//! SuiteSparse does; nothing is retained between calls. What this
//! module keeps is:
//!
//! * **op counters**: per-thread cumulative totals that each op's trace
//!   span brackets to report `ws_reused_bytes` / `ws_fresh_bytes` (a
//!   replace-mode write that recycles `w`'s own dense store, against
//!   one that allocates a new one) and
//!   `flops` / `chunks`. All are written on the op's calling thread, so
//!   ops on other threads never move them;
//! * **flop-balanced scheduling** (`run_balanced`): row loops whose
//!   per-row cost is skewed (SpGEMM over rmat-like degree distributions,
//!   pull SpMV) are partitioned into equal-*flops* ranges instead
//!   of equal-*row* ranges and executed on `galois_rt::do_all_ranges`,
//!   which reuses the `substrate::deque` work-stealing layer for the
//!   residual imbalance.

use std::cell::Cell;
use std::ops::Range;

// ---------------------------------------------------------------------------
// Cumulative counters of the calling thread: op spans record start/finish
// deltas of these.

thread_local! {
    static WS_REUSED: Cell<u64> = const { Cell::new(0) };
    static WS_FRESH: Cell<u64> = const { Cell::new(0) };
    static WS_FLOPS: Cell<u64> = const { Cell::new(0) };
    static WS_CHUNKS: Cell<u64> = const { Cell::new(0) };
}

/// A point-in-time copy of the calling thread's cumulative workspace
/// counters; two snapshots bracket one op and their difference is what
/// that op's trace span reports.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WsSnapshot {
    pub reused: u64,
    pub fresh: u64,
    pub flops: u64,
    pub chunks: u64,
}

/// Reads the calling thread's cumulative counters.
pub(crate) fn snapshot() -> WsSnapshot {
    WsSnapshot {
        reused: WS_REUSED.with(Cell::get),
        fresh: WS_FRESH.with(Cell::get),
        flops: WS_FLOPS.with(Cell::get),
        chunks: WS_CHUNKS.with(Cell::get),
    }
}

/// Credits `bytes` of workspace demand met by recycling `w`'s own store.
pub(crate) fn note_reused(bytes: usize) {
    WS_REUSED.with(|c| c.set(c.get() + bytes as u64));
}

/// Credits `bytes` of freshly allocated workspace demand.
pub(crate) fn note_fresh(bytes: usize) {
    WS_FRESH.with(|c| c.set(c.get() + bytes as u64));
}

/// Records the useful work and chunk count of one balanced loop.
pub(crate) fn note_work(flops: u64, chunks: u64) {
    WS_FLOPS.with(|c| c.set(c.get() + flops));
    WS_CHUNKS.with(|c| c.set(c.get() + chunks));
}

// ---------------------------------------------------------------------------
// Flop-balanced partitioning.

/// Number of chunks per active thread: enough slack for stealing to
/// absorb residual imbalance without fragmenting the loop.
const CHUNKS_PER_THREAD: usize = 4;

/// Splits `0..n` into contiguous ranges of approximately equal summed
/// `flops_of` (never more than `parts` ranges, never an empty range).
/// One pass sums the flops and a second cuts the ranges, so no per-index
/// tally is stored. Returns the ranges and the flop total.
pub(crate) fn balanced_ranges(
    n: usize,
    flops_of: impl Fn(usize) -> u64,
    parts: usize,
) -> (Vec<Range<usize>>, u64) {
    if n == 0 {
        return (Vec::new(), 0);
    }
    let total: u64 = (0..n).map(&flops_of).sum();
    let parts = parts.clamp(1, n);
    let target = total / parts as u64 + 1;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut acc = 0u64;
    for i in 0..n {
        acc += flops_of(i);
        if acc >= target && ranges.len() + 1 < parts {
            ranges.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < n {
        ranges.push(start..n);
    }
    (ranges, total)
}

/// Runs `f(i)` for every `i` in `0..n`, partitioned into equal-flops
/// chunks (`flops_of(i)` is the per-index work estimate, evaluated
/// instrumentation-free) and executed with work stealing. Records the
/// loop's total flops and chunk count on the current op's counters.
///
/// Callers guarantee the same one-writer-per-index discipline as
/// `Runtime::parallel_for`, so results are bit-identical to the
/// row-partitioned loop regardless of chunk boundaries or thread count.
pub(crate) fn run_balanced<F>(n: usize, flops_of: impl Fn(usize) -> u64, f: F)
where
    F: Fn(usize) + Sync,
{
    if n == 0 {
        return;
    }
    let parts = galois_rt::threads() * CHUNKS_PER_THREAD;
    let (ranges, total) = balanced_ranges(n, flops_of, parts);
    note_work(total, ranges.len() as u64);
    galois_rt::do_all_ranges(&ranges, f);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_ranges_cover_exactly_once_and_balance_skew() {
        // One heavy head plus a light tail — row-count chunking would
        // put the whole head in one chunk with most of the work.
        let mut flops = vec![1u64; 64];
        flops[0] = 1000;
        let (ranges, total) = balanced_ranges(flops.len(), |i| flops[i], 4);
        assert_eq!(total, 1063);
        assert!(ranges.len() <= 4 && !ranges.is_empty());
        let mut seen = [false; 64];
        for r in &ranges {
            for i in r.clone() {
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "ranges cover every index");
        assert_eq!(ranges[0], 0..1, "the heavy row gets its own chunk");
    }

    #[test]
    fn balanced_ranges_degenerate_inputs() {
        assert_eq!(balanced_ranges(0, |_| 1, 4), (vec![], 0));
        let (zero, total) = balanced_ranges(3, |_| 0, 4);
        assert_eq!(zero, vec![0..3]);
        assert_eq!(total, 0);
        let (one, total) = balanced_ranges(1, |_| 5, 8);
        assert_eq!(one, vec![0..1]);
        assert_eq!(total, 5);
    }

    #[test]
    fn run_balanced_visits_every_index_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 2048;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        run_balanced(n, |i| (i % 17) as u64, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
