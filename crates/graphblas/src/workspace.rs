//! Recycled kernel workspaces and flop-balanced scheduling.
//!
//! The paper's differential analysis charges much of the matrix API's
//! overhead to per-call **materialization**: every GraphBLAS call in a
//! round-based algorithm re-allocates and re-zeroes its accumulators,
//! scratch lanes and hash tables, then throws them away at the end of the
//! call. Real systems amortize that churn — GraphMat keeps preallocated
//! per-thread SpMV state across iterations, GraphBLAST recycles masked
//! SpGEMM workspaces — so this module adds the same layer under our two
//! runtimes:
//!
//! * a process-wide **buffer pool** ([`Workspace`], handed out by
//!   [`Runtime::workspace`](crate::runtime::Runtime::workspace)): kernels
//!   check typed buffers out at op entry and return them at op exit, so a
//!   warm round allocates near-zero fresh bytes;
//! * **flop-balanced scheduling** (`run_balanced`): row loops whose
//!   per-row cost is skewed (SpGEMM over rmat-like degree distributions,
//!   masked pull SpMV) are partitioned into equal-*flops* ranges instead
//!   of equal-*row* ranges and executed on `galois_rt::do_all_ranges`,
//!   which reuses the `substrate::deque` work-stealing layer for the
//!   residual imbalance.
//!
//! Both are always on; no mode switches back to per-call allocation.
//! What a kernel does not check out of the pool — the push-dense SpMV
//! accumulator, the sparse-scatter and pull pair lanes — it allocates per
//! call.
//!
//! Retained (idle) pool bytes are charged against the
//! `STUDY_MEM_BUDGET` accounting from the resilience layer: a buffer
//! whose retention would exceed the budget is dropped instead of pooled
//! (the pool never errors — degraded reuse, not failure). Per-op reuse
//! is reported on the op trace span (`ws_reused_bytes`,
//! `ws_fresh_bytes`, `flops`, `chunks`).

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Cumulative counters: op spans record start/finish deltas of these.

static WS_REUSED: AtomicU64 = AtomicU64::new(0);
static WS_FRESH: AtomicU64 = AtomicU64::new(0);
static WS_FLOPS: AtomicU64 = AtomicU64::new(0);
static WS_CHUNKS: AtomicU64 = AtomicU64::new(0);
static TRANSPOSE_BYTES: AtomicU64 = AtomicU64::new(0);

/// A point-in-time copy of the cumulative workspace counters; two
/// snapshots bracket one op and their difference is what that op's trace
/// span reports.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WsSnapshot {
    pub reused: u64,
    pub fresh: u64,
    pub flops: u64,
    pub chunks: u64,
}

/// Reads the cumulative counters.
pub(crate) fn snapshot() -> WsSnapshot {
    WsSnapshot {
        reused: WS_REUSED.load(Ordering::Relaxed),
        fresh: WS_FRESH.load(Ordering::Relaxed),
        flops: WS_FLOPS.load(Ordering::Relaxed),
        chunks: WS_CHUNKS.load(Ordering::Relaxed),
    }
}

/// Credits `bytes` of satisfied-from-pool workspace demand.
pub(crate) fn note_reused(bytes: usize) {
    WS_REUSED.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Credits `bytes` of freshly allocated workspace demand.
pub(crate) fn note_fresh(bytes: usize) {
    WS_FRESH.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Records the useful work and chunk count of one balanced loop.
pub(crate) fn note_work(flops: u64, chunks: u64) {
    WS_FLOPS.fetch_add(flops, Ordering::Relaxed);
    WS_CHUNKS.fetch_add(chunks, Ordering::Relaxed);
}

/// Records a `Matrix::transpose()` cache build of `bytes` bytes.
///
/// Called once from inside the `OnceLock` initializer, so the bytes land
/// on the op that triggered the build and are *not* re-reported on every
/// cache reuse. They count as fresh workspace bytes and as retained
/// bytes against the `STUDY_MEM_BUDGET` pool accounting (the cached
/// transpose is workspace the op keeps alive).
pub(crate) fn note_transpose_build(bytes: usize) {
    TRANSPOSE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    note_fresh(bytes);
}

/// Total bytes of cached-transpose builds recorded so far (test hook).
pub fn transpose_bytes_built() -> u64 {
    TRANSPOSE_BYTES.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// The buffer pool.

/// Shelf identifiers: one per purpose (entry lists, SpGEMM result rows,
/// balancing tallies and chunk lists), so a kernel always gets back a
/// buffer shaped like the one it returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Shelf {
    /// `(u32, T)` entry lists (SpMV compaction results, `u.entries()`).
    Entries,
    /// Per-row SpGEMM result rows (`Vec<Vec<(u32, T)>>`).
    Rows,
    /// `u64` per-index flop tallies for balanced partitioning.
    Flops,
    /// Chunk boundary lists for balanced partitioning.
    Ranges,
}

struct PoolEntry {
    buf: Box<dyn Any + Send>,
    bytes: usize,
}

/// Entries retained per `(shelf, type)` key; more than this and the
/// oldest is dropped. Kernels check out at most one buffer per key at a
/// time, so a small depth covers nested ops with headroom.
const SHELF_DEPTH: usize = 4;

/// The process-wide recyclable buffer pool.
///
/// Obtained through [`Runtime::workspace`](crate::runtime::Runtime::workspace)
/// (or [`global`]); all methods are internal to the op layer. Buffers
/// are keyed by `(shelf, concrete type)`, retention is bounded by
/// [`Workspace::retained_bytes`] against the `STUDY_MEM_BUDGET`, and a
/// checkout is credited to the per-op `ws_reused_bytes` /
/// `ws_fresh_bytes` trace counters.
pub struct Workspace {
    shelves: Mutex<HashMap<(Shelf, TypeId), Vec<PoolEntry>>>,
    retained: AtomicU64,
}

/// The process-wide pool instance.
pub fn global() -> &'static Workspace {
    static POOL: OnceLock<Workspace> = OnceLock::new();
    POOL.get_or_init(Workspace::new)
}

impl Workspace {
    fn new() -> Self {
        Workspace {
            shelves: Mutex::new(HashMap::new()),
            retained: AtomicU64::new(0),
        }
    }

    /// Checks a buffer out of the pool, crediting its recorded byte size
    /// to the reuse counter. Returns `None` (and credits nothing) when
    /// the shelf is empty — the caller allocates fresh and reports the
    /// size via [`note_fresh`].
    pub(crate) fn take<K: Any + Send>(&self, shelf: Shelf) -> Option<K> {
        let mut shelves = self.shelves.lock().unwrap_or_else(|e| e.into_inner());
        let entry = shelves.get_mut(&(shelf, TypeId::of::<K>()))?.pop()?;
        self.retained.fetch_sub(entry.bytes as u64, Ordering::Relaxed);
        note_reused(entry.bytes);
        Some(*entry.buf.downcast::<K>().expect("shelf key matches type"))
    }

    /// Returns a buffer of `bytes` retained size to the pool. When the
    /// retention would exceed the `STUDY_MEM_BUDGET` (or the shelf is
    /// full) the buffer is dropped instead — the pool degrades, it never
    /// errors.
    pub(crate) fn give<K: Any + Send>(&self, shelf: Shelf, buf: K, bytes: usize) {
        self.give_within(shelf, buf, bytes, crate::ops::mem_budget());
    }

    /// [`Workspace::give`] against an explicit retention budget.
    fn give_within<K: Any + Send>(&self, shelf: Shelf, buf: K, bytes: usize, budget: Option<u64>) {
        if let Some(budget) = budget {
            let retained = self.retained.load(Ordering::Relaxed);
            if retained.saturating_add(bytes as u64) > budget {
                return;
            }
        }
        let mut shelves = self.shelves.lock().unwrap_or_else(|e| e.into_inner());
        let entries = shelves.entry((shelf, TypeId::of::<K>())).or_default();
        if entries.len() >= SHELF_DEPTH {
            return;
        }
        self.retained.fetch_add(bytes as u64, Ordering::Relaxed);
        entries.push(PoolEntry {
            buf: Box::new(buf),
            bytes,
        });
    }

    /// Bytes currently held by idle pooled buffers.
    pub fn retained_bytes(&self) -> u64 {
        self.retained.load(Ordering::Relaxed)
    }

    /// Drops every pooled buffer (test hook).
    pub fn clear(&self) {
        let mut shelves = self.shelves.lock().unwrap_or_else(|e| e.into_inner());
        shelves.clear();
        self.retained.store(0, Ordering::Relaxed);
    }

    /// Checks a `Vec<E>` out of the pool or allocates one, returning it
    /// emptied with at least `cap` capacity and crediting the
    /// reused/fresh counters accordingly.
    pub(crate) fn take_vec<E: Any + Send>(&self, shelf: Shelf, cap: usize) -> Vec<E> {
        match self.take::<Vec<E>>(shelf) {
            Some(mut v) => {
                v.clear();
                if v.capacity() < cap {
                    let grow = cap - v.capacity();
                    note_fresh(grow * std::mem::size_of::<E>());
                    v.reserve(cap - v.len());
                }
                v
            }
            None => {
                note_fresh(cap * std::mem::size_of::<E>());
                Vec::with_capacity(cap)
            }
        }
    }

    /// Returns a `Vec<E>` to the pool, retaining its capacity.
    pub(crate) fn give_vec<E: Any + Send>(&self, shelf: Shelf, mut v: Vec<E>) {
        v.clear();
        let bytes = v.capacity() * std::mem::size_of::<E>();
        self.give(shelf, v, bytes);
    }

    /// Checks a per-row result buffer (`Vec<Vec<E>>`) out of the pool,
    /// sized to exactly `n` empty rows. Pooled inner rows keep their
    /// capacities, which is where SpGEMM's per-row churn lives.
    pub(crate) fn take_rows<E: Any + Send>(&self, n: usize) -> Vec<Vec<E>> {
        let mut rows = self.take::<Vec<Vec<E>>>(Shelf::Rows).unwrap_or_default();
        rows.truncate(n);
        if rows.len() < n {
            note_fresh((n - rows.len()) * std::mem::size_of::<Vec<E>>());
            rows.resize_with(n, Vec::new);
        }
        rows
    }

    /// Returns a rows buffer to the pool, clearing each row but keeping
    /// every capacity (outer and inner) for the next call of similar
    /// shape.
    pub(crate) fn give_rows<E: Any + Send>(&self, mut rows: Vec<Vec<E>>) {
        let mut bytes = rows.capacity() * std::mem::size_of::<Vec<E>>();
        for row in &mut rows {
            row.clear();
            bytes += row.capacity() * std::mem::size_of::<E>();
        }
        self.give(Shelf::Rows, rows, bytes);
    }
}

// ---------------------------------------------------------------------------
// Flop-balanced partitioning.

/// Number of chunks per active thread: enough slack for stealing to
/// absorb residual imbalance without fragmenting the loop.
const CHUNKS_PER_THREAD: usize = 4;

/// Splits `0..flops.len()` into contiguous ranges of approximately equal
/// summed flops (never more than `parts` ranges, never an empty range).
pub(crate) fn balanced_ranges(flops: &[u64], parts: usize) -> Vec<Range<usize>> {
    let n = flops.len();
    let total: u64 = flops.iter().sum();
    let parts = parts.clamp(1, n.max(1));
    if n == 0 {
        return Vec::new();
    }
    let target = total / parts as u64 + 1;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &w) in flops.iter().enumerate() {
        acc += w;
        if acc >= target && ranges.len() + 1 < parts {
            ranges.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < n {
        ranges.push(start..n);
    }
    ranges
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
    let ws = global();
    let mut flops: Vec<u64> = ws.take_vec(Shelf::Flops, n);
    flops.extend((0..n).map(&flops_of));
    let parts = galois_rt::threads() * CHUNKS_PER_THREAD;
    let mut ranges: Vec<Range<usize>> = ws.take_vec(Shelf::Ranges, parts.min(n));
    ranges.extend(balanced_ranges(&flops, parts));
    let total: u64 = flops.iter().sum();
    note_work(total, ranges.len() as u64);
    galois_rt::do_all_ranges(&ranges, f);
    ws.give_vec(Shelf::Ranges, ranges);
    ws.give_vec(Shelf::Flops, flops);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_roundtrips_typed_buffers_and_counts_bytes() {
        // A private pool: other tests in this binary share `global()`.
        let ws = Workspace::new();
        let v: Vec<u64> = ws.take_vec(Shelf::Flops, 32);
        assert!(v.capacity() >= 32 && v.is_empty());
        let before = snapshot();
        ws.give_vec(Shelf::Flops, v);
        let back: Vec<u64> = ws.take_vec(Shelf::Flops, 16);
        assert!(back.capacity() >= 32, "pooled capacity is retained");
        let after = snapshot();
        assert!(
            after.reused - before.reused >= 32 * 8,
            "checkout credits reused bytes"
        );
        ws.give_vec(Shelf::Flops, back);
    }

    #[test]
    fn pool_separates_shelves_of_the_same_type() {
        let ws = Workspace::new();
        ws.give_vec::<u64>(Shelf::Flops, Vec::with_capacity(8));
        assert!(
            ws.take::<Vec<u64>>(Shelf::Entries).is_none(),
            "an Entries request must not see the Flops shelf"
        );
        assert!(ws.take::<Vec<u64>>(Shelf::Flops).is_some());
    }

    #[test]
    fn give_respects_the_memory_budget() {
        // An explicit budget, not `set_mem_budget`: a process-wide budget
        // of 64 bytes would also bind the tests running beside this one.
        let ws = Workspace::new();
        ws.give_within(Shelf::Flops, Vec::<u64>::with_capacity(1024), 8192, Some(64));
        assert_eq!(ws.retained_bytes(), 0, "over-budget buffers are dropped");
        ws.give_within(Shelf::Flops, Vec::<u64>::with_capacity(4), 32, Some(64));
        assert_eq!(ws.retained_bytes(), 32, "fitting buffers are pooled");
    }

    #[test]
    fn balanced_ranges_cover_exactly_once_and_balance_skew() {
        // One heavy head plus a light tail — row-count chunking would
        // put the whole head in one chunk with most of the work.
        let mut flops = vec![1u64; 64];
        flops[0] = 1000;
        let ranges = balanced_ranges(&flops, 4);
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
        assert!(balanced_ranges(&[], 4).is_empty());
        assert_eq!(balanced_ranges(&[0, 0, 0], 4), vec![0..3]);
        let one = balanced_ranges(&[5], 8);
        assert_eq!(one, vec![0..1]);
    }

    #[test]
    fn run_balanced_visits_every_index_once() {
        use std::sync::atomic::AtomicUsize;
        let n = 2048;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        run_balanced(n, |i| (i % 17) as u64, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
