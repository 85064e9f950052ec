//! Parallel reduction primitives.
//!
//! Galois programs accumulate global results (triangle counts, frontier
//! sizes, residual norms) through reducers with per-thread lanes; these are
//! the Rust equivalents. All reducers can be updated concurrently from
//! inside parallel constructs and read once the region is over.

use crate::pool::{current_thread_id, max_threads};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-thread cache-line-padded atomic lane.
#[repr(align(64))]
struct Lane(AtomicU64);

fn lanes() -> Vec<Lane> {
    (0..max_threads()).map(|_| Lane(AtomicU64::new(0))).collect()
}

/// Sum reducer over `u64` with per-thread lanes (no cross-thread contention).
///
/// # Example
///
/// ```
/// let sum = galois_rt::ReduceSum::new();
/// galois_rt::do_all(0..100, |i| sum.add(i as u64));
/// assert_eq!(sum.reduce(), (0..100u64).sum());
/// ```
pub struct ReduceSum {
    lanes: Vec<Lane>,
}

impl Default for ReduceSum {
    fn default() -> Self {
        Self::new()
    }
}

impl ReduceSum {
    /// Creates a reducer with a zero total.
    pub fn new() -> Self {
        ReduceSum { lanes: lanes() }
    }

    /// Adds `v` to the calling thread's lane.
    #[inline]
    pub fn add(&self, v: u64) {
        let tid = current_thread_id() % self.lanes.len();
        self.lanes[tid].0.fetch_add(v, Ordering::Relaxed);
    }

    /// Returns the sum of all lanes.
    pub fn reduce(&self) -> u64 {
        self.lanes.iter().map(|l| l.0.load(Ordering::Relaxed)).sum()
    }

    /// Resets all lanes to zero.
    pub fn reset(&self) {
        for lane in &self.lanes {
            lane.0.store(0, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for ReduceSum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReduceSum").field("value", &self.reduce()).finish()
    }
}

/// Logical-or reducer (a parallel "did anything change?" flag).
///
/// Round-based algorithms use this to detect convergence without a full
/// reduction pass.
pub struct ReduceLogicalOr {
    flag: AtomicU64,
}

impl Default for ReduceLogicalOr {
    fn default() -> Self {
        Self::new()
    }
}

impl ReduceLogicalOr {
    /// Creates a reducer whose value is `false`.
    pub fn new() -> Self {
        ReduceLogicalOr {
            flag: AtomicU64::new(0),
        }
    }

    /// Sets the flag (idempotent; skips the write when already set).
    #[inline]
    pub fn update(&self, v: bool) {
        if v && self.flag.load(Ordering::Relaxed) == 0 {
            self.flag.store(1, Ordering::Relaxed);
        }
    }

    /// Returns the accumulated value.
    pub fn reduce(&self) -> bool {
        self.flag.load(Ordering::Relaxed) != 0
    }

    /// Resets the flag to `false`.
    pub fn reset(&self) {
        self.flag.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for ReduceLogicalOr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReduceLogicalOr").field("value", &self.reduce()).finish()
    }
}

/// Atomically folds `v` into `cell` with `f64` addition.
///
/// Useful for pagerank-style accumulations where labels are floating point
/// but the target platform lacks atomic `f64`.
#[inline]
pub fn atomic_add_f64(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let new = f64::from_bits(cur) + v;
        match cell.compare_exchange_weak(cur, new.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// Atomically performs `min` on a `u64` distance cell, returning `true`
/// if `v` became the new value (the classic relaxation primitive).
#[inline]
pub fn atomic_min(cell: &AtomicU64, v: u64) -> bool {
    let mut cur = cell.load(Ordering::Relaxed);
    while v < cur {
        match cell.compare_exchange_weak(cur, v, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(actual) => cur = actual,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_reduces_over_parallel_adds() {
        let sum = ReduceSum::new();
        crate::do_all(0..10_000, |i| sum.add(i as u64));
        assert_eq!(sum.reduce(), (0..10_000u64).sum());
        sum.reset();
        assert_eq!(sum.reduce(), 0);
    }

    #[test]
    fn logical_or_latches() {
        let or = ReduceLogicalOr::new();
        assert!(!or.reduce());
        or.update(false);
        assert!(!or.reduce());
        or.update(true);
        or.update(false);
        assert!(or.reduce());
        or.reset();
        assert!(!or.reduce());
    }

    #[test]
    fn atomic_f64_add_accumulates() {
        let cell = AtomicU64::new(0f64.to_bits());
        crate::do_all(0..1000, |_| atomic_add_f64(&cell, 0.5));
        let total = f64::from_bits(cell.into_inner());
        assert!((total - 500.0).abs() < 1e-9);
    }

    #[test]
    fn atomic_min_reports_improvement() {
        let cell = AtomicU64::new(100);
        assert!(atomic_min(&cell, 50));
        assert!(!atomic_min(&cell, 70));
        assert!(!atomic_min(&cell, 50));
        assert_eq!(cell.into_inner(), 50);
    }
}
