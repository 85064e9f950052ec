//! Execution backends for the GraphBLAS kernels.
//!
//! The paper compares two implementations of the same API: SuiteSparse
//! (OpenMP; one statically-partitioned parallel kernel per API call) and
//! GaloisBLAS (the same kernels on the Galois runtime with dynamic chunked
//! self-scheduling and work stealing). [`StaticRuntime`] and
//! [`GaloisRuntime`] reproduce that axis: every kernel in this crate is
//! generic over [`Runtime`], so `lagraph` algorithms instantiate once per
//! backend — exactly the SS / GB pair of Table II.

/// An execution backend: how a kernel's row/entry loop is parallelized.
pub trait Runtime: Copy + Send + Sync + Default + 'static {
    /// Short name used in reports ("SS" or "GB").
    const NAME: &'static str;

    /// Runs `f(i)` for every `i < n` in parallel; returns after all
    /// iterations complete (each GraphBLAS call is a barrier in both
    /// SuiteSparse and GaloisBLAS).
    fn parallel_for<F: Fn(usize) + Sync>(self, n: usize, f: F);

    /// Runs `f(i)` for every `i < n` in parallel, partitioned into
    /// equal-*cost* chunks by `cost_of(i)` (GraphBLAST-style flop
    /// balancing) on both backends.
    #[inline]
    fn parallel_for_balanced<F, C>(self, n: usize, cost_of: C, f: F)
    where
        F: Fn(usize) + Sync,
        C: Fn(usize) -> u64,
    {
        crate::workspace::run_balanced(n, cost_of, f);
    }
}

/// SuiteSparse-like backend: contiguous static partitioning, as OpenMP
/// `schedule(static)` produces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaticRuntime;

impl Runtime for StaticRuntime {
    const NAME: &'static str = "SS";

    #[inline]
    fn parallel_for<F: Fn(usize) + Sync>(self, n: usize, f: F) {
        galois_rt::do_all_static(0..n, f);
    }
}

/// GaloisBLAS backend: dynamic chunk self-scheduling on the Galois thread
/// pool (work-stealing load balance for irregular rows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaloisRuntime;

impl Runtime for GaloisRuntime {
    const NAME: &'static str = "GB";

    #[inline]
    fn parallel_for<F: Fn(usize) + Sync>(self, n: usize, f: F) {
        galois_rt::do_all(0..n, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn covers_all<R: Runtime>(rt: R) {
        let n = 1000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        rt.parallel_for(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn static_runtime_covers_all_indices() {
        covers_all(StaticRuntime);
    }

    #[test]
    fn galois_runtime_covers_all_indices() {
        covers_all(GaloisRuntime);
    }

    #[test]
    fn names_match_paper_abbreviations() {
        assert_eq!(StaticRuntime::NAME, "SS");
        assert_eq!(GaloisRuntime::NAME, "GB");
    }
}
