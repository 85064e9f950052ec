//! Integration tests of the recycled kernel workspaces.
//!
//! Two invariants:
//!
//! 1. Recycling actually recycles: a warm pagerank run satisfies its
//!    buffer demand from the pool (near-zero fresh bytes), and on warm pr
//!    and tc runs the per-op allocation churn (`alloc_bytes`, which this
//!    binary measures by installing the tracking allocator) is at most a
//!    fifth of the workspace demand the pool served or allocated.
//! 2. The pool respects `STUDY_MEM_BUDGET`: a budget bounds what is
//!    retained between ops without changing results.
//!
//! The pool and the allocator counters are process-global, so every test
//! serializes on one mutex.

use graph_api_study::graph::{Scale, StudyGraph};
use graph_api_study::graphblas;
use graph_api_study::perfmon;
use graph_api_study::study_core::{traced_run, try_run, verify, PreparedGraph, Problem, System};
use std::sync::Mutex;

/// Track allocations so each op span's `alloc_bytes` (transient churn:
/// total allocated minus still-live at op finish) is meaningful in this
/// binary; everywhere else the counters stay zero.
#[global_allocator]
static ALLOC: perfmon::alloc::TrackingAllocator = perfmon::alloc::TrackingAllocator;

static WS_LOCK: Mutex<()> = Mutex::new(());

/// Pins the process-wide memory budget and restores it on drop, so a
/// panic under a tight budget cannot starve the rest of the binary.
struct BudgetPin {
    prev: Option<u64>,
}

impl BudgetPin {
    fn set(budget: Option<u64>) -> BudgetPin {
        let prev = graphblas::ops::mem_budget();
        graphblas::ops::set_mem_budget(budget);
        BudgetPin { prev }
    }
}

impl Drop for BudgetPin {
    fn drop(&mut self) {
        graphblas::ops::set_mem_budget(self.prev);
    }
}

#[test]
fn warm_pagerank_run_is_satisfied_from_the_pool() {
    let _guard = WS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let p = PreparedGraph::study(StudyGraph::Rmat22, Scale::custom(1.0 / 64.0));
    // Cold run populates the pool (and its trace pays the fresh bytes).
    let _cold = traced_run(System::GaloisBlas, Problem::Pr, &p);
    let warm = traced_run(System::GaloisBlas, Problem::Pr, &p);
    let s = warm.trace.summary();
    assert!(
        s.ws_reused_bytes > 0,
        "warm pr must check buffers out of the pool"
    );
    assert!(
        s.ws_fresh_bytes * 10 <= s.ws_reused_bytes,
        "warm pr must allocate near-zero fresh workspace bytes \
         (fresh {} vs reused {})",
        s.ws_fresh_bytes,
        s.ws_reused_bytes
    );
}

#[test]
fn recycling_cuts_alloc_churn_at_least_5x_on_pr_and_tc() {
    let _guard = WS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let p = PreparedGraph::study(StudyGraph::Rmat22, Scale::custom(1.0 / 32.0));
    for problem in [Problem::Pr, Problem::Tc] {
        // Warm the pool so the measured run reflects steady state — the
        // regime the repo benchmark's traced pass runs in.
        let _warmup = try_run(System::GaloisBlas, problem, &p).unwrap();
        let s = traced_run(System::GaloisBlas, problem, &p).trace.summary();
        let demand = s.ws_fresh_bytes + s.ws_reused_bytes;
        assert!(
            s.alloc_bytes * 5 <= demand,
            "{problem}: warm per-op allocation churn must be at most a fifth \
             of the workspace demand ({} bytes churned vs {demand} bytes demanded)",
            s.alloc_bytes
        );
    }
}

#[test]
fn pool_retention_respects_the_memory_budget() {
    let _guard = WS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let pool = graphblas::workspace::global();
    let p = PreparedGraph::study(StudyGraph::Rmat22, Scale::custom(1.0 / 128.0));

    // Unlimited budget: measure what a tc run leaves in the pool. (tc,
    // not pr: pr's pull product writes straight into the output vector's
    // reclaimed store and pools next to nothing.)
    let unlimited = {
        let _budget = BudgetPin::set(None);
        pool.clear();
        let _ = try_run(System::GaloisBlas, Problem::Tc, &p).unwrap();
        pool.retained_bytes()
    };
    assert!(unlimited > 0, "tc must leave recycled buffers in the pool");

    // Halving the budget must bound retention without changing results —
    // give() drops over-budget buffers and the kernels fall back to
    // allocating.
    let budget = unlimited / 2;
    {
        let _budget = BudgetPin::set(Some(budget));
        pool.clear();
        let out = try_run(System::GaloisBlas, Problem::Tc, &p).unwrap();
        verify::verify(&p, Problem::Tc, &out).expect("tc must still verify");
        assert!(
            pool.retained_bytes() <= budget,
            "pool retention {} exceeds STUDY_MEM_BUDGET {}",
            pool.retained_bytes(),
            budget
        );
    }
    pool.clear();
}
