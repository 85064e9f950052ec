//! Differential suite for streaming ingestion with incremental
//! recompute.
//!
//! The contract under test: after absorbing any stream of edge-update
//! batches, every incremental algorithm's answer equals a from-scratch
//! recompute on the compacted snapshot — bit-exactly for bfs levels and
//! component labels, within an absolute `1e-9` for pagerank (both sides
//! converge to residual `1e-12`). `study_core::verify_incremental`
//! encodes exactly that comparison, so the tests here drive it:
//!
//! 1. across every study topology (all nine Table I shapes), on all
//!    three systems, with seeded random update streams that mix inserts,
//!    deletes of real snapshot edges and no-op deletes;
//! 2. across the full execution-mode matrix — push/pull/bitmap/auto SpMV
//!    kernels × 1/2/8 threads — where the repaired outputs must
//!    additionally be identical *across* the configurations (kernel
//!    selection and scheduling must never leak into results);
//! 3. under the cell isolation boundary, where a full sweep of
//!    incremental cells completes with per-cell ok statuses;
//! 4. through the service's republish path: a compacted snapshot, whose
//!    rows ingest left out of order, prepares to the same symmetric view
//!    the sort-based transform built.

use graph_api_study::galois_rt;
use graph_api_study::graph::gen::{rmat, RmatParams};
use graph_api_study::graph::{CsrGraph, DeltaGraph, EdgeBatch, NodeId, Scale, StudyGraph};
use graph_api_study::graphblas::ops::{kernel_mode, set_kernel_mode, KernelMode};
use graph_api_study::study_core::verify::verify;
use graph_api_study::study_core::{
    run_incremental_cell, try_run, try_run_incremental, update_batches, verify_incremental,
    IncProblem, PreparedGraph, Problem, ProblemOutput, System,
};
use std::sync::{Arc, Mutex};

/// Tests that reconfigure process-global execution modes must not
/// interleave.
static POOL_LOCK: Mutex<()> = Mutex::new(());

/// Every incremental (problem, system) combination on one prepared
/// graph, each verified against the from-scratch recompute on its
/// compacted snapshot. Returns the outputs keyed for cross-config
/// comparison.
fn check_all(p: &PreparedGraph, seed: u64) -> Vec<(IncProblem, System, ProblemOutput)> {
    let updates = update_batches(&p.graph, 3, 12, seed);
    let mut out = Vec::new();
    for problem in IncProblem::all() {
        for system in System::all() {
            let run = try_run_incremental(system, problem, p, &updates)
                .unwrap_or_else(|e| panic!("{} {system} {problem}: {e}", p.name));
            verify_incremental(p, problem, &run)
                .unwrap_or_else(|e| panic!("{} {system} {problem}: {e}", p.name));
            out.push((problem, system, run.output));
        }
    }
    out
}

#[test]
fn every_study_shape_verifies_incrementally() {
    for (gi, which) in StudyGraph::all().into_iter().enumerate() {
        let p = PreparedGraph::study(which, Scale::custom(1.0 / 256.0));
        check_all(&p, gi as u64);
    }
}

#[test]
fn repairs_are_identical_across_kernels_threads_and_workspaces() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let saved_threads = galois_rt::threads();
    let saved_kernel = kernel_mode();
    let p = PreparedGraph::study(StudyGraph::Rmat22, Scale::custom(1.0 / 128.0));

    let mut baseline: Option<Vec<(IncProblem, System, ProblemOutput)>> = None;
    for kernel in [
        KernelMode::Auto,
        KernelMode::Push,
        KernelMode::Pull,
        KernelMode::Bitmap,
    ] {
        for threads in [1usize, 2, 8] {
            set_kernel_mode(kernel);
            galois_rt::set_threads(threads);
            let got = check_all(&p, 99);
            match &baseline {
                None => baseline = Some(got),
                Some(expect) => {
                    for ((ep, es, eo), (_, _, go)) in expect.iter().zip(&got) {
                        match (eo, go) {
                            (ProblemOutput::Ranks(a), ProblemOutput::Ranks(b)) => {
                                // Kernel/thread choice may reorder f64
                                // sums on the matrix path; both sit
                                // within the converged band.
                                for (x, y) in a.iter().zip(b) {
                                    assert!(
                                        (x - y).abs() <= 1e-9,
                                        "{es} {ep} drifts across \
                                         {kernel:?}/{threads}t: {x} vs {y}"
                                    );
                                }
                            }
                            _ => assert_eq!(
                                eo, go,
                                "{es} {ep} must be identical across {kernel:?}/{threads}t"
                            ),
                        }
                    }
                }
            }
        }
    }
    set_kernel_mode(saved_kernel);
    galois_rt::set_threads(saved_threads);
}

#[test]
fn incremental_sweep_is_all_ok_under_cell_isolation() {
    let p = Arc::new(PreparedGraph::study(
        StudyGraph::RoadUsaW,
        Scale::custom(1.0 / 128.0),
    ));
    let updates = update_batches(&p.graph, 2, 16, 7);
    for problem in IncProblem::all() {
        for system in System::all() {
            let out = run_incremental_cell(system, problem, &p, &updates);
            assert!(out.is_ok(), "{system} {problem}: {:?}", out.error);
            let run = out.value.expect("ok cell has a value");
            assert_eq!(run.absorbed, 32);
            assert!(run.compactions >= 1, "final compaction is forced");
            verify_incremental(&p, problem, &run)
                .unwrap_or_else(|e| panic!("{system} {problem}: {e}"));
        }
    }
}

/// Ingest appends to a row, so a compacted snapshot's rows need not
/// ascend — and the service prepares exactly that graph on every
/// compaction. The prepared symmetric view must still be the sort-based
/// one, and tc (which reads the symmetric and degree-sorted views and
/// counts a non-simple graph differently per system) must verify on all
/// three systems.
#[test]
fn prepare_after_ingest_and_compact_matches_the_sort_based_symmetric_view() {
    let base = rmat(9, 8, RmatParams::default(), 3).with_random_weights(1000, 3);
    let n = base.num_nodes() as NodeId;
    let mut delta = DeltaGraph::with_threshold(base, 0);
    // Scattered inserts: out-of-order rows, parallel edges with new
    // weights, and the odd self loop.
    let mut batch = EdgeBatch::new();
    for i in 0..800u32 {
        let src = i.wrapping_mul(7919) % n;
        let dst = i.wrapping_mul(104_729).wrapping_add(13) % n;
        batch = batch.insert_weighted(src, dst, 1 + i % 97);
    }
    delta.apply(&batch).unwrap();
    delta.compact().unwrap();
    let g = delta.snapshot().clone();
    assert!(
        (0..n).any(|v| !g.neighbor_slice(v).is_sorted()),
        "ingest should leave some row out of order"
    );

    // The sort-based symmetrize: both directions of every non-loop edge,
    // sorted by (src, dst), parallel edges collapsed to the minimum weight.
    let mut edges: Vec<(NodeId, NodeId, u32)> = Vec::new();
    for v in 0..n {
        for (d, w) in g.neighbors_weighted(v) {
            if d != v {
                edges.extend([(v, d, w), (d, v, w)]);
            }
        }
    }
    edges.sort_unstable();
    edges.dedup_by_key(|e| (e.0, e.1));
    let mut offsets = vec![0usize; n as usize + 1];
    for &(s, _, _) in &edges {
        offsets[s as usize + 1] += 1;
    }
    for v in 1..offsets.len() {
        offsets[v] += offsets[v - 1];
    }
    let expected = CsrGraph::from_raw(
        offsets,
        edges.iter().map(|e| e.1).collect(),
        Some(edges.iter().map(|e| e.2).collect()),
    );

    let source = g.max_out_degree_node();
    let p = PreparedGraph::from_graph("ingested", g, source, 7, 1 << 13);
    assert_eq!(p.symmetric, expected);
    for system in System::all() {
        let out = try_run(system, Problem::Tc, &p).unwrap_or_else(|e| panic!("{system} tc: {e}"));
        verify(&p, Problem::Tc, &out).unwrap_or_else(|e| panic!("{system} tc: {e}"));
    }
}
