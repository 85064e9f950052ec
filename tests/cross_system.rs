//! Integration: every system computes verified results on every study
//! graph shape (at test scale), every Figure 3 algorithm variant agrees
//! with the serial reference on those same shapes, the batched query
//! engine agrees with the per-query Lonestar worklist runs, and whole
//! algorithms give the same answer under every kernel mode and thread
//! count.

use graph_api_study::galois_rt;
use graph_api_study::graph::{Scale, StudyGraph};
use graph_api_study::graphblas::ops::{self, KernelMode};
use graph_api_study::study_core::runner::run_variant;
use graph_api_study::study_core::{
    batch_sources, run, try_run, try_run_batch, verify, verify_batch_query, BatchProblem,
    PreparedGraph, Problem, ProblemOutput, System, Variant,
};

fn check_all_problems(which: StudyGraph) {
    let p = PreparedGraph::study(which, Scale::custom(1.0 / 128.0));
    for problem in Problem::all() {
        for system in System::all() {
            let out = run(system, problem, &p);
            verify::verify(&p, problem, &out).unwrap_or_else(|e| {
                panic!("{system} {problem} on {}: {e}", p.name);
            });
        }
    }
}

/// Every Figure 3 panel variant (pr, tc, cc, sssp) verified against the
/// serial reference on one shape.
fn check_variant_panels(which: StudyGraph) {
    let p = PreparedGraph::study(which, Scale::custom(1.0 / 128.0));
    for problem in [Problem::Pr, Problem::Tc, Problem::Cc, Problem::Sssp] {
        let panel = Variant::panel(problem);
        assert!(!panel.is_empty(), "{problem} has no Figure 3 panel");
        for &variant in panel {
            assert_eq!(variant.problem(), problem);
            let out = run_variant(variant, &p);
            verify::verify(&p, problem, &out).unwrap_or_else(|e| {
                panic!("{} {problem} on {}: {e}", variant.name(), p.name);
            });
        }
    }
}

fn check_shape(which: StudyGraph) {
    check_all_problems(which);
    check_variant_panels(which);
}

/// Batched matrix-API queries cross-checked against the per-query
/// worklist runs: column j of the SS and GB msBFS engines must equal the
/// Lonestar (LS) levels for source j, and every query must also verify
/// against its own serial reference.
fn check_batched_vs_lonestar(which: StudyGraph, width: usize) {
    let p = PreparedGraph::study(which, Scale::custom(1.0 / 128.0));
    let sources = batch_sources(&p, width);
    let problem = BatchProblem::Bfs;
    let ls = try_run_batch(System::Lonestar, problem, &p, &sources);
    for system in [System::SuiteSparse, System::GaloisBlas] {
        let batched = try_run_batch(system, problem, &p, &sources);
        assert_eq!(batched.len(), sources.len());
        for (j, result) in batched.iter().enumerate() {
            let out = result
                .as_ref()
                .unwrap_or_else(|e| panic!("{system} {problem} on {} query {j}: {e}", p.name));
            assert_eq!(
                out,
                ls[j].as_ref().unwrap(),
                "{system} {problem} on {} query {j} disagrees with LS",
                p.name
            );
            verify_batch_query(&p, problem, sources[j], out)
                .unwrap_or_else(|e| panic!("{system} {problem} on {} query {j}: {e}", p.name));
        }
    }
}

#[test]
fn batched_queries_agree_with_lonestar_per_query() {
    // Width 1 is the serial-identical batch; 5 and 8 exercise the
    // multi-lane path.
    for width in [1, 5, 8] {
        for which in [
            StudyGraph::Rmat22,
            StudyGraph::RoadUsaW,
            StudyGraph::Indochina04,
        ] {
            check_batched_vs_lonestar(which, width);
        }
    }
}

/// bfs, cc and pr on one shape per topology class (scale-free, road,
/// web) under every kernel mode × 1/2/8 threads × system: every output
/// verifies, bfs levels and cc labels equal the Auto/1-thread run
/// exactly, and pr ranks stay within 1e-9 of it.
#[test]
fn outputs_agree_across_kernel_modes_and_threads() {
    let saved_mode = ops::kernel_mode();
    let saved_threads = galois_rt::threads();
    let problems = [Problem::Bfs, Problem::Cc, Problem::Pr];
    for which in [
        StudyGraph::Rmat22,
        StudyGraph::RoadUsaW,
        StudyGraph::Indochina04,
    ] {
        let p = PreparedGraph::study(which, Scale::custom(1.0 / 256.0));
        ops::set_kernel_mode(KernelMode::Auto);
        galois_rt::set_threads(1);
        let baselines: Vec<(System, Problem, ProblemOutput)> = System::all()
            .into_iter()
            .flat_map(|system| problems.map(|problem| (system, problem)))
            .map(|(system, problem)| {
                let out = try_run(system, problem, &p)
                    .unwrap_or_else(|e| panic!("{which:?} {system} {problem} baseline: {e}"));
                (system, problem, out)
            })
            .collect();
        for mode in [KernelMode::Auto, KernelMode::Push] {
            ops::set_kernel_mode(mode);
            for threads in [1usize, 2, 8] {
                galois_rt::set_threads(threads);
                for (system, problem, baseline) in &baselines {
                    let ctx =
                        format!("{which:?} {system} {problem} kernel={mode:?} threads={threads}");
                    let got =
                        try_run(*system, *problem, &p).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    verify::verify(&p, *problem, &got).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    match (baseline, &got) {
                        (ProblemOutput::Ranks(a), ProblemOutput::Ranks(b)) => {
                            assert_eq!(a.len(), b.len(), "{ctx}: rank count");
                            for (v, (x, y)) in a.iter().zip(b).enumerate() {
                                assert!(
                                    (x - y).abs() <= 1e-9 * x.abs().max(1e-12),
                                    "{ctx}: vertex {v} rank {x} vs {y}"
                                );
                            }
                        }
                        (a, b) => assert_eq!(a, b, "{ctx}: output differs from Auto/1 thread"),
                    }
                }
            }
        }
    }
    ops::set_kernel_mode(saved_mode);
    galois_rt::set_threads(saved_threads);
}

#[test]
fn road_network_shape() {
    check_shape(StudyGraph::RoadUsaW);
}

#[test]
fn power_law_shape() {
    check_shape(StudyGraph::Rmat22);
}

#[test]
fn web_crawl_shape() {
    check_shape(StudyGraph::Uk07);
}

#[test]
fn social_network_shape() {
    check_shape(StudyGraph::Twitter40);
}

#[test]
fn undirected_social_shape() {
    check_shape(StudyGraph::Friendster);
}

#[test]
fn dense_community_shape() {
    check_shape(StudyGraph::Eukarya);
}

#[test]
fn weighted_road_shape() {
    check_shape(StudyGraph::RoadUsa);
}
