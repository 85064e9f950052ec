//! Integration: every system computes verified results on every study
//! graph shape (at test scale), every Figure 3 algorithm variant agrees
//! with the serial reference on those same shapes, the batched query
//! engine agrees with the per-query Lonestar worklist runs, and whole
//! algorithms give the same answer under every kernel policy and thread
//! count. Every check runs under the cost model and under the paper's
//! fixed push-dense scatter.

use graph_api_study::galois_rt;
use graph_api_study::graph::{Scale, StudyGraph};
use graph_api_study::graphblas::ops::{with_policy, Policy};
use graph_api_study::perfmon::trace::KernelChoice;
use graph_api_study::study_core::{
    batch_sources, execute, try_run, verify, verify_batch_query, BatchProblem, Job, JobOutcome,
    PreparedGraph, Problem, ProblemOutput, System, Variant, Work,
};
use std::sync::Arc;
use std::time::Duration;

/// The cost model, and the paper's fixed push-dense `vxm` scatter.
const POLICIES: [Policy; 2] = [
    Policy { kernel: None, budget: None },
    Policy::forcing(KernelChoice::PushDense),
];

/// `work` through the executor under `policy`, verified against the
/// serial reference.
fn verified(work: Work, p: &Arc<PreparedGraph>, policy: Policy) -> JobOutcome {
    execute(&Job { verify: true, policy, ..Job::new(work) }, p)
}

fn check_all_problems(which: StudyGraph, policy: Policy) {
    let p = Arc::new(PreparedGraph::study(which, Scale::custom(1.0 / 128.0)));
    for problem in Problem::all() {
        for system in System::all() {
            let out = verified(Work::Cell(system, problem), &p, policy);
            assert!(
                out.is_ok() && out.solve > Duration::ZERO,
                "{system} {problem} on {} under {policy:?}: {:?}",
                p.name,
                out.lanes[0].error
            );
        }
    }
}

/// Every Figure 3 panel variant (pr, tc, cc, sssp) verified against the
/// serial reference on one shape.
fn check_variant_panels(which: StudyGraph, policy: Policy) {
    let p = Arc::new(PreparedGraph::study(which, Scale::custom(1.0 / 128.0)));
    for problem in [Problem::Pr, Problem::Tc, Problem::Cc, Problem::Sssp] {
        let panel = Variant::panel(problem);
        assert!(!panel.is_empty(), "{problem} has no Figure 3 panel");
        for &variant in panel {
            assert_eq!(variant.problem(), problem);
            let out = verified(Work::Variant(variant), &p, policy);
            assert!(
                out.is_ok(),
                "{} {problem} on {} under {policy:?}: {:?}",
                variant.name(),
                p.name,
                out.lanes[0].error
            );
        }
    }
}

fn check_shape(which: StudyGraph) {
    for policy in POLICIES {
        check_all_problems(which, policy);
        check_variant_panels(which, policy);
    }
}

/// Batched matrix-API queries cross-checked against the per-query
/// worklist runs: column j of the SS and GB msBFS engines must equal the
/// Lonestar (LS) levels for source j, and every query must also verify
/// against its own serial reference.
fn check_batched_vs_lonestar(which: StudyGraph, width: usize, policy: Policy) {
    let p = Arc::new(PreparedGraph::study(which, Scale::custom(1.0 / 128.0)));
    let sources = batch_sources(&p, width);
    let problem = BatchProblem::Bfs;
    let work = |system| Work::Batch(system, problem, sources.clone());
    let batch = |system| execute(&Job { policy, ..Job::new(work(system)) }, &p);
    let ls = batch(System::Lonestar);
    for system in [System::SuiteSparse, System::GaloisBlas] {
        let batched = batch(system);
        assert_eq!(batched.lanes.len(), sources.len());
        for (j, lane) in batched.lanes.iter().enumerate() {
            let out = lane.value.as_ref().unwrap_or_else(|| {
                panic!("{system} {problem} on {} {policy:?} query {j}: {:?}", p.name, lane.error)
            });
            assert_eq!(
                out,
                ls.lanes[j].value.as_ref().unwrap(),
                "{system} {problem} on {} {policy:?} query {j} disagrees with LS",
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
            for policy in POLICIES {
                check_batched_vs_lonestar(which, width, policy);
            }
        }
    }
}

/// bfs, cc and pr on one shape per topology class (scale-free, road,
/// web) under every kernel policy × 1/2/8 threads × system: every
/// output verifies, bfs levels and cc labels equal the cost-model /
/// 1-thread run exactly, and pr ranks stay within 1e-9 of it.
#[test]
fn outputs_agree_across_kernel_modes_and_threads() {
    let saved_threads = galois_rt::threads();
    let problems = [Problem::Bfs, Problem::Cc, Problem::Pr];
    for which in [
        StudyGraph::Rmat22,
        StudyGraph::RoadUsaW,
        StudyGraph::Indochina04,
    ] {
        let p = PreparedGraph::study(which, Scale::custom(1.0 / 256.0));
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
        for policy in POLICIES {
            for threads in [1usize, 2, 8] {
                galois_rt::set_threads(threads);
                for (system, problem, baseline) in &baselines {
                    let ctx = format!("{which:?} {system} {problem} {policy:?} threads={threads}");
                    let got = with_policy(policy, || try_run(*system, *problem, &p))
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
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
                        (a, b) => assert_eq!(a, b, "{ctx}: output differs from the baseline"),
                    }
                }
            }
        }
    }
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
