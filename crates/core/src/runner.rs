//! Uniform dispatch: `System × Problem → ProblemOutput`, with timing.

use crate::prepared::PreparedGraph;
use crate::problem::{Problem, ProblemOutput, System, Variant};
use graphblas::{GaloisRuntime, GrbError, Runtime, StaticRuntime};
use std::time::{Duration, Instant};

/// One timed measurement.
#[derive(Debug, Clone)]
pub struct RunMeasurement {
    /// Wall-clock time of the algorithm proper (preprocessing excluded).
    pub elapsed: Duration,
    /// The algorithm's output, for verification.
    pub output: ProblemOutput,
}

/// Runs `problem` on `system` over the prepared graph, surfacing
/// GraphBLAS failures (memory-budget exhaustion, injected faults) as
/// [`GrbError`] instead of panicking — what the resilient study runner
/// ([`crate::cell`]) calls.
///
/// # Errors
///
/// Propagates [`GrbError`] from the matrix-API systems; the Lonestar
/// implementations are infallible.
pub fn try_run(
    system: System,
    problem: Problem,
    p: &PreparedGraph,
) -> Result<ProblemOutput, GrbError> {
    match system {
        System::SuiteSparse => try_run_lagraph(problem, p, StaticRuntime),
        System::GaloisBlas => try_run_lagraph(problem, p, GaloisRuntime),
        System::Lonestar => Ok(run_lonestar(problem, p)),
    }
}

/// Runs `problem` on `system` over the prepared graph.
///
/// # Panics
///
/// Panics on any [`GrbError`] (which cannot occur on a well-formed
/// [`PreparedGraph`] without a memory budget or fault plan active); use
/// [`try_run`] to handle failures.
pub fn run(system: System, problem: Problem, p: &PreparedGraph) -> ProblemOutput {
    try_run(system, problem, p)
        .unwrap_or_else(|e| panic!("{problem} on {system} failed: {e}"))
}

/// Runs and times `problem` on `system`.
pub fn timed_run(system: System, problem: Problem, p: &PreparedGraph) -> RunMeasurement {
    let start = Instant::now();
    let output = run(system, problem, p);
    RunMeasurement {
        elapsed: start.elapsed(),
        output,
    }
}

/// One traced measurement: timing, output, and the merged op/loop trace.
#[derive(Debug, Clone)]
pub struct TracedMeasurement {
    /// Wall-clock time of the algorithm proper (tracing enabled, so
    /// slightly above [`RunMeasurement::elapsed`] for the same cell).
    pub elapsed: Duration,
    /// The algorithm's output, for verification.
    pub output: ProblemOutput,
    /// Every GraphBLAS call and runtime loop the run issued.
    pub trace: perfmon::trace::Trace,
}

/// Runs `problem` on `system` with [`perfmon::trace`] enabled, returning
/// the merged trace alongside timing and output.
///
/// Trace state is process-global; callers running traced cells
/// concurrently (tests in particular) must serialize.
pub fn traced_run(system: System, problem: Problem, p: &PreparedGraph) -> TracedMeasurement {
    let start = Instant::now();
    let (output, trace) = perfmon::trace::with_trace(|| run(system, problem, p));
    TracedMeasurement {
        elapsed: start.elapsed(),
        output,
        trace,
    }
}

fn try_run_lagraph<R: Runtime>(
    problem: Problem,
    p: &PreparedGraph,
    rt: R,
) -> Result<ProblemOutput, GrbError> {
    Ok(match problem {
        Problem::Bfs => {
            ProblemOutput::Levels(lagraph::bfs::bfs(&p.graph, p.source, rt)?.level)
        }
        Problem::Cc => ProblemOutput::Components(
            lagraph::cc::connected_components(&p.symmetric, rt)?.component,
        ),
        Problem::Ktruss => ProblemOutput::TrussEdges(
            lagraph::ktruss::ktruss(&p.symmetric, p.ktruss_k, rt)?.edges_remaining,
        ),
        Problem::Pr => ProblemOutput::Ranks(lagraph::pagerank::pagerank(
            &p.transpose,
            &p.out_degrees,
            p.pr_iters,
            rt,
        )?),
        Problem::Sssp => ProblemOutput::Dists(
            lagraph::sssp::sssp_delta_stepping(&p.graph, p.source, p.sssp_delta, rt)?.dist,
        ),
        Problem::Tc => {
            ProblemOutput::Triangles(lagraph::tc::tc_sandia_dot(&p.symmetric, rt)?.triangles)
        }
    })
}

fn run_lonestar(problem: Problem, p: &PreparedGraph) -> ProblemOutput {
    match problem {
        Problem::Bfs => ProblemOutput::Levels(lonestar::bfs::bfs(&p.graph, p.source).level),
        Problem::Cc => {
            ProblemOutput::Components(lonestar::cc::afforest(&p.symmetric, 2).component)
        }
        Problem::Ktruss => ProblemOutput::TrussEdges(
            lonestar::ktruss::ktruss(&p.symmetric, p.ktruss_k).edges_remaining,
        ),
        Problem::Pr => ProblemOutput::Ranks(lonestar::pagerank::pagerank(
            &p.transpose,
            &p.out_degrees,
            p.pr_iters,
        )),
        Problem::Sssp => ProblemOutput::Dists(
            lonestar::sssp::sssp(&p.graph, p.source, p.sssp_delta, true).dist,
        ),
        Problem::Tc => ProblemOutput::Triangles(lonestar::tc::tc(&p.sorted)),
    }
}

fn try_run_variant(variant: Variant, p: &PreparedGraph) -> Result<ProblemOutput, GrbError> {
    use Variant::*;
    let rt = GaloisRuntime;
    Ok(match variant {
        PrLs => ProblemOutput::Ranks(lonestar::pagerank::pagerank(
            &p.transpose,
            &p.out_degrees,
            p.pr_iters,
        )),
        PrLsSoa => ProblemOutput::Ranks(lonestar::pagerank::pagerank_soa(
            &p.transpose,
            &p.out_degrees,
            p.pr_iters,
        )),
        PrGbRes => ProblemOutput::Ranks(lagraph::pagerank::pagerank_residual(
            &p.transpose,
            &p.out_degrees,
            p.pr_iters,
            rt,
        )?),
        PrGb => ProblemOutput::Ranks(lagraph::pagerank::pagerank(
            &p.transpose,
            &p.out_degrees,
            p.pr_iters,
            rt,
        )?),
        TcLs => ProblemOutput::Triangles(lonestar::tc::tc(&p.sorted)),
        TcGbLl => ProblemOutput::Triangles(lagraph::tc::tc_listing(&p.sorted, rt)?.triangles),
        TcGbSort => {
            ProblemOutput::Triangles(lagraph::tc::tc_sandia_dot(&p.sorted, rt)?.triangles)
        }
        TcGb => {
            ProblemOutput::Triangles(lagraph::tc::tc_sandia_dot(&p.symmetric, rt)?.triangles)
        }
        CcLs => ProblemOutput::Components(lonestar::cc::afforest(&p.symmetric, 2).component),
        CcLsSv => {
            ProblemOutput::Components(lonestar::cc::shiloach_vishkin(&p.symmetric).component)
        }
        CcGb => ProblemOutput::Components(
            lagraph::cc::connected_components(&p.symmetric, rt)?.component,
        ),
        SsspLs => ProblemOutput::Dists(
            lonestar::sssp::sssp(&p.graph, p.source, p.sssp_delta, true).dist,
        ),
        SsspLsNotile => ProblemOutput::Dists(
            lonestar::sssp::sssp(&p.graph, p.source, p.sssp_delta, false).dist,
        ),
        SsspGb => ProblemOutput::Dists(
            lagraph::sssp::sssp_delta_stepping(&p.graph, p.source, p.sssp_delta, rt)?.dist,
        ),
    })
}

/// Runs one differential-analysis variant (Figure 3).
///
/// # Panics
///
/// Panics on any [`GrbError`] from the matrix-API variants.
pub fn run_variant(variant: Variant, p: &PreparedGraph) -> ProblemOutput {
    try_run_variant(variant, p)
        .unwrap_or_else(|e| panic!("variant {} failed: {e}", variant.name()))
}

/// Runs and times one variant.
pub fn timed_run_variant(variant: Variant, p: &PreparedGraph) -> RunMeasurement {
    let start = Instant::now();
    let output = run_variant(variant, p);
    RunMeasurement {
        elapsed: start.elapsed(),
        output,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify;
    use graph::{Scale, StudyGraph};

    #[test]
    fn all_systems_verify_on_a_small_study_graph() {
        let p = PreparedGraph::study(StudyGraph::Rmat22, Scale::custom(1.0 / 64.0));
        for problem in Problem::all() {
            for system in System::all() {
                let out = run(system, problem, &p);
                verify(&p, problem, &out).unwrap_or_else(|e| {
                    panic!("{system} failed verification on {problem}: {e}")
                });
            }
        }
    }

    #[test]
    fn all_variants_verify_on_a_small_study_graph() {
        let p = PreparedGraph::study(StudyGraph::Indochina04, Scale::custom(1.0 / 64.0));
        for problem in [Problem::Pr, Problem::Tc, Problem::Cc, Problem::Sssp] {
            for &variant in Variant::panel(problem) {
                let out = run_variant(variant, &p);
                verify(&p, problem, &out).unwrap_or_else(|e| {
                    panic!("variant {} failed on {problem}: {e}", variant.name())
                });
            }
        }
    }

    #[test]
    fn timed_run_reports_nonzero_time() {
        let p = PreparedGraph::study(StudyGraph::RoadUsaW, Scale::custom(1.0 / 64.0));
        let m = timed_run(System::Lonestar, Problem::Bfs, &p);
        assert!(m.elapsed > Duration::ZERO);
        assert!(matches!(m.output, ProblemOutput::Levels(_)));
    }
}
