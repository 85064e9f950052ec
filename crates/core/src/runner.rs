//! Uniform dispatch: `System × Problem → ProblemOutput`, and the six
//! Figure 3 variants that are not cells. [`crate::exec`] is the one
//! caller in this crate; [`try_run`] and [`traced_run`] stay public
//! because the repo benchmark calls them directly.

use crate::prepared::PreparedGraph;
use crate::problem::{Problem, ProblemOutput, System, Variant};
use graphblas::{GaloisRuntime, GrbError, Runtime, StaticRuntime};
use std::time::{Duration, Instant};

/// Runs `problem` on `system` over the prepared graph, surfacing
/// GraphBLAS failures (memory-budget exhaustion, injected faults) as
/// [`GrbError`] instead of panicking — the run stage of every
/// [`crate::exec::Work::Cell`] job.
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

/// One traced measurement: timing, output, and the merged op/loop trace.
#[derive(Debug, Clone)]
pub struct TracedMeasurement {
    /// Wall-clock time of the algorithm proper (tracing enabled, so
    /// slightly above an untraced run of the same cell).
    pub elapsed: Duration,
    /// The algorithm's output, for verification.
    pub output: ProblemOutput,
    /// Every GraphBLAS call and runtime loop the run issued.
    pub trace: perfmon::trace::Trace,
}

/// Runs `problem` on `system` with [`perfmon::trace`] enabled, returning
/// the trace alongside timing and output.
///
/// The trace holds what the calling thread ran, so traced cells on
/// other threads, or untraced work beside them, do not enter it. The run
/// uses the calling thread's [`graphblas::ops::Policy`].
pub fn traced_run(system: System, problem: Problem, p: &PreparedGraph) -> TracedMeasurement {
    let start = Instant::now();
    let (output, trace) = perfmon::trace::with_trace(|| {
        try_run(system, problem, p).unwrap_or_else(|e| panic!("{problem} on {system} failed: {e}"))
    });
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

/// Runs one Figure 3 variant: the six real alternatives here, the eight
/// baselines through [`try_run`] as the Table II cells they are
/// ([`Variant::cell`]).
pub(crate) fn try_run_variant(
    variant: Variant,
    p: &PreparedGraph,
) -> Result<ProblemOutput, GrbError> {
    use Variant::*;
    let rt = GaloisRuntime;
    Ok(match variant {
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
        TcGbLl => ProblemOutput::Triangles(lagraph::tc::tc_listing(&p.sorted, rt)?.triangles),
        TcGbSort => {
            ProblemOutput::Triangles(lagraph::tc::tc_sandia_dot(&p.sorted, rt)?.triangles)
        }
        CcLsSv => {
            ProblemOutput::Components(lonestar::cc::shiloach_vishkin(&p.symmetric).component)
        }
        SsspLsNotile => ProblemOutput::Dists(
            lonestar::sssp::sssp(&p.graph, p.source, p.sssp_delta, false).dist,
        ),
        _ => {
            let (system, problem) = variant
                .cell()
                .expect("every other variant is a Table II cell");
            return try_run(system, problem, p);
        }
    })
}
