//! Batched multi-source query cells.
//!
//! A batch cell answers k queries of one problem on one system in a
//! single run — the matrix systems (SS, GB) through the multi-column
//! frontier engine `lagraph::batch`, the graph system (LS) through k
//! independent worklist runs (`lonestar::batch`). The serial study
//! cells are untouched: the caller picks the width (the service's
//! `BatchRequest.width`), and a width-1 batch executes the exact serial
//! kernel sequence, so the paper-faithful numbers stay bit-for-bit
//! identical.
//!
//! Every query keeps its own [`CellOutcome`]: a per-lane failure
//! (memory budget, injected fault, bad source) costs that query only,
//! and every ok query is verified independently against the serial
//! reference for **its** source ([`verify_batch_query`]).

use crate::cell::{self, CellOutcome};
use crate::prepared::PreparedGraph;
use crate::problem::{ProblemOutput, System};
use crate::reference;
use crate::verify::VerifyError;
use graph::NodeId;
use graphblas::{GaloisRuntime, GrbError, Runtime, StaticRuntime};
use std::sync::Arc;

/// The problems with a batched (multi-source) formulation: the query
/// problems, whose answer depends on a source/seed vertex. The global
/// problems (cc, ktruss, tc) have nothing to batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BatchProblem {
    /// k breadth-first searches in one levelized sweep (msBFS).
    Bfs,
    /// k personalized-PageRank seeds, propagation batched.
    Ppr,
    /// k shortest-path sources over a k-column distance matrix.
    Sssp,
}

impl BatchProblem {
    /// All batched problems, report order.
    pub fn all() -> [BatchProblem; 3] {
        [BatchProblem::Bfs, BatchProblem::Ppr, BatchProblem::Sssp]
    }

    /// The cell label (`bfs-batch` / `ppr-batch` / `sssp-batch`).
    pub fn name(&self) -> &'static str {
        match self {
            BatchProblem::Bfs => "bfs-batch",
            BatchProblem::Ppr => "ppr-batch",
            BatchProblem::Sssp => "sssp-batch",
        }
    }
}

impl std::fmt::Display for BatchProblem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The k deterministic query sources for a prepared graph: query 0 is
/// the study's single-source experiment vertex (so a width-1 batch *is*
/// the serial cell), the rest stride evenly across the vertex id space.
pub fn batch_sources(p: &PreparedGraph, k: usize) -> Vec<NodeId> {
    let n = p.num_nodes() as u32;
    if n == 0 {
        return vec![0; k];
    }
    let stride = (n / k.max(1) as u32).max(1);
    (0..k as u32).map(|i| (p.source + i * stride) % n).collect()
}

/// Runs one batched (problem, system) cell: k queries, k per-query
/// results.
///
/// # Errors
///
/// Per query: the matrix systems propagate per-lane [`GrbError`]s; the
/// Lonestar runs are infallible.
pub fn try_run_batch(
    system: System,
    problem: BatchProblem,
    p: &PreparedGraph,
    sources: &[NodeId],
) -> Vec<Result<ProblemOutput, GrbError>> {
    // Callers speak original vertex ids; under an active locality order
    // the sources are translated into the reordered space and every
    // per-query output is un-permuted on the way back out.
    let translated: Vec<NodeId>;
    let run_sources: &[NodeId] = match &p.ordered {
        Some(o) => {
            translated = sources.iter().map(|&s| o.perm.new_id(s)).collect();
            &translated
        }
        None => sources,
    };
    let results = match system {
        System::SuiteSparse => run_lagraph_batch(problem, p, run_sources, StaticRuntime),
        System::GaloisBlas => run_lagraph_batch(problem, p, run_sources, GaloisRuntime),
        System::Lonestar => run_lonestar_batch(problem, p, run_sources),
    };
    results
        .into_iter()
        .map(|r| r.map(|out| crate::runner::unpermute_output(p, out)))
        .collect()
}

fn run_lagraph_batch<R: Runtime>(
    problem: BatchProblem,
    p: &PreparedGraph,
    sources: &[NodeId],
    rt: R,
) -> Vec<Result<ProblemOutput, GrbError>> {
    let v = crate::runner::active_views(p);
    match problem {
        BatchProblem::Bfs => lagraph::batch::batched_bfs(v.graph, sources, rt)
            .into_iter()
            .map(|r| r.map(|b| ProblemOutput::Levels(b.level)))
            .collect(),
        BatchProblem::Ppr => lagraph::batch::batched_ppr(v.graph, sources, p.pr_iters, rt)
            .into_iter()
            .map(|r| r.map(ProblemOutput::Ranks))
            .collect(),
        BatchProblem::Sssp => lagraph::batch::batched_sssp(v.graph, sources, rt)
            .into_iter()
            .map(|r| r.map(|d| ProblemOutput::Dists(d.dist)))
            .collect(),
    }
}

fn run_lonestar_batch(
    problem: BatchProblem,
    p: &PreparedGraph,
    sources: &[NodeId],
) -> Vec<Result<ProblemOutput, GrbError>> {
    let v = crate::runner::active_views(p);
    match problem {
        BatchProblem::Bfs => lonestar::batch::batched_bfs(v.graph, sources)
            .into_iter()
            .map(|b| Ok(ProblemOutput::Levels(b.level)))
            .collect(),
        BatchProblem::Ppr => {
            lonestar::batch::batched_ppr(v.transpose, v.out_degrees, sources, p.pr_iters)
                .into_iter()
                .map(|r| Ok(ProblemOutput::Ranks(r)))
                .collect()
        }
        BatchProblem::Sssp => {
            lonestar::batch::batched_sssp(v.graph, sources, p.sssp_delta, true)
                .into_iter()
                .map(|d| Ok(ProblemOutput::Dists(d.dist)))
                .collect()
        }
    }
}

/// Runs one batched cell under the study's isolation boundary and fans
/// the result out per query.
///
/// The whole batch shares one `catch_unwind` + watchdog boundary (a
/// panic or timeout is a batch-level event and costs every query); a
/// per-lane [`GrbError`] costs only its own query's [`CellOutcome`].
pub fn run_batch_cell(
    system: System,
    problem: BatchProblem,
    p: &Arc<PreparedGraph>,
    sources: &[NodeId],
) -> Vec<CellOutcome<ProblemOutput>> {
    let p2 = Arc::clone(p);
    let srcs = sources.to_vec();
    let out = cell::run_protected(cell::cell_timeout_from_env(), move || {
        Ok(try_run_batch(system, problem, &p2, &srcs))
    });
    match out.value {
        Some(results) => results.into_iter().map(cell::outcome_from_result).collect(),
        None => sources
            .iter()
            .map(|_| CellOutcome {
                status: out.status,
                error: out.error.clone(),
                value: None,
            })
            .collect(),
    }
}

/// Verifies one query of a batched cell against the serial reference
/// **for that query's source**: bfs levels and sssp distances must match
/// exactly, ppr within the same floating-point tolerance the serial pr
/// verification uses.
///
/// # Errors
///
/// Returns a [`VerifyError`] describing the first mismatch.
pub fn verify_batch_query(
    p: &PreparedGraph,
    problem: BatchProblem,
    source: NodeId,
    output: &ProblemOutput,
) -> Result<(), VerifyError> {
    let fail = |message: String| Err(VerifyError { message });
    match (problem, output) {
        (BatchProblem::Bfs, ProblemOutput::Levels(levels)) => {
            let expected = reference::bfs_levels(&p.graph, source);
            if levels != &expected {
                return fail(format!("batched bfs from {source} disagrees with serial"));
            }
            Ok(())
        }
        (BatchProblem::Ppr, ProblemOutput::Ranks(ranks)) => {
            let expected = reference::personalized_pagerank(&p.graph, source, p.pr_iters);
            if ranks.len() != expected.len() {
                return fail(format!("batched ppr from {source}: length mismatch"));
            }
            for (v, (a, b)) in ranks.iter().zip(expected.iter()).enumerate() {
                let tol = 1e-9 * b.abs().max(1e-12);
                if (a - b).abs() > tol.max(1e-12) {
                    return fail(format!(
                        "batched ppr from {source} mismatch at vertex {v}: {a} vs {b}"
                    ));
                }
            }
            Ok(())
        }
        (BatchProblem::Sssp, ProblemOutput::Dists(dist)) => {
            let expected = reference::dijkstra(&p.graph, source);
            if dist != &expected {
                return fail(format!("batched sssp from {source} disagrees with dijkstra"));
            }
            Ok(())
        }
        (problem, output) => fail(format!(
            "output kind {output:?} does not match batched problem {problem}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::{Scale, StudyGraph};

    fn prepared() -> Arc<PreparedGraph> {
        Arc::new(PreparedGraph::study(
            StudyGraph::Rmat22,
            Scale::custom(1.0 / 128.0),
        ))
    }

    #[test]
    fn batch_sources_start_at_the_study_source() {
        let p = prepared();
        let sources = batch_sources(&p, 8);
        assert_eq!(sources.len(), 8);
        assert_eq!(sources[0], p.source, "query 0 is the serial experiment");
        assert!(sources.iter().all(|&s| (s as usize) < p.num_nodes()));
    }

    #[test]
    fn every_system_verifies_every_query() {
        let p = prepared();
        let sources = batch_sources(&p, 4);
        for problem in BatchProblem::all() {
            for system in System::all() {
                let outcomes = run_batch_cell(system, problem, &p, &sources);
                assert_eq!(outcomes.len(), sources.len());
                for (j, outcome) in outcomes.iter().enumerate() {
                    assert!(outcome.is_ok(), "{system} {problem} query {j}");
                    verify_batch_query(
                        &p,
                        problem,
                        sources[j],
                        outcome.value.as_ref().unwrap(),
                    )
                    .unwrap_or_else(|e| panic!("{system} {problem} query {j}: {e}"));
                }
            }
        }
    }

    #[test]
    fn width_one_batch_matches_the_serial_cell() {
        let p = prepared();
        let sources = batch_sources(&p, 1);
        let serial = crate::runner::try_run(System::GaloisBlas, crate::Problem::Bfs, &p).unwrap();
        let batched = try_run_batch(System::GaloisBlas, BatchProblem::Bfs, &p, &sources)
            .pop()
            .unwrap()
            .unwrap();
        assert_eq!(batched, serial, "width-1 batch is the serial experiment");
    }

    #[test]
    fn verification_rejects_wrong_query_source() {
        let p = prepared();
        let sources = batch_sources(&p, 2);
        assert_ne!(sources[0], sources[1]);
        let out = try_run_batch(System::Lonestar, BatchProblem::Bfs, &p, &sources);
        let first = out[0].as_ref().unwrap();
        verify_batch_query(&p, BatchProblem::Bfs, sources[0], first).unwrap();
        assert!(
            verify_batch_query(&p, BatchProblem::Bfs, sources[1], first).is_err(),
            "query 0's answer must not verify against query 1's source"
        );
    }

    #[test]
    fn ordered_batches_verify_against_natural_references() {
        let p = Arc::new(
            PreparedGraph::study(StudyGraph::Rmat22, Scale::custom(1.0 / 128.0))
                .with_order(graph::OrderMode::Degree),
        );
        let sources = batch_sources(&p, 3);
        for problem in BatchProblem::all() {
            let out = try_run_batch(System::GaloisBlas, problem, &p, &sources);
            for (j, r) in out.iter().enumerate() {
                // Sources are natural-space ids and the references run on
                // the natural graph: a pass means translation in and
                // un-permutation out both happened.
                verify_batch_query(&p, problem, sources[j], r.as_ref().unwrap())
                    .unwrap_or_else(|e| panic!("{problem} query {j} under degree order: {e}"));
            }
        }
    }

    #[test]
    fn wrong_output_kind_is_rejected() {
        let p = prepared();
        let out = ProblemOutput::Triangles(0);
        assert!(verify_batch_query(&p, BatchProblem::Bfs, 0, &out).is_err());
    }
}
