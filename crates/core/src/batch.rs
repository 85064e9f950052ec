//! Batched multi-source query cells.
//!
//! A batch cell answers k queries of one problem on one system in a
//! single job. Nothing shares a sweep: the matrix systems (SS, GB) build
//! the adjacency matrix once and run the serial bfs from each source over
//! it ([`lagraph::bfs::bfs_each`]), the graph system (LS) runs its serial
//! worklist bfs once per source. Query `j` therefore executes exactly the
//! serial cell's kernel sequence from `sources[j]`, and a width-1 batch
//! is the serial cell.
//!
//! A batch runs as [`crate::exec::Work::Batch`]: every query is one
//! lane of the job, so a per-lane failure (memory budget, injected
//! fault, bad source) costs that query only, and every ok query is
//! verified independently against the serial reference for **its**
//! source ([`verify_batch_query`]).

use crate::prepared::PreparedGraph;
use crate::problem::{ProblemOutput, System};
use crate::reference;
use crate::verify::VerifyError;
use graph::NodeId;
use graphblas::{GaloisRuntime, GrbError, Runtime, StaticRuntime};

/// The problems with a batched (multi-source) formulation. msBFS is the
/// only one: the service's batch request names it on the wire, and the
/// benchmark's `service-mixed` workload measures it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BatchProblem {
    /// k breadth-first searches, one serial run per source (msBFS).
    Bfs,
}

impl BatchProblem {
    /// The cell label (`bfs-batch`).
    pub fn name(&self) -> &'static str {
        match self {
            BatchProblem::Bfs => "bfs-batch",
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

/// The run stage of a batch job: k queries, k per-query results. The
/// matrix systems return per-lane [`GrbError`]s; the Lonestar runs are
/// infallible.
pub(crate) fn solve(
    system: System,
    problem: BatchProblem,
    p: &PreparedGraph,
    sources: &[NodeId],
) -> Vec<Result<ProblemOutput, GrbError>> {
    let BatchProblem::Bfs = problem;
    match system {
        System::SuiteSparse => lagraph_bfs(p, sources, StaticRuntime),
        System::GaloisBlas => lagraph_bfs(p, sources, GaloisRuntime),
        System::Lonestar => sources
            .iter()
            .map(|&src| {
                Ok(ProblemOutput::Levels(
                    lonestar::bfs::bfs(&p.graph, src).level,
                ))
            })
            .collect(),
    }
}

fn lagraph_bfs<R: Runtime>(
    p: &PreparedGraph,
    sources: &[NodeId],
    rt: R,
) -> Vec<Result<ProblemOutput, GrbError>> {
    lagraph::bfs::bfs_each(&p.graph, sources, rt)
        .into_iter()
        .map(|r| r.map(|b| ProblemOutput::Levels(b.level)))
        .collect()
}

/// Verifies one query of a batched cell against the serial reference
/// **for that query's source**: bfs levels must match exactly.
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
        (problem, output) => fail(format!(
            "output kind {output:?} does not match batched problem {problem}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::{Scale, StudyGraph};

    fn prepared() -> PreparedGraph {
        PreparedGraph::study(StudyGraph::Rmat22, Scale::custom(1.0 / 128.0))
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
    fn verification_rejects_wrong_query_source() {
        let p = prepared();
        let sources = batch_sources(&p, 2);
        assert_ne!(sources[0], sources[1]);
        let out = solve(System::Lonestar, BatchProblem::Bfs, &p, &sources);
        let first = out[0].as_ref().unwrap();
        verify_batch_query(&p, BatchProblem::Bfs, sources[0], first).unwrap();
        assert!(
            verify_batch_query(&p, BatchProblem::Bfs, sources[1], first).is_err(),
            "query 0's answer must not verify against query 1's source"
        );
    }

    #[test]
    fn wrong_output_kind_is_rejected() {
        let p = prepared();
        let out = ProblemOutput::Triangles(0);
        assert!(verify_batch_query(&p, BatchProblem::Bfs, 0, &out).is_err());
    }
}
