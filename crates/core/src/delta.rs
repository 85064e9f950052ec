//! Streaming-update cells: the incremental dimension.
//!
//! An incremental cell starts from a converged answer on the base graph,
//! absorbs a stream of [`EdgeBatch`] updates through a [`DeltaGraph`],
//! and repairs the answer after every batch instead of recomputing from
//! scratch. The API contrast the study asks about is baked into the
//! dispatch: the matrix systems (SS, GB) must **materialize** the merged
//! graph and rebuild their `Matrix` per batch (`lagraph::incremental`),
//! while the graph system (LS) traverses the delta's merged view
//! directly (`lonestar::incremental`).
//!
//! Policy decisions live here, not in the algorithm crates:
//!
//! * batches with **effective deletes** fall back to a cold start of the
//!   same routine (deletions can raise bfs levels and split components;
//!   pagerank's fixed point is start-independent, so it always
//!   warm-starts);
//! * cc maintains a **symmetrized** delta (each update is applied via
//!   [`EdgeBatch::symmetrized`]) over the prepared symmetric view;
//! * after the stream drains, the delta is **force-compacted** and the
//!   resulting snapshot rides along in the [`IncrementalRun`] so
//!   verification ([`verify_incremental`]) can replay the problem
//!   from scratch on exactly the merged graph;
//! * the whole dimension runs in **natural id space**: updates arrive
//!   with original vertex ids and the delta stacks on the natural CSR,
//!   regardless of `STUDY_ORDER`. Reordering applies to frozen
//!   snapshots at publish time (`PreparedGraph::from_graph`, e.g. a
//!   service-catalog compaction), never to the mutable overlay.

use crate::cell::{self, CellOutcome, CellStatus};
use crate::prepared::PreparedGraph;
use crate::problem::{ProblemOutput, System};
use crate::reference;
use crate::verify::VerifyError;
use graph::delta::{DeltaGraph, EdgeBatch, EdgeUpdate};
use graph::{CsrGraph, NodeId};
use graphblas::{GaloisRuntime, GrbError, Runtime, StaticRuntime};
use std::sync::Arc;
use std::time::{Duration, Instant};
use substrate::rng::Rng;

/// The problems with an incremental formulation: the converged-answer
/// problems a repair can patch. (sssp/tc/ktruss recompute on the
/// compacted snapshot instead; they are not part of this dimension.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IncProblem {
    /// bfs levels repaired by frontier re-advance from dirty vertices.
    Bfs,
    /// Component labels repaired by union/hooking over inserted edges.
    Cc,
    /// PageRank re-converged from the stale ranks (residual re-seeding).
    Pr,
}

impl IncProblem {
    /// All incremental problems, report order.
    pub fn all() -> [IncProblem; 3] {
        [IncProblem::Bfs, IncProblem::Cc, IncProblem::Pr]
    }

    /// The cell label (`bfs-inc` / `cc-inc` / `pr-inc`).
    pub fn name(&self) -> &'static str {
        match self {
            IncProblem::Bfs => "bfs-inc",
            IncProblem::Cc => "cc-inc",
            IncProblem::Pr => "pr-inc",
        }
    }
}

impl std::fmt::Display for IncProblem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Generates a deterministic update stream for `g`: `batches` batches of
/// `edges_per_batch` ops each. Most ops insert a random non-loop edge
/// (uniform endpoints, weights 1..=1000 on weighted graphs); every 8th
/// op deletes a uniformly random **snapshot** edge, so delete fallback
/// paths are exercised on every stream of at least 8 ops.
pub fn update_batches(
    g: &CsrGraph,
    batches: usize,
    edges_per_batch: usize,
    seed: u64,
) -> Vec<EdgeBatch> {
    let mut rng = Rng::seed_from_u64(seed);
    let n = g.num_nodes() as u32;
    let m = g.num_edges();
    let weighted = g.is_weighted();
    let mut op_idx = 0u64;
    (0..batches)
        .map(|_| {
            let mut batch = EdgeBatch::new();
            for _ in 0..edges_per_batch {
                op_idx += 1;
                if op_idx.is_multiple_of(8) && m > 0 {
                    // Delete a random edge of the *base* snapshot (it may
                    // already be gone — a recorded no-op, also worth
                    // exercising).
                    let e = rng.gen_range(0..m);
                    let src = (g.offsets().partition_point(|&o| o <= e) - 1) as NodeId;
                    batch.push(EdgeUpdate::Delete {
                        src,
                        dst: g.dests()[e],
                    });
                } else {
                    let src = rng.gen_range(0..n.max(2));
                    let mut dst = rng.gen_range(0..n.max(2));
                    while dst == src {
                        dst = rng.gen_range(0..n.max(2));
                    }
                    let weight = weighted.then(|| rng.gen_range(1..=1000u32));
                    batch.push(EdgeUpdate::Insert { src, dst, weight });
                }
            }
            batch
        })
        .collect()
}

/// An incremental cell's failure: an algorithm-layer [`GrbError`] or a
/// delta-layer fault (a recoverable compaction failure).
#[derive(Debug, Clone, PartialEq)]
pub enum IncError {
    /// A GraphBLAS call failed.
    Grb(GrbError),
    /// The delta subsystem failed (e.g. the `delta.compact.alloc` fault
    /// point fired).
    Delta(String),
}

impl std::fmt::Display for IncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IncError::Grb(e) => write!(f, "{e}"),
            IncError::Delta(msg) => write!(f, "delta: {msg}"),
        }
    }
}

impl std::error::Error for IncError {}

impl From<GrbError> for IncError {
    fn from(e: GrbError) -> Self {
        IncError::Grb(e)
    }
}

/// The completed run of one incremental cell.
#[derive(Debug, Clone)]
pub struct IncrementalRun {
    /// The final repaired answer (after the whole stream).
    pub output: ProblemOutput,
    /// The force-compacted merged graph — verification ground truth.
    pub snapshot: CsrGraph,
    /// Total edge-update ops absorbed.
    pub absorbed: u64,
    /// Update batches absorbed.
    pub batches: u64,
    /// Compactions performed (auto + the final forced one).
    pub compactions: u64,
    /// Wall-clock spent absorbing updates (apply + repair, excluding the
    /// initial converged run) — the bench's staleness numerator.
    pub update_wall: Duration,
}

/// The dirty-seed list for a bfs repair: every insert `u -> v` whose
/// source was reached lets `v` be reached at `old_level[u] + 1`.
fn bfs_dirty_seeds(batch: &EdgeBatch, old_level: &[u32]) -> Vec<(NodeId, u32)> {
    batch
        .ops()
        .iter()
        .filter_map(|op| match *op {
            EdgeUpdate::Insert { src, dst, .. } => {
                let l = *old_level.get(src as usize)?;
                (l > 0).then_some((dst, l + 1))
            }
            EdgeUpdate::Delete { .. } => None,
        })
        .collect()
}

/// The inserted endpoints of a batch, for union-repair.
fn insert_endpoints(batch: &EdgeBatch) -> Vec<(NodeId, NodeId)> {
    batch
        .ops()
        .iter()
        .filter(|op| !op.is_delete())
        .map(EdgeUpdate::endpoints)
        .collect()
}

/// Runs one incremental (problem, system) cell: converge on the base
/// graph, absorb every batch with repair (or delete fallback), force a
/// final compaction.
///
/// # Errors
///
/// Propagates algorithm-layer [`GrbError`]s and recoverable delta-layer
/// failures as [`IncError`].
pub fn try_run_incremental(
    system: System,
    problem: IncProblem,
    p: &PreparedGraph,
    updates: &[EdgeBatch],
) -> Result<IncrementalRun, IncError> {
    match system {
        System::SuiteSparse => run_lagraph_incremental(problem, p, updates, StaticRuntime),
        System::GaloisBlas => run_lagraph_incremental(problem, p, updates, GaloisRuntime),
        System::Lonestar => run_lonestar_incremental(problem, p, updates),
    }
}

/// The matrix-API path: every batch is absorbed by materializing the
/// merged graph and handing the rebuilt view to `lagraph::incremental`
/// (the `Matrix::from_graph` rebuild is the matrix API's absorption
/// cost).
fn run_lagraph_incremental<R: Runtime>(
    problem: IncProblem,
    p: &PreparedGraph,
    updates: &[EdgeBatch],
    rt: R,
) -> Result<IncrementalRun, IncError> {
    let absorbed: u64 = updates.iter().map(|b| b.len() as u64).sum();
    match problem {
        IncProblem::Bfs => {
            let mut delta = DeltaGraph::new(p.graph.clone());
            let mut level =
                lagraph::incremental::bfs_repair(&p.graph, &[], &[(p.source, 1)], rt)?;
            let start = Instant::now();
            for batch in updates {
                let seeds = bfs_dirty_seeds(batch, &level);
                let stats = delta.apply(batch).map_err(IncError::Delta)?;
                let merged = delta.materialize();
                level = if stats.effective_deletes() {
                    lagraph::incremental::bfs_repair(&merged, &[], &[(p.source, 1)], rt)?
                } else {
                    lagraph::incremental::bfs_repair(&merged, &level, &seeds, rt)?
                };
            }
            finish(delta, ProblemOutput::Levels(level), absorbed, updates, start)
        }
        IncProblem::Cc => {
            let mut delta = DeltaGraph::new(p.symmetric.clone());
            let mut labels = lagraph::cc::connected_components(&p.symmetric, rt)?.component;
            let start = Instant::now();
            for batch in updates {
                let sym = batch.symmetrized();
                let stats = delta.apply(&sym).map_err(IncError::Delta)?;
                let merged = delta.materialize();
                labels = if stats.effective_deletes() {
                    lagraph::cc::connected_components(&merged, rt)?.component
                } else {
                    lagraph::incremental::components_incremental(&merged, &labels, rt)?.component
                };
            }
            finish(delta, ProblemOutput::Components(labels), absorbed, updates, start)
        }
        IncProblem::Pr => {
            let mut delta = DeltaGraph::new(p.graph.clone());
            let (mut ranks, _) = lagraph::incremental::pagerank_converging(&p.graph, None, rt)?;
            let start = Instant::now();
            for batch in updates {
                delta.apply(batch).map_err(IncError::Delta)?;
                let merged = delta.materialize();
                // The residual fixed point is start-independent, so a
                // warm start survives deletes too.
                let (next, _) =
                    lagraph::incremental::pagerank_converging(&merged, Some(&ranks), rt)?;
                ranks = next;
            }
            finish(delta, ProblemOutput::Ranks(ranks), absorbed, updates, start)
        }
    }
}

/// The graph-API path: `lonestar::incremental` traverses the delta's
/// merged view directly — no per-batch materialization.
fn run_lonestar_incremental(
    problem: IncProblem,
    p: &PreparedGraph,
    updates: &[EdgeBatch],
) -> Result<IncrementalRun, IncError> {
    let absorbed: u64 = updates.iter().map(|b| b.len() as u64).sum();
    match problem {
        IncProblem::Bfs => {
            let mut delta = DeltaGraph::new(p.graph.clone());
            let mut level = lonestar::incremental::bfs_repair(&delta, &[], &[(p.source, 1)]);
            let start = Instant::now();
            for batch in updates {
                let seeds = bfs_dirty_seeds(batch, &level);
                let stats = delta.apply(batch).map_err(IncError::Delta)?;
                level = if stats.effective_deletes() {
                    lonestar::incremental::bfs_repair(&delta, &[], &[(p.source, 1)])
                } else {
                    lonestar::incremental::bfs_repair(&delta, &level, &seeds)
                };
            }
            finish(delta, ProblemOutput::Levels(level), absorbed, updates, start)
        }
        IncProblem::Cc => {
            let mut delta = DeltaGraph::new(p.symmetric.clone());
            let mut labels = lonestar::incremental::cc_scratch(&delta);
            let start = Instant::now();
            for batch in updates {
                let sym = batch.symmetrized();
                let inserts = insert_endpoints(&sym);
                let stats = delta.apply(&sym).map_err(IncError::Delta)?;
                labels = if stats.effective_deletes() {
                    lonestar::incremental::cc_scratch(&delta)
                } else {
                    lonestar::incremental::cc_repair(&labels, &inserts, delta.num_nodes())
                };
            }
            finish(delta, ProblemOutput::Components(labels), absorbed, updates, start)
        }
        IncProblem::Pr => {
            let mut delta = DeltaGraph::new(p.graph.clone());
            let (mut ranks, _) = lonestar::incremental::pagerank_delta(&delta, None);
            let start = Instant::now();
            for batch in updates {
                delta.apply(batch).map_err(IncError::Delta)?;
                let (next, _) = lonestar::incremental::pagerank_delta(&delta, Some(&ranks));
                ranks = next;
            }
            finish(delta, ProblemOutput::Ranks(ranks), absorbed, updates, start)
        }
    }
}

/// Force-compacts the drained delta and assembles the run record.
fn finish(
    mut delta: DeltaGraph,
    output: ProblemOutput,
    absorbed: u64,
    updates: &[EdgeBatch],
    start: Instant,
) -> Result<IncrementalRun, IncError> {
    delta.compact().map_err(IncError::Delta)?;
    let update_wall = start.elapsed();
    Ok(IncrementalRun {
        output,
        snapshot: delta.snapshot().clone(),
        absorbed,
        batches: updates.len() as u64,
        compactions: delta.compactions(),
        update_wall,
    })
}

/// Runs one incremental cell under the study's isolation boundary: a
/// crash-injected compaction (the `delta.compact.commit` panic) or a
/// wedged repair costs this cell, not the sweep.
pub fn run_incremental_cell(
    system: System,
    problem: IncProblem,
    p: &Arc<PreparedGraph>,
    updates: &[EdgeBatch],
) -> CellOutcome<IncrementalRun> {
    let p2 = Arc::clone(p);
    let ups = updates.to_vec();
    let out = cell::run_protected(cell::cell_timeout_from_env(), move || {
        Ok(try_run_incremental(system, problem, &p2, &ups))
    });
    match out.value {
        Some(Ok(run)) => CellOutcome {
            status: CellStatus::Ok,
            error: None,
            value: Some(run),
        },
        Some(Err(e)) => CellOutcome {
            status: match e {
                IncError::Grb(GrbError::ResourceExhausted { .. }) => CellStatus::Oom,
                _ => CellStatus::Failed,
            },
            error: Some(e.to_string()),
            value: None,
        },
        None => CellOutcome {
            status: out.status,
            error: out.error,
            value: None,
        },
    }
}

/// Verifies an incremental run against a from-scratch serial recompute
/// on the **compacted snapshot**: bfs levels and component labels must
/// match bit-exactly, pagerank within an absolute `1e-9` of the
/// converged reference (both sides converge to residual `1e-12`, leaving
/// at most ~`5.7e-12` per-entry error each — far inside the band).
///
/// # Errors
///
/// Returns a [`VerifyError`] describing the first mismatch.
pub fn verify_incremental(
    p: &PreparedGraph,
    problem: IncProblem,
    run: &IncrementalRun,
) -> Result<(), VerifyError> {
    let fail = |message: String| Err(VerifyError { message });
    match (problem, &run.output) {
        (IncProblem::Bfs, ProblemOutput::Levels(levels)) => {
            let expected = reference::bfs_levels(&run.snapshot, p.source);
            if levels != &expected {
                return fail("incremental bfs disagrees with from-scratch on the snapshot".into());
            }
            Ok(())
        }
        (IncProblem::Cc, ProblemOutput::Components(labels)) => {
            let expected = reference::components(&run.snapshot);
            if labels != &expected {
                return fail("incremental cc labels disagree with from-scratch minima".into());
            }
            Ok(())
        }
        (IncProblem::Pr, ProblemOutput::Ranks(ranks)) => {
            let expected = reference::pagerank_converged(&run.snapshot, 1e-12);
            if ranks.len() != expected.len() {
                return fail("incremental pr length mismatch".into());
            }
            for (v, (a, b)) in ranks.iter().zip(expected.iter()).enumerate() {
                if (a - b).abs() > 1e-9 {
                    return fail(format!("incremental pr mismatch at vertex {v}: {a} vs {b}"));
                }
            }
            Ok(())
        }
        (problem, output) => fail(format!(
            "output kind {output:?} does not match incremental problem {problem}"
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
    fn update_stream_is_seed_deterministic() {
        let p = prepared();
        let a = update_batches(&p.graph, 3, 16, 7);
        let b = update_batches(&p.graph, 3, 16, 7);
        let c = update_batches(&p.graph, 3, 16, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|batch| batch.len() == 16));
        assert!(
            a.iter().any(EdgeBatch::has_deletes),
            "every 8th op is a delete"
        );
    }

    #[test]
    fn every_system_and_problem_verifies() {
        let p = prepared();
        let updates = update_batches(&p.graph, 3, 16, 42);
        for problem in IncProblem::all() {
            for system in System::all() {
                let out = run_incremental_cell(system, problem, &p, &updates);
                assert!(out.is_ok(), "{system} {problem}: {:?}", out.error);
                let run = out.value.unwrap();
                assert_eq!(run.batches, 3);
                assert_eq!(run.absorbed, 48);
                assert!(run.compactions >= 1, "final compaction is forced");
                verify_incremental(&p, problem, &run)
                    .unwrap_or_else(|e| panic!("{system} {problem}: {e}"));
            }
        }
    }

    #[test]
    fn systems_agree_on_the_final_snapshot() {
        let p = prepared();
        let updates = update_batches(&p.graph, 2, 24, 5);
        let ss = try_run_incremental(System::SuiteSparse, IncProblem::Bfs, &p, &updates).unwrap();
        let ls = try_run_incremental(System::Lonestar, IncProblem::Bfs, &p, &updates).unwrap();
        assert_eq!(ss.snapshot, ls.snapshot, "merged state is API-independent");
        assert_eq!(ss.output, ls.output, "bfs repair is bit-exact across APIs");
    }

    #[test]
    fn delete_fallback_still_verifies() {
        let p = prepared();
        // A pure-delete batch: remove vertex 0's first snapshot edge.
        let dst = p.graph.neighbors(p.source).next().expect("source has edges");
        let updates = vec![EdgeBatch::new().delete(p.source, dst)];
        for problem in IncProblem::all() {
            for system in System::all() {
                let run = try_run_incremental(system, problem, &p, &updates)
                    .unwrap_or_else(|e| panic!("{system} {problem}: {e}"));
                verify_incremental(&p, problem, &run)
                    .unwrap_or_else(|e| panic!("{system} {problem}: {e}"));
            }
        }
    }

    #[test]
    fn wrong_output_kind_is_rejected() {
        let p = prepared();
        let run = IncrementalRun {
            output: ProblemOutput::Triangles(0),
            snapshot: p.graph.clone(),
            absorbed: 0,
            batches: 0,
            compactions: 0,
            update_wall: Duration::ZERO,
        };
        assert!(verify_incremental(&p, IncProblem::Bfs, &run).is_err());
    }
}
