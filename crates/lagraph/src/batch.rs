//! Batched multi-source queries on the matrix API: msBFS.
//!
//! The paper's algorithms answer one source per run; [`batched_bfs`]
//! answers k sources per run by generalizing the frontier vector to an
//! n × k [`MultiVector`] and advancing all columns through the shared
//! adjacency with one [`ops::mxm_frontier`] call per round — the matrix
//! API's natural amortization (one SpGEMM-shaped product instead of k
//! SpMV calls), mirroring GraphBLAST's GPU msBFS.
//!
//! Two invariants the tests pin down:
//!
//! * **Per-column bit-identity.** Each lane executes the exact serial
//!   kernel path (same per-round call sequence, same kernel selection,
//!   same accumulation order), so column `j` equals the serial run from
//!   source `j` bit for bit — at every k, kernel mode and thread count.
//! * **Per-query isolation.** A lane that fails (per-column byte guard,
//!   injected allocation fault, bad source) is recorded in its own
//!   `Result` and excluded from later rounds; sibling queries complete
//!   untouched.

use crate::bfs::BfsResult;
use graph::{CsrGraph, NodeId};
use graphblas::binops::LorLand;
use graphblas::ops::LaneOutcome;
use graphblas::{ops, Descriptor, GrbError, Matrix, MultiVector, Runtime, Vector};

/// Per-lane liveness and failure bookkeeping of the batched driver.
struct Lanes {
    active: Vec<bool>,
    failed: Vec<Option<GrbError>>,
}

impl Lanes {
    fn new(k: usize) -> Self {
        Lanes {
            active: vec![true; k],
            failed: (0..k).map(|_| None).collect(),
        }
    }

    fn fail(&mut self, j: usize, e: GrbError) {
        self.failed[j] = Some(e);
        self.active[j] = false;
    }

    fn retire(&mut self, j: usize) {
        self.active[j] = false;
    }

    fn is_active(&self, j: usize) -> bool {
        self.active[j]
    }

    fn any_active(&self) -> bool {
        self.active.iter().any(|&on| on)
    }

    /// Applies one batched advance's per-lane outcomes; returns the
    /// lanes that advanced this round.
    fn absorb(&mut self, outcomes: Result<Vec<LaneOutcome>, GrbError>) -> Vec<usize> {
        match outcomes {
            Ok(lanes) => {
                let mut advanced = Vec::new();
                for (j, lane) in lanes.into_iter().enumerate() {
                    match lane {
                        LaneOutcome::Advanced => advanced.push(j),
                        LaneOutcome::Failed(e) => self.fail(j, e),
                        LaneOutcome::Skipped => {}
                    }
                }
                advanced
            }
            // Batch-level shape errors cannot be attributed to one lane;
            // they cost every still-active query.
            Err(e) => {
                for j in 0..self.active.len() {
                    if self.active[j] {
                        self.fail(j, e.clone());
                    }
                }
                Vec::new()
            }
        }
    }
}

/// msBFS: level-synchronous BFS from `sources.len()` sources in one
/// levelized sweep.
///
/// Per round, each live lane issues the serial algorithm's masked
/// assign, then **one** [`ops::mxm_frontier`] advances every live
/// frontier column through the adjacency — where k serial runs would
/// issue k separate `vxm` products per level. Column `j` of the result
/// is bit-identical to [`crate::bfs::bfs`] from `sources[j]`.
pub fn batched_bfs<R: Runtime>(
    g: &CsrGraph,
    sources: &[NodeId],
    rt: R,
) -> Vec<Result<BfsResult, GrbError>> {
    let n = g.num_nodes();
    let k = sources.len();
    let a: Matrix<u32> = Matrix::from_graph(g, |_| 1);

    let mut lanes = Lanes::new(k);
    let mut rounds = vec![0u32; k];
    let mut dist: MultiVector<u32> = MultiVector::new(n, k);
    let mut frontier: MultiVector<u32> = MultiVector::new(n, k);
    for (j, &src) in sources.iter().enumerate() {
        let init = ops::assign_scalar(
            dist.lane_mut(j),
            None::<&Vector<bool>>,
            0,
            &Descriptor::new(),
            rt,
        )
        .and_then(|()| frontier.lane_mut(j).set(src, 1));
        if let Err(e) = init {
            lanes.fail(j, e);
        }
    }

    let mut level = 0u32;
    while lanes.any_active() {
        level += 1;
        // Pass 1 per live lane: dist<frontier> = level (the serial
        // call, column-local).
        for j in 0..k {
            if !lanes.is_active(j) {
                continue;
            }
            if let Err(e) = ops::assign_scalar(
                dist.lane_mut(j),
                Some(frontier.lane(j)),
                level,
                &Descriptor::new(),
                rt,
            ) {
                lanes.fail(j, e);
            }
        }
        // Pass 2 per live lane: convergence check.
        for j in 0..k {
            if lanes.is_active(j) && frontier.lane(j).nvals() == 0 {
                lanes.retire(j);
            }
        }
        if !lanes.any_active() {
            break;
        }
        // Pass 3, batched: every live frontier advances through A at
        // once, masked per column by its own dist.
        let mut next: MultiVector<u32> = MultiVector::new(n, k);
        let advanced = lanes.absorb(ops::mxm_frontier(
            &mut next,
            Some(&dist),
            LorLand,
            &frontier,
            &a,
            &Descriptor::replace_complement(),
            &lanes.active.clone(),
            rt,
        ));
        for j in advanced {
            rounds[j] += 1;
            if next.lane(j).is_empty() {
                lanes.retire(j);
            }
        }
        frontier = next;
    }

    (0..k)
        .map(|j| match lanes.failed[j].take() {
            Some(e) => Err(e),
            None => {
                let mut out = vec![0u32; n];
                for (i, v) in dist.lane(j).iter() {
                    if v != 0 {
                        out[i as usize] = v;
                    }
                }
                Ok(BfsResult {
                    level: out,
                    rounds: rounds[j],
                })
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs;
    use graphblas::GaloisRuntime;

    fn diamond() -> CsrGraph {
        graph::builder::from_weighted_edges(
            5,
            [(0, 1, 1), (0, 2, 4), (1, 2, 1), (2, 3, 1), (1, 3, 9), (3, 4, 2)],
        )
    }

    #[test]
    fn batched_bfs_columns_match_serial_runs() {
        let g = graph::gen::rmat(7, 8, graph::gen::RmatParams::default(), 5);
        let sources = [0u32, 3, 17, 0];
        let batched = batched_bfs(&g, &sources, GaloisRuntime);
        for (j, &src) in sources.iter().enumerate() {
            let serial = bfs::bfs(&g, src, GaloisRuntime).unwrap();
            let b = batched[j].as_ref().unwrap();
            assert_eq!(b.level, serial.level, "lane {j}");
            assert_eq!(b.rounds, serial.rounds, "lane {j} rounds");
        }
    }

    #[test]
    fn width_one_batch_equals_serial() {
        let g = diamond();
        let b = batched_bfs(&g, &[0], GaloisRuntime);
        let s = bfs::bfs(&g, 0, GaloisRuntime).unwrap();
        assert_eq!(b[0].as_ref().unwrap(), &s);
    }

    #[test]
    fn empty_batch_is_empty() {
        let g = diamond();
        assert!(batched_bfs(&g, &[], GaloisRuntime).is_empty());
    }

    #[test]
    fn out_of_range_source_fails_only_its_lane() {
        let g = diamond();
        let batched = batched_bfs(&g, &[0, 99, 2], GaloisRuntime);
        assert!(batched[0].is_ok());
        assert!(batched[1].is_err(), "bad source is a lane failure");
        assert!(batched[2].is_ok());
        let serial = bfs::bfs(&g, 2, GaloisRuntime).unwrap();
        assert_eq!(batched[2].as_ref().unwrap(), &serial);
    }
}
