//! Breadth-first search (Algorithm 2 of the paper).
//!
//! A round-based, data-driven, push-style level bfs. Each round issues
//! **three** separate GraphBLAS calls — a masked scalar assign, an `nvals`
//! convergence check and a masked `vxm` — where the Lonestar version fuses
//! everything into one loop (Algorithm 1). That 3-vs-1 pass count is the
//! paper's *lightweight loops* limitation.
//!
//! The algorithm is push in every round, as LAGraph's basic bfs is. Under
//! the default [`ops::Policy`] the `vxm` underneath picks its accumulator
//! per round: sparse frontiers scatter into pair lanes, saturated ones
//! into the dense accumulator. A policy forcing push-dense
//! (`STUDY_KERNEL=push`) restores the paper's cost model. `vxm` never
//! pulls: a direction-optimizing bfs would pull the way LAGraph does,
//! with `mxv` over a transpose prepared before the clock starts, chosen
//! by the algorithm rather than below the API.

use graph::{CsrGraph, NodeId};
use graphblas::binops::LorLand;
use graphblas::{ops, Descriptor, GrbError, Matrix, Runtime, Vector};

/// Levels produced by [`bfs`]: `level[src] == 1`, unreached vertices hold
/// `0` (LAGraph's convention).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsResult {
    /// Per-vertex level (0 = unreached, source = 1).
    pub level: Vec<u32>,
    /// Number of rounds (vector-matrix products) executed.
    pub rounds: u32,
}

/// Runs LAGraph's basic bfs from `src` on the out-adjacency of `g`.
///
/// # Errors
///
/// Propagates [`GrbError`] from the underlying GraphBLAS calls:
/// [`GrbError::IndexOutOfBounds`] when `src` is out of range, and
/// [`GrbError::ResourceExhausted`] when a round's `vxm` accumulator does
/// not fit the calling thread's [`ops::Policy::budget`] or an injected
/// `grb.alloc.accumulator` fault fires.
pub fn bfs<R: Runtime>(g: &CsrGraph, src: NodeId, rt: R) -> Result<BfsResult, GrbError> {
    bfs_on(&Matrix::from_graph(g, |_| 1), src, rt)
}

/// Runs [`bfs`] once per source over one adjacency matrix, built once.
/// Query `j` is exactly `bfs(g, sources[j])` and fails alone; its
/// siblings still run.
///
/// # Errors
///
/// Each query carries its own error, as [`bfs`] describes: an
/// out-of-range source, or a `vxm` accumulator over the memory budget or
/// felled by an injected `grb.alloc.accumulator` fault.
pub fn bfs_each<R: Runtime>(
    g: &CsrGraph,
    sources: &[NodeId],
    rt: R,
) -> Vec<Result<BfsResult, GrbError>> {
    let a: Matrix<u32> = Matrix::from_graph(g, |_| 1);
    sources.iter().map(|&src| bfs_on(&a, src, rt)).collect()
}

fn bfs_on<R: Runtime>(a: &Matrix<u32>, src: NodeId, rt: R) -> Result<BfsResult, GrbError> {
    let n = a.nrows();

    // dist must be dense: GrB_assign(dist, ..., 0, GrB_ALL, ...).
    let mut dist: Vector<u32> = Vector::new(n);
    ops::assign_scalar(&mut dist, None::<&Vector<bool>>, 0, &Descriptor::new(), rt)?;

    // frontier starts as the source alone.
    let mut frontier: Vector<u32> = Vector::new(n);
    frontier.set(src, 1)?;

    let mut level = 0u32;
    let mut rounds = 0u32;
    loop {
        level += 1;
        // Pass 1: dist<frontier> = level.
        ops::assign_scalar(&mut dist, Some(&frontier), level, &Descriptor::new(), rt)?;
        // Pass 2: convergence check.
        if frontier.nvals() == 0 {
            break;
        }
        // Pass 3: frontier<!dist> = frontier lor.land A, with replace.
        let mut next: Vector<u32> = Vector::new(n);
        ops::vxm(
            &mut next,
            Some(&dist),
            LorLand,
            &frontier,
            a,
            &Descriptor::replace_complement(),
            rt,
        )?;
        frontier = next;
        rounds += 1;
        if frontier.is_empty() {
            break;
        }
    }

    let mut out = vec![0u32; n];
    for (i, v) in dist.iter() {
        if v != 0 {
            out[i as usize] = v;
        }
    }
    Ok(BfsResult { level: out, rounds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::builder::from_edges;
    use graphblas::{GaloisRuntime, StaticRuntime};

    #[test]
    fn levels_on_a_path() {
        let g = from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let r = bfs(&g, 0, GaloisRuntime).unwrap();
        assert_eq!(r.level, vec![1, 2, 3, 4]);
        assert_eq!(r.rounds, 4, "one vxm per level plus the empty round");
    }

    #[test]
    fn unreachable_vertices_stay_zero() {
        let g = from_edges(4, [(0, 1), (2, 3)]);
        let r = bfs(&g, 0, GaloisRuntime).unwrap();
        assert_eq!(r.level, vec![1, 2, 0, 0]);
    }

    #[test]
    fn shortest_hops_win_on_diamond() {
        // 0 -> 1 -> 3, 0 -> 2 -> 3, 0 -> 3
        let g = from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)]);
        let r = bfs(&g, 0, GaloisRuntime).unwrap();
        assert_eq!(r.level, vec![1, 2, 2, 2]);
    }

    #[test]
    fn backends_agree() {
        let g = graph::gen::rmat(8, 8, graph::gen::RmatParams::default(), 11);
        let src = g.max_out_degree_node();
        let ss = bfs(&g, src, StaticRuntime).unwrap();
        let gb = bfs(&g, src, GaloisRuntime).unwrap();
        assert_eq!(ss.level, gb.level);
    }

    #[test]
    fn self_loop_source_only() {
        let g = from_edges(2, [(0, 0)]);
        let r = bfs(&g, 0, GaloisRuntime).unwrap();
        assert_eq!(r.level, vec![1, 0]);
    }

    fn diamond() -> CsrGraph {
        graph::builder::from_weighted_edges(
            5,
            [(0, 1, 1), (0, 2, 4), (1, 2, 1), (2, 3, 1), (1, 3, 9), (3, 4, 2)],
        )
    }

    #[test]
    fn bfs_each_queries_match_serial_runs() {
        let g = graph::gen::rmat(7, 8, graph::gen::RmatParams::default(), 5);
        let sources = [0u32, 3, 17, 0];
        let each = bfs_each(&g, &sources, GaloisRuntime);
        for (j, &src) in sources.iter().enumerate() {
            let serial = bfs(&g, src, GaloisRuntime).unwrap();
            let b = each[j].as_ref().unwrap();
            assert_eq!(b.level, serial.level, "query {j}");
            assert_eq!(b.rounds, serial.rounds, "query {j} rounds");
        }
    }

    #[test]
    fn bfs_each_width_one_equals_serial() {
        let g = diamond();
        let b = bfs_each(&g, &[0], GaloisRuntime);
        let s = bfs(&g, 0, GaloisRuntime).unwrap();
        assert_eq!(b[0].as_ref().unwrap(), &s);
    }

    #[test]
    fn bfs_each_of_no_sources_is_empty() {
        let g = diamond();
        assert!(bfs_each(&g, &[], GaloisRuntime).is_empty());
    }

    #[test]
    fn out_of_range_source_fails_only_its_query() {
        let g = diamond();
        let each = bfs_each(&g, &[0, 99, 2], GaloisRuntime);
        assert!(each[0].is_ok());
        assert!(each[1].is_err(), "bad source is a query failure");
        assert!(each[2].is_ok());
        let serial = bfs(&g, 2, GaloisRuntime).unwrap();
        assert_eq!(each[2].as_ref().unwrap(), &serial);
    }
}
