//! Breadth-first search (Algorithm 2 of the paper).
//!
//! A round-based, data-driven, push-style level bfs. Each round issues
//! **three** separate GraphBLAS calls — a masked scalar assign, an `nvals`
//! convergence check and a masked `vxm` — where the Lonestar version fuses
//! everything into one loop (Algorithm 1). That 3-vs-1 pass count is the
//! paper's *lightweight loops* limitation.
//!
//! The algorithm itself stays fixed-strategy push, but under the default
//! `STUDY_KERNEL=auto` policy the `vxm` underneath direction-optimizes
//! per round: sparse early frontiers scatter into pair lanes, saturated
//! mid-frontiers use the dense accumulator, and late rounds pull only
//! the still-unvisited vertices through the complemented mask — the
//! GraphBLAST-style optimization living *below* the API, invisible to
//! this code, so the matrix API needs no separate push/pull bfs.
//! `STUDY_KERNEL=push` restores the paper's cost model.

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
/// Propagates [`GrbError`] from the underlying GraphBLAS calls (only
/// possible if `src` is out of range).
pub fn bfs<R: Runtime>(g: &CsrGraph, src: NodeId, rt: R) -> Result<BfsResult, GrbError> {
    let n = g.num_nodes();
    let a: Matrix<u32> = Matrix::from_graph(g, |_| 1);

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
            &a,
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
}
