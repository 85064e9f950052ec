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
//! this code. `STUDY_KERNEL=push` restores the paper's cost model.

use graph::{CsrGraph, NodeId};
use graphblas::binops::LorLand;
use graphblas::{ops, Accum, Descriptor, GrbError, Matrix, Runtime, Vector};

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

/// Level-synchronous bfs producing a parent tree on the GraphBLAS API
/// (LAGraph's parent-output variant).
///
/// Frontier values carry `vertex id + 1`; expanding with the
/// `(min, first)` semiring makes each newly discovered vertex adopt its
/// **minimum-id** frontier in-neighbor as parent (deterministic). The
/// parent vector, used as a structural mask, doubles as the visited set.
/// Unreached vertices hold `u32::MAX`; `parent[src] == src`.
///
/// # Errors
///
/// Propagates [`GrbError`] from the GraphBLAS calls.
pub fn bfs_parent<R: Runtime>(g: &CsrGraph, src: NodeId, rt: R) -> Result<Vec<u32>, GrbError> {
    use graphblas::binops::{First, MinFirst};

    let n = g.num_nodes();
    let a: Matrix<u32> = Matrix::from_graph(g, |_| 1);
    // parent holds id+1 values so explicit entries are always non-zero.
    let mut parent: Vector<u32> = Vector::new(n);
    parent.set(src, src + 1)?;
    parent.to_dense();
    let mut frontier: Vector<u32> = Vector::new(n);
    frontier.set(src, src + 1)?;

    loop {
        // Pass 1: candidates adopt the min frontier id (+1) as parent,
        // restricted to unvisited vertices via the structural complement.
        let mut next: Vector<u32> = Vector::new(n);
        ops::vxm(
            &mut next,
            Some(&parent),
            MinFirst,
            &frontier,
            &a,
            &Descriptor::replace_complement().with_mask_structural(true),
            rt,
        )?;
        if next.nvals() == 0 {
            break;
        }
        // Pass 2: merge the new parents into the dense parent vector
        // (`parent first= next`; the complemented mask made every entry
        // of `next` new, and First keeps established ones regardless).
        ops::apply(Accum(&mut parent, First), &next, |p| p, rt)?;
        // Pass 3: rebuild the frontier carrying the frontier's own ids.
        let entries: Vec<(u32, u32)> = next.iter().map(|(j, _)| (j, j + 1)).collect();
        frontier = Vector::from_entries(n, entries)?;
    }

    Ok((0..n as u32)
        .map(|i| match parent.get(i) {
            Some(p) => p - 1,
            None => u32::MAX,
        })
        .collect())
}

/// Direction-optimizing bfs on the GraphBLAS API (the GraphBLAST
/// optimization of the paper's related work, §VI): push rounds use `vxm`
/// on the adjacency; once the frontier is heavy, pull rounds use `mxv` on
/// the transpose with the complemented-dist mask restricting work to
/// unvisited rows.
///
/// `gt` is the transpose of `g` (untimed preprocessing).
///
/// # Errors
///
/// Propagates [`GrbError`] from the GraphBLAS calls.
pub fn bfs_push_pull<R: Runtime>(
    g: &CsrGraph,
    gt: &CsrGraph,
    src: NodeId,
    rt: R,
) -> Result<BfsResult, GrbError> {
    const ALPHA: usize = 15;
    let n = g.num_nodes();
    assert_eq!(gt.num_nodes(), n, "transpose must match the graph");
    let a: Matrix<u32> = Matrix::from_graph(g, |_| 1);
    let at: Matrix<u32> = Matrix::from_graph(gt, |_| 1);

    let mut dist: Vector<u32> = Vector::new(n);
    ops::assign_scalar(&mut dist, None::<&Vector<bool>>, 0, &Descriptor::new(), rt)?;
    let mut frontier: Vector<u32> = Vector::new(n);
    frontier.set(src, 1)?;

    let mut level = 0u32;
    let mut rounds = 0u32;
    loop {
        level += 1;
        ops::assign_scalar(&mut dist, Some(&frontier), level, &Descriptor::new(), rt)?;
        if frontier.nvals() == 0 {
            break;
        }
        let frontier_edges: usize = frontier
            .iter()
            .map(|(i, _)| g.out_degree(i))
            .sum();
        let mut next: Vector<u32> = Vector::new(n);
        if frontier_edges * ALPHA > g.num_edges() {
            // Pull: unvisited rows of Aᵀ OR-AND the frontier.
            frontier.to_dense();
            ops::mxv(
                &mut next,
                Some(&dist),
                LorLand,
                &at,
                &frontier,
                &Descriptor::replace_complement(),
                rt,
            )?;
        } else {
            ops::vxm(
                &mut next,
                Some(&dist),
                LorLand,
                &frontier,
                &a,
                &Descriptor::replace_complement(),
                rt,
            )?;
        }
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
    use graph::transform::transpose;
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

    #[test]
    fn push_pull_matches_plain_bfs() {
        for seed in 0..3 {
            let g = graph::gen::rmat(9, 16, graph::gen::RmatParams::default(), seed);
            let gt = transpose(&g);
            let src = g.max_out_degree_node();
            let plain = bfs(&g, src, GaloisRuntime).unwrap();
            let pp = bfs_push_pull(&g, &gt, src, GaloisRuntime).unwrap();
            assert_eq!(plain.level, pp.level, "seed {seed}");
        }
    }

    #[test]
    fn parent_tree_on_a_path() {
        let g = from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let p = bfs_parent(&g, 0, GaloisRuntime).unwrap();
        assert_eq!(p, vec![0, 0, 1, 2]);
    }

    #[test]
    fn parent_tree_picks_min_id_parent() {
        // Both 1 and 2 reach 3 at the same level; MinFirst picks 1.
        let g = from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        let p = bfs_parent(&g, 0, GaloisRuntime).unwrap();
        assert_eq!(p, vec![0, 0, 0, 1]);
    }

    #[test]
    fn parent_tree_marks_unreached() {
        let g = from_edges(3, [(0, 1)]);
        let p = bfs_parent(&g, 0, GaloisRuntime).unwrap();
        assert_eq!(p, vec![0, 0, u32::MAX]);
    }

    #[test]
    fn push_pull_on_path_stays_push() {
        let g = from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let gt = transpose(&g);
        let r = bfs_push_pull(&g, &gt, 0, GaloisRuntime).unwrap();
        assert_eq!(r.level, vec![1, 2, 3, 4]);
    }
}
