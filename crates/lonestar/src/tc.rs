//! Triangle counting by listing on a degree-sorted graph (`tc-ls`).
//!
//! The algorithm the study's Lonestar uses: relabel vertices by degree
//! (preprocessing, untimed), then for every edge `(v, u)` with `v < u`
//! intersect the neighbor lists counting common vertices `w > u`
//! (runtime symmetry breaking: each triangle `v < u < w` counted once).
//! The count lives in a per-thread reducer — **nothing is materialized**,
//! which is exactly what separates `ls` from `gb-ll` in Figure 3(b) and
//! Table V.

use galois_rt::ReduceSum;
use graph::{CsrGraph, NodeId};

/// Counts triangles of a **symmetric, loop-free, degree-sorted** graph.
///
/// The caller performs the degree relabeling
/// ([`graph::transform::sort_by_degree`]); the paper treats that as
/// untimed preprocessing shared with the `gb-sort`/`gb-ll` variants.
pub fn tc(sorted: &CsrGraph) -> u64 {
    let pm = perfmon::probe();
    let count = ReduceSum::new();
    galois_rt::do_all(0..sorted.num_nodes(), |v| {
        let v = v as NodeId;
        let vn = sorted.neighbor_slice(v);
        for (i, &u) in vn.iter().enumerate() {
            pm.instr(1);
            pm.touch_ref(&vn[i]);
            // Runtime symmetry breaking: orient v < u.
            if u <= v {
                continue;
            }
            let un = sorted.neighbor_slice(u);
            // Merge-intersect the tails of both sorted lists (w > u).
            let (mut p, mut q) = (i + 1, 0usize);
            while p < vn.len() && q < un.len() {
                pm.instr(2);
                pm.touch_ref(&vn[p]);
                pm.touch_ref(&un[q]);
                if un[q] <= u {
                    q += 1;
                    continue;
                }
                match vn[p].cmp(&un[q]) {
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                    std::cmp::Ordering::Equal => {
                        count.add(1);
                        p += 1;
                        q += 1;
                    }
                }
            }
        }
    });
    count.reduce()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::builder::GraphBuilder;
    use graph::transform::{sort_by_degree, symmetrize};

    fn sym(edges: &[(u32, u32)], n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for &(s, d) in edges {
            b.push_edge(s, d, 1);
        }
        symmetrize(&b.build())
    }

    #[test]
    fn one_triangle() {
        let g = sym(&[(0, 1), (1, 2), (0, 2)], 3);
        assert_eq!(tc(&g), 1);
    }

    #[test]
    fn k4_has_four_triangles() {
        let g = sym(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4);
        assert_eq!(tc(&g), 4);
    }

    #[test]
    fn cycle_has_none() {
        let g = sym(&[(0, 1), (1, 2), (2, 3), (3, 0)], 4);
        assert_eq!(tc(&g), 0);
    }

    #[test]
    fn sorting_preserves_count() {
        let g = sym(&[(0, 1), (1, 2), (0, 2), (2, 3), (3, 0)], 4);
        let (sorted, _) = sort_by_degree(&g);
        assert_eq!(tc(&g), tc(&sorted));
    }

    #[test]
    fn matches_lagraph_on_study_shapes() {
        for seed in 0..2 {
            let g = symmetrize(&graph::gen::web_crawl(3, 40, seed));
            let (sorted, _) = sort_by_degree(&g);
            let ls = tc(&sorted);
            let gb = lagraph::tc::tc_sandia_dot(&g, graphblas::GaloisRuntime).unwrap();
            let ll = lagraph::tc::tc_listing(&sorted, graphblas::GaloisRuntime).unwrap();
            assert_eq!(ls, gb.triangles, "seed {seed}");
            assert_eq!(ls, ll.triangles, "seed {seed}");
        }
    }

    #[test]
    fn dense_community_graph_counts_match() {
        let g = symmetrize(&graph::gen::community(100, 10, 3).into_unweighted());
        let (sorted, _) = sort_by_degree(&g);
        let gb = lagraph::tc::tc_sandia_dot(&g, graphblas::GaloisRuntime).unwrap();
        assert_eq!(tc(&sorted), gb.triangles);
    }
}
