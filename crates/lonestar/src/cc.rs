//! Connected components with the graph API: Afforest (`cc-ls`) and
//! asynchronous Shiloach-Vishkin (`cc-ls-sv`).
//!
//! Afforest [Sutton et al., IPDPS 2018] is the paper's prime example of a
//! *fine-grained vertex operation* the matrix API cannot express: it links
//! only a small **sample** of each vertex's edges, detects the emerging
//! giant component by sampling vertex roots, and then finishes only the
//! vertices outside it. Shiloach-Vishkin here performs **unbounded**
//! pointer jumping — each `find` short-circuits the whole parent chain —
//! unlike the fixed bulk jump per round the matrix API allows.

use graph::{CsrGraph, NodeId};
use perfmon::Probe;
use std::sync::atomic::{AtomicU32, Ordering};

/// Result of a graph-API connected-components run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CcResult {
    /// Per-vertex component label, normalized to the minimum vertex id of
    /// the component (comparable with the LAGraph output).
    pub component: Vec<u32>,
    /// Rounds (Shiloach-Vishkin) or phases (Afforest) executed.
    pub rounds: u32,
}

/// Lock-free union-find hook: links the trees of `u` and `v`, always
/// hooking the higher root under the lower (GAPBS-style `Link`).
fn link(u: NodeId, v: NodeId, parent: &[AtomicU32], pm: Probe) {
    let mut p1 = parent[u as usize].load(Ordering::Relaxed);
    let mut p2 = parent[v as usize].load(Ordering::Relaxed);
    while p1 != p2 {
        pm.instr(3);
        let (high, low) = if p1 > p2 { (p1, p2) } else { (p2, p1) };
        pm.touch_ref(&parent[high as usize]);
        // Hook only roots: try to swing `high` (if it is still a root).
        if parent[high as usize]
            .compare_exchange(high, low, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            return;
        }
        p1 = parent[parent[high as usize].load(Ordering::Relaxed) as usize]
            .load(Ordering::Relaxed);
        p2 = parent[low as usize].load(Ordering::Relaxed);
    }
}

/// Fully compresses every parent chain (one bulk pass at the end).
fn compress_all(parent: &[AtomicU32], pm: Probe) {
    galois_rt::do_all(0..parent.len(), |v| {
        pm.instr(1);
        let mut root = parent[v].load(Ordering::Relaxed);
        pm.touch_ref(&parent[v]);
        while parent[root as usize].load(Ordering::Relaxed) != root {
            pm.instr(1);
            root = parent[root as usize].load(Ordering::Relaxed);
        }
        parent[v].store(root, Ordering::Relaxed);
    });
}

fn labels(parent: Vec<AtomicU32>) -> Vec<u32> {
    parent.into_iter().map(AtomicU32::into_inner).collect()
}

/// Afforest connected components on a **symmetric** graph.
///
/// `neighbor_rounds` is the number of sampled edges per vertex in the
/// subgraph-sampling phase (2 in the original paper and in Lonestar).
pub fn afforest(g: &CsrGraph, neighbor_rounds: usize) -> CcResult {
    let pm = perfmon::probe();
    let n = g.num_nodes();
    let parent: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let mut phases = 0u32;

    // Phase 1: link only the first `neighbor_rounds` edges of each vertex
    // — the fine-grained sampling a bulk API cannot express.
    for r in 0..neighbor_rounds {
        phases += 1;
        galois_rt::do_all(0..n, |v| {
            let range = g.edge_range(v as NodeId);
            if let Some(e) = range.clone().nth(r) {
                pm.instr(1);
                pm.touch_ref(&g.dests()[e]);
                link(v as NodeId, g.edge_dst(e), &parent, pm);
            }
        });
    }
    compress_all(&parent, pm);

    // Phase 2: sample roots to find the (likely) largest component.
    let giant = most_frequent_root(&parent, 1024);

    // Phase 3: finish the remaining edges, skipping the giant component.
    phases += 1;
    galois_rt::do_all(0..n, |v| {
        pm.touch_ref(&parent[v]);
        if parent[v].load(Ordering::Relaxed) == giant {
            return;
        }
        for e in g.edge_range(v as NodeId).skip(neighbor_rounds) {
            pm.instr(1);
            pm.touch_ref(&g.dests()[e]);
            link(v as NodeId, g.edge_dst(e), &parent, pm);
        }
    });
    compress_all(&parent, pm);

    CcResult {
        component: normalize(labels(parent)),
        rounds: phases,
    }
}

/// Deterministically samples `samples` vertices and returns the most
/// frequent root among them.
fn most_frequent_root(parent: &[AtomicU32], samples: usize) -> u32 {
    let n = parent.len();
    if n == 0 {
        return 0;
    }
    let mut counts: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    // Deterministic stride sampling (Lonestar uses a PRNG; determinism
    // helps reproducibility and has the same effect).
    let stride = (n / samples.min(n)).max(1);
    for v in (0..n).step_by(stride) {
        let mut root = parent[v].load(Ordering::Relaxed);
        while parent[root as usize].load(Ordering::Relaxed) != root {
            root = parent[root as usize].load(Ordering::Relaxed);
        }
        *counts.entry(root).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(root, c)| (c, std::cmp::Reverse(root)))
        .map(|(root, _)| root)
        .unwrap_or(0)
}

/// Asynchronous Shiloach-Vishkin (`cc-ls-sv`): rounds of edge hooking with
/// **unbounded** path compression inside each `find`.
pub fn shiloach_vishkin(g: &CsrGraph) -> CcResult {
    let pm = perfmon::probe();
    let n = g.num_nodes();
    let parent: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let mut rounds = 0u32;
    loop {
        rounds += 1;
        let changed = galois_rt::ReduceLogicalOr::new();
        galois_rt::do_all(0..n, |v| {
            for e in g.edge_range(v as NodeId) {
                let u = g.edge_dst(e);
                pm.instr(2);
                pm.touch_ref(&g.dests()[e]);
                let rv = find_compress(v as NodeId, &parent, pm);
                let ru = find_compress(u, &parent, pm);
                if rv != ru {
                    link(rv, ru, &parent, pm);
                    changed.update(true);
                }
            }
        });
        if !changed.reduce() {
            break;
        }
    }
    compress_all(&parent, pm);
    CcResult {
        component: normalize(labels(parent)),
        rounds,
    }
}

/// Find with full path compression — the unbounded pointer jumping the
/// matrix API cannot express (each vertex short-circuits independently).
fn find_compress(v: NodeId, parent: &[AtomicU32], pm: Probe) -> u32 {
    let mut root = v;
    loop {
        pm.instr(1);
        pm.touch_ref(&parent[root as usize]);
        let p = parent[root as usize].load(Ordering::Relaxed);
        if p == root {
            break;
        }
        root = p;
    }
    // Compress the whole chain to the root.
    let mut cur = v;
    while cur != root {
        let next = parent[cur as usize].load(Ordering::Relaxed);
        parent[cur as usize].store(root, Ordering::Relaxed);
        cur = next;
    }
    root
}

/// Relabels components to the minimum vertex id per component so results
/// are comparable across algorithms.
fn normalize(mut labels: Vec<u32>) -> Vec<u32> {
    let mut min_of_root: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    for (v, &root) in labels.iter().enumerate() {
        let entry = min_of_root.entry(root).or_insert(v as u32);
        *entry = (*entry).min(v as u32);
    }
    for l in &mut labels {
        *l = min_of_root[l];
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::builder::GraphBuilder;
    use graph::transform::symmetrize;

    fn sym(edges: &[(u32, u32)], n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for &(s, d) in edges {
            b.push_edge(s, d, 1);
        }
        symmetrize(&b.build())
    }

    #[test]
    fn afforest_finds_two_components() {
        let g = sym(&[(0, 1), (1, 2), (3, 4)], 5);
        let r = afforest(&g, 2);
        assert_eq!(r.component, vec![0, 0, 0, 3, 3]);
    }

    #[test]
    fn shiloach_vishkin_finds_two_components() {
        let g = sym(&[(0, 1), (1, 2), (3, 4)], 5);
        let r = shiloach_vishkin(&g);
        assert_eq!(r.component, vec![0, 0, 0, 3, 3]);
    }

    #[test]
    fn algorithms_agree_on_random_graphs() {
        for seed in 0..3 {
            let g = symmetrize(&graph::gen::erdos_renyi(300, 500, seed));
            let a = afforest(&g, 2);
            let s = shiloach_vishkin(&g);
            assert_eq!(a.component, s.component, "seed {seed}");
        }
    }

    #[test]
    fn agrees_with_lagraph_on_grid() {
        let g = symmetrize(&graph::gen::grid_road(15, 10, 2).into_unweighted());
        let ls = afforest(&g, 2);
        let gb = lagraph::cc::connected_components(&g, graphblas::GaloisRuntime).unwrap();
        assert_eq!(ls.component, gb.component);
    }

    #[test]
    fn isolated_vertices_self_label() {
        let g = sym(&[(1, 2)], 5);
        let r = afforest(&g, 2);
        assert_eq!(r.component, vec![0, 1, 1, 3, 4]);
    }

    #[test]
    fn giant_component_is_skipped_but_correct() {
        // A big clique (giant) plus a separate path.
        let mut edges = Vec::new();
        for i in 0..30u32 {
            for j in (i + 1)..30 {
                edges.push((i, j));
            }
        }
        edges.push((30, 31));
        edges.push((31, 32));
        let g = sym(&edges, 33);
        let r = afforest(&g, 2);
        assert!(r.component[..30].iter().all(|&c| c == 0));
        assert!(r.component[30..].iter().all(|&c| c == 30));
    }
}
