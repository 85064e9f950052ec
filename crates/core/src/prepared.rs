//! Per-graph preprocessing shared by all systems.
//!
//! The paper reports runtimes that "do not include graph loading and
//! preprocessing time" (§IV). `PreparedGraph` performs that untimed work
//! once — transpose for pull-style pr, symmetrization for cc/tc/ktruss,
//! degree sorting for the tc listing variants — and carries the per-graph
//! experiment parameters of Section IV. The recipe is transpose,
//! symmetrize from that transpose, degree-sort the symmetric view — all
//! linear passes plus per-row sorts, no comparison sort over the edge
//! list.

use graph::transform::{sort_by_degree, symmetrize_from, transpose};
use graph::{CsrGraph, NodeId, OrderMode, Scale, StudyGraph};

/// A graph plus every preprocessed view and parameter the six problems
/// need.
#[derive(Debug, Clone)]
pub struct PreparedGraph {
    /// Display name (Table I row).
    pub name: String,
    /// The directed, weighted input graph.
    pub graph: CsrGraph,
    /// Transpose (in-adjacency) — used by pull-style pagerank.
    pub transpose: CsrGraph,
    /// Symmetrized, loop-free version — used by cc, tc and ktruss.
    pub symmetric: CsrGraph,
    /// Degree-sorted relabeling of `symmetric` — used by tc listing.
    pub sorted: CsrGraph,
    /// Out-degrees of `graph`.
    pub out_degrees: Vec<u32>,
    /// bfs/sssp source vertex (§IV: vertex 0 on roads, max-degree
    /// elsewhere).
    pub source: NodeId,
    /// ktruss `k` (§IV: 4 on roads, 7 elsewhere).
    pub ktruss_k: u32,
    /// Delta-stepping Δ (§IV: 2^13, 2^20 on eukarya).
    pub sssp_delta: u64,
    /// PageRank iterations (§IV: 10).
    pub pr_iters: u32,
}

impl PreparedGraph {
    /// Prepares an arbitrary graph with explicit parameters.
    pub fn from_graph(
        name: impl Into<String>,
        graph: CsrGraph,
        source: NodeId,
        ktruss_k: u32,
        sssp_delta: u64,
    ) -> Self {
        let transpose = transpose(&graph);
        let symmetric = symmetrize_from(&graph, &transpose);
        let (sorted, _) = sort_by_degree(&symmetric);
        let out_degrees = (0..graph.num_nodes() as u32)
            .map(|v| graph.out_degree(v) as u32)
            .collect();
        PreparedGraph {
            name: name.into(),
            transpose,
            symmetric,
            sorted,
            out_degrees,
            source,
            ktruss_k,
            sssp_delta,
            pr_iters: 10,
            graph,
        }
    }

    /// [`PreparedGraph::from_graph`] under its former name. It exists
    /// only for `benchmark/src/cells.rs`, which calls it with
    /// [`OrderMode::Natural`] and whose source stays fixed so that runs
    /// compare across commits.
    pub fn from_graph_ordered(
        name: impl Into<String>,
        graph: CsrGraph,
        source: NodeId,
        ktruss_k: u32,
        sssp_delta: u64,
        _mode: OrderMode,
    ) -> Self {
        Self::from_graph(name, graph, source, ktruss_k, sssp_delta)
    }

    /// Builds and prepares one of the nine study graphs at `scale`.
    pub fn study(which: StudyGraph, scale: Scale) -> Self {
        let graph = which.build(scale);
        let source = which.source(&graph);
        PreparedGraph::from_graph(
            which.name(),
            graph,
            source,
            which.ktruss_k(),
            which.sssp_delta(),
        )
    }

    /// Number of vertices of the input graph.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preparation_builds_consistent_views() {
        let p = PreparedGraph::study(StudyGraph::Rmat22, Scale::tiny());
        assert_eq!(p.graph.num_nodes(), p.transpose.num_nodes());
        assert_eq!(p.graph.num_edges(), p.transpose.num_edges());
        assert_eq!(p.symmetric.num_nodes(), p.graph.num_nodes());
        assert_eq!(p.sorted.num_edges(), p.symmetric.num_edges());
        assert_eq!(p.out_degrees.len(), p.num_nodes());
        assert_eq!(p.pr_iters, 10);
    }

    #[test]
    fn road_parameters_follow_section_iv() {
        let p = PreparedGraph::study(StudyGraph::RoadUsaW, Scale::tiny());
        assert_eq!(p.source, 0);
        assert_eq!(p.ktruss_k, 4);
        assert_eq!(p.sssp_delta, 1 << 13);
    }

    #[test]
    fn symmetric_view_is_loop_free_and_mutual() {
        let p = PreparedGraph::study(StudyGraph::Indochina04, Scale::tiny());
        let s = &p.symmetric;
        for v in 0..s.num_nodes() as u32 {
            for d in s.neighbors(v) {
                assert_ne!(d, v, "self loop survived symmetrization");
            }
        }
    }
}
