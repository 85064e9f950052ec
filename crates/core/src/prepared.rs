//! Per-graph preprocessing shared by all systems.
//!
//! The paper reports runtimes that "do not include graph loading and
//! preprocessing time" (§IV). `PreparedGraph` performs that untimed work
//! once — transpose for pull-style pr, symmetrization for cc/tc/ktruss,
//! degree sorting for the tc listing variants — and carries the per-graph
//! experiment parameters of Section IV. Natural and ordered views follow
//! one recipe: transpose, symmetrize from that transpose, degree-sort
//! the symmetric view — all linear passes plus per-row sorts, no
//! comparison sort over the edge list.
//!
//! When a locality order is active (`STUDY_ORDER`, see [`graph::order`])
//! the natural-order fields stay exactly as they are — they remain the
//! verification references, and the default mode stays bit-silent — and
//! an [`OrderedView`] rides alongside: the same set of preprocessed
//! views rebuilt on the permuted CSR, plus the permutation itself so
//! the dispatch layer ([`crate::runner`]) can translate sources in and
//! un-permute results out.

use graph::order::{self, OrderMode, Permutation};
use graph::transform::{sort_by_degree, symmetrize_from, transpose};
use graph::{CsrGraph, NodeId, Scale, StudyGraph};
use std::sync::Arc;
use std::time::Instant;

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
    /// Reordered views when a locality order is active (`STUDY_ORDER`
    /// other than `natural`); `None` means every run uses the natural
    /// fields above, bit-identically to a build without this tier.
    pub ordered: Option<Arc<OrderedView>>,
}

/// The preprocessed views rebuilt under an active vertex order, plus
/// the permutation connecting them back to original ids.
///
/// Shared behind an [`Arc`] so cloning a [`PreparedGraph`] (the service
/// catalog does, per snapshot) does not duplicate the remapped CSRs.
#[derive(Debug)]
pub struct OrderedView {
    /// The order that produced this view.
    pub mode: OrderMode,
    /// The vertex bijection (forward and inverse).
    pub perm: Permutation,
    /// Nanoseconds spent computing the permutation and remapping the
    /// primary CSR (the extra preprocessing this tier buys locality
    /// with; the rebuilt transpose/symmetric/sorted views are excluded
    /// — natural preprocessing pays those too).
    pub build_ns: u64,
    /// The input graph remapped under `perm` (columns sorted per row).
    pub graph: CsrGraph,
    /// Transpose of the remapped graph.
    pub transpose: CsrGraph,
    /// Symmetrized, loop-free remapped graph.
    pub symmetric: CsrGraph,
    /// Degree-sorted relabeling of the remapped `symmetric`.
    pub sorted: CsrGraph,
    /// Out-degrees of the remapped graph.
    pub out_degrees: Vec<u32>,
    /// The study source translated into the reordered space.
    pub source: NodeId,
    /// Locality proxy of the remapped graph ([`order::avg_column_gap`]).
    pub avg_col_gap: f64,
}

impl OrderedView {
    /// Builds the reordered views for `mode` over a natural-order graph.
    pub fn build(mode: OrderMode, natural: &CsrGraph, source: NodeId) -> OrderedView {
        let start = Instant::now();
        let perm = order::build(mode, natural);
        let graph = perm.apply(natural);
        let build_ns = start.elapsed().as_nanos() as u64;
        let transpose = transpose(&graph);
        let symmetric = symmetrize_from(&graph, &transpose);
        let (sorted, _) = sort_by_degree(&symmetric);
        let out_degrees = (0..graph.num_nodes() as u32)
            .map(|v| graph.out_degree(v) as u32)
            .collect();
        let source = if natural.num_nodes() == 0 {
            source
        } else {
            perm.new_id(source)
        };
        let avg_col_gap = order::avg_column_gap(&graph);
        OrderedView {
            mode,
            perm,
            build_ns,
            transpose,
            symmetric,
            sorted,
            out_degrees,
            source,
            avg_col_gap,
            graph,
        }
    }
}

impl PreparedGraph {
    /// Prepares an arbitrary graph with explicit parameters, applying
    /// the ambient `STUDY_ORDER` (if any) as the active vertex order.
    pub fn from_graph(
        name: impl Into<String>,
        graph: CsrGraph,
        source: NodeId,
        ktruss_k: u32,
        sssp_delta: u64,
    ) -> Self {
        Self::from_graph_ordered(name, graph, source, ktruss_k, sssp_delta, order::mode_from_env())
    }

    /// Prepares an arbitrary graph under an explicit vertex order,
    /// ignoring `STUDY_ORDER` — what the bench order sweep and the
    /// property tests use to pin a mode without env churn.
    pub fn from_graph_ordered(
        name: impl Into<String>,
        graph: CsrGraph,
        source: NodeId,
        ktruss_k: u32,
        sssp_delta: u64,
        mode: OrderMode,
    ) -> Self {
        let transpose = transpose(&graph);
        let symmetric = symmetrize_from(&graph, &transpose);
        let (sorted, _) = sort_by_degree(&symmetric);
        let out_degrees = (0..graph.num_nodes() as u32)
            .map(|v| graph.out_degree(v) as u32)
            .collect();
        let ordered = match mode {
            OrderMode::Natural => None,
            mode => Some(Arc::new(OrderedView::build(mode, &graph, source))),
        };
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
            ordered,
            graph,
        }
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

    /// Rebuilds this preparation under `mode`, reusing the natural
    /// views (only the ordered view is recomputed or dropped).
    pub fn with_order(mut self, mode: OrderMode) -> Self {
        self.ordered = match mode {
            OrderMode::Natural => None,
            mode => Some(Arc::new(OrderedView::build(mode, &self.graph, self.source))),
        };
        self
    }

    /// The active order mode (`Natural` when no ordered view rides).
    pub fn order_mode(&self) -> OrderMode {
        self.ordered.as_ref().map_or(OrderMode::Natural, |o| o.mode)
    }

    /// Nanoseconds the active order spent building its permutation and
    /// remapping the CSR (0 under natural order).
    pub fn order_build_ns(&self) -> u64 {
        self.ordered.as_ref().map_or(0, |o| o.build_ns)
    }

    /// Locality proxy of the graph runs actually execute on: the
    /// ordered view's remapped CSR when an order is active, the natural
    /// CSR otherwise. See [`order::avg_column_gap`].
    pub fn active_col_gap(&self) -> f64 {
        match &self.ordered {
            Some(o) => o.avg_col_gap,
            None => order::avg_column_gap(&self.graph),
        }
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

    #[test]
    fn ordered_view_mirrors_natural_shape_and_translates_source() {
        let p = PreparedGraph::study(StudyGraph::Rmat22, Scale::tiny())
            .with_order(OrderMode::Degree);
        let o = p.ordered.as_ref().expect("degree order builds a view");
        assert_eq!(o.mode, OrderMode::Degree);
        assert_eq!(o.graph.num_nodes(), p.graph.num_nodes());
        assert_eq!(o.graph.num_edges(), p.graph.num_edges());
        assert_eq!(o.symmetric.num_edges(), p.symmetric.num_edges());
        assert_eq!(o.sorted.num_edges(), o.symmetric.num_edges());
        assert_eq!(o.out_degrees.len(), p.num_nodes());
        assert_eq!(o.perm.old_id(o.source), p.source, "source translated in");
        assert_eq!(p.order_mode(), OrderMode::Degree);
        assert!(p.active_col_gap() >= 0.0);
    }

    #[test]
    fn natural_order_carries_no_view() {
        let p = PreparedGraph::study(StudyGraph::Rmat22, Scale::tiny());
        // The ambient test environment does not set STUDY_ORDER; the
        // default must stay structurally identical to the pre-tier build.
        if std::env::var("STUDY_ORDER").map_or(true, |v| {
            OrderMode::parse(&v) == Some(OrderMode::Natural)
        }) {
            assert!(p.ordered.is_none());
            assert_eq!(p.order_mode(), OrderMode::Natural);
            assert_eq!(p.order_build_ns(), 0);
        }
        let back = p.with_order(OrderMode::Hub).with_order(OrderMode::Natural);
        assert!(back.ordered.is_none(), "with_order(Natural) drops the view");
    }
}
