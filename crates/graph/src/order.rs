//! Locality-optimizing vertex reordering (the `STUDY_ORDER` tier).
//!
//! Every kernel-side lever (direction-optimizing picker, workspaces,
//! bitmap frontiers) runs over the graph in whatever vertex order the
//! generator produced, so pull-mode SpMV and the tc/ktruss wedge loops
//! pay scattered reads on power-law inputs.
//! Reordering vertices so that frequently co-accessed ids are close
//! buys that locality *without touching the kernels*: the CSR is
//! remapped once at preprocessing time, every cached view (transpose,
//! symmetrized, degree-sorted) is rebuilt on the remapped graph, and
//! callers keep speaking original vertex ids — sources are translated
//! in and results un-permuted out at the dispatch boundary.
//!
//! Three classic orders are provided (plus the identity):
//!
//! * [`OrderMode::Degree`] — descending out-degree (ties by old id).
//!   On power-law graphs most edges point *at* high-degree vertices, so
//!   packing them into small ids concentrates pull-mode reads in a
//!   cache-resident prefix and shrinks delta-CSR column gaps.
//! * [`OrderMode::Hub`] — hub clustering: only vertices with at least
//!   the average degree are pulled forward (descending degree); the
//!   long tail keeps its natural relative order, preserving whatever
//!   locality the generator already had.
//! * [`OrderMode::Bfs`] — BFS/RCM-style traversal order from the
//!   highest-degree vertex (remaining components seeded in natural id
//!   order), so topological neighbors get nearby ids — the right shape
//!   for meshes and road networks.
//!
//! The permutation is carried both ways ([`Permutation`]): `new_of_old`
//! remaps into the reordered space, `old_of_new` back out. Verification
//! of a reordered run happens *through the inverse permutation*: the
//! un-permuted output must be bit-identical (bfs/cc/sssp; ≤1e-9 for
//! pagerank's float reassociation) to the natural-order reference.
//!
//! [`avg_column_gap`] is the locality proxy recorded in trace/v6
//! headers: the mean distance between consecutive column indices within
//! a row. Smaller gaps mean pull-mode column reads and delta-CSR varints
//! both touch fewer cache lines.

use crate::csr::{CsrGraph, NodeId};

/// The reordering strategies selectable via `STUDY_ORDER`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderMode {
    /// Identity: the generator's vertex order (the default; bit-silent).
    Natural,
    /// Descending out-degree, ties broken by old id.
    Degree,
    /// High-degree vertices packed into a cache-resident prefix; the
    /// tail keeps its natural relative order.
    Hub,
    /// BFS traversal order from the highest-degree vertex.
    Bfs,
}

impl OrderMode {
    /// All modes, report order.
    pub fn all() -> [OrderMode; 4] {
        [
            OrderMode::Natural,
            OrderMode::Degree,
            OrderMode::Hub,
            OrderMode::Bfs,
        ]
    }

    /// The knob/report spelling.
    pub fn name(&self) -> &'static str {
        match self {
            OrderMode::Natural => "natural",
            OrderMode::Degree => "degree",
            OrderMode::Hub => "hub",
            OrderMode::Bfs => "bfs",
        }
    }

    /// Parses a `STUDY_ORDER` value (case-insensitive; empty means
    /// natural).
    pub fn parse(s: &str) -> Option<OrderMode> {
        match s.trim().to_lowercase().as_str() {
            "" | "natural" => Some(OrderMode::Natural),
            "degree" => Some(OrderMode::Degree),
            "hub" => Some(OrderMode::Hub),
            "bfs" => Some(OrderMode::Bfs),
            _ => None,
        }
    }
}

impl std::fmt::Display for OrderMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The active order from `STUDY_ORDER` (unset or empty means
/// [`OrderMode::Natural`]).
///
/// # Panics
///
/// Panics when the variable holds an unknown mode — a misspelled order
/// must not silently run natural and report reordered numbers.
pub fn mode_from_env() -> OrderMode {
    match std::env::var("STUDY_ORDER") {
        Ok(v) => OrderMode::parse(&v).unwrap_or_else(|| {
            panic!("STUDY_ORDER must be natural|degree|hub|bfs, got {v:?}")
        }),
        Err(_) => OrderMode::Natural,
    }
}

/// A malformed permutation (not a bijection on `0..n`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderError {
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for OrderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for OrderError {}

/// A validated vertex bijection carried in both directions.
///
/// `new_of_old[old] = new` remaps into the reordered space;
/// `old_of_new[new] = old` is the inverse, used to un-permute results
/// and to verify reordered runs against natural-order references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    new_of_old: Vec<NodeId>,
    old_of_new: Vec<NodeId>,
}

impl Permutation {
    /// The identity permutation on `n` vertices.
    pub fn identity(n: usize) -> Permutation {
        let ids: Vec<NodeId> = (0..n as NodeId).collect();
        Permutation {
            new_of_old: ids.clone(),
            old_of_new: ids,
        }
    }

    /// Builds from a forward map, validating it is a bijection on
    /// `0..n`.
    ///
    /// # Errors
    ///
    /// Returns [`OrderError`] when an entry is out of range or two old
    /// ids map to the same new id.
    pub fn from_new_of_old(new_of_old: Vec<NodeId>) -> Result<Permutation, OrderError> {
        let n = new_of_old.len();
        let mut old_of_new = vec![NodeId::MAX; n];
        for (old, &new) in new_of_old.iter().enumerate() {
            let Some(slot) = old_of_new.get_mut(new as usize) else {
                return Err(OrderError {
                    message: format!("permutation maps {old} to out-of-range {new} (n={n})"),
                });
            };
            if *slot != NodeId::MAX {
                return Err(OrderError {
                    message: format!(
                        "permutation is not injective: {} and {old} both map to {new}",
                        *slot
                    ),
                });
            }
            *slot = old as NodeId;
        }
        Ok(Permutation {
            new_of_old,
            old_of_new,
        })
    }

    /// Builds from a visit order (`order[new] = old`); internal — the
    /// builders always produce a valid order.
    fn from_visit_order(old_of_new: Vec<NodeId>) -> Permutation {
        let mut new_of_old = vec![0 as NodeId; old_of_new.len()];
        for (new, &old) in old_of_new.iter().enumerate() {
            new_of_old[old as usize] = new as NodeId;
        }
        Permutation {
            new_of_old,
            old_of_new,
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.new_of_old.len()
    }

    /// Whether the permutation covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.new_of_old.is_empty()
    }

    /// Whether this is the identity (ordering would be a no-op).
    pub fn is_identity(&self) -> bool {
        self.new_of_old
            .iter()
            .enumerate()
            .all(|(old, &new)| old as NodeId == new)
    }

    /// The reordered id of original vertex `old`.
    #[inline]
    pub fn new_id(&self, old: NodeId) -> NodeId {
        self.new_of_old[old as usize]
    }

    /// The original id of reordered vertex `new`.
    #[inline]
    pub fn old_id(&self, new: NodeId) -> NodeId {
        self.old_of_new[new as usize]
    }

    /// The forward map (`new_of_old[old] = new`).
    pub fn new_of_old(&self) -> &[NodeId] {
        &self.new_of_old
    }

    /// The inverse map (`old_of_new[new] = old`).
    pub fn old_of_new(&self) -> &[NodeId] {
        &self.old_of_new
    }

    /// Remaps a CSR graph under the permutation: row `new` holds the
    /// out-edges of original vertex `old_of_new[new]` with destinations
    /// translated, columns sorted ascending within each row (weights
    /// follow their edges). Sorted columns keep the remapped graph
    /// compatible with the delta-CSR gap encoding — and are exactly
    /// where the locality orders shrink the gaps.
    ///
    /// # Panics
    ///
    /// Panics when the permutation does not cover the graph.
    pub fn apply(&self, g: &CsrGraph) -> CsrGraph {
        let n = g.num_nodes();
        assert_eq!(n, self.len(), "permutation must cover every vertex");
        let mut offsets = vec![0usize; n + 1];
        for new in 0..n {
            offsets[new + 1] = offsets[new] + g.out_degree(self.old_of_new[new]);
        }
        let mut dests = Vec::with_capacity(g.num_edges());
        let mut weights = g.is_weighted().then(|| Vec::with_capacity(g.num_edges()));
        let mut row: Vec<(NodeId, u32)> = Vec::new();
        for new in 0..n {
            let old = self.old_of_new[new];
            row.clear();
            for e in g.edge_range(old) {
                row.push((self.new_of_old[g.edge_dst(e) as usize], g.edge_weight(e)));
            }
            row.sort_unstable();
            for &(d, w) in &row {
                dests.push(d);
                if let Some(ws) = &mut weights {
                    ws.push(w);
                }
            }
        }
        CsrGraph::from_raw(offsets, dests, weights)
    }

    /// Translates a reordered-space per-vertex vector back to original
    /// ids: `out[old] = values[new_of_old[old]]`.
    ///
    /// # Panics
    ///
    /// Panics when `values` does not cover every vertex.
    pub fn unpermute<T: Copy>(&self, values: &[T]) -> Vec<T> {
        assert_eq!(values.len(), self.len(), "vector must cover every vertex");
        self.new_of_old
            .iter()
            .map(|&new| values[new as usize])
            .collect()
    }

    /// Un-permutes component labels *and* renormalizes them to minimum
    /// original vertex ids, so a reordered cc run is bit-identical to
    /// the natural-order labeling (labels are vertex ids, which live in
    /// the reordered space after [`Self::unpermute`] alone).
    ///
    /// Labels that are not in-range vertex ids are left positional-only
    /// (nothing to renormalize against).
    pub fn unpermute_components(&self, labels: &[u32]) -> Vec<u32> {
        let positional = self.unpermute(labels);
        let n = positional.len();
        if positional.iter().any(|&l| l as usize >= n) {
            return positional;
        }
        let mut min_of_label = vec![u32::MAX; n];
        for (old, &l) in positional.iter().enumerate() {
            let slot = &mut min_of_label[l as usize];
            *slot = (*slot).min(old as u32);
        }
        positional
            .into_iter()
            .map(|l| min_of_label[l as usize])
            .collect()
    }
}

/// Builds the permutation for `mode` over `g`.
pub fn build(mode: OrderMode, g: &CsrGraph) -> Permutation {
    match mode {
        OrderMode::Natural => Permutation::identity(g.num_nodes()),
        OrderMode::Degree => degree_order(g),
        OrderMode::Hub => hub_order(g),
        OrderMode::Bfs => bfs_order(g),
    }
}

/// Descending out-degree order (ties by old id, so the order is total
/// and deterministic).
pub fn degree_order(g: &CsrGraph) -> Permutation {
    let mut order: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
    order.sort_unstable_by_key(|&v| (std::cmp::Reverse(g.out_degree(v)), v));
    Permutation::from_visit_order(order)
}

/// Hub clustering: vertices with at least the average out-degree are
/// packed into a prefix (descending degree, ties by old id); everything
/// else keeps its natural relative order.
pub fn hub_order(g: &CsrGraph) -> Permutation {
    let n = g.num_nodes();
    if n == 0 {
        return Permutation::identity(0);
    }
    let avg = g.num_edges() as f64 / n as f64;
    let mut hubs: Vec<NodeId> = (0..n as NodeId)
        .filter(|&v| g.out_degree(v) as f64 >= avg.max(1.0))
        .collect();
    hubs.sort_unstable_by_key(|&v| (std::cmp::Reverse(g.out_degree(v)), v));
    let is_hub: Vec<bool> = {
        let mut flags = vec![false; n];
        for &h in &hubs {
            flags[h as usize] = true;
        }
        flags
    };
    let mut order = hubs;
    order.extend((0..n as NodeId).filter(|&v| !is_hub[v as usize]));
    Permutation::from_visit_order(order)
}

/// BFS traversal order over out-edges, starting from the
/// highest-degree vertex; remaining components are seeded in natural id
/// order, so every vertex is covered.
pub fn bfs_order(g: &CsrGraph) -> Permutation {
    let n = g.num_nodes();
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    if n > 0 {
        let root = g.max_out_degree_node();
        visited[root as usize] = true;
        queue.push_back(root);
    }
    let mut next_unvisited = 0 as NodeId;
    loop {
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for d in g.neighbors(v) {
                if !visited[d as usize] {
                    visited[d as usize] = true;
                    queue.push_back(d);
                }
            }
        }
        while (next_unvisited as usize) < n && visited[next_unvisited as usize] {
            next_unvisited += 1;
        }
        if next_unvisited as usize >= n {
            break;
        }
        visited[next_unvisited as usize] = true;
        queue.push_back(next_unvisited);
    }
    Permutation::from_visit_order(order)
}

/// The locality proxy reported per cell: the mean gap between
/// consecutive column indices within a row (as stored), averaged over
/// all rows with at least two out-edges. Smaller means pull-mode column
/// reads and delta-CSR varints touch fewer cache lines. Returns `0.0`
/// when no row has two edges.
pub fn avg_column_gap(g: &CsrGraph) -> f64 {
    let mut total: u64 = 0;
    let mut pairs: u64 = 0;
    for v in 0..g.num_nodes() as NodeId {
        for w in g.neighbor_slice(v).windows(2) {
            total += u64::from(w[0].abs_diff(w[1]));
            pairs += 1;
        }
    }
    if pairs == 0 {
        0.0
    } else {
        total as f64 / pairs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_edges, from_weighted_edges};

    fn star_plus_chain() -> CsrGraph {
        // vertex 3 is the hub (degree 4); 0-1-2 a chain feeding it.
        from_edges(
            6,
            [
                (3, 0),
                (3, 1),
                (3, 2),
                (3, 4),
                (0, 1),
                (1, 2),
                (2, 3),
                (4, 5),
            ],
        )
    }

    fn edge_multiset(g: &CsrGraph) -> Vec<(NodeId, NodeId, u32)> {
        let mut edges: Vec<_> = (0..g.num_nodes() as NodeId)
            .flat_map(|v| {
                g.edge_range(v)
                    .map(move |e| (v, g.edge_dst(e), g.edge_weight(e)))
                    .collect::<Vec<_>>()
            })
            .collect();
        edges.sort_unstable();
        edges
    }

    #[test]
    fn mode_parsing_and_names_round_trip() {
        for mode in OrderMode::all() {
            assert_eq!(OrderMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(OrderMode::parse(""), Some(OrderMode::Natural));
        assert_eq!(OrderMode::parse(" DEGREE "), Some(OrderMode::Degree));
        assert_eq!(OrderMode::parse("zorder"), None);
    }

    #[test]
    fn identity_round_trips() {
        let p = Permutation::identity(5);
        assert!(p.is_identity());
        assert_eq!(p.len(), 5);
        for v in 0..5 as NodeId {
            assert_eq!(p.new_id(v), v);
            assert_eq!(p.old_id(v), v);
        }
    }

    #[test]
    fn from_new_of_old_validates_bijection() {
        assert!(Permutation::from_new_of_old(vec![2, 0, 1]).is_ok());
        let dup = Permutation::from_new_of_old(vec![0, 0, 1]);
        assert!(dup.unwrap_err().message.contains("not injective"));
        let oob = Permutation::from_new_of_old(vec![0, 3, 1]);
        assert!(oob.unwrap_err().message.contains("out-of-range"));
    }

    #[test]
    fn apply_then_inverse_is_identity() {
        let g = star_plus_chain();
        for mode in OrderMode::all() {
            let perm = build(mode, &g);
            // forward ∘ inverse = identity on ids
            for v in 0..g.num_nodes() as NodeId {
                assert_eq!(perm.new_id(perm.old_id(v)), v, "{mode}");
                assert_eq!(perm.old_id(perm.new_id(v)), v, "{mode}");
            }
            // applying then mapping edges back recovers the edge multiset
            let h = perm.apply(&g);
            let back: Vec<_> = {
                let mut edges: Vec<_> = (0..h.num_nodes() as NodeId)
                    .flat_map(|v| {
                        h.edge_range(v)
                            .map(|e| {
                                (perm.old_id(v), perm.old_id(h.edge_dst(e)), h.edge_weight(e))
                            })
                            .collect::<Vec<_>>()
                    })
                    .collect();
                edges.sort_unstable();
                edges
            };
            assert_eq!(back, edge_multiset(&g), "{mode}");
        }
    }

    #[test]
    fn apply_preserves_weights_and_sorts_columns() {
        let g = from_weighted_edges(4, [(0, 3, 9), (0, 1, 7), (2, 0, 5)]);
        let perm = degree_order(&g);
        let h = perm.apply(&g);
        assert_eq!(h.num_edges(), 3);
        assert!(h.is_weighted());
        for v in 0..h.num_nodes() as NodeId {
            let cols = h.neighbor_slice(v);
            assert!(cols.windows(2).all(|w| w[0] <= w[1]), "columns sorted");
        }
        let mut weights: Vec<u32> = (0..3).map(|e| h.edge_weight(e)).collect();
        weights.sort_unstable();
        assert_eq!(weights, vec![5, 7, 9]);
    }

    #[test]
    fn degree_order_is_descending() {
        let g = star_plus_chain();
        let perm = degree_order(&g);
        let h = perm.apply(&g);
        for v in 1..h.num_nodes() as NodeId {
            assert!(
                h.out_degree(v - 1) >= h.out_degree(v),
                "degree order must be descending"
            );
        }
        assert_eq!(perm.old_id(0), 3, "the hub gets the smallest id");
    }

    #[test]
    fn hub_order_packs_hubs_and_keeps_tail_order() {
        let g = star_plus_chain();
        let perm = hub_order(&g);
        assert_eq!(perm.old_id(0), 3, "the hub leads");
        // the non-hub tail keeps natural relative order
        let tail: Vec<NodeId> = (0..g.num_nodes() as NodeId)
            .map(|new| perm.old_id(new))
            .filter(|&old| g.out_degree(old) < 2)
            .collect();
        let mut sorted = tail.clone();
        sorted.sort_unstable();
        assert_eq!(tail, sorted, "tail preserves natural relative order");
    }

    #[test]
    fn bfs_order_visits_every_vertex_and_starts_at_max_degree() {
        let g = star_plus_chain();
        let perm = bfs_order(&g);
        assert_eq!(perm.old_id(0), g.max_out_degree_node());
        let mut seen: Vec<NodeId> = (0..g.num_nodes() as NodeId)
            .map(|new| perm.old_id(new))
            .collect();
        seen.sort_unstable();
        let all: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
        assert_eq!(seen, all, "bfs order must be a bijection");
    }

    #[test]
    fn bfs_order_covers_disconnected_components() {
        let g = from_edges(5, [(0, 1), (3, 4)]);
        let perm = bfs_order(&g);
        let mut seen: Vec<NodeId> = (0..5).map(|new| perm.old_id(new)).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn unpermute_translates_positions() {
        let perm = Permutation::from_new_of_old(vec![2, 0, 1]).unwrap();
        // values indexed by new id; vertex old=0 is new 2, old=1 is new 0,
        // old=2 is new 1.
        let values = [10u32, 20, 30];
        assert_eq!(perm.unpermute(&values), vec![30, 10, 20]);
    }

    #[test]
    fn unpermute_components_renormalizes_to_min_original_ids() {
        // old vertices {0,1} one component, {2} another. Reorder as
        // old->new: 0->2, 1->0, 2->1. New-space labels normalized to min
        // new ids: component of new 0 and new 2 is label 0; new 1 is 1.
        let perm = Permutation::from_new_of_old(vec![2, 0, 1]).unwrap();
        let new_space_labels = [0u32, 1, 0];
        assert_eq!(
            perm.unpermute_components(&new_space_labels),
            vec![0, 0, 2],
            "labels must come back as minimum original member ids"
        );
    }

    #[test]
    fn avg_column_gap_measures_spread() {
        // one row [0, 10], gap 10; one row [1, 2, 3], gaps 1 and 1.
        let g = from_edges(11, [(0, 0), (0, 10), (1, 1), (1, 2), (1, 3)]);
        let gap = avg_column_gap(&g);
        assert!((gap - 4.0).abs() < 1e-12, "expected (10+1+1)/3, got {gap}");
        assert_eq!(avg_column_gap(&from_edges(3, [(0, 1)])), 0.0);
    }

    #[test]
    fn locality_orders_shrink_gaps_on_a_hubby_graph() {
        // Preferential-attachment-like shape: everyone points at a few
        // high-degree vertices scattered across the id space.
        let mut edges = Vec::new();
        let hubs = [7 as NodeId, 29, 53];
        for v in 0..64 as NodeId {
            for &h in &hubs {
                if v != h {
                    edges.push((v, h));
                }
            }
        }
        let g = from_edges(64, edges);
        let natural = avg_column_gap(&g);
        for mode in [OrderMode::Degree, OrderMode::Hub] {
            let h = build(mode, &g).apply(&g);
            assert!(
                avg_column_gap(&h) < natural,
                "{mode} must shrink the column gap ({} vs {natural})",
                avg_column_gap(&h)
            );
        }
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = CsrGraph::from_raw(vec![0], vec![], None);
        for mode in OrderMode::all() {
            let perm = build(mode, &g);
            assert!(perm.is_empty());
            assert_eq!(perm.apply(&g).num_nodes(), 0);
        }
        assert_eq!(avg_column_gap(&g), 0.0);
    }
}
