//! Delta layers over the frozen CSR: batched edge updates with periodic
//! compaction.
//!
//! The study's graphs are immutable after load (the CSR arrays are
//! frozen); streaming workloads need edge updates without rebuilding the
//! whole graph per batch. This module follows the classic LSM shape:
//!
//! * the **snapshot** is an ordinary frozen [`CsrGraph`];
//! * each applied [`EdgeBatch`] becomes one immutable **delta layer**
//!   holding copy-on-write adjacency rows for exactly the vertices the
//!   batch touched (the topmost override wins, so the merged view of a
//!   vertex is either its newest override or its snapshot row);
//! * a **merged-view iterator** ([`DeltaGraph::neighbors`]) serves reads
//!   without materializing anything;
//! * **compaction** ([`DeltaGraph::compact`]) folds all layers into a
//!   fresh snapshot, either on demand or automatically once the layer
//!   count reaches the `STUDY_DELTA_COMPACT` threshold.
//!
//! Because every layer stores the *full* folded row for each touched
//! vertex, the merged view is definitionally identical to the compacted
//! snapshot, and splitting one update stream into different batch
//! groupings yields bit-identical merged state — the invariants the
//! differential and determinism test suites lean on.
//!
//! Compaction runs through two [`substrate::fault`] points so
//! crash-during-compaction is injectable: `delta.compact.alloc` fails the
//! compaction recoverably before any work, and `delta.compact.commit`
//! panics after the fresh snapshot is built but before the swap — in both
//! cases the pre-compaction snapshot and layers stay fully readable.
//!
//! Update semantics (see the edge-case suite):
//! * the graph is an edge **multiset** — duplicate inserts create
//!   parallel edges;
//! * a delete removes **every** stored `(src, dst)` occurrence; deleting
//!   an edge that is not present is a recorded no-op, not an error;
//! * an update naming a vertex past the snapshot's max id grows the
//!   vertex set;
//! * inserted weights are kept only when the snapshot is weighted
//!   (unweighted graphs stay unweighted, reading weight 1 everywhere).

use crate::csr::{CsrGraph, NodeId};
use perfmon::trace::{self, DeltaKind, DeltaSpan, Event};
use std::collections::BTreeMap;
use std::time::Instant;

/// Default number of stacked layers that triggers auto-compaction when
/// `STUDY_DELTA_COMPACT` is unset.
pub const DEFAULT_COMPACT_THRESHOLD: usize = 8;

/// One edge update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeUpdate {
    /// Insert a (possibly parallel) edge `src -> dst`.
    Insert {
        /// Source vertex.
        src: NodeId,
        /// Destination vertex.
        dst: NodeId,
        /// Edge weight; `None` means 1. Ignored when the snapshot is
        /// unweighted.
        weight: Option<u32>,
    },
    /// Delete every stored occurrence of `src -> dst`.
    Delete {
        /// Source vertex.
        src: NodeId,
        /// Destination vertex.
        dst: NodeId,
    },
}

impl EdgeUpdate {
    /// The `(src, dst)` endpoints of the update.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        match *self {
            EdgeUpdate::Insert { src, dst, .. } | EdgeUpdate::Delete { src, dst } => (src, dst),
        }
    }

    /// Whether this update is a delete.
    pub fn is_delete(&self) -> bool {
        matches!(self, EdgeUpdate::Delete { .. })
    }
}

/// An ordered batch of edge updates, applied atomically as one layer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeBatch {
    ops: Vec<EdgeUpdate>,
}

impl EdgeBatch {
    /// An empty batch.
    pub fn new() -> Self {
        EdgeBatch::default()
    }

    /// Appends an insert of `src -> dst` with weight 1.
    pub fn insert(mut self, src: NodeId, dst: NodeId) -> Self {
        self.push(EdgeUpdate::Insert {
            src,
            dst,
            weight: None,
        });
        self
    }

    /// Appends an insert of `src -> dst` with an explicit weight.
    pub fn insert_weighted(mut self, src: NodeId, dst: NodeId, weight: u32) -> Self {
        self.push(EdgeUpdate::Insert {
            src,
            dst,
            weight: Some(weight),
        });
        self
    }

    /// Appends a delete of every `src -> dst` occurrence.
    pub fn delete(mut self, src: NodeId, dst: NodeId) -> Self {
        self.push(EdgeUpdate::Delete { src, dst });
        self
    }

    /// Appends one update.
    pub fn push(&mut self, op: EdgeUpdate) {
        self.ops.push(op);
    }

    /// The updates, in application order.
    pub fn ops(&self) -> &[EdgeUpdate] {
        &self.ops
    }

    /// Number of updates in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch holds no updates.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Whether the batch contains any delete operation.
    pub fn has_deletes(&self) -> bool {
        self.ops.iter().any(EdgeUpdate::is_delete)
    }

    /// The batch with every non-loop update mirrored, for maintaining a
    /// symmetrized snapshot: each `u -> v` op is followed by the same op
    /// on `v -> u`.
    pub fn symmetrized(&self) -> EdgeBatch {
        let mut out = EdgeBatch::new();
        for &op in &self.ops {
            out.push(op);
            let (src, dst) = op.endpoints();
            if src != dst {
                out.push(match op {
                    EdgeUpdate::Insert { weight, .. } => EdgeUpdate::Insert {
                        src: dst,
                        dst: src,
                        weight,
                    },
                    EdgeUpdate::Delete { .. } => EdgeUpdate::Delete { src: dst, dst: src },
                });
            }
        }
        out
    }

    /// Parses the plain-text update format, one op per line:
    ///
    /// ```text
    /// # comment
    /// + src dst [weight]
    /// - src dst
    /// ```
    ///
    /// Blank lines and `#` comments are skipped. Returns a description of
    /// the first malformed line instead of panicking — batches arrive
    /// from outside the process, so this parser must survive arbitrary
    /// input (the hardening contract shared with `graph::io`).
    pub fn parse(text: &str) -> Result<EdgeBatch, String> {
        let mut batch = EdgeBatch::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split_whitespace();
            let Some(op) = fields.next() else {
                // Unreachable after the is_empty check above, but this
                // parser's contract is typed errors, never panics.
                return Err(format!("line {}: empty after trimming", idx + 1));
            };
            let mut id = |what: &str| -> Result<NodeId, String> {
                let f = fields
                    .next()
                    .ok_or_else(|| format!("line {}: missing {what}", idx + 1))?;
                f.parse::<NodeId>()
                    .map_err(|_| format!("line {}: bad {what} {f:?}", idx + 1))
            };
            match op {
                "+" => {
                    let src = id("src")?;
                    let dst = id("dst")?;
                    let weight = match fields.next() {
                        None => None,
                        Some(w) => Some(
                            w.parse::<u32>()
                                .map_err(|_| format!("line {}: bad weight {w:?}", idx + 1))?,
                        ),
                    };
                    if let Some(extra) = fields.next() {
                        return Err(format!("line {}: trailing field {extra:?}", idx + 1));
                    }
                    batch.push(EdgeUpdate::Insert { src, dst, weight });
                }
                "-" => {
                    let src = id("src")?;
                    let dst = id("dst")?;
                    if let Some(extra) = fields.next() {
                        return Err(format!("line {}: trailing field {extra:?}", idx + 1));
                    }
                    batch.push(EdgeUpdate::Delete { src, dst });
                }
                other => {
                    return Err(format!(
                        "line {}: unknown op {other:?} (expected \"+\" or \"-\")",
                        idx + 1
                    ));
                }
            }
        }
        Ok(batch)
    }
}

/// What applying one batch did (the per-batch half of the trace span).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyStats {
    /// Edges inserted.
    pub inserted: u64,
    /// Stored edge occurrences removed by deletes.
    pub deleted: u64,
    /// Delete ops that matched nothing (recorded no-ops).
    pub missing_deletes: u64,
    /// Vertices whose adjacency row the batch rewrote.
    pub touched: u64,
    /// Vertices added because an update named an id past the current
    /// max.
    pub grew_nodes: u64,
}

impl ApplyStats {
    /// Whether the batch removed at least one stored edge — the signal
    /// incremental algorithms use to fall back to a full recompute.
    pub fn effective_deletes(&self) -> bool {
        self.deleted > 0
    }
}

/// One immutable layer: full copy-on-write adjacency rows for the
/// vertices one batch touched.
#[derive(Debug, Clone)]
struct DeltaLayer {
    rows: BTreeMap<NodeId, Vec<(NodeId, u32)>>,
}

/// A frozen CSR snapshot plus stacked delta layers and a merged view.
#[derive(Debug, Clone)]
pub struct DeltaGraph {
    snapshot: CsrGraph,
    layers: Vec<DeltaLayer>,
    /// Merged vertex count (>= the snapshot's; updates can grow it).
    n: usize,
    /// Merged edge count, maintained incrementally.
    m: usize,
    /// Layer count that triggers auto-compaction (0 = manual only).
    threshold: usize,
    /// Update ops applied since the last compaction.
    delta_edges: u64,
    compactions: u64,
}

/// Reads `STUDY_DELTA_COMPACT` (the auto-compaction layer threshold);
/// defaults to [`DEFAULT_COMPACT_THRESHOLD`]. `0` disables
/// auto-compaction. The static study path never constructs a
/// [`DeltaGraph`], so it never reads this knob.
pub fn compact_threshold_from_env() -> usize {
    std::env::var("STUDY_DELTA_COMPACT")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(DEFAULT_COMPACT_THRESHOLD)
}

impl DeltaGraph {
    /// Wraps a snapshot with the auto-compaction threshold taken from
    /// `STUDY_DELTA_COMPACT`.
    pub fn new(snapshot: CsrGraph) -> Self {
        DeltaGraph::with_threshold(snapshot, compact_threshold_from_env())
    }

    /// Wraps a snapshot with an explicit auto-compaction threshold
    /// (`0` = compact only on demand).
    pub fn with_threshold(snapshot: CsrGraph, threshold: usize) -> Self {
        let n = snapshot.num_nodes();
        let m = snapshot.num_edges();
        DeltaGraph {
            snapshot,
            layers: Vec::new(),
            n,
            m,
            threshold,
            delta_edges: 0,
            compactions: 0,
        }
    }

    /// The frozen base snapshot (pre-compaction state stays readable
    /// through this even if a compaction crashes).
    pub fn snapshot(&self) -> &CsrGraph {
        &self.snapshot
    }

    /// Merged vertex count.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Merged edge count.
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Whether the snapshot (and therefore the merged view) is weighted.
    pub fn is_weighted(&self) -> bool {
        self.snapshot.is_weighted()
    }

    /// Delta layers currently stacked over the snapshot.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Update ops absorbed since the last compaction.
    pub fn delta_nnz(&self) -> u64 {
        self.delta_edges
    }

    /// Compactions performed over the lifetime of this graph.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// The newest layer's override row for `v`, if any layer has one.
    fn override_row(&self, v: NodeId) -> Option<&[(NodeId, u32)]> {
        self.layers
            .iter()
            .rev()
            .find_map(|l| l.rows.get(&v).map(Vec::as_slice))
    }

    /// Merged out-degree of `v`.
    pub fn out_degree(&self, v: NodeId) -> usize {
        if let Some(row) = self.override_row(v) {
            row.len()
        } else if (v as usize) < self.snapshot.num_nodes() {
            self.snapshot.out_degree(v)
        } else {
            0
        }
    }

    /// Merged-view iterator over the `(dst, weight)` out-edges of `v`
    /// (weight 1 when unweighted, like [`CsrGraph::edge_weight`]).
    pub fn neighbors(&self, v: NodeId) -> MergedNeighbors<'_> {
        let inner = match self.override_row(v) {
            Some(row) => MergedInner::Layer(row.iter()),
            None if (v as usize) < self.snapshot.num_nodes() => {
                MergedInner::Snapshot(&self.snapshot, self.snapshot.edge_range(v))
            }
            None => MergedInner::Layer([].iter()),
        };
        MergedNeighbors { inner }
    }

    /// Sorted vertices with an override in any live layer.
    pub fn touched_vertices(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .layers
            .iter()
            .flat_map(|l| l.rows.keys().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Folds one batch into a new layer and returns what it did.
    ///
    /// An empty batch adds no layer. When the layer count reaches the
    /// auto-compaction threshold the fold is followed by [`compact`];
    /// a recoverable compaction failure (the `delta.compact.alloc` fault
    /// point) surfaces as this call's error, with the new layer already
    /// safely applied.
    ///
    /// [`compact`]: DeltaGraph::compact
    pub fn apply(&mut self, batch: &EdgeBatch) -> Result<ApplyStats, String> {
        let start = Instant::now();
        let mut stats = ApplyStats::default();
        if batch.is_empty() {
            return Ok(stats);
        }
        let weighted = self.snapshot.is_weighted();
        let mut rows: BTreeMap<NodeId, Vec<(NodeId, u32)>> = BTreeMap::new();
        for op in batch.ops() {
            let (src, dst) = op.endpoints();
            let needed = src.max(dst) as usize + 1;
            if needed > self.n {
                stats.grew_nodes += (needed - self.n) as u64;
                self.n = needed;
            }
            // Copy-on-write: the first touch of a row in this batch folds
            // from the current merged view (prior layers included).
            let row = match rows.entry(src) {
                std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::btree_map::Entry::Vacant(e) => {
                    let seeded = self
                        .layers
                        .iter()
                        .rev()
                        .find_map(|l| l.rows.get(&src).cloned())
                        .unwrap_or_else(|| {
                            if (src as usize) < self.snapshot.num_nodes() {
                                self.snapshot.neighbors_weighted(src).collect()
                            } else {
                                Vec::new()
                            }
                        });
                    e.insert(seeded)
                }
            };
            match *op {
                EdgeUpdate::Insert { weight, .. } => {
                    let w = if weighted { weight.unwrap_or(1) } else { 1 };
                    row.push((dst, w));
                    stats.inserted += 1;
                }
                EdgeUpdate::Delete { .. } => {
                    let before = row.len();
                    row.retain(|&(d, _)| d != dst);
                    let removed = (before - row.len()) as u64;
                    if removed == 0 {
                        stats.missing_deletes += 1;
                    } else {
                        stats.deleted += removed;
                    }
                }
            }
        }
        stats.touched = rows.len() as u64;
        self.m = self.m + stats.inserted as usize - stats.deleted as usize;
        self.delta_edges += batch.len() as u64;
        self.layers.push(DeltaLayer { rows });
        trace::record(Event::Delta(DeltaSpan {
            seq: 0,
            kind: DeltaKind::Apply,
            delta_nnz: batch.len() as u64,
            layers: self.layers.len() as u64,
            touched: stats.touched,
            repair_frontier: 0,
            elapsed_ns: start.elapsed().as_nanos() as u64,
        }));
        if self.threshold > 0 && self.layers.len() >= self.threshold {
            self.compact()?;
        }
        Ok(stats)
    }

    /// Materializes the merged view into a fresh standalone [`CsrGraph`]
    /// without disturbing the layers. With no layers this is an exact
    /// copy of the snapshot.
    ///
    /// Rows keep merged-view order: an insert appends to its row, so a
    /// row need not ascend by destination after ingest.
    pub fn materialize(&self) -> CsrGraph {
        let mut offsets = Vec::with_capacity(self.n + 1);
        offsets.push(0usize);
        let mut dests = Vec::with_capacity(self.m);
        let mut weights = self.snapshot.is_weighted().then(|| Vec::with_capacity(self.m));
        for v in 0..self.n as NodeId {
            for (d, w) in self.neighbors(v) {
                dests.push(d);
                if let Some(ws) = &mut weights {
                    ws.push(w);
                }
            }
            offsets.push(dests.len());
        }
        CsrGraph::from_raw(offsets, dests, weights)
    }

    /// Folds every layer into a fresh snapshot.
    ///
    /// Compaction is crash-injectable via two [`substrate::fault`]
    /// points: `delta.compact.alloc` fires *before* any work and fails
    /// the call recoverably, and `delta.compact.commit` fires after the
    /// fresh snapshot is built but *before* the swap, panicking — in
    /// both cases the pre-compaction snapshot and every layer remain
    /// intact and readable. With no layers stacked this is a no-op that
    /// consults neither fault point.
    ///
    /// # Panics
    ///
    /// Panics when the `delta.compact.commit` fault point fires.
    pub fn compact(&mut self) -> Result<(), String> {
        if self.layers.is_empty() {
            return Ok(());
        }
        let start = Instant::now();
        if substrate::fault::point("delta.compact.alloc") {
            return Err("injected fault: delta.compact.alloc".to_string());
        }
        let touched = self.touched_vertices().len() as u64;
        let fresh = self.materialize();
        if substrate::fault::point("delta.compact.commit") {
            panic!("injected fault: delta.compact.commit");
        }
        let folded = self.delta_edges;
        self.snapshot = fresh;
        self.layers.clear();
        self.delta_edges = 0;
        self.compactions += 1;
        trace::record(Event::Delta(DeltaSpan {
            seq: 0,
            kind: DeltaKind::Compact,
            delta_nnz: folded,
            layers: 0,
            touched,
            repair_frontier: 0,
            elapsed_ns: start.elapsed().as_nanos() as u64,
        }));
        Ok(())
    }
}

enum MergedInner<'a> {
    Layer(std::slice::Iter<'a, (NodeId, u32)>),
    Snapshot(&'a CsrGraph, std::ops::Range<usize>),
}

/// Iterator over a vertex's merged `(dst, weight)` out-edges.
pub struct MergedNeighbors<'a> {
    inner: MergedInner<'a>,
}

impl Iterator for MergedNeighbors<'_> {
    type Item = (NodeId, u32);

    fn next(&mut self) -> Option<(NodeId, u32)> {
        match &mut self.inner {
            MergedInner::Layer(it) => it.next().copied(),
            MergedInner::Snapshot(g, range) => {
                let e = range.next()?;
                Some((g.edge_dst(e), g.edge_weight(e)))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            MergedInner::Layer(it) => it.size_hint(),
            MergedInner::Snapshot(_, range) => range.size_hint(),
        }
    }
}

impl ExactSizeIterator for MergedNeighbors<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_weighted_edges;

    fn base() -> CsrGraph {
        // 0 -> 1 (w 5), 0 -> 2 (w 7), 2 -> 3 (w 1)
        from_weighted_edges(4, [(0, 1, 5), (0, 2, 7), (2, 3, 1)])
    }

    fn row(d: &DeltaGraph, v: NodeId) -> Vec<(NodeId, u32)> {
        d.neighbors(v).collect()
    }

    #[test]
    fn merged_view_equals_materialized_view() {
        let mut d = DeltaGraph::with_threshold(base(), 0);
        d.apply(&EdgeBatch::new().insert_weighted(1, 3, 9).delete(0, 2))
            .unwrap();
        d.apply(&EdgeBatch::new().insert_weighted(0, 3, 2)).unwrap();
        let m = d.materialize();
        assert_eq!(m.num_nodes(), d.num_nodes());
        assert_eq!(m.num_edges(), d.num_edges());
        for v in 0..d.num_nodes() as NodeId {
            assert_eq!(
                row(&d, v),
                m.neighbors_weighted(v).collect::<Vec<_>>(),
                "vertex {v}"
            );
        }
    }

    #[test]
    fn inserts_append_and_deletes_remove_all_occurrences() {
        let mut d = DeltaGraph::with_threshold(base(), 0);
        let s = d
            .apply(&EdgeBatch::new().insert_weighted(0, 1, 2).insert_weighted(0, 1, 3))
            .unwrap();
        assert_eq!(s.inserted, 2);
        assert_eq!(row(&d, 0), vec![(1, 5), (2, 7), (1, 2), (1, 3)]);
        let s = d.apply(&EdgeBatch::new().delete(0, 1)).unwrap();
        assert_eq!(s.deleted, 3, "delete removes the snapshot edge and both parallels");
        assert_eq!(row(&d, 0), vec![(2, 7)]);
        assert_eq!(d.num_edges(), 2);
    }

    #[test]
    fn empty_batch_adds_no_layer_and_empty_compact_is_a_noop() {
        let mut d = DeltaGraph::with_threshold(base(), 0);
        let s = d.apply(&EdgeBatch::new()).unwrap();
        assert_eq!(s, ApplyStats::default());
        assert_eq!(d.layer_count(), 0);
        d.compact().unwrap();
        assert_eq!(d.compactions(), 0, "nothing to fold");
        assert_eq!(d.snapshot(), &base());
    }

    #[test]
    fn threshold_auto_compacts() {
        let mut d = DeltaGraph::with_threshold(base(), 2);
        d.apply(&EdgeBatch::new().insert(1, 0)).unwrap();
        assert_eq!(d.layer_count(), 1);
        d.apply(&EdgeBatch::new().insert(3, 0)).unwrap();
        assert_eq!(d.layer_count(), 0, "second layer hit the threshold");
        assert_eq!(d.compactions(), 1);
        assert_eq!(d.snapshot().num_edges(), 5);
        assert_eq!(d.delta_nnz(), 0);
    }

    #[test]
    fn updates_grow_the_vertex_set() {
        let mut d = DeltaGraph::with_threshold(base(), 0);
        let s = d.apply(&EdgeBatch::new().insert_weighted(6, 0, 4)).unwrap();
        assert_eq!(s.grew_nodes, 3);
        assert_eq!(d.num_nodes(), 7);
        assert_eq!(row(&d, 6), vec![(0, 4)]);
        assert_eq!(d.out_degree(5), 0);
        let m = d.materialize();
        assert_eq!(m.num_nodes(), 7);
        assert_eq!(m.neighbors_weighted(6).collect::<Vec<_>>(), vec![(0, 4)]);
    }

    #[test]
    fn unweighted_snapshots_stay_unweighted() {
        let g = crate::builder::from_edges(3, [(0, 1), (1, 2)]);
        let mut d = DeltaGraph::with_threshold(g, 0);
        d.apply(&EdgeBatch::new().insert_weighted(2, 0, 99)).unwrap();
        assert!(!d.is_weighted());
        assert_eq!(row(&d, 2), vec![(0, 1)], "explicit weight ignored");
        assert!(!d.materialize().is_weighted());
    }

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        let b = EdgeBatch::parse("# header\n+ 1 2 9\n\n- 0 2\n+ 3 4\n").unwrap();
        assert_eq!(
            b.ops(),
            &[
                EdgeUpdate::Insert {
                    src: 1,
                    dst: 2,
                    weight: Some(9)
                },
                EdgeUpdate::Delete { src: 0, dst: 2 },
                EdgeUpdate::Insert {
                    src: 3,
                    dst: 4,
                    weight: None
                },
            ]
        );
        for bad in [
            "* 1 2",
            "+ 1",
            "+ 1 x",
            "+ 1 2 -3",
            "+ 1 2 3 4",
            "- 1 2 3",
            "- 99999999999999999999 1",
        ] {
            assert!(EdgeBatch::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn symmetrized_mirrors_non_loops() {
        let b = EdgeBatch::new().insert_weighted(0, 1, 3).delete(2, 2).symmetrized();
        assert_eq!(
            b.ops(),
            &[
                EdgeUpdate::Insert {
                    src: 0,
                    dst: 1,
                    weight: Some(3)
                },
                EdgeUpdate::Insert {
                    src: 1,
                    dst: 0,
                    weight: Some(3)
                },
                EdgeUpdate::Delete { src: 2, dst: 2 },
            ]
        );
    }

    #[test]
    fn batch_grouping_is_invisible_to_the_merged_state() {
        let ops = EdgeBatch::new()
            .insert_weighted(0, 3, 2)
            .delete(0, 1)
            .insert_weighted(3, 0, 1)
            .insert_weighted(0, 3, 8)
            .delete(2, 3);
        let mut one = DeltaGraph::with_threshold(base(), 0);
        one.apply(&ops).unwrap();
        let mut many = DeltaGraph::with_threshold(base(), 0);
        for op in ops.ops() {
            let mut b = EdgeBatch::new();
            b.push(*op);
            many.apply(&b).unwrap();
        }
        assert_eq!(one.materialize(), many.materialize());
        one.compact().unwrap();
        many.compact().unwrap();
        assert_eq!(one.snapshot(), many.snapshot());
    }
}
