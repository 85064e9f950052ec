//! The server's snapshot catalog.
//!
//! Each cataloged graph is an *immutable published snapshot* (an
//! `Arc<PreparedGraph>` that in-flight jobs hold for their whole run)
//! plus a [`DeltaGraph`] overlay absorbing streamed edge batches.
//! Queries always run against the published snapshot; ingest mutates
//! only the overlay; an explicit compact folds the overlay down and
//! republishes a freshly prepared snapshot under a bumped version.
//! That split is what makes fault containment cheap: a panicking job
//! can only ever drop its own `Arc`, never corrupt catalog state.

use graph::delta::{ApplyStats, DeltaGraph, EdgeBatch};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use study_core::prepared::PreparedGraph;
use substrate::sync::{Mutex, RwLock};

/// One cataloged graph: published snapshot + pending delta overlay.
pub struct GraphEntry {
    name: String,
    /// The published snapshot. Replaced wholesale by compaction; jobs
    /// clone the `Arc` once at admission and are immune to republishes.
    current: RwLock<Arc<PreparedGraph>>,
    /// Pending streamed updates, not yet visible to queries.
    delta: Mutex<DeltaGraph>,
    /// Snapshot version, bumped by each compaction.
    version: AtomicU64,
}

/// Point-in-time catalog statistics for one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryStats {
    /// Vertices in the merged view (delta growth included).
    pub nodes: u64,
    /// Edges in the merged view (snapshot + pending deltas).
    pub edges: u64,
    /// Pending delta layers.
    pub layers: u32,
    /// Entries across all pending delta layers.
    pub delta_nnz: u64,
    /// Published snapshot version.
    pub version: u64,
    /// Compactions since the graph was cataloged.
    pub compactions: u64,
}

impl GraphEntry {
    fn new(prepared: PreparedGraph) -> GraphEntry {
        // Threshold 0 = manual-only compaction: the service compacts on
        // the explicit endpoint so a republish never races an ingest.
        let delta = DeltaGraph::with_threshold(prepared.graph.clone(), 0);
        GraphEntry {
            name: prepared.name.clone(),
            current: RwLock::new(Arc::new(prepared)),
            delta: Mutex::new(delta),
            version: AtomicU64::new(0),
        }
    }

    /// Catalog name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The currently published snapshot.
    pub fn snapshot(&self) -> Arc<PreparedGraph> {
        Arc::clone(&self.current.read())
    }

    /// Published snapshot version.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Applies an edge batch to the pending overlay.
    ///
    /// # Errors
    ///
    /// Propagates the overlay's validation error (malformed batch).
    pub fn ingest(&self, batch: &EdgeBatch) -> Result<ApplyStats, String> {
        self.delta.lock().apply(batch)
    }

    /// Folds the pending overlay into the CSR and republishes a freshly
    /// prepared snapshot ([`PreparedGraph::from_graph`]); returns the
    /// new version.
    ///
    /// # Errors
    ///
    /// Propagates compaction failure (e.g. an injected
    /// `delta.compact.alloc` fault). The previous snapshot stays
    /// published — a failed compact is invisible to queries.
    pub fn compact(&self) -> Result<u64, String> {
        let mut delta = self.delta.lock();
        delta.compact()?;
        let graph = delta.snapshot().clone();
        let prev = self.snapshot();
        let mut prepared = PreparedGraph::from_graph(
            prev.name.clone(),
            graph,
            prev.source,
            prev.ktruss_k,
            prev.sssp_delta,
        );
        prepared.pr_iters = prev.pr_iters;
        *self.current.write() = Arc::new(prepared);
        let version = self.version.fetch_add(1, Ordering::AcqRel) + 1;
        Ok(version)
    }

    /// Current statistics (merged view sizes, overlay depth, version).
    pub fn stats(&self) -> EntryStats {
        let delta = self.delta.lock();
        EntryStats {
            nodes: delta.num_nodes() as u64,
            edges: delta.num_edges() as u64,
            layers: delta.layer_count() as u32,
            delta_nnz: delta.delta_nnz(),
            version: self.version(),
            compactions: delta.compactions(),
        }
    }
}

impl std::fmt::Debug for GraphEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphEntry")
            .field("name", &self.name)
            .field("version", &self.version())
            .finish()
    }
}

/// Name → entry map shared by every connection handler.
pub struct Catalog {
    entries: RwLock<HashMap<String, Arc<GraphEntry>>>,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::new()
    }
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Catalog")
            .field("names", &self.names())
            .finish()
    }
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Catalog {
        Catalog {
            entries: RwLock::new(HashMap::new()),
        }
    }

    /// Catalogs a prepared graph under its own name, replacing any
    /// previous entry of that name.
    pub fn insert(&self, prepared: PreparedGraph) {
        let entry = Arc::new(GraphEntry::new(prepared));
        self.entries
            .write()
            .insert(entry.name().to_string(), entry);
    }

    /// Looks up a graph by name.
    pub fn get(&self, name: &str) -> Option<Arc<GraphEntry>> {
        self.entries.read().get(name).cloned()
    }

    /// Cataloged names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.entries.read().keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::{Scale, StudyGraph};

    fn tiny() -> PreparedGraph {
        PreparedGraph::study(StudyGraph::RoadUsaW, Scale::tiny())
    }

    #[test]
    fn insert_get_and_names_round_trip() {
        let catalog = Catalog::new();
        catalog.insert(tiny());
        assert_eq!(catalog.names(), vec!["road-USA-W".to_string()]);
        let entry = catalog.get("road-USA-W").expect("cataloged");
        assert_eq!(entry.name(), "road-USA-W");
        assert!(catalog.get("missing").is_none());
    }

    #[test]
    fn ingest_is_invisible_until_compact_republishes() {
        let catalog = Catalog::new();
        catalog.insert(tiny());
        let entry = catalog.get("road-USA-W").unwrap();
        let before = entry.snapshot();
        let edges_before = before.graph.num_edges();

        // Stream a fresh edge between two existing vertices.
        let batch = EdgeBatch::new().insert_weighted(0, 2, 5);
        let stats = entry.ingest(&batch).expect("apply");
        assert_eq!(stats.inserted, 1);
        assert_eq!(entry.stats().layers, 1);
        // Published snapshot is untouched.
        assert_eq!(entry.snapshot().graph.num_edges(), edges_before);
        assert_eq!(entry.version(), 0);

        let version = entry.compact().expect("compact");
        assert_eq!(version, 1);
        assert_eq!(entry.stats().layers, 0);
        let after = entry.snapshot();
        assert!(after.graph.num_edges() > edges_before);
        // Jobs holding the old Arc are unaffected.
        assert_eq!(before.graph.num_edges(), edges_before);
        // Prepared views were rebuilt for the merged graph.
        assert_eq!(after.symmetric.num_nodes(), after.graph.num_nodes());
    }

    #[test]
    fn stats_track_the_overlay() {
        let catalog = Catalog::new();
        catalog.insert(tiny());
        let entry = catalog.get("road-USA-W").unwrap();
        let s0 = entry.stats();
        assert_eq!(s0.layers, 0);
        assert_eq!(s0.version, 0);
        entry
            .ingest(&EdgeBatch::new().insert_weighted(1, 3, 2))
            .unwrap();
        let s1 = entry.stats();
        assert_eq!(s1.layers, 1);
        assert!(s1.delta_nnz > 0);
        entry.compact().unwrap();
        let s2 = entry.stats();
        assert_eq!((s2.layers, s2.version, s2.compactions), (0, 1, 1));
    }
}
