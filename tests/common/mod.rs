//! Helpers shared by the integration suites that stream edge updates.

use graph_api_study::graph::{CsrGraph, EdgeBatch, NodeId};
use graph_api_study::substrate::rng::Rng;

/// A seeded update stream over `g`: `batches` batches of `per_batch`
/// ops. Every 8th op deletes a snapshot edge (one an earlier batch may
/// already have removed — a recorded no-op); the rest insert random
/// non-loop edges.
pub fn update_stream(g: &CsrGraph, batches: usize, per_batch: usize, seed: u64) -> Vec<EdgeBatch> {
    let mut rng = Rng::seed_from_u64(seed);
    let n = g.num_nodes() as NodeId;
    (0..batches)
        .map(|b| {
            let mut batch = EdgeBatch::new();
            for i in b * per_batch..(b + 1) * per_batch {
                if i % 8 == 7 {
                    let e = rng.gen_range(0..g.num_edges());
                    let src = (g.offsets().partition_point(|&o| o <= e) - 1) as NodeId;
                    batch = batch.delete(src, g.dests()[e]);
                } else {
                    let src = rng.gen_range(0..n);
                    let dst = (src + rng.gen_range(1..n)) % n;
                    batch = batch.insert_weighted(src, dst, rng.gen_range(1..=1000u32));
                }
            }
            batch
        })
        .collect()
}
