//! Batched multi-source queries on the graph API: the worklist
//! counterpart of `lagraph::batch`'s msBFS.
//!
//! The graph API has no frontier object to widen — each query owns its
//! own worklist — so a k-source batch is k independent runs back to
//! back. That asymmetry is the point of the batched study dimension: the
//! matrix API amortizes k queries into one mxm-shaped product per round,
//! while the graph API repeats its (already fused) single-query
//! engine k times. Results are per-query and a panic in one
//! query is isolated by the study-runner cell, not here.

use crate::bfs::{self, BfsResult};
use graph::{CsrGraph, NodeId};

/// k BFS queries, one [`bfs::bfs`] worklist run per source.
pub fn batched_bfs(g: &CsrGraph, sources: &[NodeId]) -> Vec<BfsResult> {
    sources.iter().map(|&src| bfs::bfs(g, src)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_runs_equal_individual_runs() {
        let g = graph::gen::erdos_renyi(80, 320, 3);
        let sources = [0u32, 11, 42];
        let b = batched_bfs(&g, &sources);
        for (j, &src) in sources.iter().enumerate() {
            assert_eq!(b[j], bfs::bfs(&g, src), "bfs lane {j}");
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let g = graph::builder::from_edges(2, [(0, 1)]);
        assert!(batched_bfs(&g, &[]).is_empty());
    }
}
