//! Recursive-MATrix (R-MAT) power-law graph generator.
//!
//! The paper's rmat22/rmat26 inputs are Graph500-style RMAT graphs; this is
//! the standard recursive quadrant-descent generator (Chakrabarti, Zhan and
//! Faloutsos, SDM 2004).

use crate::csr::{CsrGraph, NodeId};
use substrate::rng::Rng;

/// Quadrant probabilities of the RMAT recursion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    /// Probability of the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
}

impl Default for RmatParams {
    /// The Graph500 parameters (a, b, c, d) = (0.57, 0.19, 0.19, 0.05).
    fn default() -> Self {
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }
}

/// Generates a directed RMAT graph with `2^scale` vertices and
/// `edge_factor * 2^scale` edges.
///
/// Duplicate edges and self loops are kept, as in Graph500 inputs; callers
/// that need simple graphs should post-process with
/// [`crate::transform::symmetrize`].
///
/// # Panics
///
/// Panics if `scale >= 32` (node ids are 32-bit) or if the quadrant
/// probabilities exceed 1.
pub fn rmat(scale: u32, edge_factor: usize, params: RmatParams, seed: u64) -> CsrGraph {
    assert!(scale < 32, "scale must fit NodeId");
    assert!(
        params.a + params.b + params.c <= 1.0 + 1e-9,
        "quadrant probabilities must sum to at most 1"
    );
    let n = 1usize << scale;
    let m = edge_factor * n;
    let mut rng = Rng::seed_from_u64(seed);
    let mut builder = crate::builder::GraphBuilder::with_capacity(n, m);
    for _ in 0..m {
        let (mut src, mut dst) = (0usize, 0usize);
        for level in (0..scale).rev() {
            let r: f64 = rng.gen_f64();
            // Slightly perturb the quadrant probabilities per level, the
            // standard trick to avoid exactly self-similar artefacts.
            let noise = 1.0 + 0.1 * (rng.gen_f64() - 0.5);
            let a = params.a * noise;
            let b = params.b * noise;
            let c = params.c * noise;
            // Quadrants by cumulative probability: top-left (no bit),
            // top-right (dst bit), bottom-left (src bit), bottom-right
            // (both). The thresholds are nested, so the dst bit is the
            // parity of the three comparisons — no branch on `r`.
            let past_a = r >= a;
            let past_b = r >= a + b;
            let past_c = r >= a + b + c;
            src |= usize::from(past_b) << level;
            dst |= usize::from(past_a ^ past_b ^ past_c) << level;
        }
        builder.push_edge(src as NodeId, dst as NodeId, 1);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_requested_size() {
        let g = rmat(8, 16, RmatParams::default(), 1);
        assert_eq!(g.num_nodes(), 256);
        assert_eq!(g.num_edges(), 16 * 256);
    }

    #[test]
    fn degrees_are_skewed() {
        let g = rmat(12, 16, RmatParams::default(), 1);
        let max_deg = (0..g.num_nodes() as NodeId)
            .map(|v| g.out_degree(v))
            .max()
            .unwrap();
        let avg = g.num_edges() / g.num_nodes();
        assert!(
            max_deg > 10 * avg,
            "power-law graphs have hubs: max {max_deg} vs avg {avg}"
        );
    }

    #[test]
    #[should_panic(expected = "scale must fit")]
    fn rejects_huge_scale() {
        rmat(32, 1, RmatParams::default(), 0);
    }
}
