//! Verification of parallel outputs against the serial references.

use crate::prepared::PreparedGraph;
use crate::problem::{Problem, ProblemOutput};
use crate::reference;

/// A verification failure with context.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for VerifyError {}

fn fail(message: impl Into<String>) -> Result<(), VerifyError> {
    Err(VerifyError {
        message: message.into(),
    })
}

/// Verifies one run's output against the serial reference for `problem`.
///
/// bfs levels, distances, truss edges and triangle counts must match
/// exactly; component labels must describe the same partition; pagerank
/// must match within a floating-point reordering tolerance.
///
/// # Errors
///
/// Returns a [`VerifyError`] describing the first mismatch.
pub fn verify(
    p: &PreparedGraph,
    problem: Problem,
    output: &ProblemOutput,
) -> Result<(), VerifyError> {
    match (problem, output) {
        (Problem::Bfs, ProblemOutput::Levels(levels)) => {
            let expected = reference::bfs_levels(&p.graph, p.source);
            if levels != &expected {
                let bad = first_diff(levels, &expected);
                return fail(format!("bfs level mismatch at vertex {bad:?}"));
            }
            Ok(())
        }
        (Problem::Cc, ProblemOutput::Components(labels)) => {
            let expected = reference::components(&p.symmetric);
            if !same_partition(labels, &expected) {
                return fail("cc labels describe a different partition");
            }
            Ok(())
        }
        (Problem::Ktruss, ProblemOutput::TrussEdges(edges)) => {
            let expected = reference::ktruss_edges(&p.symmetric, p.ktruss_k);
            if *edges != expected {
                return fail(format!("ktruss edges {edges} != expected {expected}"));
            }
            Ok(())
        }
        (Problem::Pr, ProblemOutput::Ranks(ranks)) => {
            let expected = reference::pagerank(&p.graph, p.pr_iters);
            if ranks.len() != expected.len() {
                return fail("pr length mismatch");
            }
            for (v, (a, b)) in ranks.iter().zip(expected.iter()).enumerate() {
                let tol = 1e-9 * b.abs().max(1e-12);
                if (a - b).abs() > tol.max(1e-12) {
                    return fail(format!("pr mismatch at vertex {v}: {a} vs {b}"));
                }
            }
            Ok(())
        }
        (Problem::Sssp, ProblemOutput::Dists(dist)) => {
            let expected = reference::dijkstra(&p.graph, p.source);
            if dist != &expected {
                let bad = first_diff(dist, &expected);
                return fail(format!("sssp distance mismatch at vertex {bad:?}"));
            }
            Ok(())
        }
        (Problem::Tc, ProblemOutput::Triangles(count)) => {
            let expected = reference::triangles(&p.symmetric);
            if *count != expected {
                return fail(format!("triangle count {count} != expected {expected}"));
            }
            Ok(())
        }
        (problem, output) => fail(format!(
            "output kind {output:?} does not match problem {problem}"
        )),
    }
}

fn first_diff<T: PartialEq>(a: &[T], b: &[T]) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    a.iter().zip(b.iter()).position(|(x, y)| x != y)
}

/// Two labelings describe the same partition iff the label→label mapping
/// is a bijection consistent across every vertex.
pub fn same_partition(a: &[u32], b: &[u32]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut fwd = std::collections::HashMap::new();
    let mut bwd = std::collections::HashMap::new();
    for (&x, &y) in a.iter().zip(b.iter()) {
        if *fwd.entry(x).or_insert(y) != y {
            return false;
        }
        if *bwd.entry(y).or_insert(x) != x {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::{Scale, StudyGraph};

    #[test]
    fn partition_equivalence_ignores_label_names() {
        assert!(same_partition(&[0, 0, 2, 2], &[5, 5, 9, 9]));
        assert!(!same_partition(&[0, 0, 2, 2], &[5, 5, 9, 8]));
        assert!(!same_partition(&[0, 0, 1, 1], &[3, 3, 3, 3]));
        assert!(!same_partition(&[0], &[0, 0]));
    }

    #[test]
    fn wrong_output_kind_is_rejected() {
        let p = PreparedGraph::study(StudyGraph::RoadUsaW, Scale::custom(1.0 / 256.0));
        let out = ProblemOutput::Triangles(0);
        assert!(verify(&p, Problem::Bfs, &out).is_err());
    }

    #[test]
    fn detects_wrong_triangle_count() {
        let p = PreparedGraph::study(StudyGraph::Indochina04, Scale::custom(1.0 / 256.0));
        let out = ProblemOutput::Triangles(123456789);
        let err = verify(&p, Problem::Tc, &out).unwrap_err();
        assert!(err.to_string().contains("triangle count"));
    }

    #[test]
    fn rejects_near_miss_tc_and_ktruss_counts() {
        let g = graph::gen::preferential_attachment(400, 6, true, 7);
        let p = PreparedGraph::from_graph("pa", g, 0, 4, 1);
        let triangles = crate::reference::triangles(&p.symmetric);
        let edges = crate::reference::ktruss_edges(&p.symmetric, p.ktruss_k);
        assert!(
            triangles > 0 && edges > 2,
            "the mutants need a nonempty answer"
        );
        let tc = |count| verify(&p, Problem::Tc, &ProblemOutput::Triangles(count));
        let ktruss = |edges| verify(&p, Problem::Ktruss, &ProblemOutput::TrussEdges(edges));
        assert!(tc(triangles).is_ok() && ktruss(edges).is_ok());
        assert!(tc(triangles + 1).is_err() && tc(triangles - 1).is_err());
        assert!(ktruss(edges + 2).is_err() && ktruss(edges - 2).is_err());
    }

    #[test]
    fn detects_wrong_levels() {
        let p = PreparedGraph::study(StudyGraph::RoadUsaW, Scale::custom(1.0 / 256.0));
        let mut levels = crate::reference::bfs_levels(&p.graph, p.source);
        levels[3] = levels[3].wrapping_add(7);
        let out = ProblemOutput::Levels(levels);
        assert!(verify(&p, Problem::Bfs, &out).is_err());
    }
}
