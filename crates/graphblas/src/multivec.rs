//! Multi-column frontiers: a `Matrix` of k independent query columns.
//!
//! The paper evaluates single-source traversals, where one round is a
//! sparse vector × matrix product. A service fielding k concurrent
//! sources generalizes the frontier vector to an n × k *multi-vector* —
//! the matrix operand of the batched `mxm` advance
//! ([`crate::ops::mxm_frontier`]) that amortizes the adjacency traversal
//! across queries, as GraphBLAST does on GPU.
//!
//! The layout is column-major: each of the k query columns ("lanes") is a
//! complete [`Vector`] with its own sparse/dense store, so every lane
//! keeps the exact representation the serial algorithms produce. That is
//! what makes per-column results bit-identical to k serial runs — the
//! batched engine amortizes *API calls and span bookkeeping*, never the
//! per-lane numerics.

use crate::scalar::Scalar;
use crate::vector::Vector;

/// An n × k multi-vector: k same-sized query columns ("lanes").
///
/// Used as the frontier / level operand of the batched algorithm
/// (`lagraph::batch`). Lanes are independent: a batched op
/// that fails on one lane (memory budget, injected fault) leaves the
/// others untouched.
#[derive(Debug, Clone)]
pub struct MultiVector<T> {
    n: usize,
    lanes: Vec<Vector<T>>,
}

impl<T: Scalar> MultiVector<T> {
    /// Creates an n × k multi-vector of empty lanes.
    pub fn new(n: usize, k: usize) -> Self {
        MultiVector {
            n,
            lanes: (0..k).map(|_| Vector::new(n)).collect(),
        }
    }

    /// Number of rows (the shared lane size).
    pub fn size(&self) -> usize {
        self.n
    }

    /// Number of columns (queries in the batch).
    pub fn width(&self) -> usize {
        self.lanes.len()
    }

    /// Total explicit entries across all lanes.
    pub fn nvals(&self) -> usize {
        self.lanes.iter().map(Vector::nvals).sum()
    }

    /// Column `j`.
    ///
    /// # Panics
    ///
    /// Panics when `j >= self.width()`.
    pub fn lane(&self, j: usize) -> &Vector<T> {
        &self.lanes[j]
    }

    /// Column `j`, mutably.
    ///
    /// # Panics
    ///
    /// Panics when `j >= self.width()`.
    pub fn lane_mut(&mut self, j: usize) -> &mut Vector<T> {
        &mut self.lanes[j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_builds_empty_lanes() {
        let m: MultiVector<u32> = MultiVector::new(5, 3);
        assert_eq!(m.size(), 5);
        assert_eq!(m.width(), 3);
        assert_eq!(m.nvals(), 0);
        assert!((0..m.width()).all(|j| m.lane(j).is_empty()));
    }

    #[test]
    fn lanes_are_independent() {
        let mut m: MultiVector<u32> = MultiVector::new(4, 2);
        m.lane_mut(0).set(1, 7).unwrap();
        assert_eq!(m.lane(0).get(1), Some(7));
        assert_eq!(m.lane(1).get(1), None);
        assert_eq!(m.nvals(), 1);
    }

    #[test]
    fn zero_width_is_allowed() {
        let m: MultiVector<u64> = MultiVector::new(10, 0);
        assert_eq!(m.width(), 0);
        assert_eq!(m.size(), 10);
    }
}
