//! GraphBLAS matrices in CSR storage.
//!
//! Like SuiteSparse (paper §III-A), the adjacency structure is kept in
//! Compressed Sparse Row form; explicit entries may hold any scalar,
//! including zeros.

use crate::binops::BinOp;
use crate::error::GrbError;
use crate::scalar::Scalar;
use graph::CsrGraph;

/// A sparse `nrows × ncols` matrix over scalar `T` in CSR form.
///
/// # Example
///
/// ```
/// use graphblas::{binops::Plus, Matrix};
///
/// let m = Matrix::from_tuples(2, 2, vec![(0, 1, 3u32), (1, 0, 4)], Plus).unwrap();
/// assert_eq!(m.nvals(), 2);
/// assert_eq!(m.get(0, 1), Some(3));
/// assert_eq!(m.get(0, 0), None);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    vals: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates an empty matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Matrix {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Builds a matrix from `(row, col, value)` tuples, combining
    /// duplicates with `dup` (`GrB_Matrix_build`).
    ///
    /// # Errors
    ///
    /// Returns [`GrbError::IndexOutOfBounds`] when a tuple lies outside
    /// the matrix.
    pub fn from_tuples<B: BinOp<T>>(
        nrows: usize,
        ncols: usize,
        mut tuples: Vec<(u32, u32, T)>,
        dup: B,
    ) -> Result<Self, GrbError> {
        for &(r, c, _) in &tuples {
            if r as usize >= nrows {
                return Err(GrbError::IndexOutOfBounds {
                    index: r as usize,
                    bound: nrows,
                });
            }
            if c as usize >= ncols {
                return Err(GrbError::IndexOutOfBounds {
                    index: c as usize,
                    bound: ncols,
                });
            }
        }
        tuples.sort_unstable_by_key(|&(r, c, _)| (r, c));
        tuples.dedup_by(|next, prev| {
            if next.0 == prev.0 && next.1 == prev.1 {
                prev.2 = dup.apply(prev.2, next.2);
                true
            } else {
                false
            }
        });
        let mut row_ptr = vec![0usize; nrows + 1];
        for &(r, _, _) in &tuples {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 1..row_ptr.len() {
            row_ptr[i] += row_ptr[i - 1];
        }
        let col_idx = tuples.iter().map(|&(_, c, _)| c).collect();
        let vals = tuples.into_iter().map(|(_, _, v)| v).collect();
        Ok(Matrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            vals,
        })
    }

    /// Views a [`CsrGraph`] as an adjacency matrix, mapping each edge
    /// weight through `f` (so bfs can use `|_| true`, sssp `|w| w as u64`,
    /// and so on).
    ///
    /// Parallel edges in the graph (RMAT inputs are multigraphs) become
    /// repeated explicit entries: spmv-style kernels fold them under the
    /// semiring's ⊕ like any other entry, matching how the graph-based
    /// programs iterate duplicate edges. Kernels that merge-join sorted
    /// rows (`mxm`'s dot products) require deduplicated inputs, which tc and
    /// ktruss guarantee by running on symmetrized graphs.
    pub fn from_graph(g: &CsrGraph, f: impl Fn(u32) -> T) -> Self {
        let n = g.num_nodes();
        let vals = (0..g.num_edges()).map(|e| f(g.edge_weight(e))).collect();
        Matrix {
            nrows: n,
            ncols: n,
            row_ptr: g.offsets().to_vec(),
            col_idx: g.dests().to_vec(),
            vals,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of explicit entries (`GrB_Matrix_nvals`).
    #[inline]
    pub fn nvals(&self) -> usize {
        self.col_idx.len()
    }

    /// The column indices and values of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[inline]
    pub fn row(&self, r: u32) -> (&[u32], &[T]) {
        let range = self.row_ptr[r as usize]..self.row_ptr[r as usize + 1];
        (&self.col_idx[range.clone()], &self.vals[range])
    }

    /// Number of explicit entries in row `r`.
    #[inline]
    pub fn row_nvals(&self, r: u32) -> usize {
        self.row_ptr[r as usize + 1] - self.row_ptr[r as usize]
    }

    /// Reads entry `(r, c)`, or `None` when not explicit.
    pub fn get(&self, r: u32, c: u32) -> Option<T> {
        if r as usize >= self.nrows {
            return None;
        }
        let (cols, vals) = self.row(r);
        cols.binary_search(&c).ok().map(|p| vals[p])
    }

    /// Iterates row `r`'s `(column, &value)` pairs in storage order; the
    /// SpMV kernel bodies iterate rows through this.
    #[inline]
    pub(crate) fn row_pairs(&self, r: u32) -> impl Iterator<Item = (u32, &T)> {
        let (cols, vals) = self.row(r);
        cols.iter().copied().zip(vals)
    }

    /// The transpose (CSR of `A^T`, i.e. the CSC view of `A`), built
    /// afresh on every call. A product that pulls takes a transpose the
    /// caller prepared, as LAGraph's algorithms take the graph object's
    /// `AT`; nothing caches one here.
    pub fn transpose(&self) -> Matrix<T> {
        let mut col_counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            col_counts[c as usize + 1] += 1;
        }
        for i in 1..col_counts.len() {
            col_counts[i] += col_counts[i - 1];
        }
        let mut cursor = col_counts.clone();
        let mut col_idx = vec![0u32; self.nvals()];
        let mut vals = vec![T::ZERO; self.nvals()];
        for r in 0..self.nrows as u32 {
            let (cols, rvals) = self.row(r);
            for (&c, &v) in cols.iter().zip(rvals.iter()) {
                let slot = cursor[c as usize];
                cursor[c as usize] += 1;
                col_idx[slot] = r;
                vals[slot] = v;
            }
        }
        Matrix {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr: col_counts,
            col_idx,
            vals,
        }
    }

    /// Collects all `(row, col, value)` tuples (row-major order).
    pub fn to_tuples(&self) -> Vec<(u32, u32, T)> {
        let mut out = Vec::with_capacity(self.nvals());
        for r in 0..self.nrows as u32 {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                out.push((r, c, v));
            }
        }
        out
    }

    /// Builds a CSR matrix from per-row entry lists (kernel use; rows must
    /// have strictly ascending column indices).
    pub(crate) fn from_rows(nrows: usize, ncols: usize, rows: Vec<Vec<(u32, T)>>) -> Self {
        debug_assert_eq!(rows.len(), nrows);
        let mut row_ptr = vec![0usize; nrows + 1];
        for (i, row) in rows.iter().enumerate() {
            debug_assert!(row.windows(2).all(|w| w[0].0 < w[1].0));
            row_ptr[i + 1] = row_ptr[i] + row.len();
        }
        let total = row_ptr[nrows];
        let mut col_idx = Vec::with_capacity(total);
        let mut vals = Vec::with_capacity(total);
        for row in rows {
            for (c, v) in row {
                col_idx.push(c);
                vals.push(v);
            }
        }
        Matrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            vals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binops::Plus;

    fn small() -> Matrix<u32> {
        Matrix::from_tuples(
            3,
            3,
            vec![(0, 1, 1), (0, 2, 2), (1, 2, 3), (2, 0, 4)],
            Plus,
        )
        .unwrap()
    }

    #[test]
    fn tuples_round_trip() {
        let m = small();
        assert_eq!(m.nvals(), 4);
        assert_eq!(
            m.to_tuples(),
            vec![(0, 1, 1), (0, 2, 2), (1, 2, 3), (2, 0, 4)]
        );
    }

    #[test]
    fn duplicates_combine_with_dup_op() {
        let m = Matrix::from_tuples(2, 2, vec![(0, 0, 5u32), (0, 0, 7)], Plus).unwrap();
        assert_eq!(m.get(0, 0), Some(12));
        assert_eq!(m.nvals(), 1);
    }

    #[test]
    fn out_of_bounds_tuple_errors() {
        assert!(Matrix::from_tuples(2, 2, vec![(2, 0, 1u32)], Plus).is_err());
        assert!(Matrix::from_tuples(2, 2, vec![(0, 5, 1u32)], Plus).is_err());
    }

    #[test]
    fn transpose_round_trips() {
        let m = small();
        let t = m.transpose();
        assert_eq!(t.get(1, 0), Some(1));
        assert_eq!(t.get(0, 2), Some(4));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn row_pairs_yields_storage_order_on_multigraph_rows() {
        // A multigraph row may repeat a column and need not ascend; the
        // kernels fold in exactly the order the arrays store.
        let m = Matrix {
            nrows: 3,
            ncols: 4,
            row_ptr: vec![0, 4, 4, 5],
            col_idx: vec![3, 1, 3, 0, 2],
            vals: vec![10u64, 20, 30, 40, 50],
        };
        let pairs = |r| m.row_pairs(r).map(|(c, &v)| (c, v)).collect::<Vec<_>>();
        assert_eq!(pairs(0), vec![(3, 10), (1, 20), (3, 30), (0, 40)]);
        assert_eq!(pairs(1), vec![]);
        assert_eq!(pairs(2), vec![(2, 50)]);
    }

    #[test]
    fn from_graph_maps_weights() {
        let g = graph::builder::from_weighted_edges(3, [(0, 1, 7), (1, 2, 9)]);
        let m = Matrix::from_graph(&g, |w| u64::from(w) * 2);
        assert_eq!(m.get(0, 1), Some(14));
        assert_eq!(m.get(1, 2), Some(18));
    }

    #[test]
    fn empty_matrix_behaves() {
        let m: Matrix<u32> = Matrix::new(4, 4);
        assert_eq!(m.nvals(), 0);
        assert_eq!(m.get(1, 1), None);
        assert_eq!(m.transpose().nvals(), 0);
    }

    #[test]
    fn row_accessors() {
        let m = small();
        let (cols, vals) = m.row(0);
        assert_eq!(cols, &[1, 2]);
        assert_eq!(vals, &[1, 2]);
        assert_eq!(m.row_nvals(1), 1);
    }
}
