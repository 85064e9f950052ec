#![warn(missing_docs)]

//! # graphblas — a GraphBLAS API with two execution backends
//!
//! A from-scratch Rust implementation of the subset of the GraphBLAS API
//! used by the LAGraph algorithms of *A Study of APIs for Graph Analytics
//! Workloads* (IISWC 2020): sparse [`Matrix`] and [`Vector`] types,
//! generalized semiring operations ([`binops`]), masks and [`Descriptor`]s,
//! and the kernels `mxm` / `vxm` / `mxv` / `eWiseAdd` / `eWiseMult` /
//! `apply` / `assign` / `extract` / `reduce` / `select` / `transpose`, with
//! the output accumulator [`Accum`] (`w ⊙= t`) on the vector ops.
//!
//! Every kernel is generic over a [`Runtime`] backend:
//!
//! * [`StaticRuntime`] ("SS") mimics SuiteSparse:GraphBLAS — one statically
//!   partitioned OpenMP-style parallel kernel per API call;
//! * [`GaloisRuntime`] ("GB") is the paper's GaloisBLAS — the same kernels
//!   scheduled by the Galois work-stealing runtime.
//!
//! Both share the structural properties the paper attributes to the
//! matrix-based *model*: each call is a separate pass with a barrier
//! (lightweight loops), intermediates are materialized, operations are
//! bulk, and execution is round-based.
//!
//! ## Example: one bfs round (Algorithm 2 of the paper)
//!
//! ```
//! use graphblas::{binops::LorLand, ops, Descriptor, GaloisRuntime, Matrix, Vector};
//!
//! // path 0 -> 1 -> 2
//! let g = graph::builder::from_edges(3, [(0, 1), (1, 2)]);
//! let a: Matrix<u32> = Matrix::from_graph(&g, |_| 1);
//! let mut dist: Vector<u32> = Vector::new(3);
//! ops::assign_scalar(&mut dist, None::<&Vector<bool>>, 0, &Descriptor::new(), GaloisRuntime)?;
//! let mut frontier: Vector<u32> = Vector::new(3);
//! frontier.set(0, 1)?;
//!
//! // dist<frontier> = level
//! ops::assign_scalar(&mut dist, Some(&frontier), 1, &Descriptor::new(), GaloisRuntime)?;
//! // frontier<!dist> = frontier lor.land A
//! let mut next: Vector<u32> = Vector::new(3);
//! ops::vxm(&mut next, Some(&dist), LorLand, &frontier, &a,
//!          &Descriptor::replace_complement(), GaloisRuntime)?;
//! assert_eq!(next.entries(), vec![(1, 1)]);
//! # Ok::<(), graphblas::GrbError>(())
//! ```

pub mod binops;
pub mod descriptor;
pub mod error;
pub mod matrix;
pub mod ops;
pub mod runtime;
pub mod scalar;
pub(crate) mod util;
pub mod vector;
pub mod workspace;

pub use descriptor::Descriptor;
pub use ops::Accum;
pub use error::GrbError;
pub use matrix::Matrix;
pub use runtime::{GaloisRuntime, Runtime, StaticRuntime};
pub use scalar::{Scalar, ScalarNum};
pub use vector::Vector;
