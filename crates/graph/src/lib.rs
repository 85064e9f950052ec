#![warn(missing_docs)]

//! # graph — CSR graphs, generators, IO and transforms
//!
//! The graph substrate for the IISWC 2020 API-study reproduction. Both the
//! graph-based programs (`lonestar`) and the matrix-based runtime
//! (`graphblas`, which views the adjacency structure as a sparse matrix)
//! build on the [`CsrGraph`] defined here.
//!
//! The paper evaluates nine real and synthetic graphs (Table I). Real
//! multi-billion-edge inputs are not available in this environment, so the
//! [`suite`] module provides *shape-preserving synthetic stand-ins*: a
//! long-diameter grid for the road networks, RMAT for the power-law
//! synthetic graphs, preferential attachment for the social networks,
//! host-structured crawls for the web graphs and a dense community graph
//! for the protein network. See DESIGN.md §2 for the substitution argument.
//!
//! ## Example
//!
//! ```
//! use graph::builder::GraphBuilder;
//!
//! let g = GraphBuilder::new(4)
//!     .add_edge(0, 1)
//!     .add_edge(1, 2)
//!     .add_edge(2, 3)
//!     .build();
//! assert_eq!(g.num_nodes(), 4);
//! assert_eq!(g.out_degree(1), 1);
//! assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![1]);
//! ```

pub mod builder;
pub mod csr;
pub mod delta;
pub mod gen;
pub mod intersect;
pub mod io;
pub mod stats;
pub mod suite;
pub mod transform;

pub use builder::GraphBuilder;
pub use csr::{CsrGraph, NodeId};
pub use delta::{DeltaGraph, EdgeBatch, EdgeUpdate};
pub use stats::GraphStats;
pub use suite::{Scale, StudyGraph};

/// The vertex order a graph is prepared in: always the generator's own.
/// It exists only for `benchmark/src/cells.rs`, which passes it to
/// `PreparedGraph::from_graph_ordered` and whose source stays fixed so
/// that runs compare across commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderMode {
    /// The generator's vertex order.
    Natural,
}
