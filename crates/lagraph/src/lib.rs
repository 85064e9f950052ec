#![warn(missing_docs)]

//! # lagraph — matrix-based graph algorithms on the GraphBLAS API
//!
//! Rust ports of the LAGraph programs evaluated in *A Study of APIs for
//! Graph Analytics Workloads* (IISWC 2020), written purely against the
//! [`graphblas`] API. Every algorithm is generic over the
//! [`graphblas::Runtime`] backend, so the same code runs as
//! **LAGraph/SuiteSparse** (`StaticRuntime`) or **LAGraph/GaloisBLAS**
//! (`GaloisRuntime`) — the SS and GB columns of Table II.
//!
//! Variants match the paper's selections (§IV) and its differential
//! analysis (§V-B, Figure 3):
//!
//! | problem | function | paper variant |
//! |---|---|---|
//! | bfs | [`bfs::bfs`] | LAGraph basic (Algorithm 2) |
//! | cc | [`cc::connected_components`] | FastSV-style bounded pointer jumping (`cc-gb`) |
//! | ktruss | [`ktruss::ktruss`] | round-based support pruning |
//! | pr | [`pagerank::pagerank`] | topology-driven (`pr-gb`), pull along in-edges over the prepared transpose |
//! | pr | [`pagerank::pagerank_residual`] | residual-based (`pr-gb-res`), same pull product |
//! | sssp | [`sssp::sssp_delta_stepping`] | bulk-synchronous delta-stepping (`sssp-gb`) |
//! | tc | [`tc::tc_sandia_dot`] | SandiaDot (`tc-gb` / `tc-gb-sort`) |
//! | tc | [`tc::tc_listing`] | triangle listing on a sorted DAG (`tc-gb-ll`) |
//!
//! Extensions beyond the paper's evaluation (documented in DESIGN.md §8):
//! [`bc::betweenness`] (the paper's motivating application) and
//! [`bfs::bfs_each`], which answers a batch of bfs queries as one serial
//! run per source over one shared adjacency matrix. [`bfs::bfs`] pushes
//! every round; its `vxm` picks a sparse or a dense accumulator below
//! the API, and pulls nothing (a pull is `mxv` over a prepared
//! transpose, as pagerank's is).

pub mod bc;
pub mod bfs;
pub mod cc;
pub mod ktruss;
pub mod pagerank;
pub mod sssp;
pub mod tc;
