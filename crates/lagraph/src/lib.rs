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
//! | sssp | [`sssp::sssp_minplus`] | bucket-free min-plus Bellman-Ford (batch serial reference) |
//! | tc | [`tc::tc_sandia_dot`] | SandiaDot (`tc-gb` / `tc-gb-sort`) |
//! | tc | [`tc::tc_listing`] | triangle listing on a sorted DAG (`tc-gb-ll`) |
//!
//! Extensions beyond the paper's evaluation (documented in DESIGN.md §8):
//! [`bfs::bfs_push_pull`] (the GraphBLAST direction optimization of the
//! paper's related work), [`bfs::bfs_parent`] (parent-tree output),
//! [`bc::betweenness`] (the paper's motivating application),
//! [`kcore::kcore`] (bulk peeling), [`mis::mis`] (Luby's rounds),
//! [`pagerank::ppr`] (personalized PageRank) and the batched multi-source
//! engine [`batch`] (msBFS / multi-seed PPR / batched SSSP over a
//! multi-column frontier).
//!
//! Every algorithm here is agnostic to vertex numbering: it answers in
//! whatever id space the input CSR uses. The study runner exploits
//! that for its `STUDY_ORDER` locality tier — it hands these functions
//! a permuted graph and translated source, then un-permutes the
//! answers, with no cooperation needed from this crate.

pub mod batch;
pub mod bc;
pub mod bfs;
pub mod cc;
pub mod incremental;
pub mod kcore;
pub mod ktruss;
pub mod mis;
pub mod pagerank;
pub mod sssp;
pub mod tc;
