#![warn(missing_docs)]

//! # lonestar — graph-based algorithms on the Galois runtime
//!
//! Rust ports of the Lonestar benchmark programs evaluated in *A Study of
//! APIs for Graph Analytics Workloads* (IISWC 2020). These use the
//! graph-based API — [`graph::CsrGraph`] plus the [`galois_rt`] parallel
//! constructs (`do_all`, and the OBIM work-list `for_each_ordered` for
//! sssp) — and exercise exactly the four
//! capabilities the paper shows a matrix API cannot express:
//!
//! * **fused composite operators** — bfs marks distances and builds the
//!   next frontier in one loop (Algorithm 1);
//! * **no forced materialization** — tc bumps a counter instead of
//!   building an intermediate matrix;
//! * **fine-grained vertex operations** — cc uses Afforest's sampled
//!   union-find hooks;
//! * **asynchronous execution** — sssp runs delta-stepping on a single
//!   priority work-list with no rounds, and cc-sv short-circuits parent
//!   chains arbitrarily far.
//!
//! Variants match the paper's Table II selections and the Figure 3
//! differential analysis:
//!
//! | problem | function | paper variant |
//! |---|---|---|
//! | bfs | [`bfs::bfs`] | round-based data-driven, fused loop (`ls`) |
//! | cc | [`cc::afforest`] | Afforest (`cc-ls`) |
//! | cc | [`cc::shiloach_vishkin`] | unbounded pointer jumping (`cc-ls-sv`) |
//! | ktruss | [`ktruss::ktruss`] | immediate edge removal (Gauss-Seidel) |
//! | pr | [`pagerank::pagerank`] | residual, array-of-structs (`pr-ls`) |
//! | pr | [`pagerank::pagerank_soa`] | residual, structure-of-arrays (`pr-ls-soa`) |
//! | sssp | [`sssp::sssp`] | async delta-stepping + edge tiling (`ls`) |
//! | sssp | [`sssp::sssp`] with tiling off | `ls-notile` |
//! | tc | [`tc::tc`] | triangle listing on a degree-sorted graph (`ls`) |
//!
//! Extension beyond the paper's evaluation (documented in DESIGN.md §8):
//! [`bc::betweenness`], the paper's motivating application.

pub mod bc;
pub mod bfs;
pub mod cc;
pub mod ktruss;
pub mod pagerank;
pub mod sssp;
pub mod tc;
