#![warn(missing_docs)]

//! Umbrella crate for the reproduction of *A Study of APIs for Graph
//! Analytics Workloads* (IISWC 2020).
//!
//! This crate re-exports the member crates of the workspace so that the
//! examples and integration tests can use a single dependency. See the
//! individual crates for the real APIs:
//!
//! * [`galois_rt`] — Galois-style parallel runtime (thread pool, `do_all`,
//!   `for_each`, OBIM priority scheduling).
//! * [`graph`] — CSR graphs, generators, IO and transforms.
//! * [`graphblas`] — the GraphBLAS API with two backends (`StaticRuntime`,
//!   which mimics SuiteSparse's OpenMP execution, and `GaloisRuntime`, the
//!   paper's GaloisBLAS).
//! * [`lagraph`] — matrix-based algorithms written on the GraphBLAS API.
//! * [`lonestar`] — graph-based algorithms written on the Galois API.
//! * [`perfmon`] — software performance counters and memory tracking.
//! * [`service`] — the long-lived analytics service: snapshot catalog,
//!   admission control, deadlines, retry/backoff and fault-contained
//!   concurrent jobs over a length-prefixed socket protocol.
//! * [`study_core`] — the study harness: the job executor, references, verification.
//! * [`substrate`] — the hermetic-build layer: std-only sync primitives,
//!   work-stealing deque, PRNG, property-test harness and fault injection
//!   that let the whole workspace build with zero external dependencies.

pub use galois_rt;
pub use graph;
pub use graphblas;
pub use lagraph;
pub use lonestar;
pub use perfmon;
pub use service;
pub use study_core;
pub use substrate;
