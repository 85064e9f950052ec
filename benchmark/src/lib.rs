//! The repo benchmark.
//!
//! Four workloads drive the study's layers from outside — through the
//! public functions of `graph`, `study_core`, `graphblas`, `galois_rt`
//! and `service` only — and report a small set of bounded end-to-end
//! metrics (tracing off) and an unbounded set of per-layer metrics
//! (one traced pass). `README.md` records why each workload exists and
//! which end-to-end metric each layer metric is expected to move.

pub mod cells;
pub mod host;
pub mod layers;
pub mod probes;
pub mod report;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod svc;
