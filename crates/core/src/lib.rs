#![warn(missing_docs)]

//! # study-core — the study harness
//!
//! Ties the three systems of *A Study of APIs for Graph Analytics
//! Workloads* (IISWC 2020) together:
//!
//! * [`problem`] — the six problems, three systems and the Figure 3
//!   algorithm variants as enums;
//! * [`prepared`] — per-graph preprocessing (transpose, symmetrization,
//!   degree sorting, experiment parameters), excluded from timings the
//!   way the paper excludes loading/preprocessing;
//! * [`exec`] — the one way to execute a job: a [`Job`] (a cell, a
//!   Figure 3 variant or a batch, plus verify / trace / timeout options)
//!   goes through [`execute`], which runs fault points → isolation →
//!   run → verify in a fixed order and returns one outcome per query;
//! * [`runner`] — the `System × Problem → output` dispatch the run
//!   stage calls;
//! * [`cell`] — the isolation boundary: `catch_unwind` + deadline
//!   watchdog, reducing failures to `ok|failed|timeout|oom`;
//! * [`batch`] — k-source batched bfs queries (one serial run per
//!   source) and their per-query verification;
//! * [`mod@reference`] — serial reference implementations every parallel
//!   result is verified against;
//! * [`verify`] — output comparisons (exact, partition-equivalence or
//!   tolerance-based as appropriate);
//! * [`report`] — fixed-width table formatting for the reproduce
//!   binaries;
//! * [`json`] — hand-rolled JSON emission (hermetic: no serde) for
//!   trace dumps.

pub mod batch;
pub mod cell;
pub mod exec;
pub mod json;
pub mod prepared;
pub mod problem;
pub mod reference;
pub mod report;
pub mod runner;
pub mod verify;

pub use batch::{batch_sources, verify_batch_query, BatchProblem};
pub use cell::{cell_timeout_from_env, run_protected, CellOutcome, CellStatus};
pub use exec::{execute, Job, JobOutcome, Work};
pub use json::Json;
pub use prepared::PreparedGraph;
pub use problem::{Problem, ProblemOutput, System, Variant};
pub use runner::{traced_run, try_run, TracedMeasurement};
