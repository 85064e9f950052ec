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
//! * [`runner`] — a uniform `System × Problem → output` dispatcher with
//!   wall-clock timing;
//! * [`cell`] — the resilient-sweep isolation boundary: `catch_unwind` +
//!   `STUDY_CELL_TIMEOUT_MS` watchdog around every (problem, system,
//!   graph) cell, reducing failures to `ok|failed|timeout|oom`;
//! * [`batch`] — k-source batched query cells (msBFS) with per-query
//!   outcomes and per-query verification;
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
pub mod json;
pub mod prepared;
pub mod problem;
pub mod reference;
pub mod report;
pub mod runner;
pub mod verify;

pub use batch::{
    batch_sources, run_batch_cell, try_run_batch, verify_batch_query, BatchProblem,
};
pub use cell::{cell_timeout_from_env, run_cell, run_protected, CellOutcome, CellStatus};
pub use json::Json;
pub use prepared::PreparedGraph;
pub use problem::{Problem, ProblemOutput, System, Variant};
pub use runner::{run, timed_run, traced_run, try_run, RunMeasurement, TracedMeasurement};
