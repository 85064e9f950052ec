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
//!   way the paper excludes loading/preprocessing; under `STUDY_ORDER`
//!   it additionally carries the locality-reordered views and the
//!   permutation ([`prepared::OrderedView`]);
//! * [`runner`] — a uniform `System × Problem → output` dispatcher with
//!   wall-clock timing; also the reordering boundary (sources
//!   translated in, per-vertex outputs un-permuted back to original
//!   ids, so verification always happens in natural id space);
//! * [`cell`] — the resilient-sweep isolation boundary: `catch_unwind` +
//!   `STUDY_CELL_TIMEOUT_MS` watchdog around every (problem, system,
//!   graph) cell, reducing failures to `ok|failed|timeout|oom`;
//! * [`batch`] — k-source batched query cells (msBFS / multi-seed ppr /
//!   batched sssp) with per-query outcomes and per-query verification;
//! * [`delta`] — the streaming dimension: incremental-update cells
//!   that absorb edge batches through [`graph::DeltaGraph`] and repair
//!   converged answers incrementally on both APIs, verified against a
//!   from-scratch recompute on the compacted snapshot;
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
pub mod delta;
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
pub use delta::{
    run_incremental_cell, try_run_incremental, update_batches, verify_incremental, IncError,
    IncProblem, IncrementalRun,
};
pub use json::Json;
pub use prepared::{OrderedView, PreparedGraph};
pub use problem::{Problem, ProblemOutput, System, Variant};
pub use runner::{run, timed_run, traced_run, try_run, RunMeasurement, TracedMeasurement};
