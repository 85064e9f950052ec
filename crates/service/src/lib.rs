#![warn(missing_docs)]

//! A long-lived analytics service over the study's systems.
//!
//! The paper (and the reproduce binaries) measure one-shot batch runs;
//! the ROADMAP's north star is the deployment shape real graph systems
//! ship: a persistent server holding shared graph snapshots and serving
//! mixed analytics traffic. This crate is that server, built from the
//! robustness machinery the sweep layers already proved out:
//!
//! * [`catalog`] — immutable published snapshots plus streamed
//!   [`graph::delta::DeltaGraph`] overlays, republished on compaction.
//! * [`admission`] — cheap/expensive cost classes, a
//!   `STUDY_MEM_BUDGET`-derived concurrency limit, bounded queues with
//!   load shedding, and a reserve that keeps cheap work admissible (no
//!   head-of-line blocking behind tc/ktruss).
//! * [`server`] — concurrent jobs on the shared galois-rt pool, each
//!   run through `study_core::execute` (catch_unwind + deadline
//!   watchdog around run and verify), so a panicking/OOMing/wedged job
//!   is one failed response, never a dead process; graceful drain on
//!   shutdown.
//! * [`protocol`] — a hermetic length-prefixed wire format whose reader
//!   is hardened against truncated/oversized/garbage frames.
//! * [`client`] — a blocking client with seeded-jitter retry/backoff,
//!   retrying only budget-class (`retryable`) rejections.
//!
//! Knobs: `STUDY_SVC_ADDR`, `STUDY_SVC_MAX_INFLIGHT`,
//! `STUDY_SVC_DEADLINE_MS`, `STUDY_SVC_RETRIES`. Fault points:
//! `svc.admit`, plus the executor's `cell.run` / `cell.hang`, which
//! every run and batch job crosses once (see `substrate::fault`).

pub mod admission;
pub mod catalog;
pub mod client;
pub mod protocol;
pub mod server;

pub use admission::{Admission, AdmissionConfig, AdmitError, CostClass};
pub use catalog::{Catalog, EntryStats, GraphEntry};
pub use client::{Client, ClientError, RetryPolicy};
pub use protocol::{
    BatchRequest, BatchResponse, IngestRequest, IngestResponse, ProtoError, Request, Response,
    RunRequest, RunResponse, StatsResponse, Status,
};
pub use server::{DrainReport, Service, ServiceConfig, ServiceHandle};
