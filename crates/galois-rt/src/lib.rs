#![warn(missing_docs)]

//! # galois-rt — a Galois-style shared-memory parallel runtime
//!
//! This crate reimplements, in safe-as-practical Rust, the execution
//! substrate that the Galois system provides to graph analytics programs
//! (see *A Study of APIs for Graph Analytics Workloads*, IISWC 2020,
//! Section II-B). It provides:
//!
//! * a persistent [`ThreadPool`] with fork-join *parallel regions*
//!   ([`ThreadPool::region`]),
//! * topology-driven parallel loops ([`do_all()`], [`do_all_static`]) with
//!   dynamic chunk self-scheduling or OpenMP-like static partitioning,
//! * data-driven loops over work-lists ([`for_each()`]) with per-thread
//!   chunked work-stealing deques and distributed termination detection,
//! * soft-priority scheduling ([`for_each_ordered`]) in the style of
//!   Galois' ordered-by-integer-metric (OBIM) work-list, which is what
//!   asynchronous delta-stepping SSSP runs on,
//! * parallel-safe reduction primitives ([`reduce`]) and an insert-only
//!   bag ([`bag::InsertBag`]) for building round-based frontiers.
//!
//! The number of threads used by all constructs is controlled globally with
//! [`set_threads`]; this mirrors Galois' `setActiveThreads` and is what the
//! strong-scaling experiment (Figure 2 of the paper) sweeps.
//!
//! The runtime has no timeout of its own: a region runs until every
//! participant returns. A caller that needs a deadline (the study
//! executor's `Job::timeout`) enforces it from its own thread.
//!
//! ## Example
//!
//! ```
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let data: Vec<u64> = (0..10_000).collect();
//! let sum = AtomicU64::new(0);
//! galois_rt::do_all(0..data.len(), |i| {
//!     sum.fetch_add(data[i], Ordering::Relaxed);
//! });
//! assert_eq!(sum.into_inner(), (0..10_000u64).sum());
//! ```

pub mod bag;
pub mod do_all;
pub mod for_each;
pub mod obim;
pub mod pool;
pub mod reduce;
pub mod substrate;

pub use bag::InsertBag;
pub use do_all::{do_all, do_all_chunked, do_all_ranges, do_all_static};
pub use for_each::{for_each, Ctx};
pub use obim::for_each_ordered;
pub use pool::{current_thread_id, max_threads, set_threads, threads, ThreadPool};
pub use reduce::{ReduceLogicalOr, ReduceMax, ReduceMin, ReduceSum};
