#![warn(missing_docs)]

//! # perfmon — software performance monitoring
//!
//! The paper collects hardware counters (instruction counts and
//! L1/L2/L3/DRAM access counts) with Intel CapeScripts to explain *why*
//! matrix-based programs are slower (Tables IV and V). Hardware counters
//! are not portable, so this crate provides a software model with the same
//! observable quantities:
//!
//! * [`Probe::instr`] — an instruction-count estimate, bumped by
//!   instrumented kernels at operator granularity;
//! * [`Probe::touch`] / [`Probe::touch_ref`] — a memory access, fed
//!   through a per-thread three-level set-associative [cache model](cache)
//!   whose hit/miss cascade yields L1/L2/L3/DRAM access counts;
//! * [`alloc::TrackingAllocator`] — a `#[global_allocator]` wrapper that
//!   records peak live bytes, standing in for the paper's maximum resident
//!   set size (Table III).
//!
//! Monitoring is off by default; [`enable`] turns the hooks on. The hooks
//! stay compiled into the hot kernels, so timing runs and counter runs
//! execute the same code. A kernel reaches them only through a
//! [`Probe`], which [`probe`] takes once per op: it copies the global
//! flag into a one-byte value, and each hook tests that copy and calls
//! an out-of-line recorder only when it is set. Disabled, a hook is a
//! test of a local `bool` and an untaken branch. Against a build whose
//! hooks compile to nothing, solve medians with the probe came out within
//! 4 % either way (ten alternating pairs per workload on a 2-vCPU host),
//! inside the run-to-run spread. The per-element load of the global flag
//! that the probe replaced cost up to a third of a solve
//! (`EXPERIMENTS.md`, "Free disabled hooks").
//!
//! ## Example
//!
//! ```
//! perfmon::reset();
//! perfmon::enable(true);
//! let pm = perfmon::probe();
//! let data = vec![1u64; 1024];
//! let mut sum = 0;
//! for x in &data {
//!     pm.instr(1);
//!     pm.touch_ref(x);
//!     sum += *x;
//! }
//! perfmon::enable(false);
//! let counters = perfmon::snapshot();
//! assert_eq!(sum, 1024);
//! assert_eq!(counters.instructions, 1024);
//! assert_eq!(counters.l1_accesses, 1024);
//! // 1024 consecutive u64 span 128 cache lines (129 if the allocation is
//! // not line-aligned): each cold line is one L1 miss turned L2 access.
//! assert!(counters.l2_accesses == 128 || counters.l2_accesses == 129);
//! ```

pub mod alloc;
pub mod cache;
pub mod counters;
pub mod report;
pub mod trace;

pub use counters::{enable, enabled, probe, reset, snapshot, Counters, Probe};
pub use report::PerfReport;
