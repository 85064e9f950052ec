#![warn(missing_docs)]

//! # substrate — the hermetic-build layer
//!
//! Every crate in this workspace builds and tests with **zero crates.io
//! dependencies**; this crate is how. It provides small, well-specified,
//! std-only replacements for the external crates the seed depended on:
//!
//! | module | replaces | what it provides |
//! |---|---|---|
//! | [`sync`] | `parking_lot` | non-poisoning [`sync::Mutex`] / [`sync::Condvar`] / [`sync::RwLock`] |
//! | [`deque`] | `crossbeam::deque` | Chase–Lev work-stealing [`deque::Worker`] / [`deque::Stealer`] + [`deque::Injector`] |
//! | [`rng`] | `rand` | seedable [`rng::Rng`] (SplitMix64-seeded xoshiro256++) |
//! | [`prop`] | `proptest` | seeded property tests with bounded shrinking ([`prop::check`]) |
//! | [`fault`] | `fail` | deterministic named fault points driven by a seeded `STUDY_FAULTS` plan |
//!
//! Owning these layers is a deliberate architectural choice, not just a
//! build fix: the paper study depends on reproducible measurement, and the
//! runtime's two hottest concurrency structures (the thread-pool locks and
//! the `for_each` work-list) are exactly where future performance PRs will
//! live. With the implementations in-tree they can be profiled, specialized
//! and evolved without fighting a third-party abstraction — in the spirit of
//! the small self-contained primitive layers that the GraphBLAS
//! standardization effort argues for.
//!
//! The whole crate uses only `std`; `cargo build --offline` from a cold
//! registry succeeds for the entire workspace.

pub mod deque;
pub mod fault;
pub mod prop;
pub mod rng;
pub mod sync;

pub use rng::Rng;
