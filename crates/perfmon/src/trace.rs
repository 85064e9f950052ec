//! Structured op-level tracing.
//!
//! The paper's differential analysis attributes the matrix API's slowdowns
//! to *extra passes*, *materialized intermediates*, *bulk-only operations*
//! and *round-based execution* (§II-D). This module measures those
//! quantities directly instead of inferring them: every GraphBLAS call
//! records an [`OpSpan`] (op kind, input/output nnz, mask/descriptor mode,
//! materialized accumulator bytes, elapsed ns) and every `galois-rt`
//! parallel loop records a [`LoopSpan`] (iterations, steals, rounds, OBIM
//! bucket visits).
//!
//! A trace belongs to the thread that called [`with_trace`]: a span is
//! recorded by the thread that issued the call or launched the loop, into
//! that thread's bounded buffer ([`RING_CAPACITY`] events; overflow evicts
//! the oldest and is counted), so work on other threads never lands in
//! it. Tracing is off by default; when disabled every hook is one
//! thread-local read, so timing runs and traced runs execute the same
//! code.
//!
//! ## Example
//!
//! ```
//! use perfmon::trace::{self, Event, LoopKind, LoopSpan};
//!
//! let (out, t) = trace::with_trace(|| {
//!     trace::record(Event::Loop(LoopSpan {
//!         seq: 0, // assigned by record()
//!         kind: LoopKind::DoAll,
//!         iterations: 100,
//!         steals: 0,
//!         rounds: 1,
//!         bucket_visits: 0,
//!         threads: 1,
//!         elapsed_ns: 42,
//!     }));
//!     "done"
//! });
//! assert_eq!(out, "done");
//! assert_eq!(t.summary().loops, 1);
//! assert_eq!(t.summary().iterations, 100);
//! ```

use std::cell::RefCell;

/// Maximum events one trace holds before the oldest are evicted.
pub const RING_CAPACITY: usize = 1 << 16;

/// The GraphBLAS API call a span describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// `GrB_vxm` — push-style sparse vector × matrix.
    Vxm,
    /// `GrB_mxv` — pull-style matrix × vector.
    Mxv,
    /// `GrB_mxm` — SpGEMM.
    Mxm,
    /// `GrB_eWiseAdd` on vectors (structure union).
    EwiseAdd,
    /// `GrB_eWiseMult` on vectors (structure intersection).
    EwiseMult,
    /// `GrB_eWiseAdd` on matrices. No op records it any more; the variant stays
    /// because the repo benchmark's op-kind buckets match on it.
    EwiseAddMatrix,
    /// `GrB_eWiseMult` on matrices. No op records it any more; the variant stays
    /// because the repo benchmark's op-kind buckets match on it.
    EwiseMultMatrix,
    /// `GrB_apply` on a vector.
    Apply,
    /// `GrB_apply` with output aliasing input.
    ApplyInplace,
    /// `GrB_apply` on a matrix. No op records it any more; the variant stays
    /// because the repo benchmark's op-kind buckets match on it.
    ApplyMatrix,
    /// `GrB_assign` with a scalar and `GrB_ALL`.
    AssignScalar,
    /// `GrB_extract` (gather).
    Extract,
    /// `GrB_reduce` of a vector to a scalar.
    ReduceVector,
    /// `GrB_reduce` of a matrix to a scalar.
    ReduceMatrix,
    /// Row-wise `GrB_Matrix_reduce` to a vector. No op records it any
    /// more; the variant stays because the repo benchmark's op-kind
    /// buckets match on it.
    ReduceRows,
    /// `GxB_select` on a vector.
    SelectVector,
    /// `GxB_select` on a matrix.
    SelectMatrix,
}

impl OpKind {
    /// Stable lowercase label used in trace dumps and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Vxm => "vxm",
            OpKind::Mxv => "mxv",
            OpKind::Mxm => "mxm",
            OpKind::EwiseAdd => "ewise_add",
            OpKind::EwiseMult => "ewise_mult",
            OpKind::EwiseAddMatrix => "ewise_add_matrix",
            OpKind::EwiseMultMatrix => "ewise_mult_matrix",
            OpKind::Apply => "apply",
            OpKind::ApplyInplace => "apply_inplace",
            OpKind::ApplyMatrix => "apply_matrix",
            OpKind::AssignScalar => "assign_scalar",
            OpKind::Extract => "extract",
            OpKind::ReduceVector => "reduce_vector",
            OpKind::ReduceMatrix => "reduce_matrix",
            OpKind::ReduceRows => "reduce_rows",
            OpKind::SelectVector => "select_vector",
            OpKind::SelectMatrix => "select_matrix",
        }
    }

    /// Whether this op is a matrix-product pass (one bfs/pr/sssp "round").
    pub fn is_product(&self) -> bool {
        matches!(self, OpKind::Vxm | OpKind::Mxv | OpKind::Mxm)
    }
}

/// Which specialized SpMV kernel a `vxm`/`mxv` call selected (GraphBLAST
/// direction-optimization / GraphMat SPA style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelChoice {
    /// The op does not go through kernel selection (everything except
    /// `vxm` / `mxv`).
    #[default]
    Unspecified,
    /// SAXPY scatter into a sparse per-thread accumulator (sorted-index
    /// merge) — no dense intermediate.
    PushSparse,
    /// SAXPY scatter into the dense atomic accumulator sized by the
    /// output dimension.
    PushDense,
    /// SDOT over the rows of the matrix `mxv` was handed (the only
    /// `mxv` kernel; `vxm` never pulls).
    Pull,
}

impl KernelChoice {
    /// Stable lowercase label used in trace dumps and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            KernelChoice::Unspecified => "none",
            KernelChoice::PushSparse => "push_sparse",
            KernelChoice::PushDense => "push_dense",
            KernelChoice::Pull => "pull",
        }
    }
}

/// How an op's mask filtered its output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MaskMode {
    /// No mask supplied.
    #[default]
    None,
    /// Mask by stored values (`is_nonzero`).
    Value,
    /// Mask by structure (`GrB_STRUCTURE`).
    Structural,
}

impl MaskMode {
    /// Stable lowercase label.
    pub fn name(&self) -> &'static str {
        match self {
            MaskMode::None => "none",
            MaskMode::Value => "value",
            MaskMode::Structural => "structural",
        }
    }
}

/// One GraphBLAS API call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpan {
    /// Index of the span in its trace (assigned by [`record`]).
    pub seq: u64,
    /// Backend the kernel ran on ("SS" or "GB").
    pub backend: &'static str,
    /// Which API call.
    pub kind: OpKind,
    /// Explicit entries read from the primary input.
    pub input_nnz: u64,
    /// Explicit entries in the output after the call.
    pub output_nnz: u64,
    /// Mask interpretation.
    pub mask: MaskMode,
    /// `GrB_COMP` on the mask.
    pub mask_complement: bool,
    /// `GrB_REPLACE` output semantics.
    pub replace: bool,
    /// Bytes of dense intermediate the kernel materialized (accumulators,
    /// scatter buffers); the paper's *materialization* cost.
    pub materialized_bytes: u64,
    /// Which SpMV kernel ran ([`KernelChoice::Unspecified`] for ops that
    /// do not go through kernel selection).
    pub kernel: KernelChoice,
    /// Bytes the chosen kernel's accumulator actually held: the dense
    /// buffer size for push-dense and `mxv`'s pull, the collected
    /// `(index, value)` pairs for push-sparse.
    pub accumulator_bytes: u64,
    /// Heuristic input: summed matrix row degrees over the input's
    /// explicit entries (0 when selection was forced and the heuristic
    /// never ran).
    pub frontier_degree: u64,
    /// Workspace bytes this call met by recycling its output's own
    /// dense store.
    pub ws_reused_bytes: u64,
    /// Workspace bytes this call allocated fresh (dense output stores
    /// that could not be recycled).
    pub ws_fresh_bytes: u64,
    /// Summed per-row flop estimates of the call's flop-balanced loops
    /// (0 when no loop was balanced).
    pub flops: u64,
    /// Equal-flops chunks those loops were partitioned into.
    pub chunks: u64,
    /// Transient allocator churn: bytes allocated during the call minus
    /// bytes still live when it returned (0 unless the tracking
    /// allocator is installed). The op's *thrown-away* allocations —
    /// what per-call scratch costs the allocator. Unlike the other
    /// fields it is process-wide: the allocator counts every thread's.
    pub alloc_bytes: u64,
    /// Wall time of the call.
    pub elapsed_ns: u64,
}

/// The parallel-loop construct a [`LoopSpan`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LoopKind {
    /// `galois_rt::do_all` (dynamic chunk self-scheduling).
    DoAll,
    /// `galois_rt::do_all_static` (OpenMP-style static blocks).
    DoAllStatic,
    /// `galois_rt::for_each` (asynchronous work-list).
    ForEach,
    /// `galois_rt::for_each_ordered` (OBIM soft priorities).
    ForEachOrdered,
    /// `galois_rt::do_all_ranges` (flop-balanced pre-partitioned chunks
    /// with deque stealing for the residual imbalance).
    DoAllBalanced,
}

impl LoopKind {
    /// Stable lowercase label.
    pub fn name(&self) -> &'static str {
        match self {
            LoopKind::DoAll => "do_all",
            LoopKind::DoAllStatic => "do_all_static",
            LoopKind::ForEach => "for_each",
            LoopKind::ForEachOrdered => "for_each_ordered",
            LoopKind::DoAllBalanced => "do_all_balanced",
        }
    }
}

/// One runtime parallel loop (a `do_all`/`for_each` launch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopSpan {
    /// Index of the span in its trace (assigned by [`record`]).
    pub seq: u64,
    /// Which loop construct.
    pub kind: LoopKind,
    /// Operator applications (range length for `do_all`, items processed
    /// for work-list loops).
    pub iterations: u64,
    /// Successful steals from another thread's deque (work-list loops).
    pub steals: u64,
    /// Scheduling rounds: 1 for `do_all`, global-injector refills for
    /// `for_each`, priority-level transitions for OBIM.
    pub rounds: u64,
    /// OBIM bucket refills ([`LoopKind::ForEachOrdered`] only).
    pub bucket_visits: u64,
    /// Threads the loop ran on.
    pub threads: u64,
    /// Wall time of the loop (including the closing barrier).
    pub elapsed_ns: u64,
}

/// The delta-layer operation a [`DeltaSpan`] describes (trace/v4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeltaKind {
    /// One edge-update batch folded into a new delta layer.
    Apply,
    /// Delta layers compacted into a fresh CSR snapshot.
    Compact,
}

impl DeltaKind {
    /// Stable lowercase label used in trace dumps and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            DeltaKind::Apply => "apply",
            DeltaKind::Compact => "compact",
        }
    }
}

/// One streaming-update operation: a batch applied to a delta graph or a
/// compaction (trace/v4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaSpan {
    /// Index of the span in its trace (assigned by [`record`]).
    pub seq: u64,
    /// Which delta operation.
    pub kind: DeltaKind,
    /// Update operations involved: batch size for an apply, total delta
    /// edges folded for a compact.
    pub delta_nnz: u64,
    /// Delta layers stacked over the snapshot after the operation.
    pub layers: u64,
    /// Vertices whose adjacency the operation rewrote.
    pub touched: u64,
    /// Wall time of the operation.
    pub elapsed_ns: u64,
}

/// A trace event: an API call, a runtime loop, or a delta operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A GraphBLAS call.
    Op(OpSpan),
    /// A runtime parallel loop.
    Loop(LoopSpan),
    /// A streaming-update operation (trace/v4).
    Delta(DeltaSpan),
}

impl Event {
    /// The event's index in its trace.
    pub fn seq(&self) -> u64 {
        match self {
            Event::Op(s) => s.seq,
            Event::Loop(s) => s.seq,
            Event::Delta(s) => s.seq,
        }
    }
}

/// One trace in progress: bounded event storage plus an eviction count.
#[derive(Default)]
struct Ring {
    events: Vec<Event>,
    /// Index of the logical start when the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl Ring {
    /// Stamps `e` with its index in the trace (evicted events count) and
    /// stores it, evicting the oldest event when full.
    fn push(&mut self, mut e: Event) {
        let seq = self.events.len() as u64 + self.dropped;
        match &mut e {
            Event::Op(s) => s.seq = seq,
            Event::Loop(s) => s.seq = seq,
            Event::Delta(s) => s.seq = seq,
        }
        if self.events.len() < RING_CAPACITY {
            self.events.push(e);
        } else {
            self.events[self.head] = e;
            self.head = (self.head + 1) % RING_CAPACITY;
            self.dropped += 1;
        }
    }

    /// The surviving events in recording order.
    fn into_trace(mut self) -> Trace {
        self.events.rotate_left(self.head);
        Trace {
            events: self.events,
            dropped: self.dropped,
        }
    }
}

thread_local! {
    /// The calling thread's innermost open trace, if any.
    static ACTIVE: RefCell<Option<Ring>> = const { RefCell::new(None) };
}

/// Whether the calling thread is inside [`with_trace`] (one thread-local
/// read — the full cost of every hook while disabled).
#[inline]
pub fn enabled() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// Records one event into the calling thread's open trace (no-op outside
/// [`with_trace`]). The event's `seq` field is overwritten with its index
/// in that trace.
pub fn record(event: Event) {
    ACTIVE.with(|a| {
        if let Some(ring) = a.borrow_mut().as_mut() {
            ring.push(event);
        }
    });
}

/// Runs `f` with tracing on for the calling thread and returns its output
/// together with the trace of what the thread recorded meanwhile.
///
/// Calls nest: an inner call gets a trace of its own, whose events the
/// enclosing trace then receives as well. When `f` panics the trace is
/// discarded and the enclosing one (or none) is back in force.
pub fn with_trace<T>(f: impl FnOnce() -> T) -> (T, Trace) {
    /// Puts the enclosing trace back on drop, unwinding included.
    struct Restore(Option<Ring>);
    impl Drop for Restore {
        fn drop(&mut self) {
            ACTIVE.with(|a| *a.borrow_mut() = self.0.take());
        }
    }
    let mut restore = Restore(ACTIVE.with(|a| a.borrow_mut().replace(Ring::default())));
    let out = f();
    let inner = ACTIVE
        .with(|a| a.borrow_mut().take())
        .expect("with_trace's own trace is open");
    let trace = inner.into_trace();
    if let Some(outer) = restore.0.as_mut() {
        for &e in &trace.events {
            outer.push(e);
        }
        outer.dropped += trace.dropped;
    }
    drop(restore);
    (out, trace)
}

/// The ordered events of one [`with_trace`] call.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Events in recording order.
    pub events: Vec<Event>,
    /// Events evicted from a full trace (0 means the trace is complete).
    pub dropped: u64,
}

impl Trace {
    /// The GraphBLAS call spans, in order.
    pub fn ops(&self) -> impl Iterator<Item = &OpSpan> {
        self.events.iter().filter_map(|e| match e {
            Event::Op(s) => Some(s),
            _ => None,
        })
    }

    /// The runtime loop spans, in order.
    pub fn loops(&self) -> impl Iterator<Item = &LoopSpan> {
        self.events.iter().filter_map(|e| match e {
            Event::Loop(s) => Some(s),
            _ => None,
        })
    }

    /// The delta-operation spans, in order.
    pub fn deltas(&self) -> impl Iterator<Item = &DeltaSpan> {
        self.events.iter().filter_map(|e| match e {
            Event::Delta(s) => Some(s),
            _ => None,
        })
    }

    /// Number of op spans of `kind`.
    pub fn count_ops(&self, kind: OpKind) -> u64 {
        self.ops().filter(|s| s.kind == kind).count() as u64
    }

    /// Aggregates the trace into the quantities the paper reports.
    pub fn summary(&self) -> TraceSummary {
        let mut s = TraceSummary {
            dropped: self.dropped,
            ..TraceSummary::default()
        };
        for e in &self.events {
            match e {
                Event::Op(op) => {
                    s.ops += 1;
                    s.materialized_bytes += op.materialized_bytes;
                    s.accumulator_bytes += op.accumulator_bytes;
                    s.ws_reused_bytes += op.ws_reused_bytes;
                    s.ws_fresh_bytes += op.ws_fresh_bytes;
                    s.flops += op.flops;
                    s.chunks += op.chunks;
                    s.alloc_bytes += op.alloc_bytes;
                    if op.kind.is_product() {
                        s.product_rounds += 1;
                    }
                    match op.kernel {
                        KernelChoice::Unspecified => {}
                        KernelChoice::PushSparse => s.kernel_push_sparse += 1,
                        KernelChoice::PushDense => s.kernel_push_dense += 1,
                        KernelChoice::Pull => s.kernel_pull += 1,
                    }
                }
                Event::Loop(l) => {
                    s.loops += 1;
                    s.iterations += l.iterations;
                    s.steals += l.steals;
                    s.loop_rounds += l.rounds;
                    s.bucket_visits += l.bucket_visits;
                }
                Event::Delta(d) => match d.kind {
                    DeltaKind::Apply => s.delta_nnz += d.delta_nnz,
                    DeltaKind::Compact => s.compactions += 1,
                },
            }
        }
        // A "pass" is one full parallel sweep over an operand: on the
        // matrix API every call is one, on the graph API every loop is.
        s.passes = if s.ops > 0 { s.ops } else { s.loops };
        s
    }

    /// A timing- and scheduling-stripped projection for determinism
    /// checks: op spans keep every structural field (kind, backend, nnz,
    /// mask mode, materialized bytes); loop spans keep kind and
    /// iterations. Elapsed times, steal counts and bucket visits — the
    /// fields legitimately perturbed by scheduling — are dropped. The
    /// trace/v9 dump headers (schema, cache geometry, dropped count)
    /// live outside the event stream and are not fingerprinted.
    pub fn fingerprint(&self) -> Vec<String> {
        self.events
            .iter()
            .map(|e| match e {
                Event::Op(s) => format!(
                    "op {} {} in={} out={} mask={} comp={} replace={} mat={} kernel={} acc={}",
                    s.backend,
                    s.kind.name(),
                    s.input_nnz,
                    s.output_nnz,
                    s.mask.name(),
                    s.mask_complement,
                    s.replace,
                    s.materialized_bytes,
                    s.kernel.name(),
                    s.accumulator_bytes,
                ),
                Event::Loop(s) => format!("loop {} iters={}", s.kind.name(), s.iterations),
                Event::Delta(s) => format!(
                    "delta {} nnz={} layers={} touched={}",
                    s.kind.name(),
                    s.delta_nnz,
                    s.layers,
                    s.touched,
                ),
            })
            .collect()
    }
}

/// Aggregate quantities of one [`Trace`] (the per-cell numbers the
/// `study --trace` summary and the repo benchmark report).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// GraphBLAS API calls.
    pub ops: u64,
    /// Runtime loop launches.
    pub loops: u64,
    /// Passes over operands: `ops` on the matrix API, `loops` otherwise.
    pub passes: u64,
    /// Matrix-product calls (`vxm`/`mxv`/`mxm`) — the matrix API's rounds.
    pub product_rounds: u64,
    /// Sum of per-loop scheduling rounds.
    pub loop_rounds: u64,
    /// Total operator applications across loops.
    pub iterations: u64,
    /// Successful work steals.
    pub steals: u64,
    /// OBIM bucket refills.
    pub bucket_visits: u64,
    /// Dense intermediate bytes materialized by GraphBLAS kernels.
    pub materialized_bytes: u64,
    /// Accumulator bytes the selected SpMV kernels actually held (equals
    /// `materialized_bytes` for SpMV ops; other ops contribute 0).
    pub accumulator_bytes: u64,
    /// SpMV calls that selected the sparse push kernel.
    pub kernel_push_sparse: u64,
    /// SpMV calls that selected the dense push kernel.
    pub kernel_push_dense: u64,
    /// SpMV calls that selected the masked pull kernel.
    pub kernel_pull: u64,
    /// Always 0: no kernel of that name exists any more. The field stays
    /// because the repo benchmark's published counters read it.
    pub kernel_bitmap: u64,
    /// Workspace bytes met by recycling output stores across all ops.
    pub ws_reused_bytes: u64,
    /// Workspace bytes allocated fresh across all ops.
    pub ws_fresh_bytes: u64,
    /// Summed flop estimates of flop-balanced loops across all ops.
    pub flops: u64,
    /// Equal-flops chunks across all ops' balanced loops.
    pub chunks: u64,
    /// Transient allocator churn across all ops (0 unless the tracking
    /// allocator is installed).
    pub alloc_bytes: u64,
    /// Update operations folded into delta layers (summed over apply
    /// spans; 0 for static runs).
    pub delta_nnz: u64,
    /// Delta-layer compactions into fresh snapshots.
    pub compactions: u64,
    /// Events lost to ring eviction.
    pub dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(kind: OpKind, materialized: u64) -> Event {
        Event::Op(OpSpan {
            seq: 0,
            backend: "GB",
            kind,
            input_nnz: 3,
            output_nnz: 5,
            mask: MaskMode::Value,
            mask_complement: true,
            replace: true,
            materialized_bytes: materialized,
            kernel: KernelChoice::PushDense,
            accumulator_bytes: materialized,
            frontier_degree: 9,
            ws_reused_bytes: 6,
            ws_fresh_bytes: 2,
            flops: 40,
            chunks: 4,
            alloc_bytes: 13,
            elapsed_ns: 17,
        })
    }

    fn lp(kind: LoopKind, iterations: u64) -> Event {
        Event::Loop(LoopSpan {
            seq: 0,
            kind,
            iterations,
            steals: 2,
            rounds: 1,
            bucket_visits: 0,
            threads: 4,
            elapsed_ns: 11,
        })
    }

    fn dl(kind: DeltaKind, nnz: u64) -> Event {
        Event::Delta(DeltaSpan {
            seq: 0,
            kind,
            delta_nnz: nnz,
            layers: 2,
            touched: 3,
            elapsed_ns: 5,
        })
    }

    #[test]
    fn delta_spans_aggregate_and_fingerprint() {
        let ((), t) = with_trace(|| {
            record(dl(DeltaKind::Apply, 64));
            record(dl(DeltaKind::Apply, 8));
            record(dl(DeltaKind::Compact, 72));
        });
        assert_eq!(t.deltas().count(), 3);
        let s = t.summary();
        assert_eq!(s.delta_nnz, 72, "apply spans sum their batch sizes");
        assert_eq!(s.compactions, 1);
        // Delta spans carry no pass semantics.
        assert_eq!(s.passes, 0);
        // Fingerprints keep the structural fields, drop timing.
        let ((), b) = with_trace(|| {
            for mut e in [
                dl(DeltaKind::Apply, 64),
                dl(DeltaKind::Apply, 8),
                dl(DeltaKind::Compact, 72),
            ] {
                if let Event::Delta(s) = &mut e {
                    s.elapsed_ns = 999_999;
                }
                record(e);
            }
        });
        assert_eq!(t.fingerprint(), b.fingerprint());
        assert!(t.fingerprint()[0].starts_with("delta apply nnz=64"));
    }

    #[test]
    fn record_outside_a_trace_or_on_another_thread_is_a_noop() {
        record(op(OpKind::Vxm, 64));
        let ((), t) = with_trace(|| {
            std::thread::spawn(|| {
                assert!(!enabled(), "tracing is the calling thread's");
                record(op(OpKind::Vxm, 64));
            })
            .join()
            .unwrap();
            assert!(enabled());
        });
        assert!(t.events.is_empty() && !enabled());
    }

    #[test]
    fn nested_traces_feed_the_enclosing_one_and_unwind_cleanly() {
        let ((), outer) = with_trace(|| {
            record(op(OpKind::Apply, 0));
            let ((), inner) = with_trace(|| record(op(OpKind::Vxm, 64)));
            assert_eq!(inner.events[0].seq(), 0, "seq counts within its own trace");
            let unwound = std::panic::catch_unwind(|| {
                with_trace(|| {
                    record(op(OpKind::Mxv, 8));
                    panic!("inside a nested trace");
                })
            });
            assert!(unwound.is_err() && enabled(), "the enclosing trace is back");
            record(op(OpKind::Extract, 0));
        });
        let kinds: Vec<OpKind> = outer.ops().map(|s| s.kind).collect();
        assert_eq!(kinds, [OpKind::Apply, OpKind::Vxm, OpKind::Extract]);
        let seqs: Vec<u64> = outer.events.iter().map(Event::seq).collect();
        assert_eq!(seqs, [0, 1, 2]);
        assert!(std::panic::catch_unwind(|| with_trace(|| panic!("outermost"))).is_err());
        assert!(!enabled(), "no trace is left open");
    }

    #[test]
    fn with_trace_collects_in_order() {
        let ((), t) = with_trace(|| {
            record(op(OpKind::AssignScalar, 0));
            record(lp(LoopKind::DoAll, 10));
            record(op(OpKind::Vxm, 128));
        });
        assert_eq!(t.events.len(), 3);
        let seqs: Vec<u64> = t.events.iter().map(Event::seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(t.count_ops(OpKind::Vxm), 1);
        let s = t.summary();
        assert_eq!(s.ops, 2);
        assert_eq!(s.loops, 1);
        assert_eq!(s.passes, 2, "matrix-API trace counts ops as passes");
        assert_eq!(s.product_rounds, 1);
        assert_eq!(s.materialized_bytes, 128);
        assert_eq!(s.accumulator_bytes, 128, "synthetic spans set acc == mat");
        assert_eq!(s.kernel_push_dense, 2);
        assert_eq!(s.kernel_push_sparse + s.kernel_pull, 0);
        assert_eq!(s.iterations, 10);
        assert_eq!(s.ws_reused_bytes, 12, "2 ops x 6 reused bytes");
        assert_eq!(s.ws_fresh_bytes, 4);
        assert_eq!(s.flops, 80);
        assert_eq!(s.chunks, 8);
        assert_eq!(s.alloc_bytes, 26);
        assert_eq!(s.dropped, 0);
    }

    #[test]
    fn loop_only_trace_counts_loops_as_passes() {
        let ((), t) = with_trace(|| {
            record(lp(LoopKind::ForEach, 100));
            record(lp(LoopKind::ForEachOrdered, 50));
        });
        let s = t.summary();
        assert_eq!(s.ops, 0);
        assert_eq!(s.passes, 2);
        assert_eq!(s.steals, 4);
    }

    #[test]
    fn fingerprint_strips_timing_and_scheduling() {
        let ((), a) = with_trace(|| {
            record(op(OpKind::Vxm, 64));
            record(lp(LoopKind::DoAll, 7));
        });
        let ((), b) = with_trace(|| {
            let mut o = match op(OpKind::Vxm, 64) {
                Event::Op(s) => s,
                _ => unreachable!(),
            };
            o.elapsed_ns = 999_999; // timing differs
            o.ws_reused_bytes = 0; // whether `w` held a reusable store differs
            o.ws_fresh_bytes = 4096; // and whether a cached transpose was built
            o.chunks = 99; // partitioning differs
            o.alloc_bytes = 1 << 20; // allocator churn differs
            record(Event::Op(o));
            let mut l = match lp(LoopKind::DoAll, 7) {
                Event::Loop(s) => s,
                _ => unreachable!(),
            };
            l.steals = 77; // scheduling differs
            record(Event::Loop(l));
        });
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn ring_eviction_is_counted() {
        let mut ring = Ring::default();
        for i in 0..(RING_CAPACITY + 5) as u64 {
            ring.push(lp(LoopKind::DoAll, i));
        }
        assert_eq!(ring.events.len(), RING_CAPACITY);
        assert_eq!(ring.dropped, 5);
        let t = ring.into_trace();
        assert_eq!(t.dropped, 5);
        assert_eq!(t.events[0].seq(), 5, "the oldest five were evicted");
        assert!(t.events.windows(2).all(|w| w[0].seq() + 1 == w[1].seq()));
    }
}
