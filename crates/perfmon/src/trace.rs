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
//! Spans are pushed into per-thread ring buffers (bounded at
//! [`RING_CAPACITY`] events; overflow evicts the oldest and is counted)
//! and merged into a single sequence-ordered [`Trace`] by [`collect`].
//! Tracing is off by default; when disabled every hook is a single relaxed
//! atomic load, so timing runs and traced runs execute the same code —
//! the same design as the [`crate::counters`] hooks.
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

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use substrate::sync::Mutex;

/// Maximum events held per thread before the oldest are evicted.
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
    /// `GrB_eWiseAdd` on matrices.
    EwiseAddMatrix,
    /// `GrB_eWiseMult` on matrices.
    EwiseMultMatrix,
    /// `GrB_apply` on a vector.
    Apply,
    /// `GrB_apply` with output aliasing input.
    ApplyInplace,
    /// `GrB_apply` on a matrix.
    ApplyMatrix,
    /// `GrB_assign` with a scalar and `GrB_ALL`.
    AssignScalar,
    /// `GrB_extract` (gather).
    Extract,
    /// `GrB_reduce` of a vector to a scalar.
    ReduceVector,
    /// `GrB_reduce` of a matrix to a scalar.
    ReduceMatrix,
    /// Row-wise `GrB_Matrix_reduce` to a vector.
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
    /// SDOT over rows of the (cached) transpose, iterating only
    /// mask-admitted output indices.
    Pull,
    /// SAXPY scatter into a dense value array paired with a 1-bit-per-
    /// vertex presence word array, drained by word scan (the GraphBLAST
    /// dense-frontier representation).
    Bitmap,
}

impl KernelChoice {
    /// Stable lowercase label used in trace dumps and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            KernelChoice::Unspecified => "none",
            KernelChoice::PushSparse => "push_sparse",
            KernelChoice::PushDense => "push_dense",
            KernelChoice::Pull => "pull",
            KernelChoice::Bitmap => "bitmap",
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
    /// Global order of completion (assigned by [`record`]).
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
    /// buffer size for push-dense / pull-dense, the collected `(index,
    /// value)` pairs for the sparse kernels.
    pub accumulator_bytes: u64,
    /// Heuristic input: summed matrix row degrees over the input's
    /// explicit entries (0 when selection was forced and the heuristic
    /// never ran).
    pub frontier_degree: u64,
    /// Heuristic input: explicit entries in the matrix operand (0 when
    /// the heuristic never ran).
    pub matrix_nnz: u64,
    /// Heuristic input: estimated output slots the mask admits (0 when
    /// the heuristic never ran).
    pub mask_admitted: u64,
    /// Workspace bytes this call satisfied from the recycling pool
    /// (0 with `STUDY_WORKSPACE=off`).
    pub ws_reused_bytes: u64,
    /// Workspace bytes this call allocated fresh (pool misses, growth,
    /// and one-time cached-transpose builds).
    pub ws_fresh_bytes: u64,
    /// Summed per-row flop estimates of the call's flop-balanced loops
    /// (0 when no loop was balanced).
    pub flops: u64,
    /// Equal-flops chunks those loops were partitioned into.
    pub chunks: u64,
    /// Transient allocator churn: bytes allocated during the call minus
    /// bytes still live when it returned (0 unless the tracking
    /// allocator is installed). The op's *thrown-away* allocations —
    /// what workspace recycling eliminates.
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
    /// Global order of completion (assigned by [`record`]).
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
    /// An incremental algorithm repairing state from dirty vertices.
    Repair,
}

impl DeltaKind {
    /// Stable lowercase label used in trace dumps and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            DeltaKind::Apply => "apply",
            DeltaKind::Compact => "compact",
            DeltaKind::Repair => "repair",
        }
    }
}

/// One streaming-update operation: a batch applied to a delta graph, a
/// compaction, or an incremental recompute's repair phase (trace/v4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaSpan {
    /// Global order of completion (assigned by [`record`]).
    pub seq: u64,
    /// Which delta operation.
    pub kind: DeltaKind,
    /// Update operations involved: batch size for an apply, total delta
    /// edges folded for a compact, 0 for a repair.
    pub delta_nnz: u64,
    /// Delta layers stacked over the snapshot after the operation.
    pub layers: u64,
    /// Vertices whose adjacency the operation rewrote.
    pub touched: u64,
    /// Dirty vertices seeding an incremental repair (0 otherwise).
    pub repair_frontier: u64,
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
    /// The event's global completion order.
    pub fn seq(&self) -> u64 {
        match self {
            Event::Op(s) => s.seq,
            Event::Loop(s) => s.seq,
            Event::Delta(s) => s.seq,
        }
    }
}

/// Per-thread ring: bounded event storage plus an eviction count.
#[derive(Default)]
struct Ring {
    events: Vec<Event>,
    /// Index of the logical start when the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, e: Event) {
        if self.events.len() < RING_CAPACITY {
            self.events.push(e);
        } else {
            self.events[self.head] = e;
            self.head = (self.head + 1) % RING_CAPACITY;
            self.dropped += 1;
        }
    }

    fn clear(&mut self) {
        self.events.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);
static RINGS: Mutex<Vec<&'static Mutex<Ring>>> = Mutex::new(Vec::new());

thread_local! {
    static RING: std::cell::Cell<Option<&'static Mutex<Ring>>> =
        const { std::cell::Cell::new(None) };
}

fn ring() -> &'static Mutex<Ring> {
    RING.with(|r| match r.get() {
        Some(ring) => ring,
        None => {
            // Leaked intentionally: pool threads live for the whole
            // process, so the ring count is bounded by the thread count.
            let ring: &'static Mutex<Ring> = Box::leak(Box::new(Mutex::new(Ring::default())));
            r.set(Some(ring));
            RINGS.lock().push(ring);
            ring
        }
    })
}

/// Turns tracing on or off globally.
pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing is currently on (one relaxed load — the full cost of
/// every hook while disabled).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records one event into the calling thread's ring (no-op while
/// disabled). The event's `seq` field is overwritten with the next global
/// sequence number.
pub fn record(event: Event) {
    if !enabled() {
        return;
    }
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let stamped = match event {
        Event::Op(mut s) => {
            s.seq = seq;
            Event::Op(s)
        }
        Event::Loop(mut s) => {
            s.seq = seq;
            Event::Loop(s)
        }
        Event::Delta(mut s) => {
            s.seq = seq;
            Event::Delta(s)
        }
    };
    ring().lock().push(stamped);
}

/// Clears every thread's ring and the global sequence counter.
///
/// Call only while no traced parallel work is in flight.
pub fn reset() {
    for ring in RINGS.lock().iter() {
        ring.lock().clear();
    }
    SEQ.store(0, Ordering::Relaxed);
}

/// Merges every thread's ring into one sequence-ordered [`Trace`]
/// (non-destructive).
///
/// Call only after traced work has completed (every loop construct is a
/// barrier, so "after the traced closure returned" is sufficient).
pub fn collect() -> Trace {
    let mut events = Vec::new();
    let mut dropped = 0;
    for ring in RINGS.lock().iter() {
        let ring = ring.lock();
        events.extend_from_slice(&ring.events);
        dropped += ring.dropped;
    }
    events.sort_by_key(Event::seq);
    Trace { events, dropped }
}

/// Runs `f` with tracing enabled on a fresh trace and returns its output
/// together with the merged trace.
///
/// Trace state is process-global: while `f` runs, every thread's spans
/// are recorded — those of concurrent `with_trace` calls and of
/// concurrent *untraced* work alike — so callers (tests in particular)
/// must serialize against anything that runs ops or loops.
pub fn with_trace<T>(f: impl FnOnce() -> T) -> (T, Trace) {
    reset();
    enable(true);
    let out = f();
    enable(false);
    (out, collect())
}

/// A merged, ordered collection of trace events.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Events in global completion order.
    pub events: Vec<Event>,
    /// Events evicted from full rings (0 means the trace is complete).
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
                        KernelChoice::Bitmap => s.kernel_bitmap += 1,
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
                    DeltaKind::Repair => s.repair_frontier += d.repair_frontier,
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
    /// trace/v6 dump headers (`order_mode`, `order_build_ns`,
    /// `avg_col_gap`) live outside the event stream entirely, so
    /// natural-order fingerprints are unchanged by the reordering
    /// tier's existence.
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
                    "delta {} nnz={} layers={} touched={} frontier={}",
                    s.kind.name(),
                    s.delta_nnz,
                    s.layers,
                    s.touched,
                    s.repair_frontier,
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
    /// SpMV calls that selected the bitmap-frontier kernel.
    pub kernel_bitmap: u64,
    /// Workspace bytes served from the recycling pool across all ops.
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
    /// Dirty vertices that seeded incremental repairs (summed over
    /// repair spans).
    pub repair_frontier: u64,
    /// Events lost to ring eviction.
    pub dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // Trace state is process-global; serialize the tests that use it.
    static LOCK: StdMutex<()> = StdMutex::new(());

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
            matrix_nnz: 20,
            mask_admitted: 4,
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

    fn dl(kind: DeltaKind, nnz: u64, frontier: u64) -> Event {
        Event::Delta(DeltaSpan {
            seq: 0,
            kind,
            delta_nnz: nnz,
            layers: 2,
            touched: 3,
            repair_frontier: frontier,
            elapsed_ns: 5,
        })
    }

    #[test]
    fn delta_spans_aggregate_and_fingerprint() {
        let _g = LOCK.lock().unwrap();
        let ((), t) = with_trace(|| {
            record(dl(DeltaKind::Apply, 64, 0));
            record(dl(DeltaKind::Apply, 8, 0));
            record(dl(DeltaKind::Compact, 72, 0));
            record(dl(DeltaKind::Repair, 0, 17));
        });
        assert_eq!(t.deltas().count(), 4);
        let s = t.summary();
        assert_eq!(s.delta_nnz, 72, "apply spans sum their batch sizes");
        assert_eq!(s.compactions, 1);
        assert_eq!(s.repair_frontier, 17);
        // Delta spans carry no pass semantics.
        assert_eq!(s.passes, 0);
        // Fingerprints keep the structural fields, drop timing.
        let ((), b) = with_trace(|| {
            for mut e in [
                dl(DeltaKind::Apply, 64, 0),
                dl(DeltaKind::Apply, 8, 0),
                dl(DeltaKind::Compact, 72, 0),
                dl(DeltaKind::Repair, 0, 17),
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
    fn disabled_record_is_a_noop() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable(false);
        record(op(OpKind::Vxm, 64));
        assert!(collect().events.is_empty());
    }

    #[test]
    fn with_trace_collects_in_order() {
        let _g = LOCK.lock().unwrap();
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
        let _g = LOCK.lock().unwrap();
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
        let _g = LOCK.lock().unwrap();
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
            o.ws_reused_bytes = 0; // pool warmth differs
            o.ws_fresh_bytes = 4096;
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
        for _ in 0..(RING_CAPACITY + 5) {
            ring.push(lp(LoopKind::DoAll, 1));
        }
        assert_eq!(ring.events.len(), RING_CAPACITY);
        assert_eq!(ring.dropped, 5);
        ring.clear();
        assert_eq!(ring.dropped, 0);
        assert!(ring.events.is_empty());
    }

    #[test]
    fn reset_clears_other_threads_rings() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable(true);
        std::thread::spawn(|| record(op(OpKind::Apply, 0)))
            .join()
            .unwrap();
        enable(false);
        assert_eq!(collect().events.len(), 1);
        reset();
        assert!(collect().events.is_empty());
    }
}
