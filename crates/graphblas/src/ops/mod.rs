//! GraphBLAS operations.
//!
//! Each function is one API call: internally it is a self-contained
//! parallel kernel with a barrier at the end, which is exactly the
//! execution structure whose cost the paper analyzes (every call is a
//! separate pass over its operands — the *lightweight loops* limitation).
//!
//! The surface is what the study's algorithms compose. Element-wise ops
//! and `apply` take vectors; the only matrix-to-vector reduction is the
//! product itself. A matrix element-wise op or a row reduction joins when
//! an algorithm calls one.
//!
//! All kernels are instrumented with [`perfmon`] hooks at element
//! granularity so Tables IV and V can be regenerated, and with
//! [`perfmon::trace`] spans at call granularity so the paper's pass /
//! materialization / round attribution can be measured directly.

use crate::descriptor::Descriptor;
use perfmon::trace::{self, Event, KernelChoice, MaskMode, OpKind, OpSpan};
use std::time::Instant;

/// Live span guard for one GraphBLAS call; `None` while the calling
/// thread is not tracing (the disabled cost is the thread-local read
/// inside [`perfmon::trace::enabled`]).
pub(crate) struct OpTrace {
    backend: &'static str,
    kind: OpKind,
    mask: MaskMode,
    mask_complement: bool,
    replace: bool,
    /// Workspace counters at op entry; the span reports the delta.
    ws: crate::workspace::WsSnapshot,
    /// Monotone allocator total at op entry.
    alloc_total: usize,
    /// Live allocator bytes at op entry.
    alloc_live: usize,
    started: Instant,
}

/// Opens a span for a masked / descriptor-carrying op.
pub(crate) fn op_start(
    kind: OpKind,
    backend: &'static str,
    mask_present: bool,
    desc: &Descriptor,
) -> Option<OpTrace> {
    if !trace::enabled() {
        return None;
    }
    let mask = match (mask_present, desc.mask_structural) {
        (false, _) => MaskMode::None,
        (true, false) => MaskMode::Value,
        (true, true) => MaskMode::Structural,
    };
    Some(OpTrace {
        backend,
        kind,
        mask,
        mask_complement: mask_present && desc.mask_complement,
        replace: desc.replace,
        ws: crate::workspace::snapshot(),
        alloc_total: perfmon::alloc::total_bytes(),
        alloc_live: perfmon::alloc::live_bytes(),
        started: Instant::now(),
    })
}

/// Opens a span for an op that takes neither a mask nor a descriptor.
pub(crate) fn op_start_plain(kind: OpKind, backend: &'static str) -> Option<OpTrace> {
    op_start(kind, backend, false, &Descriptor::default())
}

impl OpTrace {
    /// Closes the span, recording the call into the trace. Ops without a
    /// kernel-selection layer record [`KernelChoice::Unspecified`].
    pub(crate) fn finish(self, input_nnz: usize, output_nnz: usize, materialized_bytes: usize) {
        self.finish_kernel(
            input_nnz,
            output_nnz,
            materialized_bytes,
            &kernels::Selection::forced(KernelChoice::Unspecified),
            0,
        );
    }

    /// Closes the span for a `vxm`/`mxv` call, recording which kernel ran,
    /// its accumulator footprint, and the cost model's input, the frontier
    /// degree (zero for `mxv`, which selects nothing).
    pub(crate) fn finish_kernel(
        self,
        input_nnz: usize,
        output_nnz: usize,
        materialized_bytes: usize,
        selection: &kernels::Selection,
        accumulator_bytes: u64,
    ) {
        let ws = crate::workspace::snapshot();
        // Transient churn: bytes allocated during the op minus bytes still
        // live at op end — the op's thrown-away scratch. 0 when the
        // tracking allocator is not installed.
        let total_delta = perfmon::alloc::total_bytes().saturating_sub(self.alloc_total);
        let live_delta = perfmon::alloc::live_bytes().saturating_sub(self.alloc_live);
        trace::record(Event::Op(OpSpan {
            seq: 0,
            backend: self.backend,
            kind: self.kind,
            input_nnz: input_nnz as u64,
            output_nnz: output_nnz as u64,
            mask: self.mask,
            mask_complement: self.mask_complement,
            replace: self.replace,
            materialized_bytes: materialized_bytes as u64,
            kernel: selection.choice,
            accumulator_bytes,
            frontier_degree: selection.frontier_degree,
            ws_reused_bytes: ws.reused - self.ws.reused,
            ws_fresh_bytes: ws.fresh - self.ws.fresh,
            flops: ws.flops - self.ws.flops,
            chunks: ws.chunks - self.ws.chunks,
            alloc_bytes: total_delta.saturating_sub(live_delta) as u64,
            elapsed_ns: self.started.elapsed().as_nanos() as u64,
        }));
    }
}

mod assign;
mod ewise;
mod extract;
mod kernels;
mod mxm;
mod reduce;
mod select;
mod spmv;
mod write;

pub use assign::{apply, apply_inplace, assign_scalar};
pub use ewise::{ewise_add, ewise_mult};
pub use extract::extract;
pub use kernels::{policy, vxm_kernel_choice, with_policy, Policy};
pub use mxm::mxm;
pub use reduce::{reduce_matrix, reduce_vector};
pub use select::{select_matrix, select_vector};
pub use spmv::{mxv, vxm};
pub use write::{Accum, NoAccum, Output};
