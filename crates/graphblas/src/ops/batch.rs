//! Batched multi-source frontier advance: `GrB_mxm` over an n × k
//! multi-vector of query columns.
//!
//! One call advances every active lane of a [`MultiVector`] through the
//! same adjacency matrix. Each lane runs the *identical* span-free
//! kernel body as a serial [`super::vxm`] call ([`spmv::vxm_lane`]):
//! per-lane kernel selection gives per-column byte guards under
//! `STUDY_MEM_BUDGET`, the `grb.alloc.accumulator` fault point fires per
//! lane, and lanes execute sequentially so the pooled entry lists and
//! bitmap arrays ([`crate::workspace`]) are reused across the k columns
//! of one advance instead of allocated k times.
//!
//! What the batch amortizes is the *API call*: with two or more active
//! lanes the whole advance records one [`OpKind::Mxm`] span (aggregated
//! operand counts, unanimous-or-unspecified kernel choice); with exactly
//! one active lane it records a plain [`OpKind::Vxm`] span carrying that
//! lane's exact selection — a width-1 batch is bit-identical to the
//! serial path, spans included.

use super::{kernels, spmv, NoAccum};
use crate::binops::SemiringOps;
use crate::descriptor::Descriptor;
use crate::error::{dim_mismatch, GrbError};
use crate::matrix::Matrix;
use crate::multivec::MultiVector;
use crate::runtime::Runtime;
use crate::scalar::Scalar;
use perfmon::trace::{KernelChoice, OpKind};

/// How one lane of a batched advance ended.
#[derive(Debug)]
pub enum LaneOutcome {
    /// The lane was inactive and left untouched.
    Skipped,
    /// The lane's frontier advanced into its output column.
    Advanced,
    /// The lane failed (budget, fault, bad source); its siblings are
    /// unaffected.
    Failed(GrbError),
}

impl LaneOutcome {
    /// Whether the lane advanced.
    pub fn is_advanced(&self) -> bool {
        matches!(self, LaneOutcome::Advanced)
    }
}

/// `out[:, j]<masks[:, j]> = u[:, j] ⊗.⊕ A` for every active lane `j`
/// (the batched msBFS / multi-seed advance, `GrB_mxm` against the shared
/// adjacency).
///
/// `active[j]` selects which lanes participate; inactive lanes are
/// skipped entirely (their output columns stay untouched). A lane that
/// fails — the per-column byte guard rejecting its accumulator, an
/// injected fault — is reported as [`LaneOutcome::Failed`] without
/// poisoning its siblings: the remaining lanes still advance.
///
/// # Errors
///
/// Returns [`GrbError::DimensionMismatch`] only for batch-level shape
/// errors (widths of `out` / `u` / `masks` / `active` disagree).
/// Per-lane failures come back inside the outcome vector.
#[allow(clippy::too_many_arguments)] // mirrors the GrB_mxm signature plus the lane-activity vector
pub fn mxm_frontier<T, M, S, R>(
    out: &mut MultiVector<T>,
    masks: Option<&MultiVector<M>>,
    semiring: S,
    u: &MultiVector<T>,
    a: &Matrix<T>,
    desc: &Descriptor,
    active: &[bool],
    rt: R,
) -> Result<Vec<LaneOutcome>, GrbError>
where
    T: Scalar,
    M: Scalar,
    S: SemiringOps<T>,
    R: Runtime,
{
    let k = u.width();
    if out.width() != k || active.len() != k {
        return Err(dim_mismatch(
            format!("out.width == active.len == u.width == {k}"),
            format!("out.width == {}, active.len == {}", out.width(), active.len()),
        ));
    }
    if let Some(m) = masks {
        if m.width() != k {
            return Err(dim_mismatch(
                format!("masks.width == {k}"),
                format!("masks.width == {}", m.width()),
            ));
        }
    }

    // Span rule: k >= 2 active lanes are one SpGEMM-shaped product span;
    // exactly one active lane degenerates to the serial vxm span so a
    // width-1 batch fingerprints identically to the serial path.
    let k_active = active.iter().filter(|&&on| on).count();
    let kind = if k_active >= 2 { OpKind::Mxm } else { OpKind::Vxm };
    let span = super::op_start(kind, R::NAME, masks.is_some(), desc);

    let mut outcomes = Vec::with_capacity(k);
    let mut input_nnz = 0usize;
    let mut output_nnz = 0usize;
    let mut accumulator_bytes = 0u64;
    let mut agg: Option<kernels::Selection> = None;
    for (j, &on) in active.iter().enumerate() {
        if !on {
            outcomes.push(LaneOutcome::Skipped);
            continue;
        }
        let mask_j = masks.map(|m| m.lane(j));
        match spmv::vxm_lane(out.lane_mut(j), None::<NoAccum>, mask_j, semiring, u.lane(j), a, desc, rt) {
            Ok(run) => {
                input_nnz += run.input_nnz;
                output_nnz += out.lane(j).nvals();
                accumulator_bytes += run.accumulator_bytes;
                agg = Some(match agg {
                    None => run.selection,
                    Some(prev) => merge(prev, run.selection),
                });
                outcomes.push(LaneOutcome::Advanced);
            }
            Err(e) => outcomes.push(LaneOutcome::Failed(e)),
        }
    }

    if let Some(span) = span {
        let selection =
            agg.unwrap_or_else(|| kernels::Selection::forced(KernelChoice::Unspecified));
        span.finish_kernel(
            input_nnz,
            output_nnz,
            accumulator_bytes as usize,
            &selection,
            accumulator_bytes,
        );
    }
    Ok(outcomes)
}

/// Folds two lanes' selections into the batch-level span record: operand
/// counters sum; the kernel choice survives only when unanimous
/// (otherwise the span reports `Unspecified`, since no single kernel
/// describes the advance).
fn merge(a: kernels::Selection, b: kernels::Selection) -> kernels::Selection {
    kernels::Selection {
        choice: if a.choice == b.choice {
            a.choice
        } else {
            KernelChoice::Unspecified
        },
        frontier_degree: a.frontier_degree + b.frontier_degree,
        matrix_nnz: a.matrix_nnz.max(b.matrix_nnz),
        mask_admitted: a.mask_admitted + b.mask_admitted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binops::LorLand;
    use crate::runtime::GaloisRuntime;
    use crate::vector::Vector;

    /// 0 -> 1 -> 2 -> 3 path plus 0 -> 2 shortcut, boolean pattern.
    fn path_matrix() -> Matrix<u32> {
        Matrix::from_tuples(
            4,
            4,
            vec![(0, 1, 1u32), (1, 2, 1), (2, 3, 1), (0, 2, 1)],
            crate::binops::Plus,
        )
        .unwrap()
    }

    #[test]
    fn advances_every_active_lane() {
        let a = path_matrix();
        let mut u: MultiVector<u32> = MultiVector::new(4, 2);
        u.lane_mut(0).set(0, 1).unwrap();
        u.lane_mut(1).set(1, 1).unwrap();
        let mut out: MultiVector<u32> = MultiVector::new(4, 2);
        let outcomes = mxm_frontier(
            &mut out,
            None::<&MultiVector<u32>>,
            LorLand,
            &u,
            &a,
            &Descriptor::new().with_replace(true),
            &[true, true],
            GaloisRuntime,
        )
        .unwrap();
        assert!(outcomes.iter().all(LaneOutcome::is_advanced));
        assert_eq!(out.lane(0).entries(), vec![(1, 1), (2, 1)]);
        assert_eq!(out.lane(1).entries(), vec![(2, 1)]);
    }

    #[test]
    fn inactive_lanes_stay_untouched() {
        let a = path_matrix();
        let mut u: MultiVector<u32> = MultiVector::new(4, 2);
        u.lane_mut(0).set(0, 1).unwrap();
        u.lane_mut(1).set(1, 1).unwrap();
        let mut out: MultiVector<u32> = MultiVector::new(4, 2);
        out.lane_mut(1).set(3, 9).unwrap();
        let outcomes = mxm_frontier(
            &mut out,
            None::<&MultiVector<u32>>,
            LorLand,
            &u,
            &a,
            &Descriptor::new().with_replace(true),
            &[true, false],
            GaloisRuntime,
        )
        .unwrap();
        assert!(matches!(outcomes[0], LaneOutcome::Advanced));
        assert!(matches!(outcomes[1], LaneOutcome::Skipped));
        assert_eq!(out.lane(1).entries(), vec![(3, 9)], "skipped lane kept");
    }

    #[test]
    fn per_lane_masks_apply_per_column() {
        let a = path_matrix();
        let mut u: MultiVector<u32> = MultiVector::new(4, 2);
        u.lane_mut(0).set(0, 1).unwrap();
        u.lane_mut(1).set(0, 1).unwrap();
        // Lane 0's dist marks vertex 1 visited; lane 1's marks vertex 2.
        let mut masks: MultiVector<u32> = MultiVector::new(4, 2);
        *masks.lane_mut(0) = Vector::new_dense(4, 0);
        masks.lane_mut(0).set(1, 1).unwrap();
        *masks.lane_mut(1) = Vector::new_dense(4, 0);
        masks.lane_mut(1).set(2, 1).unwrap();
        let mut out: MultiVector<u32> = MultiVector::new(4, 2);
        mxm_frontier(
            &mut out,
            Some(&masks),
            LorLand,
            &u,
            &a,
            &Descriptor::replace_complement(),
            &[true, true],
            GaloisRuntime,
        )
        .unwrap();
        assert_eq!(out.lane(0).entries(), vec![(2, 1)], "lane 0 filters vertex 1");
        assert_eq!(out.lane(1).entries(), vec![(1, 1)], "lane 1 filters vertex 2");
    }

    #[test]
    fn batch_width_mismatch_is_a_batch_error() {
        let a = path_matrix();
        let u: MultiVector<u32> = MultiVector::new(4, 2);
        let mut out: MultiVector<u32> = MultiVector::new(4, 3);
        let err = mxm_frontier(
            &mut out,
            None::<&MultiVector<u32>>,
            LorLand,
            &u,
            &a,
            &Descriptor::new(),
            &[true, true],
            GaloisRuntime,
        );
        assert!(err.is_err());
    }

    // Per-lane failure isolation (one lane's oom never poisons its
    // siblings) needs the process-global fault plan / memory budget, so
    // it lives in the serialized chaos suite (`tests/chaos.rs`), not
    // here where it would race the crate's other unit tests.
}
