//! Sparsity-adaptive kernel selection for `vxm` / `mxv`.
//!
//! The paper's SpMV kernels are single-strategy: `vxm` always scatters
//! push-style into a dense accumulator, `mxv` always pulls row dot
//! products. Real direction-optimizing systems (GraphBLAST's Beamer-style
//! bfs, GraphMat's SPA compaction) pick a strategy *per invocation* from
//! operand sparsity. This module adds that layer:
//!
//! * [`KernelChoice::PushDense`] — the paper-faithful SAXPY scatter into a
//!   dense [`AtomicAccumulator`] (cost `O(out_dim)` bytes every call);
//! * [`KernelChoice::PushSparse`] — the same scatter into per-thread
//!   sparse pair lanes, compacted by a sort + fold (no dense
//!   intermediate; wins when the frontier touches few outputs);
//! * [`KernelChoice::Pull`] — masked SDOT over the rows of the cached
//!   transpose, visiting only mask-admitted outputs and exiting each dot
//!   product early once the additive monoid's absorbing element is
//!   reached (wins when few outputs remain unresolved);
//! * [`KernelChoice::Bitmap`] — the same SAXPY scatter into a
//!   [`BitmapAccumulator`]: dense value slots plus a 1-bit-per-vertex
//!   presence word array drained by word scan (GraphBLAST's
//!   dense-frontier representation; wins over the dense accumulator's
//!   per-slot drain when the frontier is dense).
//!
//! Selection is resolved in precedence order: a per-call
//! [`Descriptor::kernel`](crate::descriptor::Descriptor) hint, then the
//! process-wide [`kernel_mode`] (seeded from `STUDY_KERNEL`), then — under
//! [`KernelMode::Auto`] — a Beamer-style cost model over the frontier
//! degree sum, matrix nnz, and mask-admitted output count. Byte guards
//! ensure the chosen kernel never materializes more accumulator bytes
//! than the paper's dense scatter would — extended to the bitmap
//! kernel's word array, which is counted honestly in its projection and
//! adds at most `out_dim / 8` bytes over the dense baseline (the bitmap
//! kernel is only picked when the frontier is already dense enough that
//! the sparse pair lanes lost the guard).

use crate::binops::SemiringOps;
use crate::descriptor::{Descriptor, KernelHint};
use crate::error::GrbError;
use crate::matrix::Matrix;
use crate::runtime::Runtime;
use crate::scalar::Scalar;
use crate::util::{AtomicAccumulator, BitmapAccumulator};
use crate::vector::Vector;
use galois_rt::substrate::PerThread;
use perfmon::trace::KernelChoice;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Process-wide SpMV strategy policy (the `STUDY_KERNEL` axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Pick per invocation from the sparsity heuristic.
    #[default]
    Auto,
    /// The paper's fixed strategies: `vxm` scatters into the dense
    /// accumulator, `mxv` pulls row dot products — bit-for-bit the
    /// pre-selection kernels.
    Push,
    /// Pull for every call, including `vxm` (SDOT over the cached
    /// transpose).
    Pull,
    /// The bitmap-frontier scatter for every call (dense value slots +
    /// presence word array, drained by word scan).
    Bitmap,
}

/// 0 = not yet resolved from the environment.
static MODE: AtomicU8 = AtomicU8::new(0);

const MODE_AUTO: u8 = 1;
const MODE_PUSH: u8 = 2;
const MODE_PULL: u8 = 3;
const MODE_BITMAP: u8 = 4;

fn encode(mode: KernelMode) -> u8 {
    match mode {
        KernelMode::Auto => MODE_AUTO,
        KernelMode::Push => MODE_PUSH,
        KernelMode::Pull => MODE_PULL,
        KernelMode::Bitmap => MODE_BITMAP,
    }
}

/// Returns the process-wide kernel policy, resolving it from the
/// `STUDY_KERNEL` environment variable (`push` | `pull` | `bitmap` |
/// `auto`) on first use. Unset defaults to [`KernelMode::Auto`].
///
/// # Panics
///
/// Panics when `STUDY_KERNEL` is set to an unrecognized value.
pub fn kernel_mode() -> KernelMode {
    match MODE.load(Ordering::Relaxed) {
        MODE_AUTO => KernelMode::Auto,
        MODE_PUSH => KernelMode::Push,
        MODE_PULL => KernelMode::Pull,
        MODE_BITMAP => KernelMode::Bitmap,
        _ => {
            let mode = match std::env::var("STUDY_KERNEL") {
                Ok(v) => match v.as_str() {
                    "auto" => KernelMode::Auto,
                    "push" => KernelMode::Push,
                    "pull" => KernelMode::Pull,
                    "bitmap" => KernelMode::Bitmap,
                    other => {
                        panic!("STUDY_KERNEL must be push, pull, bitmap or auto; got {other:?}")
                    }
                },
                Err(_) => KernelMode::Auto,
            };
            MODE.store(encode(mode), Ordering::Relaxed);
            mode
        }
    }
}

/// Overrides the process-wide kernel policy (takes precedence over
/// `STUDY_KERNEL`; per-call [`Descriptor`] hints still win).
pub fn set_kernel_mode(mode: KernelMode) {
    MODE.store(encode(mode), Ordering::Relaxed);
}

/// `u64::MAX` = not yet resolved from the environment,
/// `u64::MAX - 1` = unlimited.
static BUDGET: AtomicU64 = AtomicU64::new(u64::MAX);
const BUDGET_UNRESOLVED: u64 = u64::MAX;
const BUDGET_UNLIMITED: u64 = u64::MAX - 1;

/// Returns the process-wide accumulator byte budget, resolving it from
/// the `STUDY_MEM_BUDGET` environment variable (a byte count) on first
/// use. `None` means unlimited — selection runs exactly the pre-budget
/// logic at the cost of one relaxed atomic load.
///
/// The budget bounds each op's *projected* accumulator footprint (see
/// `projected_bytes`): when the preferred kernel would exceed it,
/// `auto` degrades to the least-materializing kernel that fits, and when
/// none fits the op returns [`GrbError::ResourceExhausted`] — the
/// paper's materialization limitation enforced as an invariant.
///
/// # Panics
///
/// Panics when `STUDY_MEM_BUDGET` is set to a non-integer.
pub fn mem_budget() -> Option<u64> {
    match BUDGET.load(Ordering::Relaxed) {
        BUDGET_UNRESOLVED => {
            let budget = match std::env::var("STUDY_MEM_BUDGET") {
                Ok(v) if !v.trim().is_empty() => Some(v.trim().parse().unwrap_or_else(|e| {
                    panic!("STUDY_MEM_BUDGET must be a byte count, got {v:?}: {e}")
                })),
                _ => None,
            };
            set_mem_budget(budget);
            budget
        }
        BUDGET_UNLIMITED => None,
        b => Some(b),
    }
}

/// Overrides the process-wide accumulator byte budget (takes precedence
/// over `STUDY_MEM_BUDGET`); `None` removes any limit. Budgets at or
/// above `u64::MAX - 1` are treated as unlimited.
pub fn set_mem_budget(budget: Option<u64>) {
    BUDGET.store(
        budget.unwrap_or(BUDGET_UNLIMITED).min(BUDGET_UNLIMITED),
        Ordering::Relaxed,
    );
}

/// The outcome of kernel selection for one call: the kernel to run plus
/// the heuristic inputs, recorded on the op's trace span. Forced choices
/// (descriptor hint or non-auto mode) skip the operand scans and leave
/// the inputs zero.
pub(crate) struct Selection {
    /// Kernel to execute.
    pub choice: KernelChoice,
    /// Sum of frontier-row degrees (upper bound on scatter work).
    pub frontier_degree: u64,
    /// Matrix nnz.
    pub matrix_nnz: u64,
    /// Outputs the mask admits.
    pub mask_admitted: u64,
}

impl Selection {
    pub(crate) fn forced(choice: KernelChoice) -> Self {
        Selection {
            choice,
            frontier_degree: 0,
            matrix_nnz: 0,
            mask_admitted: 0,
        }
    }
}

/// Resolves a descriptor hint or a non-auto mode; `None` means run the
/// heuristic. `vxm` and `mxv` differ only in what [`KernelMode::Push`]
/// (the paper's fixed strategy) means.
fn forced_choice(desc: &Descriptor, is_vxm: bool) -> Option<KernelChoice> {
    match desc.kernel {
        KernelHint::PushSparse => Some(KernelChoice::PushSparse),
        KernelHint::PushDense => Some(KernelChoice::PushDense),
        KernelHint::Pull => Some(KernelChoice::Pull),
        KernelHint::Bitmap => Some(KernelChoice::Bitmap),
        KernelHint::Auto => match kernel_mode() {
            KernelMode::Push => Some(if is_vxm {
                KernelChoice::PushDense
            } else {
                KernelChoice::Pull
            }),
            KernelMode::Pull => Some(KernelChoice::Pull),
            KernelMode::Bitmap => Some(KernelChoice::Bitmap),
            KernelMode::Auto => None,
        },
    }
}

/// Number of output slots the mask lets through. Valued masks admit
/// non-zero entries (a dense vector full of explicit zeros admits none),
/// structural masks admit present entries; complement inverts against the
/// output dimension.
pub(crate) fn admitted_outputs<M: Scalar>(
    mask: Option<&Vector<M>>,
    desc: &Descriptor,
    out_dim: usize,
) -> u64 {
    match mask {
        None => out_dim as u64,
        Some(m) => {
            let hits = if desc.mask_structural {
                m.nvals()
            } else {
                m.nonzeros()
            };
            if desc.mask_complement {
                (out_dim - hits.min(out_dim)) as u64
            } else {
                hits.min(out_dim) as u64
            }
        }
    }
}

/// The Beamer-style cost model, pure in its inputs so tests can probe the
/// decision boundary directly.
///
/// Work estimates (element visits):
/// * push: every frontier edge is scattered (`frontier_degree`) and at
///   most `min(frontier_degree, admitted)` outputs are written;
/// * pull: every output is mask-checked (`out_dim`) and each admitted
///   output folds an average-degree (`matrix_nnz / out_dim`) dot product.
///
/// Whichever is cheaper wins. `pull_is_baseline` marks the `mxv` case,
/// whose paper-faithful kernel *is* pull: ties go to pull and pull needs
/// no byte guard (it cannot materialize more than the op's own
/// baseline). For `vxm` (baseline: dense push scatter) ties go to push
/// and pull is only taken when its worst-case emission
/// (`admitted * pair_bytes`) undercuts the dense accumulator's
/// `out_dim * val_bytes`. [`KernelChoice::PushSparse`] is likewise only
/// chosen under its byte bound, so `auto` never materializes more than
/// the op's fixed paper strategy.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pick_kernel(
    frontier_degree: u64,
    matrix_nnz: u64,
    out_dim: u64,
    admitted: u64,
    pair_bytes: u64,
    val_bytes: u64,
    pull_is_baseline: bool,
) -> KernelChoice {
    let dense_bytes = out_dim.saturating_mul(val_bytes);
    let avg_degree = matrix_nnz.checked_div(out_dim).unwrap_or(0);
    let pull_cost = out_dim.saturating_add(admitted.saturating_mul(avg_degree));
    let push_cost = frontier_degree.saturating_add(frontier_degree.min(admitted));
    let pull_wins = if pull_is_baseline {
        pull_cost <= push_cost
    } else {
        pull_cost < push_cost
    };
    let pull_fits = pull_is_baseline || admitted.saturating_mul(pair_bytes) < dense_bytes;
    if pull_wins && pull_fits {
        return KernelChoice::Pull;
    }
    if frontier_degree.saturating_mul(pair_bytes) < dense_bytes {
        KernelChoice::PushSparse
    } else if out_dim >= 64 {
        // Dense frontier: the pair lanes lost the byte guard, so the
        // drain dominates — the bitmap's word scan (one instruction per
        // 64 slots plus one per present entry) beats the dense
        // accumulator's per-slot pass. Below one presence word the word
        // array cannot pay for itself; keep the paper kernel.
        KernelChoice::Bitmap
    } else {
        KernelChoice::PushDense
    }
}

/// Worst-case accumulator bytes `choice` would materialize on these
/// operands — the quantity [`mem_budget`] is enforced against.
/// `paper_pull` marks `mxv`, whose pull kernel materializes dense value
/// and presence buffers over the output dimension rather than emitted
/// pairs.
pub(crate) fn projected_bytes(
    choice: KernelChoice,
    frontier_degree: u64,
    out_dim: u64,
    admitted: u64,
    pair_bytes: u64,
    val_bytes: u64,
    paper_pull: bool,
) -> u64 {
    match choice {
        KernelChoice::PushDense => out_dim.saturating_mul(val_bytes),
        KernelChoice::PushSparse => frontier_degree.saturating_mul(pair_bytes),
        KernelChoice::Bitmap => out_dim
            .saturating_mul(val_bytes)
            .saturating_add(out_dim.div_ceil(64).saturating_mul(8)),
        KernelChoice::Pull => {
            if paper_pull {
                out_dim.saturating_mul(val_bytes.saturating_add(1))
            } else {
                admitted.saturating_mul(pair_bytes)
            }
        }
        KernelChoice::Unspecified => 0,
    }
}

/// Applies the byte budget to a preliminary choice. The preferred kernel
/// stands when its projection fits. A `forced` choice (descriptor hint or
/// non-auto mode) that does not fit errors immediately — the caller asked
/// for that kernel specifically. Under `auto`, the least-materializing
/// kernel that fits is substituted; when none fits the op reports the
/// cheapest kernel's requirement.
#[allow(clippy::too_many_arguments)]
fn fit_to_budget(
    preferred: KernelChoice,
    limit: u64,
    frontier_degree: u64,
    out_dim: u64,
    admitted: u64,
    pair_bytes: u64,
    val_bytes: u64,
    paper_pull: bool,
    forced: bool,
) -> Result<KernelChoice, GrbError> {
    let proj = |c| {
        projected_bytes(
            c,
            frontier_degree,
            out_dim,
            admitted,
            pair_bytes,
            val_bytes,
            paper_pull,
        )
    };
    if proj(preferred) <= limit {
        return Ok(preferred);
    }
    if forced {
        return Err(GrbError::ResourceExhausted {
            required: proj(preferred),
            budget: limit,
        });
    }
    let cheapest = [
        KernelChoice::PushSparse,
        KernelChoice::Pull,
        KernelChoice::PushDense,
    ]
    .into_iter()
    .min_by_key(|&c| proj(c))
    .expect("candidate list is non-empty");
    if proj(cheapest) <= limit {
        Ok(cheapest)
    } else {
        Err(GrbError::ResourceExhausted {
            required: proj(cheapest),
            budget: limit,
        })
    }
}

/// Selects the kernel for `w<mask> = uᵀA` and reports the heuristic
/// inputs it used.
///
/// # Errors
///
/// Returns [`GrbError::ResourceExhausted`] when a [`mem_budget`] is
/// active and no viable kernel's projected accumulator fits it.
pub(crate) fn select_vxm<T: Scalar, M: Scalar>(
    u: &Vector<T>,
    a: &Matrix<T>,
    mask: Option<&Vector<M>>,
    desc: &Descriptor,
) -> Result<Selection, GrbError> {
    let budget = mem_budget();
    let forced = forced_choice(desc, true);
    if budget.is_none() {
        // Zero-overhead path: forced choices skip the operand scans.
        if let Some(choice) = forced {
            return Ok(Selection::forced(choice));
        }
    }
    let out_dim = a.ncols();
    let frontier_degree: u64 = u.iter().map(|(i, _)| a.row_nvals(i) as u64).sum();
    let matrix_nnz = a.nvals() as u64;
    let mask_admitted = admitted_outputs(mask, desc, out_dim);
    let pair_bytes = std::mem::size_of::<(u32, T)>() as u64;
    let val_bytes = std::mem::size_of::<T>() as u64;
    let preferred = forced.unwrap_or_else(|| {
        pick_kernel(
            frontier_degree,
            matrix_nnz,
            out_dim as u64,
            mask_admitted,
            pair_bytes,
            val_bytes,
            false,
        )
    });
    let choice = match budget {
        None => preferred,
        Some(limit) => fit_to_budget(
            preferred,
            limit,
            frontier_degree,
            out_dim as u64,
            mask_admitted,
            pair_bytes,
            val_bytes,
            false,
            forced.is_some(),
        )?,
    };
    if forced.is_some() {
        // Forced selections keep their zero-input trace shape even when
        // the budget made us scan the operands to project bytes.
        return Ok(Selection::forced(choice));
    }
    Ok(Selection {
        choice,
        frontier_degree,
        matrix_nnz,
        mask_admitted,
    })
}

/// Selects the kernel for `w<mask> = A·u`. The frontier degree sum is
/// estimated as `u.nvals() * avg_degree` (exact per-column degrees would
/// require the transpose the push kernels are trying to avoid building).
///
/// # Errors
///
/// Returns [`GrbError::ResourceExhausted`] when a [`mem_budget`] is
/// active and no viable kernel's projected accumulator fits it.
pub(crate) fn select_mxv<T: Scalar, M: Scalar>(
    u: &Vector<T>,
    a: &Matrix<T>,
    mask: Option<&Vector<M>>,
    desc: &Descriptor,
) -> Result<Selection, GrbError> {
    let budget = mem_budget();
    let forced = forced_choice(desc, false);
    if budget.is_none() {
        if let Some(choice) = forced {
            return Ok(Selection::forced(choice));
        }
    }
    let out_dim = a.nrows();
    let matrix_nnz = a.nvals() as u64;
    let frontier_degree = if a.ncols() == 0 {
        0
    } else {
        (u.nvals() as u64).saturating_mul(matrix_nnz) / a.ncols() as u64
    };
    let mask_admitted = admitted_outputs(mask, desc, out_dim);
    let pair_bytes = std::mem::size_of::<(u32, T)>() as u64;
    let val_bytes = std::mem::size_of::<T>() as u64;
    let preferred = forced.unwrap_or_else(|| {
        pick_kernel(
            frontier_degree,
            matrix_nnz,
            out_dim as u64,
            mask_admitted,
            pair_bytes,
            val_bytes,
            true,
        )
    });
    let choice = match budget {
        None => preferred,
        Some(limit) => fit_to_budget(
            preferred,
            limit,
            frontier_degree,
            out_dim as u64,
            mask_admitted,
            pair_bytes,
            val_bytes,
            true,
            forced.is_some(),
        )?,
    };
    if forced.is_some() {
        return Ok(Selection::forced(choice));
    }
    Ok(Selection {
        choice,
        frontier_degree,
        matrix_nnz,
        mask_admitted,
    })
}

/// The kernel `vxm` would run for these operands (hint > mode > budget >
/// heuristic). Exposed so tests can assert that `auto` delegates to the
/// kernel the cost model names.
///
/// # Errors
///
/// Returns [`GrbError::ResourceExhausted`] exactly when the
/// corresponding `vxm` call would.
pub fn vxm_kernel_choice<T: Scalar, M: Scalar>(
    u: &Vector<T>,
    a: &Matrix<T>,
    mask: Option<&Vector<M>>,
    desc: &Descriptor,
) -> Result<KernelChoice, GrbError> {
    Ok(select_vxm(u, a, mask, desc)?.choice)
}

/// The kernel `mxv` would run for these operands (hint > mode > budget >
/// heuristic).
///
/// # Errors
///
/// Returns [`GrbError::ResourceExhausted`] exactly when the
/// corresponding `mxv` call would.
pub fn mxv_kernel_choice<T: Scalar, M: Scalar>(
    u: &Vector<T>,
    a: &Matrix<T>,
    mask: Option<&Vector<M>>,
    desc: &Descriptor,
) -> Result<KernelChoice, GrbError> {
    Ok(select_mxv(u, a, mask, desc)?.choice)
}

/// SAXPY scatter of `entries` through the rows of `a` into per-thread
/// sparse pair lanes (the GraphMat SPA shape): no dense intermediate.
///
/// Returns the compacted `(index, value)` entries in ascending index
/// order plus the accumulator footprint in bytes (total pairs emitted,
/// which is the mask-passing contribution count — independent of thread
/// schedule). The compaction sorts by `(index, bit pattern)` before
/// folding with ⊕ so the fold order, and hence every float result, is
/// deterministic across thread counts.
///
/// `mul` maps `(frontier value, matrix value)` to a contribution, letting
/// `mxv` flip the semiring's ⊗ argument order.
pub(crate) fn scatter_sparse<T, M, S, R>(
    entries: &[(u32, T)],
    a: &Matrix<T>,
    mask: Option<&Vector<M>>,
    desc: &Descriptor,
    semiring: S,
    mul: impl Fn(T, T) -> T + Sync,
    rt: R,
) -> (Vec<(u32, T)>, u64)
where
    T: Scalar,
    M: Scalar,
    S: SemiringOps<T>,
    R: Runtime,
{
    let lanes: PerThread<Vec<(u32, T)>> = PerThread::new(Vec::new);
    rt.parallel_for(entries.len(), |p| {
        let (i, x) = entries[p];
        perfmon::touch_ref(&entries[p]);
        for (j, &av) in a.row_pairs(i) {
            perfmon::instr(2);
            perfmon::touch_ref(&av);
            if let Some(m) = mask {
                let pass = m.mask_at(j, desc.mask_structural) != desc.mask_complement;
                perfmon::instr(1);
                if !pass {
                    continue;
                }
            }
            lanes.with(|lane| lane.push((j, mul(x, av))));
        }
    });
    let mut pairs: Vec<(u32, T)> = lanes.into_inner().into_iter().flatten().collect();
    let acc_bytes = (pairs.len() * std::mem::size_of::<(u32, T)>()) as u64;
    pairs.sort_unstable_by_key(|&(j, v)| (j, v.to_bits64()));
    let mut out: Vec<(u32, T)> = Vec::new();
    for (j, v) in pairs {
        perfmon::instr(1);
        match out.last_mut() {
            Some(last) if last.0 == j => last.1 = semiring.add(last.1, v),
            _ => out.push((j, v)),
        }
    }
    (out, acc_bytes)
}

/// SAXPY scatter of `entries` through the rows of `a` into the dense
/// atomic accumulator — the paper's fixed push kernel, parameterized
/// over ⊗ argument order so `mxv` can run it against the cached
/// transpose. Instrumentation matches the original `vxm` loop exactly.
///
/// Returns the accumulator (the caller commits it) and its footprint,
/// always `out_dim * size_of::<T>()` bytes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scatter_dense<T, M, R>(
    entries: &[(u32, T)],
    a: &Matrix<T>,
    out_dim: usize,
    mask: Option<&Vector<M>>,
    desc: &Descriptor,
    add: impl Fn(T, T) -> T + Sync,
    mul: impl Fn(T, T) -> T + Sync,
    rt: R,
) -> (AtomicAccumulator<T>, u64)
where
    T: Scalar,
    M: Scalar,
    R: Runtime,
{
    let acc: AtomicAccumulator<T> = AtomicAccumulator::new(out_dim);
    let bytes = (out_dim * std::mem::size_of::<T>()) as u64;
    rt.parallel_for(entries.len(), |p| {
        let (i, x) = entries[p];
        perfmon::touch_ref(&entries[p]);
        for (j, &av) in a.row_pairs(i) {
            perfmon::instr(2);
            perfmon::touch_ref(&av);
            if let Some(m) = mask {
                let pass = m.mask_at(j, desc.mask_structural) != desc.mask_complement;
                perfmon::instr(1);
                if !pass {
                    continue;
                }
            }
            acc.accumulate(j as usize, mul(x, av), &add);
        }
    });
    (acc, bytes)
}

/// SAXPY scatter of `entries` through the rows of `a` into the
/// bitmap-frontier accumulator: dense value slots pre-filled with the
/// ⊕-identity plus a 1-bit-per-vertex presence word array, drained by
/// word scan. The scatter loop's instrumentation matches
/// [`scatter_dense`] exactly; only the drain differs (one instruction
/// per word + one per present entry instead of one per slot).
///
/// Returns the drained `(index, value)` entries in ascending index order
/// plus the accumulator footprint in bytes — value slots *and* presence
/// words, so the byte guards see the word array honestly.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scatter_bitmap<T, M, S, R>(
    entries: &[(u32, T)],
    a: &Matrix<T>,
    out_dim: usize,
    mask: Option<&Vector<M>>,
    desc: &Descriptor,
    semiring: S,
    mul: impl Fn(T, T) -> T + Sync,
    rt: R,
) -> (Vec<(u32, T)>, u64)
where
    T: Scalar,
    M: Scalar,
    S: SemiringOps<T>,
    R: Runtime,
{
    // Workspace-on runs recycle the slot and word arrays through the
    // pool (the bitmap is the auto pick for dense rounds, so per-call
    // allocation here would be exactly the churn recycling exists to
    // kill); off runs keep the paper-faithful fresh allocation.
    let recycled = crate::workspace::enabled();
    let acc: BitmapAccumulator<T> = if recycled {
        let ws = rt.workspace();
        let bits = ws.take_vec(crate::workspace::Shelf::Acc, out_dim);
        let words = ws.take_vec(crate::workspace::Shelf::Acc, out_dim.div_ceil(64));
        BitmapAccumulator::from_parts(bits, words, out_dim, semiring.add_identity())
    } else {
        BitmapAccumulator::new(out_dim, semiring.add_identity())
    };
    let bytes = (out_dim * std::mem::size_of::<T>()) as u64 + acc.word_bytes();
    let add = |x, y| semiring.add(x, y);
    rt.parallel_for(entries.len(), |p| {
        let (i, x) = entries[p];
        perfmon::touch_ref(&entries[p]);
        for (j, &av) in a.row_pairs(i) {
            perfmon::instr(2);
            perfmon::touch_ref(&av);
            if let Some(m) = mask {
                let pass = m.mask_at(j, desc.mask_structural) != desc.mask_complement;
                perfmon::instr(1);
                if !pass {
                    continue;
                }
            }
            acc.accumulate(j as usize, mul(x, av), add);
        }
    });
    (release_bitmap(acc, recycled, rt), bytes)
}

/// Drains a bitmap accumulator and, on workspace-on runs, returns its
/// arrays to the pool. The word array goes back first so the next
/// checkout pairs each buffer with the role whose capacity it already
/// has (the shelf is a LIFO).
fn release_bitmap<T: Scalar, R: Runtime>(
    acc: BitmapAccumulator<T>,
    recycled: bool,
    rt: R,
) -> Vec<(u32, T)> {
    if recycled {
        let ws = rt.workspace();
        let mut out = ws.take_vec(crate::workspace::Shelf::Entries, 0);
        acc.drain_into(&mut out);
        let (bits, words) = acc.into_parts();
        ws.give_vec(crate::workspace::Shelf::Acc, words);
        ws.give_vec(crate::workspace::Shelf::Acc, bits);
        out
    } else {
        acc.drain_entries()
    }
}

/// Masked SDOT over the rows of `at` (the transpose of the scattered
/// matrix): output `j` folds `⊕_k mul(u(k), at(j,k))`, skipping
/// mask-rejected outputs entirely and exiting the fold early once the
/// accumulator reaches the monoid's absorbing element (the "any" exit
/// that makes pull bfs cheap).
///
/// Returns entries in ascending index order plus the emission footprint
/// in bytes. One task owns each output, so both are deterministic.
pub(crate) fn pull_gather<T, M, S, R>(
    u: &Vector<T>,
    at: &Matrix<T>,
    mask: Option<&Vector<M>>,
    desc: &Descriptor,
    semiring: S,
    mul: impl Fn(T, T) -> T + Sync,
    rt: R,
) -> (Vec<(u32, T)>, u64)
where
    T: Scalar,
    M: Scalar,
    S: SemiringOps<T>,
    R: Runtime,
{
    let n = at.nrows();
    let udense = u.dense_parts();
    let absorbing = semiring.add_absorbing();
    let lanes: PerThread<Vec<(u32, T)>> = PerThread::new(Vec::new);
    rt.parallel_for_balanced(n, |j| at.row_nvals(j as u32) as u64 + 1, |j| {
        if let Some(m) = mask {
            perfmon::instr(1);
            let pass = m.mask_at(j as u32, desc.mask_structural) != desc.mask_complement;
            if !pass {
                return;
            }
        }
        let mut acc = semiring.add_identity();
        let mut any = false;
        for (k, &av) in at.row_pairs(j as u32) {
            perfmon::instr(2);
            perfmon::touch_ref(&av);
            let x = match udense {
                Some((uvals, upresent)) => {
                    perfmon::touch_ref(&uvals[k as usize]);
                    upresent[k as usize].then(|| uvals[k as usize])
                }
                None => u.get(k),
            };
            if let Some(x) = x {
                acc = semiring.add(acc, mul(x, av));
                any = true;
                if absorbing == Some(acc) {
                    break;
                }
            }
        }
        if any {
            lanes.with(|lane| lane.push((j as u32, acc)));
        }
    });
    let mut out: Vec<(u32, T)> = lanes.into_inner().into_iter().flatten().collect();
    let acc_bytes = (out.len() * std::mem::size_of::<(u32, T)>()) as u64;
    out.sort_unstable_by_key(|&(j, _)| j);
    (out, acc_bytes)
}

/// Commits sorted `(index, value)` entries into `w` under the same
/// merge-or-replace semantics as the dense accumulator's store: replace
/// installs a fresh store sized by [`crate::vector::dense_preferred`],
/// merge folds entry-by-entry into the existing store.
pub(crate) fn store_entries<T: Scalar>(w: &mut Vector<T>, entries: Vec<(u32, T)>, replace: bool) {
    store_entries_slice(w, &entries, replace);
}

/// [`store_entries`] over a borrowed slice, so callers holding a pooled
/// entry buffer can return it to the workspace afterwards.
pub(crate) fn store_entries_slice<T: Scalar>(w: &mut Vector<T>, entries: &[(u32, T)], replace: bool) {
    if replace {
        let n = w.size();
        if crate::vector::dense_preferred(entries.len(), n) {
            let (mut vals, mut present) = take_or_alloc_dense(w, n);
            for &(i, v) in entries {
                vals[i as usize] = v;
                present[i as usize] = true;
            }
            w.set_dense(vals, present);
        } else {
            let mut idx = Vec::with_capacity(entries.len());
            let mut vals = Vec::with_capacity(entries.len());
            for &(i, v) in entries {
                idx.push(i);
                vals.push(v);
            }
            w.set_sparse(idx, vals);
        }
    } else {
        for &(i, v) in entries {
            perfmon::instr(1);
            w.set(i, v).expect("kernel indices in range");
        }
    }
}

/// Dense value + presence buffers over `n` outputs for a replace-mode
/// store. With workspace recycling on, `w`'s own previous dense store is
/// reclaimed (zero-normalized so results stay bit-identical to fresh
/// buffers); otherwise — and whenever shapes do not match — the
/// paper-faithful fresh allocation runs.
pub(crate) fn take_or_alloc_dense<T: Scalar>(w: &mut Vector<T>, n: usize) -> (Vec<T>, Vec<bool>) {
    let bytes = n * (std::mem::size_of::<T>() + std::mem::size_of::<bool>());
    if crate::workspace::enabled() {
        if let Some((mut vals, mut present)) = w.take_dense_store() {
            if vals.len() == n {
                crate::workspace::note_reused(bytes);
                vals.fill(T::ZERO);
                present.fill(false);
                return (vals, present);
            }
        }
        crate::workspace::note_fresh(bytes);
    }
    (vec![T::ZERO; n], vec![false; n])
}

/// The entry list of `u`: drawn from the workspace pool when recycling is
/// on, freshly allocated (the paper-faithful materialization) otherwise.
pub(crate) fn take_entries<T: Scalar, R: Runtime>(u: &Vector<T>, rt: R) -> Vec<(u32, T)> {
    if crate::workspace::enabled() {
        let mut buf = rt
            .workspace()
            .take_vec(crate::workspace::Shelf::Entries, u.nvals());
        u.entries_into(&mut buf);
        buf
    } else {
        u.entries()
    }
}

/// Returns an entry list obtained via [`take_entries`] to the pool (a
/// no-op drop when recycling is off).
pub(crate) fn give_entries<T: Scalar, R: Runtime>(entries: Vec<(u32, T)>, rt: R) {
    if crate::workspace::enabled() {
        rt.workspace()
            .give_vec(crate::workspace::Shelf::Entries, entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_roundtrip_and_default() {
        let before = kernel_mode();
        set_kernel_mode(KernelMode::Push);
        assert_eq!(kernel_mode(), KernelMode::Push);
        set_kernel_mode(KernelMode::Pull);
        assert_eq!(kernel_mode(), KernelMode::Pull);
        set_kernel_mode(before);
        assert_eq!(kernel_mode(), before);
    }

    #[test]
    fn descriptor_hint_beats_mode() {
        let desc = Descriptor::new().with_kernel(KernelHint::PushSparse);
        assert_eq!(forced_choice(&desc, true), Some(KernelChoice::PushSparse));
        assert_eq!(forced_choice(&desc, false), Some(KernelChoice::PushSparse));
    }

    #[test]
    fn tiny_frontier_scatters_sparse() {
        // 1-entry frontier of degree 8 against a 10_000-wide output:
        // sparse pairs beat a 10_000-slot dense accumulator.
        let c = pick_kernel(8, 50_000, 10_000, 10_000, 16, 8, false);
        assert_eq!(c, KernelChoice::PushSparse);
    }

    #[test]
    fn heavy_frontier_scatters_bitmap() {
        // Frontier touching most edges with most outputs admitted: the
        // pair lanes would outweigh the dense accumulator and pull's
        // full-matrix fold is no cheaper, so a dense scatter runs — and
        // with 10_000 output slots the bitmap drain beats the per-slot
        // pass.
        let c = pick_kernel(40_000, 50_000, 10_000, 10_000, 16, 8, false);
        assert_eq!(c, KernelChoice::Bitmap);
    }

    #[test]
    fn tiny_output_keeps_the_paper_dense_scatter() {
        // Same dense-frontier shape but under one presence word: the
        // word array cannot pay for itself.
        let c = pick_kernel(400, 500, 63, 63, 16, 8, false);
        assert_eq!(c, KernelChoice::PushDense);
    }

    #[test]
    fn few_admitted_outputs_pull() {
        // Late-bfs shape: a heavy frontier but only 100 unvisited
        // vertices admitted by the complemented mask — pull reads 100
        // short rows instead of scattering 40_000 edges.
        let c = pick_kernel(40_000, 50_000, 10_000, 100, 16, 8, false);
        assert_eq!(c, KernelChoice::Pull);
    }

    #[test]
    fn pull_needs_the_byte_guard() {
        // Pull wins on work but its emission bound (admitted * pair
        // bytes) would exceed the dense accumulator: fall back.
        let c = pick_kernel(40_000, 50_000, 10_000, 9_000, 16, 8, false);
        assert_ne!(c, KernelChoice::Pull);
    }

    #[test]
    fn dense_operand_tie_prefers_pull_for_mxv() {
        // Dense u, no mask: push_cost == pull_cost == nnz + n. mxv's
        // tie bias keeps the paper-faithful pull; vxm's keeps push (the
        // bitmap flavor, since the frontier is dense and n ≥ 64).
        let n = 1_000u64;
        let nnz = 8_000u64;
        assert_eq!(
            pick_kernel(nnz, nnz, n, n, 16, 8, true),
            KernelChoice::Pull
        );
        assert_eq!(
            pick_kernel(nnz, nnz, n, n, 16, 8, false),
            KernelChoice::Bitmap
        );
    }

    #[test]
    fn zero_dimensions_do_not_divide() {
        // Empty operands must not divide by zero; each op degrades to
        // its own paper baseline.
        assert_eq!(pick_kernel(0, 0, 0, 0, 16, 8, false), KernelChoice::PushDense);
        assert_eq!(pick_kernel(0, 0, 0, 0, 16, 8, true), KernelChoice::Pull);
    }

    #[test]
    fn budget_roundtrip_is_behaviour_neutral() {
        // Use a budget large enough that no projection can exceed it, so
        // concurrently running selection tests are unaffected.
        let before = mem_budget();
        set_mem_budget(Some(u64::MAX - 2));
        assert_eq!(mem_budget(), Some(u64::MAX - 2));
        set_mem_budget(Some(u64::MAX));
        assert_eq!(mem_budget(), None, "near-MAX budgets clamp to unlimited");
        set_mem_budget(before);
        assert_eq!(mem_budget(), before);
    }

    #[test]
    fn projections_match_the_kernel_footprints() {
        use KernelChoice::*;
        // vxm: dense = out_dim * val, sparse = degree * pair,
        // pull = admitted * pair.
        assert_eq!(projected_bytes(PushDense, 8, 100, 50, 16, 8, false), 800);
        assert_eq!(projected_bytes(PushSparse, 8, 100, 50, 16, 8, false), 128);
        assert_eq!(projected_bytes(Pull, 8, 100, 50, 16, 8, false), 800);
        // mxv paper pull: dense vals + presence over out_dim.
        assert_eq!(projected_bytes(Pull, 8, 100, 50, 16, 8, true), 900);
        // bitmap: dense vals + ceil(out_dim / 64) presence words.
        assert_eq!(projected_bytes(Bitmap, 8, 100, 50, 16, 8, false), 816);
        assert_eq!(projected_bytes(Bitmap, 8, 64, 50, 16, 8, false), 520);
    }

    #[test]
    fn budget_degrades_auto_to_the_cheapest_fit() {
        // Path-graph shape: degree-1 frontier. Dense (800 B) is the
        // heuristic pick here, but a 256 B budget admits only the sparse
        // scatter (16 B).
        let c = fit_to_budget(
            KernelChoice::PushDense,
            256,
            1,
            100,
            100,
            16,
            8,
            false,
            false,
        )
        .unwrap();
        assert_eq!(c, KernelChoice::PushSparse);
    }

    #[test]
    fn budget_errors_when_nothing_fits() {
        let e = fit_to_budget(
            KernelChoice::PushDense,
            4,
            10,
            100,
            100,
            16,
            8,
            false,
            false,
        )
        .unwrap_err();
        match e {
            GrbError::ResourceExhausted { required, budget } => {
                assert_eq!(budget, 4);
                assert_eq!(required, 160, "reports the cheapest kernel's need");
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
    }

    #[test]
    fn budget_rejects_unfitting_forced_choice() {
        // A forced dense scatter may not silently degrade: the caller
        // asked for that kernel.
        let e = fit_to_budget(
            KernelChoice::PushDense,
            256,
            1,
            100,
            100,
            16,
            8,
            false,
            true,
        )
        .unwrap_err();
        assert!(matches!(
            e,
            GrbError::ResourceExhausted {
                required: 800,
                budget: 256
            }
        ));
    }

    #[test]
    fn fitting_preferred_choice_stands() {
        let c = fit_to_budget(
            KernelChoice::PushDense,
            800,
            1,
            100,
            100,
            16,
            8,
            false,
            false,
        )
        .unwrap();
        assert_eq!(c, KernelChoice::PushDense);
    }

    #[test]
    fn admitted_outputs_counts_values_and_structure() {
        let desc = Descriptor::new();
        // Dense mask with explicit zeros: valued admits only non-zeros.
        let mut m: Vector<u32> = Vector::new_dense(8, 0);
        m.set(2, 5).unwrap();
        m.set(6, 1).unwrap();
        assert_eq!(admitted_outputs(Some(&m), &desc, 8), 2);
        let structural = Descriptor::new().with_mask_structural(true);
        assert_eq!(admitted_outputs(Some(&m), &structural, 8), 8);
        let complement = Descriptor::new().with_mask_complement(true);
        assert_eq!(admitted_outputs(Some(&m), &complement, 8), 6);
        assert_eq!(admitted_outputs(None::<&Vector<u32>>, &desc, 8), 8);
    }
}
