//! Accumulator selection for `vxm`, and the row fold of `mxv`.
//!
//! `vxm` is the push (SAXPY) product, as in GraphBLAS. The paper's `vxm`
//! always scatters into a dense accumulator; GraphMat's SPA compaction
//! shows that a frontier touching few outputs is cheaper to collect as
//! sparse pairs. So `vxm` has two kernels:
//!
//! * [`KernelChoice::PushDense`] — the paper-faithful SAXPY scatter into a
//!   dense [`AtomicAccumulator`] (cost `O(out_dim)` bytes every call);
//! * [`KernelChoice::PushSparse`] — the same scatter into per-thread
//!   sparse pair lanes, compacted by a sort + fold (no dense
//!   intermediate; wins when the frontier touches few outputs).
//!
//! A pull is `mxv` over a transpose the caller prepared, as LAGraph pulls
//! over the `AT` its graph object holds; `vxm` never builds one. `mxv`
//! has one kernel, the paper's row pull, and folds each row through
//! [`pull_row`]. An input vector held dense with all `n` entries present
//! is indexed directly; a dense input with holes reads its presence flag
//! before every value, a sparse one binary-searches.
//!
//! Selection reads the calling thread's run [`Policy`]: a forced push
//! kernel runs as named; otherwise the sparse scatter runs when the
//! frontier's `(index, value)` pairs take fewer bytes than the dense
//! accumulator, so `vxm` never materializes more than the paper's dense
//! scatter would.

use crate::binops::SemiringOps;
use crate::descriptor::Descriptor;
use crate::error::GrbError;
use crate::matrix::Matrix;
use crate::runtime::Runtime;
use crate::scalar::Scalar;
use crate::util::AtomicAccumulator;
use crate::vector::Vector;
use galois_rt::substrate::PerThread;
use perfmon::trace::KernelChoice;
use std::cell::Cell;

/// How one run configures the products: which `vxm` kernel runs and how
/// many accumulator bytes an op may project. The default lets the cost
/// model pick under no budget.
///
/// A policy belongs to a thread: [`with_policy`] installs one for the
/// duration of a closure, and every op reads it on the thread that calls
/// it (`vxm`'s selection and `mxv`'s budget check run there, before any
/// parallel loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Policy {
    /// The `vxm` kernel every call runs; `None` lets the cost model pick.
    /// `Some(KernelChoice::PushDense)` is the paper's fixed scatter.
    /// `vxm` has only the two push kernels, so `Some(KernelChoice::Pull)`,
    /// like `Some(KernelChoice::Unspecified)`, names no `vxm` kernel and
    /// counts as `None`. `mxv` has one kernel and ignores this.
    pub kernel: Option<KernelChoice>,
    /// The most accumulator bytes one op may project; `None` is unlimited.
    ///
    /// When `vxm`'s preferred kernel would exceed it, the cost model
    /// degrades to the other push kernel if that one fits, and when
    /// neither fits (or the kernel was forced) the op returns
    /// [`GrbError::ResourceExhausted`] — the paper's materialization
    /// limitation enforced as an invariant.
    pub budget: Option<u64>,
}

impl Policy {
    /// `kernel` forced on every `vxm`, under no budget.
    pub const fn forcing(kernel: KernelChoice) -> Policy {
        Policy {
            kernel: Some(kernel),
            budget: None,
        }
    }

    /// Reads `STUDY_KERNEL` (`push` | `auto`, unset is `auto`) and
    /// `STUDY_MEM_BUDGET` (a byte count, unset is unlimited). An empty or
    /// blank value counts as unset. Each process edge calls this once and
    /// hands the result to the jobs it runs.
    ///
    /// # Panics
    ///
    /// Panics naming the knob when either is set to something else.
    pub fn from_env() -> Policy {
        Policy {
            kernel: std::env::var("STUDY_KERNEL")
                .ok()
                .and_then(|v| parse_kernel(&v)),
            budget: std::env::var("STUDY_MEM_BUDGET")
                .ok()
                .and_then(|v| parse_budget(&v)),
        }
    }
}

/// A `STUDY_KERNEL` value: blank or `auto` is the cost model.
fn parse_kernel(v: &str) -> Option<KernelChoice> {
    match v.trim() {
        "" | "auto" => None,
        "push" => Some(KernelChoice::PushDense),
        _ => panic!("STUDY_KERNEL must be push or auto; got {v:?}"),
    }
}

/// A `STUDY_MEM_BUDGET` value: blank is no budget.
fn parse_budget(v: &str) -> Option<u64> {
    let t = v.trim();
    (!t.is_empty()).then(|| {
        t.parse()
            .unwrap_or_else(|e| panic!("STUDY_MEM_BUDGET must be a byte count, got {v:?}: {e}"))
    })
}

thread_local! {
    static POLICY: Cell<Policy> = const { Cell::new(Policy { kernel: None, budget: None }) };
}

/// The calling thread's policy (the default outside [`with_policy`]).
pub fn policy() -> Policy {
    POLICY.with(Cell::get)
}

/// Runs `f` with `p` as the calling thread's policy, then restores the
/// previous one — also when `f` panics.
pub fn with_policy<T>(p: Policy, f: impl FnOnce() -> T) -> T {
    struct Restore(Policy);
    impl Drop for Restore {
        fn drop(&mut self) {
            POLICY.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(POLICY.with(|c| c.replace(p)));
    f()
}

/// The outcome of kernel selection for one call: the kernel to run plus
/// the heuristic input, recorded on the op's trace span. Forced choices
/// skip the operand scan and leave the input zero.
pub(crate) struct Selection {
    /// Kernel to execute.
    pub choice: KernelChoice,
    /// Sum of frontier-row degrees (upper bound on scatter work).
    pub frontier_degree: u64,
}

impl Selection {
    pub(crate) fn forced(choice: KernelChoice) -> Self {
        Selection {
            choice,
            frontier_degree: 0,
        }
    }
}

/// The cost model, pure in its inputs so tests can probe the decision
/// boundary directly. The sparse scatter emits at most one `(index,
/// value)` pair per frontier edge; it runs when those `frontier_degree *
/// pair_bytes` undercut the dense accumulator's `out_dim * val_bytes`.
/// Ties go to the paper's dense scatter, so `auto` never materializes
/// more than the paper would.
pub(crate) fn pick_kernel(
    frontier_degree: u64,
    out_dim: u64,
    pair_bytes: u64,
    val_bytes: u64,
) -> KernelChoice {
    if frontier_degree.saturating_mul(pair_bytes) < out_dim.saturating_mul(val_bytes) {
        KernelChoice::PushSparse
    } else {
        KernelChoice::PushDense
    }
}

/// Worst-case accumulator bytes push kernel `choice` would materialize
/// on these `vxm` operands — the quantity [`Policy::budget`] is enforced
/// against.
pub(crate) fn projected_bytes(
    choice: KernelChoice,
    frontier_degree: u64,
    out_dim: u64,
    pair_bytes: u64,
    val_bytes: u64,
) -> u64 {
    match choice {
        KernelChoice::PushSparse => frontier_degree.saturating_mul(pair_bytes),
        _ => out_dim.saturating_mul(val_bytes),
    }
}

/// Applies the byte budget to a preliminary choice. The preferred kernel
/// stands when its projection fits. A `forced` choice that does not fit
/// errors immediately — the policy asked for that kernel specifically.
/// Otherwise the less-materializing push kernel is substituted when it
/// fits; when neither fits the op reports the cheaper one's requirement.
fn fit_to_budget(
    preferred: KernelChoice,
    limit: u64,
    frontier_degree: u64,
    out_dim: u64,
    pair_bytes: u64,
    val_bytes: u64,
    forced: bool,
) -> Result<KernelChoice, GrbError> {
    let proj = |c| projected_bytes(c, frontier_degree, out_dim, pair_bytes, val_bytes);
    if proj(preferred) <= limit {
        return Ok(preferred);
    }
    if forced {
        return Err(GrbError::ResourceExhausted {
            required: proj(preferred),
            budget: limit,
        });
    }
    let cheapest = [KernelChoice::PushSparse, KernelChoice::PushDense]
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

/// Selects the kernel for `w = uᵀA` and reports the heuristic input it
/// used: the frontier degree sum (exact row degrees of `u`'s entries).
///
/// # Errors
///
/// Returns [`GrbError::ResourceExhausted`] when the policy sets a budget
/// and neither push kernel's projected accumulator fits it.
pub(crate) fn select<T: Scalar>(u: &Vector<T>, a: &Matrix<T>) -> Result<Selection, GrbError> {
    let Policy { kernel, budget } = policy();
    let forced = kernel.filter(|k| matches!(k, KernelChoice::PushSparse | KernelChoice::PushDense));
    if budget.is_none() {
        // Zero-overhead path: forced choices skip the operand scan.
        if let Some(choice) = forced {
            return Ok(Selection::forced(choice));
        }
    }
    let out_dim = a.ncols() as u64;
    let frontier_degree: u64 = u.iter().map(|(i, _)| a.row_nvals(i) as u64).sum();
    let pair_bytes = std::mem::size_of::<(u32, T)>() as u64;
    let val_bytes = std::mem::size_of::<T>() as u64;
    let preferred =
        forced.unwrap_or_else(|| pick_kernel(frontier_degree, out_dim, pair_bytes, val_bytes));
    let choice = match budget {
        None => preferred,
        Some(limit) => fit_to_budget(
            preferred,
            limit,
            frontier_degree,
            out_dim,
            pair_bytes,
            val_bytes,
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
    })
}

/// The kernel `vxm` would run on `u` and `a` under the calling thread's
/// [`Policy`]. The mask does not enter the choice. Exposed so tests can
/// assert that `auto` delegates to the kernel the cost model names.
///
/// # Errors
///
/// Returns [`GrbError::ResourceExhausted`] exactly when the
/// corresponding `vxm` call would.
pub fn vxm_kernel_choice<T: Scalar>(
    u: &Vector<T>,
    a: &Matrix<T>,
) -> Result<KernelChoice, GrbError> {
    Ok(select(u, a)?.choice)
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
pub(crate) fn scatter_sparse<T, M, S, R>(
    entries: &[(u32, T)],
    a: &Matrix<T>,
    mask: Option<&Vector<M>>,
    desc: &Descriptor,
    semiring: S,
    rt: R,
    pm: perfmon::Probe,
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
        pm.touch_ref(&entries[p]);
        for (j, av) in a.row_pairs(i) {
            pm.instr(2);
            pm.touch_ref(av);
            let av = *av;
            if let Some(m) = mask {
                let pass = m.mask_at(j, desc.mask_structural, pm) != desc.mask_complement;
                pm.instr(1);
                if !pass {
                    continue;
                }
            }
            lanes.with(|lane| lane.push((j, semiring.mul(x, av))));
        }
    });
    let mut pairs: Vec<(u32, T)> = lanes.into_inner().into_iter().flatten().collect();
    let acc_bytes = (pairs.len() * std::mem::size_of::<(u32, T)>()) as u64;
    pairs.sort_unstable_by_key(|&(j, v)| (j, v.to_bits64()));
    let mut out: Vec<(u32, T)> = Vec::new();
    for (j, v) in pairs {
        pm.instr(1);
        match out.last_mut() {
            Some(last) if last.0 == j => last.1 = semiring.add(last.1, v),
            _ => out.push((j, v)),
        }
    }
    (out, acc_bytes)
}

/// SAXPY scatter of `entries` through the rows of `a` into a fresh dense
/// atomic accumulator over `a`'s columns — the paper's fixed push kernel.
///
/// Returns the accumulator (the caller commits it) and its footprint,
/// always `a.ncols() * size_of::<T>()` bytes.
pub(crate) fn scatter_dense<T, M, S, R>(
    entries: &[(u32, T)],
    a: &Matrix<T>,
    mask: Option<&Vector<M>>,
    desc: &Descriptor,
    semiring: S,
    rt: R,
    pm: perfmon::Probe,
) -> (AtomicAccumulator<T>, u64)
where
    T: Scalar,
    M: Scalar,
    S: SemiringOps<T>,
    R: Runtime,
{
    let out_dim = a.ncols();
    let add = |x, y| semiring.add(x, y);
    let acc: AtomicAccumulator<T> = AtomicAccumulator::new(out_dim);
    let bytes = (out_dim * std::mem::size_of::<T>()) as u64;
    rt.parallel_for(entries.len(), |p| {
        let (i, x) = entries[p];
        pm.touch_ref(&entries[p]);
        for (j, av) in a.row_pairs(i) {
            pm.instr(2);
            pm.touch_ref(av);
            let av = *av;
            if let Some(m) = mask {
                let pass = m.mask_at(j, desc.mask_structural, pm) != desc.mask_complement;
                pm.instr(1);
                if !pass {
                    continue;
                }
            }
            acc.accumulate(j as usize, semiring.mul(x, av), add, pm);
        }
    });
    (acc, bytes)
}

/// How a pull product reads its input vector `u`, resolved once per call
/// from `u`'s store and `nvals`.
#[derive(Clone, Copy)]
pub(crate) enum PullInput<'a, T> {
    /// A dense store holding all `n` entries: `u(k)` is `vals[k]`, read
    /// without its presence flag.
    Full(&'a [T]),
    /// A dense store with holes: each read checks the presence flag first.
    Dense(&'a [T], &'a [bool]),
    /// A sparse store: each read is a binary search.
    Sparse(&'a Vector<T>),
}

impl<'a, T: Scalar> PullInput<'a, T> {
    pub(crate) fn of(u: &'a Vector<T>) -> Self {
        match u.dense_parts() {
            Some((vals, _)) if u.nvals() == u.size() => PullInput::Full(vals),
            Some((vals, present)) => PullInput::Dense(vals, present),
            None => PullInput::Sparse(u),
        }
    }
}

/// One pull row dot product, the fold of `mxv`: output `j` is
/// `⊕_k mul(u(k), at(j,k))` over row `j` of `at` in storage order.
/// `None` when the mask rejects `j` or no entry of `u` meets the row.
///
/// A [`PullInput::Full`] input reads `u(k)` without its presence flag:
/// on a dense pull that flag is a second random read per edge. The
/// counters do not see the flag either way: each visited edge touches
/// the matrix value and `u`'s value slot, and the row charges `instr`
/// once, two per visited edge.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn pull_row<T, M, S>(
    at: &Matrix<T>,
    j: u32,
    mask: Option<&Vector<M>>,
    desc: &Descriptor,
    u: PullInput<'_, T>,
    semiring: S,
    mul: impl Fn(T, T) -> T,
    pm: perfmon::Probe,
) -> Option<T>
where
    T: Scalar,
    M: Scalar,
    S: SemiringOps<T>,
{
    if let Some(m) = mask {
        pm.instr(1);
        if m.mask_at(j, desc.mask_structural, pm) == desc.mask_complement {
            return None;
        }
    }
    let (cols, avals) = at.row(j);
    match u {
        PullInput::Full(uvals) => fold_row(
            cols,
            avals,
            |k| {
                pm.touch_ref(&uvals[k]);
                Some(uvals[k])
            },
            semiring,
            &mul,
            pm,
        ),
        PullInput::Dense(uvals, upresent) => fold_row(
            cols,
            avals,
            |k| {
                pm.touch_ref(&uvals[k]);
                upresent[k].then(|| uvals[k])
            },
            semiring,
            &mul,
            pm,
        ),
        PullInput::Sparse(v) => fold_row(cols, avals, |k| v.get(k as u32), semiring, &mul, pm),
    }
}

/// The fold of [`pull_row`], instantiated once per input kind so the
/// kind is decided outside the edge loop; `read(k)` is `u(k)`.
#[inline(always)]
fn fold_row<T: Scalar, S: SemiringOps<T>>(
    cols: &[u32],
    avals: &[T],
    read: impl Fn(usize) -> Option<T>,
    semiring: S,
    mul: impl Fn(T, T) -> T,
    pm: perfmon::Probe,
) -> Option<T> {
    let mut acc = semiring.add_identity();
    let mut any = false;
    for (&k, av) in cols.iter().zip(avals) {
        pm.touch_ref(av);
        if let Some(x) = read(k as usize) {
            acc = semiring.add(acc, mul(x, *av));
            any = true;
        }
    }
    pm.instr(2 * cols.len() as u64);
    any.then_some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_policy_scopes_and_restores() {
        let push = Policy::forcing(KernelChoice::PushDense);
        with_policy(push, || {
            assert_eq!(policy(), push);
            let elsewhere = std::thread::spawn(policy).join().unwrap();
            assert_eq!(elsewhere, Policy::default(), "another thread keeps its own");
            let auto = Policy::default();
            with_policy(auto, || assert_eq!(policy(), auto));
            assert_eq!(policy(), push, "the inner scope restores the outer policy");
        });
        assert!(std::panic::catch_unwind(|| with_policy(push, || panic!("inside"))).is_err());
        assert_eq!(policy(), Policy::default(), "a panic restores it too");
    }

    #[test]
    fn forcing_no_push_kernel_leaves_the_choice_to_the_cost_model() {
        let tuples = vec![(0, 1, 1u32), (0, 2, 1)];
        let a = Matrix::from_tuples(4, 4, tuples, crate::binops::Plus).unwrap();
        let u = Vector::from_entries(4, vec![(0, 1u32)]).unwrap();
        let choice = || vxm_kernel_choice(&u, &a).unwrap();
        for kernel in [KernelChoice::Unspecified, KernelChoice::Pull] {
            assert_eq!(
                with_policy(Policy::forcing(kernel), choice),
                choice(),
                "{kernel:?}"
            );
        }
    }

    #[test]
    fn blank_knobs_are_unset_and_bad_ones_panic() {
        for blank in ["", "  ", "\t"] {
            assert_eq!(parse_kernel(blank), None);
            assert_eq!(parse_budget(blank), None);
        }
        assert_eq!(parse_kernel("auto"), None);
        assert_eq!(parse_kernel(" push "), Some(KernelChoice::PushDense));
        assert_eq!(parse_budget(" 4096 "), Some(4096));
        for bad in ["pull", "Push", "x"] {
            assert!(
                std::panic::catch_unwind(|| parse_kernel(bad)).is_err(),
                "{bad:?}"
            );
        }
        for bad in ["-1", "4k", "x"] {
            assert!(
                std::panic::catch_unwind(|| parse_budget(bad)).is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn tiny_frontier_scatters_sparse() {
        // 1-entry frontier of degree 8 against a 10_000-wide output:
        // sparse pairs beat a 10_000-slot dense accumulator.
        let c = pick_kernel(8, 10_000, 16, 8);
        assert_eq!(c, KernelChoice::PushSparse);
    }

    #[test]
    fn heavy_frontier_scatters_dense() {
        // Frontier touching most edges: the pair lanes would outweigh
        // the dense accumulator, so the paper's dense scatter runs.
        let c = pick_kernel(40_000, 10_000, 16, 8);
        assert_eq!(c, KernelChoice::PushDense);
    }

    #[test]
    fn tiny_output_keeps_the_paper_dense_scatter() {
        let c = pick_kernel(400, 63, 16, 8);
        assert_eq!(c, KernelChoice::PushDense);
    }

    #[test]
    fn zero_dimensions_do_not_divide() {
        // Empty operands select the paper's dense scatter.
        assert_eq!(pick_kernel(0, 0, 16, 8), KernelChoice::PushDense);
    }

    #[test]
    fn projections_match_the_kernel_footprints() {
        use KernelChoice::*;
        // dense = out_dim * val, sparse = degree * pair.
        assert_eq!(projected_bytes(PushDense, 8, 100, 16, 8), 800);
        assert_eq!(projected_bytes(PushSparse, 8, 100, 16, 8), 128);
    }

    #[test]
    fn budget_degrades_auto_to_the_cheapest_fit() {
        // Path-graph shape: degree-1 frontier. Dense (800 B) is the
        // preferred kernel here, but a 256 B budget admits only the
        // sparse scatter (16 B).
        let c = fit_to_budget(KernelChoice::PushDense, 256, 1, 100, 16, 8, false).unwrap();
        assert_eq!(c, KernelChoice::PushSparse);
    }

    #[test]
    fn budget_errors_when_nothing_fits() {
        let e = fit_to_budget(KernelChoice::PushDense, 4, 10, 100, 16, 8, false).unwrap_err();
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
        let e = fit_to_budget(KernelChoice::PushDense, 256, 1, 100, 16, 8, true).unwrap_err();
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
        let c = fit_to_budget(KernelChoice::PushDense, 800, 1, 100, 16, 8, false).unwrap();
        assert_eq!(c, KernelChoice::PushDense);
    }
}
