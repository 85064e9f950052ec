//! Property-based tests of the GraphBLAS kernels: method equivalences,
//! algebraic identities and representation invariance on arbitrary sparse
//! operands.
//!
//! Runs on the in-tree harness (`substrate::prop`); set `STUDY_PROP_SEED`
//! to replay a reported failure.

use graphblas::binops::{LorLand, Min, MinPlus, MinSecond, Plus, PlusTimes, SemiringOps, Times};
use graphblas::ops::{with_policy, Policy};
use graphblas::{ops, Descriptor, GaloisRuntime, Matrix, StaticRuntime, Vector};
use perfmon::trace::KernelChoice;
use std::ops::Range;
use substrate::prop::{self, Gen};
use substrate::prop_assert_eq;

const N: usize = 24;
const CASES: u32 = 32;

/// Guards the pool's thread count: tests that change it take this lock,
/// so one test's one-thread baseline never runs at another's width.
static POOL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn arb_matrix(g: &mut Gen) -> Matrix<u64> {
    arb_matrix_of(g, 80, 1..50)
}

/// A mask matrix that includes explicit zeros, so valued and structural
/// masking genuinely differ.
fn arb_matrix_mask(g: &mut Gen) -> Matrix<u64> {
    arb_matrix_of(g, 160, 0..3)
}

/// Up to `max_entries` tuples with values drawn from `values`.
fn arb_matrix_of(g: &mut Gen, max_entries: usize, values: Range<u64>) -> Matrix<u64> {
    let t = g.vec(0..max_entries, |g| {
        (
            g.gen_range(0u32..N as u32),
            g.gen_range(0u32..N as u32),
            g.gen_range(values.clone()),
        )
    });
    Matrix::from_tuples(N, N, t, Plus).expect("in-range tuples")
}

fn arb_vector(g: &mut Gen) -> Vector<u64> {
    let entries = g.gen_range(0..N);
    let mut m = std::collections::BTreeMap::new();
    for _ in 0..entries {
        m.insert(g.gen_range(0u32..N as u32), g.gen_range(1u64..50));
    }
    let dense = g.gen_bool(0.5);
    let mut v = Vector::from_entries(N, m.into_iter().collect()).expect("unique, in-range");
    if dense {
        v.to_dense();
    }
    v
}

/// A mask vector that includes explicit zeros, so valued and structural
/// masking genuinely differ.
fn arb_mask(g: &mut Gen) -> Vector<u64> {
    let entries = g.gen_range(0..N);
    let mut m = std::collections::BTreeMap::new();
    for _ in 0..entries {
        m.insert(g.gen_range(0u32..N as u32), g.gen_range(0u64..3));
    }
    Vector::from_entries(N, m.into_iter().collect()).expect("unique, in-range")
}

/// Dense reference product under plus_times.
fn dense_mxm(a: &Matrix<u64>, b: &Matrix<u64>) -> Vec<(u32, u32, u64)> {
    let mut out = Vec::new();
    for i in 0..N as u32 {
        for j in 0..N as u32 {
            let mut acc = 0u64;
            let mut any = false;
            for k in 0..N as u32 {
                if let (Some(x), Some(y)) = (a.get(i, k), b.get(k, j)) {
                    acc = acc.saturating_add(x.saturating_mul(y));
                    any = true;
                }
            }
            if any {
                out.push((i, j, acc));
            }
        }
    }
    out
}

#[test]
fn masked_mxm_agrees_with_masked_dense_reference() {
    prop::check(
        "masked_mxm_agrees_with_masked_dense_reference",
        prop::cases(CASES),
        |g| (arb_matrix(g), arb_matrix(g), arb_matrix_mask(g)),
        |(a, b, m)| {
            for transpose_b in [false, true] {
                let product = if transpose_b {
                    dense_mxm(a, &b.transpose())
                } else {
                    dense_mxm(a, b)
                };
                for structural in [false, true] {
                    let expected: Vec<_> = product
                        .iter()
                        .copied()
                        .filter(|&(i, j, _)| {
                            m.get(i, j).is_some_and(|mv| structural || mv != 0)
                        })
                        .collect();
                    let desc = Descriptor::new()
                        .with_mask_structural(structural)
                        .with_transpose_b(transpose_b);
                    let c = ops::mxm(Some(m), PlusTimes, a, b, &desc, GaloisRuntime).unwrap();
                    prop_assert_eq!(
                        c.to_tuples(),
                        expected,
                        "structural={} transpose_b={}",
                        structural,
                        transpose_b
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn vxm_equals_mxv_on_transpose() {
    prop::check(
        "vxm_equals_mxv_on_transpose",
        prop::cases(CASES),
        |g| (arb_matrix(g), arb_vector(g)),
        |(a, u)| {
            let mut push: Vector<u64> = Vector::new(N);
            ops::vxm(
                &mut push,
                None::<&Vector<u64>>,
                PlusTimes,
                u,
                a,
                &Descriptor::new().with_replace(true),
                GaloisRuntime,
            )
            .unwrap();
            let at = a.transpose();
            let mut pull: Vector<u64> = Vector::new(N);
            ops::mxv(
                &mut pull,
                None::<&Vector<u64>>,
                PlusTimes,
                &at,
                u,
                &Descriptor::new(),
                StaticRuntime,
            )
            .unwrap();
            prop_assert_eq!(push.entries(), pull.entries());
            Ok(())
        },
    );
}

#[test]
fn vxm_equals_mxv_under_every_descriptor() {
    // The push (vxm) and pull (mxv on the transpose) kernels must agree
    // under every mask/descriptor mode: mask presence x complement x
    // replace x structural — the 8 masked descriptor combinations plus
    // the two unmasked ones. Fresh empty outputs on both sides, because
    // merge semantics into a non-empty output are exercised separately.
    prop::check(
        "vxm_equals_mxv_under_every_descriptor",
        prop::cases(CASES),
        |g| (arb_matrix(g), arb_vector(g), arb_mask(g)),
        |(a, u, mask)| {
            let at = a.transpose();
            for masked in [false, true] {
                for complement in [false, true] {
                    for replace in [false, true] {
                        for structural in [false, true] {
                            if !masked && (complement || structural) {
                                // Mask modifiers are no-ops without a mask.
                                continue;
                            }
                            let desc = Descriptor::new()
                                .with_mask_complement(complement)
                                .with_replace(replace)
                                .with_mask_structural(structural);
                            let m: Option<&Vector<u64>> = masked.then_some(mask);
                            let mut push: Vector<u64> = Vector::new(N);
                            ops::vxm(&mut push, m, PlusTimes, u, a, &desc, GaloisRuntime)
                                .unwrap();
                            let mut pull: Vector<u64> = Vector::new(N);
                            ops::mxv(&mut pull, m, PlusTimes, &at, u, &desc, StaticRuntime)
                                .unwrap();
                            prop_assert_eq!(
                                push.entries(),
                                pull.entries(),
                                "mask={} comp={} replace={} structural={}",
                                masked,
                                complement,
                                replace,
                                structural
                            );
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

/// `vxm` with `kernel` forced (`None`: the cost model picks), on the
/// GB runtime, returning the entries.
fn vxm_under<S: SemiringOps<u64>>(
    kernel: Option<KernelChoice>,
    semiring: S,
    a: &Matrix<u64>,
    u: &Vector<u64>,
    m: Option<&Vector<u64>>,
    desc: Descriptor,
) -> Vec<(u32, u64)> {
    let policy = Policy {
        kernel,
        budget: None,
    };
    let mut w: Vector<u64> = Vector::new(N);
    with_policy(policy, || {
        ops::vxm(&mut w, m, semiring, u, a, &desc, GaloisRuntime)
    })
    .unwrap();
    w.entries()
}

/// `mxv`'s reference: row `i` folds `⊕_k A(i,k) ⊗ u(k)` over every
/// column, kept when the mask admits `i` and some `k` meets the row.
/// Every study semiring's ⊕ on `u64` is associative and commutative, so
/// the column order of the fold does not matter.
fn dense_mxv<S: SemiringOps<u64>>(
    semiring: S,
    a: &Matrix<u64>,
    u: &Vector<u64>,
    m: Option<&Vector<u64>>,
    desc: Descriptor,
) -> Vec<(u32, u64)> {
    let admits = |i: u32| match m {
        None => true,
        Some(m) => {
            let hit = m.get(i).is_some_and(|x| desc.mask_structural || x != 0);
            hit != desc.mask_complement
        }
    };
    let mut out = Vec::new();
    for i in (0..N as u32).filter(|&i| admits(i)) {
        let mut acc = semiring.add_identity();
        let mut any = false;
        for k in 0..N as u32 {
            if let (Some(av), Some(x)) = (a.get(i, k), u.get(k)) {
                acc = semiring.add(acc, semiring.mul(av, x));
                any = true;
            }
        }
        if any {
            out.push((i, acc));
        }
    }
    out
}

/// Both forced `vxm` kernels, `auto`, and the kernel the cost model
/// says `auto` delegates to must produce identical entries for one
/// (semiring, mask, descriptor) combination; `mxv`, which has one
/// kernel, must match [`dense_mxv`].
fn assert_spmv_kernels_agree<S: SemiringOps<u64>>(
    name: &str,
    semiring: S,
    a: &Matrix<u64>,
    u: &Vector<u64>,
    m: Option<&Vector<u64>>,
    desc: Descriptor,
) -> Result<(), String> {
    let run_vxm = |kernel| vxm_under(kernel, semiring, a, u, m, desc);
    let base = run_vxm(Some(KernelChoice::PushDense));
    prop_assert_eq!(
        run_vxm(Some(KernelChoice::PushSparse)),
        base.clone(),
        "{} vxm push-sparse",
        name
    );
    prop_assert_eq!(run_vxm(None), base.clone(), "{} vxm auto", name);
    let delegate = ops::vxm_kernel_choice(u, a).unwrap();
    assert!(
        matches!(delegate, KernelChoice::PushSparse | KernelChoice::PushDense),
        "selection must name a push kernel, got {delegate:?}"
    );
    prop_assert_eq!(
        run_vxm(Some(delegate)),
        base.clone(),
        "{} vxm delegate {:?}",
        name,
        delegate
    );

    let mut w: Vector<u64> = Vector::new(N);
    ops::mxv(&mut w, m, semiring, a, u, &desc, StaticRuntime).unwrap();
    prop_assert_eq!(w.entries(), dense_mxv(semiring, a, u, m, desc), "{} mxv", name);
    Ok(())
}

#[test]
fn kernels_agree_under_every_semiring_and_descriptor() {
    // The invariant of the kernel-selection layer: `vxm`'s push-sparse
    // and push-dense are two implementations of the same operation, so
    // on every semiring the study uses x mask presence x complement x
    // replace x structural combination they must be indistinguishable —
    // and `auto` must match whichever kernel the cost model delegates
    // to. `mxv` must match a dense fold.
    prop::check(
        "kernels_agree_under_every_semiring_and_descriptor",
        prop::cases(CASES),
        |g| (arb_matrix(g), arb_vector(g), arb_mask(g)),
        |(a, u, mask)| {
            for masked in [false, true] {
                for complement in [false, true] {
                    for replace in [false, true] {
                        for structural in [false, true] {
                            if !masked && (complement || structural) {
                                continue;
                            }
                            let desc = Descriptor::new()
                                .with_mask_complement(complement)
                                .with_replace(replace)
                                .with_mask_structural(structural);
                            let m: Option<&Vector<u64>> = masked.then_some(mask);
                            assert_spmv_kernels_agree("plus_times", PlusTimes, a, u, m, desc)?;
                            assert_spmv_kernels_agree("min_plus", MinPlus, a, u, m, desc)?;
                            assert_spmv_kernels_agree("lor_land", LorLand, a, u, m, desc)?;
                            assert_spmv_kernels_agree("min_second", MinSecond, a, u, m, desc)?;
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

/// The `(vxm entries, mxv entries)` expectation pair shared across
/// `vxm` kernels.
type OpExpectations = (Vec<(u32, u64)>, Vec<(u32, u64)>);

/// Runs one (semiring, mask, descriptor) combination through `vxm` under
/// every forced kernel plus the cost model, and through `mxv` once, and
/// asserts the entries are bit-identical to `expect` — one expectation
/// per op, since `vxm` and `mxv` are different products under a
/// non-commutative ⊗ — building the expectations on the first call.
#[allow(clippy::too_many_arguments)]
fn assert_spmv_kernels_agree_with<S: SemiringOps<u64>>(
    name: &str,
    threads: usize,
    semiring: S,
    a: &Matrix<u64>,
    u: &Vector<u64>,
    m: Option<&Vector<u64>>,
    desc: Descriptor,
    expect: &mut Option<OpExpectations>,
) -> Result<(), String> {
    const KERNELS: [Option<KernelChoice>; 3] = [
        Some(KernelChoice::PushDense),
        Some(KernelChoice::PushSparse),
        None,
    ];
    let run_vxm = |kernel| vxm_under(kernel, semiring, a, u, m, desc);
    let mut w: Vector<u64> = Vector::new(N);
    ops::mxv(&mut w, m, semiring, a, u, &desc, StaticRuntime).unwrap();
    let mxv_got = w.entries();
    let (ev, em) = expect.get_or_insert_with(|| (run_vxm(KERNELS[0]), mxv_got.clone()));
    prop_assert_eq!(mxv_got, *em, "{} mxv at {} threads", name, threads);
    for kernel in KERNELS {
        prop_assert_eq!(
            run_vxm(kernel),
            *ev,
            "{} vxm {:?} at {} threads",
            name,
            kernel,
            threads
        );
    }
    Ok(())
}

#[test]
fn kernels_agree_across_thread_counts() {
    // The kernel-equivalence invariant must also be insensitive to the
    // worker count: every forced `vxm` kernel, `auto`, and `mxv`'s one
    // kernel produce bit-identical entries at 1, 2 and 8 threads, on every
    // study semiring x descriptor combination — compared against one
    // expectation shared across the whole sweep, so the check is
    // cross-thread, not merely intra-thread.
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let saved_threads = galois_rt::threads();
    prop::check(
        "kernels_agree_across_thread_counts",
        prop::cases(8),
        |g| (arb_matrix(g), arb_vector(g), arb_mask(g)),
        |(a, u, mask)| {
            for masked in [false, true] {
                for complement in [false, true] {
                    for replace in [false, true] {
                        for structural in [false, true] {
                            if !masked && (complement || structural) {
                                continue;
                            }
                            let desc = Descriptor::new()
                                .with_mask_complement(complement)
                                .with_replace(replace)
                                .with_mask_structural(structural);
                            let m: Option<&Vector<u64>> = masked.then_some(mask);
                            let mut e_pt = None;
                            let mut e_mp = None;
                            let mut e_ll = None;
                            let mut e_ms = None;
                            for threads in [1usize, 2, 8] {
                                galois_rt::set_threads(threads);
                                assert_spmv_kernels_agree_with(
                                    "plus_times", threads, PlusTimes, a, u, m, desc, &mut e_pt,
                                )?;
                                assert_spmv_kernels_agree_with(
                                    "min_plus", threads, MinPlus, a, u, m, desc, &mut e_mp,
                                )?;
                                assert_spmv_kernels_agree_with(
                                    "lor_land", threads, LorLand, a, u, m, desc, &mut e_ll,
                                )?;
                                assert_spmv_kernels_agree_with(
                                    "min_second", threads, MinSecond, a, u, m, desc, &mut e_ms,
                                )?;
                            }
                        }
                    }
                }
            }
            Ok(())
        },
    );
    galois_rt::set_threads(saved_threads);
}

/// Collects the vxm/mxv outputs for one semiring across every
/// mask/complement/replace/structural descriptor combination.
fn collect_spmv<S: SemiringOps<u64>>(
    semiring: S,
    a: &Matrix<u64>,
    u: &Vector<u64>,
    mask: &Vector<u64>,
    out: &mut Vec<Vec<(u32, u64)>>,
) {
    for masked in [false, true] {
        for complement in [false, true] {
            for replace in [false, true] {
                for structural in [false, true] {
                    if !masked && (complement || structural) {
                        continue;
                    }
                    let desc = Descriptor::new()
                        .with_mask_complement(complement)
                        .with_replace(replace)
                        .with_mask_structural(structural);
                    let m: Option<&Vector<u64>> = masked.then_some(mask);
                    let mut push: Vector<u64> = Vector::new(N);
                    ops::vxm(&mut push, m, semiring, u, a, &desc, GaloisRuntime).unwrap();
                    out.push(push.entries());
                    let mut pull: Vector<u64> = Vector::new(N);
                    ops::mxv(&mut pull, m, semiring, a, u, &desc, GaloisRuntime).unwrap();
                    out.push(pull.entries());
                }
            }
        }
    }
}

/// Collects the mxm outputs for one semiring under a structural and a
/// valued mask, each with `transpose_b` off and on.
fn collect_mxm<S: SemiringOps<u64>>(
    semiring: S,
    a: &Matrix<u64>,
    b: &Matrix<u64>,
    m: &Matrix<u64>,
    out: &mut Vec<Vec<(u32, u32, u64)>>,
) {
    for structural in [false, true] {
        for transpose_b in [false, true] {
            let desc = Descriptor::new()
                .with_mask_structural(structural)
                .with_transpose_b(transpose_b);
            let c = ops::mxm(Some(m), semiring, a, b, &desc, GaloisRuntime).unwrap();
            out.push(c.to_tuples());
        }
    }
}

#[test]
fn flop_balanced_scheduling_matches_row_partitioning_bit_for_bit() {
    // The flop-balanced partitioner must be invisible in results: on
    // every semiring the study uses x every mask/complement/replace/
    // structural descriptor combination, vxm, mxv and the masked mxm at
    // 2 and 8 threads produce outputs bit-for-bit identical to one
    // thread.
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    prop::check(
        "flop_balanced_scheduling_matches_row_partitioning_bit_for_bit",
        prop::cases(8),
        |g| (arb_matrix(g), arb_matrix(g), arb_matrix_mask(g), arb_vector(g), arb_mask(g)),
        |(a, b, mm, u, mask)| {
            let saved_threads = galois_rt::threads();
            let collect_all = || {
                let mut vecs = Vec::new();
                let mut mats = Vec::new();
                collect_spmv(PlusTimes, a, u, mask, &mut vecs);
                collect_spmv(MinPlus, a, u, mask, &mut vecs);
                collect_spmv(LorLand, a, u, mask, &mut vecs);
                collect_spmv(MinSecond, a, u, mask, &mut vecs);
                collect_mxm(PlusTimes, a, b, mm, &mut mats);
                collect_mxm(MinPlus, a, b, mm, &mut mats);
                collect_mxm(LorLand, a, b, mm, &mut mats);
                collect_mxm(MinSecond, a, b, mm, &mut mats);
                (vecs, mats)
            };
            let result = (|| {
                galois_rt::set_threads(1);
                let one_thread = collect_all();
                for threads in [2usize, 8] {
                    galois_rt::set_threads(threads);
                    prop_assert_eq!(collect_all(), one_thread, "threads={}", threads);
                }
                Ok(())
            })();
            galois_rt::set_threads(saved_threads);
            result
        },
    );
}

#[test]
fn transpose_is_involutive() {
    prop::check("transpose_is_involutive", prop::cases(CASES), arb_matrix, |a| {
        prop_assert_eq!(a.transpose().transpose().to_tuples(), a.to_tuples());
        Ok(())
    });
}

#[test]
fn ewise_ops_are_commutative() {
    prop::check(
        "ewise_ops_are_commutative",
        prop::cases(CASES),
        |g| (arb_vector(g), arb_vector(g)),
        |(u, v)| for_commutative(u, v),
    );
}

#[test]
fn select_partitions_entries() {
    prop::check(
        "select_partitions_entries",
        prop::cases(CASES),
        |g| (arb_vector(g), g.gen_range(1u64..50)),
        |(u, threshold)| {
            let threshold = *threshold;
            let mut lo: Vector<u64> = Vector::new(N);
            let mut hi: Vector<u64> = Vector::new(N);
            ops::select_vector(&mut lo, u, |_, x| x < threshold, GaloisRuntime);
            ops::select_vector(&mut hi, u, |_, x| x >= threshold, GaloisRuntime);
            prop_assert_eq!(lo.nvals() + hi.nvals(), u.nvals());
            let mut merged: Vector<u64> = Vector::new(N);
            ops::ewise_add(&mut merged, Plus, &lo, &hi, GaloisRuntime).unwrap();
            prop_assert_eq!(merged.entries(), u.entries());
            Ok(())
        },
    );
}

#[test]
fn reduce_matches_entry_sum() {
    prop::check("reduce_matches_entry_sum", prop::cases(CASES), arb_vector, |u| {
        let total = ops::reduce_vector(u, Plus, GaloisRuntime);
        let expected: u64 = u.entries().into_iter().map(|(_, x)| x).sum();
        prop_assert_eq!(total, expected);
        Ok(())
    });
}

#[test]
fn store_representation_does_not_change_semantics() {
    prop::check(
        "store_representation_does_not_change_semantics",
        prop::cases(CASES),
        |g| (arb_vector(g), arb_vector(g)),
        |(u, v)| {
            let (mut ud, mut vd) = (u.clone(), v.clone());
            ud.to_dense();
            vd.to_dense();
            let (mut us, mut vs) = (u.clone(), v.clone());
            us.to_sparse();
            vs.to_sparse();
            let mut a: Vector<u64> = Vector::new(N);
            let mut b: Vector<u64> = Vector::new(N);
            ops::ewise_mult(&mut a, Times, &ud, &vd, GaloisRuntime).unwrap();
            ops::ewise_mult(&mut b, Times, &us, &vs, GaloisRuntime).unwrap();
            prop_assert_eq!(a.entries(), b.entries());
            Ok(())
        },
    );
}

#[test]
fn assign_then_extract_roundtrip() {
    prop::check(
        "assign_then_extract_roundtrip",
        prop::cases(CASES),
        |g| (g.gen_range(1u64..100), arb_vector(g)),
        |(value, mask)| {
            let value = *value;
            let mut w: Vector<u64> = Vector::new(N);
            ops::assign_scalar(&mut w, Some(mask), value, &Descriptor::new(), GaloisRuntime)
                .unwrap();
            // Every mask entry (all values are non-zero) must now read back.
            for (i, _) in mask.entries() {
                prop_assert_eq!(w.get(i), Some(value));
            }
            prop_assert_eq!(w.nvals(), mask.nvals());
            Ok(())
        },
    );
}

#[test]
fn backends_produce_identical_results() {
    prop::check(
        "backends_produce_identical_results",
        prop::cases(CASES),
        |g| (arb_matrix(g), arb_vector(g)),
        |(a, u)| {
            let mut gb: Vector<u64> = Vector::new(N);
            let mut ss: Vector<u64> = Vector::new(N);
            let desc = Descriptor::new().with_replace(true);
            ops::vxm(&mut gb, None::<&Vector<u64>>, PlusTimes, u, a, &desc, GaloisRuntime)
                .unwrap();
            ops::vxm(&mut ss, None::<&Vector<u64>>, PlusTimes, u, a, &desc, StaticRuntime)
                .unwrap();
            prop_assert_eq!(gb.entries(), ss.entries());
            Ok(())
        },
    );
}

fn for_commutative(u: &Vector<u64>, v: &Vector<u64>) -> Result<(), String> {
    let mut ab: Vector<u64> = Vector::new(N);
    let mut ba: Vector<u64> = Vector::new(N);
    ops::ewise_add(&mut ab, Min, u, v, GaloisRuntime).unwrap();
    ops::ewise_add(&mut ba, Min, v, u, GaloisRuntime).unwrap();
    prop_assert_eq!(ab.entries(), ba.entries());
    let mut m_ab: Vector<u64> = Vector::new(N);
    let mut m_ba: Vector<u64> = Vector::new(N);
    ops::ewise_mult(&mut m_ab, Plus, u, v, GaloisRuntime).unwrap();
    ops::ewise_mult(&mut m_ba, Plus, v, u, GaloisRuntime).unwrap();
    prop_assert_eq!(m_ab.entries(), m_ba.entries());
    Ok(())
}
