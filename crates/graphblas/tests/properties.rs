//! Property-based tests of the GraphBLAS kernels: method equivalences,
//! algebraic identities and representation invariance on arbitrary sparse
//! operands.
//!
//! Runs on the in-tree harness (`substrate::prop`); set `STUDY_PROP_SEED`
//! to replay a reported failure.

use graphblas::binops::{LorLand, Min, MinPlus, MinSecond, Plus, PlusTimes, SemiringOps, Times};
use graphblas::{
    ops, Descriptor, GaloisRuntime, KernelHint, Matrix, MethodHint, StaticRuntime, Vector,
};
use perfmon::trace::KernelChoice;
use substrate::prop::{self, Gen};
use substrate::prop_assert_eq;

const N: usize = 24;
const CASES: u32 = 32;

fn arb_matrix(g: &mut Gen) -> Matrix<u64> {
    let t = g.vec(0..80, |g| {
        (
            g.gen_range(0u32..N as u32),
            g.gen_range(0u32..N as u32),
            g.gen_range(1u64..50),
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
fn mxm_methods_agree_with_dense_reference() {
    prop::check(
        "mxm_methods_agree_with_dense_reference",
        prop::cases(CASES),
        |g| (arb_matrix(g), arb_matrix(g)),
        |(a, b)| {
            let expected = dense_mxm(a, b);
            for method in [MethodHint::Gustavson, MethodHint::Hash] {
                let c = ops::mxm(
                    None::<&Matrix<bool>>,
                    PlusTimes,
                    a,
                    b,
                    &Descriptor::new().with_method(method),
                    GaloisRuntime,
                )
                .unwrap();
                prop_assert_eq!(c.to_tuples(), expected.clone(), "method {:?}", method);
            }
            Ok(())
        },
    );
}

#[test]
fn masked_dot_agrees_with_masked_gustavson() {
    prop::check(
        "masked_dot_agrees_with_masked_gustavson",
        prop::cases(CASES),
        |g| (arb_matrix(g), arb_matrix(g), arb_matrix(g)),
        |(a, b, m)| {
            let desc_dot = Descriptor::new()
                .with_method(MethodHint::Dot)
                .with_mask_structural(true);
            let desc_sax = Descriptor::new()
                .with_method(MethodHint::Gustavson)
                .with_mask_structural(true);
            let dot = ops::mxm(Some(m), PlusTimes, a, b, &desc_dot, GaloisRuntime).unwrap();
            let sax = ops::mxm(Some(m), PlusTimes, a, b, &desc_sax, GaloisRuntime).unwrap();
            prop_assert_eq!(dot.to_tuples(), sax.to_tuples());
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
                at,
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
                            ops::mxv(&mut pull, m, PlusTimes, at, u, &desc, StaticRuntime)
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

fn hint_of(choice: KernelChoice) -> KernelHint {
    match choice {
        KernelChoice::PushSparse => KernelHint::PushSparse,
        KernelChoice::PushDense => KernelHint::PushDense,
        KernelChoice::Pull => KernelHint::Pull,
        KernelChoice::Unspecified => panic!("selection must name a concrete kernel"),
    }
}

/// All three forced kernels, `auto`, and the kernel the cost model says
/// `auto` delegates to must produce identical entries for one
/// (semiring, mask, descriptor) combination — on both `vxm` and `mxv`.
fn assert_spmv_kernels_agree<S: SemiringOps<u64>>(
    name: &str,
    semiring: S,
    a: &Matrix<u64>,
    u: &Vector<u64>,
    m: Option<&Vector<u64>>,
    desc: Descriptor,
) -> Result<(), String> {
    let run_vxm = |hint| {
        let mut w: Vector<u64> = Vector::new(N);
        ops::vxm(&mut w, m, semiring, u, a, &desc.with_kernel(hint), GaloisRuntime).unwrap();
        w.entries()
    };
    let base = run_vxm(KernelHint::PushDense);
    for hint in [KernelHint::PushSparse, KernelHint::Pull] {
        prop_assert_eq!(run_vxm(hint), base.clone(), "{} vxm {:?}", name, hint);
    }
    prop_assert_eq!(run_vxm(KernelHint::Auto), base.clone(), "{} vxm auto", name);
    let delegate = hint_of(ops::vxm_kernel_choice(u, a, m, &desc).unwrap());
    prop_assert_eq!(
        run_vxm(delegate),
        base.clone(),
        "{} vxm delegate {:?}",
        name,
        delegate
    );

    let run_mxv = |hint| {
        let mut w: Vector<u64> = Vector::new(N);
        ops::mxv(&mut w, m, semiring, a, u, &desc.with_kernel(hint), StaticRuntime).unwrap();
        w.entries()
    };
    let base = run_mxv(KernelHint::Pull);
    for hint in [KernelHint::PushSparse, KernelHint::PushDense] {
        prop_assert_eq!(run_mxv(hint), base.clone(), "{} mxv {:?}", name, hint);
    }
    prop_assert_eq!(run_mxv(KernelHint::Auto), base.clone(), "{} mxv auto", name);
    let delegate = hint_of(ops::mxv_kernel_choice(u, a, m, &desc).unwrap());
    prop_assert_eq!(
        run_mxv(delegate),
        base.clone(),
        "{} mxv delegate {:?}",
        name,
        delegate
    );
    Ok(())
}

#[test]
fn kernels_agree_under_every_semiring_and_descriptor() {
    // The tentpole invariant of the kernel-selection layer: push-sparse,
    // push-dense and pull are three implementations of the same
    // operation, so on every semiring the study uses x mask presence x
    // complement x replace x structural combination they must be
    // indistinguishable — and `auto` must match whichever kernel the
    // cost model delegates to.
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
/// kernel hints.
type OpExpectations = (Vec<(u32, u64)>, Vec<(u32, u64)>);

/// Runs one (semiring, mask, descriptor) combination under every forced
/// kernel hint plus `auto`, on both ops, and asserts the entries are
/// bit-identical to `expect` — one expectation per op, since `vxm` and
/// `mxv` are different products under a non-commutative ⊗ — building
/// the expectations on the first call.
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
    const HINTS: [KernelHint; 4] = [
        KernelHint::PushDense,
        KernelHint::PushSparse,
        KernelHint::Pull,
        KernelHint::Auto,
    ];
    let mut seed: Option<OpExpectations> = None;
    for hint in HINTS {
        let mut w: Vector<u64> = Vector::new(N);
        ops::vxm(&mut w, m, semiring, u, a, &desc.with_kernel(hint), GaloisRuntime).unwrap();
        let vxm_got = w.entries();
        let mut w: Vector<u64> = Vector::new(N);
        ops::mxv(&mut w, m, semiring, a, u, &desc.with_kernel(hint), StaticRuntime).unwrap();
        let mxv_got = w.entries();
        match expect.as_ref().or(seed.as_ref()) {
            None => seed = Some((vxm_got, mxv_got)),
            Some((ev, em)) => {
                prop_assert_eq!(
                    vxm_got,
                    ev.clone(),
                    "{} vxm {:?} at {} threads",
                    name,
                    hint,
                    threads
                );
                prop_assert_eq!(
                    mxv_got,
                    em.clone(),
                    "{} mxv {:?} at {} threads",
                    name,
                    hint,
                    threads
                );
            }
        }
    }
    if expect.is_none() {
        *expect = seed;
    }
    Ok(())
}

#[test]
fn kernels_agree_across_thread_counts() {
    // The kernel-equivalence invariant must also be insensitive to the
    // worker count: push-forced, pull-forced and auto
    // runs produce bit-identical entries at 1, 2 and 8 threads, on every
    // study semiring x descriptor combination — compared against one
    // expectation shared across the whole sweep, so the check is
    // cross-thread, not merely intra-thread.
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

/// Collects the mxm outputs for one semiring across the three methods
/// (the dot kernel needs a mask, exercised both structurally and valued).
fn collect_mxm<S: SemiringOps<u64>>(
    semiring: S,
    a: &Matrix<u64>,
    b: &Matrix<u64>,
    m: &Matrix<u64>,
    out: &mut Vec<Vec<(u32, u32, u64)>>,
) {
    for method in [MethodHint::Gustavson, MethodHint::Hash] {
        let c = ops::mxm(
            None::<&Matrix<u64>>,
            semiring,
            a,
            b,
            &Descriptor::new().with_method(method),
            GaloisRuntime,
        )
        .unwrap();
        out.push(c.to_tuples());
    }
    for structural in [false, true] {
        let desc = Descriptor::new()
            .with_method(MethodHint::Dot)
            .with_mask_structural(structural);
        let c = ops::mxm(Some(m), semiring, a, b, &desc, GaloisRuntime).unwrap();
        out.push(c.to_tuples());
    }
}

#[test]
fn flop_balanced_scheduling_matches_row_partitioning_bit_for_bit() {
    // The flop-balanced partitioner and the recycled workspaces must be
    // invisible in results: on every semiring the study uses x every
    // mask/complement/replace/structural descriptor combination, vxm, mxv
    // and all three mxm methods at 2 and 8 threads on a warm pool produce
    // outputs bit-for-bit identical to one thread on an emptied pool.
    prop::check(
        "flop_balanced_scheduling_matches_row_partitioning_bit_for_bit",
        prop::cases(8),
        |g| (arb_matrix(g), arb_matrix(g), arb_matrix(g), arb_vector(g), arb_mask(g)),
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
                graphblas::workspace::global().clear();
                let one_thread_cold = collect_all();
                for threads in [2usize, 8] {
                    galois_rt::set_threads(threads);
                    let warm = collect_all();
                    prop_assert_eq!(warm, one_thread_cold, "threads={}", threads);
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
