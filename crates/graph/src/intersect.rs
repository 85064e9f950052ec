//! Sorted-list intersection, shared by both APIs.
//!
//! The masked dot SpGEMM (`graphblas::ops::mxm`, SandiaDot tc and
//! LAGraph's ktruss support product) and the Lonestar tc and ktruss
//! programs all intersect two strictly ascending neighbour lists. They
//! call [`for_each_common`], so no side of the study carries a better
//! merge loop than the other.
//!
//! Each pair takes one of three routes, fixed by the two lists alone:
//!
//! * **Disjoint:** an empty list, or ranges that do not overlap, return
//!   at once.
//! * **Trim:** when one list is more than eight times longer,
//!   the short list is walked and each of its elements is found in the
//!   long one by an exponential search from the current position,
//!   finished by a binary search in the last window (SuiteSparse's
//!   `GB_AxB_dot_cij` trims the denser list the same way).
//! * **Merge:** otherwise a merge whose cursors advance by comparison
//!   results, `p += (x <= y)`, `q += (y <= x)`; the only branch in a step
//!   is the rarely taken match. A run of more than eight elements of one
//!   list below the other's first element is skipped first, by the same
//!   search the trim route uses. SandiaDot's pairs `L(i,:)`, `U(j,:)`
//!   open with such runs: `L(i,:)` holds every neighbour of `i` up to
//!   `j`, and `U(j,:)` starts above `j`.
//!
//! Every route reports the matches in ascending order, so a caller that
//! folds them folds in the same order whatever the route.
//!
//! ## Perfmon charges
//!
//! A walk step (a merge step, or one element of the short list on the
//! trim route) records `step_instr` instructions and a touch of each
//! element it reads; the caller keeps its own per-step weight. Each
//! search probe records one instruction and a touch of the probed
//! element, so a count falls only by work that is really skipped. The
//! O(1) test of the two lists' ends that picks the route is not charged.

use perfmon::Probe;
use std::ops::ControlFlow;

/// A list more than this many times longer than the other is searched,
/// not walked.
const TRIM_RATIO: usize = 8;

/// A run of one list below the other's first element that is longer
/// than this is skipped by search before a merge.
const LONG_RUN: usize = 8;

/// The route a list pair takes (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Disjoint,
    /// `a` is the long list: walk `b`, search `a`.
    TrimA,
    /// `b` is the long list: walk `a`, search `b`.
    TrimB,
    Merge,
}

fn route(a: &[u32], b: &[u32]) -> Route {
    match (a.first(), a.last(), b.first(), b.last()) {
        (Some(&a0), Some(&a1), Some(&b0), Some(&b1)) if a1 >= b0 && b1 >= a0 => {
            if a.len() > TRIM_RATIO * b.len() {
                Route::TrimA
            } else if b.len() > TRIM_RATIO * a.len() {
                Route::TrimB
            } else {
                Route::Merge
            }
        }
        _ => Route::Disjoint,
    }
}

/// Calls `f(p, q)` for every `a[p] == b[q]`, in ascending order, until
/// `f` returns [`ControlFlow::Break`].
///
/// Both lists must be strictly ascending. `step_instr` is the caller's
/// instruction charge per walk step; see the module docs for what `pm`
/// records.
///
/// # Example
///
/// ```
/// use std::ops::ControlFlow;
///
/// let (a, b) = ([1, 3, 5, 7], [3, 4, 5, 6, 7]);
/// let mut common = Vec::new();
/// graph::intersect::for_each_common(&a, &b, perfmon::probe(), 1, |p, q| {
///     common.push((p, q));
///     ControlFlow::Continue(())
/// });
/// assert_eq!(common, [(1, 0), (2, 2), (3, 4)]);
/// ```
#[inline]
pub fn for_each_common<F>(a: &[u32], b: &[u32], pm: Probe, step_instr: u64, mut f: F)
where
    F: FnMut(usize, usize) -> ControlFlow<()>,
{
    match route(a, b) {
        Route::Disjoint => {}
        Route::TrimA => gallop(b, a, pm, step_instr, |s, l| f(l, s)),
        Route::TrimB => gallop(a, b, pm, step_instr, f),
        Route::Merge => merge(a, b, pm, step_instr, f),
    }
}

/// Walks `short`, finding each element in `long` by [`seek`] from the
/// current position; calls `f(short index, long index)`.
#[inline]
fn gallop<F>(short: &[u32], long: &[u32], pm: Probe, step_instr: u64, mut f: F)
where
    F: FnMut(usize, usize) -> ControlFlow<()>,
{
    let mut lo = 0usize;
    for (i, x) in short.iter().enumerate() {
        pm.instr(step_instr);
        pm.touch_ref(x);
        lo = seek(long, lo, *x, pm);
        if lo == long.len() {
            return;
        }
        if long[lo] == *x {
            if f(i, lo).is_break() {
                return;
            }
            lo += 1;
        }
    }
}

/// The first index at or after `lo` whose element is `>= x`, given that
/// every element of `list[..lo]` is below `x`: an exponential search
/// probing `lo, lo + 1, lo + 3, lo + 7, ...`, then a binary search in the
/// last window. Each probe is charged.
#[inline]
fn seek(list: &[u32], mut lo: usize, x: u32, pm: Probe) -> usize {
    let mut hi = lo;
    let mut stride = 1usize;
    while hi < list.len() {
        pm.instr(1);
        pm.touch_ref(&list[hi]);
        if list[hi] >= x {
            break;
        }
        lo = hi + 1;
        hi += stride;
        stride *= 2;
    }
    // The answer lies in lo..=hi; list[hi], if it exists, qualifies.
    let mut end = hi.min(list.len());
    while lo < end {
        let mid = lo + (end - lo) / 2;
        pm.instr(1);
        pm.touch_ref(&list[mid]);
        if list[mid] < x {
            lo = mid + 1;
        } else {
            end = mid;
        }
    }
    lo
}

/// How many leading elements of `list` lie below `x`, when there are more
/// than [`LONG_RUN`] of them; 0 otherwise. One charged probe decides.
#[inline]
fn skip_run_below(list: &[u32], x: u32, pm: Probe) -> usize {
    match list.get(LONG_RUN) {
        Some(y) => {
            pm.instr(1);
            pm.touch_ref(y);
            if *y < x {
                seek(list, LONG_RUN + 1, x, pm)
            } else {
                0
            }
        }
        None => 0,
    }
}

/// Merges two lists of similar length, after skipping a long run of one
/// list below the other's first element. The cursors advance by
/// comparison results, so the only branch in a step is the match.
#[inline]
fn merge<F>(a: &[u32], b: &[u32], pm: Probe, step_instr: u64, mut f: F)
where
    F: FnMut(usize, usize) -> ControlFlow<()>,
{
    let (mut p, mut q) = if a[0] < b[0] {
        (skip_run_below(a, b[0], pm), 0)
    } else {
        (0, skip_run_below(b, a[0], pm))
    };
    while p < a.len() && q < b.len() {
        pm.instr(step_instr);
        pm.touch_ref(&a[p]);
        pm.touch_ref(&b[q]);
        let (x, y) = (a[p], b[q]);
        if x == y && f(p, q).is_break() {
            return;
        }
        p += usize::from(x <= y);
        q += usize::from(y <= x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use substrate::prop::{self, Gen};
    use substrate::prop_assert_eq;

    fn common(a: &[u32], b: &[u32]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for_each_common(a, b, perfmon::probe(), 1, |p, q| {
            out.push((p, q));
            ControlFlow::Continue(())
        });
        out
    }

    /// The naive intersection: every equal pair, by a double loop.
    fn naive(a: &[u32], b: &[u32]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (p, x) in a.iter().enumerate() {
            for (q, y) in b.iter().enumerate() {
                if x == y {
                    out.push((p, q));
                }
            }
        }
        out
    }

    /// A strictly ascending list of `len` values drawn from `lo..lo + span`.
    fn sorted_list(g: &mut Gen, len: usize, lo: u32, span: u32) -> Vec<u32> {
        let mut v: Vec<u32> = (0..len).map(|_| lo + g.gen_range(0..span)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// A list pair whose lengths stand in one of the tested ratios:
    /// 1:1, 1:8 (the last merged ratio), 1:9 (the first trimmed one) and
    /// 1:1000, either way round. The short list's values start at a drawn
    /// offset into the long one's range, so the pair may share its whole
    /// range, part of it (a run of the long list lies below the short
    /// one), or nothing.
    fn arb_pair(g: &mut Gen) -> (Vec<u32>, Vec<u32>) {
        let ratio = *g.choose(&[1usize, 8, 9, 1000]);
        let short_len = g.gen_range(0..24usize);
        // Dense values keep the lists' lengths near their targets and
        // make matches common.
        let span = (short_len * ratio * 2).max(4) as u32;
        let long = sorted_list(g, short_len * ratio, 0, span);
        let offset = g.gen_range(0..span + span / 4);
        let short = sorted_list(g, short_len, offset, span.min(4 * short_len as u32 + 4));
        if g.gen_bool(0.5) {
            (short, long)
        } else {
            (long, short)
        }
    }

    #[test]
    fn matches_the_naive_intersection_at_every_ratio() {
        prop::check(
            "for_each_common = naive",
            prop::cases(512),
            arb_pair,
            |(a, b)| {
                prop_assert_eq!(common(a, b), naive(a, b));
                Ok(())
            },
        );
    }

    #[test]
    fn finds_every_element_of_a_short_list_inside_a_long_one() {
        // Every element of the short list is present: a window that ends
        // one probe early, or starts one late, loses one of them.
        let long: Vec<u32> = (0..5000).collect();
        for short in [
            vec![0, 1, 2, 3],
            vec![1, 2, 4, 8, 16],
            vec![7, 300, 4096, 4999],
        ] {
            let expect: Vec<_> = short
                .iter()
                .enumerate()
                .map(|(s, &x)| (x as usize, s))
                .collect();
            assert_eq!(common(&long, &short), expect);
            let swapped: Vec<_> = expect.iter().map(|&(l, s)| (s, l)).collect();
            assert_eq!(common(&short, &long), swapped);
        }
    }

    #[test]
    fn disjoint_touching_and_empty_lists() {
        let cases: [(&[u32], &[u32]); 6] = [
            (&[1, 2, 3], &[4, 5, 6]),
            (&[4, 5, 6], &[1, 2, 3]),
            (&[1, 2, 3], &[3, 4, 5]),
            (&[3, 4, 5], &[0, 1, 2, 3]),
            (&[], &[1, 2]),
            (&[1, 2], &[]),
        ];
        for (a, b) in cases {
            assert_eq!(common(a, b), naive(a, b), "{a:?} ∩ {b:?}");
        }
        // A shared endpoint at either end, on the trim route too.
        let long: Vec<u32> = (10..100).collect();
        assert_eq!(common(&[99], &long), [(0, 89)]);
        assert_eq!(common(&long, &[0, 10]), [(0, 1)]);
        assert_eq!(common(&[100, 200], &long), []);
    }

    #[test]
    fn the_trim_threshold_sits_between_eight_and_nine_to_one() {
        let short = [3u32, 5];
        let eight: Vec<u32> = (0..16).collect();
        let nine: Vec<u32> = (0..18).collect();
        assert_eq!(route(&short, &eight), Route::Merge);
        assert_eq!(route(&eight, &short), Route::Merge);
        assert_eq!(route(&short, &nine), Route::TrimB);
        assert_eq!(route(&nine, &short), Route::TrimA);
        assert_eq!(route(&[20, 30], &nine), Route::Disjoint);
    }

    #[test]
    fn break_stops_every_route_at_once() {
        prop::check(
            "for_each_common stops at Break",
            prop::cases(256),
            |g: &mut Gen| (arb_pair(g), g.gen_range(1..4usize)),
            |((a, b), stop_after)| {
                let mut seen = Vec::new();
                for_each_common(a, b, perfmon::probe(), 1, |p, q| {
                    seen.push((p, q));
                    if seen.len() == *stop_after {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                });
                let mut expect = naive(a, b);
                expect.truncate(*stop_after);
                prop_assert_eq!(seen, expect);
                Ok(())
            },
        );
    }
}
