//! Seeded property-based testing with bounded shrinking.
//!
//! An in-tree replacement for the `proptest` subset the workspace used:
//! a property is checked against many generated cases, a failing case is
//! *shrunk* to a smaller counterexample, and the failure report carries
//! the seed needed to replay it exactly.
//!
//! # Model
//!
//! Generation is mediated by a [`Gen`], which draws raw `u64`s from an
//! [`Rng`] and records them on a *choice tape*. Replaying a tape through
//! the same generator function reproduces the same value; replaying a
//! *mutated* tape produces a related, usually smaller value (draws are
//! reduced into range with a modulus, so shrinking a raw choice toward
//! zero shrinks the derived value toward its range's low end, and
//! truncating the tape shrinks collection lengths — choices past the end
//! of the tape read as zero). This is the Hypothesis-style "shrink the
//! entropy, not the value" trick: it composes through arbitrary generator
//! functions with no per-type shrinker code.
//!
//! # Replaying failures
//!
//! Every test derives its stream from a fixed default seed, so failures
//! are deterministic in CI. A failure message prints the active seed;
//! re-running with `STUDY_PROP_SEED=<seed>` (any `u64`, decimal or
//! `0x`-hex) reproduces it, and setting a different value explores fresh
//! cases.
//!
//! # Example
//!
//! ```
//! use substrate::prop::{self, Gen};
//! use substrate::prop_assert;
//!
//! fn arb_sorted(g: &mut Gen) -> Vec<u32> {
//!     let mut v = g.vec(0..20, |g| g.gen_range(0..100u32));
//!     v.sort_unstable();
//!     v
//! }
//!
//! prop::check("sorted stays sorted after dedup", prop::cases(64), arb_sorted, |v| {
//!     let mut d = v.clone();
//!     d.dedup();
//!     prop_assert!(d.windows(2).all(|w| w[0] < w[1]), "dedup of sorted is strictly increasing");
//!     Ok(())
//! });
//! ```

use crate::rng::{Rng, SampleRange, UniformInt};

/// Default seed for every property stream; override with `STUDY_PROP_SEED`.
pub const DEFAULT_SEED: u64 = 0x0005_EED0_F570_D1E5;

/// Hard ceiling on property evaluations spent shrinking one failure.
const MAX_SHRINK_EVALS: u32 = 512;

/// Configuration for one [`check`] run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of generated cases the property must pass.
    pub cases: u32,
    /// Seed of the case stream.
    pub seed: u64,
    /// Bound on shrink-candidate evaluations after a failure.
    pub max_shrink_evals: u32,
}

/// The standard configuration: `cases` cases, seed from `STUDY_PROP_SEED`
/// if set (decimal or `0x`-prefixed hex) and [`DEFAULT_SEED`] otherwise.
pub fn cases(cases: u32) -> Config {
    Config {
        cases,
        seed: seed_from_env(),
        max_shrink_evals: MAX_SHRINK_EVALS,
    }
}

fn seed_from_env() -> u64 {
    let raw = match std::env::var("STUDY_PROP_SEED") {
        Ok(v) if !v.trim().is_empty() => v.trim().to_string(),
        _ => return DEFAULT_SEED,
    };
    let parsed = raw
        .strip_prefix("0x")
        .map(|h| u64::from_str_radix(h, 16))
        .unwrap_or_else(|| raw.parse());
    match parsed {
        Ok(seed) => seed,
        Err(_) => panic!("STUDY_PROP_SEED must be a u64, got {raw:?}"),
    }
}

/// Entropy source handed to generator functions; records or replays the
/// choice tape (see module docs).
#[derive(Debug)]
pub struct Gen {
    tape: Vec<u64>,
    pos: usize,
    rng: Option<Rng>,
}

impl Gen {
    fn recording(rng: Rng) -> Self {
        Gen {
            tape: Vec::new(),
            pos: 0,
            rng: Some(rng),
        }
    }

    fn replaying(tape: &[u64]) -> Self {
        Gen {
            tape: tape.to_vec(),
            pos: 0,
            rng: None,
        }
    }

    /// One raw draw: from the tape when replaying (zero past its end),
    /// from the RNG (recorded) otherwise.
    #[inline]
    fn draw(&mut self) -> u64 {
        if self.pos < self.tape.len() {
            let v = self.tape[self.pos];
            self.pos += 1;
            v
        } else {
            match &mut self.rng {
                Some(rng) => {
                    let v = rng.next_u64();
                    self.tape.push(v);
                    self.pos += 1;
                    v
                }
                None => 0,
            }
        }
    }

    /// Uniform-ish value in `range`. The raw draw is folded into range
    /// with a modulus rather than multiply-shift so that *smaller raw
    /// choices give smaller values*, which is what makes tape shrinking
    /// produce minimal counterexamples.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: UniformInt + ShrinkMap,
        R: SampleRange<T>,
    {
        let (lo, hi) = range.bounds();
        T::from_offset(lo, hi, self.draw())
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Value in `[0, 1)`; shrinks toward `0.0`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.draw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A vector whose length is drawn from `len_range` and whose elements
    /// come from `element`; shrinks in both length and element size.
    pub fn vec<T, R>(&mut self, len_range: R, mut element: impl FnMut(&mut Gen) -> T) -> Vec<T>
    where
        R: SampleRange<usize>,
    {
        let len = self.gen_range(len_range);
        (0..len).map(|_| element(self)).collect()
    }

    /// A uniformly chosen element of a non-empty slice; shrinks toward
    /// the first element.
    pub fn choose<'a, T>(&mut self, options: &'a [T]) -> &'a T {
        assert!(!options.is_empty(), "choose on empty slice");
        &options[self.gen_range(0..options.len())]
    }
}

/// Folds a raw tape choice into a range so zero maps to the low end.
pub trait ShrinkMap: Sized {
    /// Value for `raw` within `lo..=hi`.
    fn from_offset(lo: Self, hi: Self, raw: u64) -> Self;
}

macro_rules! impl_shrink_map {
    ($($t:ty),*) => {$(
        impl ShrinkMap for $t {
            #[inline]
            fn from_offset(lo: Self, hi: Self, raw: u64) -> Self {
                let span = (hi.wrapping_sub(lo)) as u64;
                if span == u64::MAX {
                    return raw as $t;
                }
                lo.wrapping_add((raw % (span + 1)) as $t)
            }
        }
    )*};
}

impl_shrink_map!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Outcome of one property evaluation.
type PropResult = Result<(), String>;

/// Checks `property` against `config.cases` values from `generate`.
///
/// On failure the recorded choice tape is shrunk (bounded by
/// `config.max_shrink_evals` evaluations) and the panic message reports
/// the minimal counterexample found plus the seed that replays the run.
///
/// Panics inside the property count as failures and are shrunk the same
/// way, so plain `assert!`/indexing panics work; the [`crate::prop_assert!`]
/// macros produce nicer messages.
pub fn check<T, G, P>(name: &str, config: Config, generate: G, property: P)
where
    T: std::fmt::Debug,
    G: Fn(&mut Gen) -> T,
    P: Fn(&T) -> PropResult,
{
    // Each property gets its own stream (so adding one test does not
    // reshuffle every other test's cases) derived from the shared seed.
    let mut stream = Rng::seed_from_u64(config.seed ^ fnv1a(name.as_bytes()));
    for case in 0..config.cases {
        let case_rng = Rng::seed_from_u64(stream.next_u64());
        let mut gen = Gen::recording(case_rng);
        let value = generate(&mut gen);
        if let Err(message) = eval(&property, &value) {
            let budget = config.max_shrink_evals;
            let (min_tape, evals) = shrink(&gen.tape, &generate, &property, budget);
            let minimal = generate(&mut Gen::replaying(&min_tape));
            let min_message = eval(&property, &minimal).err().unwrap_or(message.clone());
            panic!(
                "property '{name}' failed on case {case}/{cases}\n\
                 ── original failure: {message}\n\
                 ── minimal counterexample (after {evals} shrink evals): {minimal:#?}\n\
                 ── minimal failure: {min_message}\n\
                 ── replay with: STUDY_PROP_SEED={seed:#x} (seed {seed})",
                cases = config.cases,
                seed = config.seed,
            );
        }
    }
}

/// Runs the property, converting panics into failure messages.
fn eval<T, P>(property: &P, value: &T) -> PropResult
where
    P: Fn(&T) -> PropResult,
{
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| property(value))) {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "property panicked".to_string());
            Err(format!("panic: {msg}"))
        }
    }
}

/// Greedy tape shrinking: repeatedly tries candidate tapes that are
/// shorter or element-wise smaller, keeping any that still fail, until a
/// full pass makes no progress or the evaluation budget is spent.
fn shrink<T, G, P>(tape: &[u64], generate: &G, property: &P, budget: u32) -> (Vec<u64>, u32)
where
    G: Fn(&mut Gen) -> T,
    P: Fn(&T) -> PropResult,
{
    let mut best = tape.to_vec();
    let mut evals = 0u32;
    let still_fails = |candidate: &[u64], evals: &mut u32| -> bool {
        *evals += 1;
        let value = generate(&mut Gen::replaying(candidate));
        eval(property, &value).is_err()
    };

    // Shrinking panics if the very first re-evaluation flips (a flaky,
    // non-deterministic property would loop forever otherwise) — here we
    // simply keep the original tape in that case.
    'outer: loop {
        let mut progressed = false;

        // Pass 1: drop suffixes (halving), which shortens collections.
        let mut keep = best.len() / 2;
        while keep < best.len() {
            if evals >= budget {
                break 'outer;
            }
            let candidate = best[..keep].to_vec();
            if still_fails(&candidate, &mut evals) {
                best = candidate;
                progressed = true;
                keep = best.len() / 2;
            } else {
                // Try keeping more of the tape.
                keep += (best.len() - keep).div_ceil(2).max(1);
                if keep >= best.len() {
                    break;
                }
            }
        }

        // Pass 2: shrink individual choices toward zero.
        for i in 0..best.len() {
            let original = best[i];
            if original == 0 {
                continue;
            }
            for candidate_value in [0, original / 2, original - 1] {
                if candidate_value == original {
                    continue;
                }
                if evals >= budget {
                    break 'outer;
                }
                let mut candidate = best.clone();
                candidate[i] = candidate_value;
                if still_fails(&candidate, &mut evals) {
                    best = candidate;
                    progressed = true;
                    break;
                }
            }
        }

        if !progressed {
            break;
        }
    }
    (best, evals)
}

/// FNV-1a, for deriving per-property streams from the property name.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Asserts a condition inside a property, failing the case (not the whole
/// process) with a formatted message; requires the enclosing closure to
/// return `Result<(), String>`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Asserts two expressions are equal inside a property (see
/// [`prop_assert!`]).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err(format!(
                "{} != {}\n  left: {:?}\n right: {:?}",
                stringify!($a),
                stringify!($b),
                a,
                b
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+),
                a,
                b
            ));
        }
    }};
}

/// Asserts two expressions are unequal inside a property (see
/// [`prop_assert!`]).
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a == b {
            return Err(format!(
                "{} == {} (both {:?})",
                stringify!($a),
                stringify!($b),
                a
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if a == b {
            return Err(format!("{} (both {:?})", format!($($fmt)+), a));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0u32;
        let counter = std::cell::Cell::new(0u32);
        check(
            "sum is commutative",
            Config {
                cases: 50,
                seed: 1,
                max_shrink_evals: 10,
            },
            |g| (g.gen_range(0..100u32), g.gen_range(0..100u32)),
            |&(a, b)| {
                counter.set(counter.get() + 1);
                prop_assert_eq!(a + b, b + a);
                Ok(())
            },
        );
        count += counter.get();
        assert_eq!(count, 50);
    }

    #[test]
    fn failing_property_reports_seed_and_shrinks() {
        let result = std::panic::catch_unwind(|| {
            check(
                "all values below 10",
                Config {
                    cases: 200,
                    seed: 7,
                    max_shrink_evals: 256,
                },
                |g| g.gen_range(0..1000u32),
                |&x| {
                    prop_assert!(x < 10, "{x} >= 10");
                    Ok(())
                },
            );
        });
        let msg = *result
            .expect_err("property must fail")
            .downcast::<String>()
            .expect("panic carries a String");
        assert!(msg.contains("STUDY_PROP_SEED="), "replay seed in: {msg}");
        assert!(
            msg.contains("minimal counterexample"),
            "shrink report in: {msg}"
        );
        // The minimal failing value for `x < 10` is exactly 10.
        assert!(msg.contains("10"), "shrunk to the boundary in: {msg}");
    }

    #[test]
    fn shrinking_minimizes_vec_lengths() {
        let result = std::panic::catch_unwind(|| {
            check(
                "vectors stay short",
                Config {
                    cases: 100,
                    seed: 3,
                    max_shrink_evals: 400,
                },
                |g| g.vec(0..50, |g| g.gen_range(0..5u32)),
                |v| {
                    prop_assert!(v.len() < 10, "len {}", v.len());
                    Ok(())
                },
            );
        });
        let msg = *result
            .expect_err("property must fail")
            .downcast::<String>()
            .unwrap();
        // The minimal counterexample is a vec of exactly 10 zeros.
        assert!(msg.contains("len 10"), "minimal length 10 in: {msg}");
    }

    #[test]
    fn replaying_a_tape_reproduces_the_value() {
        let mut gen = Gen::recording(Rng::seed_from_u64(99));
        let make = |g: &mut Gen| {
            (
                g.gen_range(0..1000u64),
                g.vec(1..10, |g| g.gen_bool(0.5)),
                g.gen_f64(),
            )
        };
        let original = make(&mut gen);
        let replayed = make(&mut Gen::replaying(&gen.tape));
        assert_eq!(original, replayed);
    }

    #[test]
    fn panics_inside_properties_are_failures() {
        let result = std::panic::catch_unwind(|| {
            check(
                "indexing never panics",
                Config {
                    cases: 50,
                    seed: 5,
                    max_shrink_evals: 64,
                },
                |g| g.vec(0..5, |g| g.gen_range(0..10u32)),
                |v| {
                    let _ = v[3]; // panics when len <= 3
                    Ok(())
                },
            );
        });
        assert!(result.is_err());
    }

    #[test]
    fn default_seed_is_stable() {
        // A property that records its first case must see the same value
        // on every run (no ambient entropy).
        let seen = std::cell::Cell::new(0u64);
        let run = |seen: &std::cell::Cell<u64>| {
            let mut stream = Rng::seed_from_u64(DEFAULT_SEED ^ fnv1a(b"stability"));
            let mut g = Gen::recording(Rng::seed_from_u64(stream.next_u64()));
            seen.set(g.gen_range(0..u64::MAX));
        };
        run(&seen);
        let first = seen.get();
        run(&seen);
        assert_eq!(first, seen.get());
    }
}
