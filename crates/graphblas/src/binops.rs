//! Operators: binary ops, monoids and semirings.
//!
//! GraphBLAS generalizes matrix multiplication over a semiring `(⊕, ⊗)`;
//! the concrete zero-sized types here are the semirings the LAGraph
//! algorithms in the study use:
//!
//! | semiring | ⊕ | ⊗ | used by |
//! |---|---|---|---|
//! | [`PlusTimes`] | `+` | `*` | pagerank |
//! | [`MinPlus`] | `min` | `+` | sssp (delta-stepping) |
//! | [`LorLand`] | `∨` | `∧` | bfs frontier expansion |
//! | [`PlusPair`] | `+` | `1` | triangle counting (SandiaDot) |
//! | [`PlusLand`] | `+` | `∧` | ktruss support counting |
//! | [`MinSecond`] | `min` | `second` | connected components (FastSV) |
//!
//! Binary ops ([`Plus`], [`Min`], …) serve as accumulators and eWise
//! operators; they are zero-sized and `Copy`, so kernels monomorphize to
//! tight loops.

use crate::scalar::ScalarNum;

/// A binary operator on `T` (GraphBLAS `GrB_BinaryOp`).
pub trait BinOp<T>: Copy + Send + Sync + 'static {
    /// Applies the operator.
    fn apply(self, a: T, b: T) -> T;
}

/// A commutative, associative [`BinOp`] with an identity (GraphBLAS
/// `GrB_Monoid`).
pub trait MonoidOp<T>: BinOp<T> {
    /// The identity element of the monoid.
    fn identity(self) -> T;
}

/// A semiring `(⊕, ⊗)` over `T` (GraphBLAS `GrB_Semiring`).
pub trait SemiringOps<T>: Copy + Send + Sync + 'static {
    /// The additive monoid's operation.
    fn add(self, a: T, b: T) -> T;
    /// The additive identity.
    fn add_identity(self) -> T;
    /// The multiplicative operation.
    fn mul(self, a: T, b: T) -> T;

    /// The additive monoid's absorbing element, when one exists: a `z`
    /// with `z ⊕ x = z` for every `x`. Pull kernels short-circuit a dot
    /// product once the accumulator reaches it (the `any`-style early
    /// exit for [`LorLand`]). `None` (the default) disables the exit.
    #[inline]
    fn add_absorbing(self) -> Option<T> {
        None
    }
}

macro_rules! binop {
    ($(#[$doc:meta])* $name:ident, |$a:ident, $b:ident| $body:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name;

        impl<T: ScalarNum> BinOp<T> for $name {
            #[inline]
            fn apply(self, $a: T, $b: T) -> T {
                $body
            }
        }
    };
}

binop!(
    /// Addition (saturating for integers, `or` for `bool`).
    Plus, |a, b| a.plus(b)
);
binop!(
    /// Multiplication (`and` for `bool`).
    Times, |a, b| a.times(b)
);
binop!(
    /// Minimum.
    Min, |a, b| a.min_val(b)
);
binop!(
    /// Maximum.
    Max, |a, b| a.max_val(b)
);
binop!(
    /// Left argument.
    First, |a, _b| a
);
binop!(
    /// Right argument.
    Second, |_a, b| b
);
binop!(
    /// The constant one (GraphBLAS `PAIR`).
    Pair, |_a, _b| T::ONE
);
binop!(
    /// Inequality indicator: `1` when the arguments differ, else `0`
    /// (used for bulk convergence tests).
    Ne, |a, b| if a == b { T::ZERO } else { T::ONE }
);
binop!(
    /// Division (see [`ScalarNum::div_val`] for the integer/bool
    /// conventions). Used by betweenness centrality's `σ(v)/σ(u)`.
    Div, |a, b| a.div_val(b)
);

impl<T: ScalarNum> MonoidOp<T> for Plus {
    #[inline]
    fn identity(self) -> T {
        T::ZERO
    }
}

impl<T: ScalarNum> MonoidOp<T> for Min {
    #[inline]
    fn identity(self) -> T {
        T::MAX_VALUE
    }
}

impl<T: ScalarNum> MonoidOp<T> for Max {
    #[inline]
    fn identity(self) -> T {
        T::ZERO
    }
}

impl<T: ScalarNum> MonoidOp<T> for Times {
    #[inline]
    fn identity(self) -> T {
        T::ONE
    }
}

macro_rules! semiring {
    ($(#[$doc:meta])* $name:ident, add: |$aa:ident, $ab:ident| $add:expr,
     identity: $id:expr, mul: |$ma:ident, $mb:ident| $mul:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name;

        impl<T: ScalarNum> SemiringOps<T> for $name {
            #[inline]
            fn add(self, $aa: T, $ab: T) -> T {
                $add
            }

            #[inline]
            fn add_identity(self) -> T {
                $id
            }

            #[inline]
            fn mul(self, $ma: T, $mb: T) -> T {
                $mul
            }
        }
    };
}

semiring!(
    /// The arithmetic semiring `(+, *)`.
    PlusTimes,
    add: |a, b| a.plus(b), identity: T::ZERO, mul: |a, b| a.times(b)
);
semiring!(
    /// The tropical semiring `(min, +)` of shortest paths.
    MinPlus,
    add: |a, b| a.min_val(b), identity: T::MAX_VALUE, mul: |a, b| a.plus(b)
);
/// The boolean semiring `(∨, ∧)` interpreted over any scalar via non-zero
/// truthiness. Written out (not via the macro) because `∨` has an
/// absorbing element — once an accumulator holds `1` no further operand
/// can change it — which the pull kernel exploits to exit dot products
/// early.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LorLand;

impl<T: ScalarNum> SemiringOps<T> for LorLand {
    #[inline]
    fn add(self, a: T, b: T) -> T {
        if a.is_nonzero() || b.is_nonzero() {
            T::ONE
        } else {
            T::ZERO
        }
    }

    #[inline]
    fn add_identity(self) -> T {
        T::ZERO
    }

    #[inline]
    fn mul(self, a: T, b: T) -> T {
        if a.is_nonzero() && b.is_nonzero() {
            T::ONE
        } else {
            T::ZERO
        }
    }

    #[inline]
    fn add_absorbing(self) -> Option<T> {
        Some(T::ONE)
    }
}
semiring!(
    /// `(+, pair)`: counts structural intersections (SandiaDot tc).
    PlusPair,
    add: |a, b| a.plus(b), identity: T::ZERO, mul: |_a, _b| T::ONE
);
semiring!(
    /// `(+, ∧)`: ktruss support counting.
    PlusLand,
    add: |a, b| a.plus(b), identity: T::ZERO,
    mul: |a, b| if a.is_nonzero() && b.is_nonzero() { T::ONE } else { T::ZERO }
);
semiring!(
    /// `(min, second)`: value propagation for FastSV.
    MinSecond,
    add: |a, b| a.min_val(b), identity: T::MAX_VALUE, mul: |_a, b| b
);
semiring!(
    /// `(+, second)`: push-style contribution spreading (pagerank push).
    PlusSecond,
    add: |a, b| a.plus(b), identity: T::ZERO, mul: |_a, b| b
);
semiring!(
    /// `(+, first)`: pull-style contribution gathering.
    PlusFirst,
    add: |a, b| a.plus(b), identity: T::ZERO, mul: |a, _b| a
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binops_apply() {
        assert_eq!(BinOp::<u32>::apply(Plus, 2, 3), 5);
        assert_eq!(BinOp::<u32>::apply(Times, 2, 3), 6);
        assert_eq!(BinOp::<u32>::apply(Min, 2, 3), 2);
        assert_eq!(BinOp::<u32>::apply(Max, 2, 3), 3);
        assert_eq!(BinOp::<u32>::apply(First, 2, 3), 2);
        assert_eq!(BinOp::<u32>::apply(Second, 2, 3), 3);
        assert_eq!(BinOp::<u32>::apply(Pair, 2, 3), 1);
    }

    #[test]
    fn monoid_identities() {
        assert_eq!(MonoidOp::<u64>::identity(Plus), 0);
        assert_eq!(MonoidOp::<u64>::identity(Min), u64::MAX);
        assert_eq!(MonoidOp::<f64>::identity(Min), f64::INFINITY);
        assert_eq!(MonoidOp::<u32>::identity(Times), 1);
    }

    #[test]
    fn min_plus_models_relaxation() {
        let s = MinPlus;
        // dist' = min(dist, dist_u + w)
        let relaxed = s.add(10u64, s.mul(3, 4));
        assert_eq!(relaxed, 7);
        // "infinity" stays infinity under saturating add
        assert_eq!(s.mul(u64::MAX, 5), u64::MAX);
    }

    #[test]
    fn lor_land_over_integers_uses_truthiness() {
        let s = LorLand;
        assert_eq!(SemiringOps::<u32>::mul(s, 7, 2), 1);
        assert_eq!(SemiringOps::<u32>::mul(s, 7, 0), 0);
        assert_eq!(SemiringOps::<u32>::add(s, 0, 9), 1);
        assert_eq!(SemiringOps::<u32>::add(s, 0, 0), 0);
    }

    #[test]
    fn absorbing_elements_absorb() {
        // Only `or` declares one; the `min`/`plus` monoids must not
        // short-circuit (min's would be type-dependent, plus has none).
        let z = SemiringOps::<u32>::add_absorbing(LorLand).unwrap();
        for x in [0u32, 1, 7] {
            assert_eq!(LorLand.add(z, x), z);
        }
        assert_eq!(SemiringOps::<u64>::add_absorbing(MinPlus), None);
        assert_eq!(SemiringOps::<u64>::add_absorbing(PlusTimes), None);
        assert_eq!(SemiringOps::<u32>::add_absorbing(MinSecond), None);
    }

    #[test]
    fn plus_pair_counts() {
        let s = PlusPair;
        assert_eq!(SemiringOps::<u64>::mul(s, 123, 456), 1);
        assert_eq!(s.add(2u64, 1), 3);
    }

    #[test]
    fn min_second_propagates_right_value() {
        let s = MinSecond;
        assert_eq!(SemiringOps::<u32>::mul(s, 99, 5), 5);
        assert_eq!(s.add(7u32, 5), 5);
        assert_eq!(SemiringOps::<u32>::add_identity(s), u32::MAX);
    }
}
