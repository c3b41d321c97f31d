//! A normalized rational number over `i64`: the oracle arithmetic that
//! integration tests hold the integer line coordinates against.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number `num / den` with `den > 0` and
/// `gcd(|num|, den) == 1` (zero is represented as `0/1`).
///
/// Intermediate products are computed in `i128` and the result is checked to
/// fit back into `i64`; operations panic on overflow. Test coordinates stay
/// tiny (loop bounds × small dependence components), so an overflow
/// indicates a logic error, not bad input.
///
/// ```
/// use loom_tests_int::Ratio;
/// let a = Ratio::new(1, 2);
/// let b = Ratio::new(1, 3);
/// assert_eq!(a + b, Ratio::new(5, 6));
/// assert_eq!((a * b).to_string(), "1/6");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: i64,
    den: i64,
}

impl Ratio {
    /// Zero.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };

    /// Construct and normalize a rational. Panics if `den == 0`.
    pub fn new(num: i64, den: i64) -> Ratio {
        assert!(den != 0, "rational with zero denominator");
        Self::norm128(num as i128, den as i128)
    }

    /// A whole number `n/1`.
    pub const fn int(n: i64) -> Ratio {
        Ratio { num: n, den: 1 }
    }

    fn norm128(num: i128, den: i128) -> Ratio {
        debug_assert!(den != 0);
        let sign = if den < 0 { -1 } else { 1 };
        let (mut n, mut d) = (num * sign as i128, den * sign as i128);
        let g = gcd128(n, d);
        if g > 1 {
            n /= g;
            d /= g;
        }
        let fit = |v: i128| i64::try_from(v).expect("rational overflow");
        Ratio {
            num: fit(n),
            den: fit(d),
        }
    }

    /// Numerator (sign-carrying).
    pub const fn num(self) -> i64 {
        self.num
    }

    /// Denominator (always positive).
    pub const fn den(self) -> i64 {
        self.den
    }

    /// `true` iff the value is zero.
    pub const fn is_zero(self) -> bool {
        self.num == 0
    }
}

fn gcd128(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a as i128
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl Add for Ratio {
    type Output = Ratio;
    fn add(self, rhs: Ratio) -> Ratio {
        Ratio::norm128(
            self.num as i128 * rhs.den as i128 + rhs.num as i128 * self.den as i128,
            self.den as i128 * rhs.den as i128,
        )
    }
}

impl Sub for Ratio {
    type Output = Ratio;
    fn sub(self, rhs: Ratio) -> Ratio {
        self + (-rhs)
    }
}

impl Mul for Ratio {
    type Output = Ratio;
    fn mul(self, rhs: Ratio) -> Ratio {
        Ratio::norm128(
            self.num as i128 * rhs.num as i128,
            self.den as i128 * rhs.den as i128,
        )
    }
}

impl Div for Ratio {
    type Output = Ratio;
    fn div(self, rhs: Ratio) -> Ratio {
        assert!(rhs.num != 0, "division by zero rational");
        Ratio::norm128(
            self.num as i128 * rhs.den as i128,
            self.den as i128 * rhs.num as i128,
        )
    }
}

impl Neg for Ratio {
    type Output = Ratio;
    fn neg(self) -> Ratio {
        Ratio {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Ratio) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Ratio) -> Ordering {
        // den > 0 on both sides, so cross-multiplication preserves order.
        (self.num as i128 * other.den as i128).cmp(&(other.num as i128 * self.den as i128))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_obs::SplitMix64;

    #[test]
    fn normalization() {
        assert_eq!(Ratio::new(2, 4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(-2, 4), Ratio::new(1, -2));
        assert_eq!(Ratio::new(-2, -4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(0, -7), Ratio::ZERO);
        assert_eq!(Ratio::new(6, 3), Ratio::int(2));
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        Ratio::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = Ratio::new(1, 2);
        let b = Ratio::new(1, 3);
        assert_eq!(a + b, Ratio::new(5, 6));
        assert_eq!(a - b, Ratio::new(1, 6));
        assert_eq!(a * b, Ratio::new(1, 6));
        assert_eq!(a / b, Ratio::new(3, 2));
        assert_eq!(-a, Ratio::new(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(Ratio::new(1, 3) < Ratio::new(1, 2));
        assert!(Ratio::new(-1, 2) < Ratio::new(-1, 3));
        assert!(Ratio::new(2, 4) == Ratio::new(1, 2));
        let mut v = vec![Ratio::new(3, 2), Ratio::new(-1, 2), Ratio::ZERO];
        v.sort();
        assert_eq!(v, vec![Ratio::new(-1, 2), Ratio::ZERO, Ratio::new(3, 2)]);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn numerator_overflow_panics() {
        let huge = Ratio::int(i64::MAX);
        let _ = huge + huge;
    }

    #[test]
    fn near_overflow_still_exact() {
        // i128 intermediates keep large-but-representable results exact.
        let a = Ratio::new(i64::MAX / 2, 3);
        let b = Ratio::new(1, 3);
        assert_eq!((a + b).den(), 3);
    }

    #[test]
    fn display() {
        assert_eq!(Ratio::new(-3, 2).to_string(), "-3/2");
        assert_eq!(Ratio::int(4).to_string(), "4");
        assert_eq!(Ratio::ZERO.to_string(), "0");
    }

    /// Deterministic property harness: 256 random small ratios per seed.
    fn small_ratio(rng: &mut SplitMix64) -> Ratio {
        Ratio::new(rng.range_i64(-1000, 1000), rng.range_i64(1, 1000))
    }

    fn for_random_ratios(seed: u64, check: impl Fn(Ratio, Ratio, Ratio)) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..256 {
            let (a, b, c) = (
                small_ratio(&mut rng),
                small_ratio(&mut rng),
                small_ratio(&mut rng),
            );
            check(a, b, c);
        }
    }

    #[test]
    fn add_commutes() {
        for_random_ratios(1, |a, b, _| assert_eq!(a + b, b + a, "{a} + {b}"));
    }

    #[test]
    fn add_associates() {
        for_random_ratios(2, |a, b, c| {
            assert_eq!((a + b) + c, a + (b + c), "{a} {b} {c}");
        });
    }

    #[test]
    fn mul_distributes() {
        for_random_ratios(3, |a, b, c| {
            assert_eq!(a * (b + c), a * b + a * c, "{a} {b} {c}");
        });
    }

    #[test]
    fn sub_then_add_roundtrips() {
        for_random_ratios(4, |a, b, _| assert_eq!(a - b + b, a, "{a} {b}"));
    }

    #[test]
    fn div_inverts_mul() {
        for_random_ratios(5, |a, b, _| {
            if !b.is_zero() {
                assert_eq!(a * b / b, a, "{a} {b}");
            }
        });
    }

    #[test]
    fn normalized_invariant() {
        for_random_ratios(6, |a, _, _| {
            assert!(a.den() > 0, "{a}");
            assert_eq!(
                loom_rational::int::gcd(a.num(), a.den()),
                if a.is_zero() { a.den() } else { 1 },
                "{a}"
            );
        });
    }

    #[test]
    fn ord_matches_f64() {
        // f64 is exact for these small values, so orderings must agree.
        let f = |r: Ratio| r.num() as f64 / r.den() as f64;
        for_random_ratios(8, |a, b, _| {
            assert_eq!(a.cmp(&b), f(a).partial_cmp(&f(b)).unwrap(), "{a} vs {b}");
        });
    }
}
