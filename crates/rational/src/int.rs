//! Greatest common divisors, for the integer lattice computations.

/// Greatest common divisor of two integers, always non-negative.
///
/// `gcd(0, 0)` is defined as `0`.
///
/// ```
/// use loom_rational::int::gcd;
/// assert_eq!(gcd(12, -18), 6);
/// assert_eq!(gcd(0, 7), 7);
/// ```
pub fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a as i64
}

/// GCD of a slice; `0` for an empty slice or an all-zero slice.
pub fn gcd_all(xs: &[i64]) -> i64 {
    xs.iter().fold(0, |g, &x| gcd(g, x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basic() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(-4, 6), 2);
        assert_eq!(gcd(4, -6), 2);
        assert_eq!(gcd(-4, -6), 2);
        assert_eq!(gcd(17, 13), 1);
        assert_eq!(gcd(i64::MIN + 1, 1), 1);
    }

    #[test]
    fn gcd_all_slice() {
        assert_eq!(gcd_all(&[]), 0);
        assert_eq!(gcd_all(&[0, 0]), 0);
        assert_eq!(gcd_all(&[8, 12, 20]), 4);
        assert_eq!(gcd_all(&[-8, 12]), 4);
    }
}
