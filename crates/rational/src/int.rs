//! Integer number-theory helpers used by the rational types and the
//! lattice computations in the partitioner.

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
    gcd_u64(a.unsigned_abs(), b.unsigned_abs()) as i64
}

/// Greatest common divisor of two unsigned words.
pub(crate) fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Least common multiple of two integers, always non-negative.
///
/// Panics on overflow. `lcm(0, x) = 0`.
pub fn lcm(a: i64, b: i64) -> i64 {
    if a == 0 || b == 0 {
        return 0;
    }
    let g = gcd(a, b);
    (a / g).checked_mul(b).expect("lcm overflow").abs()
}

/// Extended Euclid: returns `(g, x, y)` with `a*x + b*y = g = gcd(a, b)`
/// and `g >= 0`.
pub fn ext_gcd(a: i64, b: i64) -> (i64, i64, i64) {
    if b == 0 {
        if a < 0 {
            (-a, -1, 0)
        } else {
            (a, 1, 0)
        }
    } else {
        let (g, x, y) = ext_gcd(b, a % b);
        (g, y, x - (a / b) * y)
    }
}

/// GCD of a slice; `0` for an empty slice or an all-zero slice.
pub fn gcd_all(xs: &[i64]) -> i64 {
    xs.iter().fold(0, |g, &x| gcd(g, x))
}

/// LCM of a slice; `1` for an empty slice. Panics on overflow or if any
/// element is zero (an LCM over zeros is not meaningful for our callers,
/// which use it to clear denominators).
pub fn lcm_all(xs: &[i64]) -> i64 {
    xs.iter().fold(1, |l, &x| {
        assert!(x != 0, "lcm_all over a zero element");
        lcm(l, x)
    })
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
    fn lcm_basic() {
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(-4, 6), 12);
        assert_eq!(lcm(0, 6), 0);
        assert_eq!(lcm(7, 1), 7);
    }

    #[test]
    fn ext_gcd_bezout() {
        for &(a, b) in &[(12i64, 18), (-12, 18), (12, -18), (0, 5), (5, 0), (7, 13)] {
            let (g, x, y) = ext_gcd(a, b);
            assert_eq!(g, gcd(a, b), "gcd mismatch for ({a},{b})");
            assert_eq!(a * x + b * y, g, "bezout identity for ({a},{b})");
        }
    }

    #[test]
    fn gcd_all_slice() {
        assert_eq!(gcd_all(&[]), 0);
        assert_eq!(gcd_all(&[0, 0]), 0);
        assert_eq!(gcd_all(&[8, 12, 20]), 4);
        assert_eq!(gcd_all(&[-8, 12]), 4);
    }

    #[test]
    fn lcm_all_slice() {
        assert_eq!(lcm_all(&[]), 1);
        assert_eq!(lcm_all(&[2, 3, 4]), 12);
        assert_eq!(lcm_all(&[-2, 3]), 6);
    }

    #[test]
    #[should_panic(expected = "zero element")]
    fn lcm_all_zero_panics() {
        lcm_all(&[2, 0]);
    }
}
