//! Affine expressions over the loop indices.

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// An affine expression `c + Σ coeffs[k] · I_k` over `n` loop indices.
///
/// Used both for array subscripts (`A[i+1, j]`) and for loop bounds that
/// may reference outer indices (`for j = 0 to i`).
///
/// ```
/// use loom_loopir::Aff;
/// let i = Aff::var(2, 0); // index I_0 of a 2-deep nest
/// let e = i + 1;          // i + 1
/// assert_eq!(e.eval(&[3, 9]), 4);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Aff {
    coeffs: Vec<i64>,
    constant: i64,
}

impl Aff {
    /// The constant expression `c` over an `n`-index nest.
    pub fn constant(n: usize, c: i64) -> Aff {
        Aff {
            coeffs: vec![0; n],
            constant: c,
        }
    }

    /// The single index variable `I_k` of an `n`-index nest.
    ///
    /// Panics if `k >= n`.
    pub fn var(n: usize, k: usize) -> Aff {
        assert!(k < n, "index variable {k} out of range for {n}-deep nest");
        let mut coeffs = vec![0; n];
        coeffs[k] = 1;
        Aff {
            coeffs,
            constant: 0,
        }
    }

    /// Build from explicit coefficients and constant.
    pub fn new(coeffs: Vec<i64>, constant: i64) -> Aff {
        Aff { coeffs, constant }
    }

    /// Number of indices this expression ranges over.
    pub fn dim(&self) -> usize {
        self.coeffs.len()
    }

    /// Coefficient of index `k`.
    pub fn coeff(&self, k: usize) -> i64 {
        self.coeffs[k]
    }

    /// All coefficients.
    pub fn coeffs(&self) -> &[i64] {
        &self.coeffs
    }

    /// The constant term.
    pub fn constant_term(&self) -> i64 {
        self.constant
    }

    /// `true` iff the expression has no index terms.
    pub fn is_constant(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }

    /// The highest index (0-based) with a nonzero coefficient, if any.
    pub fn max_var(&self) -> Option<usize> {
        self.coeffs.iter().rposition(|&c| c != 0)
    }

    /// Evaluate at an index point. Panics on dimension mismatch.
    pub fn eval(&self, point: &[i64]) -> i64 {
        assert_eq!(point.len(), self.dim(), "eval on wrong-arity point");
        self.constant
            + self
                .coeffs
                .iter()
                .zip(point)
                .map(|(&c, &x)| c * x)
                .sum::<i64>()
    }

    /// The exact image interval `(min, max)` of this expression over the
    /// box `bbox` (one inclusive `(lo, hi)` range per index), evaluated at
    /// the corner each coefficient's sign selects; `None` on overflow.
    /// When it is `Some`, evaluating the expression at any point of the
    /// box cannot overflow: every partial sum lies within the checked
    /// partial hull.
    pub fn hull_over_box(&self, bbox: &[(i64, i64)]) -> Option<(i64, i64)> {
        let (mut lo, mut hi) = (self.constant, self.constant);
        for (&a, &(l, h)) in self.coeffs.iter().zip(bbox) {
            let (x, y) = (a.checked_mul(l)?, a.checked_mul(h)?);
            lo = lo.checked_add(x.min(y))?;
            hi = hi.checked_add(x.max(y))?;
        }
        Some((lo, hi))
    }

    /// `true` iff the linear (non-constant) parts of two expressions match.
    pub fn same_linear_part(&self, other: &Aff) -> bool {
        self.coeffs == other.coeffs
    }
}

impl Add<i64> for Aff {
    type Output = Aff;
    fn add(mut self, c: i64) -> Aff {
        self.constant += c;
        self
    }
}

impl Sub<i64> for Aff {
    type Output = Aff;
    fn sub(mut self, c: i64) -> Aff {
        self.constant -= c;
        self
    }
}

impl Add for Aff {
    type Output = Aff;
    fn add(self, rhs: Aff) -> Aff {
        assert_eq!(self.dim(), rhs.dim(), "add of mismatched affine arity");
        Aff {
            coeffs: self
                .coeffs
                .iter()
                .zip(&rhs.coeffs)
                .map(|(a, b)| a + b)
                .collect(),
            constant: self.constant + rhs.constant,
        }
    }
}

impl Sub for Aff {
    type Output = Aff;
    fn sub(self, rhs: Aff) -> Aff {
        self + (-rhs)
    }
}

impl Neg for Aff {
    type Output = Aff;
    fn neg(self) -> Aff {
        Aff {
            coeffs: self.coeffs.into_iter().map(|c| -c).collect(),
            constant: -self.constant,
        }
    }
}

impl Mul<i64> for Aff {
    type Output = Aff;
    fn mul(self, k: i64) -> Aff {
        Aff {
            coeffs: self.coeffs.into_iter().map(|c| c * k).collect(),
            constant: self.constant * k,
        }
    }
}

impl fmt::Debug for Aff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Aff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const NAMES: &[&str] = &["i", "j", "k", "l", "m", "n"];
        let mut first = true;
        for (k, &c) in self.coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let name = NAMES.get(k).copied().unwrap_or("x");
            let sub = if k >= NAMES.len() {
                format!("{name}{k}")
            } else {
                name.to_string()
            };
            if first {
                match c {
                    1 => write!(f, "{sub}")?,
                    -1 => write!(f, "-{sub}")?,
                    _ => write!(f, "{c}{sub}")?,
                }
                first = false;
            } else {
                let sign = if c < 0 { '-' } else { '+' };
                let mag = c.abs();
                if mag == 1 {
                    write!(f, "{sign}{sub}")?;
                } else {
                    write!(f, "{sign}{mag}{sub}")?;
                }
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant != 0 {
            let sign = if self.constant < 0 { '-' } else { '+' };
            write!(f, "{sign}{}", self.constant.abs())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_and_arith() {
        let n = 3;
        let i = Aff::var(n, 0);
        let k = Aff::var(n, 2);
        let e = i.clone() + 1;
        assert_eq!(e.eval(&[4, 0, 0]), 5);
        let s = (i.clone() + 2) - (k.clone() - 1);
        assert_eq!(s.eval(&[10, 0, 3]), 10 + 2 - 3 + 1);
        let m = i * 3;
        assert_eq!(m.eval(&[2, 0, 0]), 6);
        assert_eq!((-k).eval(&[0, 0, 7]), -7);
    }

    #[test]
    fn structure_queries() {
        let e = Aff::new(vec![1, 0, -2], 5);
        assert_eq!(e.dim(), 3);
        assert_eq!(e.coeff(2), -2);
        assert_eq!(e.constant_term(), 5);
        assert!(!e.is_constant());
        assert_eq!(e.max_var(), Some(2));
        assert!(Aff::constant(3, 9).is_constant());
        assert_eq!(Aff::constant(3, 9).max_var(), None);
    }

    #[test]
    fn hull_over_box_is_the_enumerated_image_or_none_on_overflow() {
        let space = crate::IterSpace::rect(&[4, 3]).unwrap();
        let bx = space.bounding_box();
        for f in [
            Aff::new(vec![2, -3], 1),
            Aff::new(vec![-1, 0], 0),
            Aff::constant(2, 7),
        ] {
            let vals: Vec<i64> = space.points().map(|p| f.eval(&p)).collect();
            let min = *vals.iter().min().unwrap();
            let max = *vals.iter().max().unwrap();
            assert_eq!(f.hull_over_box(&bx), Some((min, max)), "{f:?}");
        }
        assert_eq!(Aff::new(vec![i64::MAX, 0], 0).hull_over_box(&bx), None);
        assert_eq!(Aff::new(vec![1, 0], i64::MAX).hull_over_box(&bx), None);
    }

    #[test]
    fn same_linear_part() {
        let a = Aff::new(vec![1, 1], 0);
        let b = Aff::new(vec![1, 1], -4);
        let c = Aff::new(vec![1, 0], 0);
        assert!(a.same_linear_part(&b));
        assert!(!a.same_linear_part(&c));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn var_out_of_range() {
        Aff::var(2, 2);
    }

    #[test]
    fn display() {
        let n = 2;
        assert_eq!((Aff::var(n, 0) + 1).to_string(), "i+1");
        assert_eq!((Aff::var(n, 1) - 3).to_string(), "j-3");
        assert_eq!(Aff::constant(n, 0).to_string(), "0");
        assert_eq!(
            (Aff::var(n, 0) * -1 + Aff::var(n, 1) * 2).to_string(),
            "-i+2j"
        );
    }
}
