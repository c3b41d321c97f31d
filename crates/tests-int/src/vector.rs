//! Rational vectors: the projection of Definition 3, the oracle that
//! integration tests hold the integer projected structure against.

use crate::ratio::Ratio;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Neg, Sub};

/// A dense vector of exact rationals.
///
/// Projected points and projected dependence vectors live in ℚⁿ; the
/// partitioner computes on their integer line coordinates, and tests
/// rebuild the rational points as `QVec`s.
///
/// ```
/// use loom_tests_int::{QVec, Ratio};
/// let pi = QVec::from_ints(&[1, 1]);
/// let j = QVec::from_ints(&[3, 0]);
/// // Projection of (3,0) with respect to (1,1) → (3/2, -3/2).
/// let p = j.project(&pi);
/// assert_eq!(p, QVec::new(vec![Ratio::new(3, 2), Ratio::new(-3, 2)]));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QVec(Vec<Ratio>);

impl QVec {
    /// Wrap a vector of rationals.
    pub fn new(coords: Vec<Ratio>) -> QVec {
        QVec(coords)
    }

    /// A rational vector from integer coordinates.
    pub fn from_ints(coords: &[i64]) -> QVec {
        QVec(coords.iter().map(|&c| Ratio::int(c)).collect())
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Coordinate slice.
    pub fn coords(&self) -> &[Ratio] {
        &self.0
    }

    /// `true` iff every coordinate is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|c| c.is_zero())
    }

    /// Exact dot product.
    pub fn dot(&self, other: &QVec) -> Ratio {
        assert_eq!(self.dim(), other.dim(), "dot of mismatched dimensions");
        self.0
            .iter()
            .zip(&other.0)
            .fold(Ratio::ZERO, |acc, (&a, &b)| acc + a * b)
    }

    /// Scale by a rational.
    pub fn scale(&self, k: Ratio) -> QVec {
        QVec(self.0.iter().map(|&c| c * k).collect())
    }

    /// Projection of `self` onto the hyperplane `p·x = 0`
    /// (Definition 3 of the paper): `self − (self·p / p·p) p`.
    ///
    /// Panics if `p` is the zero vector.
    pub fn project(&self, p: &QVec) -> QVec {
        let pp = p.dot(p);
        assert!(!pp.is_zero(), "projection along the zero vector");
        let k = self.dot(p) / pp;
        self.clone() - p.scale(k)
    }
}

impl Index<usize> for QVec {
    type Output = Ratio;
    fn index(&self, i: usize) -> &Ratio {
        &self.0[i]
    }
}

impl IndexMut<usize> for QVec {
    fn index_mut(&mut self, i: usize) -> &mut Ratio {
        &mut self.0[i]
    }
}

impl Add for QVec {
    type Output = QVec;
    fn add(self, rhs: QVec) -> QVec {
        &self + &rhs
    }
}

impl Add for &QVec {
    type Output = QVec;
    fn add(self, rhs: &QVec) -> QVec {
        assert_eq!(self.dim(), rhs.dim(), "add of mismatched dimensions");
        QVec(self.0.iter().zip(&rhs.0).map(|(&a, &b)| a + b).collect())
    }
}

impl Sub for QVec {
    type Output = QVec;
    fn sub(self, rhs: QVec) -> QVec {
        &self - &rhs
    }
}

impl Sub for &QVec {
    type Output = QVec;
    fn sub(self, rhs: &QVec) -> QVec {
        assert_eq!(self.dim(), rhs.dim(), "sub of mismatched dimensions");
        QVec(self.0.iter().zip(&rhs.0).map(|(&a, &b)| a - b).collect())
    }
}

impl Neg for QVec {
    type Output = QVec;
    fn neg(self) -> QVec {
        QVec(self.0.into_iter().map(|c| -c).collect())
    }
}

impl fmt::Debug for QVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for QVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_obs::SplitMix64;

    #[test]
    fn paper_example1_projection() {
        // Loop L1, Π = (1,1): index point (3,0) projects to (3/2, −3/2).
        let pi = QVec::from_ints(&[1, 1]);
        let p = QVec::from_ints(&[3, 0]).project(&pi);
        assert_eq!(p, QVec::new(vec![Ratio::new(3, 2), Ratio::new(-3, 2)]));
        // Projected point lies on the zero-hyperplane.
        assert!(p.dot(&pi).is_zero());
    }

    #[test]
    fn paper_example2_projected_dependences() {
        // Matmul, Π = (1,1,1): d_A = (0,1,0) projects to (−1/3, 2/3, −1/3).
        let pi = QVec::from_ints(&[1, 1, 1]);
        let da = QVec::from_ints(&[0, 1, 0]).project(&pi);
        assert_eq!(
            da,
            QVec::new(vec![Ratio::new(-1, 3), Ratio::new(2, 3), Ratio::new(-1, 3)])
        );
    }

    #[test]
    fn arithmetic_and_indexing() {
        let a = QVec::from_ints(&[1, 2]);
        let b = QVec::from_ints(&[3, -1]);
        assert_eq!(&a + &b, QVec::from_ints(&[4, 1]));
        assert_eq!(&a - &b, QVec::from_ints(&[-2, 3]));
        assert_eq!(-a.clone(), QVec::from_ints(&[-1, -2]));
        assert_eq!(a.dot(&b), Ratio::int(1));
        assert_eq!(a[1], Ratio::int(2));
        let mut c = a.clone();
        c[0] = Ratio::new(1, 2);
        assert_eq!(c, QVec::new(vec![Ratio::new(1, 2), Ratio::int(2)]));
    }

    #[test]
    fn display_format() {
        let v = QVec::new(vec![Ratio::new(-1, 3), Ratio::int(2)]);
        assert_eq!(v.to_string(), "(-1/3, 2)");
    }

    /// Deterministic property harness: random small integer 3-vectors,
    /// with a non-zero projection direction.
    fn for_random_vecs(seed: u64, check: impl Fn(QVec, QVec, QVec)) {
        let mut rng = SplitMix64::new(seed);
        let small_ivec = |rng: &mut SplitMix64| {
            QVec::from_ints(&[
                rng.range_i64(-20, 20),
                rng.range_i64(-20, 20),
                rng.range_i64(-20, 20),
            ])
        };
        for _ in 0..256 {
            let a = small_ivec(&mut rng);
            let b = small_ivec(&mut rng);
            let p = loop {
                let p = small_ivec(&mut rng);
                if !p.is_zero() {
                    break p;
                }
            };
            check(a, b, p);
        }
    }

    #[test]
    fn projection_lands_on_zero_hyperplane() {
        for_random_vecs(1, |j, _, p| {
            assert!(j.project(&p).dot(&p).is_zero(), "{j} onto {p}");
        });
    }

    #[test]
    fn projection_is_idempotent() {
        for_random_vecs(2, |j, _, p| {
            let once = j.project(&p);
            assert_eq!(once.project(&p), once, "{j} onto {p}");
        });
    }

    #[test]
    fn projection_is_linear() {
        for_random_vecs(3, |a, b, p| {
            let lhs = (&a + &b).project(&p);
            let rhs = &a.project(&p) + &b.project(&p);
            assert_eq!(lhs, rhs, "{a} {b} onto {p}");
        });
    }
}
