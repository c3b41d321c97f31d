//! The linear time transformation Π.

use crate::Error;
use loom_loopir::{Aff, IterSpace, Point};
use std::fmt;

/// A linear time transformation `Π = (a₁, …, aₙ)`: iteration `x` executes
/// at step `Π·x`.
///
/// ```
/// use loom_hyperplane::TimeFn;
/// let pi = TimeFn::new(vec![1, 1]);
/// assert!(pi.is_legal_for(&[vec![0, 1], vec![1, 0], vec![1, 1]]));
/// assert_eq!(pi.time_of(&[2, 3]), 5);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimeFn {
    coeffs: Vec<i64>,
}

impl TimeFn {
    /// Wrap a coefficient vector.
    pub fn new(coeffs: Vec<i64>) -> TimeFn {
        TimeFn { coeffs }
    }

    /// The wavefront transformation `Π = (1, 1, …, 1)` — legal whenever
    /// all dependences have positive coordinate sums, which holds for all
    /// the paper's example loops.
    pub fn wavefront(n: usize) -> TimeFn {
        TimeFn { coeffs: vec![1; n] }
    }

    /// Coefficients.
    pub fn coeffs(&self) -> &[i64] {
        &self.coeffs
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.coeffs.len()
    }

    /// Execution step of an iteration point: `Π·x`.
    pub fn time_of(&self, point: &[i64]) -> i64 {
        assert_eq!(point.len(), self.dim(), "time_of: arity mismatch");
        self.coeffs.iter().zip(point).map(|(&a, &x)| a * x).sum()
    }

    /// `Π·d` for a dependence vector.
    pub fn dot(&self, d: &[i64]) -> i64 {
        self.time_of(d)
    }

    /// `true` iff `Π·d > 0` for every dependence in `deps`.
    pub fn is_legal_for(&self, deps: &[Point]) -> bool {
        deps.iter().all(|d| self.dot(d) > 0)
    }

    /// Check legality, reporting the first violated dependence.
    pub fn check_legal(&self, deps: &[Point]) -> Result<(), Error> {
        for d in deps {
            if d.len() != self.dim() {
                return Err(Error::DimMismatch {
                    expected: self.dim(),
                    found: d.len(),
                });
            }
            if d.iter().all(|&x| x == 0) {
                return Err(Error::ZeroDependence);
            }
            if self.dot(d) <= 0 {
                return Err(Error::Illegal {
                    dependence: d.clone(),
                });
            }
        }
        Ok(())
    }

    /// The smallest and largest step over an index set, or `None` for an
    /// empty space. Exact for any affine-bounded space; rectangular
    /// (constant-bound) spaces use a closed form — the extremes of a
    /// linear `Π·x` over a box decompose per dimension — so sizes whose
    /// lattice could never be walked still sort in O(dim). Coupled
    /// bounds walk the space's rows ([`IterSpace::range_of`]).
    pub fn step_range(&self, space: &IterSpace) -> Option<(i64, i64)> {
        if space.dim() == self.dim()
            && space.dim() > 0
            && (0..space.dim())
                .all(|j| space.lower(j).is_constant() && space.upper(j).is_constant())
        {
            let (mut lo_sum, mut hi_sum) = (0i64, 0i64);
            for j in 0..space.dim() {
                let lo = space.lower(j).constant_term();
                let hi = space.upper(j).constant_term();
                if lo > hi {
                    return None;
                }
                let (a, b) = (self.coeffs[j] * lo, self.coeffs[j] * hi);
                lo_sum += a.min(b);
                hi_sum += a.max(b);
            }
            return Some((lo_sum, hi_sum));
        }
        space.range_of(&Aff::new(self.coeffs.clone(), 0))
    }

    /// Number of distinct execution steps (`max − min + 1`) over a space;
    /// 0 for an empty space. Note: counts the step *span*, which for a
    /// connected index set equals the number of populated hyperplanes.
    pub fn steps(&self, space: &IterSpace) -> i64 {
        self.step_range(space).map_or(0, |(lo, hi)| hi - lo + 1)
    }
}

impl fmt::Debug for TimeFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for TimeFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Π=(")?;
        for (i, c) in self.coeffs.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legality_paper_l1() {
        let pi = TimeFn::new(vec![1, 1]);
        let d = vec![vec![0, 1], vec![1, 1], vec![1, 0]];
        assert!(pi.is_legal_for(&d));
        assert!(pi.check_legal(&d).is_ok());
        // (1, -1) would break d1 = (0,1)? (1,-1)·(0,1) = -1 ≤ 0.
        let bad = TimeFn::new(vec![1, -1]);
        assert!(!bad.is_legal_for(&d));
        assert_eq!(
            bad.check_legal(&d),
            Err(Error::Illegal {
                dependence: vec![0, 1]
            })
        );
    }

    #[test]
    fn zero_dependence_rejected() {
        let pi = TimeFn::new(vec![1, 1]);
        assert_eq!(pi.check_legal(&[vec![0, 0]]), Err(Error::ZeroDependence));
    }

    #[test]
    fn dim_mismatch_detected() {
        let pi = TimeFn::new(vec![1, 1]);
        assert!(matches!(
            pi.check_legal(&[vec![1, 0, 0]]),
            Err(Error::DimMismatch { .. })
        ));
    }

    #[test]
    fn steps_over_rect() {
        let pi = TimeFn::new(vec![1, 1]);
        let s = IterSpace::rect(&[4, 4]).unwrap();
        // i+j over 0..=3 × 0..=3 spans 0..=6 → 7 hyperplanes (paper Fig. 1).
        assert_eq!(pi.step_range(&s), Some((0, 6)));
        assert_eq!(pi.steps(&s), 7);
    }

    #[test]
    fn steps_matmul() {
        let pi = TimeFn::wavefront(3);
        let s = IterSpace::rect(&[4, 4, 4]).unwrap();
        assert_eq!(pi.steps(&s), 10); // 0..=9
    }

    #[test]
    fn steps_empty_space() {
        let s = IterSpace::rect_bounds(&[1], &[0]).unwrap();
        assert_eq!(TimeFn::new(vec![1]).steps(&s), 0);
    }

    #[test]
    fn display() {
        assert_eq!(TimeFn::new(vec![2, -1]).to_string(), "Π=(2,-1)");
    }
}
