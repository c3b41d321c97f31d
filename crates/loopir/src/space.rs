//! The index set `Jⁿ` — iteration spaces with affine bounds.

use crate::aff::Aff;
use crate::{Error, Point};
use std::ops::ControlFlow;

/// The index set `Jⁿ = {(i₁,…,iₙ) | l_j ≤ i_j ≤ u_j}` of an `n`-nested
/// loop, where each bound is an affine expression that may reference
/// *outer* indices only (as in the paper's loop model; strides are
/// normalized to 1).
///
/// ```
/// use loom_loopir::IterSpace;
/// let s = IterSpace::rect(&[4, 4]).unwrap(); // 0..=3 × 0..=3
/// assert_eq!(s.points().count(), 16);
/// assert!(s.contains(&[3, 0]));
/// assert!(!s.contains(&[4, 0]));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IterSpace {
    lo: Vec<Aff>,
    hi: Vec<Aff>,
}

impl IterSpace {
    /// A rectangular space `0 ≤ i_j < sizes[j]` (i.e. upper bound
    /// `sizes[j] − 1` inclusive, matching the paper's `for i = 0 to u`).
    pub fn rect(sizes: &[i64]) -> Result<IterSpace, Error> {
        let n = sizes.len();
        if n == 0 {
            return Err(Error::Empty);
        }
        let lo = (0..n).map(|_| Aff::constant(n, 0)).collect();
        let hi = sizes.iter().map(|&s| Aff::constant(n, s - 1)).collect();
        IterSpace::new(lo, hi)
    }

    /// A rectangular space with explicit inclusive integer bounds.
    pub fn rect_bounds(lo: &[i64], hi: &[i64]) -> Result<IterSpace, Error> {
        if lo.len() != hi.len() {
            return Err(Error::DimMismatch {
                what: "rect_bounds",
                expected: lo.len(),
                found: hi.len(),
            });
        }
        if lo.is_empty() {
            return Err(Error::Empty);
        }
        let n = lo.len();
        IterSpace::new(
            lo.iter().map(|&l| Aff::constant(n, l)).collect(),
            hi.iter().map(|&h| Aff::constant(n, h)).collect(),
        )
    }

    /// A space with general affine bounds (inclusive). Each bound of loop
    /// `j` may only reference indices `0..j`.
    pub fn new(lo: Vec<Aff>, hi: Vec<Aff>) -> Result<IterSpace, Error> {
        if lo.len() != hi.len() {
            return Err(Error::DimMismatch {
                what: "IterSpace bounds",
                expected: lo.len(),
                found: hi.len(),
            });
        }
        let n = lo.len();
        if n == 0 {
            return Err(Error::Empty);
        }
        for (level, b) in lo.iter().chain(hi.iter()).enumerate() {
            let level = level % n;
            if b.dim() != n {
                return Err(Error::DimMismatch {
                    what: "bound expression",
                    expected: n,
                    found: b.dim(),
                });
            }
            if let Some(mv) = b.max_var() {
                if mv >= level {
                    return Err(Error::ForwardBound { level });
                }
            }
        }
        Ok(IterSpace { lo, hi })
    }

    /// Dimensionality `n`.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Lower-bound expression of loop `j`.
    pub fn lower(&self, j: usize) -> &Aff {
        &self.lo[j]
    }

    /// Upper-bound expression of loop `j` (inclusive).
    pub fn upper(&self, j: usize) -> &Aff {
        &self.hi[j]
    }

    /// `true` iff `point` lies in the index set.
    pub fn contains(&self, point: &[i64]) -> bool {
        point.len() == self.dim()
            && (0..self.dim()).all(|j| {
                let x = point[j];
                self.lo[j].eval(point) <= x && x <= self.hi[j].eval(point)
            })
    }

    /// Number of index points (exact for affine bounds).
    pub fn count(&self) -> usize {
        self.count_at_most(u64::MAX).unwrap_or(u64::MAX) as usize
    }

    /// The number of index points if it is at most `cap`, else `None`.
    ///
    /// Walks only the outer `n−1` loops and adds each innermost extent
    /// `max(0, hi−lo+1)` in O(1), stopping as soon as the total passes
    /// `cap`: proving a 10¹²-point space over a small cap costs one
    /// inner row, not a full enumeration.
    ///
    /// ```
    /// use loom_loopir::IterSpace;
    /// let s = IterSpace::rect(&[1000, 1000]).unwrap();
    /// assert_eq!(s.count_at_most(1_000_000), Some(1_000_000));
    /// assert_eq!(s.count_at_most(999_999), None);
    /// ```
    pub fn count_at_most(&self, cap: u64) -> Option<u64> {
        let mut total = 0u64;
        self.for_each_row(|_, lo, hi| {
            total = total.saturating_add(hi.abs_diff(lo).saturating_add(1));
            if total > cap {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        (total <= cap).then_some(total)
    }

    /// Iterate over all index points in lexicographic order.
    pub fn points(&self) -> PointIter<'_> {
        PointIter::new(self)
    }

    /// Visit every point in lexicographic order — the order of
    /// [`IterSpace::points`] — through one reused buffer, so the walk
    /// allocates nothing per point.
    pub fn for_each_point(&self, mut visit: impl FnMut(&[i64])) {
        let inner = self.dim() - 1;
        let mut p = vec![0i64; self.dim()];
        self.for_each_row(|prefix, lo, hi| {
            p[..inner].copy_from_slice(&prefix[..inner]);
            for x in lo..=hi {
                p[inner] = x;
                visit(&p);
            }
            ControlFlow::Continue(())
        });
    }

    /// The smallest and largest value of an affine function over the
    /// space, or `None` for an empty space: exactly the extremes over
    /// every point, found at the two ends of each innermost row, where a
    /// linear function along the row takes them. Only the outer `n−1`
    /// loops are walked, and nothing is allocated per point.
    ///
    /// Panics if `f` is not over the space's `n` indices.
    ///
    /// ```
    /// use loom_loopir::{aff::Aff, IterSpace};
    /// // The triangle 0 ≤ j ≤ i ≤ 3.
    /// let n = 2;
    /// let s = IterSpace::new(
    ///     vec![Aff::constant(n, 0), Aff::constant(n, 0)],
    ///     vec![Aff::constant(n, 3), Aff::var(n, 0)],
    /// )
    /// .unwrap();
    /// assert_eq!(s.range_of(&Aff::new(vec![1, -2], 0)), Some((-3, 3)));
    /// ```
    pub fn range_of(&self, f: &Aff) -> Option<(i64, i64)> {
        assert_eq!(f.dim(), self.dim(), "range_of: arity mismatch");
        let inner = self.dim() - 1;
        let c = f.coeff(inner);
        let mut range: Option<(i64, i64)> = None;
        self.for_each_row(|prefix, lo, hi| {
            let base = f.constant_term() + (0..inner).map(|j| f.coeff(j) * prefix[j]).sum::<i64>();
            let (a, b) = (base + c * lo, base + c * hi);
            let (a, b) = (a.min(b), a.max(b));
            range = Some(range.map_or((a, b), |(l, h)| (l.min(a), h.max(b))));
            ControlFlow::Continue(())
        });
        range
    }

    /// The bounding box `[min_j, max_j]` of each coordinate over the whole
    /// space (used by searches that need a finite coordinate range).
    /// An empty space yields `(0, −1)` per coordinate.
    pub fn bounding_box(&self) -> Vec<(i64, i64)> {
        let n = self.dim();
        let mut bb: Vec<Option<(i64, i64)>> = vec![None; n];
        self.for_each_row(|prefix, lo, hi| {
            for (j, slot) in bb.iter_mut().enumerate() {
                let (a, b) = if j + 1 == n {
                    (lo, hi)
                } else {
                    (prefix[j], prefix[j])
                };
                *slot = Some(slot.map_or((a, b), |(l, h)| (l.min(a), h.max(b))));
            }
            ControlFlow::Continue(())
        });
        bb.into_iter().map(|o| o.unwrap_or((0, -1))).collect()
    }

    /// Visit every non-empty innermost row in lexicographic order: the
    /// outer indices (innermost coordinate unspecified) and the row's
    /// inclusive bounds `lo ≤ hi`. Only the outer `n−1` loops are
    /// walked; `visit` may stop the walk early.
    fn for_each_row(&self, mut visit: impl FnMut(&[i64], i64, i64) -> ControlFlow<()>) {
        let inner = self.dim() - 1;
        let mut p = vec![0i64; self.dim()];
        // Upper bound of each outer loop at the current prefix. Bounds
        // only reference outer indices, so stale inner coordinates in
        // `p` never affect an evaluation.
        let mut his = vec![0i64; inner];
        let mut j = 0;
        loop {
            // Enter loops j.. at their lower bounds; an empty loop stops
            // the descent at `j`.
            while j < inner {
                let (lo, hi) = (self.lo[j].eval(&p), self.hi[j].eval(&p));
                if lo > hi {
                    break;
                }
                p[j] = lo;
                his[j] = hi;
                j += 1;
            }
            if j == inner {
                let (lo, hi) = (self.lo[inner].eval(&p), self.hi[inner].eval(&p));
                if lo <= hi && visit(&p, lo, hi).is_break() {
                    return;
                }
            }
            // Advance the deepest outer loop that is not exhausted.
            loop {
                if j == 0 {
                    return;
                }
                j -= 1;
                if p[j] < his[j] {
                    p[j] += 1;
                    j += 1;
                    break;
                }
            }
        }
    }
}

/// Lexicographic iterator over the points of an [`IterSpace`].
///
/// Handles affine (triangular) bounds: inner bounds are re-evaluated as the
/// outer indices advance. Loops whose bounds are momentarily empty
/// (`lo > hi`) contribute no points, matching `for` semantics.
pub struct PointIter<'a> {
    space: &'a IterSpace,
    current: Option<Point>,
}

impl<'a> PointIter<'a> {
    fn new(space: &'a IterSpace) -> PointIter<'a> {
        let mut p = vec![0; space.dim()];
        let found = Self::enter(space, &mut p, 0);
        PointIter {
            space,
            current: found.then_some(p),
        }
    }

    /// Enter loops `k..` at their lower bounds, the prefix `p[..k]`
    /// fixed. When a loop is empty, step the deepest outer loop with room
    /// and enter again below it. `false` when no point remains. Bounds
    /// only reference outer indices, so the stale inner coordinates of
    /// `p` never affect an evaluation.
    fn enter(space: &IterSpace, p: &mut [i64], mut k: usize) -> bool {
        loop {
            while k < p.len() {
                let (lo, hi) = (space.lo[k].eval(p), space.hi[k].eval(p));
                if lo > hi {
                    break;
                }
                p[k] = lo;
                k += 1;
            }
            if k == p.len() {
                return true;
            }
            if !Self::step(space, p, &mut k) {
                return false;
            }
        }
    }

    /// Advance the deepest loop above level `k` that has room, and set
    /// `k` to the level below it; `false` when every loop is exhausted.
    fn step(space: &IterSpace, p: &mut [i64], k: &mut usize) -> bool {
        while let Some(j) = k.checked_sub(1) {
            if p[j] < space.hi[j].eval(p) {
                p[j] += 1;
                *k = j + 1;
                return true;
            }
            *k = j;
        }
        false
    }
}

impl Iterator for PointIter<'_> {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        let p = self.current.as_mut()?;
        let out = p.clone();
        let mut k = p.len();
        if !(Self::step(self.space, p, &mut k) && Self::enter(self.space, p, k)) {
            self.current = None;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_enumeration_lex_order() {
        let s = IterSpace::rect(&[2, 3]).unwrap();
        let pts: Vec<_> = s.points().collect();
        assert_eq!(
            pts,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2]
            ]
        );
        assert_eq!(s.count(), 6);
    }

    #[test]
    fn rect_bounds_offset() {
        let s = IterSpace::rect_bounds(&[1, 1], &[3, 2]).unwrap();
        assert_eq!(s.count(), 6);
        assert!(s.contains(&[1, 1]));
        assert!(s.contains(&[3, 2]));
        assert!(!s.contains(&[0, 1]));
        assert!(!s.contains(&[3, 3]));
    }

    #[test]
    fn triangular_space() {
        // for i = 0..=3, for j = 0..=i  → 1+2+3+4 = 10 points.
        let n = 2;
        let lo = vec![Aff::constant(n, 0), Aff::constant(n, 0)];
        let hi = vec![Aff::constant(n, 3), Aff::var(n, 0)];
        let s = IterSpace::new(lo, hi).unwrap();
        assert_eq!(s.count(), 10);
        assert!(s.contains(&[2, 2]));
        assert!(!s.contains(&[2, 3]));
        let pts: Vec<_> = s.points().collect();
        assert_eq!(pts[0], vec![0, 0]);
        assert_eq!(pts[9], vec![3, 3]);
    }

    #[test]
    fn empty_inner_loop_skipped() {
        // for i = 0..=2, for j = i..=1: i=2 row is empty.
        let n = 2;
        let lo = vec![Aff::constant(n, 0), Aff::var(n, 0)];
        let hi = vec![Aff::constant(n, 2), Aff::constant(n, 1)];
        let s = IterSpace::new(lo, hi).unwrap();
        let pts: Vec<_> = s.points().collect();
        assert_eq!(pts, vec![vec![0, 0], vec![0, 1], vec![1, 1]]);
    }

    #[test]
    fn fully_empty_space() {
        let s = IterSpace::rect_bounds(&[2], &[1]).unwrap();
        assert_eq!(s.count(), 0);
        assert_eq!(s.bounding_box(), vec![(0, -1)]);
    }

    #[test]
    fn forward_bound_rejected() {
        let n = 2;
        // Lower bound of loop 0 references index 1.
        let lo = vec![Aff::var(n, 1), Aff::constant(n, 0)];
        let hi = vec![Aff::constant(n, 3), Aff::constant(n, 3)];
        assert_eq!(
            IterSpace::new(lo, hi).unwrap_err(),
            Error::ForwardBound { level: 0 }
        );
        // Self-reference also rejected.
        let lo2 = vec![Aff::constant(n, 0), Aff::var(n, 1)];
        let hi2 = vec![Aff::constant(n, 3), Aff::constant(n, 3)];
        assert_eq!(
            IterSpace::new(lo2, hi2).unwrap_err(),
            Error::ForwardBound { level: 1 }
        );
    }

    #[test]
    fn zero_dim_rejected() {
        assert_eq!(IterSpace::rect(&[]).unwrap_err(), Error::Empty);
    }

    #[test]
    fn bounding_box_triangular() {
        let n = 2;
        let lo = vec![Aff::constant(n, 0), Aff::var(n, 0)];
        let hi = vec![Aff::constant(n, 3), Aff::constant(n, 5)];
        let s = IterSpace::new(lo, hi).unwrap();
        assert_eq!(s.bounding_box(), vec![(0, 3), (0, 5)]);
    }

    /// Rectangular, offset, triangular and empty-inner-loop spaces in
    /// one to three dimensions, plus fully empty ones.
    fn corpus() -> Vec<IterSpace> {
        let n = 2;
        let tri = |lo, hi| IterSpace::new(lo, hi).unwrap();
        let mut out = vec![
            IterSpace::rect(&[7]).unwrap(),
            IterSpace::rect(&[2, 3]).unwrap(),
            IterSpace::rect(&[4, 4, 4]).unwrap(),
            IterSpace::rect_bounds(&[1, 1], &[3, 2]).unwrap(),
            IterSpace::rect_bounds(&[-3, 5, -1], &[2, 7, 1]).unwrap(),
            IterSpace::rect_bounds(&[2], &[1]).unwrap(),
            IterSpace::rect_bounds(&[0, 3], &[4, 2]).unwrap(),
            // for i = 0..=3, for j = 0..=i
            tri(
                vec![Aff::constant(n, 0), Aff::constant(n, 0)],
                vec![Aff::constant(n, 3), Aff::var(n, 0)],
            ),
            // for i = 0..=2, for j = i..=1: the i = 2 row is empty.
            tri(
                vec![Aff::constant(n, 0), Aff::var(n, 0)],
                vec![Aff::constant(n, 2), Aff::constant(n, 1)],
            ),
            // for i = 0..=3, for j = i..=5
            tri(
                vec![Aff::constant(n, 0), Aff::var(n, 0)],
                vec![Aff::constant(n, 3), Aff::constant(n, 5)],
            ),
        ];
        // for i = 0..=4, for j = 0..=2, for k = i..=j: empty inner rows
        // whenever i > j, and a middle loop that is never empty.
        let n = 3;
        out.push(tri(
            vec![Aff::constant(n, 0), Aff::constant(n, 0), Aff::var(n, 0)],
            vec![Aff::constant(n, 4), Aff::constant(n, 2), Aff::var(n, 1)],
        ));
        // for i = 0..=4, for j = 2..=i, for k = j..=i: the middle loop
        // is empty for i < 2.
        out.push(tri(
            vec![Aff::constant(n, 0), Aff::constant(n, 2), Aff::var(n, 1)],
            vec![Aff::constant(n, 4), Aff::var(n, 0), Aff::var(n, 0)],
        ));
        out
    }

    #[test]
    fn count_equals_enumeration_and_respects_the_cap() {
        for s in corpus() {
            let enumerated = s.points().count() as u64;
            assert_eq!(s.count() as u64, enumerated, "{s:?}");
            assert_eq!(s.count_at_most(u64::MAX), Some(enumerated), "{s:?}");
            assert_eq!(s.count_at_most(enumerated), Some(enumerated), "{s:?}");
            if enumerated > 0 {
                assert_eq!(s.count_at_most(enumerated - 1), None, "{s:?}");
            }
        }
    }

    #[test]
    fn for_each_point_visits_the_points_in_order() {
        for s in corpus() {
            let mut visited = Vec::new();
            s.for_each_point(|p| visited.push(p.to_vec()));
            assert_eq!(visited, s.points().collect::<Vec<_>>(), "{s:?}");
        }
    }

    #[test]
    fn bounding_box_equals_enumeration() {
        for s in corpus() {
            let mut bb: Vec<Option<(i64, i64)>> = vec![None; s.dim()];
            for p in s.points() {
                for (j, &x) in p.iter().enumerate() {
                    bb[j] = Some(bb[j].map_or((x, x), |(lo, hi)| (lo.min(x), hi.max(x))));
                }
            }
            let expect: Vec<_> = bb.into_iter().map(|o| o.unwrap_or((0, -1))).collect();
            assert_eq!(s.bounding_box(), expect, "{s:?}");
        }
    }

    #[test]
    fn count_at_most_stops_early_on_a_huge_space() {
        let s = IterSpace::rect(&[1_000_000, 1_000_000]).unwrap();
        assert_eq!(s.count_at_most(750_000), None);
        assert_eq!(s.count(), 1_000_000_000_000);
    }

    #[test]
    fn three_dim_count() {
        let s = IterSpace::rect(&[4, 4, 4]).unwrap();
        assert_eq!(s.count(), 64);
        let pts: Vec<_> = s.points().collect();
        assert_eq!(pts.len(), 64);
        // Strictly increasing lexicographic order.
        for w in pts.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
