//! Integer linear algebra: column echelon (Hermite-style) reduction,
//! rank, integer system solving, and integer nullspace lattice bases.
//!
//! Dependence extraction must answer "does `U d = c` have an *integer*
//! solution `d`, and what lattice do the solutions form?" — rational
//! elimination alone can miss integer solutions (its particular solution
//! may be fractional even when an integer one exists), so we reduce with
//! unimodular column operations instead.

use crate::NumericError;
use std::fmt;

/// A dense integer matrix, row-major, with `i64` entries.
///
/// All internal arithmetic is widened to `i128` and checked on the way
/// back down; overflow panics (inputs in this project are tiny subscript
/// coefficients).
#[derive(Clone, PartialEq, Eq)]
pub struct IMat {
    rows: usize,
    cols: usize,
    data: Vec<i64>,
}

impl IMat {
    /// A zero matrix.
    pub fn zero(rows: usize, cols: usize) -> IMat {
        IMat {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// The identity of size `n`.
    pub fn identity(n: usize) -> IMat {
        let mut m = IMat::zero(n, n);
        for i in 0..n {
            m[(i, i)] = 1;
        }
        m
    }

    /// Build from rows. Panics on ragged input.
    pub fn from_rows(rows: &[&[i64]]) -> IMat {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged matrix rows");
            data.extend_from_slice(row);
        }
        IMat {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Column `j` as a vector.
    pub fn col(&self, j: usize) -> Vec<i64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Matrix–vector product. Panics on overflow; see
    /// [`try_mul_vec`](IMat::try_mul_vec) for the fallible variant.
    pub fn mul_vec(&self, v: &[i64]) -> Vec<i64> {
        self.try_mul_vec(v).expect("mat-vec overflow")
    }

    /// Matrix–vector product, reporting overflow instead of panicking.
    pub fn try_mul_vec(&self, v: &[i64]) -> Result<Vec<i64>, NumericError> {
        assert_eq!(v.len(), self.cols, "mat-vec dimension mismatch");
        (0..self.rows)
            .map(|i| {
                let s: i128 = (0..self.cols)
                    .map(|j| self[(i, j)] as i128 * v[j] as i128)
                    .sum();
                i64::try_from(s).map_err(|_| NumericError::Overflow {
                    context: "matrix-vector product",
                })
            })
            .collect()
    }

    /// Column operation `col[j] -= q * col[k]`.
    fn col_sub(&mut self, j: usize, q: i64, k: usize) -> Result<(), NumericError> {
        for i in 0..self.rows {
            let v = self[(i, j)] as i128 - q as i128 * self[(i, k)] as i128;
            self[(i, j)] = i64::try_from(v).map_err(|_| NumericError::Overflow {
                context: "column operation",
            })?;
        }
        Ok(())
    }

    fn col_swap(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for i in 0..self.rows {
            let t = self[(i, a)];
            self[(i, a)] = self[(i, b)];
            self[(i, b)] = t;
        }
    }

    fn col_neg(&mut self, j: usize) {
        for i in 0..self.rows {
            self[(i, j)] = -self[(i, j)];
        }
    }
}

impl std::ops::Index<(usize, usize)> for IMat {
    type Output = i64;
    fn index(&self, (i, j): (usize, usize)) -> &i64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of range");
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for IMat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut i64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of range");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for IMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            writeln!(f, "{:?}", &self.data[i * self.cols..(i + 1) * self.cols])?;
        }
        Ok(())
    }
}

/// The result of unimodular column reduction: `original · u = h` with `u`
/// unimodular and `h` in column-echelon form (each pivot row has its pivot
/// as the only nonzero among columns at or after the pivot column).
pub struct ColEchelon {
    /// The reduced matrix.
    pub h: IMat,
    /// The accumulated unimodular transform.
    pub u: IMat,
    /// `(row, col)` of each pivot, in increasing row and column order.
    pub pivots: Vec<(usize, usize)>,
}

/// Reduce `a` by unimodular column operations to column-echelon form.
/// Panics on overflow; see [`try_col_echelon`] for the fallible variant.
pub fn col_echelon(a: &IMat) -> ColEchelon {
    try_col_echelon(a).expect("column op overflow")
}

/// [`col_echelon`], reporting overflow instead of panicking.
pub fn try_col_echelon(a: &IMat) -> Result<ColEchelon, NumericError> {
    let mut h = a.clone();
    let mut u = IMat::identity(a.cols());
    let mut pivots = Vec::new();
    let mut c = 0;
    for r in 0..a.rows() {
        if c == a.cols() {
            break;
        }
        // Reduce row r across columns c.. to a single nonzero via gcd steps.
        loop {
            // Find the column with the smallest nonzero magnitude in row r.
            let mut best: Option<usize> = None;
            for j in c..a.cols() {
                if h[(r, j)] != 0 && best.is_none_or(|b| h[(r, j)].abs() < h[(r, b)].abs()) {
                    best = Some(j);
                }
            }
            let Some(p) = best else { break };
            h.col_swap(c, p);
            u.col_swap(c, p);
            let mut done = true;
            for j in (c + 1)..a.cols() {
                if h[(r, j)] != 0 {
                    let q = h[(r, j)].div_euclid(h[(r, c)]);
                    h.col_sub(j, q, c)?;
                    u.col_sub(j, q, c)?;
                    if h[(r, j)] != 0 {
                        done = false;
                    }
                }
            }
            if done {
                break;
            }
        }
        if h[(r, c)] != 0 {
            if h[(r, c)] < 0 {
                h.col_neg(c);
                u.col_neg(c);
            }
            pivots.push((r, c));
            c += 1;
        }
    }
    Ok(ColEchelon { h, u, pivots })
}

/// The rank of `a` (over ℚ, equally over ℤ): the pivot count of its
/// column echelon form, since unimodular column steps preserve rank.
/// Panics on overflow.
pub fn rank(a: &IMat) -> usize {
    col_echelon(a).pivots.len()
}

/// Solve `a · x = b` over the integers.
///
/// Returns `Some((x0, basis))` where `x0` is one integer solution and
/// `basis` generates the lattice of homogeneous solutions (so the full
/// solution set is `x0 + Σ tₖ·basisₖ`, `tₖ ∈ ℤ`); `None` if no integer
/// solution exists. Panics on overflow; see [`try_solve_integer`] for
/// the fallible variant.
#[allow(clippy::type_complexity)]
pub fn solve_integer(a: &IMat, b: &[i64]) -> Option<(Vec<i64>, Vec<Vec<i64>>)> {
    try_solve_integer(a, b).expect("solution overflow")
}

/// [`solve_integer`], reporting overflow instead of panicking. The
/// outer `Result` carries numeric failure; the inner `Option` is
/// `None` when the system has no integer solution.
#[allow(clippy::type_complexity)]
pub fn try_solve_integer(
    a: &IMat,
    b: &[i64],
) -> Result<Option<(Vec<i64>, Vec<Vec<i64>>)>, NumericError> {
    assert_eq!(a.rows(), b.len(), "solve_integer: rhs dimension mismatch");
    let e = try_col_echelon(a)?;
    // Forward-substitute h·y = b on pivot entries; non-pivot rows must
    // have zero residual.
    let mut y = vec![0i64; a.cols()];
    let mut pividx = 0;
    for (r, &br) in b.iter().enumerate() {
        let residual: i128 = br as i128
            - (0..a.cols())
                .map(|j| e.h[(r, j)] as i128 * y[j] as i128)
                .sum::<i128>();
        if pividx < e.pivots.len() && e.pivots[pividx].0 == r {
            let (_, c) = e.pivots[pividx];
            let piv = e.h[(r, c)] as i128;
            if residual % piv != 0 {
                return Ok(None);
            }
            y[c] = i64::try_from(residual / piv).map_err(|_| NumericError::Overflow {
                context: "integer solve back-substitution",
            })?;
            pividx += 1;
        } else if residual != 0 {
            return Ok(None);
        }
    }
    let x0 = e.u.try_mul_vec(&y)?;
    let pivot_cols: Vec<usize> = e.pivots.iter().map(|&(_, c)| c).collect();
    let basis = (0..a.cols())
        .filter(|j| !pivot_cols.contains(j))
        .map(|j| e.u.col(j))
        .collect();
    Ok(Some((x0, basis)))
}

/// A lattice basis for the integer nullspace of `a` (all integer `x` with
/// `a·x = 0`). Panics on overflow; see [`try_integer_nullspace`] for the
/// fallible variant.
pub fn integer_nullspace(a: &IMat) -> Vec<Vec<i64>> {
    try_integer_nullspace(a).expect("column op overflow")
}

/// [`integer_nullspace`], reporting overflow instead of panicking.
pub fn try_integer_nullspace(a: &IMat) -> Result<Vec<Vec<i64>>, NumericError> {
    Ok(try_solve_integer(a, &vec![0; a.rows()])?
        .expect("homogeneous system is always solvable")
        .1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_obs::SplitMix64;

    #[test]
    fn echelon_reproduces_product() {
        let a = IMat::from_rows(&[&[2, 4, 4], &[-6, 6, 12], &[10, 4, 16]]);
        let e = col_echelon(&a);
        // a · u == h must hold exactly.
        for j in 0..a.cols() {
            assert_eq!(a.mul_vec(&e.u.col(j)), e.h.col(j));
        }
        // Pivot rows have zeros right of the pivot.
        for &(r, c) in &e.pivots {
            for j in (c + 1)..a.cols() {
                assert_eq!(e.h[(r, j)], 0);
            }
            assert!(e.h[(r, c)] > 0);
        }
    }

    #[test]
    fn solve_full_rank() {
        let a = IMat::from_rows(&[&[1, 0], &[0, 1]]);
        let (x0, basis) = solve_integer(&a, &[3, -4]).unwrap();
        assert_eq!(x0, vec![3, -4]);
        assert!(basis.is_empty());
    }

    #[test]
    fn solve_needs_unimodular_moves() {
        // 2x + y = 1 has the integer solution (0, 1); naive rational
        // elimination with free vars at zero would propose (1/2, 0).
        let a = IMat::from_rows(&[&[2, 1]]);
        let (x0, basis) = solve_integer(&a, &[1]).unwrap();
        assert_eq!(a.mul_vec(&x0), vec![1]);
        assert_eq!(basis.len(), 1);
        assert_eq!(a.mul_vec(&basis[0]), vec![0]);
    }

    #[test]
    fn solve_no_integer_solution() {
        // 2x = 1 has no integer solution.
        let a = IMat::from_rows(&[&[2]]);
        assert!(solve_integer(&a, &[1]).is_none());
        // Inconsistent system.
        let a2 = IMat::from_rows(&[&[1], &[1]]);
        assert!(solve_integer(&a2, &[0, 1]).is_none());
    }

    #[test]
    fn nullspace_of_subscript_selections() {
        // Matmul's A[i,k] access in an (i,j,k) nest: U = [[1,0,0],[0,0,1]];
        // nullspace lattice is generated by (0,1,0) — the paper's d_A.
        let u = IMat::from_rows(&[&[1, 0, 0], &[0, 0, 1]]);
        let ns = integer_nullspace(&u);
        assert_eq!(ns.len(), 1);
        let g = &ns[0];
        assert_eq!(g[0], 0);
        assert_eq!(g[2], 0);
        assert_eq!(g[1].abs(), 1);
    }

    #[test]
    fn zero_matrix_nullspace() {
        let z = IMat::zero(2, 3);
        let ns = integer_nullspace(&z);
        assert_eq!(ns.len(), 3);
    }

    /// Deterministic property harness: random integer matrices with
    /// entries in [-4, 4].
    fn small_mat(rng: &mut SplitMix64, r: usize, c: usize) -> IMat {
        let mut m = IMat::zero(r, c);
        for i in 0..r {
            for j in 0..c {
                m[(i, j)] = rng.range_i64(-4, 5);
            }
        }
        m
    }

    fn for_random_mats(seed: u64, check: impl Fn(&mut SplitMix64, IMat)) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..128 {
            let m = small_mat(&mut rng, 3, 4);
            check(&mut rng, m);
        }
    }

    #[test]
    fn echelon_transform_is_consistent() {
        for_random_mats(1, |_, a| {
            let e = col_echelon(&a);
            for j in 0..4 {
                assert_eq!(a.mul_vec(&e.u.col(j)), e.h.col(j), "{a:?}");
            }
        });
    }

    #[test]
    fn solutions_verify() {
        for_random_mats(2, |rng, a| {
            // Construct b so a solution is guaranteed, then verify what we find.
            let x: Vec<i64> = (0..4).map(|_| rng.range_i64(-4, 5)).collect();
            let b = a.mul_vec(&x);
            let (x0, basis) = solve_integer(&a, &b).expect("constructed system must be solvable");
            assert_eq!(a.mul_vec(&x0), b.clone(), "{a:?}");
            for g in &basis {
                assert_eq!(a.mul_vec(g), vec![0; 3], "{a:?}");
                // Shifted solutions remain solutions.
                let shifted: Vec<i64> = x0.iter().zip(g).map(|(a, b)| a + b).collect();
                assert_eq!(a.mul_vec(&shifted), b.clone(), "{a:?}");
            }
        });
    }

    #[test]
    fn try_variants_agree_with_panicking_ones() {
        let a = IMat::from_rows(&[&[2, 4, 4], &[-6, 6, 12], &[10, 4, 16]]);
        let e = try_col_echelon(&a).unwrap();
        assert_eq!(e.h, col_echelon(&a).h);
        assert_eq!(
            try_solve_integer(&a, &[0, 0, 0]).unwrap(),
            solve_integer(&a, &[0, 0, 0])
        );
        assert_eq!(try_integer_nullspace(&a).unwrap(), integer_nullspace(&a));
    }

    #[test]
    fn overflow_reported_not_panicked() {
        // gcd steps on near-i64-max coprime entries overflow the column
        // updates; the try_ path must surface that as an error.
        let a = IMat::from_rows(&[&[i64::MAX, i64::MAX - 1], &[1, i64::MIN + 1]]);
        assert!(matches!(
            try_col_echelon(&a),
            Err(NumericError::Overflow { .. }) | Ok(_)
        ));
        let b = IMat::from_rows(&[&[i64::MAX, i64::MAX]]);
        assert!(matches!(
            b.try_mul_vec(&[i64::MAX, i64::MAX]),
            Err(NumericError::Overflow { .. })
        ));
    }

    #[test]
    fn nullspace_rank_complement() {
        for_random_mats(3, |_, a| {
            let e = col_echelon(&a);
            assert_eq!(integer_nullspace(&a).len(), 4 - e.pivots.len(), "{a:?}");
        });
    }

    #[test]
    fn rank_cases() {
        assert_eq!(rank(&IMat::identity(4)), 4);
        assert_eq!(rank(&IMat::zero(3, 3)), 0);
        assert_eq!(rank(&IMat::zero(0, 2)), 0);
        assert_eq!(rank(&IMat::from_rows(&[&[1, 2], &[2, 4]])), 1);
        assert_eq!(rank(&IMat::from_rows(&[&[1, 0, 5], &[0, 1, 7]])), 2);
        assert_eq!(rank(&IMat::from_rows(&[&[2], &[3]])), 1);
    }

    #[test]
    fn rank_of_paper_projected_matmul_deps() {
        // Matmul with Π = (1,1,1): the line coordinates x_j − x_0 (j = 1, 2)
        // of d_A = (0,1,0), d_B = (1,0,0), d_C = (0,0,1). The paper states
        // rank(mat(D^p)) = 2.
        let keys = IMat::from_rows(&[&[1, 0], &[-1, -1], &[0, 1]]);
        assert_eq!(rank(&keys), 2);
        assert_eq!(rank(&IMat::from_rows(&[&[1, 0], &[-1, -1]])), 2);
    }

    fn transpose(a: &IMat) -> IMat {
        let mut t = IMat::zero(a.cols(), a.rows());
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                t[(j, i)] = a[(i, j)];
            }
        }
        t
    }

    #[test]
    fn rank_plus_nullity() {
        // Wide (3×4) and tall (4×3) matrices alike: rank + nullity = cols.
        for_random_mats(5, |_, a| {
            assert_eq!(rank(&a) + integer_nullspace(&a).len(), 4, "{a:?}");
            let t = transpose(&a);
            assert_eq!(rank(&t) + integer_nullspace(&t).len(), 3, "{t:?}");
        });
    }

    #[test]
    fn rank_bounds() {
        for_random_mats(4, |_, a| {
            let r = rank(&a);
            assert!(r <= 3, "{a:?}");
            assert_eq!(r, rank(&transpose(&a)), "{a:?}");
        });
    }
}
