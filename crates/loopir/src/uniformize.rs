//! Uniformization: folding variable-distance dependences into a finite
//! synthesized set of constant vectors.
//!
//! The hyperplane method — and everything downstream of it — requires
//! *uniform* dependences: a constant distance vector per conflicting
//! access pair. Access pairs whose linear subscript parts differ (for
//! example `A[2i] = A[i]`) induce distances that grow with the
//! iteration, so [`crate::deps::extract_dependences`] rejects them with
//! [`Error::NonUniform`]. Following the dependence-folding /
//! basic-vector-decomposition idea (Kale, Patil & Biswas,
//! arXiv:1311.2927), this pass instead *covers* the true dependence
//! relation: it synthesizes a small basis `V = {v₁ … v_m}` of constant
//! vectors such that every realized distance `d` is a non-negative
//! integer combination `d = Σ λ_k·v_k`. Any Π with `Π·v_k ≥ 1` for all
//! `k` then satisfies `Π·d = Σ λ_k·(Π·v_k) ≥ 1` for every realized
//! `d ≠ 0` — the folded nest is legal for the hyperplane method at
//! every size, at the price of possible over-synchronization (a cover
//! may admit combinations that never occur; rule `LC017` reports the
//! parallelism lost).
//!
//! The synthesis here is *sampling-based and certified elsewhere*: a
//! bounded lexicographic prefix of the iteration space is enumerated,
//! the conflict distances collected exactly, and a candidate basis
//! derived from their arithmetic structure (single scaled direction,
//! extreme rays of a planar cone, or independent directions). An exact
//! integer precheck — `d` in the column span, `λ = adj(VᵀV)·Vᵀ·d /
//! det(VᵀV)` integral and non-negative — re-validates every sample; a
//! failure is an honest [`FoldError::NoCover`] rejection, never a wrong
//! basis. The size-independent proof that the cover holds over the
//! *entire* space (not just the sampled prefix) is rule `LC016` in
//! `loom-check`, which re-derives the dependence relation with the
//! Presburger core and refutes every escape: a distance outside the
//! span, with a negative coefficient, or with a non-integral one.

use crate::access::Access;
use crate::deps::{
    extract_dependences_relaxed, kind_of, lex_sign, primitive_lex_positive, vector_set, DepOptions,
    Dependence, NonUniformPair,
};
use crate::nest::LoopNest;
use crate::{Error, Point};
use loom_rational::int::gcd_all;
use loom_rational::intlinalg::{try_col_echelon, IMat};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Iteration points enumerated when sampling conflict distances (a
/// lexicographic prefix of the space). The certificate check proves the
/// cover beyond the prefix, so the budget only bounds *synthesis* work.
const POINT_BUDGET: usize = 512;

/// Sampled conflict pairs examined per access pair before sampling
/// stops (the distance set is usually tiny long before this).
const CONFLICT_BUDGET: usize = 100_000;

/// Cap on `δ = det(VᵀV)` of a synthesized basis: the `LC016` residue
/// case split enumerates `δ − 1` systems per basis row, so an
/// unboundedly skewed lattice is rejected instead of certified slowly.
pub const DELTA_CAP: i128 = 16;

/// Why a nest could not be uniformized. Admission treats every variant
/// as "stay rejected": folding is best-effort and never wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FoldError {
    /// Dependence extraction itself failed (coefficient overflow).
    Extract(Error),
    /// No synthesized basis covers the sampled conflicts of a pair.
    NoCover {
        /// The array the pair accesses.
        array: String,
        /// The first access, rendered (`A[2i]`).
        a: String,
        /// The second access, rendered (`A[i]`).
        b: String,
        /// Human-readable reason.
        why: String,
    },
}

impl fmt::Display for FoldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FoldError::Extract(e) => write!(f, "{e}"),
            FoldError::NoCover { array, a, b, why } => write!(
                f,
                "accesses {a} and {b} to array `{array}` cannot be uniformized: {why}"
            ),
        }
    }
}

/// One folded non-uniform access pair: the pair identity plus the
/// synthesized basis covering its sampled conflict distances.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairFold {
    /// The underlying access pair.
    pub pair: NonUniformPair,
    /// The synthesized basis (lexicographically positive, linearly
    /// independent constant vectors). Empty iff the sampled prefix has
    /// no conflicts — the conflict-free claim `LC016` then proves (or
    /// refutes) for the whole space.
    pub basis: Vec<Point>,
    /// Number of sampled conflicting iteration pairs (budget-capped).
    pub conflicts: usize,
    /// `true` when the whole iteration space fit in the sampling
    /// budget, so the sampled distance set is exact.
    pub exhaustive: bool,
    /// Some conflict has the `a` iteration lexicographically first.
    pub forward: bool,
    /// Some conflict has the `b` iteration lexicographically first.
    pub backward: bool,
}

impl PairFold {
    /// The synthesized [`Dependence`] records of this fold: one per
    /// basis vector per conflict direction present in the samples.
    pub fn dependences(&self) -> Vec<Dependence> {
        let mut out = Vec::new();
        for v in &self.basis {
            if self.forward {
                out.push(Dependence {
                    vector: v.clone(),
                    kind: kind_of(self.pair.a_write, self.pair.b_write),
                    array: self.pair.array.clone(),
                    src_stmt: self.pair.a_stmt,
                    dst_stmt: self.pair.b_stmt,
                });
            }
            if self.backward {
                out.push(Dependence {
                    vector: v.clone(),
                    kind: kind_of(self.pair.b_write, self.pair.a_write),
                    array: self.pair.array.clone(),
                    src_stmt: self.pair.b_stmt,
                    dst_stmt: self.pair.a_stmt,
                });
            }
        }
        out
    }
}

/// The uniformization certificate: every non-uniform pair with its
/// synthesized cover, plus the resulting folded dependence set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Uniformization {
    /// Folds, one per non-uniform pair, in extraction order.
    pub pairs: Vec<PairFold>,
    /// The folded dependence records: the nest's uniform dependences
    /// plus the synthesized ones, sorted and deduplicated exactly as
    /// [`crate::deps::extract_dependences`] sorts.
    pub deps: Vec<Dependence>,
    /// The folded dependence-vector set `D`: distinct nonzero vectors,
    /// lexicographically sorted — what the partitioner consumes.
    pub vectors: Vec<Point>,
}

impl Uniformization {
    /// `true` when the nest needed no folding (it was already uniform).
    pub fn is_trivial(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Every synthesized vector across all folds, distinct and sorted.
    pub fn synthesized(&self) -> Vec<Point> {
        let set: BTreeSet<Point> = self
            .pairs
            .iter()
            .flat_map(|p| p.basis.iter().cloned())
            .collect();
        set.into_iter().collect()
    }
}

/// Fold every non-uniform dependence of `nest` into synthesized
/// constant vectors, leaving uniform dependences untouched.
///
/// For an already-uniform nest this returns a trivial certificate whose
/// `deps`/`vectors` equal the plain extractor's. Any pair whose sampled
/// conflicts defeat basis synthesis (mismatched access ranks, a
/// too-skewed lattice, a sample the candidate basis cannot reach with
/// non-negative integral coefficients) is a [`FoldError::NoCover`] —
/// the nest stays rejected rather than being admitted with a wrong
/// dependence set.
pub fn uniformize(nest: &LoopNest, opts: DepOptions) -> Result<Uniformization, FoldError> {
    let (mut deps, raw_pairs) =
        extract_dependences_relaxed(nest, opts).map_err(FoldError::Extract)?;
    let mut pairs = Vec::new();
    for pair in raw_pairs {
        let fold = fold_pair(nest, pair)?;
        deps.extend(fold.dependences());
        pairs.push(fold);
    }
    deps.sort_by(|a, b| {
        (&a.array, a.kind, &a.vector, a.src_stmt, a.dst_stmt)
            .cmp(&(&b.array, b.kind, &b.vector, b.src_stmt, b.dst_stmt))
    });
    deps.dedup();
    Ok(Uniformization {
        pairs,
        vectors: vector_set(&deps),
        deps,
    })
}

/// Synthesize a basis for one non-uniform pair.
fn fold_pair(nest: &LoopNest, pair: NonUniformPair) -> Result<PairFold, FoldError> {
    let no_cover = |pair: &NonUniformPair, why: String| FoldError::NoCover {
        array: pair.array.clone(),
        a: format!("{}", pair.a),
        b: format!("{}", pair.b),
        why,
    };
    if pair.a.rank() != pair.b.rank() {
        return Err(no_cover(
            &pair,
            format!(
                "the accesses have different ranks ({} vs {})",
                pair.a.rank(),
                pair.b.rank()
            ),
        ));
    }
    let samples = sample_conflicts(nest, &pair.a, &pair.b);
    let basis = synthesize_basis(&samples.distances).map_err(|why| no_cover(&pair, why))?;
    verify_cover_on_samples(&basis, &samples.distances).map_err(|why| no_cover(&pair, why))?;
    Ok(PairFold {
        pair,
        basis,
        conflicts: samples.conflicts,
        exhaustive: samples.exhaustive,
        forward: samples.forward,
        backward: samples.backward,
    })
}

/// The sampled conflict structure of one access pair.
struct ConflictSamples {
    /// Distinct realized distances, normalized lexicographically
    /// positive.
    distances: BTreeSet<Point>,
    conflicts: usize,
    exhaustive: bool,
    forward: bool,
    backward: bool,
}

/// Enumerate a lexicographic prefix of the space and collect every
/// conflicting iteration pair of `(a, b)` by exact element-address
/// matching.
fn sample_conflicts(nest: &LoopNest, a: &Access, b: &Access) -> ConflictSamples {
    let mut points: Vec<Point> = Vec::new();
    let mut exhaustive = true;
    for p in nest.space().points() {
        if points.len() == POINT_BUDGET {
            exhaustive = false;
            break;
        }
        points.push(p);
    }
    let mut by_element_a: BTreeMap<Vec<i64>, Vec<usize>> = BTreeMap::new();
    let mut by_element_b: BTreeMap<Vec<i64>, Vec<usize>> = BTreeMap::new();
    for (i, p) in points.iter().enumerate() {
        by_element_a.entry(a.element_at(p)).or_default().push(i);
        by_element_b.entry(b.element_at(p)).or_default().push(i);
    }
    let mut out = ConflictSamples {
        distances: BTreeSet::new(),
        conflicts: 0,
        exhaustive,
        forward: false,
        backward: false,
    };
    'scan: for (element, ia) in &by_element_a {
        let Some(ib) = by_element_b.get(element) else {
            continue;
        };
        for &x in ia {
            for &y in ib {
                if out.conflicts == CONFLICT_BUDGET {
                    out.exhaustive = false;
                    break 'scan;
                }
                let e: Point = points[y]
                    .iter()
                    .zip(&points[x])
                    .map(|(py, px)| py - px)
                    .collect();
                match lex_sign(&e) {
                    // Same iteration touching the same element: an
                    // intra-iteration conflict, distance zero — it
                    // constrains statement offsets, never Π.
                    Ordering::Equal => continue,
                    Ordering::Greater => {
                        out.forward = true;
                        out.distances.insert(e);
                    }
                    Ordering::Less => {
                        out.backward = true;
                        out.distances.insert(e.iter().map(|&v| -v).collect());
                    }
                }
                out.conflicts += 1;
            }
        }
    }
    out
}

/// Derive a candidate basis from the sampled distance set: a single
/// gcd-scaled direction, the extreme rays of a planar cone, or (rank ≥
/// 3) greedily chosen independent directions. The caller re-validates
/// with [`verify_cover_on_samples`]; `LC016` proves it for every size.
fn synthesize_basis(distances: &BTreeSet<Point>) -> Result<Vec<Point>, String> {
    if distances.is_empty() {
        return Ok(Vec::new());
    }
    // Group distances by primitive direction; remember the gcd of the
    // multipliers along each direction, which keeps λ integral when a
    // whole ray collapses to one scaled basis vector.
    let mut dirs: BTreeMap<Point, i64> = BTreeMap::new();
    for d in distances {
        let p = primitive_lex_positive(d).expect("distances are nonzero");
        let k = p.iter().position(|&x| x != 0).expect("primitive nonzero");
        let c = d[k] / p[k];
        let g = dirs.entry(p).or_insert(0);
        *g = gcd_all(&[*g, c]);
    }
    let scaled = |p: &Point, g: i64| -> Point { p.iter().map(|&x| x * g).collect() };
    if dirs.len() == 1 {
        let (p, g) = dirs.iter().next().expect("one direction");
        return Ok(vec![scaled(p, *g)]);
    }
    let rank = checked_rank(distances)?;
    if rank == 2 {
        let (lo, hi) = extreme_rays(&dirs)?;
        if dirs.len() == 2 {
            // Every sample lies on one of the two rays: the gcd-scaled
            // extremes are the tightest integral cover.
            return Ok(vec![scaled(&lo, dirs[&lo]), scaled(&hi, dirs[&hi])]);
        }
        // Interior directions exist: only the primitive extremes can
        // hope to reach them integrally (and only when the extreme pair
        // is unimodular — the sample re-validation decides).
        return Ok(vec![lo, hi]);
    }
    // rank ≥ 3: the first linearly independent primitive directions.
    // Distances are positive multiples of their directions, so the
    // directions span the same space and `rank` of them always exist.
    let mut basis: Vec<Point> = Vec::new();
    for p in dirs.keys() {
        let mut candidate = basis.clone();
        candidate.push(p.clone());
        if checked_rank(&candidate)? == candidate.len() {
            basis = candidate;
            if basis.len() == rank {
                break;
            }
        }
    }
    Ok(basis)
}

/// The two angular extreme rays of a planar set of lex-positive
/// directions. Lexicographic order is a group order, so the sampled
/// directions span a salient convex cone — strictly less than a half
/// turn — and the cross-product comparator is a strict total order.
fn extreme_rays(dirs: &BTreeMap<Point, i64>) -> Result<(Point, Point), String> {
    let keys: Vec<&Point> = dirs.keys().collect();
    let (e1, e2) = (keys[0], keys[1]);
    // Project onto two coordinates (r, s) that keep the plane
    // non-degenerate: the 2×2 minor of (e1, e2) there is nonzero.
    let n = e1.len();
    let mut axes = None;
    'outer: for r in 0..n {
        for s in (r + 1)..n {
            let det = (e1[r] as i128) * (e2[s] as i128) - (e1[s] as i128) * (e2[r] as i128);
            if det != 0 {
                axes = Some((r, s));
                break 'outer;
            }
        }
    }
    let Some((r, s)) = axes else {
        return Err("planar distance set has no non-degenerate projection".to_string());
    };
    let cross = |u: &Point, v: &Point| -> i128 {
        (u[r] as i128) * (v[s] as i128) - (u[s] as i128) * (v[r] as i128)
    };
    let mut sorted = keys;
    sorted.sort_by(|u, v| {
        let c = cross(u, v);
        // Distinct primitive rays in a salient planar cone are never
        // collinear, so c == 0 cannot happen.
        if c > 0 {
            Ordering::Less
        } else {
            Ordering::Greater
        }
    });
    Ok((
        (*sorted.first().expect("nonempty")).clone(),
        (*sorted.last().expect("nonempty")).clone(),
    ))
}

/// Rank of a set of integer vectors: the pivot count of their integer
/// column echelon form. An overflow is an error, never a wrong rank.
fn checked_rank<'a>(vectors: impl IntoIterator<Item = &'a Point>) -> Result<usize, String> {
    let rows: Vec<&[i64]> = vectors.into_iter().map(Vec::as_slice).collect();
    try_col_echelon(&IMat::from_rows(&rows))
        .map(|e| e.pivots.len())
        .map_err(|e| e.to_string())
}

/// The exact integer-cover data of a basis `V` (columns `v₁ … v_m` of
/// length `n`): `δ = det(VᵀV) > 0`, `W = adj(VᵀV)·Vᵀ` (so `W·V = δ·I`),
/// and the span test `P = V·W − δ·I` (`d` lies in the column span iff
/// `P·d = 0`). Everything is exact `i128`; `None` on overflow.
pub struct CoverMatrices {
    /// Number of space dimensions (rows of `V`).
    pub n: usize,
    /// Number of basis vectors (columns of `V`).
    pub m: usize,
    /// `det(VᵀV)`.
    pub delta: i128,
    /// `adj(VᵀV)·Vᵀ`, an `m × n` matrix with `W·V = δ·I`.
    pub w: Vec<Vec<i128>>,
    /// `V·W − δ·I`, an `n × n` matrix whose kernel is the column span.
    pub p: Vec<Vec<i128>>,
}

/// Compute the cover matrices of a basis, or `None` when the basis is
/// rank-deficient or the arithmetic leaves `i128`.
pub fn cover_matrices(basis: &[Point]) -> Option<CoverMatrices> {
    let m = basis.len();
    let n = basis.first().map(|v| v.len())?;
    // G = VᵀV (m × m).
    let mut g = vec![vec![0i128; m]; m];
    for i in 0..m {
        for j in 0..m {
            let mut acc: i128 = 0;
            for (&x, &y) in basis[i].iter().zip(&basis[j]) {
                acc = acc.checked_add((x as i128).checked_mul(y as i128)?)?;
            }
            g[i][j] = acc;
        }
    }
    let delta = determinant(&g)?;
    if delta <= 0 {
        return None;
    }
    let adj = adjugate(&g)?;
    // W = adj(G)·Vᵀ (m × n).
    let mut w = vec![vec![0i128; n]; m];
    for i in 0..m {
        for k in 0..n {
            let mut acc: i128 = 0;
            for j in 0..m {
                acc = acc.checked_add(adj[i][j].checked_mul(basis[j][k] as i128)?)?;
            }
            w[i][k] = acc;
        }
    }
    // P = V·W − δ·I (n × n).
    let mut p = vec![vec![0i128; n]; n];
    for r in 0..n {
        for c in 0..n {
            let mut acc: i128 = 0;
            for j in 0..m {
                acc = acc.checked_add((basis[j][r] as i128).checked_mul(w[j][c])?)?;
            }
            if r == c {
                acc = acc.checked_sub(delta)?;
            }
            p[r][c] = acc;
        }
    }
    Some(CoverMatrices { n, m, delta, w, p })
}

/// Determinant by cofactor expansion (the matrices here are `m × m`
/// Gram matrices with `m ≤` nest depth, so this stays tiny).
fn determinant(m: &[Vec<i128>]) -> Option<i128> {
    let k = m.len();
    if k == 0 {
        return Some(1);
    }
    if k == 1 {
        return Some(m[0][0]);
    }
    let mut acc: i128 = 0;
    for c in 0..k {
        if m[0][c] == 0 {
            continue;
        }
        let minor: Vec<Vec<i128>> = m[1..]
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .filter(|&(j, _)| j != c)
                    .map(|(_, &x)| x)
                    .collect()
            })
            .collect();
        let term = m[0][c].checked_mul(determinant(&minor)?)?;
        acc = if c % 2 == 0 {
            acc.checked_add(term)?
        } else {
            acc.checked_sub(term)?
        };
    }
    Some(acc)
}

/// Adjugate (transposed cofactor matrix).
fn adjugate(m: &[Vec<i128>]) -> Option<Vec<Vec<i128>>> {
    let k = m.len();
    if k == 1 {
        return Some(vec![vec![1]]);
    }
    let mut adj = vec![vec![0i128; k]; k];
    #[allow(clippy::needless_range_loop)] // writes transposed: adj[c][r]
    for r in 0..k {
        for c in 0..k {
            let minor: Vec<Vec<i128>> = m
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != r)
                .map(|(_, row)| {
                    row.iter()
                        .enumerate()
                        .filter(|&(j, _)| j != c)
                        .map(|(_, &x)| x)
                        .collect()
                })
                .collect();
            let cof = determinant(&minor)?;
            adj[c][r] = if (r + c) % 2 == 0 {
                cof
            } else {
                cof.checked_neg()?
            };
        }
    }
    Some(adj)
}

/// Exact re-validation of a candidate basis against every sampled
/// distance: in-span (`P·d = 0`), non-negative (`(W·d)_r ≥ 0`) and
/// integral (`δ | (W·d)_r`) coefficients, and `δ` under [`DELTA_CAP`].
fn verify_cover_on_samples(basis: &[Point], distances: &BTreeSet<Point>) -> Result<(), String> {
    if basis.is_empty() {
        return if distances.is_empty() {
            Ok(())
        } else {
            Err("no basis for a nonempty distance set".to_string())
        };
    }
    let Some(cm) = cover_matrices(basis) else {
        return Err("the candidate basis is rank-deficient or overflows".to_string());
    };
    if cm.delta > DELTA_CAP {
        return Err(format!(
            "the basis lattice determinant {} exceeds the certification cap {DELTA_CAP}",
            cm.delta
        ));
    }
    let mul = |mat: &[Vec<i128>], d: &Point| -> Vec<i128> {
        mat.iter()
            .map(|row| {
                row.iter()
                    .zip(d)
                    .map(|(&a, &b)| a * b as i128)
                    .sum::<i128>()
            })
            .collect()
    };
    for d in distances {
        if mul(&cm.p, d).iter().any(|&x| x != 0) {
            return Err(format!(
                "sampled distance {d:?} lies outside the span of the basis {basis:?}"
            ));
        }
        for &lam in &mul(&cm.w, d) {
            if lam < 0 {
                return Err(format!(
                    "sampled distance {d:?} needs a negative coefficient on basis {basis:?}"
                ));
            }
            if lam % cm.delta != 0 {
                return Err(format!(
                    "sampled distance {d:?} needs a fractional coefficient on basis {basis:?}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::DepKind;
    use crate::space::IterSpace;
    use crate::{Aff, Stmt};

    fn nest_1d(name: &str, extent: i64, write: Access, reads: Vec<Access>) -> LoopNest {
        LoopNest::new(
            name,
            IterSpace::rect(&[extent]).unwrap(),
            vec![Stmt::assign(write, reads)],
        )
        .unwrap()
    }

    #[test]
    fn a2i_recurrence_folds_to_unit_vector() {
        // A[2i] = A[i]: distances d = i for 2i in range → basis {(1)}.
        let nest = nest_1d(
            "rec",
            8,
            Access::new("A", vec![Aff::new(vec![2], 0)]),
            vec![Access::simple("A", 1, &[(0, 0)])],
        );
        let u = uniformize(&nest, DepOptions::default()).unwrap();
        assert_eq!(u.pairs.len(), 1);
        assert_eq!(u.pairs[0].basis, vec![vec![1]]);
        assert!(u.pairs[0].forward);
        assert!(!u.pairs[0].backward);
        assert!(u.pairs[0].exhaustive);
        assert_eq!(u.vectors, vec![vec![1]]);
        assert_eq!(u.deps.len(), 1);
        assert_eq!(u.deps[0].kind, DepKind::Flow);
    }

    #[test]
    fn a3i_recurrence_scales_by_gcd() {
        // A[3i] = A[i]: distances d = 2i are all even → basis {(2)}.
        let nest = nest_1d(
            "scale",
            16,
            Access::new("A", vec![Aff::new(vec![3], 0)]),
            vec![Access::simple("A", 1, &[(0, 0)])],
        );
        let u = uniformize(&nest, DepOptions::default()).unwrap();
        assert_eq!(u.pairs[0].basis, vec![vec![2]]);
        assert_eq!(u.vectors, vec![vec![2]]);
    }

    #[test]
    fn coupled_2d_case_folds_to_column_vector() {
        // A[i, i+j] = A[i, j]: conflicts at (i,j) → (i, i+j), distance
        // (0, i) → basis {(0, 1)}.
        let nest = LoopNest::new(
            "diag2d",
            IterSpace::rect(&[8, 8]).unwrap(),
            vec![Stmt::assign(
                Access::new("A", vec![Aff::var(2, 0), Aff::new(vec![1, 1], 0)]),
                vec![Access::simple("A", 2, &[(0, 0), (1, 0)])],
            )],
        )
        .unwrap();
        let u = uniformize(&nest, DepOptions::default()).unwrap();
        assert_eq!(u.pairs[0].basis, vec![vec![0, 1]]);
        assert_eq!(u.vectors, vec![vec![0, 1]]);
    }

    #[test]
    fn uniform_nest_is_trivial() {
        let nest = nest_1d(
            "uniform",
            8,
            Access::simple("A", 1, &[(0, 1)]),
            vec![Access::simple("A", 1, &[(0, 0)])],
        );
        let u = uniformize(&nest, DepOptions::default()).unwrap();
        assert!(u.is_trivial());
        assert_eq!(u.vectors, vec![vec![1]]);
        assert_eq!(
            u.deps,
            crate::deps::extract_dependences(&nest, DepOptions::default()).unwrap()
        );
    }

    #[test]
    fn disjoint_images_fold_to_empty_basis() {
        // A[2i] written, A[4i+1] read: even vs odd elements — never a
        // conflict, so the fold is an empty cover.
        let nest = nest_1d(
            "disjoint",
            8,
            Access::new("A", vec![Aff::new(vec![2], 0)]),
            vec![Access::new("A", vec![Aff::new(vec![4], 1)])],
        );
        let u = uniformize(&nest, DepOptions::default()).unwrap();
        assert_eq!(u.pairs.len(), 1);
        assert!(u.pairs[0].basis.is_empty());
        assert_eq!(u.pairs[0].conflicts, 0);
        assert!(u.vectors.is_empty());
    }

    #[test]
    fn rank_mismatch_is_an_honest_rejection() {
        // A[i] written (rank 1), A[i, j] read (rank 2): no fold.
        let nest = LoopNest::new(
            "ranks",
            IterSpace::rect(&[4, 4]).unwrap(),
            vec![Stmt::assign(
                Access::simple("A", 2, &[(0, 0)]),
                vec![Access::simple("A", 2, &[(0, 0), (1, 0)])],
            )],
        )
        .unwrap();
        let err = uniformize(&nest, DepOptions::default()).unwrap_err();
        assert!(matches!(err, FoldError::NoCover { .. }));
        assert!(format!("{err}").contains("different ranks"));
    }

    #[test]
    fn bidirectional_conflicts_set_both_flags() {
        // A[2i] = A[8 - i]: element 2i = 8 - j conflicts both ways
        // around the crossing point.
        let nest = nest_1d(
            "cross",
            9,
            Access::new("A", vec![Aff::new(vec![2], 0)]),
            vec![Access::new("A", vec![Aff::new(vec![-1], 8)])],
        );
        let u = uniformize(&nest, DepOptions::default());
        // Whatever basis synthesis decides, a successful fold must have
        // seen conflicts in both directions (e.g. i=0,j=8 and i=4,j=0).
        if let Ok(u) = u {
            assert!(u.pairs[0].forward && u.pairs[0].backward);
        }
    }

    #[test]
    fn cover_matrices_identity_for_unimodular_basis() {
        // V = [(0,1),(1,-1)]: G = [[1,-1],[-1,2]], δ = 1.
        let basis = vec![vec![0, 1], vec![1, -1]];
        let cm = cover_matrices(&basis).unwrap();
        assert_eq!(cm.delta, 1);
        // W·V = δ·I.
        for i in 0..cm.m {
            for (j, v) in basis.iter().enumerate() {
                let dot: i128 = (0..cm.n).map(|k| cm.w[i][k] * v[k] as i128).sum();
                assert_eq!(dot, if i == j { cm.delta } else { 0 });
            }
        }
        // P annihilates the span (n = m = 2 ⇒ P = 0).
        assert!(cm.p.iter().flatten().all(|&x| x == 0));
    }

    #[test]
    fn rank_is_exact_or_an_overflow() {
        let rank = |vs: &[Point]| checked_rank(vs);
        assert_eq!(rank(&[vec![1, 0, 0], vec![0, 1, 0], vec![1, 1, 0]]), Ok(2));
        assert_eq!(rank(&[vec![2, 4], vec![1, 2]]), Ok(1));
        // Three independent vectors with entries below 2^39 and two
        // small-integer combinations of them: rank 3, but the column
        // echelon form overflows `i64`.
        let set: BTreeSet<Point> = [
            vec![
                -349385189011,
                61207796038,
                -333571028405,
                -11895758890,
                -169950824868,
            ],
            vec![
                417667710564,
                -275639987394,
                -523330293707,
                440254752681,
                -94827866577,
            ],
            vec![
                -140281200559,
                65491529566,
                345311620836,
                521704867121,
                -521913095410,
            ],
            vec![
                835875687468,
                -267072520338,
                834435004775,
                1507456004703,
                -798752407661,
            ],
            vec![
                490206655910,
                157508128846,
                1869354999758,
                117137391110,
                82767245771,
            ],
        ]
        .into_iter()
        .collect();
        let overflow = "integer overflow during column operation".to_string();
        assert_eq!(checked_rank(&set), Err(overflow.clone()));
        // Basis synthesis rejects the set rather than admit a wrong rank.
        assert_eq!(synthesize_basis(&set), Err(overflow));
    }
}
