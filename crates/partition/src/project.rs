//! The projection phase: `Q = (V, D)` → `Q^p = (V^p, D^p)`.
//!
//! Both levels look ids up by integer keys, in a dense rank over the
//! keys' bounding box or, for sparse boxes, a hash map: an iteration
//! point by its coordinates, a projection line by its *line
//! coordinates* (see [`ProjectedStructure::project`]). `V` is one flat
//! [`PointTable`]. The dependence graph of `Q` is built once, in
//! [`ComputationalStructure::new`], as compressed sparse rows that every
//! later phase reads.

use crate::index::{Index, NONE};
use crate::Error;
use loom_hyperplane::TimeFn;
use loom_loopir::{IterSpace, Point};
use loom_rational::int::{gcd, gcd_all};
use std::sync::{Arc, OnceLock};

/// The most points a computational structure holds: point ids and arc
/// ends are `u32`.
pub const MAX_POINTS: u64 = u32::MAX as u64;

/// Iteration points stored flat, `dim` coordinates apiece: point `id`
/// is `coords[id·dim..(id + 1)·dim]`. `Q` holds its table behind an
/// [`Arc`], so a program built over `Q` reads the points without
/// copying them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PointTable {
    dim: usize,
    coords: Vec<i64>,
}

impl PointTable {
    /// A table of `coords.len() / dim` points.
    ///
    /// Panics if `dim` is 0 or does not divide `coords.len()`.
    pub fn new(dim: usize, coords: Vec<i64>) -> PointTable {
        assert!(
            dim > 0 && coords.len().is_multiple_of(dim),
            "{} coordinates are no whole number of {dim}-dimensional points",
            coords.len()
        );
        PointTable { dim, coords }
    }

    /// Every point of a space of `len` points, in lexicographic order.
    fn of_space(space: &IterSpace, len: usize) -> PointTable {
        let dim = space.dim();
        let mut coords = Vec::with_capacity(len * dim);
        space.for_each_point(|p| coords.extend_from_slice(p));
        PointTable { dim, coords }
    }

    /// Coordinates per point.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.coords.len() / self.dim
    }

    /// `true` iff the table holds no point.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Point `id`.
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn point(&self, id: usize) -> &[i64] {
        &self.coords[id * self.dim..(id + 1) * self.dim]
    }

    /// Point `id`, or `None` when it is out of range.
    pub fn get(&self, id: usize) -> Option<&[i64]> {
        (id < self.len()).then(|| self.point(id))
    }

    /// Every point, in id order.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, i64> {
        self.coords.chunks_exact(self.dim)
    }
}

/// The computational structure `Q = (V, D)` of a nested loop
/// (Definition 2): the enumerated index set, the dependence vectors, and
/// the dependence arcs between index points.
#[derive(Clone, Debug)]
pub struct ComputationalStructure {
    space: IterSpace,
    points: Arc<PointTable>,
    index: Index,
    deps: Vec<Point>,
    succ: Arc<ArcRows>,
    pred: Arc<ArcRows>,
}

/// Arcs in compressed sparse rows: row `id` is
/// `arcs[offsets[id]..offsets[id + 1]]`, each arc `(other end, label)`.
/// In `Q` the label is the dependence index and every row is in
/// dependence-index order. `Q` holds its rows behind an [`Arc`], so a
/// program built over `Q` reads them without copying.
#[derive(Clone, Debug)]
pub struct ArcRows {
    offsets: Vec<usize>,
    arcs: Vec<(u32, u32)>,
}

impl ArcRows {
    fn with_capacity(rows: usize, arcs: usize) -> ArcRows {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        ArcRows {
            offsets,
            arcs: Vec::with_capacity(arcs),
        }
    }

    /// The rows of `rows` points from a list of `(row, other end)` pairs,
    /// each row keeping its pairs' list order and labelled by list
    /// position.
    ///
    /// Panics if a row is out of range.
    pub fn from_pairs(rows: usize, pairs: impl Iterator<Item = (u32, u32)> + Clone) -> ArcRows {
        let mut offsets = vec![0usize; rows + 1];
        for (r, _) in pairs.clone() {
            offsets[r as usize + 1] += 1;
        }
        for r in 0..rows {
            offsets[r + 1] += offsets[r];
        }
        let mut next = offsets[..rows].to_vec();
        let mut arcs = vec![(0, 0); offsets[rows]];
        for (i, (r, end)) in pairs.enumerate() {
            arcs[next[r as usize]] = (end, i as u32);
            next[r as usize] += 1;
        }
        ArcRows { offsets, arcs }
    }

    /// Row `id`: its arcs as `(other end, label)`.
    #[inline]
    pub fn row(&self, id: usize) -> &[(u32, u32)] {
        &self.arcs[self.offsets[id]..self.offsets[id + 1]]
    }

    /// Number of arcs over all rows.
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    fn of(&self, id: usize) -> impl ExactSizeIterator<Item = (usize, usize)> + '_ {
        self.row(id).iter().map(|&(q, k)| (q as usize, k as usize))
    }
}

/// The execution step `Π·x` of every point of `Q`, by point id, with
/// the point ids in `(step, id)` order and each point's rank in that
/// order, both built on first use. A projection computes the steps once
/// per Π and holds them behind an [`Arc`], so every grouping and every
/// program of that Π shares one table.
#[derive(Debug)]
pub struct Steps {
    step: Vec<i64>,
    ranked: OnceLock<Ranked>,
}

/// The `(step, id)` order of a step table and its inverse.
#[derive(Debug)]
struct Ranked {
    order: Vec<u32>,
    rank: Vec<u32>,
}

impl Steps {
    /// A table of the given steps, indexed by point id.
    pub fn new(step: Vec<i64>) -> Steps {
        Steps {
            step,
            ranked: OnceLock::new(),
        }
    }

    /// The step of every point, indexed by point id.
    #[inline]
    pub fn as_slice(&self) -> &[i64] {
        &self.step
    }

    /// Every point id, sorted by `(step, id)`.
    pub fn order(&self) -> &[u32] {
        &self.ranked().order
    }

    /// The position of every point in [`order`](Self::order), indexed
    /// by point id: `order()[ranks()[id]] == id`.
    pub fn ranks(&self) -> &[u32] {
        &self.ranked().rank
    }

    fn ranked(&self) -> &Ranked {
        self.ranked.get_or_init(|| {
            let order = sort_by_step(&self.step);
            let mut rank = vec![0; order.len()];
            for (r, &id) in order.iter().enumerate() {
                rank[id as usize] = r as u32;
            }
            Ranked { order, rank }
        })
    }
}

/// The ids `0..step.len()` sorted by `(step, id)`: a stable
/// least-significant-digit radix sort of the ids by their offset from
/// the least step, so equal steps keep id order. A step range that fits
/// one digit, the common case, is a single counting pass straight from
/// id order; digits are at most 16 bits wide and no wider than the id
/// count needs.
fn sort_by_step(step: &[i64]) -> Vec<u32> {
    let n = step.len();
    let (Some(&lo), Some(&hi)) = (step.iter().min(), step.iter().max()) else {
        return Vec::new();
    };
    let bits = u64::BITS - hi.abs_diff(lo).leading_zeros();
    if bits == 0 {
        return (0..n as u32).collect();
    }
    let max_width = (usize::BITS - n.leading_zeros()).clamp(4, 16);
    let passes = bits.div_ceil(max_width);
    let width = bits.div_ceil(passes);
    let mask = (1usize << width) - 1;
    let mut counts = vec![0usize; mask + 1];
    let mut order = vec![0u32; n];
    let mut previous = Vec::new();
    for pass in 0..passes {
        let shift = pass * width;
        let digit = |id: u32| (step[id as usize].abs_diff(lo) >> shift) as usize & mask;
        if pass == 0 {
            counting_pass(0..n as u32, digit, &mut counts, &mut order);
        } else {
            std::mem::swap(&mut order, &mut previous);
            order.resize(n, 0);
            counting_pass(previous.iter().copied(), digit, &mut counts, &mut order);
        }
    }
    order
}

/// One stable counting pass: `out` receives `ids` ordered by `digit`,
/// equal digits in `ids` order.
fn counting_pass(
    ids: impl Iterator<Item = u32> + Clone,
    digit: impl Fn(u32) -> usize,
    counts: &mut [usize],
    out: &mut [u32],
) {
    counts.fill(0);
    for id in ids.clone() {
        counts[digit(id)] += 1;
    }
    let mut start = 0;
    for c in counts.iter_mut() {
        (*c, start) = (start, start + *c);
    }
    for id in ids {
        let slot = &mut counts[digit(id)];
        out[*slot] = id;
        *slot += 1;
    }
}

impl ComputationalStructure {
    /// Enumerate a space, attach its dependence set, and build the
    /// dependence arcs: `p → p + d` for every `p` and `p + d` in `V`.
    /// The space is counted first: more than [`MAX_POINTS`] points is
    /// [`Error::TooManyPoints`], and none of them is enumerated.
    pub fn new(space: IterSpace, deps: Vec<Point>) -> Result<ComputationalStructure, Error> {
        let Some(len) = space.count_at_most(MAX_POINTS) else {
            return Err(Error::TooManyPoints {
                points: space.count() as u64,
            });
        };
        if len == 0 {
            return Err(Error::EmptySpace);
        }
        let points = PointTable::of_space(&space, len as usize);
        let index = Index::build(points.iter(), points.dim(), points.len(), |_| {});
        let (succ, pred) = match &index {
            Index::Dense { lo, extents, ids } => dense_arcs(&points, &deps, lo, extents, ids),
            Index::Hash { .. } => hashed_arcs(&points, &deps, &index),
        };
        Ok(ComputationalStructure {
            space,
            points: Arc::new(points),
            index,
            deps,
            succ: Arc::new(succ),
            pred: Arc::new(pred),
        })
    }

    /// The iteration space.
    pub fn space(&self) -> &IterSpace {
        &self.space
    }

    /// Index point `id`; ids number the points in lexicographic order.
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn point(&self, id: usize) -> &[i64] {
        self.points.point(id)
    }

    /// Every index point, as the shared flat table of
    /// [`point`](Self::point).
    pub fn point_table(&self) -> &Arc<PointTable> {
        &self.points
    }

    /// The dependence set `D`.
    pub fn deps(&self) -> &[Point] {
        &self.deps
    }

    /// Number of iteration points `|V|`.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` iff there are no points (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Id of an index point, if it belongs to `V`.
    pub fn id_of(&self, p: &[i64]) -> Option<usize> {
        if p.len() != self.points.dim() {
            return None;
        }
        self.index.get(|j| Some(p[j]))
    }

    /// The arcs out of point `id`: each point `id + d` in `V`, with the
    /// index of its dependence `d`, in dependence-index order.
    pub fn successors(&self, id: usize) -> impl ExactSizeIterator<Item = (usize, usize)> + '_ {
        self.succ.of(id)
    }

    /// The arcs into point `id`: each point `id − d` in `V`, with the
    /// index of its dependence `d`, in dependence-index order.
    pub fn predecessors(&self, id: usize) -> impl ExactSizeIterator<Item = (usize, usize)> + '_ {
        self.pred.of(id)
    }

    /// Total number of dependence arcs in `Q` (33 for the paper's L1).
    pub fn num_arcs(&self) -> usize {
        self.succ.num_arcs()
    }

    /// The arcs out of every point, as shared rows of
    /// [`successors`](Self::successors).
    pub fn successor_rows(&self) -> &Arc<ArcRows> {
        &self.succ
    }

    /// The arcs into every point, as shared rows of
    /// [`predecessors`](Self::predecessors).
    pub fn predecessor_rows(&self) -> &Arc<ArcRows> {
        &self.pred
    }
}

/// The arcs of `Q` over a dense index, by rank arithmetic: with `x =
/// p − lo` in the box, `p ± d` is in the box iff every `x_j ± d_j` is in
/// `[0, extent_j)`, and its rank is then `rank(p) ± Σ d_j·stride_j`. A
/// dependence with `|d_j| ≥ extent_j` on some axis never lands in the
/// box, so no sum overflows.
fn dense_arcs(
    points: &PointTable,
    deps: &[Point],
    lo: &[i64],
    extents: &[i64],
    ids: &[u32],
) -> (ArcRows, ArcRows) {
    let dim = points.dim();
    let mut strides = vec![1i64; dim];
    for j in (0..dim.saturating_sub(1)).rev() {
        strides[j] = strides[j + 1] * extents[j + 1];
    }
    // Each dependence that fits in the box, with its rank offset.
    let shifts: Vec<(u32, &[i64], i64)> = deps
        .iter()
        .enumerate()
        .filter(|(_, d)| {
            d.len() >= dim
                && d.iter()
                    .zip(extents)
                    .all(|(&c, &e)| c.unsigned_abs() < e as u64)
        })
        .map(|(k, d)| {
            let offset = d.iter().zip(&strides).map(|(&c, &s)| c * s).sum();
            (k as u32, d.as_slice(), offset)
        })
        .collect();
    let in_box = |x: &[i64], d: &[i64], sign: i64| {
        x.iter()
            .zip(d)
            .zip(extents)
            .all(|((&a, &c), &e)| (0..e).contains(&(a + sign * c)))
    };
    let arcs = points.len() * shifts.len();
    let mut succ = ArcRows::with_capacity(points.len(), arcs);
    let mut pred = ArcRows::with_capacity(points.len(), arcs);
    let mut x = vec![0i64; dim];
    for p in points.iter() {
        let mut rank = 0i64;
        for j in 0..dim {
            x[j] = p[j] - lo[j];
            rank += x[j] * strides[j];
        }
        for &(k, d, offset) in &shifts {
            if in_box(&x, d, 1) {
                let q = ids[(rank + offset) as usize];
                if q != NONE {
                    succ.arcs.push((q, k));
                }
            }
            if in_box(&x, d, -1) {
                let q = ids[(rank - offset) as usize];
                if q != NONE {
                    pred.arcs.push((q, k));
                }
            }
        }
        succ.offsets.push(succ.arcs.len());
        pred.offsets.push(pred.arcs.len());
    }
    (succ, pred)
}

/// The arcs of `Q` over any index, one lookup of `p ± d` per point and
/// dependence.
fn hashed_arcs(points: &PointTable, deps: &[Point], index: &Index) -> (ArcRows, ArcRows) {
    let arcs = points.len() * deps.len();
    let mut succ = ArcRows::with_capacity(points.len(), arcs);
    let mut pred = ArcRows::with_capacity(points.len(), arcs);
    for p in points.iter() {
        for (k, d) in deps.iter().enumerate() {
            let k = k as u32;
            if let Some(q) = index.get(|j| p[j].checked_add(*d.get(j)?)) {
                succ.arcs.push((q as u32, k));
            }
            if let Some(q) = index.get(|j| p[j].checked_sub(*d.get(j)?)) {
                pred.arcs.push((q as u32, k));
            }
        }
        succ.offsets.push(succ.arcs.len());
        pred.offsets.push(pred.arcs.len());
    }
    (succ, pred)
}

/// The projected structure `Q^p = (V^p, D^p)` (Definition 5): the images
/// of `V` and `D` on the zero-hyperplane `Π·x = 0`. A projected point is
/// stored only as its integer line coordinates (see [`Self::project`]);
/// [`display_point`](Self::display_point) prints the rational point they
/// stand for.
#[derive(Clone, Debug)]
pub struct ProjectedStructure {
    pi: TimeFn,
    lines: LineCoords,
    /// Line coordinates of each projected point, `lines.width` apiece.
    line_keys: Vec<i64>,
    line_index: Index,
    /// Line coordinates of each dependence, `lines.width` apiece.
    dep_keys: Vec<i64>,
    /// `|D|`, which `dep_keys` cannot give when `lines.width` is 0.
    n_deps: usize,
    /// Every point id of the structure projected, once, grouped by
    /// projection line and sorted by execution step within it: line
    /// `pid` is `members[starts[pid]..starts[pid + 1]]`.
    members: Vec<usize>,
    starts: Vec<usize>,
    /// The lexicographically least projected point (the default seed of
    /// region growing).
    least: usize,
    /// The step of every point of the structure projected.
    steps: Arc<Steps>,
}

/// The integer coordinates of a projection line: for a Π-axis `a` with
/// the smallest nonzero `|Π_a|` and `g = gcd(Π)`, the vector `x` has
/// coordinates `c_j = (Π_a·x_j − Π_j·x_a) / g` for every axis `j ≠ a`.
/// They are linear in `x`, vanish on Π, and on the hyperplane `Π·x = 0`
/// they determine `x`: two points share them iff they lie on one
/// projection line. Their inverse is the scaled projection `S = (Π·Π)·x^p`:
/// `S_a = −g·Σ_{j≠a} Π_j·c_j` and `S_j = ((Π·Π)·g·c_j + Π_j·S_a) / Π_a`.
#[derive(Clone, Debug)]
struct LineCoords {
    pi: Vec<i64>,
    axis: usize,
    gcd: i64,
    pi_sq: i64,
    width: usize,
}

impl LineCoords {
    fn new(pi: &[i64]) -> LineCoords {
        let axis = (0..pi.len())
            .filter(|&j| pi[j] != 0)
            .min_by_key(|&j| pi[j].unsigned_abs())
            .expect("zero time function");
        LineCoords {
            pi: pi.to_vec(),
            axis,
            gcd: gcd_all(pi).abs(),
            pi_sq: pi
                .iter()
                .try_fold(0i64, |acc, &c| acc.checked_add(c.checked_mul(c)?))
                .expect("Π·Π overflow"),
            width: pi.len() - 1,
        }
    }

    /// The axis of line coordinate `c`.
    fn axis_of(&self, c: usize) -> usize {
        c + usize::from(c >= self.axis)
    }

    /// Line coordinate `c` of an integer vector (`None` on overflow).
    fn coord(&self, x: &[i64], c: usize) -> Option<i64> {
        let (a, j) = (self.axis, self.axis_of(c));
        let v = self.pi[a]
            .checked_mul(x[j])?
            .checked_sub(self.pi[j].checked_mul(x[a])?)?;
        // Most Π are primitive: skip the division then.
        Some(if self.gcd == 1 { v } else { v / self.gcd })
    }

    /// Append the line coordinates of `x` to `keys`.
    fn push_key(&self, x: &[i64], keys: &mut Vec<i64>) {
        keys.extend((0..self.width).map(|c| self.coord(x, c).expect("line coordinate overflow")));
    }
}

impl ProjectedStructure {
    /// Project a computational structure along Π (which must be legal for
    /// `cs.deps()`; legality is the caller's responsibility and checked by
    /// [`crate::partition`]).
    ///
    /// Implementation note: projection lines are found by their integer
    /// *line coordinates* `(Π_a·x_j − Π_j·x_a) / gcd(Π)` (`j ≠ a`, for an
    /// axis `a` with the smallest nonzero `|Π_a|`). They are a linear image
    /// of the scaled projection `x·(Π·Π) − (x·Π)·Π` that is one-to-one on
    /// the hyperplane, with one coordinate fewer, so the lines of a box
    /// usually fill their coordinates' box and index densely. A step along
    /// a projected dependence is an integer addition of the dependence's
    /// own line coordinates.
    pub fn project(cs: &ComputationalStructure, pi: &TimeFn) -> ProjectedStructure {
        let lines = LineCoords::new(pi.coeffs());
        let w = lines.width;
        // One pass over `V`: each point's line coordinates and step.
        let mut keys = Vec::with_capacity(cs.len() * w);
        let mut step = Vec::with_capacity(cs.len());
        for x in cs.point_table().iter() {
            lines.push_key(x, &mut keys);
            step.push(pi.time_of(x));
        }
        let rows = (0..cs.len()).map(|id| &keys[id * w..(id + 1) * w]);
        let mut line_of = Vec::with_capacity(cs.len());
        let line_index = Index::build(rows, w, cs.len(), |pid| line_of.push(pid));

        // Projected-point ids number the lines in order of first
        // appearance, so each line's first member is its lex-least point.
        let mut line_keys = Vec::new();
        let mut starts = vec![0usize];
        for (id, &pid) in line_of.iter().enumerate() {
            if pid as usize + 1 == starts.len() {
                line_keys.extend_from_slice(&keys[id * w..(id + 1) * w]);
                starts.push(0);
            }
            starts[pid as usize + 1] += 1;
        }
        let n_lines = starts.len() - 1;
        for pid in 0..n_lines {
            starts[pid + 1] += starts[pid];
        }
        let mut next = starts[..n_lines].to_vec();
        let mut members = vec![0usize; cs.len()];
        for (id, &pid) in line_of.iter().enumerate() {
            members[next[pid as usize]] = id;
            next[pid as usize] += 1;
        }
        // Along a line, lexicographic order is step order when Π's first
        // nonzero coefficient is positive, and its reverse otherwise.
        if pi
            .coeffs()
            .iter()
            .find(|&&c| c != 0)
            .is_some_and(|&c| c < 0)
        {
            for pid in 0..n_lines {
                members[starts[pid]..starts[pid + 1]].reverse();
            }
        }
        let mut dep_keys = Vec::with_capacity(cs.deps().len() * w);
        for d in cs.deps() {
            lines.push_key(d, &mut dep_keys);
        }
        let mut qp = ProjectedStructure {
            pi: pi.clone(),
            lines,
            line_keys,
            line_index,
            dep_keys,
            n_deps: cs.deps().len(),
            members,
            starts,
            least: 0,
            steps: Arc::new(Steps::new(step)),
        };
        // Scaling by `Π·Π > 0` keeps the lexicographic order.
        qp.least = (0..n_lines)
            .min_by_key(|&pid| {
                qp.scaled(qp.line_key(pid))
                    .expect("scaled projection overflow")
            })
            .expect("a structure has points");
        qp
    }

    /// The time function used as projection vector.
    pub fn time_fn(&self) -> &TimeFn {
        &self.pi
    }

    /// The step `Π·x` of every point of the structure projected, by
    /// point id, computed once per projection.
    pub fn steps(&self) -> &Arc<Steps> {
        &self.steps
    }

    /// Number of projected points `|V^p|` (37 for the paper's 4×4×4
    /// matmul with Π = (1,1,1)).
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// `true` iff there are no projected points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The line coordinates of projected point `pid`.
    pub fn line_key(&self, pid: usize) -> &[i64] {
        let w = self.lines.width;
        &self.line_keys[pid * w..(pid + 1) * w]
    }

    /// The rational point `S / (Π·Π)` with line coordinates `key` (one
    /// per axis but Π's), printed as `(c₀, c₁, …)` with each coordinate a
    /// reduced fraction `p/q`, or an integer when `q` is 1: e.g.
    /// `display_point(line_key(pid))` for projected point `pid`, or
    /// `display_point(dep_key(k))` for projected dependence `k`.
    ///
    /// Panics unless [`scaled`](Self::scaled) is defined at `key`.
    pub fn display_point(&self, key: &[i64]) -> String {
        let s = self.scaled(key).expect("a projected point fits in i64");
        let pp = self.lines.pi_sq;
        let coords: Vec<String> = s
            .into_iter()
            .map(|v| {
                // gcd(0, Π·Π) = Π·Π prints zero as 0.
                let g = gcd(v, pp);
                match pp / g {
                    1 => (v / g).to_string(),
                    den => format!("{}/{den}", v / g),
                }
            })
            .collect();
        format!("({})", coords.join(", "))
    }

    /// The line coordinates of an integer point `x` on the hyperplane
    /// `Π·x = 0`, where it is its own projection; `None` off the
    /// hyperplane, for a point of another dimension, or on overflow.
    pub fn key_of(&self, x: &[i64]) -> Option<Vec<i64>> {
        let l = &self.lines;
        let dot = x.iter().zip(&l.pi).try_fold(0i128, |acc, (&a, &b)| {
            acc.checked_add(i128::from(a) * i128::from(b))
        });
        if x.len() != l.pi.len() || dot != Some(0) {
            return None;
        }
        (0..l.width).map(|c| l.coord(x, c)).collect()
    }

    /// The scaled projection `S = (Π·Π)·x^p` in integers, for the
    /// projected point `x^p` with line coordinates `key`, when
    /// `key` has one coordinate per axis but Π's and `S` is an integer
    /// vector that fits in `i64`, as it is for every projected point of a
    /// projection that succeeded.
    pub fn scaled(&self, key: &[i64]) -> Option<Vec<i64>> {
        let l = &self.lines;
        if key.len() != l.width {
            return None;
        }
        let (pa, g) = (i128::from(l.pi[l.axis]), i128::from(l.gcd));
        let mut s_a = 0i128;
        for (c, &k) in key.iter().enumerate() {
            let pj = i128::from(l.pi[l.axis_of(c)]);
            s_a = s_a.checked_sub(pj.checked_mul(k.into())?.checked_mul(g)?)?;
        }
        let mut s = vec![i64::try_from(s_a).ok()?; l.pi.len()];
        for (c, &k) in key.iter().enumerate() {
            let j = l.axis_of(c);
            let t = (i128::from(l.pi_sq) * g)
                .checked_mul(k.into())?
                .checked_add(i128::from(l.pi[j]).checked_mul(s_a)?)?;
            s[j] = i64::try_from((t % pa == 0).then(|| t / pa)?).ok()?;
        }
        Some(s)
    }

    /// The projected point reached from projected point `pid` along
    /// projected dependence `k` (`pid` itself when `d_k ∥ Π`), if
    /// present: the one at `x^p + d_k^p`, found by adding line
    /// coordinates.
    pub fn neighbor(&self, pid: usize, k: usize) -> Option<usize> {
        let (from, step) = (self.line_key(pid), self.dep_key(k));
        self.line_at(|c| from[c].checked_add(step[c]))
    }

    /// Original point ids lying on the projection line of projected point
    /// `pid`, sorted by execution step.
    pub fn line_members(&self, pid: usize) -> &[usize] {
        &self.members[self.starts[pid]..self.starts[pid + 1]]
    }

    /// Number of dependences `|D| = |D^p|`: the projected dependences
    /// are aligned index-for-index with the original dependence set.
    pub fn num_deps(&self) -> usize {
        self.n_deps
    }

    /// Indices of dependences whose projection is nonzero (dependences
    /// parallel to Π project to the zero vector and stay inside a single
    /// projection line).
    pub fn nonzero_dep_indices(&self) -> Vec<usize> {
        (0..self.n_deps)
            .filter(|&k| self.dep_key(k).iter().any(|&c| c != 0))
            .collect()
    }

    /// The line coordinates of dependence `k` (those of its projection).
    /// They are a linear map that is one-to-one on the hyperplane, so a
    /// set of them has the rank of the projected dependences it stands
    /// for.
    pub fn dep_key(&self, k: usize) -> &[i64] {
        let w = self.lines.width;
        &self.dep_keys[k * w..(k + 1) * w]
    }

    /// The `r_k` of Algorithm 1 Step 1: the least positive integer with
    /// `r_k·d_k^p ∈ ℤⁿ` (1 for a zero projection). With `S` the scaled
    /// projection of `d_k`, it is `(Π·Π) / gcd(Π·Π, S)`.
    pub fn multiplier(&self, k: usize) -> i64 {
        let s = self
            .scaled(self.dep_key(k))
            .expect("a projected dependence fits in i64");
        self.lines.pi_sq / gcd(self.lines.pi_sq, gcd_all(&s))
    }

    /// Number of points of the structure this projects.
    pub(crate) fn source_len(&self) -> usize {
        self.members.len()
    }

    /// The lexicographically least projected point.
    pub(crate) fn least(&self) -> usize {
        self.least
    }

    /// The projected point with line coordinate `c` equal to `coord(c)`.
    pub(crate) fn line_at(&self, coord: impl Fn(usize) -> Option<i64>) -> Option<usize> {
        self.line_index.get(coord)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Steps::order` and `Steps::ranks` against a comparison sort.
    fn check_order(step: Vec<i64>) {
        let mut expected: Vec<u32> = (0..step.len() as u32).collect();
        expected.sort_unstable_by_key(|&t| (step[t as usize], t));
        let steps = Steps::new(step.clone());
        assert_eq!(steps.order(), expected, "steps {step:?}");
        for (r, &id) in expected.iter().enumerate() {
            assert_eq!(steps.ranks()[id as usize], r as u32);
        }
    }

    #[test]
    fn step_order_matches_a_comparison_sort() {
        check_order(vec![]);
        check_order(vec![5]);
        check_order(vec![7; 100]);
        check_order(vec![-3, 4, -3, 0, -9, 4, 1]);
        check_order(vec![i64::MAX, i64::MIN, 0, -1, i64::MIN, i64::MAX, 1]);
        check_order(vec![1 << 40, -(1 << 40), 3, (1 << 40) + 1, 3]);
        // Seeded pseudo-random tables over narrow and wide step ranges,
        // with ties.
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for (len, span) in [(70, 4), (5000, 600), (5000, 1 << 20), (300, u64::MAX)] {
            let step = (0..len)
                .map(|_| (next() % span).wrapping_sub(span / 2) as i64)
                .collect();
            check_order(step);
        }
    }

    fn l1() -> (ComputationalStructure, TimeFn) {
        let space = IterSpace::rect(&[4, 4]).unwrap();
        let deps = vec![vec![0, 1], vec![1, 1], vec![1, 0]];
        (
            ComputationalStructure::new(space, deps).unwrap(),
            TimeFn::new(vec![1, 1]),
        )
    }

    #[test]
    fn l1_arc_count_matches_paper() {
        // The paper: "the number of data dependencies between index
        // points is 33".
        let (cs, _) = l1();
        assert_eq!(cs.num_arcs(), 33);
    }

    #[test]
    fn l1_projection_has_seven_lines() {
        // Paper: seven projected points / projection lines for L1.
        let (cs, pi) = l1();
        let qp = ProjectedStructure::project(&cs, &pi);
        assert_eq!(qp.len(), 7);
        // The projected points include (−3/2, 3/2) … (3/2, −3/2).
        let mut shown: Vec<String> = (0..qp.len())
            .map(|pid| qp.display_point(qp.line_key(pid)))
            .collect();
        shown.sort();
        let mut expected = [
            "(-3/2, 3/2)",
            "(-1, 1)",
            "(-1/2, 1/2)",
            "(0, 0)",
            "(1/2, -1/2)",
            "(1, -1)",
            "(3/2, -3/2)",
        ];
        expected.sort();
        assert_eq!(shown, expected);
        // Line membership counts: 1,2,3,4,3,2,1 in some order; total 16.
        let mut sizes: Vec<usize> = (0..7).map(|i| qp.line_members(i).len()).collect();
        sizes.sort();
        assert_eq!(sizes, vec![1, 1, 2, 2, 3, 3, 4]);
    }

    #[test]
    fn l1_projected_deps_match_paper_fig3() {
        let (cs, pi) = l1();
        let qp = ProjectedStructure::project(&cs, &pi);
        // d1 = (0,1) → (−1/2, 1/2); d2 = (1,1) → (0,0); d3 = (1,0) → (1/2, −1/2).
        let shown: Vec<String> = (0..qp.num_deps())
            .map(|k| qp.display_point(qp.dep_key(k)))
            .collect();
        assert_eq!(shown, ["(-1/2, 1/2)", "(0, 0)", "(1/2, -1/2)"]);
        assert_eq!(qp.nonzero_dep_indices(), vec![0, 2]);
    }

    #[test]
    fn multiplier_cases() {
        // L1: d1, d3 project to ±(−1/2, 1/2), r = 2; d2 ∥ Π projects to
        // zero, r = 1.
        let (cs, pi) = l1();
        let qp = ProjectedStructure::project(&cs, &pi);
        assert_eq!([0, 1, 2].map(|k| qp.multiplier(k)), [2, 1, 2]);
        // Π = (1, 2): (2, 0) projects to (8/5, −4/5), r = 5; (2, −1) ⟂ Π
        // projects to itself, r = 1.
        let cs = ComputationalStructure::new(
            IterSpace::rect(&[2, 2]).unwrap(),
            vec![vec![2, 0], vec![2, -1]],
        )
        .unwrap();
        let qp = ProjectedStructure::project(&cs, &TimeFn::new(vec![1, 2]));
        assert_eq!([0, 1].map(|k| qp.multiplier(k)), [5, 1]);
    }

    #[test]
    fn multiplier_scales_to_integral() {
        // Every d ∈ [−1, 1]³ \ 0 along every Π ∈ [−2, 2]³ \ 0: r is the
        // lcm of the denominators of the rational projection
        // `(d·(Π·Π) − (d·Π)·Π) / (Π·Π)`, reduced coordinate by coordinate.
        let cube: Vec<Vec<i64>> = (0..27)
            .map(|i| vec![i / 9 - 1, i / 3 % 3 - 1, i % 3 - 1])
            .filter(|v| v.iter().any(|&c| c != 0))
            .collect();
        let cs = ComputationalStructure::new(IterSpace::rect(&[1, 1, 1]).unwrap(), cube).unwrap();
        for i in 0..125 {
            let pi = vec![i / 25 - 2, i / 5 % 5 - 2, i % 5 - 2];
            if pi.iter().all(|&c| c == 0) {
                continue;
            }
            let qp = ProjectedStructure::project(&cs, &TimeFn::new(pi.clone()));
            let pp: i64 = pi.iter().map(|c| c * c).sum();
            for (k, d) in cs.deps().iter().enumerate() {
                let dot: i64 = d.iter().zip(&pi).map(|(a, b)| a * b).sum();
                let lcm = (0..3)
                    .map(|j| pp / gcd(d[j] * pp - dot * pi[j], pp))
                    .fold(1, |l, den| l / gcd(l, den) * den);
                assert_eq!(qp.multiplier(k), lcm, "{d:?} along {pi:?}");
            }
        }
    }

    #[test]
    fn matmul_projection_has_37_points() {
        // Paper Fig. 5: 37 projected points for the 4×4×4 matmul.
        let space = IterSpace::rect(&[4, 4, 4]).unwrap();
        let deps = vec![vec![0, 1, 0], vec![1, 0, 0], vec![0, 0, 1]];
        let cs = ComputationalStructure::new(space, deps).unwrap();
        let qp = ProjectedStructure::project(&cs, &TimeFn::wavefront(3));
        assert_eq!(qp.len(), 37);
        // Every original point lands on exactly one line.
        let total: usize = (0..qp.len()).map(|i| qp.line_members(i).len()).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn line_members_sorted_by_time() {
        let (cs, pi) = l1();
        let qp = ProjectedStructure::project(&cs, &pi);
        for pid in 0..qp.len() {
            let times: Vec<i64> = qp
                .line_members(pid)
                .iter()
                .map(|&id| pi.time_of(cs.point(id)))
                .collect();
            for w in times.windows(2) {
                assert!(w[0] < w[1], "line members not strictly time-ordered");
            }
        }
    }

    #[test]
    fn successors_respect_space_bounds() {
        let (cs, _) = l1();
        let corner = cs.id_of(&[3, 3]).unwrap();
        assert!(cs.successors(corner).next().is_none());
        let origin = cs.id_of(&[0, 0]).unwrap();
        assert_eq!(cs.successors(origin).len(), 3);
    }

    #[test]
    fn oversized_space_rejected_before_enumeration() {
        // 10^10 points: counted row by row, never enumerated.
        let space = IterSpace::rect(&[100_000, 100_000]).unwrap();
        let err = ComputationalStructure::new(space, vec![vec![1, 0]]).unwrap_err();
        assert_eq!(
            err,
            Error::TooManyPoints {
                points: 10_000_000_000
            }
        );
        assert!(err.to_string().contains("10000000000 points"), "{err}");
    }

    #[test]
    fn empty_space_rejected() {
        let space = IterSpace::rect_bounds(&[1], &[0]).unwrap();
        assert_eq!(
            ComputationalStructure::new(space, vec![]).unwrap_err(),
            Error::EmptySpace
        );
    }
}
