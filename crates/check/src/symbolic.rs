//! Rules `LC009`–`LC012` — the symbolic analysis engine.
//!
//! The enumerative rules (`LC001`–`LC007`) certify one instantiated
//! iteration space: Lemma 1 walks every block point, and the race scan
//! walks every message of the generated program, so a pass at `N = 64`
//! proves nothing about `N = 65` and check time grows with the
//! instance. The paper's statements are *parametric*, and this module
//! proves them that way wherever the lattice structure allows:
//!
//! * **`LC009` parametric legality and Lemma 1.** `Π·d ≥ 1` over a
//!   uniform dependence set is already a bound-free statement (checked
//!   in `i128`). For Lemma 1, two iterations of one block can share a
//!   step only if they lie on two grouped projection lines `u, v` whose
//!   difference `u − v` is an *integer* vector: colliding points `x, y`
//!   with `Π·x = Π·y` satisfy `x − y = u − v` exactly. A non-integral
//!   projected difference therefore proves the pair collision-free for
//!   **every** iteration-space size — no bounds ever enter the
//!   argument. Integral differences are decided by the bounded
//!   Presburger core ([`crate::presburger`]) over the instance's affine
//!   bounds plus the line-membership lattice equalities; only an
//!   `Unknown` verdict falls back to enumerating that single line pair.
//! * **`LC010` exact front-end dependence analysis.** Derives the
//!   dependences from the subscripts themselves. Pairs in the uniform
//!   class reuse the front end; the derived vector set must match the
//!   declared `D` (a missed dependence is an error — synchronization
//!   for it would never be generated). Pairs with differing linear
//!   parts get the exact coupled test `U_x·i − U_y·j = a_y − a_x` over
//!   the integer lattice: no solution means the accesses can *never*
//!   conflict (and the pair is accepted — more precise than the
//!   front end's blanket rejection would suggest); a solution family
//!   with varying distance is reported as a non-uniform dependence with
//!   two concrete conflicting iteration pairs as evidence.
//! * **`LC011` symbolic protocol summary.** Members of a projection
//!   line inside the (convex) affine iteration space form a contiguous
//!   run of the line's 1-D lattice, so each line's execution steps are
//!   an arithmetic progression described by `(first, length)` and the
//!   shared stride `|Π|²/gcd(Π)`. Message counts between blocks are
//!   derived per `(line, dependence)` pair in O(1) from AP overlaps —
//!   O(lines·deps) total, independent of the extent along Π — and must
//!   match the Task Interaction Graph edge for edge. The send/recv sets
//!   are two views of the same summary, so matching the TIG also
//!   certifies that every send has a matching receive.
//! * **`LC012` blocking-wait cycles.** Every message crosses `Π·d`
//!   schedule steps. A cycle of inter-block waits can stall forever
//!   only if its total lag is ≤ 0 (each wait points at a producer no
//!   later than the consumer); with program order `(step, lex)` inside
//!   each processor, positive total lag on every cycle yields
//!   deadlock-freedom by induction on steps. The rule searches the
//!   derived block graph for a non-positive-lag cycle (Bellman–Ford).
//!
//! The enumerative rules stay available as the cross-validation oracle;
//! the property harness in `tests-int` asserts both sides agree.

use crate::diag::{Diagnostic, RuleId, Span};
use crate::legality::check_legality;
use crate::presburger::{System, Verdict};
use crate::uniformize::UniformizeStats;
use loom_hyperplane::TimeFn;
use loom_loopir::{
    accesses_by_array, Access, DepOptions, Dependence, IterSpace, LoopNest, Point, Uniformization,
};
use loom_partition::{Partitioning, Tig};
use loom_rational::int::gcd_all;
use loom_rational::intlinalg::{try_solve_integer, IMat};
use std::collections::BTreeMap;

/// How the symbolic run discharged its proof obligations — surfaced as
/// `check.symbolic.*` observability counters by the pipeline gate.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SymbolicStats {
    /// Line pairs proven collision-free for *all* iteration-space sizes
    /// by the lattice argument alone (non-integral projected
    /// difference).
    pub lattice_proofs: u64,
    /// Line pairs decided (either way) by the bounded Presburger core.
    pub fm_decided: u64,
    /// Line pairs the symbolic core reported `Unknown` on, decided by
    /// the enumerative fallback instead.
    pub enumerated: u64,
    /// `(line, dependence)` communication summaries derived in O(1)
    /// from arithmetic-progression overlap.
    pub protocol_summaries: u64,
    /// Lines whose step set was not a single arithmetic progression
    /// (never for affine bounds; counted defensively) and fell back to
    /// explicit step-list intersection.
    pub protocol_fallbacks: u64,
}

fn fmt_vec(v: &[i64]) -> String {
    let parts: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    format!("({})", parts.join(","))
}

// ---------------------------------------------------------------------------
// LC009 — parametric legality + symbolic Lemma 1
// ---------------------------------------------------------------------------

/// `Π·d ≥ 1` for every dependence, reported under `LC009`.
///
/// Over a uniform dependence set this statement never mentions the
/// bounds, so the enumerative arithmetic *is* the parametric proof; the
/// rule id records that symbolic mode discharged it.
pub fn check_legality_symbolic(pi: &TimeFn, deps: &[Point]) -> Vec<Diagnostic> {
    check_legality(pi, deps)
        .into_iter()
        .map(|mut d| {
            d.rule = RuleId::ParametricLegality;
            d
        })
        .collect()
}

/// Symbolic Lemma 1 over the partitioning's own grouping.
pub fn check_lemma1_symbolic(p: &Partitioning, stats: &mut SymbolicStats) -> Vec<Diagnostic> {
    let groups: Vec<Vec<usize>> = p
        .grouping()
        .groups
        .iter()
        .map(|g| g.members.clone())
        .collect();
    check_lemma1_symbolic_groups(p, &groups, stats)
}

/// Symbolic Lemma 1 over explicit groups of projection-line ids
/// (projected-point ids of `p.projected()`) — lets tests hand in
/// deliberately merged groups, mirroring [`crate::check_lemma1`].
///
/// Points on a *single* line never collide (`x − y = λΠ` implies
/// `Π·(x − y) = λ|Π|² ≠ 0`), so only cross-line pairs are examined.
/// Each line is read as its integer scaled projection `S = |Π|²·x^p`
/// ([`ProjectedStructure::scaled`](loom_partition::ProjectedStructure::scaled)).
pub fn check_lemma1_symbolic_groups(
    p: &Partitioning,
    groups: &[Vec<usize>],
    stats: &mut SymbolicStats,
) -> Vec<Diagnostic> {
    let qp = p.projected();
    let space = p.structure().space();
    let pi = p.time_fn();
    // The projection checked that `|Π|²` fits in `i64`.
    let pi_sq: i64 = pi.coeffs().iter().map(|&c| c * c).sum();
    let mut out = Vec::new();

    for (gid, members) in groups.iter().enumerate() {
        // The projection scaled every line to find the least.
        let scaled: Vec<Vec<i64>> = members
            .iter()
            .map(|&a| qp.scaled(qp.line_key(a)).expect("a projected line scales"))
            .collect();
        for (i, &a) in members.iter().enumerate() {
            for (j, &b) in members.iter().enumerate().skip(i + 1) {
                // Colliding points of lines a and b would differ by
                // exactly `δ = (S_a − S_b) / |Π|²`.
                let diff = scaled[i]
                    .iter()
                    .zip(&scaled[j])
                    .map(|(&x, &y)| i128::from(x) - i128::from(y));
                if diff.clone().any(|c| c % i128::from(pi_sq) != 0) {
                    // δ is not integral, so no integer points collide
                    // for ANY bounds.
                    stats.lattice_proofs += 1;
                    continue;
                }
                let delta: Option<Point> = diff
                    .map(|c| i64::try_from(c / i128::from(pi_sq)).ok())
                    .collect();
                let system = delta
                    .as_ref()
                    .and_then(|delta| collision_system(space, pi, &scaled[i], delta));
                match system.map(|s| s.solve()) {
                    Some(Verdict::Unsat) => stats.fm_decided += 1,
                    Some(Verdict::Sat(x)) => {
                        stats.fm_decided += 1;
                        let delta = delta.expect("the system was built from δ");
                        let y: Point = x.iter().zip(&delta).map(|(&xi, &di)| xi - di).collect();
                        let t = pi.time_of(&x);
                        out.push(shared_step(gid, x, y, t));
                    }
                    Some(Verdict::Unknown) | None => {
                        stats.enumerated += 1;
                        out.extend(enumerate_line_pair(p, gid, a, b));
                    }
                }
            }
        }
    }
    out
}

fn shared_step(gid: usize, a: Point, b: Point, t: i64) -> Diagnostic {
    Diagnostic::error(
        RuleId::ParametricLegality,
        Span::PointPair { a, b },
        format!(
            "both iterations of block B{gid} execute at step {t}; \
             Lemma 1 requires distinct steps within a block"
        ),
    )
}

/// The integer system "some `x` on the line with scaled projection `s`
/// collides with `x − δ`": affine space bounds for both points plus the
/// scaled line-membership equalities `|Π|²·x_j − π_j·(Π·x) = s_j`.
/// Returns `None` when the constraint coefficients overflow `i64`
/// (callers enumerate).
fn collision_system(space: &IterSpace, pi: &TimeFn, s: &[i64], delta: &[i64]) -> Option<System> {
    let n = space.dim();
    let picf = pi.coeffs();
    // The projection checked that `|Π|²` fits in `i64`.
    let pi_sq: i64 = picf.iter().map(|&c| c * c).sum();
    let mut sys = System::new(n);

    // dot(coeffs, delta) in checked arithmetic.
    let dot_delta = |coeffs: &[i64]| -> Option<i64> {
        let mut acc: i128 = 0;
        for (&c, &d) in coeffs.iter().zip(delta) {
            acc = acc.checked_add((c as i128).checked_mul(d as i128)?)?;
        }
        i64::try_from(acc).ok()
    };

    for k in 0..n {
        let lo = space.lower(k);
        let hi = space.upper(k);
        let mut lo_c: Vec<i64> = lo.coeffs().iter().map(|&c| -c).collect();
        lo_c[k] = lo_c[k].checked_add(1)?;
        let mut hi_c: Vec<i64> = hi.coeffs().to_vec();
        hi_c[k] = hi_c[k].checked_sub(1)?;
        // x_k − lo_k(x) ≥ 0   and   hi_k(x) − x_k ≥ 0.
        sys.ge0(&lo_c, lo.constant_term().checked_neg()?);
        sys.ge0(&hi_c, hi.constant_term());
        // The same bounds for y = x − δ, rewritten over x.
        let lo_konst = lo
            .constant_term()
            .checked_neg()?
            .checked_sub(delta[k])?
            .checked_add(dot_delta(lo.coeffs())?)?;
        sys.ge0(&lo_c, lo_konst);
        let hi_konst = hi
            .constant_term()
            .checked_add(delta[k])?
            .checked_sub(dot_delta(hi.coeffs())?)?;
        sys.ge0(&hi_c, hi_konst);
    }

    // Line membership: |Π|²·x_j − π_j·(Π·x) = s_j for every j.
    for j in 0..n {
        let mut coeffs = vec![0i64; n];
        for k in 0..n {
            let cross = picf[j].checked_mul(picf[k])?;
            let base = if k == j { pi_sq } else { 0 };
            coeffs[k] = base.checked_sub(cross)?;
        }
        sys.eq0(&coeffs, s[j].checked_neg()?);
    }
    Some(sys)
}

/// Enumerative fallback for one line pair: exact step comparison over
/// just the two lines' members.
fn enumerate_line_pair(p: &Partitioning, gid: usize, a: usize, b: usize) -> Vec<Diagnostic> {
    let qp = p.projected();
    let cs = p.structure();
    let step = qp.steps().as_slice();
    let mut out = Vec::new();
    let steps_a: BTreeMap<i64, usize> = qp
        .line_members(a)
        .iter()
        .map(|&id| (step[id], id))
        .collect();
    for &id in qp.line_members(b) {
        if let Some(&first) = steps_a.get(&step[id]) {
            out.push(shared_step(
                gid,
                cs.point(first).to_vec(),
                cs.point(id).to_vec(),
                step[id],
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// LC010 — exact front-end dependence analysis
// ---------------------------------------------------------------------------

/// Derive the dependences a nest's array subscripts actually induce and
/// check them against the declared set `D` (when given).
///
/// Nests inside the uniform class reuse the front end and are compared
/// vector-for-vector against `declared`. Nests the front end rejects as
/// non-uniform get the exact pairwise treatment: the coupled system
/// `U_x·i − U_y·j = a_y − a_x` over `ℤ²ⁿ` either has no solution (the
/// accesses never conflict — accepted) or yields concrete evidence of a
/// varying dependence distance.
pub fn check_access_dependences(nest: &LoopNest, declared: Option<&[Point]>) -> Vec<Diagnostic> {
    check_access_dependences_uniformized(nest, declared, &mut UniformizeStats::default()).0
}

/// [`check_access_dependences`] with the uniformization engine
/// surfaced: when the front end rejects the nest as non-uniform, the
/// fold-and-certify path (`LC016`/`LC017`) runs first; on success the
/// nest is admitted and the certified [`Uniformization`] is returned
/// (with `declared` compared against the *folded* dependence set), on
/// failure the rejection falls back to the budgeted pairwise scan.
pub fn check_access_dependences_uniformized(
    nest: &LoopNest,
    declared: Option<&[Point]>,
    stats: &mut UniformizeStats,
) -> (Vec<Diagnostic>, Option<Uniformization>) {
    let opts = DepOptions::default();
    match loom_loopir::extract_dependences(nest, opts) {
        Ok(deps) => {
            let Some(declared) = declared else {
                return (Vec::new(), None);
            };
            (compare_vector_sets(&deps, declared), None)
        }
        Err(loom_loopir::Error::NonUniform { .. }) => {
            crate::uniformize::nonuniform_analysis(nest, declared, stats)
        }
        Err(e) => (
            vec![Diagnostic::warning(
                RuleId::AccessDependence,
                Span::Nest,
                format!("dependence extraction failed ({e}); cannot verify the declared set D"),
            )],
            None,
        ),
    }
}

/// Compare the dependence records a nest's accesses induce against the
/// declared vector set `D`: missing vectors are errors (a needed
/// synchronization would not be generated), dead declared vectors are
/// warnings. Shared between the uniform path and the uniformized path
/// (where `deps` is the folded set).
pub(crate) fn compare_vector_sets(deps: &[Dependence], declared: &[Point]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let derived: Vec<Point> = {
        use std::collections::BTreeSet;
        let set: BTreeSet<Point> = deps
            .iter()
            .map(|d| d.vector.clone())
            .filter(|v| v.iter().any(|&x| x != 0))
            .collect();
        set.into_iter().collect()
    };
    for v in &derived {
        if !declared.contains(v) {
            let who = deps
                .iter()
                .find(|d| &d.vector == v)
                .expect("derived vector has a witness dependence");
            out.push(Diagnostic::error(
                RuleId::AccessDependence,
                Span::Nest,
                format!(
                    "the {} dependence {} on `{}` induced by the array accesses \
                     is missing from the declared set D; no synchronization \
                     would be generated for it",
                    who.kind,
                    fmt_vec(v),
                    who.array
                ),
            ));
        }
    }
    for (index, v) in declared.iter().enumerate() {
        if !derived.contains(v) {
            out.push(Diagnostic::warning(
                RuleId::AccessDependence,
                Span::Dep {
                    index,
                    vector: v.clone(),
                },
                "declared dependence is not induced by any access pair \
                 (dead synchronization: harmless but wasteful)"
                    .to_string(),
            ));
        }
    }
    out
}

fn access_pair_span(array: &str, a: &Access, b: &Access) -> Span {
    Span::AccessPair {
        array: array.to_string(),
        a: a.to_string(),
        b: b.to_string(),
    }
}

/// Evidence cap for [`scan_nonuniform_pairs`]: at most this many
/// diagnostics are produced before the remaining candidate pairs are
/// elided with a note, bounding the scan on access-heavy nests.
const EVIDENCE_BUDGET: usize = 8;

/// The exact pairwise scan for nests the uniform front end rejects.
/// Evidence is capped at [`EVIDENCE_BUDGET`] diagnostics; remaining
/// candidate pairs are counted and elided without solving.
pub(crate) fn scan_nonuniform_pairs(nest: &LoopNest) -> Vec<Diagnostic> {
    let n = nest.dim();
    let mut out = Vec::new();
    let mut elided = 0usize;
    for (array, accs) in accesses_by_array(nest) {
        for (x, &(_, ax, wx)) in accs.iter().enumerate() {
            for &(_, ay, wy) in accs.iter().skip(x) {
                if !(wx || wy) || ax.same_linear_part(ay) || ax.rank() == 0 || ay.rank() == 0 {
                    continue;
                }
                if out.len() >= EVIDENCE_BUDGET {
                    elided += 1;
                    continue;
                }
                if ax.rank() != ay.rank() {
                    out.push(Diagnostic::error(
                        RuleId::AccessDependence,
                        access_pair_span(&array, ax, ay),
                        format!(
                            "accesses address `{array}` with different ranks \
                             ({} vs {}); the dependence structure is undefined",
                            ax.rank(),
                            ay.rank()
                        ),
                    ));
                    continue;
                }
                // U_x·i − U_y·j = a_y − a_x over (i, j) ∈ ℤ²ⁿ.
                let rows: Vec<Vec<i64>> = ax
                    .subscripts()
                    .iter()
                    .zip(ay.subscripts())
                    .map(|(sx, sy)| {
                        sx.coeffs()
                            .iter()
                            .copied()
                            .chain(sy.coeffs().iter().map(|&c| -c))
                            .collect()
                    })
                    .collect();
                let rhs: Vec<i64> = ax
                    .subscripts()
                    .iter()
                    .zip(ay.subscripts())
                    .map(|(sx, sy)| sy.constant_term() - sx.constant_term())
                    .collect();
                let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
                let coupled = IMat::from_rows(&refs);
                match try_solve_integer(&coupled, &rhs) {
                    Err(_) => out.push(Diagnostic::warning(
                        RuleId::AccessDependence,
                        access_pair_span(&array, ax, ay),
                        "overflow while solving the conflict system; cannot \
                         classify this access pair"
                            .to_string(),
                    )),
                    Ok(None) => {
                        // The subscript equations have no integer solution:
                        // these accesses never touch a common element, for
                        // any iteration-space size. Exactness accepts what
                        // the front end would have rejected.
                    }
                    Ok(Some((s0, gens))) => {
                        let (i0, j0) = (&s0[..n], &s0[n..]);
                        let d0: Point = j0.iter().zip(i0).map(|(&j, &i)| j - i).collect();
                        let varying = gens
                            .iter()
                            .find(|g| g[..n].iter().zip(&g[n..]).any(|(&gi, &gj)| gi != gj));
                        match varying {
                            None => out.push(Diagnostic::error(
                                RuleId::AccessDependence,
                                access_pair_span(&array, ax, ay),
                                format!(
                                    "iterations conflict on `{array}` at the constant \
                                     distance {}, but the subscript linear parts differ; \
                                     outside the uniform class the front end supports",
                                    fmt_vec(&d0)
                                ),
                            )),
                            Some(g) => {
                                let i1: Point =
                                    i0.iter().zip(&g[..n]).map(|(&i, &gi)| i + gi).collect();
                                let j1: Point =
                                    j0.iter().zip(&g[n..]).map(|(&j, &gj)| j + gj).collect();
                                let d1: Point = j1.iter().zip(&i1).map(|(&j, &i)| j - i).collect();
                                out.push(Diagnostic::error(
                                    RuleId::AccessDependence,
                                    access_pair_span(&array, ax, ay),
                                    format!(
                                        "conflicting iteration pairs {}\u{2192}{} (distance {}) \
                                         and {}\u{2192}{} (distance {}): the dependence \
                                         distance varies with the iteration, so no constant \
                                         dependence vector covers this pair (non-uniform)",
                                        fmt_vec(i0),
                                        fmt_vec(j0),
                                        fmt_vec(&d0),
                                        fmt_vec(&i1),
                                        fmt_vec(&j1),
                                        fmt_vec(&d1),
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    if out.is_empty() {
        // The front end said NonUniform but every pair proved either
        // conflict-free or uniform: still report, since the pipeline
        // cannot process the nest, but explain the finer verdict.
        out.push(Diagnostic::error(
            RuleId::AccessDependence,
            Span::Nest,
            "the front end rejected the nest as non-uniform".to_string(),
        ));
    }
    if elided > 0 {
        out.push(Diagnostic::info(
            RuleId::AccessDependence,
            Span::Nest,
            format!(
                "{elided} further non-uniform access pair(s) elided \
                 (evidence budget of {EVIDENCE_BUDGET} diagnostics reached)"
            ),
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// LC011 / LC012 — symbolic communication-protocol verification
// ---------------------------------------------------------------------------

/// One projection line's execution steps.
enum LineSteps {
    /// `first, first + stride, …` (`len` terms) — the affine-bound
    /// (convex) case, always.
    Ap {
        /// First (smallest) step.
        first: i64,
        /// Number of members.
        len: i64,
    },
    /// Explicit sorted step list (defensive fallback).
    Explicit(Vec<i64>),
}

/// The block-level traffic derived symbolically from the projected
/// structure, plus the minimum schedule lag per directed edge.
///
/// This is the LC011 arithmetic-progression machinery as a library
/// entry point: every `(line, dependence)` pair is summarized by one
/// [`ap_overlap`] count in O(1), so the totals scale with *lines*, not
/// iteration-space *points*. `loom_core::symbolic_cost` consumes it to
/// derive per-link message counts without enumerating a single message.
#[derive(Clone, Debug)]
pub struct BlockTraffic {
    /// Directed message counts between distinct blocks.
    pub directed: BTreeMap<(usize, usize), u64>,
    /// Minimum `Π·d` over the dependences contributing to each edge.
    pub min_lag: BTreeMap<(usize, usize), i64>,
    /// Number of `(line, dependence)` pairs summarized in O(1).
    pub summaries: u64,
    /// Pairs that fell back to explicit step lists (0 on affine-bound
    /// spaces; any nonzero count means the AP structure is broken).
    pub fallbacks: u64,
}

impl BlockTraffic {
    /// Total messages between blocks mapped to *distinct* processors
    /// under `assignment` — exactly the engine's unbatched message
    /// count, derived without enumerating arcs.
    pub fn remote_messages(&self, assignment: &[usize]) -> u64 {
        self.directed
            .iter()
            .filter(|(&(a, b), _)| assignment[a] != assignment[b])
            .map(|(_, &c)| c)
            .sum()
    }
}

/// Derive the symbolic block-to-block traffic of a partitioning: the
/// public face of [`check_protocol`]'s derivation (LC011).
pub fn block_traffic(p: &Partitioning) -> BlockTraffic {
    derive_traffic(p)
}

/// Count `|{t ∈ A : t + shift ∈ B}|` for two arithmetic progressions
/// `A = a_first, a_first+stride, …` (`a_len` terms) and likewise `B` —
/// the O(1) overlap kernel behind LC011's message counting, exposed for
/// the symbolic cost engine.
pub fn ap_overlap(
    a_first: i64,
    a_len: i64,
    b_first: i64,
    b_len: i64,
    shift: i64,
    stride: i64,
) -> u64 {
    overlap(
        &LineSteps::Ap {
            first: a_first,
            len: a_len,
        },
        &LineSteps::Ap {
            first: b_first,
            len: b_len,
        },
        shift,
        stride,
    )
}

/// Count `|{t ∈ a : t + w ∈ b}|` for two step sets with common stride.
fn overlap(a: &LineSteps, b: &LineSteps, w: i64, stride: i64) -> u64 {
    match (a, b) {
        (LineSteps::Ap { first: a0, len: la }, LineSteps::Ap { first: b0, len: lb }) => {
            // Targets shifted back by w must align on the stride.
            let b0 = b0 - w;
            if (a0 - b0).rem_euclid(stride) != 0 {
                return 0;
            }
            let lo = (*a0).max(b0);
            let hi = (a0 + stride * (la - 1)).min(b0 + stride * (lb - 1));
            if hi < lo {
                0
            } else {
                ((hi - lo) / stride + 1) as u64
            }
        }
        _ => {
            let to_vec = |s: &LineSteps| -> Vec<i64> {
                match s {
                    LineSteps::Ap { first, len } => (0..*len).map(|i| first + i * stride).collect(),
                    LineSteps::Explicit(v) => v.clone(),
                }
            };
            let av = to_vec(a);
            let bv = to_vec(b);
            av.iter()
                .filter(|&&t| bv.binary_search(&(t + w)).is_ok())
                .count() as u64
        }
    }
}

/// Derive per-block traffic at projection-line granularity.
fn derive_traffic(p: &Partitioning) -> BlockTraffic {
    let qp = p.projected();
    let cs = p.structure();
    let pi = p.time_fn();
    let picf = pi.coeffs();
    let pi_sq: i64 = picf.iter().map(|&c| c * c).sum();
    let g = gcd_all(picf).max(1);
    let stride = pi_sq / g;
    let group_of = &p.grouping().group_of;

    let mut fallbacks = 0u64;
    let lines: Vec<LineSteps> = (0..qp.len())
        .map(|pid| {
            let members = qp.line_members(pid);
            let first = pi.time_of(cs.point(members[0]));
            let last = pi.time_of(cs.point(members[members.len() - 1]));
            let len = members.len() as i64;
            if last - first == stride * (len - 1) {
                LineSteps::Ap { first, len }
            } else {
                // Convexity of affine-bound spaces makes this
                // unreachable; fall back to the exact list anyway.
                fallbacks += 1;
                let mut steps: Vec<i64> =
                    members.iter().map(|&id| pi.time_of(cs.point(id))).collect();
                steps.sort_unstable();
                LineSteps::Explicit(steps)
            }
        })
        .collect();

    let mut directed: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    let mut min_lag: BTreeMap<(usize, usize), i64> = BTreeMap::new();
    let mut summaries = 0u64;
    for k in qp.nonzero_dep_indices() {
        let w = pi.dot(&cs.deps()[k]);
        for pid in 0..qp.len() {
            let Some(qid) = qp.neighbor(pid, k) else {
                // No point of this line has its successor in the space.
                continue;
            };
            summaries += 1;
            let count = overlap(&lines[pid], &lines[qid], w, stride);
            if count == 0 {
                continue;
            }
            let (a, b) = (group_of[pid], group_of[qid]);
            if a == b {
                continue; // intra-block arcs carry no messages
            }
            *directed.entry((a, b)).or_insert(0) += count;
            min_lag
                .entry((a, b))
                .and_modify(|l| *l = (*l).min(w))
                .or_insert(w);
        }
    }
    BlockTraffic {
        directed,
        min_lag,
        summaries,
        fallbacks,
    }
}

/// `LC011`: the symbolically derived block-to-block message counts must
/// match the Task Interaction Graph exactly.
///
/// The derivation constructs sends and receives from the same
/// `(line, dependence)` summaries — block `a` sends exactly the
/// messages block `b` receives — so agreement with the TIG certifies
/// the send/recv sets are matched without enumerating one message.
pub fn check_protocol(p: &Partitioning, tig: &Tig, stats: &mut SymbolicStats) -> Vec<Diagnostic> {
    let traffic = derive_traffic(p);
    stats.protocol_summaries += traffic.summaries;
    stats.protocol_fallbacks += traffic.fallbacks;

    let mut folded: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for (&(a, b), &w) in &traffic.directed {
        *folded.entry((a.min(b), a.max(b))).or_insert(0) += w;
    }
    let expected: BTreeMap<(usize, usize), u64> = tig.edges().collect();

    let mut out = Vec::new();
    let keys: std::collections::BTreeSet<(usize, usize)> =
        folded.keys().chain(expected.keys()).copied().collect();
    for (a, b) in keys {
        let derived = folded.get(&(a, b)).copied().unwrap_or(0);
        let recorded = expected.get(&(a, b)).copied().unwrap_or(0);
        if derived != recorded {
            out.push(Diagnostic::error(
                RuleId::ProtocolSummary,
                Span::TigEdge { a, b },
                format!(
                    "symbolic send/recv summary derives {derived} message(s) between \
                     B{a} and B{b}, but the task graph records {recorded}; the \
                     communication protocol and the TIG disagree"
                ),
            ));
        }
    }
    out
}

/// `LC012`: no cycle of blocking waits with non-positive total lag in
/// the derived block graph.
pub fn check_blocking_cycles(p: &Partitioning) -> Vec<Diagnostic> {
    let traffic = derive_traffic(p);
    let nb = p.num_blocks();
    let edges: Vec<(usize, usize, i64)> = traffic
        .min_lag
        .iter()
        .map(|(&(a, b), &w)| (a, b, w))
        .collect();
    let Some(cycle) = nonpositive_cycle(nb, &edges) else {
        return Vec::new();
    };
    let lag: i64 = cycle
        .windows(2)
        .map(|w| traffic.min_lag.get(&(w[0], w[1])).copied().unwrap_or(0))
        .sum();
    let path: Vec<String> = cycle.iter().map(|b| format!("B{b}")).collect();
    vec![Diagnostic::error(
        RuleId::BlockingCycle,
        Span::Block { block: cycle[0] },
        format!(
            "blocks {} form a cycle of blocking waits with total schedule lag \
             {lag} \u{2264} 0; a receive in this cycle can wait on its own \
             block's progress forever",
            path.join(" \u{2192} ")
        ),
    )]
}

/// Find a directed cycle whose edge weights sum to ≤ 0, as a closed
/// walk `v₀ → … → v₀`, or `None`. Weights are scaled to `w·M − 1`
/// (with `M` above any cycle length) so Bellman–Ford's strict
/// negative-cycle detection catches zero-lag cycles too.
fn nonpositive_cycle(n: usize, edges: &[(usize, usize, i64)]) -> Option<Vec<usize>> {
    if n == 0 || edges.is_empty() {
        return None;
    }
    let m = (edges.len() + 1) as i128;
    let scaled: Vec<(usize, usize, i128)> = edges
        .iter()
        .map(|&(a, b, w)| (a, b, (w as i128) * m - 1))
        .collect();
    let mut dist = vec![0i128; n];
    let mut pred = vec![usize::MAX; n];
    let mut touched = None;
    for _ in 0..n {
        touched = None;
        for &(a, b, w) in &scaled {
            if dist[a] + w < dist[b] {
                dist[b] = dist[a] + w;
                pred[b] = a;
                touched = Some(b);
            }
        }
        touched?;
    }
    // A relaxation in the n-th round: walk predecessors onto the cycle.
    let mut v = touched?;
    for _ in 0..n {
        v = pred[v];
    }
    let start = v;
    let mut cycle = vec![start];
    let mut u = pred[start];
    while u != start {
        cycle.push(u);
        u = pred[u];
    }
    cycle.push(start);
    cycle.reverse();
    Some(cycle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_partition::{partition, PartitionConfig};

    fn partition_of(w: &loom_workloads::Workload) -> Partitioning {
        partition(
            w.nest.space().clone(),
            w.verified_deps(),
            w.time_fn(),
            &PartitionConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn l1_lemma1_proven_without_enumeration() {
        let w = loom_workloads::l1::workload(4);
        let p = partition_of(&w);
        let mut stats = SymbolicStats::default();
        let ds = check_lemma1_symbolic(&p, &mut stats);
        assert!(ds.is_empty(), "{ds:?}");
        // Adjacent l1 lines differ by (±1/2, ∓1/2): the lattice
        // argument alone proves every pair, for every size.
        assert!(stats.lattice_proofs > 0);
        assert_eq!(stats.enumerated, 0);
    }

    #[test]
    fn matmul_lemma1_decided_by_fm() {
        let w = loom_workloads::matmul::workload(4);
        let p = partition_of(&w);
        let mut stats = SymbolicStats::default();
        let ds = check_lemma1_symbolic(&p, &mut stats);
        assert!(ds.is_empty(), "{ds:?}");
        // Grouped matmul lines can have integral differences; those
        // pairs go through the Presburger core, never enumeration.
        assert_eq!(stats.enumerated, 0);
    }

    #[test]
    fn merged_groups_violate_symbolically_and_enumeratively() {
        let w = loom_workloads::l1::workload(4);
        let p = partition_of(&w);
        // Merge every line into one giant group: collisions guaranteed.
        let all: Vec<usize> = (0..p.projected().len()).collect();
        let mut stats = SymbolicStats::default();
        let ds = check_lemma1_symbolic_groups(&p, std::slice::from_ref(&all), &mut stats);
        assert!(!ds.is_empty());
        assert!(ds.iter().all(|d| d.rule == RuleId::ParametricLegality));
        // Oracle agreement on the same merged shape.
        let merged_block: Vec<usize> = all
            .iter()
            .flat_map(|&pid| p.projected().line_members(pid).iter().copied())
            .collect();
        let oracle = crate::check_lemma1(p.time_fn(), p.structure().point_table(), &[merged_block]);
        assert!(!oracle.is_empty());
    }

    #[test]
    fn legality_symbolic_retags_lc001() {
        let pi = TimeFn::new(vec![1, -1]);
        let deps = vec![vec![0, 1], vec![1, 0]];
        let ds = check_legality_symbolic(&pi, &deps);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].rule, RuleId::ParametricLegality);
    }

    #[test]
    fn protocol_matches_tig_for_builtins() {
        for w in [
            loom_workloads::l1::workload(4),
            loom_workloads::matvec::workload(8),
            loom_workloads::matmul::workload(4),
            loom_workloads::triangular::workload(6),
        ] {
            let p = partition_of(&w);
            let tig = Tig::from_partitioning(&p);
            let mut stats = SymbolicStats::default();
            let ds = check_protocol(&p, &tig, &mut stats);
            assert!(ds.is_empty(), "{}: {ds:?}", w.nest.name());
            assert_eq!(stats.protocol_fallbacks, 0, "{}", w.nest.name());
        }
    }

    #[test]
    fn tampered_tig_detected() {
        let w = loom_workloads::l1::workload(4);
        let p = partition_of(&w);
        let tig = Tig::from_partitioning(&p);
        let mut edges: BTreeMap<(usize, usize), u64> = tig.edges().collect();
        let (&key, &weight) = edges.iter().next().unwrap();
        edges.insert(key, weight + 1);
        let weights: Vec<u64> = (0..tig.len()).map(|v| tig.weight(v)).collect();
        let tampered = Tig::from_parts(weights, edges);
        let mut stats = SymbolicStats::default();
        let ds = check_protocol(&p, &tampered, &mut stats);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].rule, RuleId::ProtocolSummary);
    }

    #[test]
    fn clean_pipelines_have_no_blocking_cycles() {
        for w in [
            loom_workloads::l1::workload(4),
            loom_workloads::matvec::workload(8),
        ] {
            let p = partition_of(&w);
            assert!(check_blocking_cycles(&p).is_empty());
        }
    }

    #[test]
    fn nonpositive_cycle_detection() {
        // 0 → 1 (lag 1) → 0 (lag −1): total 0 ⇒ flagged.
        let cyc = nonpositive_cycle(2, &[(0, 1, 1), (1, 0, -1)]);
        assert!(cyc.is_some());
        // 0 → 1 (1) → 0 (1): total 2 ⇒ fine.
        assert!(nonpositive_cycle(2, &[(0, 1, 1), (1, 0, 1)]).is_none());
        // Self-contained positive cycles through three nodes.
        assert!(nonpositive_cycle(3, &[(0, 1, 1), (1, 2, 1), (2, 0, 1)]).is_none());
        assert!(nonpositive_cycle(3, &[(0, 1, 1), (1, 2, -1), (2, 0, 0)]).is_some());
    }

    #[test]
    fn nonuniform_pair_reported_with_evidence() {
        use loom_loopir::{Access, Aff, IterSpace, LoopNest, Stmt};
        let nest = LoopNest::new(
            "nonuniform",
            IterSpace::rect(&[8]).unwrap(),
            vec![Stmt::assign(
                Access::new("A", vec![Aff::new(vec![2], 0)]),
                vec![Access::simple("A", 1, &[(0, 0)])],
            )],
        )
        .unwrap();
        // A[2i] = A[i] is now *admitted* through uniformization: the
        // cover certificate (LC016 Info) and the over-approximation
        // warning (LC017) replace the old LC010 rejection.
        let mut stats = UniformizeStats::default();
        let (ds, u) = check_access_dependences_uniformized(&nest, None, &mut stats);
        let u = u.expect("nest admitted via uniformization");
        assert_eq!(u.vectors, vec![vec![1]]);
        assert!(ds.iter().any(|d| d.rule == RuleId::UniformizeSoundness
            && d.severity == crate::Severity::Info
            && d.message.contains("cover certified")));
        assert!(ds.iter().any(
            |d| d.rule == RuleId::UniformizeTightness && d.severity == crate::Severity::Warning
        ));
        assert!(!ds.iter().any(|d| d.severity == crate::Severity::Error));
        // A genuinely uncoverable nest (rank mismatch) still rejects
        // with the classic LC010 pairwise evidence.
        let bad = LoopNest::new(
            "ranks",
            IterSpace::rect(&[4, 4]).unwrap(),
            vec![Stmt::assign(
                Access::simple("A", 2, &[(0, 0)]),
                vec![Access::simple("A", 2, &[(0, 0), (1, 0)])],
            )],
        )
        .unwrap();
        let (ds, u) = check_access_dependences_uniformized(&bad, None, &mut stats);
        assert!(u.is_none());
        assert!(ds.iter().any(|d| d.rule == RuleId::AccessDependence
            && d.severity == crate::Severity::Error
            && d.message.contains("different ranks")));
    }

    #[test]
    fn scan_evidence_is_budget_capped() {
        use loom_loopir::{Access, Aff, IterSpace, LoopNest, Stmt};
        // Many distinct non-uniform read pairs against one write: the
        // scan stops at the budget and notes the elided remainder.
        let reads: Vec<Access> = (2..20)
            .map(|c| Access::new("A", vec![Aff::new(vec![c], 0)]))
            .collect();
        let nest = LoopNest::new(
            "wide",
            IterSpace::rect(&[8]).unwrap(),
            vec![Stmt::assign(Access::simple("A", 1, &[(0, 0)]), reads)],
        )
        .unwrap();
        let ds = scan_nonuniform_pairs(&nest);
        let errors = ds
            .iter()
            .filter(|d| d.severity == crate::Severity::Error)
            .count();
        assert!(errors <= EVIDENCE_BUDGET);
        assert!(ds
            .iter()
            .any(|d| d.severity == crate::Severity::Info && d.message.contains("elided")));
    }

    #[test]
    fn parity_disjoint_accesses_accepted_exactly() {
        use loom_loopir::{Access, Aff, IterSpace, LoopNest, Stmt};
        // A[2i] vs A[2i+1]: same linear part, never conflict — accepted
        // by the front end with an empty dependence set, and LC010
        // agrees with the (empty) declared set.
        let two_i = Aff::new(vec![2], 0);
        let nest = LoopNest::new(
            "parity",
            IterSpace::rect(&[8]).unwrap(),
            vec![Stmt::assign(
                Access::new("A", vec![two_i.clone()]),
                vec![Access::new("A", vec![two_i + 1])],
            )],
        )
        .unwrap();
        assert!(check_access_dependences(&nest, Some(&[])).is_empty());
    }

    #[test]
    fn missed_and_dead_declared_dependences_flagged() {
        let w = loom_workloads::l1::workload(4);
        let derived = w.verified_deps();
        // Complete declared set: clean.
        assert!(check_access_dependences(&w.nest, Some(&derived)).is_empty());
        // Drop one: missed-dependence error.
        let missing: Vec<Point> = derived[1..].to_vec();
        let ds = check_access_dependences(&w.nest, Some(&missing));
        assert!(ds
            .iter()
            .any(|d| d.severity == crate::Severity::Error && d.message.contains("missing")));
        // Add a bogus one: dead-synchronization warning.
        let mut extra = derived.clone();
        extra.push(vec![3, 3]);
        let ds = check_access_dependences(&w.nest, Some(&extra));
        assert!(ds
            .iter()
            .any(|d| d.severity == crate::Severity::Warning && d.message.contains("not induced")));
    }
}
