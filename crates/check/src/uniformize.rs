//! Rules `LC016`–`LC018` — certified uniformization.
//!
//! The loopir pass ([`loom_loopir::uniformize`](mod@loom_loopir::uniformize)) *synthesizes* a basis
//! of constant vectors from a bounded sample of each non-uniform access
//! pair's conflicts. Sampling proves nothing beyond the sampled prefix,
//! so admission into the pipeline runs through this module, which turns
//! the claimed cover into Presburger proof obligations over the whole
//! iteration space:
//!
//! * **`LC016` soundness.** For a pair with basis `V` (columns
//!   `v₁ … v_m`), let `G = VᵀV`, `δ = det G > 0`, `W = adj(G)·Vᵀ` (so
//!   `W·V = δ·I`) and `P = V·W − δ·I` (whose kernel is the column
//!   span). A realized distance `d` is a non-negative *integer*
//!   combination of the basis iff `P·d = 0`, `W·d ≥ 0` componentwise,
//!   and `δ` divides every component of `W·d`. The rule conjoins the
//!   pair's exact conflict relation (subscript equalities + space
//!   bounds for both iterations + a lexicographic case split) with the
//!   *negation* of each condition — a span escape, a sign escape, or a
//!   divisibility escape — and asks the Presburger core. `Unsat` on
//!   every escape system is the size-independent proof; a `Sat` witness
//!   is a concrete uncovered conflict, rendered as evidence; `Unknown`
//!   (or coefficient overflow) rejects the nest. A pair with an *empty*
//!   basis claims conflict-freedom, proven by `Unsat` of the bare
//!   conflict relation itself. Never a wrong admission.
//! * **`LC017` tightness.** A synthesized `v` over-approximates when
//!   some in-space edge `x → x + v` is not a true conflict of its pair
//!   in either access order — synchronization the folded nest pays for
//!   nothing. The existence test is Presburger-backed; the warning
//!   carries the witness plus (for small nests) a census of legal
//!   schedules lost: candidate `Π` over `[−2,2]ⁿ` legal for the true
//!   relation vs. legal for the folded vector set.
//! * **`LC018` legality handoff.** The chosen schedule must satisfy
//!   `Π·v ≥ 1` for every synthesized vector, so `LC001`/`LC009`
//!   legality of the folded set carries to every realized distance at
//!   every size (each distance being a non-negative combination of the
//!   `v`'s by `LC016`).

use crate::diag::{Diagnostic, Report, RuleId, Span};
use crate::presburger::{System, Verdict};
use loom_hyperplane::TimeFn;
use loom_loopir::deps::NonUniformPair;
use loom_loopir::uniformize::{cover_matrices, uniformize, FoldError, PairFold, Uniformization};
use loom_loopir::{DepOptions, IterSpace, LoopNest, Point};
use loom_obs::Recorder;

/// How the certification run discharged its obligations — surfaced as
/// `check.uniformize.*` observability counters by the pipeline gate.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UniformizeStats {
    /// Non-uniform access pairs folded into synthesized bases.
    pub pairs_folded: u64,
    /// Distinct synthesized vectors across all folds.
    pub vectors_synthesized: u64,
    /// Escape systems the Presburger core refuted (`Unsat` proofs).
    pub proofs: u64,
    /// Escape systems with a `Sat` witness — refuted covers.
    pub refuted: u64,
    /// Escape systems the core could not decide (`Unknown`/overflow);
    /// each one rejects the nest.
    pub unknown: u64,
    /// `LC017` tightness warnings emitted.
    pub tightness_warnings: u64,
}

impl UniformizeStats {
    /// Add these counts to `recorder` as the six `check.uniformize.*`
    /// counters.
    pub fn record(&self, recorder: &Recorder) {
        recorder.add("check.uniformize.pairs", self.pairs_folded);
        recorder.add("check.uniformize.vectors", self.vectors_synthesized);
        recorder.add("check.uniformize.proofs", self.proofs);
        recorder.add("check.uniformize.refuted", self.refuted);
        recorder.add("check.uniformize.unknown", self.unknown);
        recorder.add("check.uniformize.tightness", self.tightness_warnings);
    }
}

fn fmt_vec(v: &[i64]) -> String {
    let parts: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    format!("({})", parts.join(","))
}

fn pair_span(pair: &NonUniformPair) -> Span {
    Span::AccessPair {
        array: pair.array.clone(),
        a: pair.a.to_string(),
        b: pair.b.to_string(),
    }
}

// ---------------------------------------------------------------------------
// The conflict relation of one pair, as Presburger constraints
// ---------------------------------------------------------------------------

/// Constraint builder over `z = (i₀…i_{n−1}, j₀…j_{n−1}, q)`: iteration
/// `i` of access `a` and iteration `j` of access `b` touch the same
/// element, with `q` a free auxiliary for divisibility escapes. Every
/// coefficient is built in checked arithmetic; `None` rejects the nest.
struct PairRelation {
    n: usize,
    base: System,
}

impl PairRelation {
    fn build(space: &IterSpace, pair: &NonUniformPair) -> Option<PairRelation> {
        let n = space.dim();
        let nv = 2 * n + 1;
        let mut base = System::new(nv);
        // Space bounds for i (offset 0) and j (offset n).
        for off in [0, n] {
            for k in 0..n {
                let lo = space.lower(k);
                let hi = space.upper(k);
                let mut lo_c = vec![0i64; nv];
                let mut hi_c = vec![0i64; nv];
                for (l, &c) in lo.coeffs().iter().enumerate() {
                    lo_c[off + l] = c.checked_neg()?;
                }
                lo_c[off + k] = lo_c[off + k].checked_add(1)?;
                for (l, &c) in hi.coeffs().iter().enumerate() {
                    hi_c[off + l] = c;
                }
                hi_c[off + k] = hi_c[off + k].checked_sub(1)?;
                base.ge0(&lo_c, lo.constant_term().checked_neg()?);
                base.ge0(&hi_c, hi.constant_term());
            }
        }
        // Subscript equalities: a_r(i) − b_r(j) = 0 for every row.
        for (sa, sb) in pair.a.subscripts().iter().zip(pair.b.subscripts()) {
            let mut c = vec![0i64; nv];
            for (l, &x) in sa.coeffs().iter().enumerate() {
                c[l] = x;
            }
            for (l, &x) in sb.coeffs().iter().enumerate() {
                c[n + l] = x.checked_neg()?;
            }
            base.eq0(&c, sa.constant_term().checked_sub(sb.constant_term())?);
        }
        Some(PairRelation { n, base })
    }

    /// The relation restricted to lex case `(k, sigma)`: `j_l = i_l`
    /// for `l < k` and `sigma·(j_k − i_k) ≥ 1`, under which the
    /// lex-positive normalized distance is `d = sigma·(j − i)`.
    fn with_lex_case(&self, k: usize, sigma: i64) -> System {
        let n = self.n;
        let mut sys = self.base.clone();
        for l in 0..k {
            let mut c = vec![0i64; 2 * n + 1];
            c[n + l] = 1;
            c[l] = -1;
            sys.eq0(&c, 0);
        }
        let mut c = vec![0i64; 2 * n + 1];
        c[n + k] = sigma;
        c[k] = -sigma;
        sys.ge0(&c, -1);
        sys
    }

    /// Coefficients of the linear form `row·d` over `z`, where `d` is
    /// the case's normalized distance `sigma·(j − i)`.
    fn dist_form(&self, row: &[i64], sigma: i64) -> Option<Vec<i64>> {
        let n = self.n;
        let mut c = vec![0i64; 2 * n + 1];
        for (l, &p) in row.iter().enumerate() {
            let sp = p.checked_mul(sigma)?;
            c[n + l] = sp;
            c[l] = sp.checked_neg()?;
        }
        Some(c)
    }

    /// A witness `z` rendered as the conflicting iteration pair.
    fn witness_span(&self, z: &[i64]) -> Span {
        Span::PointPair {
            a: z[..self.n].to_vec(),
            b: z[self.n..2 * self.n].to_vec(),
        }
    }
}

fn to_i64_row(row: &[i128]) -> Option<Vec<i64>> {
    row.iter().map(|&x| i64::try_from(x).ok()).collect()
}

// ---------------------------------------------------------------------------
// LC016 — soundness certification
// ---------------------------------------------------------------------------

/// Certify one fold: every conflict of the pair, in every lex
/// direction, is covered by a non-negative integer combination of the
/// basis. Pushes one `Info` certificate on success; `Error`s on any
/// witness, `Unknown`, or overflow (the caller rejects the nest).
fn certify_fold(
    space: &IterSpace,
    fold: &PairFold,
    stats: &mut UniformizeStats,
    out: &mut Vec<Diagnostic>,
) -> bool {
    let pair = &fold.pair;
    let reject = |out: &mut Vec<Diagnostic>, msg: String| {
        out.push(Diagnostic::error(
            RuleId::UniformizeSoundness,
            pair_span(pair),
            msg,
        ));
        false
    };
    let Some(rel) = PairRelation::build(space, pair) else {
        stats.unknown += 1;
        return reject(
            out,
            "coefficient overflow while encoding the conflict relation; \
             the cover cannot be certified"
                .to_string(),
        );
    };
    // The escape forms, independent of the lex case: rows of P (span),
    // rows of W (sign), and (row of W, residue) pairs (divisibility).
    let cover = if fold.basis.is_empty() {
        None
    } else {
        let Some(cm) = cover_matrices(&fold.basis) else {
            stats.unknown += 1;
            return reject(
                out,
                "the synthesized basis is rank-deficient or overflows; \
                 the cover cannot be certified"
                    .to_string(),
            );
        };
        let delta = match i64::try_from(cm.delta) {
            Ok(d) => d,
            Err(_) => {
                stats.unknown += 1;
                return reject(
                    out,
                    format!(
                        "basis lattice determinant {} exceeds the certifiable range",
                        cm.delta
                    ),
                );
            }
        };
        let (Some(w), Some(p)) = (
            cm.w.iter()
                .map(|r| to_i64_row(r))
                .collect::<Option<Vec<_>>>(),
            cm.p.iter()
                .map(|r| to_i64_row(r))
                .collect::<Option<Vec<_>>>(),
        ) else {
            stats.unknown += 1;
            return reject(
                out,
                "cover matrix coefficients exceed the certifiable range".to_string(),
            );
        };
        Some((delta, w, p))
    };

    let n = space.dim();
    let mut proved = 0u64;
    let mut ok = true;
    for k in 0..n {
        for sigma in [1i64, -1] {
            let case = rel.with_lex_case(k, sigma);
            // Each escape is one conjunctive system: the conflict
            // relation in this lex direction, plus one way the
            // normalized distance evades the cover.
            let mut escapes: Vec<(System, &'static str)> = Vec::new();
            match &cover {
                None => {
                    // Empty basis: the fold claims conflict-freedom, so
                    // the relation itself must be empty.
                    escapes.push((case.clone(), "a conflict exists but the basis is empty"));
                }
                Some((delta, w, p)) => {
                    for row in p.iter().filter(|r| r.iter().any(|&x| x != 0)) {
                        let Some(form) = rel.dist_form(row, sigma) else {
                            stats.unknown += 1;
                            return reject(out, "overflow building a span escape".to_string());
                        };
                        let mut pos = case.clone();
                        pos.ge0(&form, -1); // row·d ≥ 1
                        escapes.push((pos, "its distance lies outside the basis span"));
                        let neg_form: Vec<i64> = form.iter().map(|&x| -x).collect();
                        let mut neg = case.clone();
                        neg.ge0(&neg_form, -1); // row·d ≤ −1
                        escapes.push((neg, "its distance lies outside the basis span"));
                    }
                    for row in w.iter() {
                        let Some(form) = rel.dist_form(row, sigma) else {
                            stats.unknown += 1;
                            return reject(out, "overflow building a sign escape".to_string());
                        };
                        let neg_form: Vec<i64> = form.iter().map(|&x| -x).collect();
                        let mut neg = case.clone();
                        neg.ge0(&neg_form, -1); // (W·d)_r ≤ −1
                        escapes.push((neg, "its distance needs a negative basis coefficient"));
                        for rho in 1..*delta {
                            let Some(mut form) = rel.dist_form(row, sigma) else {
                                stats.unknown += 1;
                                return reject(
                                    out,
                                    "overflow building a divisibility escape".to_string(),
                                );
                            };
                            form[2 * n] = -delta; // (W·d)_r − δ·q − ρ = 0
                            let mut res = case.clone();
                            res.eq0(&form, -rho);
                            escapes
                                .push((res, "its distance needs a fractional basis coefficient"));
                        }
                    }
                }
            }
            for (sys, why) in escapes {
                match sys.solve() {
                    Verdict::Unsat => {
                        stats.proofs += 1;
                        proved += 1;
                    }
                    Verdict::Sat(z) => {
                        stats.refuted += 1;
                        ok = false;
                        let d: Point = (0..n).map(|l| sigma * (z[n + l] - z[l])).collect();
                        out.push(Diagnostic::error(
                            RuleId::UniformizeSoundness,
                            rel.witness_span(&z),
                            format!(
                                "iterations conflict on `{}` at distance {} but {}: \
                                 the synthesized basis {:?} does not cover the \
                                 dependence relation",
                                pair.array,
                                fmt_vec(&d),
                                why,
                                fold.basis
                            ),
                        ));
                    }
                    Verdict::Unknown => {
                        stats.unknown += 1;
                        ok = false;
                        out.push(Diagnostic::error(
                            RuleId::UniformizeSoundness,
                            pair_span(pair),
                            "the Presburger core could not decide an escape system; \
                             the cover is uncertified and the nest stays rejected"
                                .to_string(),
                        ));
                    }
                }
            }
        }
    }
    if ok {
        out.push(Diagnostic::info(
            RuleId::UniformizeSoundness,
            pair_span(pair),
            if fold.basis.is_empty() {
                format!(
                    "certified conflict-free: the accesses never touch a common \
                     element at any size ({proved} system(s) refuted)"
                )
            } else {
                format!(
                    "cover certified: every conflict distance is a non-negative \
                     integer combination of {:?} ({proved} escape system(s) refuted)",
                    fold.basis
                )
            },
        ));
    }
    ok
}

/// `LC016` over a whole [`Uniformization`]: certify every fold.
/// `Ok` holds one `Info` certificate per pair; `Err` holds the error
/// diagnostics of the first failing pair (plus certificates of pairs
/// already proven).
pub fn certify_cover(
    nest: &LoopNest,
    u: &Uniformization,
    stats: &mut UniformizeStats,
) -> Result<Vec<Diagnostic>, Vec<Diagnostic>> {
    let mut out = Vec::new();
    stats.pairs_folded += u.pairs.len() as u64;
    stats.vectors_synthesized += u.synthesized().len() as u64;
    for fold in &u.pairs {
        if !certify_fold(nest.space(), fold, stats, &mut out) {
            return Err(out);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// LC017 — tightness
// ---------------------------------------------------------------------------

/// Does some in-space edge `x → x + v` fail to be a conflict of `pair`
/// in either access order? `Some(x)` is the over-approximation witness.
fn overapprox_witness(space: &IterSpace, pair: &NonUniformPair, v: &[i64]) -> Option<Point> {
    let n = space.dim();
    let dot = |coeffs: &[i64]| -> Option<i64> {
        let mut acc: i128 = 0;
        for (&c, &x) in coeffs.iter().zip(v) {
            acc = acc.checked_add((c as i128).checked_mul(x as i128)?)?;
        }
        i64::try_from(acc).ok()
    };
    let mut base = System::new(n);
    for k in 0..n {
        let lo = space.lower(k);
        let hi = space.upper(k);
        let mut lo_c: Vec<i64> = lo.coeffs().iter().map(|&c| -c).collect();
        lo_c[k] = lo_c[k].checked_add(1)?;
        let mut hi_c: Vec<i64> = hi.coeffs().to_vec();
        hi_c[k] = hi_c[k].checked_sub(1)?;
        // x in space…
        base.ge0(&lo_c, lo.constant_term().checked_neg()?);
        base.ge0(&hi_c, hi.constant_term());
        // …and x + v in space, rewritten over x.
        base.ge0(
            &lo_c,
            v[k].checked_sub(dot(lo.coeffs())?)?
                .checked_sub(lo.constant_term())?,
        );
        base.ge0(
            &hi_c,
            hi.constant_term()
                .checked_add(dot(hi.coeffs())?)?
                .checked_sub(v[k])?,
        );
    }
    // Per order, the non-conflict disjuncts: some subscript row differs
    // by at least 1 in one direction.
    let order_disjuncts = |src_a: bool| -> Option<Vec<(Vec<i64>, i64)>> {
        let mut ds = Vec::new();
        for (sa, sb) in pair.a.subscripts().iter().zip(pair.b.subscripts()) {
            // f(x) = a_r(at) − b_r(at') with {at, at'} = {x, x+v}.
            let coeffs: Vec<i64> = sa
                .coeffs()
                .iter()
                .zip(sb.coeffs())
                .map(|(&ca, &cb)| ca.checked_sub(cb))
                .collect::<Option<Vec<i64>>>()?;
            let shift = if src_a {
                // a at x, b at x+v.
                sa.constant_term()
                    .checked_sub(sb.constant_term())?
                    .checked_sub(dot(sb.coeffs())?)?
            } else {
                // a at x+v, b at x.
                sa.constant_term()
                    .checked_sub(sb.constant_term())?
                    .checked_add(dot(sa.coeffs())?)?
            };
            for sigma in [1i64, -1] {
                let c: Vec<i64> = coeffs
                    .iter()
                    .map(|&x| x.checked_mul(sigma))
                    .collect::<Option<Vec<i64>>>()?;
                ds.push((c, shift.checked_mul(sigma)?.checked_sub(1)?)); // σ·f ≥ 1
            }
        }
        Some(ds)
    };
    let d1 = order_disjuncts(true)?;
    let d2 = order_disjuncts(false)?;
    for (c1, k1) in &d1 {
        for (c2, k2) in &d2 {
            let mut sys = base.clone();
            sys.ge0(c1, *k1);
            sys.ge0(c2, *k2);
            if let Verdict::Sat(x) = sys.solve() {
                return Some(x);
            }
        }
    }
    None
}

/// The small-nest schedule census attached to the first `LC017`
/// warning: candidate `Π ∈ [−2,2]ⁿ` legal for the *true* dependence
/// relation vs. legal for the folded vector set, with the best step
/// count of each side. `None` when the nest is too deep (n > 3) or a
/// verdict came back `Unknown`.
fn pi_census(nest: &LoopNest, u: &Uniformization) -> Option<String> {
    let n = nest.dim();
    if n > 3 || n == 0 {
        return None;
    }
    let (uniform_deps, _) =
        loom_loopir::extract_dependences_relaxed(nest, DepOptions::default()).ok()?;
    let uniform_vectors: Vec<Point> = uniform_deps
        .iter()
        .map(|d| d.vector.clone())
        .filter(|v| v.iter().any(|&x| x != 0))
        .collect();
    let rels: Vec<PairRelation> = u
        .pairs
        .iter()
        .map(|f| PairRelation::build(nest.space(), &f.pair))
        .collect::<Option<Vec<_>>>()?;
    let mut candidates = vec![vec![0i64; n]];
    for _ in 0..n {
        candidates = candidates
            .into_iter()
            .flat_map(|c| {
                (-2..=2).map(move |x| {
                    let mut c = c.clone();
                    c.push(x);
                    c.remove(0);
                    c
                })
            })
            .collect();
    }
    let mut true_count = 0u64;
    let mut folded_count = 0u64;
    let mut best_true: Option<i64> = None;
    let mut best_folded: Option<i64> = None;
    for c in candidates {
        if c.iter().all(|&x| x == 0) {
            continue;
        }
        let pi = TimeFn::new(c.clone());
        if pi.is_legal_for(&u.vectors) {
            folded_count += 1;
            let s = pi.steps(nest.space());
            best_folded = Some(best_folded.map_or(s, |b: i64| b.min(s)));
        }
        if !pi.is_legal_for(&uniform_vectors) {
            continue;
        }
        // Legal for the true relation: no realized conflict distance
        // with Π·d ≤ 0, in any lex direction of any pair.
        let mut legal = true;
        'pairs: for rel in &rels {
            for k in 0..n {
                for sigma in [1i64, -1] {
                    let mut sys = rel.with_lex_case(k, sigma);
                    let form = rel.dist_form(&c, sigma)?;
                    let neg: Vec<i64> = form.iter().map(|&x| -x).collect();
                    sys.ge0(&neg, 0); // Π·d ≤ 0
                    match sys.solve() {
                        Verdict::Unsat => {}
                        Verdict::Sat(_) => {
                            legal = false;
                            break 'pairs;
                        }
                        Verdict::Unknown => return None,
                    }
                }
            }
        }
        if legal {
            true_count += 1;
            let s = pi.steps(nest.space());
            best_true = Some(best_true.map_or(s, |b: i64| b.min(s)));
        }
    }
    let steps = |b: Option<i64>| b.map_or("-".to_string(), |s| s.to_string());
    Some(format!(
        "legal-\u{3a0} census over [-2,2]^{n}: true relation admits {true_count} \
         (best {} step(s)), folded set admits {folded_count} (best {} step(s))",
        steps(best_true),
        steps(best_folded),
    ))
}

/// `LC017`: warn on every synthesized vector whose cover admits
/// never-conflicting iteration pairs, with the parallelism census as
/// context on the first warning.
pub fn check_tightness(
    nest: &LoopNest,
    u: &Uniformization,
    stats: &mut UniformizeStats,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut census: Option<Option<String>> = None;
    for fold in &u.pairs {
        for v in &fold.basis {
            let Some(x) = overapprox_witness(nest.space(), &fold.pair, v) else {
                continue;
            };
            stats.tightness_warnings += 1;
            let y: Point = x.iter().zip(v).map(|(&a, &b)| a + b).collect();
            let mut msg = format!(
                "synthesized vector {} over-approximates: iterations {} and {} \
                 never conflict on `{}`, yet the folded nest synchronizes them",
                fmt_vec(v),
                fmt_vec(&x),
                fmt_vec(&y),
                fold.pair.array,
            );
            if out.is_empty() {
                let c = census.get_or_insert_with(|| pi_census(nest, u));
                if let Some(c) = c {
                    msg.push_str("; ");
                    msg.push_str(c);
                }
            }
            out.push(Diagnostic::warning(
                RuleId::UniformizeTightness,
                pair_span(&fold.pair),
                msg,
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// LC018 — legality handoff
// ---------------------------------------------------------------------------

/// `LC018`: `Π·v ≥ 1` for every synthesized vector — the folded nest
/// re-passes the `LC001`/`LC009` legality argument at all sizes.
pub fn check_folded_legality(pi: &TimeFn, u: &Uniformization) -> Vec<Diagnostic> {
    crate::legality::check_legality(pi, &u.synthesized())
        .into_iter()
        .map(|mut d| {
            d.rule = RuleId::UniformizeLegality;
            d.message = format!("synthesized {}", d.message);
            d
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------------

/// Fold and certify in one step: `Ok` is the certified uniformization
/// plus its certificate/tightness diagnostics, `Err` the rejection
/// diagnostics (fold failure or refuted/undecided cover).
fn certified_uniformization(
    nest: &LoopNest,
    opts: DepOptions,
    stats: &mut UniformizeStats,
) -> Result<(Uniformization, Vec<Diagnostic>), Vec<Diagnostic>> {
    let u = match uniformize(nest, opts) {
        Ok(u) => u,
        Err(FoldError::Extract(e)) => {
            return Err(vec![Diagnostic::error(
                RuleId::UniformizeSoundness,
                Span::Nest,
                format!("dependence extraction failed ({e}); nothing to fold"),
            )]);
        }
        Err(e @ FoldError::NoCover { .. }) => {
            return Err(vec![Diagnostic::error(
                RuleId::UniformizeSoundness,
                Span::Nest,
                format!("{e}"),
            )]);
        }
    };
    let mut diags = certify_cover(nest, &u, stats)?;
    diags.extend(check_tightness(nest, &u, stats));
    Ok((u, diags))
}

/// The pipeline's admission entry for nests the uniform front end
/// rejects: fold, certify (`LC016`), and report tightness (`LC017`).
///
/// `Ok` admits the nest — the folded dependence set in the returned
/// [`Uniformization`] is safe to hand to the partitioner, and the
/// diagnostics (certificates and warnings, never errors) belong in the
/// pipeline's report. `Err` is the full rejection report: the failed
/// obligations plus the classic `LC010` pairwise evidence.
pub fn admit_uniformized(
    nest: &LoopNest,
    opts: DepOptions,
    stats: &mut UniformizeStats,
) -> Result<(Uniformization, Vec<Diagnostic>), Report> {
    match certified_uniformization(nest, opts, stats) {
        Ok(ok) => Ok(ok),
        Err(mut diags) => {
            diags.extend(crate::symbolic::scan_nonuniform_pairs(nest));
            Err(Report::from_diagnostics(diags))
        }
    }
}

/// The `LC010` non-uniform arm with uniformization: certify-and-admit
/// when possible (comparing any declared `D` against the *folded*
/// vector set), fall back to the budgeted pairwise scan on failure.
/// Returns the diagnostics plus the certified uniformization when the
/// nest was admitted.
pub(crate) fn nonuniform_analysis(
    nest: &LoopNest,
    declared: Option<&[Point]>,
    stats: &mut UniformizeStats,
) -> (Vec<Diagnostic>, Option<Uniformization>) {
    match certified_uniformization(nest, DepOptions::default(), stats) {
        Ok((u, mut diags)) => {
            if let Some(declared) = declared {
                diags.extend(crate::symbolic::compare_vector_sets(&u.deps, declared));
            }
            (diags, Some(u))
        }
        Err(mut diags) => {
            diags.extend(crate::symbolic::scan_nonuniform_pairs(nest));
            (diags, None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;
    use loom_loopir::{Access, Aff, Stmt};

    fn nest_1d(name: &str, extent: i64, write: Access, reads: Vec<Access>) -> LoopNest {
        LoopNest::new(
            name,
            IterSpace::rect(&[extent]).unwrap(),
            vec![Stmt::assign(write, reads)],
        )
        .unwrap()
    }

    fn a2i(extent: i64) -> LoopNest {
        nest_1d(
            "rec",
            extent,
            Access::new("A", vec![Aff::new(vec![2], 0)]),
            vec![Access::simple("A", 1, &[(0, 0)])],
        )
    }

    #[test]
    fn a2i_cover_certified_and_overapprox_warned() {
        let nest = a2i(8);
        let mut stats = UniformizeStats::default();
        let (u, diags) =
            certified_uniformization(&nest, DepOptions::default(), &mut stats).expect("admitted");
        assert_eq!(u.vectors, vec![vec![1]]);
        assert!(diags.iter().any(|d| d.rule == RuleId::UniformizeSoundness
            && d.severity == Severity::Info
            && d.message.contains("cover certified")));
        // v = (1) admits x → x+1 edges that never conflict (e.g. x = 0).
        assert!(diags.iter().any(|d| d.rule == RuleId::UniformizeTightness
            && d.severity == Severity::Warning
            && d.message.contains("census")));
        assert!(stats.proofs > 0);
        assert_eq!(stats.refuted, 0);
        assert_eq!(stats.unknown, 0);
    }

    #[test]
    fn a3i_divisibility_escapes_refuted() {
        // A[3i] = A[i]: basis {(2)}, δ = 4 — the residue systems
        // 2d ≡ ρ (mod 4) must all be Unsat since realized d is even.
        let nest = nest_1d(
            "scale",
            16,
            Access::new("A", vec![Aff::new(vec![3], 0)]),
            vec![Access::simple("A", 1, &[(0, 0)])],
        );
        let mut stats = UniformizeStats::default();
        let (u, _) =
            certified_uniformization(&nest, DepOptions::default(), &mut stats).expect("admitted");
        assert_eq!(u.vectors, vec![vec![2]]);
        assert_eq!(stats.refuted, 0);
        assert_eq!(stats.unknown, 0);
    }

    #[test]
    fn coupled_2d_certified() {
        let nest = LoopNest::new(
            "diag2d",
            IterSpace::rect(&[8, 8]).unwrap(),
            vec![Stmt::assign(
                Access::new("A", vec![Aff::var(2, 0), Aff::new(vec![1, 1], 0)]),
                vec![Access::simple("A", 2, &[(0, 0), (1, 0)])],
            )],
        )
        .unwrap();
        let mut stats = UniformizeStats::default();
        let (u, diags) =
            certified_uniformization(&nest, DepOptions::default(), &mut stats).expect("admitted");
        assert_eq!(u.vectors, vec![vec![0, 1]]);
        assert!(diags.iter().any(|d| d.rule == RuleId::UniformizeTightness));
        assert_eq!(stats.refuted + stats.unknown, 0);
    }

    #[test]
    fn wrong_basis_is_refuted_with_witness() {
        // Hand the certifier a deliberately wrong cover: basis {(2)}
        // for A[2i] = A[i], whose realized distances include odd values.
        let nest = a2i(8);
        let u = uniformize(&nest, DepOptions::default()).unwrap();
        let mut bad = u.clone();
        bad.pairs[0].basis = vec![vec![2]];
        let mut stats = UniformizeStats::default();
        let err = certify_cover(&nest, &bad, &mut stats).expect_err("refuted");
        assert!(err
            .iter()
            .any(|d| d.severity == Severity::Error
                && d.message.contains("fractional basis coefficient")));
        assert!(stats.refuted > 0);
    }

    #[test]
    fn empty_basis_conflict_freedom_proven() {
        // A[2i] written, A[4i+1] read: disjoint parities, empty basis.
        let nest = nest_1d(
            "disjoint",
            8,
            Access::new("A", vec![Aff::new(vec![2], 0)]),
            vec![Access::new("A", vec![Aff::new(vec![4], 1)])],
        );
        let mut stats = UniformizeStats::default();
        let (u, diags) =
            certified_uniformization(&nest, DepOptions::default(), &mut stats).expect("admitted");
        assert!(u.vectors.is_empty());
        assert!(diags
            .iter()
            .any(|d| d.message.contains("certified conflict-free")));
    }

    #[test]
    fn empty_basis_with_real_conflicts_refuted() {
        // Claim conflict-freedom for a pair that does conflict: the
        // bare relation is Sat and the claim dies with a witness.
        let nest = a2i(8);
        let u = uniformize(&nest, DepOptions::default()).unwrap();
        let mut bad = u.clone();
        bad.pairs[0].basis = Vec::new();
        let mut stats = UniformizeStats::default();
        let err = certify_cover(&nest, &bad, &mut stats).expect_err("refuted");
        assert!(err.iter().any(|d| d.message.contains("basis is empty")));
    }

    #[test]
    fn folded_legality_retags_lc018() {
        let nest = a2i(8);
        let u = uniformize(&nest, DepOptions::default()).unwrap();
        let bad_pi = TimeFn::new(vec![-1]);
        let ds = check_folded_legality(&bad_pi, &u);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].rule, RuleId::UniformizeLegality);
        let good_pi = TimeFn::new(vec![1]);
        assert!(check_folded_legality(&good_pi, &u).is_empty());
    }

    #[test]
    fn rank_mismatch_rejected_through_admission() {
        let nest = LoopNest::new(
            "ranks",
            IterSpace::rect(&[4, 4]).unwrap(),
            vec![Stmt::assign(
                Access::simple("A", 2, &[(0, 0)]),
                vec![Access::simple("A", 2, &[(0, 0), (1, 0)])],
            )],
        )
        .unwrap();
        let mut stats = UniformizeStats::default();
        let report =
            admit_uniformized(&nest, DepOptions::default(), &mut stats).expect_err("rejected");
        assert!(report.has_errors());
        // The rejection carries both the fold failure and LC010 evidence.
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.rule == RuleId::UniformizeSoundness));
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.rule == RuleId::AccessDependence));
    }

    #[test]
    fn uniform_nest_admits_trivially() {
        let nest = nest_1d(
            "uniform",
            8,
            Access::simple("A", 1, &[(0, 1)]),
            vec![Access::simple("A", 1, &[(0, 0)])],
        );
        let mut stats = UniformizeStats::default();
        let (u, diags) =
            admit_uniformized(&nest, DepOptions::default(), &mut stats).expect("admitted");
        assert!(u.is_trivial());
        assert!(diags.is_empty());
        assert_eq!(stats.pairs_folded, 0);
    }
}
