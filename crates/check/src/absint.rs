//! Rule `LC015` — block/buffer access bounds by interval abstract
//! interpretation over the generated SPMD program.
//!
//! The interleaving model checker ([`crate::interleave`]) trusts the
//! program's indices: a corrupted `Compute` op naming a nonexistent
//! iteration point would crash the interpreter rather than produce a
//! verdict. This pass runs first and proves three layers of bounds:
//!
//! 1. **Structural** — every op index (iteration-point ids, processor
//!    ids, dependence indices in tags) names something that exists.
//! 2. **Containment** — every entry of the shared iteration table lies
//!    inside the nest's iteration space.
//! 3. **Access image** — for every affine array access of the nest
//!    body, the subscript values produced by the iterations each
//!    processor computes stay inside a *proven* interval hull. The
//!    candidate hull comes from interval arithmetic over the space's
//!    bounding box (corner evaluation is exact for affine forms); the
//!    Presburger core then certifies it by refuting
//!    `x ∈ space ∧ f(x) ≥ hi + 1` and `x ∈ space ∧ f(x) ≤ lo − 1`.
//!    A certified hull is **size-parametric** — the same Fourier–
//!    Motzkin refutation closes the bound for the symbolic constraint
//!    system, not for one enumeration — and is counted as
//!    `check.absint.parametric`; when the core answers `Unknown` the
//!    hull is recomputed by enumerating the space (exact but
//!    instance-bound), counted as `check.absint.enumerated`.

use crate::diag::{Diagnostic, RuleId, Span};
use crate::presburger::{System, Verdict};
use loom_codegen::gen::Codegen;
use loom_codegen::ops::Op;
use loom_loopir::{Aff, IterSpace, LoopNest};

/// How `LC015` discharged its proof obligations (surfaced as
/// `check.absint.*`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AbsintStats {
    /// Hulls certified by the Presburger core (size-parametric).
    pub parametric: u64,
    /// Hulls recomputed by enumerating the space (concrete fallback).
    pub enumerated: u64,
    /// Subscript positions checked in total.
    pub checked: u64,
}

/// A closed integer interval `[lo, hi]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Itv {
    lo: i64,
    hi: i64,
}

impl Itv {
    fn contains(self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }
}

/// Add the space's affine bound constraints `lowerⱼ(x) ≤ xⱼ ≤ upperⱼ(x)`
/// to `sys`.
fn constrain_space(sys: &mut System, space: &IterSpace) {
    let n = space.dim();
    for j in 0..n {
        let lower = space.lower(j);
        let mut c: Vec<i64> = (0..n).map(|k| -lower.coeff(k)).collect();
        c[j] += 1;
        sys.ge0(&c, -lower.constant_term());
        let upper = space.upper(j);
        let mut c: Vec<i64> = (0..n).map(|k| upper.coeff(k)).collect();
        c[j] -= 1;
        sys.ge0(&c, upper.constant_term());
    }
}

/// `true` iff the Presburger core *proves* `bound` contains the image
/// of `f` over `space`: both escape systems must be `Unsat`
/// (an `Unknown` is not a proof).
fn certified(space: &IterSpace, f: &Aff, bound: Itv) -> bool {
    let n = space.dim();
    // f(x) ≥ hi + 1  ⇔  Σ cₖxₖ + (c₀ − hi − 1) ≥ 0
    let mut above = System::new(n);
    constrain_space(&mut above, space);
    above.ge0(
        f.coeffs(),
        f.constant_term().saturating_sub(bound.hi).saturating_sub(1),
    );
    if above.solve() != Verdict::Unsat {
        return false;
    }
    // f(x) ≤ lo − 1  ⇔  Σ −cₖxₖ + (lo − 1 − c₀) ≥ 0
    let neg: Vec<i64> = f.coeffs().iter().map(|&c| -c).collect();
    let mut below = System::new(n);
    constrain_space(&mut below, space);
    below.ge0(
        &neg,
        bound.lo.saturating_sub(1).saturating_sub(f.constant_term()),
    );
    below.solve() == Verdict::Unsat
}

/// The exact hull by walking the space's rows (concrete fallback).
fn enumerated_hull(space: &IterSpace, f: &Aff) -> Option<Itv> {
    space.range_of(f).map(|(lo, hi)| Itv { lo, hi })
}

fn ints(p: &[i64]) -> String {
    let inner = p
        .iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(",");
    format!("({inner})")
}

/// Run the `LC015` bounds analysis over a generated program.
pub fn check_block_bounds(
    nest: &LoopNest,
    cg: &Codegen,
    stats: &mut AbsintStats,
) -> Vec<Diagnostic> {
    let prog = &cg.program;
    let n_procs = prog.num_procs();
    let n_points = prog.points.len();
    let n_deps = cg.payload_specs.len();
    let mut out = Vec::new();

    // Layer 1: structural op-index bounds.
    for (p, ops) in prog.per_proc.iter().enumerate() {
        for (i, op) in ops.iter().enumerate() {
            let span = Span::ProgramOp {
                proc: p as u32,
                op: i,
            };
            let bad_tag = |tag: &loom_codegen::ops::Tag, out: &mut Vec<Diagnostic>| {
                if tag.src_point as usize >= n_points {
                    out.push(Diagnostic::error(
                        RuleId::BlockAccessBounds,
                        span.clone(),
                        format!(
                            "{} tag names source point {} but the iteration table has {} entries",
                            op.kind(),
                            tag.src_point,
                            n_points
                        ),
                    ));
                }
                if tag.dep as usize >= n_deps {
                    out.push(Diagnostic::error(
                        RuleId::BlockAccessBounds,
                        span.clone(),
                        format!(
                            "{} tag names dependence {} but the nest has {} payload specs",
                            op.kind(),
                            tag.dep,
                            n_deps
                        ),
                    ));
                }
            };
            match op {
                Op::Compute { point } => {
                    if *point as usize >= n_points {
                        out.push(Diagnostic::error(
                            RuleId::BlockAccessBounds,
                            span,
                            format!(
                                "compute names point {point} but the iteration table has {n_points} entries"
                            ),
                        ));
                    }
                }
                Op::Send { to, tag } => {
                    if *to as usize >= n_procs {
                        out.push(Diagnostic::error(
                            RuleId::BlockAccessBounds,
                            span.clone(),
                            format!("send targets P{to} but the machine has {n_procs} processors"),
                        ));
                    }
                    bad_tag(tag, &mut out);
                }
                Op::Recv { from, tag } => {
                    if *from as usize >= n_procs {
                        out.push(Diagnostic::error(
                            RuleId::BlockAccessBounds,
                            span.clone(),
                            format!(
                                "recv expects a message from P{from} but the machine has {n_procs} processors"
                            ),
                        ));
                    }
                    bad_tag(tag, &mut out);
                }
            }
        }
    }

    // Layer 2: the shared iteration table is inside the space.
    let space = nest.space();
    for (id, pt) in prog.points.iter().enumerate() {
        if pt.len() != space.dim() || !space.contains(pt) {
            out.push(Diagnostic::error(
                RuleId::BlockAccessBounds,
                Span::Nest,
                format!(
                    "iteration-table entry {id} = {} lies outside the iteration space",
                    ints(pt)
                ),
            ));
        }
    }
    if !out.is_empty() {
        // Layer 3 evaluates subscripts at table entries; with the
        // table itself unsound the hulls would be meaningless.
        return out;
    }

    // Layer 3: access-image hulls, certified or enumerated.
    let bx = space.bounding_box();
    let mut obligations: Vec<(&str, &Aff)> = Vec::new();
    for stmt in nest.stmts() {
        for access in stmt.accesses() {
            for f in access.subscripts() {
                obligations.push((access.array(), f));
            }
        }
    }
    for (array, f) in obligations {
        stats.checked += 1;
        // An overflowing box image is no certified hull, like an
        // `Unknown` from the core.
        let candidate = f.hull_over_box(&bx).map(|(lo, hi)| Itv { lo, hi });
        let bound = if let Some(c) = candidate.filter(|&c| certified(space, f, c)) {
            stats.parametric += 1;
            c
        } else {
            stats.enumerated += 1;
            match enumerated_hull(space, f) {
                Some(h) => h,
                None => continue, // empty space: nothing to bound
            }
        };
        for p in 0..n_procs {
            for id in prog.computes_of(p) {
                let point = prog.points.point(id as usize);
                let v = f.eval(point);
                if !bound.contains(v) {
                    out.push(Diagnostic::error(
                        RuleId::BlockAccessBounds,
                        Span::ProgramOp {
                            proc: p as u32,
                            op: 0,
                        },
                        format!(
                            "P{p} computes iteration {} whose {array} subscript evaluates to {v}, \
                             outside the proven hull [{}, {}]",
                            ints(point),
                            bound.lo,
                            bound.hi
                        ),
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_obs::Recorder;

    use loom_hyperplane::TimeFn;
    use loom_mapping::map_partitioning;
    use loom_partition::{partition, PartitionConfig, PointTable};
    use std::sync::Arc;

    fn sample() -> (LoopNest, Codegen) {
        let w = loom_workloads::l1::workload(4);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let m = map_partitioning(&p, 1).unwrap();
        let cg = loom_codegen::generate(&w.nest, &p, m.assignment(), 2).unwrap();
        (w.nest, cg)
    }

    #[test]
    fn pristine_program_is_in_bounds_and_parametric() {
        let (nest, cg) = sample();
        let mut stats = AbsintStats::default();
        let diags = check_block_bounds(&nest, &cg, &mut stats);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(stats.checked > 0);
        assert!(
            stats.parametric > 0,
            "rectangular bounds must certify: {stats:?}"
        );
    }

    #[test]
    fn corrupted_indices_are_caught_without_panicking() {
        let (nest, mut cg) = sample();
        // Point a compute at a nonexistent iteration.
        'outer: for ops in cg.program.per_proc.iter_mut() {
            for op in ops.iter_mut() {
                if let Op::Compute { point } = op {
                    *point = 10_000;
                    break 'outer;
                }
            }
        }
        let mut stats = AbsintStats::default();
        let diags = check_block_bounds(&nest, &cg, &mut stats);
        assert!(
            diags.iter().any(|d| d.to_json().render().contains("10000")),
            "{diags:?}"
        );
    }

    #[test]
    fn out_of_space_table_entry_is_an_error() {
        let (nest, mut cg) = sample();
        let table = &cg.program.points;
        let coords = [999, 999]
            .into_iter()
            .chain(table.iter().skip(1).flatten().copied())
            .collect();
        cg.program.points = Arc::new(PointTable::new(table.dim(), coords));
        let mut stats = AbsintStats::default();
        let diags = check_block_bounds(&nest, &cg, &mut stats);
        assert!(!diags.is_empty());
        // And the pipeline wrapper skips the model checker gracefully.
        let report = crate::check_program(&nest, &cg, &Recorder::disabled());
        assert!(report.has_errors());
        assert!(report.render_human().contains("skipped"));
    }
}
