//! Rules `LC003` and `LC006` — Theorem 2's neighbor bound, the
//! per-direction Lemmas 2–3 it rests on, and the grouping-vector
//! selection invariants behind them.
//!
//! Theorem 2: with `m` dependence vectors and `β` the rank of the
//! projected dependence matrix `mat(D^p)`, every group communicates
//! with at most `2m − β` other groups. `LC003` recomputes `β` from
//! scratch (it does not trust the value the partitioner recorded) and
//! checks the bound against the statically derived group dependence
//! graph. From the same walk it checks Lemma 2 (along the grouping
//! vector and each auxiliary vector, a group sends data to at most one
//! group) and Lemma 3 (along every other nonzero projected dependence,
//! to at most two). `LC006` validates the recorded [`GroupingVectors`]
//! themselves: `β` matches the rank, the chosen set `{d_l^p} ∪ Ψ` has
//! exactly `β` members, and those members are linearly independent —
//! the invariant that used to be a debug-only assert inside
//! `loom-partition`.

use crate::diag::{Diagnostic, RuleId, Span};
use loom_partition::comm::group_targets;
use loom_partition::{GroupingVectors, Partitioning, ProjectedStructure};
use loom_rational::intlinalg::{rank, IMat};
use std::collections::BTreeSet;

/// Rank of the projected dependences `deps` (by index), read from their
/// line coordinates, which map the hyperplane one-to-one.
fn projected_rank(qp: &ProjectedStructure, deps: impl Iterator<Item = usize>) -> usize {
    let rows: Vec<&[i64]> = deps.map(|i| qp.dep_key(i)).collect();
    rank(&IMat::from_rows(&rows))
}

/// Rule `LC003` on a partitioning: Theorem 2's `2m − β` bound, then
/// Lemmas 2 and 3, all read from one per-direction walk of the group
/// dependences.
pub fn check_theorem2(p: &Partitioning) -> Vec<Diagnostic> {
    let m = p.structure().deps().len();
    let beta = projected_rank(p.projected(), 0..m);
    let targets = group_targets(p);
    // A group's out-degree is its distinct targets over all directions.
    let mut union = Vec::new();
    let degrees = targets.chunk_by(|a, b| a.0 == b.0).map(|run| {
        union.clear();
        union.extend(run.iter().map(|&(_, _, to)| to));
        union.sort_unstable();
        union.dedup();
        (run[0].0, union.len())
    });
    let mut out = neighbor_bound(degrees, m, beta);
    out.extend(check_direction_bounds(&targets, &p.vectors().omega()));
    out
}

/// The bound check itself, on an explicit out-neighbor graph — exposed
/// so tests can feed synthetic graphs that violate the theorem.
pub fn check_neighbor_bound(graph: &[BTreeSet<usize>], m: usize, beta: usize) -> Vec<Diagnostic> {
    neighbor_bound(graph.iter().map(BTreeSet::len).enumerate(), m, beta)
}

/// Theorem 2 on `(group, out-degree)` pairs.
fn neighbor_bound(
    degrees: impl Iterator<Item = (usize, usize)>,
    m: usize,
    beta: usize,
) -> Vec<Diagnostic> {
    let bound = (2 * m).saturating_sub(beta);
    degrees
        .filter(|&(_, degree)| degree > bound)
        .map(|(g, degree)| {
            Diagnostic::error(
                RuleId::NeighborBound,
                Span::Group { group: g },
                format!(
                    "group sends data to {degree} other groups, exceeding \
                     2m\u{2212}\u{3b2} = 2\u{b7}{m}\u{2212}{beta} = {bound} (Theorem 2)"
                ),
            )
        })
        .collect()
}

/// Lemmas 2 and 3 on an explicit per-direction target table — sorted,
/// deduplicated `(group, dep, target)` triples as
/// [`group_targets`] returns them — exposed so tests can feed synthetic
/// tables that violate the lemmas. Along each direction in `omega` (the
/// grouping and auxiliary dependences) a group may send data to one
/// group (Lemma 2), along any other direction to two (Lemma 3).
pub fn check_direction_bounds(
    targets: &[(usize, usize, usize)],
    omega: &[usize],
) -> Vec<Diagnostic> {
    targets
        .chunk_by(|a, b| (a.0, a.1) == (b.0, b.1))
        .filter_map(|run| {
            let (group, dep, _) = run[0];
            let (bound, along, lemma) = if omega.contains(&dep) {
                (1, "\u{3a9}", 2)
            } else {
                (2, "non-\u{3a9}", 3)
            };
            (run.len() > bound).then(|| {
                let to: Vec<String> = run.iter().map(|&(_, _, t)| format!("G{t}")).collect();
                Diagnostic::error(
                    RuleId::NeighborBound,
                    Span::Group { group },
                    format!(
                        "group sends data to {} groups ({}) along {along} dependence {dep}, \
                         exceeding {bound} (Lemma {lemma})",
                        run.len(),
                        to.join(", ")
                    ),
                )
            })
        })
        .collect()
}

/// Rule `LC006`: validate a [`GroupingVectors`] selection against the
/// projected structure it was derived from.
pub fn check_grouping_vectors(qp: &ProjectedStructure, gv: &GroupingVectors) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let ndeps = qp.num_deps();
    for i in gv.omega() {
        if i >= ndeps {
            out.push(Diagnostic::error(
                RuleId::GroupingRank,
                Span::Nest,
                format!("grouping-vector index {i} out of range (have {ndeps} dependences)"),
            ));
            return out;
        }
    }
    let rank = projected_rank(qp, 0..ndeps);
    if gv.beta != rank {
        out.push(Diagnostic::error(
            RuleId::GroupingRank,
            Span::Nest,
            format!(
                "recorded \u{3b2} = {} disagrees with rank(mat(D^p)) = {rank}",
                gv.beta
            ),
        ));
    }
    match gv.grouping {
        None => {
            if rank != 0 {
                out.push(Diagnostic::error(
                    RuleId::GroupingRank,
                    Span::Nest,
                    format!(
                        "degenerate grouping (no grouping vector) but mat(D^p) \
                         has rank {rank} > 0"
                    ),
                ));
            }
            if !gv.auxiliary.is_empty() {
                out.push(Diagnostic::error(
                    RuleId::GroupingRank,
                    Span::Nest,
                    "auxiliary vectors present without a grouping vector",
                ));
            }
        }
        Some(_) => {
            let omega = gv.omega();
            if omega.len() != gv.beta {
                out.push(Diagnostic::error(
                    RuleId::GroupingRank,
                    Span::Nest,
                    format!(
                        "\u{3a9} holds {} vector(s) where \u{3b2} = {} requires a \
                         rank-\u{3b2} independent set",
                        omega.len(),
                        gv.beta
                    ),
                ));
            }
            if projected_rank(qp, omega.iter().copied()) != omega.len() {
                out.push(Diagnostic::error(
                    RuleId::GroupingRank,
                    Span::Nest,
                    "the chosen grouping/auxiliary set is linearly dependent",
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_hyperplane::TimeFn;
    use loom_loopir::IterSpace;
    use loom_partition::{partition, ComputationalStructure, PartitionConfig};

    fn l1() -> Partitioning {
        partition(
            IterSpace::rect(&[4, 4]).unwrap(),
            vec![vec![0, 1], vec![1, 1], vec![1, 0]],
            TimeFn::new(vec![1, 1]),
            &PartitionConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn l1_satisfies_theorem2() {
        assert!(check_theorem2(&l1()).is_empty());
    }

    #[test]
    fn synthetic_graph_over_bound_flagged() {
        // m = 1, β = 1 → bound 1; vertex 0 talks to two groups.
        let graph = vec![BTreeSet::from([1, 2]), BTreeSet::new(), BTreeSet::new()];
        let ds = check_neighbor_bound(&graph, 1, 1);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].span, Span::Group { group: 0 });
    }

    #[test]
    fn l1_grouping_vectors_validate() {
        let p = l1();
        assert!(check_grouping_vectors(p.projected(), p.vectors()).is_empty());
    }

    #[test]
    fn fabricated_beta_mismatch_flagged() {
        let p = l1();
        let mut gv = p.vectors().clone();
        gv.beta += 1;
        let ds = check_grouping_vectors(p.projected(), &gv);
        assert!(ds.iter().any(|d| d.rule == RuleId::GroupingRank));
    }

    #[test]
    fn fabricated_dependent_omega_flagged() {
        // L1 with Π = (1,1): d_0 and d_2 project to ±(−1/2, 1/2), so an Ω
        // of {0, 2} is antiparallel. β = 2 keeps the size check quiet;
        // the rank check reports the mismatch on its own.
        let p = l1();
        let gv = GroupingVectors {
            grouping: Some(0),
            auxiliary: vec![2],
            r: 2,
            beta: 2,
        };
        let ds = check_grouping_vectors(p.projected(), &gv);
        assert!(ds
            .iter()
            .any(|d| d.message == "the chosen grouping/auxiliary set is linearly dependent"));
    }

    #[test]
    fn fabricated_short_omega_flagged() {
        // Recompute the real β but drop the auxiliary set — exactly the
        // condition the promoted partition assert guards.
        let cs = ComputationalStructure::new(
            IterSpace::rect(&[4, 4, 4]).unwrap(),
            vec![vec![0, 1, 0], vec![1, 0, 0], vec![0, 0, 1]],
        )
        .unwrap();
        let qp = ProjectedStructure::project(&cs, &TimeFn::wavefront(3));
        let real = loom_partition::grouping::select_vectors(&qp, None).unwrap();
        let gv = GroupingVectors {
            auxiliary: Vec::new(),
            ..real
        };
        let ds = check_grouping_vectors(&qp, &gv);
        assert!(!ds.is_empty());
    }
}
