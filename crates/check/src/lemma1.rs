//! Rule `LC002` — Lemma 1: no two iterations merged into one block may
//! share a time step.
//!
//! A block executes on one processor; if two of its iterations fall on
//! the same hyperplane, the block serializes work the schedule counted
//! as parallel and the makespan analysis of Theorem 1 collapses. Times
//! are compared as exact integers (`Π` dotted with each point, widened
//! to `i128`), not by sampling or floating point, so a violation can
//! neither be missed nor fabricated by rounding.

use crate::diag::{Diagnostic, RuleId, Span};
use loom_hyperplane::TimeFn;
use loom_partition::PointTable;
use std::collections::BTreeMap;

/// Check that every block's iterations occupy pairwise-distinct steps.
///
/// `blocks` holds iteration-point ids (indices into `points`) per
/// block, in the shape [`loom_partition::Partitioning::blocks`]
/// produces — taking the raw slices lets tests hand in deliberately
/// merged blocks without rebuilding a `Partitioning`.
pub fn check_lemma1(pi: &TimeFn, points: &PointTable, blocks: &[Vec<usize>]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (b, block) in blocks.iter().enumerate() {
        let mut first_at: BTreeMap<i128, usize> = BTreeMap::new();
        for &id in block {
            let point = points.point(id);
            if point.len() != pi.dim() {
                // LC001 reports dimension mismatches; a time is
                // undefined here, so skip rather than double-report.
                continue;
            }
            let t: i128 = pi
                .coeffs()
                .iter()
                .zip(point)
                .map(|(&a, &x)| i128::from(a) * i128::from(x))
                .sum();
            match first_at.get(&t) {
                Some(&first) => out.push(Diagnostic::error(
                    RuleId::BlockSharedStep,
                    Span::PointPair {
                        a: points.point(first).to_vec(),
                        b: point.to_vec(),
                    },
                    format!(
                        "both iterations of block B{b} execute at step {t}; \
                         Lemma 1 requires distinct steps within a block"
                    ),
                )),
                None => {
                    first_at.insert(t, id);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid4() -> PointTable {
        let mut coords = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                coords.extend([i, j]);
            }
        }
        PointTable::new(2, coords)
    }

    #[test]
    fn diagonal_block_is_clean() {
        // Points along i−j = 0 all have distinct i+j.
        let pts = grid4();
        let block: Vec<usize> = (0..4).map(|k| k * 4 + k).collect();
        assert!(check_lemma1(&TimeFn::new(vec![1, 1]), &pts, &[block]).is_empty());
    }

    #[test]
    fn antidiagonal_block_violates() {
        // Points along i+j = 3 all share step 3 under Π = (1,1).
        let pts = grid4();
        let block: Vec<usize> = (0..4).map(|k| k * 4 + (3 - k)).collect();
        let ds = check_lemma1(&TimeFn::new(vec![1, 1]), &pts, &[block]);
        // 4 points on one hyperplane → 3 duplicates of the first.
        assert_eq!(ds.len(), 3);
        assert!(ds.iter().all(|d| d.rule == RuleId::BlockSharedStep));
    }

    #[test]
    fn merged_legit_blocks_detected() {
        // The i−j = 0 diagonal occupies even steps 0,2,4,6; merging in
        // the i−j = −2 diagonal (steps 2,4) collides at steps 2 and 4.
        let pts = grid4();
        let mut block: Vec<usize> = (0..4).map(|k| k * 4 + k).collect();
        block.extend((0..2).map(|k| k * 4 + k + 2));
        let ds = check_lemma1(&TimeFn::new(vec![1, 1]), &pts, &[block]);
        assert_eq!(ds.len(), 2);
    }
}
