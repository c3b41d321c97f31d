//! Strip (block) partitioning — the obvious alternative the projection
//! method improves on.
//!
//! Cutting the iteration space into contiguous strips along one
//! dimension (the classic "block distribution", and the simplest form
//! of King & Ni-style grouping) also yields low interblock traffic —
//! but unlike Sheu–Tai blocks, a strip contains many iterations on the
//! *same* hyperplane, so placing it on one processor serializes work
//! the schedule wanted parallel. [`schedule_stretch`] quantifies that:
//! the paper's Theorem 1 guarantees stretch 1 for Algorithm 1's blocks,
//! while strips stretch proportionally to their width.

use crate::BaselineResult;
use loom_hyperplane::TimeFn;
use loom_partition::ComputationalStructure;
use std::collections::BTreeMap;

/// Partition into strips of `width` consecutive values of dimension
/// `dim` (0-based). Panics on a bad dimension or non-positive width.
pub fn partition(cs: &ComputationalStructure, dim: usize, width: i64) -> BaselineResult {
    assert!(dim < cs.space().dim(), "strip dimension out of range");
    assert!(width > 0, "strip width must be positive");
    let mut classes: BTreeMap<i64, usize> = BTreeMap::new();
    let mut blocks: Vec<Vec<usize>> = Vec::new();
    let mut block_of = vec![0usize; cs.len()];
    for (id, p) in cs.point_table().iter().enumerate() {
        let strip = p[dim].div_euclid(width);
        let bid = *classes.entry(strip).or_insert_with(|| {
            blocks.push(Vec::new());
            blocks.len() - 1
        });
        blocks[bid].push(id);
        block_of[id] = bid;
    }
    BaselineResult {
        method: "strip",
        blocks,
        block_of,
    }
}

/// The *schedule stretch* of a block decomposition under a time
/// function: the maximum, over blocks and steps, of the number of
/// same-step iterations a single block holds. A stretch of 1 means the
/// decomposition never serializes schedule-parallel work (the property
/// Theorem 1 proves for Algorithm 1's blocks); a stretch of `s` means
/// some processor needs `s` sub-steps where the schedule wanted one.
pub fn schedule_stretch(
    result: &BaselineResult,
    cs: &ComputationalStructure,
    pi: &TimeFn,
) -> usize {
    let mut worst = 0usize;
    for block in &result.blocks {
        let mut per_step: BTreeMap<i64, usize> = BTreeMap::new();
        for &id in block {
            *per_step.entry(pi.time_of(cs.point(id))).or_insert(0) += 1;
        }
        worst = worst.max(per_step.values().copied().max().unwrap_or(0));
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_loopir::IterSpace;

    fn cs(sizes: &[i64], deps: Vec<Vec<i64>>) -> ComputationalStructure {
        ComputationalStructure::new(IterSpace::rect(sizes).unwrap(), deps).unwrap()
    }

    #[test]
    fn strips_cover_and_count() {
        let s = cs(&[8, 8], vec![vec![0, 1], vec![1, 0]]);
        let r = partition(&s, 0, 2);
        assert_eq!(r.num_blocks(), 4);
        let total: usize = r.blocks.iter().map(Vec::len).sum();
        assert_eq!(total, 64);
        assert!(r.blocks.iter().all(|b| b.len() == 16));
    }

    #[test]
    fn strips_have_bounded_traffic_but_stretch() {
        let s = cs(&[8, 8], vec![vec![0, 1], vec![1, 0]]);
        let pi = TimeFn::new(vec![1, 1]);
        let r = partition(&s, 0, 2);
        // Each strip of width 2 holds up to 2 same-step points.
        assert_eq!(schedule_stretch(&r, &s, &pi), 2);
        let wide = partition(&s, 0, 4);
        assert_eq!(schedule_stretch(&wide, &s, &pi), 4);
        // Sheu–Tai blocks have stretch exactly 1 (Theorem 1).
        let st = loom_partition::partition(
            s.space().clone(),
            s.deps().to_vec(),
            pi.clone(),
            &loom_partition::PartitionConfig::default(),
        )
        .unwrap();
        let st_result = BaselineResult {
            method: "sheu-tai",
            blocks: st.blocks().to_vec(),
            block_of: (0..s.len()).map(|id| st.block_of(id)).collect(),
        };
        assert_eq!(schedule_stretch(&st_result, &s, &pi), 1);
    }

    #[test]
    fn stretch_of_per_point_is_one() {
        let s = cs(&[4, 4], vec![vec![1, 0]]);
        let pi = TimeFn::new(vec![1, 1]);
        let pp = crate::serial::per_point(&s);
        assert_eq!(schedule_stretch(&pp, &s, &pi), 1);
        let one = crate::serial::one_block(&s);
        // One block holds a whole anti-diagonal: stretch = 4.
        assert_eq!(schedule_stretch(&one, &s, &pi), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_dim_panics() {
        let s = cs(&[4], vec![]);
        partition(&s, 1, 2);
    }
}
