//! Padua's greatest-common-divisors partitioning.
//!
//! Along dimension `k`, let `g_k = gcd{ d_k : d ∈ D }`. Two iterations
//! can only depend on each other (transitively) if their coordinates are
//! congruent modulo `g_k` in every dimension, so the residue classes
//! `(i_1 mod g_1, …, i_n mod g_n)` are mutually independent blocks.
//! When `g_k = 0` (no dependence ever moves along dimension `k`) every
//! distinct coordinate value is its own class.

use crate::BaselineResult;
use loom_partition::ComputationalStructure;
use loom_rational::int::gcd;
use std::collections::BTreeMap;

/// The per-dimension GCDs of a dependence set.
pub fn dimension_gcds(deps: &[Vec<i64>], n: usize) -> Vec<i64> {
    (0..n)
        .map(|k| deps.iter().fold(0, |g, d| gcd(g, d[k])))
        .collect()
}

/// Partition a computational structure into GCD residue classes.
pub fn partition(cs: &ComputationalStructure) -> BaselineResult {
    let n = cs.space().dim();
    let gcds = dimension_gcds(cs.deps(), n);
    let mut classes: BTreeMap<Vec<i64>, usize> = BTreeMap::new();
    let mut blocks: Vec<Vec<usize>> = Vec::new();
    let mut block_of = vec![0usize; cs.len()];
    for (id, p) in cs.point_table().iter().enumerate() {
        let label: Vec<i64> = p
            .iter()
            .zip(&gcds)
            .map(|(&x, &g)| if g == 0 { x } else { x.rem_euclid(g) })
            .collect();
        let bid = *classes.entry(label).or_insert_with(|| {
            blocks.push(Vec::new());
            blocks.len() - 1
        });
        blocks[bid].push(id);
        block_of[id] = bid;
    }
    BaselineResult {
        method: "gcd",
        blocks,
        block_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_loopir::IterSpace;

    fn cs(sizes: &[i64], deps: Vec<Vec<i64>>) -> ComputationalStructure {
        ComputationalStructure::new(IterSpace::rect(sizes).unwrap(), deps).unwrap()
    }

    #[test]
    fn matmul_is_sequential_under_gcd() {
        // The paper's motivating claim: matmul's unit dependence vectors
        // defeat all independent-partitioning methods.
        let s = cs(
            &[4, 4, 4],
            vec![vec![0, 1, 0], vec![1, 0, 0], vec![0, 0, 1]],
        );
        let r = partition(&s);
        assert!(r.is_sequential());
        assert_eq!(r.interblock_arcs(&s), 0);
    }

    #[test]
    fn stride2_deps_give_four_blocks() {
        let s = cs(&[4, 4], vec![vec![2, 0], vec![0, 2]]);
        let r = partition(&s);
        assert_eq!(r.num_blocks(), 4);
        assert_eq!(r.interblock_arcs(&s), 0);
        // Blocks are balanced 4-point classes.
        assert!(r.blocks.iter().all(|b| b.len() == 4));
    }

    #[test]
    fn free_dimension_splits_fully() {
        // D = {(1, 0)}: dimension 1 never crossed → each column separate.
        let s = cs(&[4, 4], vec![vec![1, 0]]);
        let r = partition(&s);
        assert_eq!(dimension_gcds(s.deps(), 2), vec![1, 0]);
        assert_eq!(r.num_blocks(), 4);
        assert_eq!(r.interblock_arcs(&s), 0);
    }

    #[test]
    fn negative_components_handled() {
        let s = cs(&[4, 4], vec![vec![2, -2]]);
        assert_eq!(dimension_gcds(s.deps(), 2), vec![2, 2]);
        let r = partition(&s);
        assert_eq!(r.num_blocks(), 4);
        assert_eq!(r.interblock_arcs(&s), 0);
    }

    #[test]
    fn no_deps_fully_parallel() {
        let s = cs(&[3, 3], vec![]);
        let r = partition(&s);
        assert_eq!(r.num_blocks(), 9);
    }
}
