//! Communication accounting: how many dependence arcs cross block
//! boundaries, and which groups depend on which.

use crate::blocks::Partitioning;
use std::collections::{BTreeMap, BTreeSet};

/// Dependence-arc counts for a partitioning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommStats {
    /// Total dependence arcs in the computational structure.
    pub total_arcs: usize,
    /// Arcs whose endpoints lie in different blocks — each needs an
    /// interprocessor message when blocks map to distinct processors.
    pub interblock_arcs: usize,
}

impl CommStats {
    /// Fraction of arcs requiring communication (0 when there are none).
    pub fn interblock_fraction(&self) -> f64 {
        if self.total_arcs == 0 {
            0.0
        } else {
            self.interblock_arcs as f64 / self.total_arcs as f64
        }
    }
}

/// Count total and interblock dependence arcs at the iteration level
/// (the paper's "33 dependencies, 12 interprocessor" for loop L1).
pub fn comm_stats(p: &Partitioning) -> CommStats {
    let cs = p.structure();
    let interblock_arcs = (0..cs.len())
        .map(|id| {
            let a = p.block_of(id);
            cs.successors(id)
                .filter(|&(succ, _)| p.block_of(succ) != a)
                .count()
        })
        .sum();
    CommStats {
        total_arcs: cs.num_arcs(),
        interblock_arcs,
    }
}

/// The group-dependence graph per direction: every triple
/// `(group, dep, target)` with a projected point `u ∈ G_group` such that
/// `u + d^p_dep ∈ G_target`, `target ≠ group`, sorted and deduplicated.
/// This is the one walk over (projected line, nonzero dependence) pairs:
/// [`group_dependence_graph`] is its union over `dep`, and the per-`dep`
/// runs are the target counts Lemmas 2 and 3 bound.
pub fn group_targets(p: &Partitioning) -> Vec<(usize, usize, usize)> {
    let qp = p.projected();
    let g = p.grouping();
    let nonzero = qp.nonzero_dep_indices();
    let mut targets = Vec::new();
    for (from, group) in g.groups.iter().enumerate() {
        // Walking group by group leaves the list sorted by group, so only
        // each group's own (small) run needs sorting.
        let start = targets.len();
        for &pid in &group.members {
            for &k in &nonzero {
                if let Some(qid) = qp.neighbor(pid, k) {
                    let to = g.group_of[qid];
                    if to != from {
                        targets.push((from, k, to));
                    }
                }
            }
        }
        targets[start..].sort_unstable();
    }
    targets.dedup();
    targets
}

/// The group-dependence graph at the *projected* level: `out[i]` is the
/// set of groups that depend on (receive data from) group `i`, i.e.
/// there is a projected point `u ∈ G_i` and dependence `d^p` with
/// `u + d^p ∈ G_j`, `j ≠ i`. This is the graph of the paper's Fig. 7 and
/// the quantity bounded by Theorem 2.
pub fn group_dependence_graph(p: &Partitioning) -> Vec<BTreeSet<usize>> {
    let mut out = vec![BTreeSet::new(); p.grouping().len()];
    for (from, _, to) in group_targets(p) {
        out[from].insert(to);
    }
    out
}

/// Per-ordered-pair interblock arc counts at the iteration level:
/// `(src_block, dst_block) → number of arcs`, excluding intra-block
/// pairs. These are the message volumes the machine model charges.
pub fn block_traffic(p: &Partitioning) -> BTreeMap<(usize, usize), u64> {
    let cs = p.structure();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for id in 0..cs.len() {
        let a = p.block_of(id);
        for (succ, _dep) in cs.successors(id) {
            let b = p.block_of(succ);
            if a != b {
                pairs.push((a, b));
            }
        }
    }
    // Counting runs of sorted pairs is cheaper than a map update per arc.
    pairs.sort_unstable();
    let mut traffic: Vec<((usize, usize), u64)> = Vec::new();
    for pair in pairs {
        match traffic.last_mut() {
            Some((last, n)) if *last == pair => *n += 1,
            _ => traffic.push((pair, 1)),
        }
    }
    traffic.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::{partition, PartitionConfig};
    use loom_hyperplane::TimeFn;
    use loom_loopir::IterSpace;

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
    fn l1_comm_matches_paper() {
        // Paper §II: "the number of data dependencies between index points
        // is 33, and only 12 of them require interprocessor communication."
        let stats = comm_stats(&l1());
        assert_eq!(stats.total_arcs, 33);
        assert_eq!(stats.interblock_arcs, 12);
        assert!((stats.interblock_fraction() - 12.0 / 33.0).abs() < 1e-12);
    }

    #[test]
    fn matmul_group_graph_matches_paper_fig7() {
        // With the paper's choices, G₁₀ sends data to 4 = 2m − β groups.
        let p = partition(
            IterSpace::rect(&[4, 4, 4]).unwrap(),
            vec![vec![0, 1, 0], vec![1, 0, 0], vec![0, 0, 1]],
            TimeFn::wavefront(3),
            &PartitionConfig {
                grouping_choice: Some(0),
                seed: Some(vec![-1, -1, 2]),
            },
        )
        .unwrap();
        let graph = group_dependence_graph(&p);
        let m = 3;
        let beta = p.vectors().beta;
        assert_eq!(beta, 2);
        let max_out = graph.iter().map(BTreeSet::len).max().unwrap();
        assert!(
            max_out <= 2 * m - beta,
            "Theorem 2 violated: out-degree {max_out} > {}",
            2 * m - beta
        );
        // At least one interior group attains the bound (the paper's G₁₀).
        assert_eq!(max_out, 4);
    }

    #[test]
    fn traffic_sums_to_interblock() {
        let p = l1();
        let traffic = block_traffic(&p);
        let sum: u64 = traffic.values().sum();
        assert_eq!(sum as usize, comm_stats(&p).interblock_arcs);
        // No self-loops.
        assert!(traffic.keys().all(|&(a, b)| a != b));
    }

    #[test]
    fn one_block_means_no_communication() {
        // A single dependence parallel to Π: everything lands in one group
        // per line but lines are independent → no interblock arcs along
        // projected deps… Build the truly-degenerate case: D = {(1,1)},
        // Π = (1,1): every line is its own block; arcs stay inside lines.
        let p = partition(
            IterSpace::rect(&[4, 4]).unwrap(),
            vec![vec![1, 1]],
            TimeFn::new(vec![1, 1]),
            &PartitionConfig::default(),
        )
        .unwrap();
        let stats = comm_stats(&p);
        assert_eq!(stats.interblock_arcs, 0);
        assert!(stats.total_arcs > 0);
        assert_eq!(stats.interblock_fraction(), 0.0);
    }
}
