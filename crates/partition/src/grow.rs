//! Steps 3–5 of Algorithm 1: region-growing the projected points into
//! groups.

use crate::grouping::GroupingVectors;
use crate::project::ProjectedStructure;
use std::collections::VecDeque;

/// One group of projected points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Group {
    /// The line coordinates of the base vertex `v₀^p`, which may lie
    /// outside `V^p` when the index-set boundary clips the group's low
    /// end ([`ProjectedStructure::display_point`] prints the point).
    pub base: Vec<i64>,
    /// Projected-point ids in the group, ordered along the grouping
    /// vector from the base.
    pub members: Vec<usize>,
}

/// The grouping of a projected structure: a disjoint cover of `V^p`.
#[derive(Clone, Debug)]
pub struct Grouping {
    /// All groups, in creation (breadth-first) order.
    pub groups: Vec<Group>,
    /// Group id of each projected point.
    pub group_of: Vec<usize>,
}

impl Grouping {
    /// Number of groups (17 for the paper's 4×4×4 matmul example with the
    /// paper's seed).
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// `true` iff there are no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

/// Region-grow the groups (Algorithm 1, Steps 3–5).
///
/// Starting from a seed group of `r` points along the grouping vector,
/// breadth-first exploration visits the forward/backward neighboring
/// groups along the grouping vector (stride `r·d_l^p`) and along each
/// auxiliary vector (stride `d_j^p`), creating each group's members as the
/// projected points `base + k·d_l^p, 0 ≤ k < r` that exist and are still
/// ungrouped. When an island is exhausted but ungrouped points remain
/// (disconnected or irregular regions), growth reseeds at the smallest
/// ungrouped point.
///
/// Bases are walked in integer line coordinates. A base visited again
/// finds every point it covers already grouped and creates nothing, so
/// the walk keeps no set of visited bases.
///
/// `seed` is the base vertex of the first group (Step 3's arbitrary
/// choice; the paper's matmul walkthrough uses `(−1, −1, 2)`), an
/// integer point on the hyperplane `Π·x = 0`. Without one, or with a
/// point off the hyperplane, growth starts at the lexicographically
/// smallest projected point.
pub fn grow(qp: &ProjectedStructure, gv: &GroupingVectors, seed: Option<&[i64]>) -> Grouping {
    const UNASSIGNED: usize = usize::MAX;
    let n_points = qp.len();
    let mut group_of = vec![UNASSIGNED; n_points];
    let mut groups: Vec<Group> = Vec::new();

    let Some(gidx) = gv.grouping else {
        // Degenerate case: every projected point is its own group.
        for (pid, slot) in group_of.iter_mut().enumerate() {
            *slot = groups.len();
            groups.push(Group {
                base: qp.line_key(pid).to_vec(),
                members: vec![pid],
            });
        }
        return Grouping { groups, group_of };
    };

    let dl = qp.dep_key(gidx);
    let r = gv.r;
    // Neighbor strides: ±r·d_l^p along the grouping vector, then ±d_j^p
    // along each auxiliary grouping vector.
    let mut strides: Vec<Vec<i64>> = Vec::new();
    let along: Vec<i64> = dl.iter().map(|&x| x * r).collect();
    strides.push(along.clone());
    strides.push(along.iter().map(|&x| -x).collect());
    for &i in &gv.auxiliary {
        strides.push(qp.dep_key(i).to_vec());
        strides.push(qp.dep_key(i).iter().map(|&x| -x).collect());
    }

    // Step 3: the very first seed may be user-chosen (a seed on the
    // hyperplane but outside `V^p` covers nothing); reseeds use the
    // smallest ungrouped point.
    let mut first_seed = Some(
        seed.and_then(|x| qp.key_of(x))
            .unwrap_or_else(|| qp.line_key(qp.least()).to_vec()),
    );
    let mut smallest_ungrouped = 0;
    loop {
        while smallest_ungrouped < n_points && group_of[smallest_ungrouped] != UNASSIGNED {
            smallest_ungrouped += 1;
        }
        if smallest_ungrouped == n_points {
            break;
        }
        let seed_base = first_seed
            .take()
            .unwrap_or_else(|| qp.line_key(smallest_ungrouped).to_vec());

        let mut queue: VecDeque<Vec<i64>> = VecDeque::new();
        queue.push_back(seed_base);

        // Step 4: breadth-first neighbor expansion.
        while let Some(base) = queue.pop_front() {
            let mut members = Vec::new();
            for k in 0..r {
                let pos = qp.line_at(|c| base[c].checked_add(dl[c].checked_mul(k)?));
                if let Some(pid) = pos.filter(|&pid| group_of[pid] == UNASSIGNED) {
                    members.push(pid);
                }
            }
            if members.is_empty() {
                continue; // nothing here: do not expand past empty space
            }
            let gid = groups.len();
            for &pid in &members {
                group_of[pid] = gid;
            }
            // Forward/backward neighbors along the grouping vector and
            // each auxiliary grouping vector.
            for stride in &strides {
                let next: Option<Vec<i64>> = base
                    .iter()
                    .zip(stride)
                    .map(|(&b, &s)| b.checked_add(s))
                    .collect();
                queue.extend(next);
            }
            groups.push(Group { base, members });
        }
        // Step 5: loop reseeds while ungrouped points remain.
    }

    Grouping { groups, group_of }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::select_vectors;
    use crate::project::ComputationalStructure;
    use loom_hyperplane::TimeFn;
    use loom_loopir::IterSpace;

    fn build(
        sizes: &[i64],
        deps: Vec<Vec<i64>>,
        pi: Vec<i64>,
        prefer: Option<usize>,
        seed: Option<&[i64]>,
    ) -> (ProjectedStructure, GroupingVectors, Grouping) {
        let cs = ComputationalStructure::new(IterSpace::rect(sizes).unwrap(), deps).unwrap();
        let qp = ProjectedStructure::project(&cs, &TimeFn::new(pi));
        let gv = select_vectors(&qp, prefer).unwrap();
        let g = grow(&qp, &gv, seed);
        (qp, gv, g)
    }

    fn assert_disjoint_cover(qp: &ProjectedStructure, g: &Grouping) {
        let mut seen = vec![false; qp.len()];
        for (gid, grp) in g.groups.iter().enumerate() {
            assert!(!grp.members.is_empty(), "empty group {gid}");
            for &pid in &grp.members {
                assert!(!seen[pid], "point {pid} in two groups");
                seen[pid] = true;
                assert_eq!(g.group_of[pid], gid);
            }
        }
        assert!(seen.iter().all(|&s| s), "ungrouped projected point");
    }

    #[test]
    fn l1_grouping_matches_paper_fig3b() {
        // Paper: four groups; each holds two projected points except the
        // boundary group G₄ (sizes 2,2,2,1).
        let (qp, gv, g) = build(
            &[4, 4],
            vec![vec![0, 1], vec![1, 1], vec![1, 0]],
            vec![1, 1],
            None,
            None,
        );
        assert_eq!(gv.r, 2);
        assert_eq!(g.len(), 4);
        assert_disjoint_cover(&qp, &g);
        let mut sizes: Vec<usize> = g.groups.iter().map(|x| x.members.len()).collect();
        sizes.sort();
        assert_eq!(sizes, vec![1, 2, 2, 2]);
    }

    #[test]
    fn matmul_grouping_with_paper_seed_gives_17_groups() {
        // Example 2 / Fig. 6: grouping vector d_A^p, auxiliary d_C^p,
        // seed (−1,−1,2) → 17 groups.
        let (qp, gv, g) = build(
            &[4, 4, 4],
            vec![vec![0, 1, 0], vec![1, 0, 0], vec![0, 0, 1]],
            vec![1, 1, 1],
            Some(0), // d_A
            Some(&[-1, -1, 2]),
        );
        assert_eq!(gv.r, 3);
        assert_disjoint_cover(&qp, &g);
        assert_eq!(g.len(), 17, "paper reports 17 partitioned groups");
    }

    #[test]
    fn matmul_grouping_default_seed_covers_all() {
        let (qp, _, g) = build(
            &[4, 4, 4],
            vec![vec![0, 1, 0], vec![1, 0, 0], vec![0, 0, 1]],
            vec![1, 1, 1],
            None,
            None,
        );
        assert_disjoint_cover(&qp, &g);
        // Group sizes never exceed r = 3.
        assert!(g.groups.iter().all(|x| x.members.len() <= 3));
    }

    #[test]
    fn members_ordered_along_grouping_vector() {
        let (qp, gv, g) = build(
            &[4, 4, 4],
            vec![vec![0, 1, 0], vec![1, 0, 0], vec![0, 0, 1]],
            vec![1, 1, 1],
            Some(0),
            None,
        );
        let dl = qp.dep_key(gv.grouping.unwrap());
        let c = dl.iter().position(|&x| x != 0).unwrap();
        for grp in &g.groups {
            for w in grp.members.windows(2) {
                let (a, b) = (qp.line_key(w[0]), qp.line_key(w[1]));
                // Consecutive members differ by a positive multiple of d_l^p
                // (gaps happen at clipped boundaries), in line coordinates.
                let k = (b[c] - a[c]) / dl[c];
                assert!(
                    k >= 1 && (0..dl.len()).all(|j| b[j] - a[j] == k * dl[j]),
                    "members not along grouping vector"
                );
            }
        }
    }

    #[test]
    fn seed_off_the_hyperplane_grows_as_no_seed() {
        // Π·(1, 0, 0) = 1: no base vertex, so growth starts at the least
        // projected point, as without a seed. The paper's seed differs.
        let grown = |seed: Option<&[i64]>| {
            let (_, _, g) = build(
                &[4, 4, 4],
                vec![vec![0, 1, 0], vec![1, 0, 0], vec![0, 0, 1]],
                vec![1, 1, 1],
                Some(0),
                seed,
            );
            (g.groups, g.group_of)
        };
        assert_eq!(grown(Some(&[1, 0, 0])), grown(None));
        assert_ne!(grown(Some(&[-1, -1, 2])), grown(None));
    }

    #[test]
    fn degenerate_grouping_one_group_per_line() {
        let (qp, gv, g) = build(&[4, 4], vec![vec![1, 1]], vec![1, 1], None, None);
        assert_eq!(gv.grouping, None);
        assert_eq!(g.len(), qp.len());
        assert_disjoint_cover(&qp, &g);
    }

    #[test]
    fn matvec_grouping_halves_lines() {
        // Matvec M=8: 15 projection lines, r = 2 → 8 groups (paper: M
        // groups, boundary group of one).
        let (qp, gv, g) = build(
            &[8, 8],
            vec![vec![1, 0], vec![0, 1]],
            vec![1, 1],
            None,
            None,
        );
        assert_eq!(gv.r, 2);
        assert_eq!(qp.len(), 15);
        assert_eq!(g.len(), 8);
        assert_disjoint_cover(&qp, &g);
    }
}
