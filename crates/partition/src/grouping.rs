//! Steps 1–2 of Algorithm 1: selecting the grouping vector and the
//! auxiliary grouping vectors.

use crate::project::ProjectedStructure;
use crate::Error;
use loom_rational::intlinalg::{rank, IMat};

/// The vectors steering the grouping phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupingVectors {
    /// Index (into the dependence set) of the grouping vector `d_l^p`,
    /// or `None` when every projected dependence is zero (all dependences
    /// parallel to Π) and grouping degenerates to one group per line.
    pub grouping: Option<usize>,
    /// Indices of the `β − 1` auxiliary grouping vectors `Ψ`.
    pub auxiliary: Vec<usize>,
    /// Group size `r = max r_i` (1 in the degenerate case).
    pub r: i64,
    /// `β = rank(mat(D^p))`.
    pub beta: usize,
}

impl GroupingVectors {
    /// Indices of grouping + auxiliary vectors, in selection order — the
    /// set Ω used by the hypercube mapping's cluster formation.
    pub fn omega(&self) -> Vec<usize> {
        self.grouping
            .into_iter()
            .chain(self.auxiliary.iter().copied())
            .collect()
    }
}

/// Select grouping and auxiliary grouping vectors for a projected
/// structure (Algorithm 1, Steps 1–2).
///
/// `prefer` optionally forces a specific dependence (by index) to be the
/// grouping vector — the paper allows an arbitrary choice among the
/// maximizers, and the ablation benches exercise all of them. A `prefer`
/// whose multiplier is not maximal is an error, and so is one parallel
/// to Π, whose zero projection spans nothing.
pub fn select_vectors(
    qp: &ProjectedStructure,
    prefer: Option<usize>,
) -> Result<GroupingVectors, Error> {
    let nonzero = qp.nonzero_dep_indices();
    if let Some(p) = prefer {
        if p >= qp.num_deps() {
            return Err(Error::BadDependenceIndex {
                index: p,
                len: qp.num_deps(),
            });
        }
    }
    if nonzero.is_empty() {
        return Ok(GroupingVectors {
            grouping: None,
            auxiliary: Vec::new(),
            r: 1,
            beta: 0,
        });
    }

    // Step 1: r_i = least positive integer with r_i·d_i^p ∈ ℤⁿ; r = max.
    let multipliers: Vec<(usize, i64)> = nonzero.iter().map(|&i| (i, qp.multiplier(i))).collect();
    let r = multipliers.iter().map(|&(_, m)| m).max().unwrap();
    let grouping = match prefer {
        Some(p) => {
            let r_p = qp.multiplier(p); // 1 for a zero projection
            if r_p != r {
                return Err(Error::InvalidGroupingChoice {
                    requested: p,
                    r_requested: r_p,
                    r_max: r,
                });
            }
            // With r = 1 a zero projection passes the multiplier check.
            if !nonzero.contains(&p) {
                return Err(Error::ZeroGroupingChoice { requested: p });
            }
            p
        }
        None => multipliers.iter().find(|&&(_, m)| m == r).unwrap().0,
    };

    // β = rank of the projected dependence matrix, read from the
    // dependences' line coordinates (one-to-one on the hyperplane, so of
    // the same rank); zero rows never change rank.
    let beta = keys_rank(qp, &nonzero);

    // Step 2: grow an independent set {d_l^p} ∪ Ψ of size β.
    let mut chosen = vec![grouping];
    let mut auxiliary = Vec::new();
    for &i in &nonzero {
        if auxiliary.len() + 1 == beta {
            break;
        }
        if i == grouping {
            continue;
        }
        chosen.push(i);
        if keys_rank(qp, &chosen) == chosen.len() {
            auxiliary.push(i);
        } else {
            chosen.pop();
        }
    }
    // A rank-β matrix always contains β independent columns, and the
    // scan starts from a nonzero one, so it must find them; if it ever
    // does not (a rank computation bug), fail loudly in every build
    // profile instead of silently producing a short Ω set — `loom-check`
    // surfaces this as an LC006 diagnostic.
    if auxiliary.len() + 1 != beta {
        return Err(Error::GroupingRankDeficit {
            found: auxiliary.len() + 1,
            beta,
        });
    }

    Ok(GroupingVectors {
        grouping: Some(grouping),
        auxiliary,
        r,
        beta,
    })
}

/// The rank of the projected dependences `deps` (by index), from their
/// line coordinates.
fn keys_rank(qp: &ProjectedStructure, deps: &[usize]) -> usize {
    let rows: Vec<&[i64]> = deps.iter().map(|&i| qp.dep_key(i)).collect();
    rank(&IMat::from_rows(&rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::project::ComputationalStructure;
    use loom_hyperplane::TimeFn;
    use loom_loopir::IterSpace;

    fn project(sizes: &[i64], deps: Vec<Vec<i64>>, pi: Vec<i64>) -> ProjectedStructure {
        let cs = ComputationalStructure::new(IterSpace::rect(sizes).unwrap(), deps).unwrap();
        ProjectedStructure::project(&cs, &TimeFn::new(pi))
    }

    #[test]
    fn l1_selection_matches_paper() {
        // L1: D^p = {(−1/2,1/2), 0, (1/2,−1/2)} → r = 2, β = 1,
        // no auxiliary vectors.
        let qp = project(
            &[4, 4],
            vec![vec![0, 1], vec![1, 1], vec![1, 0]],
            vec![1, 1],
        );
        let gv = select_vectors(&qp, None).unwrap();
        assert_eq!(gv.r, 2);
        assert_eq!(gv.beta, 1);
        assert_eq!(gv.grouping, Some(0));
        assert!(gv.auxiliary.is_empty());
        assert_eq!(gv.omega(), vec![0]);
    }

    #[test]
    fn matmul_selection_matches_paper() {
        // Example 2: r = 3, β = 2 → one auxiliary vector.
        let qp = project(
            &[4, 4, 4],
            vec![vec![0, 1, 0], vec![1, 0, 0], vec![0, 0, 1]],
            vec![1, 1, 1],
        );
        let gv = select_vectors(&qp, None).unwrap();
        assert_eq!(gv.r, 3);
        assert_eq!(gv.beta, 2);
        assert_eq!(gv.auxiliary.len(), 1);
        // Grouping + auxiliary must be independent and distinct.
        let g = gv.grouping.unwrap();
        assert_ne!(g, gv.auxiliary[0]);
    }

    #[test]
    fn matmul_prefer_each_maximizer() {
        // All three projected matmul deps have r_i = 3; any may be chosen.
        let qp = project(
            &[4, 4, 4],
            vec![vec![0, 1, 0], vec![1, 0, 0], vec![0, 0, 1]],
            vec![1, 1, 1],
        );
        for want in 0..3 {
            let gv = select_vectors(&qp, Some(want)).unwrap();
            assert_eq!(gv.grouping, Some(want));
            assert_eq!(gv.r, 3);
            assert_eq!(gv.auxiliary.len(), 1);
        }
    }

    #[test]
    fn prefer_non_maximizer_rejected() {
        // Matvec: d_x = (1,0) → (1/2,−1/2) has r = 2; d_y = (0,1) →
        // (−1/2,1/2) also r = 2. Mixed-r example: use L1 where d2
        // projects to zero (multiplier treated as 1).
        let qp = project(
            &[4, 4],
            vec![vec![0, 1], vec![1, 1], vec![1, 0]],
            vec![1, 1],
        );
        let err = select_vectors(&qp, Some(1)).unwrap_err();
        assert_eq!(
            err,
            Error::InvalidGroupingChoice {
                requested: 1,
                r_requested: 1,
                r_max: 2
            }
        );
    }

    #[test]
    fn zero_projection_rejected() {
        // Π = (0, 1): d1 = (0, 1) ∥ Π projects to zero, d2 = (1, 1) to
        // (1, 0); both multipliers are 1.
        let qp = project(&[4, 4], vec![vec![0, 1], vec![1, 1]], vec![0, 1]);
        assert_eq!(
            select_vectors(&qp, Some(0)),
            Err(Error::ZeroGroupingChoice { requested: 0 })
        );
        assert_eq!(select_vectors(&qp, Some(1)).unwrap().grouping, Some(1));
    }

    #[test]
    fn bad_index_rejected() {
        let qp = project(&[4, 4], vec![vec![1, 0]], vec![1, 1]);
        assert!(matches!(
            select_vectors(&qp, Some(5)),
            Err(Error::BadDependenceIndex { index: 5, len: 1 })
        ));
    }

    #[test]
    fn all_deps_parallel_to_pi_degenerates() {
        // D = {(1,1)} with Π = (1,1): projection is zero.
        let qp = project(&[4, 4], vec![vec![1, 1]], vec![1, 1]);
        let gv = select_vectors(&qp, None).unwrap();
        assert_eq!(gv.grouping, None);
        assert_eq!(gv.r, 1);
        assert_eq!(gv.beta, 0);
        assert!(gv.omega().is_empty());
    }
}
