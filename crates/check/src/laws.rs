//! Every law of the paper's §III on one bare partitioning: `LC002`
//! (Lemma 1 and Theorem 1) and `LC003` (Theorem 2 with Lemmas 2–3).

use crate::diag::Diagnostic;
use crate::{check_lemma1, check_theorem2};
use loom_partition::Partitioning;

/// The paper's laws on one partitioning: Lemma 1 and Theorem 1
/// (`LC002`, against the partitioning's own Π), then Theorem 2 with
/// Lemmas 2 and 3 (`LC003`). An empty result means every law holds.
pub fn check_laws(p: &Partitioning) -> Vec<Diagnostic> {
    let mut out = check_lemma1(p.time_fn(), p.structure().point_table(), p.blocks());
    out.extend(check_theorem2(p));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_hyperplane::TimeFn;
    use loom_loopir::IterSpace;
    use loom_partition::{partition, PartitionConfig};

    #[test]
    fn l1_satisfies_all_laws() {
        let p = partition(
            IterSpace::rect(&[4, 4]).unwrap(),
            vec![vec![0, 1], vec![1, 1], vec![1, 0]],
            TimeFn::new(vec![1, 1]),
            &PartitionConfig::default(),
        )
        .unwrap();
        assert_eq!(check_laws(&p), vec![]);
    }

    #[test]
    fn matmul_satisfies_all_laws() {
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
        assert_eq!(check_laws(&p), vec![]);
    }

    #[test]
    fn matmul_all_grouping_choices_satisfy_laws() {
        for choice in 0..3 {
            let p = partition(
                IterSpace::rect(&[4, 4, 4]).unwrap(),
                vec![vec![0, 1, 0], vec![1, 0, 0], vec![0, 0, 1]],
                TimeFn::wavefront(3),
                &PartitionConfig {
                    grouping_choice: Some(choice),
                    seed: None,
                },
            )
            .unwrap();
            assert_eq!(check_laws(&p), vec![], "violation with choice {choice}");
        }
    }

    #[test]
    fn matvec_satisfies_all_laws() {
        let p = partition(
            IterSpace::rect(&[12, 12]).unwrap(),
            vec![vec![1, 0], vec![0, 1]],
            TimeFn::new(vec![1, 1]),
            &PartitionConfig::default(),
        )
        .unwrap();
        assert_eq!(check_laws(&p), vec![]);
    }

    #[test]
    fn five_point_stencil_satisfies_laws() {
        // D = {(0,1), (1,0), (1,1)} with larger extent and Π = (1,2):
        // exercises unequal Π coefficients.
        let deps = vec![vec![0, 1], vec![1, 0], vec![1, 1]];
        let pi = TimeFn::new(vec![1, 2]);
        assert!(pi.is_legal_for(&deps));
        let p = partition(
            IterSpace::rect(&[6, 6]).unwrap(),
            deps,
            pi,
            &PartitionConfig::default(),
        )
        .unwrap();
        assert_eq!(check_laws(&p), vec![]);
    }
}
