//! Time-stepped 2-D heat diffusion — a 3-deep nest whose dependence
//! vectors have *negative* spatial components, unlike every loop in the
//! paper. The skewed time function `Π = (2,1,1)` is the least legal
//! wavefront.

use crate::Workload;
use loom_loopir::sem::Expr;
use loom_loopir::{Access, IterSpace, LoopNest, Stmt};

/// `u[t+1, x, y] = (u[t,x,y] + u[t,x−1,y] + u[t,x+1,y] + u[t,x,y−1] +
/// u[t,x,y+1]) / 5` over `steps × size × size` (interior sweep:
/// `1 ≤ x, y ≤ size`, with the boundary supplied by the init function).
///
/// Dependences `{(1,−1,0), (1,0,−1), (1,0,0), (1,0,1), (1,1,0)}`:
/// every vector advances one time step but may move *backwards* in
/// space, so the plain wavefront `(1,1,1)` is illegal
/// (`(1,1,1)·(1,−1,0) = 0`) and the skewed `(2,1,1)` is needed.
pub fn workload(steps: i64, size: i64) -> Workload {
    let n = 3;
    let nest = LoopNest::new(
        "heat2d",
        IterSpace::rect_bounds(&[0, 1, 1], &[steps - 1, size, size]).expect("positive extents"),
        vec![Stmt::assign(
            Access::simple("u", n, &[(0, 1), (1, 0), (2, 0)]),
            vec![
                Access::simple("u", n, &[(0, 0), (1, 0), (2, 0)]),
                Access::simple("u", n, &[(0, 0), (1, -1), (2, 0)]),
                Access::simple("u", n, &[(0, 0), (1, 1), (2, 0)]),
                Access::simple("u", n, &[(0, 0), (1, 0), (2, -1)]),
                Access::simple("u", n, &[(0, 0), (1, 0), (2, 1)]),
            ],
        )
        .with_flops(5)
        .with_expr(Expr::mul(
            Expr::add(
                Expr::add(
                    Expr::add(Expr::add(Expr::Read(0), Expr::Read(1)), Expr::Read(2)),
                    Expr::Read(3),
                ),
                Expr::Read(4),
            ),
            Expr::Const(0.2),
        ))],
    )
    .expect("heat2d is well-formed");
    Workload {
        nest,
        deps: vec![
            vec![1, -1, 0],
            vec![1, 0, -1],
            vec![1, 0, 0],
            vec![1, 0, 1],
            vec![1, 1, 0],
        ],
        pi: vec![2, 1, 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_hyperplane::TimeFn;

    #[test]
    fn deps_verify() {
        workload(4, 4).verified_deps();
    }

    #[test]
    fn plain_wavefront_is_illegal_but_skew_works() {
        let w = workload(4, 4);
        assert!(!TimeFn::new(vec![1, 1, 1]).is_legal_for(&w.deps));
        assert!(w.pi_is_legal());
    }

    #[test]
    fn search_finds_a_schedule_as_good_as_skew() {
        let w = workload(4, 6);
        let found = loom_hyperplane::find_optimal(
            &w.deps,
            w.nest.space(),
            loom_hyperplane::SearchConfig::default(),
        )
        .unwrap();
        let skew = TimeFn::new(w.pi.clone());
        assert!(found.steps(w.nest.space()) <= skew.steps(w.nest.space()));
    }

    #[test]
    fn partitions_lawfully() {
        let w = workload(4, 5);
        let p = loom_partition::partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &loom_partition::PartitionConfig::default(),
        )
        .unwrap();
        let covered: usize = p.blocks().iter().map(Vec::len).sum();
        assert_eq!(covered, w.nest.space().count());
    }
}
