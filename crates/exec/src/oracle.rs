//! The sequential oracle: execute a nest in source (lexicographic)
//! order — by definition, the correct result.

use crate::memory::Memory;
use loom_loopir::LoopNest;

/// Execute one iteration's statement body against `mem`; every executor uses it.
pub fn execute_iteration(
    nest: &LoopNest,
    point: &[i64],
    mem: &mut Memory,
    init: &dyn Fn(&str, &[i64]) -> f64,
) {
    for stmt in nest.stmts() {
        let reads: Vec<f64> = stmt
            .reads()
            .iter()
            .map(|r| mem.read(r.array(), &r.element_at(point), init))
            .collect();
        let value = stmt.semantics().eval(&reads);
        mem.write(stmt.write().array(), stmt.write().element_at(point), value);
    }
}

/// Run the nest sequentially, returning the final store.
pub fn sequential(nest: &LoopNest, init: &dyn Fn(&str, &[i64]) -> f64) -> Memory {
    let mut mem = Memory::new();
    for p in nest.space().points() {
        execute_iteration(nest, &p, &mut mem, init);
    }
    mem
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::address_hash_init;
    use loom_loopir::sem::Expr;
    use loom_loopir::{Access, IterSpace, LoopNest, Stmt};

    #[test]
    fn matvec_computes_real_products() {
        // y[i] = Σ_j A[i,j]·x[j] with A and x from the init function.
        let nest = LoopNest::new(
            "matvec",
            IterSpace::rect(&[3, 3]).unwrap(),
            vec![Stmt::assign(
                Access::simple("y", 2, &[(0, 0)]),
                vec![
                    Access::simple("y", 2, &[(0, 0)]),
                    Access::simple("A", 2, &[(0, 0), (1, 0)]),
                    Access::simple("x", 2, &[(1, 0)]),
                ],
            )
            .with_expr(Expr::add(
                Expr::Read(0),
                Expr::mul(Expr::Read(1), Expr::Read(2)),
            ))],
        )
        .unwrap();
        let init = |a: &str, e: &[i64]| match a {
            "y" => 0.0,
            _ => address_hash_init(a, e),
        };
        let mem = sequential(&nest, &init);
        // Check y[1] against a direct computation.
        let expected: f64 = (0..3)
            .map(|j| address_hash_init("A", &[1, j]) * address_hash_init("x", &[j]))
            .sum();
        assert_eq!(mem.get("y", &[1]), Some(expected));
    }

    #[test]
    fn recurrence_order_matters_and_is_sequential() {
        // A[i+1] = A[i] + 1 starting from A[0] = 0 → A[n] = n.
        let nest = LoopNest::new(
            "count",
            IterSpace::rect(&[5]).unwrap(),
            vec![Stmt::assign(
                Access::simple("A", 1, &[(0, 1)]),
                vec![Access::simple("A", 1, &[(0, 0)])],
            )
            .with_expr(Expr::add(Expr::Read(0), Expr::Const(1.0)))],
        )
        .unwrap();
        let mem = sequential(&nest, &|_, _| 0.0);
        for i in 1..=5 {
            assert_eq!(mem.get("A", &[i]), Some(i as f64));
        }
    }

    #[test]
    fn default_semantics_sum_of_reads() {
        let nest = LoopNest::new(
            "sum",
            IterSpace::rect(&[2]).unwrap(),
            vec![Stmt::assign(
                Access::simple("B", 1, &[(0, 0)]),
                vec![
                    Access::simple("x", 1, &[(0, 0)]),
                    Access::simple("y", 1, &[(0, 0)]),
                ],
            )],
        )
        .unwrap();
        let mem = sequential(&nest, &|a, _| if a == "x" { 2.0 } else { 3.0 });
        assert_eq!(mem.get("B", &[0]), Some(5.0));
    }
}
