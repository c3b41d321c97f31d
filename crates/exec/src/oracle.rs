//! The sequential oracle: execute a nest in source (lexicographic)
//! order — by definition, the correct result.

use crate::memory::Memory;
use loom_loopir::sem::Expr;
use loom_loopir::LoopNest;

/// A nest's statement bodies, ready to execute one iteration after
/// another: each statement's semantics, built once, and buffers for the
/// operand values and one subscript, so an iteration allocates nothing
/// but the store's growth.
pub(crate) struct Body<'a> {
    nest: &'a LoopNest,
    exprs: Vec<Expr>,
    reads: Vec<f64>,
    element: Vec<i64>,
}

impl<'a> Body<'a> {
    /// The bodies of `nest`'s statements.
    pub(crate) fn new(nest: &'a LoopNest) -> Body<'a> {
        Body {
            nest,
            exprs: nest.stmts().iter().map(|s| s.semantics()).collect(),
            reads: Vec::new(),
            element: Vec::new(),
        }
    }

    /// Execute one iteration's statement body against `mem`; every
    /// executor of this crate uses it.
    pub(crate) fn execute(
        &mut self,
        point: &[i64],
        mem: &mut Memory,
        init: &dyn Fn(&str, &[i64]) -> f64,
    ) {
        for (stmt, expr) in self.nest.stmts().iter().zip(&self.exprs) {
            self.reads.clear();
            for r in stmt.reads() {
                r.element_into(point, &mut self.element);
                self.reads.push(mem.read(r.array(), &self.element, init));
            }
            let value = expr.eval(&self.reads);
            stmt.write().element_into(point, &mut self.element);
            mem.write(stmt.write().array(), &self.element, value);
        }
    }
}

/// Run the nest sequentially, returning the final store.
pub fn sequential(nest: &LoopNest, init: &dyn Fn(&str, &[i64]) -> f64) -> Memory {
    let mut mem = Memory::new();
    let mut body = Body::new(nest);
    nest.space()
        .for_each_point(|p| body.execute(p, &mut mem, init));
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
    fn digests_are_pinned() {
        // Recorded when the store was one map keyed by (array, element):
        // the nested store must iterate, and so digest, identically.
        let cases = [
            (
                loom_workloads::matvec::workload(8),
                0x8e375d36298651ad_u64,
                8,
            ),
            (loom_workloads::l1::workload(4), 0x5d9158e63a4b5dea, 32),
            (loom_workloads::sor::workload(5, 5), 0x7ef61d1bf8148bf6, 25),
        ];
        for (w, digest, len) in cases {
            let mem = sequential(&w.nest, &address_hash_init);
            assert_eq!(
                (mem.digest(), mem.len()),
                (digest, len),
                "{}",
                w.nest.name()
            );
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
