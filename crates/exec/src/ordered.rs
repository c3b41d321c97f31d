//! Execution in an arbitrary total order, with dependence validation,
//! plus exact comparison of executions.

use crate::memory::Memory;
use crate::oracle::Body;
use loom_hyperplane::Schedule;
use loom_loopir::{LoopNest, Point};
use loom_machine::trace::TaskRecord;
use std::collections::HashMap;

/// A divergence between two executions, or an invalid order.
#[derive(Clone, Debug, PartialEq)]
pub enum Divergence {
    /// The two stores disagree on an element's value.
    ValueMismatch {
        /// The array.
        array: String,
        /// The element.
        element: Vec<i64>,
        /// Value in the first store (`None` = unwritten).
        left: Option<f64>,
        /// Value in the second store.
        right: Option<f64>,
    },
    /// The order executed a point before one of its dependence
    /// predecessors.
    OrderViolation {
        /// The too-early point.
        point: Point,
        /// The not-yet-executed predecessor.
        predecessor: Point,
    },
    /// The order is not a permutation of the iteration space.
    NotAPermutation,
}

/// Execute the nest visiting `order[k]`-th points of `points` in
/// sequence. Validates that the order is a permutation and respects the
/// given dependence set (every `p − d` predecessor inside the space must
/// already have executed).
pub fn execute_in_order(
    nest: &LoopNest,
    points: &[Point],
    order: &[usize],
    deps: &[Point],
    init: &dyn Fn(&str, &[i64]) -> f64,
) -> Result<Memory, Divergence> {
    if order.len() != points.len() {
        return Err(Divergence::NotAPermutation);
    }
    let index: HashMap<&[i64], usize> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (p.as_slice(), i))
        .collect();
    let mut done = vec![false; points.len()];
    let mut mem = Memory::new();
    let mut body = Body::new(nest);
    let mut pred: Point = Vec::new();
    for &id in order {
        if id >= points.len() || done[id] {
            return Err(Divergence::NotAPermutation);
        }
        let p = &points[id];
        for d in deps {
            pred.clear();
            pred.extend(p.iter().zip(d).map(|(&a, &b)| a - b));
            if let Some(&pid) = index.get(pred.as_slice()) {
                if !done[pid] {
                    return Err(Divergence::OrderViolation {
                        point: p.clone(),
                        predecessor: pred,
                    });
                }
            }
        }
        body.execute(p, &mut mem, init);
        done[id] = true;
    }
    Ok(mem)
}

/// The iteration order induced by a hyperplane schedule: front by front,
/// points within a front in the order the schedule stores them (any
/// within-front order is valid — fronts are independent sets).
pub fn schedule_order(points: &[Point], schedule: &Schedule) -> Vec<usize> {
    let index: HashMap<&Point, usize> = points.iter().enumerate().map(|(i, p)| (p, i)).collect();
    let mut order = Vec::with_capacity(points.len());
    for t in 0..schedule.num_steps() {
        for p in schedule.front(t) {
            if let Some(&id) = index.get(p) {
                order.push(id);
            }
        }
    }
    order
}

/// The iteration order of a simulator trace: by start time, then task id
/// (concurrent tasks on distinct processors are independent, so the tie
/// break cannot change results).
pub fn trace_order(trace: &[TaskRecord]) -> Vec<usize> {
    let mut records: Vec<&TaskRecord> = trace.iter().collect();
    records.sort_by_key(|r| (r.start, r.task));
    records.iter().map(|r| r.task as usize).collect()
}

/// Compare two stores exactly; `Ok(())` iff identical. Floating-point
/// equality is intentional: a dependence-respecting reorder must be
/// *bit-identical*, because each element's write sequence is fixed.
pub fn equivalent(left: &Memory, right: &Memory) -> Result<(), Divergence> {
    let mismatch = |array: &str, element: &[i64], left, right| Divergence::ValueMismatch {
        array: array.to_string(),
        element: element.to_vec(),
        left,
        right,
    };
    for (array, element, v) in left.iter() {
        match right.get(array, element) {
            Some(w) if w == v => {}
            other => return Err(mismatch(array, element, Some(v), other)),
        }
    }
    for (array, element, w) in right.iter() {
        if left.get(array, element).is_none() {
            return Err(mismatch(array, element, None, Some(w)));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::address_hash_init;
    use crate::oracle::sequential;
    use loom_hyperplane::TimeFn;

    fn l1() -> loom_workloads::Workload {
        loom_workloads::l1::workload(4)
    }

    #[test]
    fn schedule_order_matches_sequential() {
        let w = l1();
        let points: Vec<Point> = w.nest.space().points().collect();
        let sched = Schedule::build(TimeFn::new(w.pi.clone()), w.nest.space());
        let order = schedule_order(&points, &sched);
        let deps = w.verified_deps();
        let par = execute_in_order(&w.nest, &points, &order, &deps, &address_hash_init).unwrap();
        let seq = sequential(&w.nest, &address_hash_init);
        assert_eq!(equivalent(&par, &seq), Ok(()));
    }

    #[test]
    fn reversed_fronts_still_match() {
        // Any order *within* a front is legal; reverse each front.
        let w = l1();
        let points: Vec<Point> = w.nest.space().points().collect();
        let sched = Schedule::build(TimeFn::new(w.pi.clone()), w.nest.space());
        let index: HashMap<&Point, usize> =
            points.iter().enumerate().map(|(i, p)| (p, i)).collect();
        let mut order = Vec::new();
        for t in 0..sched.num_steps() {
            for p in sched.front(t).iter().rev() {
                order.push(index[p]);
            }
        }
        let deps = w.verified_deps();
        let par = execute_in_order(&w.nest, &points, &order, &deps, &address_hash_init).unwrap();
        assert_eq!(
            equivalent(&par, &sequential(&w.nest, &address_hash_init)),
            Ok(())
        );
    }

    #[test]
    fn bad_order_detected() {
        let w = l1();
        let points: Vec<Point> = w.nest.space().points().collect();
        let deps = w.verified_deps();
        // Reverse lexicographic order executes sinks first.
        let order: Vec<usize> = (0..points.len()).rev().collect();
        let err = execute_in_order(&w.nest, &points, &order, &deps, &|_, _| 0.0).unwrap_err();
        assert!(matches!(err, Divergence::OrderViolation { .. }));
    }

    #[test]
    fn non_permutation_detected() {
        let w = l1();
        let points: Vec<Point> = w.nest.space().points().collect();
        let deps = w.verified_deps();
        let short = vec![0usize, 1];
        assert_eq!(
            execute_in_order(&w.nest, &points, &short, &deps, &|_, _| 0.0).unwrap_err(),
            Divergence::NotAPermutation
        );
        let dup = vec![0usize; points.len()];
        assert_eq!(
            execute_in_order(&w.nest, &points, &dup, &deps, &|_, _| 0.0).unwrap_err(),
            Divergence::NotAPermutation
        );
    }

    #[test]
    fn equivalent_detects_mismatch() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        a.write("A", &[0], 1.0);
        b.write("A", &[0], 2.0);
        assert!(matches!(
            equivalent(&a, &b),
            Err(Divergence::ValueMismatch { .. })
        ));
        let empty = Memory::new();
        assert!(matches!(
            equivalent(&a, &empty),
            Err(Divergence::ValueMismatch { right: None, .. })
        ));
        assert!(matches!(
            equivalent(&empty, &a),
            Err(Divergence::ValueMismatch { left: None, .. })
        ));
    }
}
