//! The executable form of a partitioned and mapped loop nest.

use loom_partition::{ArcRows, Partitioning, Steps};
use std::sync::Arc;

/// A dependence-graph program ready for simulation: tasks with
/// hyperplane priorities, dependence arcs, and a processor assignment.
/// [`Program::from_partitioning`] builds one task per iteration.
///
/// The arcs and steps depend only on the nest and Π, so a program built
/// from a partitioning shares `Q`'s successor and predecessor rows and
/// the projection's step table instead of copying them; only the
/// processor assignment is its own.
#[derive(Clone, Debug)]
pub struct Program {
    succ: Arc<ArcRows>,
    pred: Arc<ArcRows>,
    steps: Arc<Steps>,
    /// Processor of each task.
    pub proc_of: Vec<u32>,
    /// Flops per task (the paper's `2W·t_calc` accounting).
    pub flops: u64,
    /// Number of processors.
    pub num_procs: usize,
}

impl Program {
    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.proc_of.len()
    }

    /// `true` iff there are no tasks.
    pub fn is_empty(&self) -> bool {
        self.proc_of.is_empty()
    }

    /// Build a program from a partitioning and a block→processor
    /// assignment (`proc_of_block[b]` < `num_procs`).
    ///
    /// Panics if the assignment length differs from the block count.
    pub fn from_partitioning(
        p: &Partitioning,
        proc_of_block: &[usize],
        num_procs: usize,
        flops: u64,
    ) -> Program {
        assert_eq!(
            proc_of_block.len(),
            p.num_blocks(),
            "assignment/blocks mismatch"
        );
        assert!(
            proc_of_block.iter().all(|&x| x < num_procs),
            "assignment names processor outside machine"
        );
        let cs = p.structure();
        let proc_of: Vec<u32> = (0..cs.len())
            .map(|id| proc_of_block[p.block_of(id)] as u32)
            .collect();
        Program {
            succ: Arc::clone(cs.successor_rows()),
            pred: Arc::clone(cs.predecessor_rows()),
            steps: Arc::clone(p.projected().steps()),
            proc_of,
            flops,
            num_procs,
        }
    }

    /// Build a program directly from parts (for synthetic tests).
    pub fn from_parts(
        step_of: Vec<i64>,
        arcs: Vec<(u32, u32)>,
        proc_of: Vec<u32>,
        flops: u64,
        num_procs: usize,
    ) -> Program {
        let n = step_of.len();
        assert_eq!(n, proc_of.len(), "ragged program");
        assert!(
            arcs.iter()
                .all(|&(a, b)| (a as usize) < n && (b as usize) < n),
            "arc endpoint out of range"
        );
        assert!(proc_of.iter().all(|&p| (p as usize) < num_procs));
        Program {
            succ: Arc::new(ArcRows::from_pairs(n, arcs.iter().copied())),
            pred: Arc::new(ArcRows::from_pairs(n, arcs.iter().map(|&(a, b)| (b, a)))),
            steps: Arc::new(Steps::new(step_of)),
            proc_of,
            flops,
            num_procs,
        }
    }

    /// The tasks that depend on `task`, in arc order.
    #[inline]
    pub fn successors(&self, task: usize) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.succ.row(task).iter().map(|&(w, _)| w)
    }

    /// The tasks `task` depends on.
    #[inline]
    pub fn predecessors(&self, task: usize) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.pred.row(task).iter().map(|&(u, _)| u)
    }

    /// Every dependence arc `(src, dst)`, by source task and then in arc
    /// order; each remote arc carries one word.
    pub fn arcs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.len()).flat_map(move |u| self.successors(u).map(move |w| (u as u32, w)))
    }

    /// Hyperplane step of each task, used as the dispatch priority.
    #[inline]
    pub fn steps(&self) -> &[i64] {
        self.steps.as_slice()
    }

    /// Every task, in `(step, id)` order: a topological order whenever
    /// every arc advances the step. Built once per step table, so the
    /// programs of one Π share it.
    pub fn step_order(&self) -> &[u32] {
        self.steps.order()
    }

    /// Number of arcs crossing processors (each becomes a message when
    /// unbatched).
    pub fn remote_arcs(&self) -> usize {
        self.arcs()
            .filter(|&(a, b)| self.proc_of[a as usize] != self.proc_of[b as usize])
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_hyperplane::TimeFn;
    use loom_loopir::IterSpace;
    use loom_partition::{partition, PartitionConfig};

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
    fn l1_program_structure() {
        let p = l1();
        // Two processors, two blocks each.
        let prog = Program::from_partitioning(&p, &[0, 0, 1, 1], 2, 3);
        assert_eq!(prog.len(), 16);
        assert_eq!(prog.arcs().count(), 33);
        assert_eq!(prog.flops, 3);
        // All blocks on one proc → remote arcs = 0.
        let solo = Program::from_partitioning(&p, &[0, 0, 0, 0], 1, 3);
        assert_eq!(solo.remote_arcs(), 0);
        // One block per proc → remote = the 12 interblock arcs.
        let spread = Program::from_partitioning(&p, &[0, 1, 2, 3], 4, 3);
        assert_eq!(spread.remote_arcs(), 12);
    }

    #[test]
    fn from_partitioning_shares_rows_and_steps() {
        let p = l1();
        let prog = Program::from_partitioning(&p, &[0, 0, 1, 1], 2, 3);
        let cs = p.structure();
        assert!(Arc::ptr_eq(&prog.succ, cs.successor_rows()));
        assert!(Arc::ptr_eq(&prog.pred, cs.predecessor_rows()));
        assert!(Arc::ptr_eq(&prog.steps, p.projected().steps()));
        for id in 0..cs.len() {
            assert_eq!(prog.steps()[id], p.time_fn().time_of(cs.point(id)));
            let preds: Vec<u32> = cs.predecessors(id).map(|(u, _)| u as u32).collect();
            assert_eq!(prog.predecessors(id).collect::<Vec<_>>(), preds);
        }
    }

    #[test]
    fn from_parts_keeps_arc_order_per_row() {
        let prog = Program::from_parts(
            vec![0, 1, 1, 2],
            vec![(0, 2), (1, 3), (0, 1), (2, 3)],
            vec![0; 4],
            1,
            1,
        );
        assert_eq!(
            prog.arcs().collect::<Vec<_>>(),
            [(0, 2), (0, 1), (1, 3), (2, 3)]
        );
        assert_eq!(prog.predecessors(3).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(prog.step_order(), [0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "assignment/blocks mismatch")]
    fn wrong_assignment_length_panics() {
        Program::from_partitioning(&l1(), &[0, 1], 2, 1);
    }

    #[test]
    #[should_panic(expected = "arc endpoint out of range")]
    fn bad_arc_panics() {
        Program::from_parts(vec![0, 1], vec![(0, 2)], vec![0, 0], 1, 1);
    }
}
