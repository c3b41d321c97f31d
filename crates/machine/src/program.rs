//! The executable form of a partitioned and mapped loop nest.

use loom_partition::Partitioning;

/// A dependence-graph program ready for simulation: tasks with
/// hyperplane priorities, dependence arcs, and a processor assignment.
/// [`Program::from_partitioning`] builds one task per iteration.
#[derive(Clone, Debug)]
pub struct Program {
    /// Hyperplane step of each task, used as the dispatch priority.
    pub step_of: Vec<i64>,
    /// Dependence arcs `(src, dst)` by task id; each remote arc carries
    /// one word.
    pub arcs: Vec<(u32, u32)>,
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
        self.step_of.len()
    }

    /// `true` iff there are no tasks.
    pub fn is_empty(&self) -> bool {
        self.step_of.is_empty()
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
        let pi = p.time_fn();
        let step_of: Vec<i64> = cs.points().iter().map(|pt| pi.time_of(pt)).collect();
        let mut arcs = Vec::with_capacity(cs.num_arcs());
        for id in 0..cs.len() {
            arcs.extend(cs.successors(id).map(|(succ, _)| (id as u32, succ as u32)));
        }
        let proc_of: Vec<u32> = (0..cs.len())
            .map(|id| proc_of_block[p.block_of(id)] as u32)
            .collect();
        Program {
            step_of,
            arcs,
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
        assert_eq!(step_of.len(), proc_of.len(), "ragged program");
        assert!(
            arcs.iter()
                .all(|&(a, b)| (a as usize) < step_of.len() && (b as usize) < step_of.len()),
            "arc endpoint out of range"
        );
        assert!(proc_of.iter().all(|&p| (p as usize) < num_procs));
        Program {
            step_of,
            arcs,
            proc_of,
            flops,
            num_procs,
        }
    }

    /// Number of arcs crossing processors (each becomes a message when
    /// unbatched).
    pub fn remote_arcs(&self) -> usize {
        self.arcs
            .iter()
            .filter(|&&(a, b)| self.proc_of[a as usize] != self.proc_of[b as usize])
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
        assert_eq!(prog.arcs.len(), 33);
        assert_eq!(prog.flops, 3);
        // All blocks on one proc → remote arcs = 0.
        let solo = Program::from_partitioning(&p, &[0, 0, 0, 0], 1, 3);
        assert_eq!(solo.remote_arcs(), 0);
        // One block per proc → remote = the 12 interblock arcs.
        let spread = Program::from_partitioning(&p, &[0, 1, 2, 3], 4, 3);
        assert_eq!(spread.remote_arcs(), 12);
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
