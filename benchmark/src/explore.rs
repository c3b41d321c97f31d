//! `explore`: the configuration search. One request ranks every legal
//! (Π, grouping, cube) of one nest by simulated makespan, on two
//! threads with pruning, and keeps the top ten.

use crate::runner::{same, Oracle, Workload};
use crate::trace::Tracer;
use loom_core::explore::{explore_reference, explore_with, Candidate, ExploreConfig};
use loom_core::MachineOptions;
use loom_loopir::LoopNest;
use loom_machine::MachineParams;

const CUBE_DIMS: [usize; 3] = [1, 2, 3];

/// Explore never runs on more threads than the benchmark machine has
/// cores, and never on "auto".
pub const THREADS: usize = 2;

/// Counters the explorer exports on its recorder.
pub const EXPLORE_COUNTERS: [&str; 5] = [
    "explore.candidates",
    "explore.simulated",
    "explore.pruned",
    "pool.tasks",
    "pool.workers",
];

fn config(pi_bound: i64) -> ExploreConfig {
    ExploreConfig {
        pi_bound,
        top: 10,
        machine: MachineOptions {
            params: MachineParams::classic_1991(),
            ..Default::default()
        },
        threads: THREADS,
        prune: true,
        symbolic: None,
    }
}

pub struct Explore {
    inputs: Vec<(LoopNest, i64)>,
}

impl Workload for Explore {
    type Output = Vec<Candidate>;
    type Answer = Vec<Candidate>;
    const THREADS: usize = THREADS;

    /// The builtins at the sizes of the committed explore sweep, each at
    /// Π bounds 1 and 2; conv2d only at 1 (at 2 one request takes half
    /// a second).
    fn setup(smoke: bool) -> Result<Explore, String> {
        use loom_workloads::*;
        let nests = [
            l1::workload(12),
            matmul::workload(6),
            matvec::workload(24),
            conv::workload(16, 8),
            sor::workload(16, 16),
            transitive::workload(6),
            dft::workload(16),
            triangular::workload(14),
            heat2d::workload(6, 8),
        ];
        let mut inputs: Vec<(LoopNest, i64)> = nests
            .into_iter()
            .flat_map(|w| [(w.nest.clone(), 1), (w.nest, 2)])
            .collect();
        inputs.push((conv2d::workload(8, 4).nest, 1));
        if smoke {
            inputs.truncate(2);
        }
        Ok(Explore { inputs })
    }

    fn len(&self) -> usize {
        self.inputs.len()
    }

    fn label(&self, i: usize) -> String {
        let (nest, pi_bound) = &self.inputs[i];
        format!("explore {} pi_bound {pi_bound}", nest.name())
    }

    fn request(&self, i: usize, t: &mut Tracer) -> Result<Vec<Candidate>, String> {
        let (nest, pi_bound) = &self.inputs[i];
        let rec = t.recorder();
        let ranked = t.span("core.explore", |_| {
            explore_with(nest, &CUBE_DIMS, &config(*pi_bound), &rec)
        });
        t.count_from(&rec, &EXPLORE_COUNTERS);
        ranked.map_err(|e| e.to_string())
    }

    fn answer(&self, _i: usize, ranked: Vec<Candidate>) -> Vec<Candidate> {
        ranked
    }

    fn replica(&self, _i: usize, _answer: &Vec<Candidate>, _t: &mut Tracer) -> Result<(), String> {
        Ok(())
    }

    /// The ranking must equal the serial, unpruned reference explorer's.
    fn verify(&self, i: usize, answer: &Vec<Candidate>, _: &[bool]) -> Result<Oracle, String> {
        let (nest, pi_bound) = &self.inputs[i];
        let reference =
            explore_reference(nest, &CUBE_DIMS, &config(*pi_bound)).map_err(|e| e.to_string())?;
        same("ranking", answer, &reference).map(|()| Oracle::Agrees)
    }

    fn makespan(&self, _i: usize, answer: &Vec<Candidate>) -> u64 {
        answer.first().map_or(0, |c| c.makespan)
    }
}
