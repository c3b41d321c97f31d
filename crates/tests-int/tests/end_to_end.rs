//! Cross-crate end-to-end tests: every workload through the full
//! pipeline, with structural laws and execution traces verified.

use loom_core::pipeline::MachineOptions;
use loom_core::{Pipeline, PipelineConfig};
use loom_machine::trace::verify_trace;
use loom_machine::{MachineParams, Program};

fn run(nest: &loom_loopir::LoopNest, pi: &[i64], cube_dim: usize) -> loom_core::PipelineOutput {
    Pipeline::new(nest.clone())
        .run(&PipelineConfig {
            time_fn: Some(pi.to_vec()),
            cube_dim,
            machine: Some(MachineOptions {
                params: MachineParams::classic_1991(),
                record_trace: true,
                ..Default::default()
            }),
            ..Default::default()
        })
        .expect("pipeline runs")
}

#[test]
fn all_workloads_full_pipeline_on_2cube() {
    let heat2d = loom_workloads::heat2d::workload(4, 5);
    for w in loom_workloads::all_default().into_iter().chain([heat2d]) {
        let out = run(
            &w.nest,
            &w.pi,
            1.min(w.nest.space().count().ilog2() as usize),
        );
        // Laws hold for every partitioning the pipeline produces.
        let violations = loom_check::check_laws(&out.partitioning);
        assert!(violations.is_empty(), "{}: {violations:?}", w.nest.name());
        // Every iteration lands in exactly one block.
        let covered: usize = out.partitioning.blocks().iter().map(Vec::len).sum();
        assert_eq!(covered, w.nest.space().count(), "{}", w.nest.name());
        // The simulation completed all tasks and its trace is valid.
        let sim = out.sim.as_ref().unwrap();
        let program = Program::from_partitioning(
            &out.partitioning,
            out.mapping.assignment(),
            out.mapping.cube().len(),
            w.nest.flops_per_iteration(),
        );
        let violations = verify_trace(&program, sim.trace.as_ref().unwrap());
        assert!(violations.is_empty(), "{}: {violations:?}", w.nest.name());
    }
}

#[test]
fn searched_pi_never_worse_than_documented() {
    // The hyperplane search must find a Π at least as good as the
    // paper's canonical wavefront for each workload.
    for w in loom_workloads::all_default() {
        let deps = w.verified_deps();
        let found = loom_hyperplane::find_optimal(
            &deps,
            w.nest.space(),
            loom_hyperplane::SearchConfig::default(),
        )
        .unwrap();
        let documented = loom_hyperplane::TimeFn::new(w.pi.clone());
        assert!(
            found.steps(w.nest.space()) <= documented.steps(w.nest.space()),
            "{}: search found {:?} worse than documented {:?}",
            w.nest.name(),
            found,
            documented
        );
    }
}

#[test]
fn simulated_compute_totals_are_conserved() {
    // Total compute across processors == points × flops × t_calc,
    // regardless of mapping.
    let w = loom_workloads::sor::workload(12, 12);
    for cube_dim in [0usize, 1, 2] {
        let out = run(&w.nest, &w.pi, cube_dim);
        let sim = out.sim.unwrap();
        let total: u64 = sim.compute.iter().sum();
        assert_eq!(
            total,
            144 * w.nest.flops_per_iteration() * MachineParams::classic_1991().t_calc
        );
    }
}

#[test]
fn makespan_lower_bounded_by_critical_path_and_compute() {
    let w = loom_workloads::matvec::workload(24);
    let out = run(&w.nest, &w.pi, 2);
    let sim = out.sim.unwrap();
    let flops = w.nest.flops_per_iteration();
    let t_calc = MachineParams::classic_1991().t_calc;
    // Critical path: the number of hyperplane steps × task duration.
    let steps = out.pi.steps(w.nest.space()) as u64;
    assert!(sim.makespan >= steps * flops * t_calc);
    // And by the busiest processor's pure compute.
    let max_compute = sim.compute.iter().copied().max().unwrap();
    assert!(sim.makespan >= max_compute);
}

#[test]
fn batching_ablation_improves_comm_bound_runs() {
    let w = loom_workloads::matvec::workload(32);
    let mk = |batch: bool| {
        Pipeline::new(w.nest.clone())
            .run(&PipelineConfig {
                time_fn: Some(w.pi.clone()),
                cube_dim: 2,
                machine: Some(MachineOptions {
                    params: MachineParams::classic_1991(),
                    batch_messages: batch,
                    ..Default::default()
                }),
                ..Default::default()
            })
            .unwrap()
            .sim
            .unwrap()
    };
    let unbatched = mk(false);
    let batched = mk(true);
    assert!(batched.messages <= unbatched.messages);
    assert_eq!(batched.words, unbatched.words, "batching never drops words");
    assert!(
        batched.makespan <= unbatched.makespan,
        "batching cannot hurt under this cost model"
    );
}

#[test]
fn deeper_cubes_spread_compute() {
    let w = loom_workloads::matmul::workload(6);
    let out1 = run(&w.nest, &w.pi, 1);
    let out3 = run(&w.nest, &w.pi, 3);
    let max1 = out1.sim.unwrap().compute.iter().copied().max().unwrap();
    let max3 = out3.sim.unwrap().compute.iter().copied().max().unwrap();
    assert!(max3 < max1, "more processors → less compute per processor");
}
