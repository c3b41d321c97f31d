//! Bench: discrete-event simulator throughput, and the message-batching
//! ablation.
//!
//! The `simulator/reused/*` cases run explore-sized programs back to
//! back through one [`SimScratch`], as the explore sweep does, and
//! report the median cost per task: `heat2d 6×8` on a 3-cube is the
//! message-heavy case, `matvec 24` on a 1-cube the compute-heavy one.
//!
//! `simulator/first_use/matvec_256_cube2` is a large program's first
//! run: each iteration builds the program from its partitioning and
//! simulates it from fresh engine state on a low-latency machine
//! (`t_calc 3, t_start 2, t_comm 1`). `steps/order/matvec_256` builds
//! the step table's `(step, id)` order from scratch, the one-off cost
//! every program of a Π shares.

use loom_hyperplane::TimeFn;
use loom_machine::{simulate, simulate_scratch, MachineParams, Program, SimConfig, SimScratch};
use loom_mapping::map_partitioning;
use loom_obs::bench::Bench;
use loom_partition::{partition, PartitionConfig, Steps};
use loom_workloads::Workload;

fn program(w: &Workload, cube_dim: usize) -> Program {
    let p = partition(
        w.nest.space().clone(),
        w.verified_deps(),
        TimeFn::new(w.pi.clone()),
        &PartitionConfig::default(),
    )
    .unwrap();
    let mapping = map_partitioning(&p, cube_dim).unwrap();
    Program::from_partitioning(
        &p,
        mapping.assignment(),
        mapping.cube().len(),
        w.nest.flops_per_iteration(),
    )
}

fn matvec_program(m: i64, cube_dim: usize) -> Program {
    program(&loom_workloads::matvec::workload(m), cube_dim)
}

fn main() {
    let mut bench = Bench::from_env();
    for m in [32i64, 64] {
        let prog = matvec_program(m, 2);
        bench.run(&format!("simulator/matvec_tasks/{m}"), || {
            simulate(
                &prog,
                &SimConfig::paper_hypercube(2, MachineParams::classic_1991()),
            )
            .unwrap()
            .makespan
        });
    }
    let prog = matvec_program(48, 3);
    for batch in [false, true] {
        let mut cfg = SimConfig::paper_hypercube(3, MachineParams::classic_1991());
        cfg.batch_messages = batch;
        let name = if batch { "batched" } else { "unbatched" };
        bench.run(&format!("message_batching/{name}"), || {
            simulate(&prog, &cfg).unwrap().makespan
        });
    }
    let mut per_task = Vec::new();
    for (name, w, cube_dim) in [
        (
            "heat2d_6x8_cube3",
            loom_workloads::heat2d::workload(6, 8),
            3,
        ),
        ("matvec_24_cube1", loom_workloads::matvec::workload(24), 1),
    ] {
        let prog = program(&w, cube_dim);
        let cfg = SimConfig::paper_hypercube(cube_dim, MachineParams::classic_1991());
        let mut scratch = SimScratch::default();
        let case = format!("simulator/reused/{name}");
        let stats = bench.run(&case, || {
            simulate_scratch(&prog, &cfg, &mut scratch)
                .unwrap()
                .makespan
        });
        per_task.push(format!(
            "{case}: {} tasks, {} messages/run, {:.1} ns/task (median)",
            prog.len(),
            prog.remote_arcs(),
            stats.median_ns as f64 / prog.len() as f64
        ));
    }
    let w = loom_workloads::matvec::workload(256);
    let p = partition(
        w.nest.space().clone(),
        w.verified_deps(),
        TimeFn::new(w.pi.clone()),
        &PartitionConfig::default(),
    )
    .unwrap();
    let mapping = map_partitioning(&p, 2).unwrap();
    let low = MachineParams {
        t_calc: 3,
        t_start: 2,
        t_comm: 1,
        t_recv: 0,
    };
    let cfg = SimConfig::paper_hypercube(2, low);
    let flops = w.nest.flops_per_iteration();
    let tasks = p.structure().len();
    let case = "simulator/first_use/matvec_256_cube2";
    let stats = bench.run(case, || {
        let prog =
            Program::from_partitioning(&p, mapping.assignment(), mapping.cube().len(), flops);
        simulate(&prog, &cfg).unwrap().makespan
    });
    per_task.push(format!(
        "{case}: {tasks} tasks, {:.1} ns/task (median)",
        stats.median_ns as f64 / tasks as f64
    ));
    let steps = p.projected().steps().as_slice();
    let case = "steps/order/matvec_256";
    let stats = bench.run(case, || Steps::new(steps.to_vec()).order().len());
    per_task.push(format!(
        "{case}: {tasks} tasks, {:.1} ns/task (median)",
        stats.median_ns as f64 / tasks as f64
    ));
    print!("{}", bench.report());
    for line in per_task {
        println!("{line}");
    }
}
