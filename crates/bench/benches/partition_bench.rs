//! Bench: Algorithm 1 (projection + grouping + blocks) across workload
//! sizes — the partitioner is compile-time machinery, so its own cost
//! matters to a parallelizing compiler — and the layers that read its
//! dependence arcs: the simulator's program and the TIG.

use loom_hyperplane::TimeFn;
use loom_machine::Program;
use loom_obs::bench::Bench;
use loom_partition::{partition, PartitionConfig, Tig};

fn main() {
    let mut bench = Bench::from_env();
    for m in [16i64, 32, 64] {
        let w = loom_workloads::matvec::workload(m);
        let deps = w.verified_deps();
        bench.run(&format!("algorithm1/matvec/{m}"), || {
            partition(
                w.nest.space().clone(),
                deps.clone(),
                TimeFn::new(w.pi.clone()),
                &PartitionConfig::default(),
            )
            .unwrap()
            .num_blocks()
        });
    }
    for n in [4i64, 8, 12] {
        let w = loom_workloads::matmul::workload(n);
        let deps = w.verified_deps();
        bench.run(&format!("algorithm1/matmul/{n}"), || {
            partition(
                w.nest.space().clone(),
                deps.clone(),
                TimeFn::new(w.pi.clone()),
                &PartitionConfig::default(),
            )
            .unwrap()
            .num_blocks()
        });
    }
    for m in [16i64, 32, 64] {
        let w = loom_workloads::matvec::workload(m);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let mapping = loom_mapping::map_partitioning(&p, 2).unwrap();
        let procs = mapping.cube().len();
        let flops = w.nest.flops_per_iteration();
        bench.run(&format!("program/matvec/{m}"), || {
            Program::from_partitioning(&p, mapping.assignment(), procs, flops).len()
        });
    }
    for n in [4i64, 8, 12] {
        let w = loom_workloads::matmul::workload(n);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        bench.run(&format!("tig/matmul/{n}"), || {
            Tig::from_partitioning(&p).total_traffic()
        });
    }
    print!("{}", bench.report());
}
