//! Bench: Algorithm 1 (projection + grouping + blocks) across workload
//! sizes — the partitioner is compile-time machinery, so its own cost
//! matters to a parallelizing compiler — the builds of `Q` and `Q^p`
//! it starts from, the layers that read its
//! dependence arcs (the simulator's program and the TIG), and two fixed
//! costs of an explore sweep: partitioning every (Π, grouping) pair
//! from scratch or over one shared `Q` and one projection per Π, and
//! the work pool's per-call dispatch.

use loom_hyperplane::TimeFn;
use loom_loopir::Point;
use loom_machine::Program;
use loom_obs::bench::Bench;
use loom_obs::Pool;
use loom_partition::grouping::select_vectors;
use loom_partition::grow::grow;
use loom_partition::{
    partition, partition_projected, ComputationalStructure, PartitionConfig, ProjectedStructure,
    Tig,
};
use std::sync::Arc;

/// Every Π with coefficients in `[−bound, bound]` legal for `deps`.
fn legal_pis(dim: usize, deps: &[Point], bound: i64) -> Vec<TimeFn> {
    let side = (2 * bound + 1) as usize;
    (0..side.pow(dim as u32))
        .map(|code| {
            let coeffs = (0..dim)
                .map(|j| (code / side.pow(j as u32) % side) as i64 - bound)
                .collect();
            TimeFn::new(coeffs)
        })
        .filter(|pi| pi.is_legal_for(deps))
        .collect()
}

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
    // Algorithm 1's two structures alone at 65,536 points: `Q` (the flat
    // `V` and both arc rows) and its projection `Q^p`.
    let w = loom_workloads::matvec::workload(256);
    let deps = w.verified_deps();
    bench.run("structure/matvec/256", || {
        ComputationalStructure::new(w.nest.space().clone(), deps.clone())
            .unwrap()
            .num_arcs()
    });
    let cs = ComputationalStructure::new(w.nest.space().clone(), deps).unwrap();
    let pi = TimeFn::new(w.pi.clone());
    bench.run("projection/matvec/256", || {
        ProjectedStructure::project(&cs, &pi).len()
    });
    // Steps 3–5 alone: region growing on the projection of conv2d's
    // 4,096 points, once per maximal grouping.
    let w = loom_workloads::conv2d::workload(16, 4);
    let cs = ComputationalStructure::new(w.nest.space().clone(), w.verified_deps()).unwrap();
    let qp = ProjectedStructure::project(&cs, &TimeFn::new(w.pi.clone()));
    let vectors: Vec<_> = (0..cs.deps().len())
        .filter_map(|g| select_vectors(&qp, Some(g)).ok())
        .collect();
    bench.run("grow/conv2d/16", || {
        vectors
            .iter()
            .map(|gv| grow(&qp, gv, None).len())
            .sum::<usize>()
    });
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

    // An explore sweep's partitioning: matmul 6 at Π bound 2, every
    // (Π, grouping) pair, counting the pairs that partition.
    let w = loom_workloads::matmul::workload(6);
    let (space, deps) = (w.nest.space(), w.verified_deps());
    let pis = legal_pis(space.dim(), &deps, 2);
    let config = |grouping| PartitionConfig {
        grouping_choice: Some(grouping),
        seed: None,
    };
    bench.run("sweep/matmul/6/per_pair", || {
        let mut ok = 0;
        for pi in &pis {
            for g in 0..deps.len() {
                ok +=
                    partition(space.clone(), deps.clone(), pi.clone(), &config(g)).is_ok() as usize;
            }
        }
        ok
    });
    bench.run("sweep/matmul/6/shared", || {
        let cs = Arc::new(ComputationalStructure::new(space.clone(), deps.clone()).unwrap());
        let mut ok = 0;
        for pi in &pis {
            let qp = Arc::new(ProjectedStructure::project(&cs, pi));
            for g in 0..deps.len() {
                ok += partition_projected(cs.clone(), qp.clone(), &config(g)).is_ok() as usize;
            }
        }
        ok
    });

    // The smallest parallel call: three trivial items on two threads.
    let pool = Pool::new(2);
    let items = [1u64, 2, 3];
    bench.run("pool/dispatch", || pool.map_indexed(&items, |_, &x| x + 1));

    print!("{}", bench.report());
}
