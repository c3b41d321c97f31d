//! Bench: Algorithm 2 (cluster formation + Gray allocation) and
//! mapping-quality evaluation.

use loom_hyperplane::TimeFn;
use loom_machine::Topology;
use loom_mapping::{baseline, map_partitioning, metrics};
use loom_obs::bench::Bench;
use loom_partition::{partition, PartitionConfig, Tig};

fn main() {
    let mut bench = Bench::from_env();
    for m in [32i64, 64, 128] {
        let w = loom_workloads::matvec::workload(m);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        bench.run(&format!("algorithm2/gray_map/{m}"), || {
            map_partitioning(&p, 3).unwrap()
        });
    }
    let tig = Tig::mesh(16, 16);
    let cube = Topology::Hypercube(4);
    for (name, a) in [
        ("naive", baseline::naive(256, 16)),
        ("random", baseline::random(256, 16, 7)),
    ] {
        bench.run(&format!("mapping_quality/{name}"), || {
            metrics::evaluate(&tig, &a, &cube)
        });
    }
    print!("{}", bench.report());
}
