//! A4 — beyond the paper: the same partitioned blocks mapped onto
//! hypercube, mesh, and ring machines of equal size (the "various
//! machines" the paper's conclusion defers to future techniques).

use loom_bench::{maybe_write_metrics, partition_workload};
use loom_core::obs_export::sim_json;
use loom_core::report::Table;
use loom_machine::{simulate, MachineParams, Program, SimConfig, Topology};
use loom_mapping::other_targets::{map_partitioning_mesh, map_partitioning_ring};
use loom_mapping::{map_partitioning, metrics};
use loom_obs::Json;
use loom_partition::Tig;

fn main() {
    println!("A4 — one partitioning, three machines of 8 processors\n");
    let params = MachineParams::classic_1991();
    let workloads = [
        loom_workloads::matvec::workload(32),
        loom_workloads::sor::workload(16, 16),
    ];
    let mut t = Table::new([
        "workload",
        "machine",
        "remote",
        "dilation",
        "congestion",
        "makespan",
    ]);
    let mut metrics_doc: Vec<(String, Json)> = Vec::new();
    for w in &workloads {
        let p = partition_workload(w);
        let tig = Tig::from_partitioning(&p);
        let flops = w.nest.flops_per_iteration();

        let cube = map_partitioning(&p, 3).expect("fits");
        let mesh = map_partitioning_mesh(&p, 2, 4).expect("fits");
        let ring = map_partitioning_ring(&p, 8).expect("fits");
        let cases: Vec<(&str, Topology, Vec<usize>)> = vec![
            (
                "hypercube(3)",
                Topology::Hypercube(3),
                cube.assignment().to_vec(),
            ),
            (
                "mesh 2x4",
                Topology::Mesh { rows: 2, cols: 4 },
                mesh.assignment().to_vec(),
            ),
            ("ring(8)", Topology::Ring(8), ring.assignment().to_vec()),
        ];
        for (name, topo, assignment) in cases {
            let q = metrics::evaluate_on(&tig, &assignment, &topo);
            let prog = Program::from_partitioning(&p, &assignment, 8, flops);
            let sim = simulate(
                &prog,
                &SimConfig {
                    params,
                    topology: topo,
                    batch_messages: false,
                    link_contention: true,
                    record_trace: false,
                    collect_metrics: true,
                },
            )
            .expect("sim completes");
            metrics_doc.push((format!("{}_{name}", w.nest.name()), sim_json(&sim)));
            t.row([
                w.nest.name().to_string(),
                name.to_string(),
                format!("{}", q.remote_traffic),
                format!("{:.2}", q.mean_dilation()),
                format!("{}", q.max_link_congestion),
                format!("{}", sim.makespan),
            ]);
        }
    }
    println!("{t}");
    maybe_write_metrics(
        "a4_topologies",
        &Json::Obj(metrics_doc.into_iter().collect()),
    );
    println!(
        "expected shape: the blocks of these loops form a communication chain, so all\n\
         three machines carry it at dilation ~1 — the hypercube's extra links only\n\
         start to matter for higher-dimensional block graphs or under congestion."
    );
}
