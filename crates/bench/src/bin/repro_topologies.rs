//! A4 — beyond the paper: the same partitioned blocks mapped onto
//! hypercube, mesh, and ring machines of equal size (the "various
//! machines" the paper's conclusion defers to future techniques).

use loom_bench::maybe_write_metrics;
use loom_core::obs_export::sim_json;
use loom_core::pipeline::{run_machine, MachineOptions};
use loom_core::report::Table;
use loom_core::{Pipeline, PipelineConfig};
use loom_machine::Topology;
use loom_mapping::metrics;
use loom_obs::{Json, Recorder};

fn main() {
    println!("A4 — one partitioning, three machines of 8 processors\n");
    let rec = Recorder::disabled();
    let opts = MachineOptions {
        link_contention: true,
        collect_metrics: true,
        ..MachineOptions::default()
    };
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
        let config = PipelineConfig {
            time_fn: Some(w.pi.clone()),
            ..PipelineConfig::default()
        };
        let stage = Pipeline::new(w.nest.clone())
            .stage_partition(&config, &rec)
            .expect("workloads partition");
        let cases = [
            ("hypercube(3)", Topology::Hypercube(3)),
            ("mesh 2x4", Topology::Mesh { rows: 2, cols: 4 }),
            ("ring(8)", Topology::Ring(8)),
        ];
        for (name, target) in cases {
            let config = PipelineConfig {
                target: Some(target),
                ..config.clone()
            };
            let (_, placement, _) = stage.map_with(&config, &rec).expect("fits");
            let q = metrics::evaluate(stage.tig(), placement.assignment(), &target);
            let sim = run_machine(&stage.program(&placement), target, &opts, &rec, None)
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
