//! A6 — link-contention ablation: the paper's cost model charges
//! latency only; this experiment shows when serialized links change the
//! picture (and that the Gray mapping's low congestion is what protects
//! it).

use loom_bench::{maybe_write_metrics, partition_workload};
use loom_core::obs_export::sim_json;
use loom_core::report::Table;
use loom_machine::{simulate, MachineParams, Program, SimConfig, Topology};
use loom_mapping::{baseline, map_partitioning};
use loom_obs::Json;

fn main() {
    println!("A6 — latency-only vs contention-aware interconnect\n");
    let params = MachineParams::classic_1991();
    let w = loom_workloads::sor::workload(24, 24);
    let p = partition_workload(&w);
    let flops = w.nest.flops_per_iteration();
    let cube_dim = 3usize;
    let n = 1usize << cube_dim;

    let gray = map_partitioning(&p, cube_dim).expect("fits");
    let candidates: Vec<(&str, Vec<usize>)> = vec![
        ("gray", gray.assignment().to_vec()),
        ("random", baseline::random(p.num_blocks(), n, 1991)),
    ];
    let mut t = Table::new(["mapping", "contention", "makespan", "slowdown"]);
    let mut metrics_doc: Vec<(String, Json)> = Vec::new();
    for (name, assignment) in candidates {
        let prog = Program::from_partitioning(&p, &assignment, n, flops);
        let mut base = SimConfig {
            params,
            topology: Topology::Hypercube(cube_dim),
            batch_messages: false,
            link_contention: false,
            record_trace: false,
            collect_metrics: true,
        };
        let free_sim = simulate(&prog, &base).expect("sim");
        let free = free_sim.makespan;
        base.link_contention = true;
        let contended_sim = simulate(&prog, &base).expect("sim");
        let contended = contended_sim.makespan;
        assert!(contended >= free, "contention can only delay");
        metrics_doc.push((format!("{name}_free"), sim_json(&free_sim)));
        metrics_doc.push((format!("{name}_contended"), sim_json(&contended_sim)));
        t.row([
            name.to_string(),
            "off".to_string(),
            format!("{free}"),
            "1.00".to_string(),
        ]);
        t.row([
            name.to_string(),
            "on".to_string(),
            format!("{contended}"),
            format!("{:.2}", contended as f64 / free as f64),
        ]);
    }
    println!("{t}");
    maybe_write_metrics(
        "a6_contention",
        &Json::Obj(metrics_doc.into_iter().collect()),
    );
    println!(
        "expected shape: the gray mapping keeps per-link load near the chain minimum,\n\
         so contention barely moves it; scattered mappings concentrate traffic on few\n\
         links and pay more when links serialize."
    );
}
