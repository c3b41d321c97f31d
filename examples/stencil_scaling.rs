//! SOR stencil: machine-size scaling and mapping-quality comparison.
//!
//! Partitions a Gauss–Seidel style stencil, maps it with Algorithm 2's
//! Gray-coded bisection and with naive / random baselines, and compares
//! simulated makespans — the reason the mapping phase exists.
//!
//! ```text
//! cargo run --example stencil_scaling [rows] [cols]
//! ```

use loom_core::report::Table;
use loom_hyperplane::TimeFn;
use loom_machine::{simulate, MachineParams, Program, SimConfig};
use loom_mapping::{baseline, map_partitioning, metrics};
use loom_partition::{partition, PartitionConfig, Tig};

fn main() {
    let mut args = std::env::args().skip(1);
    let rows: i64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(24);
    let cols: i64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(24);
    let w = loom_workloads::sor::workload(rows, cols);
    let p = partition(
        w.nest.space().clone(),
        w.verified_deps(),
        TimeFn::new(w.pi.clone()),
        &PartitionConfig::default(),
    )
    .expect("stencil partitions");
    println!(
        "sor {rows}x{cols}: {} blocks, largest {}",
        p.num_blocks(),
        p.max_block_size()
    );

    let tig = Tig::from_partitioning(&p);
    let params = MachineParams::classic_1991();
    let flops = w.nest.flops_per_iteration();

    let mut t = Table::new([
        "cube",
        "mapping",
        "remote",
        "dilation",
        "congestion",
        "makespan",
    ]);
    for cube_dim in [1usize, 2, 3] {
        if (1 << cube_dim) > p.num_blocks() {
            break;
        }
        let gray = map_partitioning(&p, cube_dim).expect("mapping fits");
        let cube = gray.cube();
        let candidates: Vec<(&str, Vec<usize>)> = vec![
            ("gray (Alg. 2)", gray.assignment().to_vec()),
            ("naive", baseline::naive(p.num_blocks(), cube.len())),
            ("random", baseline::random(p.num_blocks(), cube.len(), 1991)),
        ];
        for (name, assignment) in candidates {
            let q = metrics::evaluate(&tig, &assignment, &cube);
            let program = Program::from_partitioning(&p, &assignment, cube.len(), flops);
            let sim = simulate(&program, &SimConfig::paper_hypercube(cube_dim, params))
                .expect("simulation completes");
            t.row([
                format!("2^{cube_dim}"),
                name.to_string(),
                format!("{}", q.remote_traffic),
                format!("{:.2}", q.mean_dilation()),
                format!("{}", q.max_link_congestion),
                format!("{}", sim.makespan),
            ]);
        }
    }
    println!("{t}");
    println!("Gray-coded bisection keeps chain neighbors adjacent: lower remote traffic,\nunit dilation, and the smallest simulated makespan.");
}
