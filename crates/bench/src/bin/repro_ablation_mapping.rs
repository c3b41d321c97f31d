//! A1 — ablation: Algorithm 2's Gray-coded bisection vs naive /
//! round-robin / random placement, across workloads and machine sizes.

use loom_bench::partition_workload;
use loom_core::report::Table;
use loom_machine::{simulate, MachineParams, Program, SimConfig, Topology};
use loom_mapping::{baseline, map_partitioning, metrics};
use loom_partition::Tig;

fn main() {
    println!("Ablation A1 — mapping strategy vs communication cost\n");
    let params = MachineParams::classic_1991();
    let workloads = vec![
        loom_workloads::matvec::workload(32),
        loom_workloads::sor::workload(16, 16),
        loom_workloads::matmul::workload(6),
    ];
    let mut t = Table::new([
        "workload",
        "N",
        "mapping",
        "remote",
        "dilation",
        "congestion",
        "makespan",
    ]);
    for w in &workloads {
        let p = partition_workload(w);
        let tig = Tig::from_partitioning(&p);
        let flops = w.nest.flops_per_iteration();
        for cube_dim in [2usize, 3] {
            let n = 1usize << cube_dim;
            if n > p.num_blocks() {
                continue;
            }
            let cube = Topology::Hypercube(cube_dim);
            let gray = map_partitioning(&p, cube_dim).expect("fits");
            let candidates: Vec<(&str, Vec<usize>)> = vec![
                ("gray", gray.assignment().to_vec()),
                ("naive", baseline::naive(p.num_blocks(), n)),
                ("round-robin", baseline::round_robin(p.num_blocks(), n)),
                ("random", baseline::random(p.num_blocks(), n, 1991)),
            ];
            for (name, assignment) in candidates {
                let q = metrics::evaluate(&tig, &assignment, &cube);
                let prog = Program::from_partitioning(&p, &assignment, n, flops);
                let sim = simulate(&prog, &SimConfig::paper_hypercube(cube_dim, params))
                    .expect("sim completes");
                t.row([
                    w.nest.name().to_string(),
                    format!("{n}"),
                    name.to_string(),
                    format!("{}", q.remote_traffic),
                    format!("{:.2}", q.mean_dilation()),
                    format!("{}", q.max_link_congestion),
                    format!("{}", sim.makespan),
                ]);
            }
        }
    }
    println!("{t}");
    println!(
        "expected shape: gray <= naive < round-robin/random on remote traffic and\n\
         makespan; gray achieves ~unit dilation on chain/mesh-like TIGs."
    );
}
