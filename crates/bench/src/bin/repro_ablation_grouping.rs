//! A2 — ablation: the effect of the grouping-vector choice (Algorithm 1
//! Step 1 allows an arbitrary maximizer) on group count and interblock
//! communication.

use loom_core::report::Table;
use loom_hyperplane::TimeFn;
use loom_partition::comm::{comm_stats, group_dependence_graph};
use loom_partition::{partition, PartitionConfig};

fn main() {
    println!("Ablation A2 — grouping-vector choice on 6×6×6 matmul, Π = (1,1,1)\n");
    let w = loom_workloads::matmul::workload(6);
    let deps = w.verified_deps();
    let names = ["d_C=(0,0,1)", "d_A=(0,1,0)", "d_B=(1,0,0)"];

    let mut t = Table::new([
        "grouping vector",
        "groups",
        "largest block",
        "interblock arcs",
        "max out-degree",
    ]);
    for (choice, name) in names.iter().enumerate() {
        let p = partition(
            w.nest.space().clone(),
            deps.clone(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig {
                grouping_choice: Some(choice),
                seed: None,
            },
        )
        .expect("matmul partitions");
        let stats = comm_stats(&p);
        let graph = group_dependence_graph(&p);
        let max_out = graph.iter().map(|s| s.len()).max().unwrap_or(0);
        assert!(
            loom_check::check_laws(&p).is_empty(),
            "law violation with choice {choice}"
        );
        t.row([
            name.to_string(),
            format!("{}", p.num_blocks()),
            format!("{}", p.max_block_size()),
            format!("{}", stats.interblock_arcs),
            format!("{max_out}"),
        ]);
    }
    println!("{t}");

    // Second axis: how much does grouping help at all? Compare against
    // one-line-per-block (no grouping, r = 1 equivalent).
    println!("grouping vs no grouping (each projection line its own block):");
    let p = partition(
        w.nest.space().clone(),
        deps.clone(),
        TimeFn::new(w.pi.clone()),
        &PartitionConfig::default(),
    )
    .unwrap();
    let grouped = comm_stats(&p);
    // No-grouping reference: count arcs crossing projection lines.
    let qp = p.projected();
    let mut line_of = vec![0; p.structure().len()];
    for line in 0..qp.len() {
        for &id in qp.line_members(line) {
            line_of[id] = line;
        }
    }
    let mut crossing = 0usize;
    let mut total = 0usize;
    for pid in 0..p.structure().len() {
        for (succ, _) in p.structure().successors(pid) {
            total += 1;
            if line_of[pid] != line_of[succ] {
                crossing += 1;
            }
        }
    }
    println!(
        "  grouped (Algorithm 1): {} / {} arcs interblock",
        grouped.interblock_arcs, grouped.total_arcs
    );
    println!("  ungrouped lines:       {crossing} / {total} arcs cross lines");
    assert!(grouped.interblock_arcs < crossing);
    println!("\nexpected shape: symmetric choices give symmetric results; grouping\nremoves the arcs along the grouping vector (the r-sized merge).");
}
