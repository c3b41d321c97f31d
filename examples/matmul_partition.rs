//! The paper's Example 2: partitioning 4×4×4 matrix multiplication.
//!
//! Reproduces the walkthrough of §III: 37 projected points, group size
//! r = 3, rank β = 2, 17 groups with the paper's seed, and the group
//! communication graph of Fig. 7 (G₁₀ sends to 2m − β = 4 groups).
//!
//! ```text
//! cargo run --example matmul_partition
//! ```

use loom_core::report::Table;
use loom_hyperplane::TimeFn;
use loom_partition::comm::{comm_stats, group_dependence_graph};
use loom_partition::{partition, PartitionConfig};

fn main() {
    let w = loom_workloads::matmul::workload(4);
    println!("{}", w.nest);
    println!("dependence matrix columns d_A, d_B, d_C: {:?}\n", w.deps);

    let p = partition(
        w.nest.space().clone(),
        w.verified_deps(),
        TimeFn::new(w.pi.clone()),
        &PartitionConfig {
            // The paper chooses d_A as grouping vector and the seed
            // group G₁ based at (−1,−1,2).
            grouping_choice: Some(1), // deps sorted: (0,0,1)=d_C, (0,1,0)=d_A, (1,0,0)=d_B
            seed: Some(vec![-1, -1, 2]),
        },
    )
    .expect("matmul partitions");

    let qp = p.projected();
    println!("projection phase: {} projected points on Π·x = 0", qp.len());
    println!("projected dependence vectors:");
    for (i, d) in p.structure().deps().iter().enumerate() {
        println!("  D[{i}] = {d:?} -> {}", qp.display_point(qp.dep_key(i)));
    }
    let gv = p.vectors();
    println!(
        "\ngrouping phase: r = {}, beta = {}, grouping = D[{}], auxiliary = {:?}",
        gv.r,
        gv.beta,
        gv.grouping.unwrap(),
        gv.auxiliary
    );
    println!("-> {} groups (the paper's 17)\n", p.num_blocks());

    let mut t = Table::new(["group", "size", "base vertex", "sends to"]);
    let graph = group_dependence_graph(&p);
    for (g, group) in p.grouping().groups.iter().enumerate() {
        let sends: Vec<String> = graph[g].iter().map(|x| format!("G{x}")).collect();
        t.row([
            format!("G{g}"),
            format!("{}", group.members.len()),
            qp.display_point(&group.base),
            sends.join(" "),
        ]);
    }
    println!("{t}");

    let m = p.structure().deps().len();
    let max_out = graph.iter().map(|s| s.len()).max().unwrap();
    println!(
        "Theorem 2: max out-degree {} <= 2m - beta = {}",
        max_out,
        2 * m - gv.beta
    );
    let stats = comm_stats(&p);
    println!(
        "iteration-level arcs: {} total, {} interblock",
        stats.total_arcs, stats.interblock_arcs
    );
    let violations = loom_check::check_laws(&p);
    println!(
        "LC002/LC003 (Lemmas 1-3, Theorems 1-2): {}",
        if violations.is_empty() {
            "all hold".to_string()
        } else {
            format!("{violations:?}")
        }
    );
}
