//! E2 — Fig. 3: projected points, projection lines, and the groups /
//! blocks of loop (L1), with the paper's communication counts.

use loom_bench::partition_workload;
use loom_core::report::Table;
use loom_partition::comm::comm_stats;

fn main() {
    let w = loom_workloads::l1::workload(4);
    let p = partition_workload(&w);
    let qp = p.projected();

    println!("Fig. 3 — projected structure of L1 with Π = (1,1)\n");
    println!("projected dependence vectors:");
    for (i, d) in p.structure().deps().iter().enumerate() {
        println!("  {d:?} -> {}", qp.display_point(qp.dep_key(i)));
    }
    println!();

    let mut t = Table::new(["projected point", "line members (iterations)", "group"]);
    for pid in 0..qp.len() {
        let members: Vec<String> = qp
            .line_members(pid)
            .iter()
            .map(|&id| format!("{:?}", p.structure().point(id)))
            .collect();
        t.row([
            qp.display_point(qp.line_key(pid)),
            members.join(" "),
            format!("G{}", p.grouping().group_of[pid]),
        ]);
    }
    println!("{t}");

    println!(
        "groups: {} (r = {}); block sizes: {:?}",
        p.num_blocks(),
        p.vectors().r,
        p.blocks().iter().map(Vec::len).collect::<Vec<_>>()
    );
    let stats = comm_stats(&p);
    println!(
        "dependencies between index points: {} total, {} interblock",
        stats.total_arcs, stats.interblock_arcs
    );
    println!("paper: 7 projected points, 4 groups, 33 dependencies, 12 interprocessor");
    assert_eq!(qp.len(), 7);
    assert_eq!(p.num_blocks(), 4);
    assert_eq!(stats.total_arcs, 33);
    assert_eq!(stats.interblock_arcs, 12);
}
