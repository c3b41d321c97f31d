//! E3 — Figs. 4–6: matrix multiplication's computational structure,
//! projected structure (37 points), and grouping (17 groups).

use loom_bench::paper_matmul_partitioning;
use loom_core::report::Table;

fn main() {
    let p = paper_matmul_partitioning();
    let qp = p.projected();

    println!("Figs. 4-6 — 4×4×4 matmul, Π = (1,1,1)\n");
    println!(
        "Fig. 4: computational structure: {} index points, {} dependence arcs",
        p.structure().len(),
        p.structure().num_arcs()
    );
    println!(
        "Fig. 5: projected structure: {} projected points (paper: 37)",
        qp.len()
    );
    println!("projected dependence vectors:");
    for (i, d) in p.structure().deps().iter().enumerate() {
        let r = qp.multiplier(i);
        println!(
            "  {d:?} -> {}   (r_i = {r})",
            qp.display_point(qp.dep_key(i))
        );
    }
    let gv = p.vectors();
    println!(
        "\nStep 1-2: r = {}, beta = {}, grouping vector index {}, auxiliary {:?}",
        gv.r,
        gv.beta,
        gv.grouping.unwrap(),
        gv.auxiliary
    );

    println!("\nFig. 6: the {} groups (paper: 17):", p.num_blocks());
    let mut t = Table::new(["group", "base vertex", "projected members", "iterations"]);
    for (g, group) in p.grouping().groups.iter().enumerate() {
        let members: Vec<String> = group
            .members
            .iter()
            .map(|&pid| qp.display_point(qp.line_key(pid)))
            .collect();
        t.row([
            format!("G{g}"),
            qp.display_point(&group.base),
            members.join(" "),
            format!("{}", p.block(g).len()),
        ]);
    }
    println!("{t}");

    let sizes: usize = p.blocks().iter().map(Vec::len).sum();
    println!("iterations covered: {sizes} / 64");
    assert_eq!(qp.len(), 37);
    assert_eq!(p.num_blocks(), 17);
    assert_eq!(sizes, 64);
    assert_eq!(gv.r, 3);
    assert_eq!(gv.beta, 2);
}
