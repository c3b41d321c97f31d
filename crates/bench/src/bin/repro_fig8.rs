//! E5 — Fig. 8: mapping a 4×4 mesh-like TIG onto a three-dimensional
//! hypercube with concatenated Gray codes.

use loom_core::report::Table;
use loom_machine::Topology;
use loom_mapping::{map_positions, metrics};
use loom_partition::Tig;

fn main() {
    println!("Fig. 8 — 4×4 mesh TIG onto a 3-cube\n");
    // Blocks B1..B16 laid out as a 4×4 mesh, row-major (as in the paper's
    // figure); bisection directions are the mesh axes x̄ and ȳ.
    let mut positions = Vec::new();
    for r in 0..4i64 {
        for c in 0..4i64 {
            positions.push(vec![c, r]);
        }
    }
    let mapping = map_positions(&positions, 3).expect("16 blocks onto 8 processors");

    let mut t = Table::new(["cluster", "blocks", "processor (binary)"]);
    let f = mapping.formation();
    for (ci, cluster) in f.clusters.iter().enumerate() {
        let blocks: Vec<String> = cluster.iter().map(|b| format!("B{}", b + 1)).collect();
        t.row([
            format!("C{ci}"),
            blocks.join(" "),
            format!("{:03b}", f.addresses[ci]),
        ]);
    }
    println!("{t}");
    println!(
        "splits per direction: x̄ divided {} times, ȳ divided {} times",
        f.splits_per_dir[0], f.splits_per_dir[1]
    );

    // Quality: every mesh edge lands on the same node or adjacent nodes.
    let tig = Tig::mesh(4, 4);
    let q = metrics::evaluate(&tig, mapping.assignment(), &Topology::Hypercube(3));
    println!(
        "mapping quality: remote traffic {}, mean dilation {:.2}, congestion {}",
        q.remote_traffic,
        q.mean_dilation(),
        q.max_link_congestion
    );
    assert!(
        (q.mean_dilation() - 1.0).abs() < 1e-9,
        "Fig. 8 mapping is nearest-neighbor"
    );
    assert_eq!(f.clusters.len(), 8);
    assert!(f.clusters.iter().all(|c| c.len() == 2));
    println!("\npaper: blocks B1 and B2 share cluster 000 -> processor 000; every");
    println!("mesh-neighboring cluster pair differs in exactly one address bit.");
}
