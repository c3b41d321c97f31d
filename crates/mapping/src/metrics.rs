//! Quality metrics for a block→processor mapping of a TIG.

use loom_machine::Topology;
use loom_partition::Tig;
use std::collections::BTreeMap;
use std::fmt;

/// Aggregate quality of a mapping: lower is better everywhere.
#[derive(Clone, Debug, PartialEq)]
pub struct MappingQuality {
    /// Traffic (edge weight) between blocks on *different* processors.
    pub remote_traffic: u64,
    /// Traffic weighted by hop count — the network load the mapping
    /// induces under e-cube routing.
    pub weighted_dilation: u64,
    /// Largest total load routed over any single directed link.
    pub max_link_congestion: u64,
    /// Largest per-processor computational weight.
    pub max_proc_load: u64,
    /// Mean per-processor computational weight.
    pub mean_proc_load: f64,
}

impl MappingQuality {
    /// Mean hops per remote unit of traffic (0 when nothing is remote).
    pub fn mean_dilation(&self) -> f64 {
        if self.remote_traffic == 0 {
            0.0
        } else {
            self.weighted_dilation as f64 / self.remote_traffic as f64
        }
    }

    /// Load imbalance: max/mean processor load (1.0 is perfect).
    pub fn imbalance(&self) -> f64 {
        if self.mean_proc_load == 0.0 {
            1.0
        } else {
            self.max_proc_load as f64 / self.mean_proc_load
        }
    }
}

impl fmt::Display for MappingQuality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "remote={} dilation={:.2} congestion={} imbalance={:.2}",
            self.remote_traffic,
            self.mean_dilation(),
            self.max_link_congestion,
            self.imbalance()
        )
    }
}

/// Evaluate a mapping of `tig` onto any machine topology (hypercube,
/// mesh, ring) given the block→processor assignment, under that
/// topology's deterministic shortest routing. Panics if the assignment
/// length differs from the TIG size or names a processor outside the
/// machine.
pub fn evaluate(tig: &Tig, assignment: &[usize], topo: &Topology) -> MappingQuality {
    assert_eq!(assignment.len(), tig.len(), "assignment/TIG size mismatch");
    assert!(
        assignment.iter().all(|&p| p < topo.len()),
        "assignment names a processor outside the cube"
    );
    let mut remote = 0u64;
    let mut dilation = 0u64;
    let mut link_load: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for ((a, b), w) in tig.edges() {
        let (pa, pb) = (assignment[a], assignment[b]);
        if pa == pb {
            continue;
        }
        remote += w;
        dilation += w * topo.distance(pa, pb) as u64;
        // Charge both directions (the TIG is undirected): the route
        // there and back.
        for (u, v) in topo.route_links(pa, pb) {
            *link_load.entry((u, v)).or_insert(0) += w;
        }
        for (u, v) in topo.route_links(pb, pa) {
            *link_load.entry((u, v)).or_insert(0) += w;
        }
    }
    let mut proc_load = vec![0u64; topo.len()];
    for v in 0..tig.len() {
        proc_load[assignment[v]] += tig.weight(v);
    }
    let max_proc_load = proc_load.iter().copied().max().unwrap_or(0);
    let mean_proc_load = proc_load.iter().sum::<u64>() as f64 / topo.len() as f64;
    MappingQuality {
        remote_traffic: remote,
        weighted_dilation: dilation,
        max_link_congestion: link_load.values().copied().max().unwrap_or(0),
        max_proc_load,
        mean_proc_load,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocate::map_positions;
    use crate::baseline;

    fn mesh_positions(rows: usize, cols: usize) -> Vec<Vec<i64>> {
        let mut pos = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                pos.push(vec![c as i64, r as i64]);
            }
        }
        pos
    }

    #[test]
    fn identity_mapping_of_local_tig_has_no_remote() {
        let tig = Tig::mesh(2, 2);
        // All four blocks on processor 0 of a 0-cube… use 1-cube with all
        // on node 0 to exercise the cube checks.
        let q = evaluate(&tig, &[0, 0, 0, 0], &Topology::Hypercube(1));
        assert_eq!(q.remote_traffic, 0);
        assert_eq!(q.weighted_dilation, 0);
        assert_eq!(q.max_link_congestion, 0);
        assert_eq!(q.mean_dilation(), 0.0);
        assert_eq!(q.max_proc_load, 4);
    }

    #[test]
    fn gray_beats_random_on_mesh() {
        // The headline claim of Algorithm 2: Gray-coded recursive
        // bisection keeps neighboring blocks near each other.
        let tig = Tig::mesh(8, 8);
        let cube = Topology::Hypercube(4);
        let gray = map_positions(&mesh_positions(8, 8), 4).unwrap();
        let q_gray = evaluate(&tig, gray.assignment(), &cube);
        let q_rand = evaluate(&tig, &baseline::random(64, 16, 7), &cube);
        assert!(
            q_gray.weighted_dilation < q_rand.weighted_dilation,
            "gray {} !< random {}",
            q_gray.weighted_dilation,
            q_rand.weighted_dilation
        );
        assert!(q_gray.remote_traffic < q_rand.remote_traffic);
        // Gray mapping of a mesh is all nearest-neighbor: dilation 1.
        assert!((q_gray.mean_dilation() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn imbalance_detects_skew() {
        let tig = Tig::mesh(2, 2);
        let q = evaluate(&tig, &[0, 0, 0, 1], &Topology::Hypercube(1));
        assert!(q.imbalance() > 1.0);
        let balanced = evaluate(&tig, &[0, 0, 1, 1], &Topology::Hypercube(1));
        assert!((balanced.imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mesh_target_metrics() {
        use crate::other_targets::map_positions_mesh;
        let tig = Tig::mesh(8, 8);
        let pos = mesh_positions(8, 8);
        let m = map_positions_mesh(&pos, 4, 4).unwrap();
        let topo = Topology::Mesh { rows: 4, cols: 4 };
        let q = evaluate(&tig, m.assignment(), &topo);
        // Chunked grid placement: all remote edges one hop.
        assert!((q.mean_dilation() - 1.0).abs() < 1e-9);
        let rand = crate::baseline::random(64, 16, 3);
        let qr = evaluate(&tig, &rand, &topo);
        assert!(q.weighted_dilation < qr.weighted_dilation);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn size_mismatch_panics() {
        evaluate(&Tig::mesh(2, 2), &[0, 0], &Topology::Hypercube(1));
    }

    #[test]
    #[should_panic(expected = "outside the cube")]
    fn bad_processor_panics() {
        evaluate(&Tig::mesh(2, 2), &[0, 0, 0, 9], &Topology::Hypercube(1));
    }
}
