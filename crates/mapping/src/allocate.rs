//! Phase II of Algorithm 2: allocating clusters to hypercube processors,
//! plus the end-to-end mapping entry points and the [`Mapping`] every
//! allocator returns.

use crate::bisect::{form_clusters, ClusterFormation};
use crate::other_targets::partition_positions;
use crate::Error;
use loom_machine::Topology;
use loom_partition::Partitioning;

/// A placement of blocks onto the processors of a machine: Algorithm
/// 2's on a hypercube, or an extension allocator's on a mesh or ring.
#[derive(Clone, Debug)]
pub struct Mapping {
    cube: Topology,
    proc_of_block: Vec<usize>,
    formation: ClusterFormation,
}

impl Mapping {
    /// Place every block of cluster `ci` on processor
    /// `proc(&formation, ci)`.
    pub(crate) fn place(
        cube: Topology,
        formation: ClusterFormation,
        proc: impl Fn(&ClusterFormation, usize) -> usize,
    ) -> Mapping {
        let mut proc_of_block = vec![0usize; formation.clusters.iter().map(Vec::len).sum()];
        for (ci, cluster) in formation.clusters.iter().enumerate() {
            let p = proc(&formation, ci);
            for &b in cluster {
                proc_of_block[b] = p;
            }
        }
        Mapping {
            cube,
            proc_of_block,
            formation,
        }
    }

    /// The target machine.
    pub fn cube(&self) -> Topology {
        self.cube
    }

    /// Number of processors in the target machine.
    pub fn num_procs(&self) -> usize {
        self.cube.len()
    }

    /// Processor of block `b`.
    pub fn proc_of(&self, b: usize) -> usize {
        self.proc_of_block[b]
    }

    /// The full block → processor table.
    pub fn assignment(&self) -> &[usize] {
        &self.proc_of_block
    }

    /// The underlying cluster formation (for inspection / reporting).
    pub fn formation(&self) -> &ClusterFormation {
        &self.formation
    }

    /// Blocks assigned to each processor, indexed by processor number.
    pub fn blocks_per_proc(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.num_procs()];
        for (b, &p) in self.proc_of_block.iter().enumerate() {
            out[p].push(b);
        }
        out
    }
}

/// Map blocks with explicit bisection-direction coordinates onto an
/// `n`-cube: Phase I bisection, then Phase II Gray-code allocation
/// ("every cluster is allocated to the processor whose binary number is
/// the same as that of the cluster").
pub fn map_positions(positions: &[Vec<i64>], cube_dim: usize) -> Result<Mapping, Error> {
    let formation = form_clusters(positions, cube_dim)?;
    Ok(Mapping::place(
        Topology::Hypercube(cube_dim),
        formation,
        |f, ci| f.addresses[ci] as usize,
    ))
}

/// Map a partitioning onto an `n`-cube using the grouping and auxiliary
/// grouping vectors as bisection directions (the set Ω of Algorithm 2).
///
/// Each block's coordinate along direction ḡ is its group base vertex
/// dotted with ḡ, scaled to an integer ([`partition_positions`]).
pub fn map_partitioning(p: &Partitioning, cube_dim: usize) -> Result<Mapping, Error> {
    map_positions(&partition_positions(p)?, cube_dim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_hyperplane::TimeFn;
    use loom_loopir::IterSpace;
    use loom_partition::{partition, PartitionConfig};

    fn matvec(m: i64) -> Partitioning {
        partition(
            IterSpace::rect(&[m, m]).unwrap(),
            vec![vec![1, 0], vec![0, 1]],
            TimeFn::new(vec![1, 1]),
            &PartitionConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn matvec_blocks_onto_2cube() {
        let p = matvec(16); // 16 blocks
        let m = map_partitioning(&p, 2).unwrap();
        assert_eq!(m.cube().len(), 4);
        // Every block placed; processors get 4 blocks each.
        let per = m.blocks_per_proc();
        assert!(per.iter().all(|b| b.len() == 4));
        assert_eq!(m.assignment().len(), 16);
    }

    #[test]
    fn neighboring_blocks_on_same_or_adjacent_procs() {
        // Matvec's blocks form a 1-D chain; after Gray-coded bisection,
        // consecutive blocks must sit on the same or adjacent processors.
        let p = matvec(16);
        let m = map_partitioning(&p, 2).unwrap();
        // Order blocks along the chain by their base coordinate.
        let positions = partition_positions(&p).unwrap();
        let mut order: Vec<usize> = (0..p.num_blocks()).collect();
        order.sort_by_key(|&b| positions[b][0]);
        for w in order.windows(2) {
            let (pa, pb) = (m.proc_of(w[0]), m.proc_of(w[1]));
            assert!(
                m.cube().distance(pa, pb) <= 1,
                "chain neighbors {w:?} on procs {pa},{pb}"
            );
        }
    }

    #[test]
    fn degenerate_partitioning_maps_by_block_index() {
        let p = partition(
            IterSpace::rect(&[8, 8]).unwrap(),
            vec![vec![1, 1]],
            TimeFn::new(vec![1, 1]),
            &PartitionConfig::default(),
        )
        .unwrap();
        assert!(p.vectors().omega().is_empty());
        let m = map_partitioning(&p, 1).unwrap();
        assert_eq!(m.cube().len(), 2);
        let per = m.blocks_per_proc();
        assert_eq!(per[0].len() + per[1].len(), p.num_blocks());
    }

    #[test]
    fn cube_too_large_propagates() {
        let p = matvec(4); // 4 blocks
        assert!(matches!(
            map_partitioning(&p, 3),
            Err(Error::CubeTooLarge { .. })
        ));
    }
}
