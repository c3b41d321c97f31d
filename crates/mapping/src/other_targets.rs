//! Mapping partitioned blocks onto non-hypercube machines.
//!
//! The paper's Algorithm 2 targets hypercubes and leaves other machines
//! to "techniques developed for task allocation on multiprocessor
//! systems" (its §V). This module supplies the natural analogues for the
//! other classic message-passing topologies:
//!
//! * **mesh** — bisect into a `cols × rows` chunk grid (X splits for
//!   columns, Y splits for rows, interleaved) and place chunk `(x, y)`
//!   on mesh node `(x, y)`; with a single bisection direction the
//!   clusters snake through the mesh boustrophedon, so consecutive
//!   clusters stay adjacent,
//! * **ring** — order clusters along the first direction and place the
//!   `k`-th cluster on node `k`; chain neighbors are ring neighbors.

use crate::allocate::Mapping;
use crate::bisect::form_clusters_with_schedule;
use crate::Error;
use loom_machine::Topology;
use loom_partition::Partitioning;

/// Map blocks (with bisection-direction coordinates) onto a
/// `rows × cols` mesh, nodes numbered row-major. Both extents must be
/// powers of two.
pub fn map_positions_mesh(
    positions: &[Vec<i64>],
    rows: usize,
    cols: usize,
) -> Result<Mapping, Error> {
    let mesh = Topology::Mesh { rows, cols };
    if !rows.is_power_of_two() || !cols.is_power_of_two() {
        return Err(Error::NotPowerOfTwo(mesh));
    }
    let (row_bits, col_bits) = (rows.trailing_zeros(), cols.trailing_zeros());
    let ndirs = positions.first().map_or(0, Vec::len);
    if ndirs == 0 {
        return Err(Error::BadPositions);
    }
    // Build the split schedule: X (direction 0) gets col_bits splits,
    // Y (direction 1, or 0 again for chain-shaped inputs) gets row_bits,
    // interleaved for balanced chunks.
    let ydir = if ndirs >= 2 { 1 } else { 0 };
    let mut schedule = Vec::with_capacity((row_bits + col_bits) as usize);
    let mut x_left = col_bits;
    let mut y_left = row_bits;
    while x_left > 0 || y_left > 0 {
        if x_left > 0 {
            schedule.push(0);
            x_left -= 1;
        }
        if y_left > 0 {
            schedule.push(ydir);
            y_left -= 1;
        }
    }
    let formation = form_clusters_with_schedule(positions, &schedule)?;
    Ok(Mapping::place(mesh, formation, |f, ci| {
        let coords = &f.coords[ci];
        if ndirs >= 2 {
            // Chunk (x, y) → node (row = y, col = x): mesh-adjacent
            // chunks land on mesh-adjacent nodes by construction.
            coords[1] as usize * cols + coords[0] as usize
        } else {
            // One direction: the `k`-th cluster along the chain snakes
            // through the mesh, so consecutive chain clusters are mesh
            // neighbors.
            let k = coords[0] as usize;
            let r = k / cols;
            let c = if r.is_multiple_of(2) {
                k % cols
            } else {
                cols - 1 - (k % cols)
            };
            r * cols + c
        }
    }))
}

/// Map blocks onto a ring of `len` nodes (`len` a power of two): the
/// `k`-th cluster along direction 0 goes to node `k`.
pub fn map_positions_ring(positions: &[Vec<i64>], len: usize) -> Result<Mapping, Error> {
    let ring = Topology::Ring(len);
    if !len.is_power_of_two() {
        return Err(Error::NotPowerOfTwo(ring));
    }
    let schedule = vec![0usize; len.trailing_zeros() as usize];
    let formation = form_clusters_with_schedule(positions, &schedule)?;
    Ok(Mapping::place(ring, formation, |f, ci| {
        f.coords[ci][0] as usize
    }))
}

/// Block coordinates of a partitioning along its grouping / auxiliary
/// directions, or the block index when there are none: each group
/// base's scaled projection `S = (Π·Π)·v₀^p`
/// ([`ProjectedStructure::scaled`](loom_partition::ProjectedStructure::scaled))
/// dotted with each direction's dependence `d`, which is `Π·Π > 0` times
/// `v₀^p·d^p`. Fails with [`Error::PositionOverflow`] past `i64`.
pub fn partition_positions(p: &Partitioning) -> Result<Vec<Vec<i64>>, Error> {
    let (qp, deps, omega) = (p.projected(), p.structure().deps(), p.vectors().omega());
    let position = |s: &[i64], d: &[i64]| {
        let dot = s.iter().zip(d).try_fold(0i128, |acc, (&a, &b)| {
            acc.checked_add(i128::from(a) * i128::from(b))
        });
        i64::try_from(dot?).ok()
    };
    let groups = &p.grouping().groups;
    (0..groups.len())
        .map(|b| {
            if omega.is_empty() {
                return Ok(vec![b as i64]);
            }
            let s = qp.scaled(&groups[b].base);
            let row = omega.iter().map(|&i| position(s.as_deref()?, &deps[i]));
            row.collect::<Option<_>>().ok_or(Error::PositionOverflow(b))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_positions(rows: usize, cols: usize) -> Vec<Vec<i64>> {
        let mut pos = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                pos.push(vec![c as i64, r as i64]);
            }
        }
        pos
    }

    fn chain_positions(n: usize) -> Vec<Vec<i64>> {
        (0..n).map(|i| vec![i as i64]).collect()
    }

    #[test]
    fn grid_onto_mesh_preserves_adjacency() {
        // 8×8 blocks onto a 4×4 mesh: chunk (x,y) → node (x,y); every
        // grid-neighboring block pair lands on the same or mesh-adjacent
        // nodes.
        let pos = grid_positions(8, 8);
        let m = map_positions_mesh(&pos, 4, 4).unwrap();
        assert_eq!(m.num_procs(), 16);
        let mesh = Topology::Mesh { rows: 4, cols: 4 };
        for r in 0..8usize {
            for c in 0..8usize {
                let b = r * 8 + c;
                if c + 1 < 8 {
                    let d = mesh.distance(m.proc_of(b), m.proc_of(b + 1));
                    assert!(d <= 1, "x-neighbors {}..{} at distance {d}", b, b + 1);
                }
                if r + 1 < 8 {
                    let d = mesh.distance(m.proc_of(b), m.proc_of(b + 8));
                    assert!(d <= 1, "y-neighbors {}..{} at distance {d}", b, b + 8);
                }
            }
        }
    }

    #[test]
    fn chain_onto_mesh_snakes() {
        let pos = chain_positions(32);
        let m = map_positions_mesh(&pos, 4, 4).unwrap();
        let mesh = Topology::Mesh { rows: 4, cols: 4 };
        // Consecutive chain blocks: same or adjacent node.
        for b in 0..31 {
            let d = mesh.distance(m.proc_of(b), m.proc_of(b + 1));
            assert!(d <= 1, "chain {}..{} at distance {d}", b, b + 1);
        }
    }

    #[test]
    fn chain_onto_ring_wraps_contiguously() {
        let pos = chain_positions(16);
        let m = map_positions_ring(&pos, 8).unwrap();
        assert_eq!(m.num_procs(), 8);
        let ring = Topology::Ring(8);
        for b in 0..15 {
            let d = ring.distance(m.proc_of(b), m.proc_of(b + 1));
            assert!(d <= 1, "chain {}..{} at distance {d}", b, b + 1);
        }
        // Balanced: two blocks per node.
        for node in 0..8 {
            assert_eq!(m.assignment().iter().filter(|&&p| p == node).count(), 2);
        }
    }

    #[test]
    fn matvec_partitioning_onto_ring_and_mesh() {
        use loom_hyperplane::TimeFn;
        use loom_partition::{partition, PartitionConfig};
        let w = loom_workloads::matvec::workload(16);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let positions = partition_positions(&p).unwrap();
        let ring = map_positions_ring(&positions, 4).unwrap();
        assert_eq!(ring.assignment().len(), 16);
        let mesh = map_positions_mesh(&positions, 2, 4).unwrap();
        assert_eq!(mesh.num_procs(), 8);
        assert!(mesh.assignment().iter().all(|&x| x < 8));
    }

    #[test]
    fn non_power_of_two_rejected() {
        let pos = chain_positions(16);
        for (result, shape) in [
            (map_positions_mesh(&pos, 3, 2), "Mesh { rows: 3, cols: 2 }"),
            (map_positions_mesh(&pos, 0, 4), "Mesh { rows: 0, cols: 4 }"),
            (map_positions_ring(&pos, 6), "Ring(6)"),
            (map_positions_ring(&pos, 0), "Ring(0)"),
        ] {
            assert_eq!(
                result.unwrap_err().to_string(),
                format!("cannot map onto {shape}: mesh and ring extents must be powers of two")
            );
        }
    }
}
