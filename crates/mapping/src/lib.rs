//! Mapping partitioned blocks onto hypercube multiprocessors
//! (Algorithm 2 of the paper) and onto meshes and rings, plus baseline
//! mappings and quality metrics. Every mapping is one [`Mapping`]: a
//! block → processor table on a [`loom_machine::Topology`].
//!
//! * [`gray`] — reflected binary Gray codes,
//! * [`bisect`] — Phase I cluster formation: recursive bisection of the
//!   blocks along the grouping / auxiliary grouping directions,
//! * [`allocate`] — Phase II cluster allocation: concatenated
//!   per-direction Gray codes give each cluster the address of its
//!   processor,
//! * [`other_targets`] — the mesh and ring allocators,
//! * [`baseline`] — naive (block-contiguous) and seeded-random mappings
//!   for comparison,
//! * [`metrics`] — remote traffic, dilation, and link-congestion metrics
//!   for any mapping of a TIG onto any topology.
//!
//! ```
//! use loom_machine::Topology;
//! use loom_mapping::{map_positions, metrics};
//! use loom_partition::Tig;
//!
//! // The paper's Fig. 8: a 4×4 mesh of blocks onto a 3-cube; block `v`
//! // sits at integer position (v mod 4, v div 4).
//! let positions: Vec<Vec<i64>> = (0..16).map(|v| vec![v % 4, v / 4]).collect();
//! let m = map_positions(&positions, 3).unwrap();
//! let q = metrics::evaluate(&Tig::mesh(4, 4), m.assignment(), &Topology::Hypercube(3));
//! assert!((q.mean_dilation() - 1.0).abs() < 1e-9); // nearest-neighbor
//! ```

#![deny(missing_docs)]

use loom_machine::Topology;

pub mod allocate;
pub mod baseline;
pub mod bisect;
pub mod gray;
pub mod metrics;
pub mod other_targets;

pub use allocate::{map_partitioning, map_positions, Mapping};
pub use bisect::{form_clusters, form_clusters_with_schedule, ClusterFormation};
pub use metrics::MappingQuality;

/// Errors raised by the mapping phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// More clusters than blocks: the cube is too large for the TIG.
    CubeTooLarge {
        /// Number of blocks available.
        blocks: usize,
        /// Requested cube dimension.
        cube_dim: usize,
    },
    /// Position table is ragged or empty.
    BadPositions,
    /// The position of block `.0` along a bisection direction overflows
    /// `i64`.
    PositionOverflow(usize),
    /// A mesh or ring whose extents are not all powers of two: the
    /// allocators bisect, so every extent must be `2^k` with `k ≥ 0`.
    NotPowerOfTwo(Topology),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::CubeTooLarge { blocks, cube_dim } => write!(
                f,
                "cannot split {blocks} blocks into 2^{cube_dim} non-empty clusters"
            ),
            Error::BadPositions => write!(f, "ragged or empty block-position table"),
            Error::PositionOverflow(b) => write!(f, "block {b}'s position overflows 64 bits"),
            Error::NotPowerOfTwo(topology) => write!(
                f,
                "cannot map onto {topology:?}: mesh and ring extents must be powers of two"
            ),
        }
    }
}

impl std::error::Error for Error {}
