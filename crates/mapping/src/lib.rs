//! Mapping partitioned blocks onto hypercube multiprocessors
//! (Algorithm 2 of the paper), plus baseline mappings and quality
//! metrics.
//!
//! * [`gray`] — reflected binary Gray codes,
//! * [`hypercube`] — the binary n-cube topology,
//! * [`bisect`] — Phase I cluster formation: recursive bisection of the
//!   blocks along the grouping / auxiliary grouping directions,
//! * [`allocate`] — Phase II cluster allocation: concatenated
//!   per-direction Gray codes give each cluster the address of its
//!   processor,
//! * [`baseline`] — naive (block-contiguous) and seeded-random mappings
//!   for comparison,
//! * [`metrics`] — remote traffic, dilation, and link-congestion metrics
//!   for any mapping of a TIG onto a hypercube.
//!
//! ```
//! use loom_mapping::{map_positions, metrics, Hypercube};
//! use loom_partition::Tig;
//! use loom_rational::Ratio;
//!
//! // The paper's Fig. 8: a 4×4 mesh of blocks onto a 3-cube.
//! let positions: Vec<Vec<Ratio>> = (0..16)
//!     .map(|v| vec![Ratio::int(v % 4), Ratio::int(v / 4)])
//!     .collect();
//! let m = map_positions(&positions, 3).unwrap();
//! let q = metrics::evaluate(&Tig::mesh(4, 4), m.assignment(), Hypercube::new(3));
//! assert!((q.mean_dilation() - 1.0).abs() < 1e-9); // nearest-neighbor
//! ```

#![deny(missing_docs)]

pub mod allocate;
pub mod baseline;
pub mod bisect;
pub mod gray;
pub mod hypercube;
pub mod metrics;
pub mod other_targets;

pub use allocate::{map_partitioning, map_positions, Mapping};
pub use bisect::{form_clusters, form_clusters_with_schedule, ClusterFormation};
pub use hypercube::Hypercube;
pub use metrics::MappingQuality;
pub use other_targets::TargetMapping;

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
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::CubeTooLarge { blocks, cube_dim } => write!(
                f,
                "cannot split {blocks} blocks into 2^{cube_dim} non-empty clusters"
            ),
            Error::BadPositions => write!(f, "ragged or empty block-position table"),
        }
    }
}

impl std::error::Error for Error {}
