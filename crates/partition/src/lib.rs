//! The Sheu–Tai partitioning method (Algorithm 1 of the paper).
//!
//! Given a nested loop's computational structure `Q = (V, D)` and a legal
//! time transformation Π, the partitioner:
//!
//! 1. **Projection phase** — projects every iteration point and every
//!    dependence vector onto the zero-hyperplane `Π·x = 0`, producing the
//!    projected structure `Q^p = (V^p, D^p)` ([`project`]).
//! 2. **Grouping phase** — picks the *grouping vector* (the projected
//!    dependence needing the largest integer multiplier `r` to become
//!    integral) and `β − 1` linearly independent *auxiliary grouping
//!    vectors* ([`grouping`]), then tiles `V^p` into groups of `r`
//!    projected points by region growing ([`grow`]).
//! 3. **Block materialization** — each group's projection lines pull back
//!    to a *block* of iterations that execute at pairwise-distinct steps,
//!    so a block can live on one processor without stretching the
//!    schedule ([`blocks`]).
//!
//! [`comm`] counts total vs. interblock dependences (the paper's "33
//! dependences, 12 interprocessor" for loop L1) and walks the group
//! dependences per direction, and [`tig`] builds the Task Interaction
//! Graph consumed by the mapping phase. The paper's Lemmas 1–3 and
//! Theorems 1–2 are checked on a partitioning by `loom-check`
//! (`check_laws`: rules `LC002` and `LC003`).
//!
//! ```
//! use loom_hyperplane::TimeFn;
//! use loom_loopir::IterSpace;
//! use loom_partition::{partition, PartitionConfig, comm::comm_stats};
//!
//! // The paper's loop L1: 4×4 space, D = {(0,1), (1,0), (1,1)}, Π = (1,1).
//! let p = partition(
//!     IterSpace::rect(&[4, 4]).unwrap(),
//!     vec![vec![0, 1], vec![1, 0], vec![1, 1]],
//!     TimeFn::new(vec![1, 1]),
//!     &PartitionConfig::default(),
//! ).unwrap();
//! assert_eq!(p.num_blocks(), 4);
//! let stats = comm_stats(&p);
//! assert_eq!((stats.total_arcs, stats.interblock_arcs), (33, 12));
//! ```

#![deny(missing_docs)]

pub mod blocks;
pub mod comm;
pub mod grouping;
pub mod grow;
mod index;
pub mod project;
pub mod tig;

pub use blocks::{partition, partition_projected, PartitionConfig, Partitioning};
pub use comm::CommStats;
pub use grouping::GroupingVectors;
pub use grow::Grouping;
pub use project::{
    ArcRows, ComputationalStructure, PointTable, ProjectedStructure, Steps, MAX_POINTS,
};
pub use tig::Tig;

/// Errors raised by the partitioning pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The supplied time transformation is not legal for the dependences.
    IllegalTimeFn(loom_hyperplane::Error),
    /// The iteration space contains no points.
    EmptySpace,
    /// The iteration space has more points than 32-bit point ids can
    /// number ([`MAX_POINTS`]); it is counted, never enumerated.
    TooManyPoints {
        /// Its point count.
        points: u64,
    },
    /// A requested grouping-vector override does not achieve the maximal
    /// multiplier `r` (Algorithm 1 requires the grouping vector to have
    /// `r_l = r`).
    InvalidGroupingChoice {
        /// The requested dependence index.
        requested: usize,
        /// Its multiplier.
        r_requested: i64,
        /// The maximal multiplier.
        r_max: i64,
    },
    /// A requested grouping-vector override is parallel to Π: its
    /// projection is zero and spans no group.
    ZeroGroupingChoice {
        /// The requested dependence index.
        requested: usize,
    },
    /// A dependence index is out of range.
    BadDependenceIndex {
        /// The offending index.
        index: usize,
        /// Number of dependences.
        len: usize,
    },
    /// Grouping-vector selection found fewer independent vectors than
    /// `β = rank(mat(D^p))` — impossible for a correct rank, so this
    /// flags an internal inconsistency (formerly a debug-only assert).
    GroupingRankDeficit {
        /// Size of the independent set actually found.
        found: usize,
        /// The rank the set was required to reach.
        beta: usize,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::IllegalTimeFn(e) => write!(f, "illegal time function: {e}"),
            Error::EmptySpace => write!(f, "iteration space is empty"),
            Error::TooManyPoints { points } => write!(
                f,
                "iteration space has {points} points; point ids are 32-bit, so at most \
                 {MAX_POINTS} are supported"
            ),
            Error::InvalidGroupingChoice {
                requested,
                r_requested,
                r_max,
            } => write!(
                f,
                "dependence {requested} has multiplier {r_requested}, but the grouping \
                 vector must achieve the maximum {r_max}"
            ),
            Error::ZeroGroupingChoice { requested } => write!(
                f,
                "dependence {requested} is parallel to \u{3a0}: its projection is zero, \
                 so it cannot be the grouping vector"
            ),
            Error::BadDependenceIndex { index, len } => {
                write!(f, "dependence index {index} out of range (have {len})")
            }
            Error::GroupingRankDeficit { found, beta } => write!(
                f,
                "grouping-vector selection found only {found} independent vector(s) \
                 where rank \u{3b2} = {beta} requires {beta}"
            ),
        }
    }
}

impl std::error::Error for Error {}

impl From<loom_hyperplane::Error> for Error {
    fn from(e: loom_hyperplane::Error) -> Error {
        Error::IllegalTimeFn(e)
    }
}
