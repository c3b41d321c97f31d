//! Exact integer linear algebra, and the rational numbers that display
//! projected points.
//!
//! The Sheu–Tai partitioning method projects integer iteration points onto
//! the zero-hyperplane of a time transformation Π. Projected coordinates are
//! rational (e.g. the projected points of the paper's Example 1 include
//! (−3/2, 3/2)), but the partitioner computes on integer line coordinates
//! of the projection lines, so exact answers such as "are these projected
//! dependence vectors linearly independent?" come from integer
//! arithmetic. This crate provides a compact, overflow-checked
//! implementation of
//!
//! * [`intlinalg`] — unimodular column reduction, rank, integer system
//!   solving and integer nullspace lattices,
//! * [`int`] — gcd helpers,
//! * [`Ratio`] — a normalized fraction of two `i64`s with `i128`-widened
//!   intermediate arithmetic,
//! * [`QVec`] — a rational vector with the projection of Definition 3,
//!   the rational view of projected points for display and tests.
//!
//! Everything here is deterministic. The default entry points panic on
//! arithmetic overflow (beyond ±2⁶³-scale numerators) — for pipeline
//! internals that is an invariant violation, not a user error — while
//! the `try_*`/`checked_*` variants return [`NumericError`] instead,
//! for call sites fed directly by user-supplied loop nests (dependence
//! extraction, code generation).

#![deny(missing_docs)]

pub mod int;
pub mod intlinalg;
pub mod ratio;
pub mod vector;

pub use ratio::Ratio;
pub use vector::QVec;

/// A numeric failure from a `try_*`/`checked_*` entry point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NumericError {
    /// An intermediate or final value does not fit in `i64`.
    Overflow {
        /// The operation that overflowed.
        context: &'static str,
    },
    /// A rational was constructed with denominator zero.
    ZeroDenominator,
}

impl std::fmt::Display for NumericError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NumericError::Overflow { context } => {
                write!(f, "integer overflow during {context}")
            }
            NumericError::ZeroDenominator => write!(f, "zero denominator"),
        }
    }
}

impl std::error::Error for NumericError {}
