//! Exact integer linear algebra.
//!
//! The Sheu–Tai partitioning method projects integer iteration points onto
//! the zero-hyperplane of a time transformation Π. Projected coordinates are
//! rational (e.g. the projected points of the paper's Example 1 include
//! (−3/2, 3/2)), but the partitioner computes on integer line coordinates
//! of the projection lines, so exact answers such as "are these projected
//! dependence vectors linearly independent?" come from integer
//! arithmetic alone. This crate provides a compact, overflow-checked
//! implementation of
//!
//! * [`intlinalg`] — unimodular column reduction, rank, integer system
//!   solving and integer nullspace lattices,
//! * [`int`] — gcd helpers.
//!
//! Everything here is deterministic. The default entry points panic on
//! arithmetic overflow — for pipeline internals that is an invariant
//! violation, not a user error — while the `try_*`/`checked_*` variants
//! return [`NumericError`] instead, for call sites fed directly by
//! user-supplied loop nests (dependence extraction, uniformization, code
//! generation).

#![deny(missing_docs)]

pub mod int;
pub mod intlinalg;

/// A numeric failure from a `try_*`/`checked_*` entry point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NumericError {
    /// An intermediate or final value does not fit in `i64`.
    Overflow {
        /// The operation that overflowed.
        context: &'static str,
    },
}

impl std::fmt::Display for NumericError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NumericError::Overflow { context } => {
                write!(f, "integer overflow during {context}")
            }
        }
    }
}

impl std::error::Error for NumericError {}
