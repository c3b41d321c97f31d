//! Loop-nest intermediate representation and uniform dependence analysis.
//!
//! This crate is the "parallelizing compiler front end" of the
//! reproduction: it models the class of programs the paper treats — `n`
//! perfectly nested loops whose statements access arrays through affine
//! subscripts, with **constant loop-carried dependencies** — and extracts
//! the dependence-vector set `D` that drives the hyperplane method and the
//! Sheu–Tai partitioner.
//!
//! The pieces:
//!
//! * [`aff::Aff`] — affine expressions over the loop indices (subscripts
//!   and loop bounds),
//! * [`space::IterSpace`] — the index set `Jⁿ` with affine bounds and
//!   lexicographic enumeration,
//! * [`nest::LoopNest`] / [`nest::Stmt`] / [`access::Access`] — the program
//!   representation plus a small builder API,
//! * [`deps`] — uniform dependence extraction (flow, anti, output, and the
//!   input-reuse dependences that the paper introduces by rewriting loops
//!   into single-assignment form, e.g. matmul's `(0,1,0)`/`(1,0,0)`
//!   propagation vectors).

#![deny(missing_docs)]

pub mod access;
pub mod aff;
pub mod deps;
pub mod front;
pub mod lex;
pub mod nest;
pub mod normalize;
pub mod parse;
pub mod sem;
pub mod space;
pub mod uniformize;

pub use access::Access;
pub use aff::Aff;
pub use deps::{
    accesses_by_array, extract_dependences, extract_dependences_relaxed, extract_or_fold,
    vector_set, AccessSite, DepKind, DepOptions, Dependence, NonUniformPair,
};
pub use front::{FrontDiag, FrontLimits, LpCode, ParseOutcome};
pub use nest::{LoopNest, Stmt};
pub use parse::{parse_nest, parse_nest_recovering, parse_nest_with_limits, ParseError};
pub use space::IterSpace;
pub use uniformize::{uniformize, FoldError, PairFold, Uniformization};

/// An iteration-space point (loop index value).
pub type Point = Vec<i64>;

/// Errors raised while constructing or analyzing a loop nest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A bound or subscript references a loop index that does not exist.
    DimMismatch {
        /// What was being constructed.
        what: &'static str,
        /// Expected dimensionality.
        expected: usize,
        /// Found dimensionality.
        found: usize,
    },
    /// A loop bound references the loop's own or an inner index.
    ForwardBound {
        /// Depth of the offending loop (0-based).
        level: usize,
    },
    /// The nest has no statements or zero dimensions.
    Empty,
    /// Dependence analysis found a non-constant (non-uniform) dependence,
    /// which is outside the class the hyperplane method handles.
    NonUniform {
        /// Array whose accesses produce the non-uniform dependence.
        array: String,
    },
    /// Dependence analysis overflowed `i64` while solving the subscript
    /// equations (pathological subscript coefficients).
    Overflow {
        /// Array whose subscripts triggered the overflow.
        array: String,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::DimMismatch {
                what,
                expected,
                found,
            } => write!(f, "{what}: expected dimension {expected}, found {found}"),
            Error::ForwardBound { level } => write!(
                f,
                "bound of loop {level} references its own or an inner index"
            ),
            Error::Empty => write!(f, "loop nest is empty"),
            Error::NonUniform { array } => write!(
                f,
                "accesses to array `{array}` induce a non-uniform dependence"
            ),
            Error::Overflow { array } => write!(
                f,
                "dependence analysis of array `{array}` overflowed 64-bit arithmetic"
            ),
        }
    }
}

impl std::error::Error for Error {}
