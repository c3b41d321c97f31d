//! The paper's workload loop nests, as [`loom_loopir::LoopNest`]
//! generators.
//!
//! §I of the paper motivates the grouping approach with algorithms whose
//! index sets *cannot* be partitioned into independent blocks: matrix
//! multiplication, discrete Fourier transform, convolution, and
//! transitive closure; §II uses the 2-deep loop L1 as the running
//! example and §IV evaluates on matrix–vector multiplication. Every one
//! of those is generated here (plus an SOR stencil), each with its
//! documented dependence set, so examples, tests, and benches all pull
//! workloads from one place.

#![deny(missing_docs)]

pub mod conv;
pub mod conv2d;
pub mod dft;
pub mod heat2d;
pub mod l1;
pub mod matmul;
pub mod matvec;
pub mod sor;
pub mod transitive;
pub mod triangular;

use loom_loopir::{DepOptions, LoopNest, Point};

/// A workload: a nest plus the dependence set the paper associates
/// with it.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The loop nest.
    pub nest: LoopNest,
    /// The dependence vectors the paper's model assigns this nest
    /// (verified against [`loom_loopir::extract_dependences`] in tests).
    pub deps: Vec<Point>,
    /// The canonical wavefront time function used by the paper for this
    /// nest.
    pub pi: Vec<i64>,
}

impl Workload {
    /// Extract the dependence set from the nest and confirm it matches
    /// the documented one. Panics on mismatch (programming error in the
    /// generator).
    pub fn verified_deps(&self) -> Vec<Point> {
        let extracted = loom_loopir::deps::dependence_vectors(&self.nest, DepOptions::default())
            .expect("workload nests are uniform by construction");
        assert_eq!(
            extracted,
            self.deps,
            "workload `{}`: documented deps diverge from extraction",
            self.nest.name()
        );
        extracted
    }

    /// `true` iff the documented time function Π is legal for the
    /// documented dependence set.
    pub fn pi_is_legal(&self) -> bool {
        loom_hyperplane::TimeFn::new(self.pi.clone()).is_legal_for(&self.deps)
    }

    /// The documented time function as a [`loom_hyperplane::TimeFn`].
    pub fn time_fn(&self) -> loom_hyperplane::TimeFn {
        loom_hyperplane::TimeFn::new(self.pi.clone())
    }
}

/// A size-parameterized workload family: the generator behind a
/// builtin workload name, with every secondary shape parameter pinned
/// so only the primary iteration-space size scales. This is the
/// iteration-space *size parameter* the symbolic cost engine
/// (`loom_core::symbolic_cost`) derives closed forms over: `family(n)`
/// must produce the same dependence set for every `n`, which pinning
/// the secondary parameter guarantees for all builtins.
pub type Family = std::sync::Arc<dyn Fn(i64) -> Workload + Send + Sync>;

/// The size family of a builtin workload, or `None` for unknown names.
///
/// `size2` pins the secondary parameter where the generator takes one
/// (`conv`/`conv2d` taps, `sor` columns, `heat2d` grid size); `None`
/// uses the paper-scale default. Single-parameter generators ignore it.
pub fn family_of(name: &str, size2: Option<i64>) -> Option<Family> {
    use std::sync::Arc;
    let f: Family = match name {
        "l1" => Arc::new(l1::workload),
        "matmul" => Arc::new(matmul::workload),
        "matvec" => Arc::new(matvec::workload),
        "transitive" => Arc::new(transitive::workload),
        "dft" => Arc::new(dft::workload),
        "triangular" => Arc::new(triangular::workload),
        "conv" => {
            let taps = size2.unwrap_or(4).max(1);
            Arc::new(move |n| conv::workload(n, taps))
        }
        "conv2d" => {
            let taps = size2.unwrap_or(2).max(1);
            Arc::new(move |n| conv2d::workload(n, taps))
        }
        "sor" => {
            let cols = size2.unwrap_or(6).max(1);
            Arc::new(move |n| sor::workload(n, cols))
        }
        "heat2d" => {
            let size = size2.unwrap_or(4).max(2);
            Arc::new(move |n| heat2d::workload(n, size))
        }
        _ => return None,
    };
    Some(f)
}

/// Every workload generator at its paper-scale default, for sweep-style
/// tests and benches.
pub fn all_default() -> Vec<Workload> {
    vec![
        l1::workload(4),
        matmul::workload(4),
        matvec::workload(8),
        conv::workload(8, 4),
        sor::workload(6, 6),
        transitive::workload(4),
        dft::workload(8),
        conv2d::workload(4, 2),
        triangular::workload(6),
        heat2d::workload(3, 4),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Row-wise counting and the row-wise bounding box agree with full
    /// enumeration on every builtin family across sizes, including the
    /// tiny sizes where triangular bounds leave inner loops empty.
    #[test]
    fn family_spaces_count_and_box_as_enumerated() {
        for name in [
            "l1",
            "matmul",
            "matvec",
            "transitive",
            "dft",
            "triangular",
            "conv",
            "conv2d",
            "sor",
            "heat2d",
        ] {
            let family = family_of(name, None).expect("builtin family");
            for n in [1, 2, 3, 5, 8, 13] {
                let space = family(n).nest.space().clone();
                let points: Vec<Point> = space.points().collect();
                let count = points.len() as u64;
                assert_eq!(space.count() as u64, count, "{name}({n})");
                assert_eq!(space.count_at_most(count), Some(count), "{name}({n})");
                if count > 0 {
                    assert_eq!(space.count_at_most(count - 1), None, "{name}({n})");
                }
                let mut bb = vec![(i64::MAX, i64::MIN); space.dim()];
                for p in &points {
                    for (b, &x) in bb.iter_mut().zip(p) {
                        *b = (b.0.min(x), b.1.max(x));
                    }
                }
                if points.is_empty() {
                    bb = vec![(0, -1); space.dim()];
                }
                assert_eq!(space.bounding_box(), bb, "{name}({n})");
            }
        }
    }
}
