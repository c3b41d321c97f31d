//! Integration tests spanning the whole workspace live in this crate's
//! `tests/` directory. The library holds what they share: the exact
//! rational arithmetic ([`Ratio`], [`QVec`]) that the oracles hold the
//! integer projected structure against, and the walk over legal time
//! functions.

#![deny(missing_docs)]

pub mod ratio;
pub mod vector;

pub use ratio::Ratio;
pub use vector::QVec;

use loom_hyperplane::TimeFn;
use loom_loopir::Point;
use loom_partition::ProjectedStructure;

/// `Π·Π` of a projection, computed here rather than read from it.
fn pi_sq(qp: &ProjectedStructure) -> i64 {
    qp.time_fn().coeffs().iter().map(|c| c * c).sum()
}

/// The rational point `S / (Π·Π)` with line coordinates `key`, from the
/// projection's integer `scaled(key)`.
pub fn point_at(qp: &ProjectedStructure, key: &[i64]) -> QVec {
    let pp = pi_sq(qp);
    let s = qp.scaled(key).expect("a projected point fits in i64");
    QVec::new(s.into_iter().map(|v| Ratio::new(v, pp)).collect())
}

/// The line coordinates of a rational point `q` on the hyperplane: those
/// of the integer point `(Π·Π)·q`, divided by `Π·Π`. `None` when that
/// point is not integral, lies off the hyperplane, or its coordinates do
/// not divide.
pub fn key_of(qp: &ProjectedStructure, q: &QVec) -> Option<Vec<i64>> {
    let pp = pi_sq(qp);
    let s: Vec<i64> = q
        .coords()
        .iter()
        .map(|&c| {
            let v = c * Ratio::int(pp);
            (v.den() == 1).then_some(v.num())
        })
        .collect::<Option<_>>()?;
    let key = qp.key_of(&s)?;
    key.iter().map(|&k| (k % pp == 0).then(|| k / pp)).collect()
}

/// Every integer point of the box `[−bound, bound]^dim`, in a fixed
/// order.
pub fn box_points(dim: usize, bound: i64) -> Vec<Vec<i64>> {
    let width = (2 * bound + 1) as usize;
    (0..width.pow(dim as u32))
        .map(|code| {
            (0..dim)
                .map(|j| (code / width.pow(j as u32) % width) as i64 - bound)
                .collect()
        })
        .collect()
}

/// Every Π with coefficients in `[−bound, bound]` that is legal for
/// `deps`, in [`box_points`] order.
pub fn legal_pis(dim: usize, deps: &[Point], bound: i64) -> Vec<Vec<i64>> {
    box_points(dim, bound)
        .into_iter()
        .filter(|pi| TimeFn::new(pi.clone()).is_legal_for(deps))
        .collect()
}
