//! Array accesses with affine subscripts.

use crate::aff::Aff;
use std::fmt;

/// One array access `array[e₁, …, e_k]` where each subscript `e` is an
/// affine expression over the loop indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Access {
    array: String,
    subscripts: Vec<Aff>,
}

impl Access {
    /// Build an access. All subscripts must share the nest arity.
    pub fn new(array: impl Into<String>, subscripts: Vec<Aff>) -> Access {
        let array = array.into();
        if let Some(first) = subscripts.first() {
            assert!(
                subscripts.iter().all(|s| s.dim() == first.dim()),
                "subscripts of `{array}` disagree on nest arity"
            );
        }
        Access { array, subscripts }
    }

    /// Convenience: `array[I_{k₁}+c₁, …]` — each subscript a single index
    /// variable plus an offset, the form all the paper's loops use.
    pub fn simple(array: impl Into<String>, n: usize, idx_offsets: &[(usize, i64)]) -> Access {
        Access::new(
            array,
            idx_offsets
                .iter()
                .map(|&(k, c)| Aff::var(n, k) + c)
                .collect(),
        )
    }

    /// The array name.
    pub fn array(&self) -> &str {
        &self.array
    }

    /// The subscript expressions.
    pub fn subscripts(&self) -> &[Aff] {
        &self.subscripts
    }

    /// Array rank (number of subscripts).
    pub fn rank(&self) -> usize {
        self.subscripts.len()
    }

    /// Nest arity the subscripts range over (0 for a scalar access).
    pub fn nest_arity(&self) -> usize {
        self.subscripts.first().map_or(0, |s| s.dim())
    }

    /// Evaluate the subscripts at an iteration point: the address of the
    /// element touched at that iteration.
    pub fn element_at(&self, point: &[i64]) -> Vec<i64> {
        self.subscripts.iter().map(|s| s.eval(point)).collect()
    }

    /// [`Access::element_at`], written over `element`: no allocation
    /// once `element` has room.
    pub fn element_into(&self, point: &[i64], element: &mut Vec<i64>) {
        element.clear();
        element.extend(self.subscripts.iter().map(|s| s.eval(point)));
    }

    /// `true` iff the two accesses have identical linear subscript parts
    /// (the uniform-dependence precondition).
    pub fn same_linear_part(&self, other: &Access) -> bool {
        self.rank() == other.rank()
            && self
                .subscripts
                .iter()
                .zip(&other.subscripts)
                .all(|(a, b)| a.same_linear_part(b))
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[", self.array)?;
        for (i, s) in self.subscripts.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_access() {
        // A[i+1, j] in a 2-deep nest.
        let a = Access::simple("A", 2, &[(0, 1), (1, 0)]);
        assert_eq!(a.array(), "A");
        assert_eq!(a.rank(), 2);
        assert_eq!(a.nest_arity(), 2);
        assert_eq!(a.element_at(&[3, 5]), vec![4, 5]);
        assert_eq!(a.to_string(), "A[i+1,j]");
    }

    #[test]
    fn linear_part_comparison() {
        let w = Access::simple("A", 2, &[(0, 1), (1, 1)]); // A[i+1,j+1]
        let r = Access::simple("A", 2, &[(0, 1), (1, 0)]); // A[i+1,j]
        assert!(w.same_linear_part(&r));
        let other = Access::simple("A", 2, &[(1, 0), (0, 0)]); // A[j,i]
        assert!(!w.same_linear_part(&other));
        let scalar = Access::new("A", vec![Aff::var(2, 0)]);
        assert!(!w.same_linear_part(&scalar)); // different rank
    }

    #[test]
    fn lower_rank_access() {
        // A[i,k] inside a 3-deep (i,j,k) nest — rank 2, arity 3.
        let a = Access::simple("A", 3, &[(0, 0), (2, 0)]);
        assert_eq!(a.rank(), 2);
        assert_eq!(a.nest_arity(), 3);
        assert_eq!(a.element_at(&[1, 9, 2]), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "disagree on nest arity")]
    fn mismatched_subscript_arity() {
        Access::new("A", vec![Aff::var(2, 0), Aff::var(3, 1)]);
    }
}
