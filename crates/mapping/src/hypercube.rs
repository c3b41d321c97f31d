//! The binary n-cube interconnection topology.

/// An `n`-dimensional hypercube: `2ⁿ` processors, node `p` adjacent to
/// `p ^ (1 << k)` for each dimension `k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hypercube {
    dim: usize,
}

impl Hypercube {
    /// Build an `n`-cube. Panics above 30 dimensions (a billion nodes is
    /// outside this project's universe).
    pub fn new(dim: usize) -> Hypercube {
        assert!(dim <= 30, "hypercube dimension {dim} is unreasonable");
        Hypercube { dim }
    }

    /// Dimension `n`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of processors `N = 2ⁿ`.
    pub fn len(&self) -> usize {
        1 << self.dim
    }

    /// `true` iff the cube has one node (dimension 0 still has one).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The `n` neighbors of a node.
    pub fn neighbors(&self, p: usize) -> Vec<usize> {
        assert!(p < self.len());
        (0..self.dim).map(|k| p ^ (1 << k)).collect()
    }

    /// Hamming distance — the routing distance between two nodes.
    pub fn distance(&self, a: usize, b: usize) -> usize {
        assert!(a < self.len() && b < self.len());
        (a ^ b).count_ones() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_structure() {
        let h = Hypercube::new(3);
        assert_eq!(h.len(), 8);
        assert_eq!(h.dim(), 3);
        let mut n = h.neighbors(0b101);
        n.sort();
        assert_eq!(n, vec![0b001, 0b100, 0b111]);
    }

    #[test]
    fn distances() {
        let h = Hypercube::new(4);
        assert_eq!(h.distance(0b0000, 0b1111), 4);
        assert_eq!(h.distance(0b1010, 0b1010), 0);
        assert_eq!(h.distance(0b0001, 0b0010), 2);
    }

    #[test]
    fn zero_cube() {
        let h = Hypercube::new(0);
        assert_eq!(h.len(), 1);
        assert!(h.neighbors(0).is_empty());
    }
}
