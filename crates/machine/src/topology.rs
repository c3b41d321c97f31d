//! Interconnection topologies for the simulated machine.

/// The machine's interconnect. Routing distance feeds the
/// store-and-forward message-cost model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Binary n-cube with `2ⁿ` nodes.
    Hypercube(usize),
    /// 2-D mesh, nodes numbered row-major.
    Mesh {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// Bidirectional ring of `n` nodes.
    Ring(usize),
}

impl Topology {
    /// Number of processors.
    ///
    /// Panics if it overflows `usize` (see [`checked_len`](Self::checked_len)).
    pub fn len(&self) -> usize {
        self.checked_len()
            .unwrap_or_else(|| panic!("{self:?} has more processors than usize counts"))
    }

    /// Number of processors, or `None` when it overflows `usize` (a cube
    /// of 64 or more dimensions, a mesh whose extents multiply past the
    /// word).
    pub fn checked_len(&self) -> Option<usize> {
        match *self {
            Topology::Hypercube(d) => u32::try_from(d).ok().and_then(|d| 1usize.checked_shl(d)),
            Topology::Mesh { rows, cols } => rows.checked_mul(cols),
            Topology::Ring(n) => Some(n),
        }
    }

    /// `true` iff the machine has no processors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Routing distance in hops between two processors.
    ///
    /// Panics if either node is out of range.
    pub fn distance(&self, a: usize, b: usize) -> usize {
        let n = self.len();
        assert!(a < n && b < n, "node out of range");
        match *self {
            Topology::Hypercube(_) => (a ^ b).count_ones() as usize,
            Topology::Mesh { cols, .. } => {
                let (ar, ac) = (a / cols, a % cols);
                let (br, bc) = (b / cols, b % cols);
                ar.abs_diff(br) + ac.abs_diff(bc)
            }
            Topology::Ring(len) => {
                let d = a.abs_diff(b);
                d.min(len - d)
            }
        }
    }

    /// Visit the hops of [`Topology::route_links`] in order, as
    /// `(from, to)`.
    fn for_each_hop(&self, a: usize, b: usize, mut hop: impl FnMut(usize, usize)) {
        let n = self.len();
        assert!(a < n && b < n, "node out of range");
        match *self {
            Topology::Hypercube(d) => {
                let mut cur = a;
                for k in 0..d {
                    let bit = 1 << k;
                    if (cur ^ b) & bit != 0 {
                        hop(cur, cur ^ bit);
                        cur ^= bit;
                    }
                }
            }
            Topology::Mesh { cols, .. } => {
                let (mut r, mut c) = (a / cols, a % cols);
                let (br, bc) = (b / cols, b % cols);
                while c != bc {
                    let next = if c < bc { c + 1 } else { c - 1 };
                    hop(r * cols + c, r * cols + next);
                    c = next;
                }
                while r != br {
                    let next = if r < br { r + 1 } else { r - 1 };
                    hop(r * cols + c, next * cols + c);
                    r = next;
                }
            }
            Topology::Ring(len) => {
                let fwd = (b + len - a) % len;
                let step = if fwd <= len - fwd { 1 } else { len - 1 };
                let mut cur = a;
                while cur != b {
                    hop(cur, (cur + step) % len);
                    cur = (cur + step) % len;
                }
            }
        }
    }

    /// The most links leaving one node: a hypercube's dimension, 4 for a
    /// mesh, 2 for a ring.
    fn max_degree(&self) -> usize {
        match *self {
            Topology::Hypercube(d) => d,
            Topology::Mesh { .. } => 4,
            Topology::Ring(_) => 2,
        }
    }

    /// The number of dense link ids: every directed link `(a, b)` between
    /// neighbors has a [`link_id`](Self::link_id) below it.
    pub fn num_link_ids(&self) -> usize {
        self.len() * self.max_degree()
    }

    /// A dense id of the directed link from `a` to its neighbor `b`:
    /// `a` times the most links leaving one node, plus the port
    /// `b` sits on (the flipped bit of a hypercube; west, east, north or
    /// south on a mesh; backward or forward on a ring). Distinct links
    /// get distinct ids below [`num_link_ids`](Self::num_link_ids).
    ///
    /// Panics (in debug builds) unless `b` is a neighbor of `a`.
    pub fn link_id(&self, a: usize, b: usize) -> usize {
        debug_assert!(self.neighbors(a).contains(&b), "({a}, {b}) is not a link");
        let port = match *self {
            Topology::Hypercube(_) => (a ^ b).trailing_zeros() as usize,
            Topology::Mesh { cols, .. } => {
                if b + 1 == a {
                    0
                } else if b == a + 1 {
                    1
                } else if b + cols == a {
                    2
                } else {
                    3
                }
            }
            Topology::Ring(len) => usize::from(b == (a + 1) % len),
        };
        a * self.max_degree() + port
    }

    /// The directed `(from, to)` node pair of dense link id `id`: the
    /// inverse of [`link_id`](Self::link_id).
    pub fn link_ends(&self, id: usize) -> (usize, usize) {
        let (a, port) = (id / self.max_degree(), id % self.max_degree());
        let b = match *self {
            Topology::Hypercube(_) => a ^ (1 << port),
            Topology::Mesh { cols, .. } => match port {
                0 => a - 1,
                1 => a + 1,
                2 => a - cols,
                _ => a + cols,
            },
            Topology::Ring(len) if port == 1 => (a + 1) % len,
            Topology::Ring(len) => (a + len - 1) % len,
        };
        (a, b)
    }

    /// The directed links of the deterministic shortest route from `a`
    /// to `b`, in order: e-cube (lowest differing dimension first) on
    /// hypercubes, X then Y on meshes, and the shorter arc (ties toward
    /// increasing node numbers) on rings. Empty when `a == b`.
    pub fn route_links(&self, a: usize, b: usize) -> Vec<(usize, usize)> {
        let mut links = Vec::new();
        self.for_each_hop(a, b, |from, to| links.push((from, to)));
        links
    }

    /// The [`link_id`](Self::link_id)s of [`Topology::route_links`],
    /// written over `ids`: a route that allocates nothing once `ids`
    /// has room.
    pub fn route_link_ids_into(&self, a: usize, b: usize, ids: &mut Vec<usize>) {
        ids.clear();
        self.for_each_hop(a, b, |from, to| ids.push(self.link_id(from, to)));
    }

    /// The shortest route from `a` to `b` that avoids every directed
    /// link for which `down` returns `true`, as the directed links of
    /// the path. Breadth-first over the live interconnect, expanding
    /// neighbors in [`Topology::neighbors`] order so the result is
    /// deterministic. Returns `None` when the live links no longer
    /// connect `a` to `b` (the fault layer turns that into
    /// [`SimError::Unroutable`](crate::sim::SimError::Unroutable)), and
    /// `Some(vec![])` when `a == b`.
    pub fn route_links_avoiding<F>(
        &self,
        a: usize,
        b: usize,
        down: F,
    ) -> Option<Vec<(usize, usize)>>
    where
        F: Fn(usize, usize) -> bool,
    {
        let n = self.len();
        assert!(a < n && b < n, "node out of range");
        if a == b {
            return Some(Vec::new());
        }
        // BFS from `a`; parent pointers reconstruct the path.
        let mut parent: Vec<Option<usize>> = vec![None; n];
        let mut seen = vec![false; n];
        seen[a] = true;
        let mut frontier = std::collections::VecDeque::from([a]);
        while let Some(cur) = frontier.pop_front() {
            for next in self.neighbors(cur) {
                if seen[next] || down(cur, next) {
                    continue;
                }
                seen[next] = true;
                parent[next] = Some(cur);
                if next == b {
                    let mut path = vec![b];
                    let mut node = b;
                    while let Some(p) = parent[node] {
                        path.push(p);
                        node = p;
                    }
                    path.reverse();
                    return Some(path.windows(2).map(|w| (w[0], w[1])).collect());
                }
                frontier.push_back(next);
            }
        }
        None
    }

    /// Neighbors of a node (the nodes one hop away).
    pub fn neighbors(&self, p: usize) -> Vec<usize> {
        let n = self.len();
        assert!(p < n, "node out of range");
        match *self {
            Topology::Hypercube(d) => (0..d).map(|k| p ^ (1 << k)).collect(),
            Topology::Mesh { rows, cols } => {
                let (r, c) = (p / cols, p % cols);
                let mut out = Vec::new();
                if c > 0 {
                    out.push(p - 1);
                }
                if c + 1 < cols {
                    out.push(p + 1);
                }
                if r > 0 {
                    out.push(p - cols);
                }
                if r + 1 < rows {
                    out.push(p + cols);
                }
                out
            }
            Topology::Ring(len) => {
                if len <= 1 {
                    Vec::new()
                } else if len == 2 {
                    vec![1 - p]
                } else {
                    vec![(p + len - 1) % len, (p + 1) % len]
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_ids_are_dense_and_distinct() {
        for t in [
            Topology::Hypercube(0),
            Topology::Hypercube(3),
            Topology::Mesh { rows: 3, cols: 4 },
            Topology::Mesh { rows: 1, cols: 2 },
            Topology::Ring(1),
            Topology::Ring(2),
            Topology::Ring(5),
        ] {
            let mut seen = vec![false; t.num_link_ids()];
            for a in 0..t.len() {
                for b in t.neighbors(a) {
                    let id = t.link_id(a, b);
                    assert!(!seen[id], "{t:?}: ({a}, {b}) shares id {id}");
                    seen[id] = true;
                }
            }
        }
    }

    #[test]
    fn link_ids_route_and_invert() {
        let mut ids = vec![7];
        for t in [
            Topology::Hypercube(0),
            Topology::Hypercube(3),
            Topology::Mesh { rows: 3, cols: 4 },
            Topology::Mesh { rows: 1, cols: 2 },
            Topology::Ring(1),
            Topology::Ring(2),
            Topology::Ring(5),
        ] {
            for a in 0..t.len() {
                for b in t.neighbors(a) {
                    assert_eq!(t.link_ends(t.link_id(a, b)), (a, b), "{t:?}");
                }
                for b in 0..t.len() {
                    t.route_link_ids_into(a, b, &mut ids);
                    let links: Vec<_> = ids.iter().map(|&id| t.link_ends(id)).collect();
                    assert_eq!(links, t.route_links(a, b), "{t:?}: {a} -> {b}");
                }
            }
        }
    }

    #[test]
    fn lengths_past_the_word_are_none() {
        assert_eq!(Topology::Hypercube(63).checked_len(), Some(1 << 63));
        assert_eq!(Topology::Hypercube(64).checked_len(), None);
        assert_eq!(Topology::Hypercube(usize::MAX).checked_len(), None);
        let mesh = |rows, cols| Topology::Mesh { rows, cols };
        assert_eq!(mesh(1 << 31, 1 << 32).checked_len(), Some(1 << 63));
        assert_eq!(mesh(1 << 32, 1 << 32).checked_len(), None);
        assert_eq!(Topology::Ring(usize::MAX).checked_len(), Some(usize::MAX));
    }

    #[test]
    #[should_panic(expected = "Hypercube(64) has more processors than usize counts")]
    fn len_past_the_word_panics() {
        Topology::Hypercube(64).len();
    }

    #[test]
    fn hypercube_distances() {
        let t = Topology::Hypercube(3);
        assert_eq!(t.len(), 8);
        assert_eq!(t.distance(0b000, 0b111), 3);
        assert_eq!(t.distance(0b101, 0b101), 0);
    }

    #[test]
    fn hypercube_distances_4cube() {
        let t = Topology::Hypercube(4);
        assert_eq!(t.distance(0b0000, 0b1111), 4);
        assert_eq!(t.distance(0b1010, 0b1010), 0);
        assert_eq!(t.distance(0b0001, 0b0010), 2);
    }

    #[test]
    fn hypercube_neighbors() {
        let t = Topology::Hypercube(3);
        assert_eq!(t.len(), 8);
        let mut n = t.neighbors(0b101);
        n.sort();
        assert_eq!(n, vec![0b001, 0b100, 0b111]);
    }

    #[test]
    fn zero_cube() {
        let t = Topology::Hypercube(0);
        assert_eq!(t.len(), 1);
        assert!(t.neighbors(0).is_empty());
    }

    #[test]
    fn mesh_distances() {
        let t = Topology::Mesh { rows: 3, cols: 4 };
        assert_eq!(t.len(), 12);
        assert_eq!(t.distance(0, 11), 2 + 3);
        assert_eq!(t.distance(5, 6), 1);
    }

    #[test]
    fn ring_wraps() {
        let t = Topology::Ring(8);
        assert_eq!(t.distance(0, 7), 1);
        assert_eq!(t.distance(0, 4), 4);
        assert_eq!(t.distance(2, 6), 4);
    }

    #[test]
    fn ecube_route_is_shortest_and_dimension_ordered() {
        // The link-contention model charges exactly these links.
        let t = Topology::Hypercube(4);
        let links = t.route_links(0b0000, 0b1011);
        assert_eq!(
            links,
            vec![(0b0000, 0b0001), (0b0001, 0b0011), (0b0011, 0b1011)]
        );
        assert_eq!(links.len(), t.distance(0b0000, 0b1011));
    }

    #[test]
    fn route_to_self_is_trivial() {
        let t = Topology::Hypercube(3);
        assert!(t.route_links(5, 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        Topology::Ring(4).distance(0, 4);
    }

    #[test]
    fn routes_are_shortest_and_step_by_neighbors() {
        let topos = [
            Topology::Hypercube(3),
            Topology::Mesh { rows: 3, cols: 4 },
            Topology::Ring(7),
        ];
        for t in topos {
            for a in 0..t.len() {
                for b in 0..t.len() {
                    let links = t.route_links(a, b);
                    assert_eq!(links.len(), t.distance(a, b), "{t:?} {a}->{b}");
                    // The links chain from `a` to `b`, each between
                    // neighbors.
                    let mut at = a;
                    for &(from, to) in &links {
                        assert_eq!(from, at, "{t:?} {a}->{b}: {links:?}");
                        assert!(
                            t.neighbors(from).contains(&to),
                            "{t:?}: {from} not adjacent to {to}"
                        );
                        at = to;
                    }
                    assert_eq!(at, b, "{t:?} {a}->{b}: {links:?}");
                }
            }
        }
    }

    #[test]
    fn ring_route_picks_short_arc() {
        let t = Topology::Ring(8);
        assert_eq!(t.route_links(0, 6), vec![(0, 7), (7, 6)]);
        assert_eq!(t.route_links(6, 0), vec![(6, 7), (7, 0)]);
        // A tie (half-way round) goes toward increasing node numbers.
        assert_eq!(t.route_links(0, 4), vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(t.route_links(4, 0), vec![(4, 5), (5, 6), (6, 7), (7, 0)]);
    }

    #[test]
    fn mesh_route_is_x_then_y() {
        let t = Topology::Mesh { rows: 3, cols: 3 };
        // 0=(0,0) → 8=(2,2): X first then Y.
        assert_eq!(t.route_links(0, 8), vec![(0, 1), (1, 2), (2, 5), (5, 8)]);
    }

    #[test]
    fn route_avoiding_matches_distance_when_all_links_live() {
        let topos = [
            Topology::Hypercube(3),
            Topology::Mesh { rows: 3, cols: 4 },
            Topology::Ring(7),
        ];
        for t in topos {
            for a in 0..t.len() {
                for b in 0..t.len() {
                    let links = t.route_links_avoiding(a, b, |_, _| false).unwrap();
                    assert_eq!(links.len(), t.distance(a, b), "{t:?} {a}->{b}");
                }
            }
        }
    }

    #[test]
    fn route_avoiding_detours_around_dead_links() {
        let t = Topology::Hypercube(2);
        // Kill 0→1 in both directions: 0→1 must detour via 2 (or 3).
        let dead = |x: usize, y: usize| (x, y) == (0, 1) || (x, y) == (1, 0);
        let links = t.route_links_avoiding(0, 1, dead).unwrap();
        assert_eq!(links.len(), 3, "detour is three hops: {links:?}");
        assert!(links.iter().all(|&(x, y)| !dead(x, y)));
        assert_eq!(links.first().unwrap().0, 0);
        assert_eq!(links.last().unwrap().1, 1);
    }

    #[test]
    fn route_avoiding_reports_disconnection() {
        let t = Topology::Ring(4);
        // Cutting both links incident to node 1 isolates it.
        let dead = |x: usize, y: usize| x == 1 || y == 1;
        assert_eq!(t.route_links_avoiding(0, 1, dead), None);
        // Self-routes are trivially empty even on a cut machine.
        assert_eq!(t.route_links_avoiding(2, 2, dead), Some(vec![]));
        // The rest of the ring is still connected.
        assert!(t.route_links_avoiding(0, 2, dead).is_some());
    }

    #[test]
    fn neighbor_counts() {
        assert_eq!(Topology::Mesh { rows: 3, cols: 3 }.neighbors(4).len(), 4);
        assert_eq!(Topology::Mesh { rows: 3, cols: 3 }.neighbors(0).len(), 2);
        assert_eq!(Topology::Ring(2).neighbors(0), vec![1]);
        assert_eq!(Topology::Ring(1).neighbors(0), Vec::<usize>::new());
    }
}
