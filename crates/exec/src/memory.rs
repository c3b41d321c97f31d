//! The sparse array store executions write into.

use std::fmt;

/// A sparse, deterministic-iteration store of array element values.
///
/// Elements never written retain their *initial* value, supplied at
/// execution time by an init function (so boundary reads like `A[0, j]`
/// in a nest writing `A[i+1, j+1]` are well-defined).
///
/// Each array — a name at one rank — is stored flat, by element id (the
/// order elements were first written): its subscripts in one `Vec<i64>`
/// with stride = rank, its values in one `Vec<f64>`, and an
/// open-addressed table of element ids hashed over the subscript words.
/// Reads and writes are O(1) expected, borrow the caller's `&str` and
/// `&[i64]`, and allocate nothing but the table's and columns' growth;
/// no write moves other elements.
///
/// Iteration visits elements in `(array, subscript)` order, one name's
/// ranks interleaved lexicographically (`A[1] < A[1, 0] < A[2]`). An
/// array keeps a flag that holds while every new element sorted after
/// the one before — as in the gather, and in oracle runs whose writes
/// grow with the iteration — and is then walked in id order; otherwise
/// each walk sorts a permutation of its ids once.
#[derive(Clone, Default)]
pub struct Memory {
    /// Sorted by `(name, rank)`; none is empty.
    arrays: Vec<Array>,
}

/// An empty slot of an [`Array`]'s table.
const EMPTY: u32 = u32::MAX;

/// The smallest table: room for four elements.
const MIN_TABLE: usize = 8;

/// One array's elements, stored flat by element id.
#[derive(Clone)]
struct Array {
    name: String,
    rank: usize,
    /// Element `id`'s subscript is `subscripts[id * rank..][..rank]`.
    subscripts: Vec<i64>,
    values: Vec<f64>,
    /// Element ids by subscript hash, linear probing; [`EMPTY`] marks a
    /// free slot. A power of two at least twice the element count.
    table: Vec<u32>,
    /// Every element sorts after the one with the id before it.
    sorted: bool,
}

impl Memory {
    /// An empty store.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Read an element, falling back to `init` when unwritten.
    pub fn read(&self, array: &str, element: &[i64], init: &dyn Fn(&str, &[i64]) -> f64) -> f64 {
        self.get(array, element)
            .unwrap_or_else(|| init(array, element))
    }

    /// Write an element. Overwriting an element allocates nothing.
    pub fn write(&mut self, array: &str, element: &[i64], value: f64) {
        match self.find(array, element.len()) {
            Ok(a) => self.arrays[a].set(element, value),
            Err(at) => {
                let mut new = Array::new(array, element.len(), Vec::new(), Vec::new());
                new.set(element, value);
                self.arrays.insert(at, new);
            }
        }
    }

    /// Write `values` into `array` at `rank`, element `k` at subscript
    /// `subscripts[k * rank..][..rank]`, as [`Memory::write`] would one
    /// by one. Into an array not yet written, elements given in strictly
    /// increasing subscript order are taken over as they are: the two
    /// columns become the array's, and only its table is built.
    ///
    /// Panics unless `subscripts` holds `rank` words per value.
    pub fn write_flat(&mut self, array: &str, rank: usize, subscripts: Vec<i64>, values: Vec<f64>) {
        assert_eq!(
            subscripts.len(),
            rank * values.len(),
            "{rank} words per value"
        );
        if values.is_empty() {
            return;
        }
        let increasing = match rank {
            0 => values.len() == 1,
            _ => subscripts
                .chunks_exact(rank)
                .zip(subscripts.chunks_exact(rank).skip(1))
                .all(|(a, b)| a < b),
        };
        match self.find(array, rank) {
            Err(at) if increasing => {
                let new = Array::new(array, rank, subscripts, values);
                self.arrays.insert(at, new);
            }
            _ => {
                for (k, &v) in values.iter().enumerate() {
                    self.write(array, &subscripts[k * rank..][..rank], v);
                }
            }
        }
    }

    /// Number of written elements.
    pub fn len(&self) -> usize {
        self.arrays.iter().map(|a| a.values.len()).sum()
    }

    /// `true` iff nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.arrays.is_empty()
    }

    /// Iterate over written elements — `(array, subscript, value)` — in
    /// deterministic `(array, subscript)` order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[i64], f64)> {
        self.arrays
            .chunk_by(|a, b| a.name == b.name)
            .flat_map(walk)
            .map(|(a, id)| (a.name.as_str(), a.subscript(id), a.values[id]))
    }

    /// The value of a written element, if present.
    pub fn get(&self, array: &str, element: &[i64]) -> Option<f64> {
        let a = &self.arrays[self.find(array, element.len()).ok()?];
        a.probe(element).ok().map(|id| a.values[id])
    }

    /// The position of `(array, rank)` in `arrays`, or where it would go.
    fn find(&self, array: &str, rank: usize) -> Result<usize, usize> {
        self.arrays
            .binary_search_by(|a| (a.name.as_str(), a.rank).cmp(&(array, rank)))
    }

    /// A deterministic FNV-1a digest of the whole store (addresses and
    /// exact value bits, in `(array, subscript)` order). Two memories
    /// digest equal iff they hold bit-identical contents, so oracle
    /// consumers — e.g. the interleaving determinacy check comparing
    /// many replayed schedules — can compare states in O(1) after one
    /// pass and only fall back to [`crate::equivalent`] to render the
    /// divergence.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        for (array, element, v) in self.iter() {
            eat(array.as_bytes());
            eat(&[0xff]);
            for &x in element {
                eat(&x.to_le_bytes());
            }
            eat(&v.to_bits().to_le_bytes());
        }
        h
    }
}

/// One name's elements, at every rank it was written at, in subscript
/// order: in id order for one sorted array, else through one sorted
/// permutation.
fn walk(group: &[Array]) -> impl Iterator<Item = (&Array, usize)> {
    let in_order = match group {
        [a] if a.sorted => Some(a),
        _ => None,
    };
    let mut ids: Vec<(&Array, usize)> = Vec::new();
    if in_order.is_none() {
        ids.extend(
            group
                .iter()
                .flat_map(|a| (0..a.values.len()).map(move |id| (a, id))),
        );
        ids.sort_unstable_by(|&(a, i), &(b, j)| a.subscript(i).cmp(b.subscript(j)));
    }
    in_order
        .into_iter()
        .flat_map(|a| (0..a.values.len()).map(move |id| (a, id)))
        .chain(ids)
}

impl Array {
    /// The array `name` at `rank` holding `values` at `subscripts`, which
    /// must be strictly increasing: the flag starts true.
    fn new(name: &str, rank: usize, subscripts: Vec<i64>, values: Vec<f64>) -> Array {
        let mut a = Array {
            name: name.to_string(),
            rank,
            subscripts,
            values,
            table: Vec::new(),
            sorted: true,
        };
        a.rebuild(MIN_TABLE.max(2 * a.values.len()).next_power_of_two());
        a
    }

    /// The subscript of element `id`.
    fn subscript(&self, id: usize) -> &[i64] {
        &self.subscripts[id * self.rank..][..self.rank]
    }

    /// The table slot `element` hashes to: the top bits of a
    /// multiply-rotate hash (`rustc`'s `FxHasher`) over its words. Keys
    /// are elements of the nest being run, so a nest crafted to collide
    /// slows only its own run.
    fn home(&self, element: &[i64]) -> usize {
        let h = element.iter().fold(0u64, |h, &x| {
            (h.rotate_left(5) ^ x as u64).wrapping_mul(0x517c_c1b7_2722_0a95)
        });
        (h >> (64 - self.table.len().trailing_zeros())) as usize
    }

    /// `Ok(id)` of `element`, or `Err(slot)`: the free table slot it
    /// would take.
    fn probe(&self, element: &[i64]) -> Result<usize, usize> {
        let mask = self.table.len() - 1;
        let mut slot = self.home(element);
        loop {
            match self.table[slot] {
                EMPTY => return Err(slot),
                id if self.subscript(id as usize) == element => return Ok(id as usize),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Set `element` to `value`, appending it when new.
    fn set(&mut self, element: &[i64], value: f64) {
        let slot = match self.probe(element) {
            Ok(id) => {
                self.values[id] = value;
                return;
            }
            Err(slot) => slot,
        };
        let id = self.values.len();
        assert!(id < EMPTY as usize, "too many elements in one array");
        self.sorted &= id == 0 || self.subscript(id - 1) < element;
        self.subscripts.extend_from_slice(element);
        self.values.push(value);
        self.table[slot] = id as u32;
        if 2 * self.values.len() > self.table.len() {
            self.rebuild(2 * self.table.len());
        }
    }

    /// Re-hash every element into a table of `size` slots.
    fn rebuild(&mut self, size: usize) {
        assert!(
            self.values.len() < EMPTY as usize,
            "too many elements in one array"
        );
        self.table.clear();
        self.table.resize(size, EMPTY);
        let mask = size - 1;
        for id in 0..self.values.len() {
            let mut slot = self.home(self.subscript(id));
            while self.table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = id as u32;
        }
    }
}

/// Content equality: the same elements with `==` values.
impl PartialEq for Memory {
    fn eq(&self, other: &Memory) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

/// The nested map the store is read as: name → subscript → value.
impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Cells<'a>(&'a Memory);
        struct Elements<'a>(&'a [Array]);
        impl fmt::Debug for Cells<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let groups = self.0.arrays.chunk_by(|a, b| a.name == b.name);
                f.debug_map()
                    .entries(groups.map(|g| (&g[0].name, Elements(g))))
                    .finish()
            }
        }
        impl fmt::Debug for Elements<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map()
                    .entries(walk(self.0).map(|(a, id)| (a.subscript(id), a.values[id])))
                    .finish()
            }
        }
        f.debug_struct("Memory")
            .field("cells", &Cells(self))
            .finish()
    }
}

/// A common init function: every unwritten element of every array reads
/// as a deterministic pseudo-value derived from its address, so
/// divergences cannot hide behind uniform zeros.
pub fn address_hash_init(array: &str, element: &[i64]) -> f64 {
    let mut h: i64 = array.bytes().map(|b| b as i64).sum::<i64>();
    for (k, &x) in element.iter().enumerate() {
        h = h
            .wrapping_mul(31)
            .wrapping_add(x.wrapping_mul(k as i64 + 7));
    }
    // Map into a small well-conditioned range.
    ((h.rem_euclid(1009)) as f64) / 64.0 + 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut m = Memory::new();
        let zero = |_: &str, _: &[i64]| 0.0;
        assert_eq!(m.read("A", &[1, 2], &zero), 0.0);
        m.write("A", &[1, 2], 5.5);
        assert_eq!(m.read("A", &[1, 2], &zero), 5.5);
        assert_eq!(m.get("A", &[1, 2]), Some(5.5));
        assert_eq!(m.get("A", &[0, 0]), None);
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
    }

    #[test]
    fn write_flat_equals_writes_one_by_one() {
        // Unordered with an overwrite (A), into a written array (B),
        // increasing into a new array (C), empty (D), rank 0 (E).
        let cases: [(&str, usize, &[i64], &[f64]); 6] = [
            ("A", 1, &[2, 0, 2], &[1.0, 2.0, 3.0]),
            ("B", 1, &[2, 0, 2], &[1.0, 2.0, 3.0]),
            ("C", 2, &[-1, 5, 0, -3, 0, 4], &[1.0, 2.0, 3.0]),
            ("D", 2, &[], &[]),
            ("E", 0, &[], &[6.0]),
            ("E", 1, &[7], &[8.0]),
        ];
        let mut one_by_one = Memory::new();
        let mut bulk = Memory::new();
        for m in [&mut one_by_one, &mut bulk] {
            m.write("B", &[5], 4.0);
        }
        for (array, rank, subscripts, values) in cases {
            for (k, &v) in values.iter().enumerate() {
                one_by_one.write(array, &subscripts[k * rank..][..rank], v);
            }
            bulk.write_flat(array, rank, subscripts.to_vec(), values.to_vec());
        }
        assert_eq!(bulk, one_by_one);
        assert_eq!(bulk.digest(), one_by_one.digest());
        assert_eq!(format!("{bulk:?}"), format!("{one_by_one:?}"));
        assert_eq!(bulk.get("A", &[2]), Some(3.0));
        assert_eq!(bulk.get("C", &[0, 4]), Some(3.0));
        assert_eq!(bulk.get("D", &[0, 0]), None);
        assert_eq!(bulk.len(), 10);
    }

    #[test]
    fn debug_reads_as_a_nested_map() {
        let mut m = Memory::new();
        m.write("B", &[0], 2.0);
        m.write("A", &[2], 1.0);
        m.write("A", &[1, 0], -0.0);
        m.write("A", &[1], 0.5);
        assert_eq!(
            format!("{m:?}"),
            "Memory { cells: {\"A\": {[1]: 0.5, [1, 0]: -0.0, [2]: 1.0}, \"B\": {[0]: 2.0}} }"
        );
    }

    #[test]
    fn arrays_are_distinct_namespaces() {
        let mut m = Memory::new();
        m.write("A", &[0], 1.0);
        m.write("B", &[0], 2.0);
        assert_eq!(m.get("A", &[0]), Some(1.0));
        assert_eq!(m.get("B", &[0]), Some(2.0));
    }

    #[test]
    fn digest_separates_and_matches() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        assert_eq!(a.digest(), b.digest());
        a.write("A", &[1], 2.0);
        assert_ne!(a.digest(), b.digest());
        b.write("A", &[1], 2.0);
        assert_eq!(a.digest(), b.digest());
        // Same bits, different address → different digest.
        let mut c = Memory::new();
        c.write("A", &[2], 2.0);
        assert_ne!(a.digest(), c.digest());
        // -0.0 and 0.0 differ bitwise and must not collide.
        let mut z1 = Memory::new();
        let mut z2 = Memory::new();
        z1.write("A", &[0], 0.0);
        z2.write("A", &[0], -0.0);
        assert_ne!(z1.digest(), z2.digest());
    }

    #[test]
    fn address_hash_init_is_deterministic_and_varied() {
        let a = address_hash_init("A", &[1, 2]);
        assert_eq!(a, address_hash_init("A", &[1, 2]));
        assert_ne!(a, address_hash_init("A", &[2, 1]));
        assert_ne!(a, address_hash_init("B", &[1, 2]));
        assert!(a >= 1.0);
    }
}
