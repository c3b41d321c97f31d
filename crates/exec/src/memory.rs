//! The sparse array store executions write into.

use std::collections::BTreeMap;

/// A sparse, deterministic-iteration store of array element values.
///
/// Elements never written retain their *initial* value, supplied at
/// execution time by an init function (so boundary reads like `A[0, j]`
/// in a nest writing `A[i+1, j+1]` are well-defined).
///
/// The map is nested as array → subscript → value, so lookups borrow
/// the caller's `&str` and `&[i64]` and allocate nothing; iteration
/// visits elements in `(array, subscript)` order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Memory {
    cells: BTreeMap<String, BTreeMap<Vec<i64>, f64>>,
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
        let Some(elements) = self.cells.get_mut(array) else {
            let elements = BTreeMap::from([(element.to_vec(), value)]);
            self.cells.insert(array.to_string(), elements);
            return;
        };
        match elements.get_mut(element) {
            Some(v) => *v = value,
            None => {
                elements.insert(element.to_vec(), value);
            }
        }
    }

    /// Write every `(element, value)` of `elements` into `array`, as
    /// [`Memory::write`] would one by one. Into an array not yet written,
    /// the elements are built in one pass (in one sort, when unsorted).
    pub fn write_array(
        &mut self,
        array: &str,
        elements: impl IntoIterator<Item = (Vec<i64>, f64)>,
    ) {
        match self.cells.get_mut(array) {
            Some(cells) => cells.extend(elements),
            None => {
                let cells: BTreeMap<Vec<i64>, f64> = elements.into_iter().collect();
                if !cells.is_empty() {
                    self.cells.insert(array.to_string(), cells);
                }
            }
        }
    }

    /// Number of written elements.
    pub fn len(&self) -> usize {
        self.cells.values().map(BTreeMap::len).sum()
    }

    /// `true` iff nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterate over written elements — `(array, subscript, value)` — in
    /// deterministic `(array, subscript)` order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[i64], f64)> {
        self.cells.iter().flat_map(|(array, elements)| {
            elements
                .iter()
                .map(move |(element, &v)| (array.as_str(), element.as_slice(), v))
        })
    }

    /// The value of a written element, if present.
    pub fn get(&self, array: &str, element: &[i64]) -> Option<f64> {
        self.cells.get(array)?.get(element).copied()
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
    fn write_array_equals_writes_one_by_one() {
        let elements = [(vec![2], 1.0), (vec![0], 2.0), (vec![2], 3.0)];
        let mut one_by_one = Memory::new();
        one_by_one.write("B", &[5], 4.0);
        for (e, v) in &elements {
            one_by_one.write("A", e, *v);
            one_by_one.write("B", e, *v);
        }
        let mut bulk = Memory::new();
        bulk.write("B", &[5], 4.0);
        bulk.write_array("A", elements.clone());
        bulk.write_array("B", elements);
        bulk.write_array("C", []);
        assert_eq!(bulk, one_by_one);
        assert_eq!(bulk.get("A", &[2]), Some(3.0));
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
