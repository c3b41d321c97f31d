//! `Memory` against a reference: a `BTreeMap` keyed by
//! `(array, subscript)`, the store's meaning written the plainest way.
//! Seeded random `write`/`read`/`get` sequences — random order,
//! overwrites, rank 0, one name at several ranks, negative and `i64`-edge
//! subscripts, `0.0` and `-0.0` — must leave both agreeing on iteration
//! order, `len`, `get`, `digest`, `==` and `equivalent`.

use loom_exec::memory::address_hash_init;
use loom_exec::{equivalent, sequential, Divergence, Memory};
use std::collections::BTreeMap;

type Reference = BTreeMap<(String, Vec<i64>), f64>;

/// One array's subscript and value columns, as `Memory::write_flat`
/// takes them.
type Columns = (Vec<i64>, Vec<f64>);

/// SplitMix64: a small seeded generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

const NAMES: [&str; 4] = ["A", "AB", "B", "x"];
const EDGES: [i64; 6] = [i64::MIN, i64::MIN + 1, -1, 0, i64::MAX - 1, i64::MAX];
const VALUES: [f64; 6] = [0.0, -0.0, 1.5, -2.25, 1e300, f64::MIN_POSITIVE];

/// A random element: rank 0–3, coordinates from a range of `spread`
/// around 0 or from the `i64` edges.
fn element(rng: &mut Rng, spread: usize) -> Vec<i64> {
    let rank = rng.below(4);
    (0..rank)
        .map(|_| match rng.below(5) {
            0 => rng.pick(&EDGES),
            _ => rng.below(spread) as i64 - (spread / 2) as i64,
        })
        .collect()
}

/// The reference's elements in its order, values as bits (so `-0.0`
/// and `0.0` differ).
fn listed(reference: &Reference) -> Vec<(&str, &[i64], u64)> {
    reference
        .iter()
        .map(|((a, e), v)| (a.as_str(), e.as_slice(), v.to_bits()))
        .collect()
}

/// FNV-1a over `(array, 0xff, subscript words, value bits)` in order:
/// `Memory::digest`'s definition.
fn reference_digest(reference: &Reference) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for ((array, element), v) in reference {
        eat(array.as_bytes());
        eat(&[0xff]);
        for x in element {
            eat(&x.to_le_bytes());
        }
        eat(&v.to_bits().to_le_bytes());
    }
    h
}

/// The reference written into a fresh `Memory` in its own (sorted)
/// order, each array through one `write_flat`.
fn flat_copy(reference: &Reference) -> Memory {
    let mut by_array: BTreeMap<(&str, usize), Columns> = BTreeMap::new();
    for ((array, element), &v) in reference {
        let (subscripts, values) = by_array.entry((array, element.len())).or_default();
        subscripts.extend_from_slice(element);
        values.push(v);
    }
    let mut mem = Memory::new();
    for ((array, rank), (subscripts, values)) in by_array {
        mem.write_flat(array, rank, subscripts, values);
    }
    mem
}

#[test]
fn memory_agrees_with_a_btreemap_reference() {
    let init = |_: &str, _: &[i64]| 42.0;
    for seed in 0..48u64 {
        let mut rng = Rng(seed);
        // Small spreads overwrite often; large ones grow the tables.
        let spread = [3, 8, 64, 4096][seed as usize % 4];
        let ops = 40 + 60 * (seed as usize % 8);
        let mut mem = Memory::new();
        let mut reference = Reference::new();
        for _ in 0..ops {
            let array = rng.pick(&NAMES);
            let e = element(&mut rng, spread);
            let key = (array.to_string(), e.clone());
            if rng.below(3) < 2 {
                let v = rng.pick(&VALUES);
                mem.write(array, &e, v);
                reference.insert(key, v);
            } else {
                let expect = reference.get(&key).copied();
                assert_eq!(
                    mem.get(array, &e).map(f64::to_bits),
                    expect.map(f64::to_bits)
                );
                assert_eq!(mem.read(array, &e, &init), expect.unwrap_or(42.0));
            }
        }
        let got: Vec<_> = mem.iter().map(|(a, e, v)| (a, e, v.to_bits())).collect();
        assert_eq!(got, listed(&reference), "seed {seed}");
        assert_eq!(mem.len(), reference.len());
        assert_eq!(mem.is_empty(), reference.is_empty());
        assert_eq!(mem.digest(), reference_digest(&reference), "seed {seed}");
        for ((array, e), &v) in &reference {
            assert_eq!(mem.get(array, e).map(f64::to_bits), Some(v.to_bits()));
        }

        // The same contents written in sorted order compare equal.
        let sorted = flat_copy(&reference);
        assert_eq!(sorted, mem);
        assert_eq!(sorted.digest(), mem.digest());
        assert_eq!(equivalent(&sorted, &mem), Ok(()));
        assert_eq!(format!("{sorted:?}"), format!("{mem:?}"));

        // One element more, or one value changed, is a difference.
        let Some(((array, e), &v)) = reference.iter().nth(reference.len() / 2) else {
            continue;
        };
        let mut changed = reference.clone();
        changed.insert((array.clone(), e.clone()), 7.0);
        let changed = flat_copy(&changed);
        assert_ne!(changed, mem);
        assert!(matches!(
            equivalent(&mem, &changed),
            Err(Divergence::ValueMismatch {
                left: Some(_),
                right: Some(_),
                ..
            })
        ));
        let mut fewer = reference.clone();
        fewer.remove(&(array.clone(), e.clone()));
        let fewer = flat_copy(&fewer);
        assert_ne!(fewer, mem);
        assert_eq!(
            equivalent(&fewer, &mem),
            Err(Divergence::ValueMismatch {
                array: array.clone(),
                element: e.clone(),
                left: None,
                right: Some(v),
            })
        );
    }
}

/// A transposed write order — every new element sorting before the one
/// before it — iterates as the reference does.
#[test]
fn transposed_writes_iterate_in_subscript_order() {
    let n = 40;
    let mut mem = Memory::new();
    let mut reference = Reference::new();
    for i in 0..n {
        for j in 0..n {
            let e = [n - 1 - j, i];
            mem.write("B", &e, (i * n + j) as f64);
            reference.insert(("B".to_string(), e.to_vec()), (i * n + j) as f64);
        }
    }
    let got: Vec<_> = mem.iter().map(|(a, e, v)| (a, e, v.to_bits())).collect();
    assert_eq!(got, listed(&reference));
    assert_eq!(mem.digest(), reference_digest(&reference));
}

/// Recorded at the store this one replaced (nested `BTreeMap`s): one
/// name at ranks 0, 1 and 2 interleaves as `A[] < A[MIN, MAX] < A[1] <
/// A[1, 0] < A[2]`, and `AB` sorts between `A` and `B`.
#[test]
fn mixed_ranks_iterate_and_digest_as_pinned() {
    let mut m = Memory::new();
    m.write("A", &[2], 3.0);
    m.write("A", &[1, 0], -0.0);
    m.write("A", &[1], 1.5);
    m.write("A", &[], 7.0);
    m.write("A", &[i64::MIN, i64::MAX], 0.0);
    m.write("B", &[-1], 2.0);
    m.write("AB", &[0], 4.0);
    let order: Vec<_> = m.iter().map(|(a, e, _)| (a, e.to_vec())).collect();
    assert_eq!(
        order,
        [
            ("A", vec![]),
            ("A", vec![i64::MIN, i64::MAX]),
            ("A", vec![1]),
            ("A", vec![1, 0]),
            ("A", vec![2]),
            ("AB", vec![0]),
            ("B", vec![-1]),
        ]
    );
    assert_eq!(m.digest(), 0x8549645b8bf2c5e5);
}

/// `sequential`'s digest and length on every default builtin and on the
/// programs the benchmark's `execute` workload runs, recorded at the
/// store this one replaced.
#[test]
fn sequential_digests_are_pinned() {
    use loom_workloads::*;
    let defaults = [
        ("L1", 0x5d9158e63a4b5dea_u64, 32),
        ("matmul", 0x42b29a729de4859c, 16),
        ("matvec", 0x8e375d36298651ad, 8),
        ("conv1d", 0xdcad63a7ef45739d, 8),
        ("sor", 0xfaa0bd8896da92b0, 36),
        ("transitive-closure", 0xcd61a30913ece7ed, 16),
        ("dft", 0x30de60585d5e6da5, 8),
        ("conv2d", 0x28324a67d0add5ab, 16),
        ("triangular", 0xbfca5d0cdceee448, 21),
        ("heat2d", 0xbb3c20b1e2942032, 48),
    ];
    let workloads = all_default();
    assert_eq!(workloads.len(), defaults.len());
    let execute = [
        (matvec::workload(128), 0x60e8d175bb1fc0fa_u64, 128),
        (sor::workload(64, 64), 0x9407774a1bd1325b, 4096),
        (heat2d::workload(16, 16), 0xffb31f1e13bb6c9f, 4096),
        (matmul::workload(16), 0x4553a5bae9c27114, 256),
        (transitive::workload(12), 0x2418d5df85b04399, 144),
        (dft::workload(64), 0xdbd92fc2391fd8b9, 64),
        (l1::workload(64), 0x8444b3e15164d93b, 8192),
        (triangular::workload(64), 0xb79e5b7019c3cd08, 2080),
        (conv::workload(256, 8), 0xab8c6274a1c5a322, 256),
    ];
    let cases = workloads
        .into_iter()
        .zip(defaults)
        .map(|(w, (name, digest, len))| {
            assert_eq!(w.nest.name(), name);
            (w, digest, len)
        })
        .chain(execute);
    for (w, digest, len) in cases {
        let mem = sequential(&w.nest, &address_hash_init);
        assert_eq!(
            (mem.digest(), mem.len()),
            (digest, len),
            "{}",
            w.nest.name()
        );
    }
}
