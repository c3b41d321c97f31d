//! The slot-indexed store generated SPMD programs execute on.
//!
//! A [`Layout`] is built once per run from the nest and the program's
//! iteration table. It interns every array — a name at one rank — to an
//! id, resolves each statement's write and reads (and each dependence's
//! payload) to those ids, and gives every array a slot space. Each
//! processor's [`Store`] then holds, per array, a `Vec<f64>` of values
//! and a `Vec<u32>` of versions indexed by slot, so reading an operand
//! or installing a payload word neither hashes a name nor allocates.
//!
//! **Slot spaces.** An array's subscript box is the interval hull of
//! its accesses' affine subscripts over the bounding box of the
//! iteration space, in checked `i64` arithmetic; the executors refuse a
//! table point outside that box as a bad point. When the box's volume
//! is at most [`DENSE_FACTOR`] times the elements the run can touch
//! (table points × the array's accesses), a slot is the row-major offset
//! into the box. Otherwise — sparse subscripts such as
//! `A[i, 100000000*j]`, or a hull that overflows — the layout enumerates
//! the touched elements once and indexes them through a hash from
//! subscript to slot.
//!
//! **Versions.** A version slot holds [`ABSENT`], [`FORWARDED`] (a
//! value received without a writer, from an input-reuse chain), or the
//! [`writer`] version of the iteration that wrote it. Installation keeps
//! a word only when it is newer than the slot: `slot < version`.

use loom_exec::Memory;
use loom_loopir::sem::Expr;
use loom_loopir::{Access, LoopNest};
use loom_partition::PointTable;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::gen::{Codegen, PayloadSpec};

/// An array is box-indexed while its box has at most this many slots
/// per element the run can touch.
const DENSE_FACTOR: u64 = 4;

/// The version of a slot nothing has been stored into.
const ABSENT: u32 = 0;
/// The version of a value forwarded without a writer.
const FORWARDED: u32 = 1;

/// The version of a value iteration `id` wrote, computed on this
/// processor (`here`) or received. Point ids are lexicographic, so
/// versions order writers sequentially; for one writer, the copy its
/// own processor computed outranks every received copy, so the gather
/// takes each element from the processor that computed its last write.
fn writer(id: u32, here: bool) -> u32 {
    2 * id + 2 + u32::from(here)
}

/// One access, resolved: its array's id and how to find its slot.
struct Resolved<'a> {
    array: usize,
    access: &'a Access,
    /// `slot = base + Σ coef_j · p_j` for a box-indexed array.
    offset: Option<(i64, Vec<i64>)>,
}

/// One word of a dependence's payload: the access to read at the
/// source iteration, and whether the source wrote it (else it forwards
/// a read).
pub(crate) struct Part {
    stmt: usize,
    read: Option<usize>,
}

/// How an array's elements map to slots.
enum Index {
    /// Row-major offset into the box `lo + [0, extents)`.
    Box { lo: Vec<i64>, extents: Vec<i64> },
    /// A hash from each touched element to its slot, and back.
    Hash {
        slot_of: HashMap<Vec<i64>, usize, BuildHasherDefault<SubscriptHasher>>,
        elements: Vec<Vec<i64>>,
    },
}

/// One array: its name, rank and slot space.
struct Array<'a> {
    name: &'a str,
    rank: usize,
    index: Index,
    slots: usize,
    /// Some statement writes it: only written arrays are gathered.
    written: bool,
}

/// One statement: its semantics and resolved accesses.
pub(crate) struct StmtLayout<'a> {
    expr: Expr,
    write: Resolved<'a>,
    reads: Vec<Resolved<'a>>,
}

/// Array ids, slot spaces and resolved accesses of one run.
pub(crate) struct Layout<'a> {
    /// The iteration space's bounding box.
    bbox: Vec<(i64, i64)>,
    arrays: Vec<Array<'a>>,
    stmts: Vec<StmtLayout<'a>>,
    /// Per dependence index, the payload words of its message.
    payloads: Vec<Vec<Part>>,
}

/// One processor's private store: per array id, values and versions by
/// slot, plus scratch for operands and subscripts.
pub(crate) struct Store {
    values: Vec<Vec<f64>>,
    versions: Vec<Vec<u32>>,
    reads: Vec<f64>,
    buf: Vec<i64>,
}

/// A transferred word: where it goes, its value, and its version —
/// [`FORWARDED`] for a forwarded read, else the received [`writer`]
/// version of the iteration that wrote it. The version makes installation
/// order-independent: a processor keeps, per element, the value of the
/// sequentially latest writer, so when several accumulation dependences
/// deliver the same element (e.g. conv2d's `y` along both `(0,0,1,0)`
/// and `(0,0,0,1)`), a staler copy arriving later can never clobber a
/// newer one, and a forwarded read (a reuse chain of an in-nest
/// read-only array) fills only an absent slot. Slots are the layout's,
/// shared by every processor of the run.
pub(crate) struct PayloadItem {
    array: u32,
    version: u32,
    slot: usize,
    value: f64,
}

impl<'a> Layout<'a> {
    /// The layout of the program `cg` generated for `nest`.
    pub(crate) fn new(nest: &'a LoopNest, cg: &Codegen) -> Layout<'a> {
        let points = &cg.program.points;
        // Versions are `writer(id, _)` for ids below the table's length; a
        // table of 2^31 points cannot be built in memory.
        assert!(
            points.len() < (u32::MAX / 2 - 1) as usize,
            "iteration table too large"
        );
        let bbox = nest.space().bounding_box();
        // Intern (name, rank) pairs and gather each array's accesses.
        let mut keys: Vec<(&str, usize)> = Vec::new();
        let mut uses: Vec<Vec<&Access>> = Vec::new();
        let mut id_of = |acc: &'a Access| {
            let key = (acc.array(), acc.rank());
            let id = keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                keys.push(key);
                uses.push(Vec::new());
                keys.len() - 1
            });
            uses[id].push(acc);
            id
        };
        let ids: Vec<(usize, Vec<usize>)> = nest
            .stmts()
            .iter()
            .map(|st| {
                let w = id_of(st.write());
                (w, st.reads().iter().map(&mut id_of).collect())
            })
            .collect();
        let arrays: Vec<Array> = keys
            .iter()
            .zip(&uses)
            .enumerate()
            .map(|(id, (&(name, rank), accs))| {
                let written = ids.iter().any(|(w, _)| *w == id);
                Array::new(name, rank, accs, written, &bbox, points)
            })
            .collect();
        let resolve = |array: usize, access: &'a Access| Resolved {
            array,
            access,
            offset: match &arrays[array].index {
                Index::Box { lo, extents } => Some(row_major(access, lo, extents)),
                Index::Hash { .. } => None,
            },
        };
        let stmts = nest
            .stmts()
            .iter()
            .zip(&ids)
            .map(|(st, (w, rs))| StmtLayout {
                expr: st.semantics(),
                write: resolve(*w, st.write()),
                reads: st
                    .reads()
                    .iter()
                    .zip(rs)
                    .map(|(r, &id)| resolve(id, r))
                    .collect(),
            })
            .collect();
        let payloads = cg
            .payload_specs
            .iter()
            .map(|specs| {
                specs
                    .iter()
                    .flat_map(|spec| match spec {
                        PayloadSpec::Write { stmt } => vec![Part {
                            stmt: *stmt,
                            read: None,
                        }],
                        PayloadSpec::Reads { stmt, array } => nest.stmts()[*stmt]
                            .reads()
                            .iter()
                            .enumerate()
                            .filter(|(_, r)| r.array() == array)
                            .map(|(k, _)| Part {
                                stmt: *stmt,
                                read: Some(k),
                            })
                            .collect(),
                    })
                    .collect()
            })
            .collect();
        Layout {
            bbox,
            arrays,
            stmts,
            payloads,
        }
    }

    /// `true` iff `pt` lies in the iteration space's bounding box: the
    /// points whose slots the layout can compute.
    pub(crate) fn covers(&self, pt: &[i64]) -> bool {
        in_box(&self.bbox, pt)
    }

    /// The resolved statements, in body order.
    pub(crate) fn stmts(&self) -> &[StmtLayout<'a>] {
        &self.stmts
    }

    /// The payload words of dependence `dep`, if it has a spec.
    pub(crate) fn payload(&self, dep: u16) -> Option<&[Part]> {
        self.payloads.get(dep as usize).map(Vec::as_slice)
    }

    /// An empty store for this layout.
    pub(crate) fn store(&self) -> Store {
        Store {
            values: self.arrays.iter().map(|a| vec![0.0; a.slots]).collect(),
            versions: self.arrays.iter().map(|a| vec![ABSENT; a.slots]).collect(),
            reads: Vec::new(),
            buf: Vec::new(),
        }
    }

    /// The slot `r` touches at `pt`; `buf` is scratch for a hashed
    /// array's subscript.
    fn slot(&self, r: &Resolved, pt: &[i64], buf: &mut Vec<i64>) -> usize {
        match &r.offset {
            // Executed points lie in the box (see `covers`), so the true
            // offset is in `[0, slots)`: wrapping arithmetic computes it
            // exactly.
            Some((base, coef)) => coef
                .iter()
                .zip(pt)
                .fold(*base, |s, (&c, &x)| s.wrapping_add(c.wrapping_mul(x)))
                as usize,
            None => {
                r.access.element_into(pt, buf);
                let Index::Hash { slot_of, .. } = &self.arrays[r.array].index else {
                    unreachable!("only hashed arrays resolve without an offset")
                };
                *slot_of
                    .get(buf.as_slice())
                    .expect("the layout enumerated every table point's elements")
            }
        }
    }

    /// The slot `r` touches at `pt` and the value `store` holds there,
    /// or `init`'s when the slot is absent.
    fn load(
        &self,
        store: &mut Store,
        r: &Resolved,
        pt: &[i64],
        init: &dyn Fn(&str, &[i64]) -> f64,
    ) -> (usize, f64) {
        let slot = self.slot(r, pt, &mut store.buf);
        if store.versions[r.array][slot] != ABSENT {
            return (slot, store.values[r.array][slot]);
        }
        r.access.element_into(pt, &mut store.buf);
        (slot, init(self.arrays[r.array].name, &store.buf))
    }

    /// Execute statement `st` at `pt` as iteration `id` against `store`:
    /// read every operand, evaluate, and store the result as written
    /// here.
    pub(crate) fn execute(
        &self,
        st: &StmtLayout,
        store: &mut Store,
        pt: &[i64],
        id: u32,
        init: &dyn Fn(&str, &[i64]) -> f64,
    ) {
        store.reads.clear();
        for r in &st.reads {
            let (_, v) = self.load(store, r, pt, init);
            store.reads.push(v);
        }
        let value = st.expr.eval(&store.reads);
        let slot = self.slot(&st.write, pt, &mut store.buf);
        store.values[st.write.array][slot] = value;
        store.versions[st.write.array][slot] = writer(id, true);
    }

    /// The payload word `part` of a message produced at `pt` by
    /// iteration `id`, read from `store`.
    pub(crate) fn word(
        &self,
        part: &Part,
        store: &mut Store,
        pt: &[i64],
        id: u32,
        init: &dyn Fn(&str, &[i64]) -> f64,
    ) -> PayloadItem {
        let st = &self.stmts[part.stmt];
        let (r, version) = match part.read {
            None => (&st.write, writer(id, false)),
            Some(k) => (&st.reads[k], FORWARDED),
        };
        let (slot, value) = self.load(store, r, pt, init);
        PayloadItem {
            array: r.array as u32,
            version,
            slot,
            value,
        }
    }

    /// Merge the processors' stores into the global result: every
    /// written element from the store holding its largest writer
    /// version, i.e. its sequentially last write. A box-indexed array's
    /// subscripts are stepped along with its slots ([`advance`]) and
    /// appended, in slot (row-major) order, straight into the columns
    /// `Memory` takes over, so the gather allocates nothing per element.
    pub(crate) fn gather(&self, stores: &[Store]) -> Memory {
        let mut mem = Memory::new();
        for (a, array) in self.arrays.iter().enumerate().filter(|(_, a)| a.written) {
            // The value of the last write to `slot`, if any store has one;
            // of equal versions (a point a corrupted program computes on
            // two processors), the last store's.
            let last_write = |slot: usize| {
                let mut best = (ABSENT, 0.0);
                for s in stores {
                    let version = s.versions[a][slot];
                    if version >= best.0 {
                        best = (version, s.values[a][slot]);
                    }
                }
                (best.0 > FORWARDED).then_some(best.1)
            };
            let mut subscripts = Vec::with_capacity(array.slots * array.rank);
            let mut values = Vec::with_capacity(array.slots);
            let mut keep = |element: &[i64], slot: usize| {
                if let Some(value) = last_write(slot) {
                    subscripts.extend_from_slice(element);
                    values.push(value);
                }
            };
            match &array.index {
                Index::Box { lo, extents } => {
                    let mut at = lo.clone();
                    for slot in 0..array.slots {
                        keep(&at, slot);
                        advance(&mut at, lo, extents);
                    }
                }
                Index::Hash { elements, .. } => {
                    for (slot, e) in elements.iter().enumerate() {
                        keep(e, slot);
                    }
                }
            }
            mem.write_flat(array.name, array.rank, subscripts, values);
        }
        mem
    }
}

/// Step `at` from one slot of the box `lo + [0, extents)` to the next
/// in slot (row-major) order, past the last back to the first: the last
/// subscript runs fastest and carries into the one before, so no slot
/// is decoded by division.
fn advance(at: &mut [i64], lo: &[i64], extents: &[i64]) {
    for ((x, &l), &e) in at.iter_mut().zip(lo).zip(extents).rev() {
        // `x − l` lies in `[0, e)`, and `x` steps only below the box's
        // top: neither overflows, even at the edge of `i64`.
        if *x - l < e - 1 {
            *x += 1;
            return;
        }
        *x = l;
    }
}

#[cfg(test)]
impl Layout<'_> {
    /// The names of the hash-indexed arrays.
    pub(crate) fn hashed(&self) -> Vec<&str> {
        self.arrays
            .iter()
            .filter(|a| matches!(a.index, Index::Hash { .. }))
            .map(|a| a.name)
            .collect()
    }
}

impl Store {
    /// Install one received word under the version rule.
    pub(crate) fn install(&mut self, item: &PayloadItem) {
        let a = item.array as usize;
        if self.versions[a][item.slot] < item.version {
            self.versions[a][item.slot] = item.version;
            self.values[a][item.slot] = item.value;
        }
    }
}

impl<'a> Array<'a> {
    /// The slot space of array `name` at `rank`, accessed by `accs`, over
    /// the table `points` of a space with bounding box `bbox`.
    fn new(
        name: &'a str,
        rank: usize,
        accs: &[&Access],
        written: bool,
        bbox: &[(i64, i64)],
        points: &PointTable,
    ) -> Array<'a> {
        if let Some((lo, extents, volume)) = subscript_box(rank, accs, bbox) {
            let touch = (points.len() as u64).saturating_mul(accs.len() as u64);
            if volume <= DENSE_FACTOR.saturating_mul(touch) {
                return Array {
                    name,
                    rank,
                    index: Index::Box { lo, extents },
                    slots: volume as usize,
                    written,
                };
            }
        }
        let mut slot_of: HashMap<Vec<i64>, usize, _> = HashMap::default();
        let mut elements = Vec::new();
        for p in points.iter().filter(|p| in_box(bbox, p)) {
            for acc in accs {
                slot_of.entry(acc.element_at(p)).or_insert_with_key(|e| {
                    elements.push(e.clone());
                    elements.len() - 1
                });
            }
        }
        Array {
            name,
            rank,
            slots: elements.len(),
            index: Index::Hash { slot_of, elements },
            written,
        }
    }
}

/// `true` iff `pt` lies in `bbox`.
fn in_box(bbox: &[(i64, i64)], pt: &[i64]) -> bool {
    pt.len() == bbox.len() && pt.iter().zip(bbox).all(|(&x, &(l, h))| l <= x && x <= h)
}

/// The box of an array's accesses over `bbox` — per dimension its low
/// corner and extent — and its volume, or `None` on overflow.
fn subscript_box(
    rank: usize,
    accs: &[&Access],
    bbox: &[(i64, i64)],
) -> Option<(Vec<i64>, Vec<i64>, u64)> {
    let mut lo = vec![i64::MAX; rank];
    let mut hi = vec![i64::MIN; rank];
    for acc in accs {
        for (k, aff) in acc.subscripts().iter().enumerate() {
            let (l, h) = aff.hull_over_box(bbox)?;
            lo[k] = lo[k].min(l);
            hi[k] = hi[k].max(h);
        }
    }
    let mut extents = Vec::with_capacity(rank);
    let mut volume: u64 = 1;
    for (&l, &h) in lo.iter().zip(&hi) {
        let e = h.checked_sub(l)?.checked_add(1)?;
        volume = volume.checked_mul(u64::try_from(e).ok()?)?;
        extents.push(e);
    }
    usize::try_from(volume).ok()?;
    Some((lo, extents, volume))
}

/// The row-major slot of `access` in the box `lo + [0, extents)` as
/// `(base, coef)`: `slot = base + Σ coef_j · p_j`, in wrapping
/// arithmetic (exact for points in the box, see [`Layout::slot`]).
fn row_major(access: &Access, lo: &[i64], extents: &[i64]) -> (i64, Vec<i64>) {
    let mut base = 0i64;
    let mut coef = vec![0i64; access.nest_arity()];
    let mut stride = 1i64;
    for (k, aff) in access.subscripts().iter().enumerate().rev() {
        base = base.wrapping_add(aff.constant_term().wrapping_sub(lo[k]).wrapping_mul(stride));
        for (c, &a) in coef.iter_mut().zip(aff.coeffs()) {
            *c = c.wrapping_add(a.wrapping_mul(stride));
        }
        stride = stride.wrapping_mul(extents[k]);
    }
    (base, coef)
}

/// The multiply-rotate hash of `rustc`'s `FxHasher`, for subscripts. Its
/// keys are elements of the nest being run, so a nest crafted to collide
/// slows only its own run.
#[derive(Default)]
struct SubscriptHasher(u64);

impl SubscriptHasher {
    fn add(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for SubscriptHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        for &b in words.remainder() {
            self.add(b as u64);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.add(x);
    }

    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The subscript of `slot` in the box `lo + [0, extents)`, decoded by
    /// division: the reference [`advance`] must step through.
    fn element(lo: &[i64], extents: &[i64], slot: usize) -> Vec<i64> {
        let mut element = lo.to_vec();
        let mut rest = slot as i64;
        for (x, &e) in element.iter_mut().zip(extents).rev() {
            *x += rest % e;
            rest /= e;
        }
        element
    }

    #[test]
    fn advance_walks_the_slots_the_division_decode_names() {
        let boxes: [(&[i64], &[i64]); 5] = [
            (&[-3], &[7]),
            (&[-2, 5], &[3, 4]),
            (&[0, -1], &[1, 5]),
            (&[-4, -1, -7], &[2, 3, 5]),
            (&[i64::MAX - 2, -1, i64::MIN], &[3, 1, 2]),
        ];
        for (lo, extents) in boxes {
            let slots = extents.iter().product::<i64>() as usize;
            let mut at = lo.to_vec();
            for slot in 0..slots {
                let expected = element(lo, extents, slot);
                assert_eq!(at, expected, "{lo:?} + {extents:?}, slot {slot}");
                advance(&mut at, lo, extents);
            }
            assert_eq!(at, lo, "a full turn returns to slot 0");
        }
    }
}
