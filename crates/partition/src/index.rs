//! Ids of integer vectors, for the iteration points of `V` and the
//! projection lines of `V^p`.
//!
//! An [`Index`] over keys drawn from `n` iteration points is a dense
//! rank over the keys' bounding box when the box has at most
//! `DENSE_FACTOR · n` slots: a lookup is then a bounds check and a dot
//! product, with no allocation and no hashing. Otherwise (sparse boxes,
//! or a volume that overflows) it falls back to a hash map.

use std::collections::HashMap;

/// An index is a dense rank while its box has at most this many slots
/// per iteration point.
const DENSE_FACTOR: u64 = 4;

/// The empty slot of a dense rank.
pub(crate) const NONE: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub(crate) enum Index {
    /// `ids[rank(key)]`, row-major over the box `lo + [0, extents)`.
    Dense {
        lo: Vec<i64>,
        extents: Vec<i64>,
        ids: Vec<u32>,
    },
    /// Keys too sparse for their box, of `width` coordinates.
    Hash {
        width: usize,
        map: HashMap<Vec<i64>, u32>,
    },
}

impl Index {
    /// Index `rows`, keys of `width` coordinates drawn from `points`
    /// iteration points. Equal keys share the id of their first row; ids
    /// number the distinct keys in order of first appearance. Hands the
    /// id of every row, in row order, to `row_id`.
    pub(crate) fn build<'a>(
        rows: impl Iterator<Item = &'a [i64]> + Clone,
        width: usize,
        points: usize,
        mut row_id: impl FnMut(u32),
    ) -> Index {
        let mut next = 0u32;
        let mut fresh = || {
            let id = next;
            next = next
                .checked_add(1)
                .filter(|&n| n != NONE)
                .expect("fewer than 2^32 - 1 keys");
            id
        };
        if let Some((lo, extents, volume)) = bounding_box(rows.clone(), width) {
            if volume <= DENSE_FACTOR.saturating_mul(points as u64) {
                let mut ids = vec![NONE; volume as usize];
                for row in rows {
                    let r = rank(&lo, &extents, |j| Some(row[j])).expect("a key lies in its box");
                    if ids[r] == NONE {
                        ids[r] = fresh();
                    }
                    row_id(ids[r]);
                }
                return Index::Dense { lo, extents, ids };
            }
        }
        let mut map: HashMap<Vec<i64>, u32> = HashMap::new();
        for row in rows {
            row_id(*map.entry(row.to_vec()).or_insert_with(&mut fresh));
        }
        Index::Hash { width, map }
    }

    /// The id of the key whose coordinate `j` is `coord(j)`; `None` when
    /// a coordinate is `None` (an overflow) or the key is not indexed.
    pub(crate) fn get(&self, coord: impl Fn(usize) -> Option<i64>) -> Option<usize> {
        let id = match self {
            Index::Dense { lo, extents, ids } => ids[rank(lo, extents, coord)?],
            Index::Hash { width, map } => {
                let key = (0..*width).map(coord).collect::<Option<Vec<i64>>>()?;
                *map.get(&key)?
            }
        };
        (id != NONE).then_some(id as usize)
    }
}

/// The row-major rank of a key in the box `lo + [0, extents)`, or `None`
/// outside it.
fn rank(lo: &[i64], extents: &[i64], coord: impl Fn(usize) -> Option<i64>) -> Option<usize> {
    let mut r = 0usize;
    for (j, (&l, &e)) in lo.iter().zip(extents).enumerate() {
        let x = coord(j)?.checked_sub(l)?;
        if !(0..e).contains(&x) {
            return None;
        }
        r = r * e as usize + x as usize;
    }
    Some(r)
}

/// The keys' bounding box as its low corner, extents and volume, or
/// `None` when an extent or the volume overflows.
fn bounding_box<'a>(
    rows: impl Iterator<Item = &'a [i64]>,
    width: usize,
) -> Option<(Vec<i64>, Vec<i64>, u64)> {
    let mut lo = vec![i64::MAX; width];
    let mut hi = vec![i64::MIN; width];
    for row in rows {
        for (j, &x) in row.iter().enumerate() {
            lo[j] = lo[j].min(x);
            hi[j] = hi[j].max(x);
        }
    }
    let mut volume = 1u64;
    let mut extents = Vec::with_capacity(width);
    for (&l, &h) in lo.iter().zip(&hi) {
        let e = h.checked_sub(l)?.checked_add(1)?;
        volume = volume.checked_mul(e as u64)?;
        extents.push(e);
    }
    Some((lo, extents, volume))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build<'a>(
        rows: impl Iterator<Item = &'a [i64]> + Clone,
        width: usize,
        points: usize,
    ) -> (Index, Vec<u32>) {
        let mut ids = Vec::new();
        let index = Index::build(rows, width, points, |id| ids.push(id));
        (index, ids)
    }

    #[test]
    fn dense_when_the_box_is_full() {
        let keys = [0, 0, 0, 1, 1, 0, 1, 1];
        let (index, ids) = build(keys.chunks(2), 2, 4);
        assert!(matches!(index, Index::Dense { .. }));
        assert_eq!(ids, vec![0, 1, 2, 3]);
        let at = |a: i64, b: i64| index.get(|j| Some([a, b][j]));
        assert_eq!(at(1, 0), Some(2));
        assert_eq!(at(2, 0), None);
        assert_eq!(at(-1, 0), None);
        assert_eq!(index.get(|_| None), None);
    }

    #[test]
    fn hash_when_the_box_is_sparse() {
        let keys = [0, 0, 100, 100];
        let (index, ids) = build(keys.chunks(2), 2, 2);
        assert!(matches!(index, Index::Hash { .. }));
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(index.get(|j| Some([100, 100][j])), Some(1));
        assert_eq!(index.get(|j| Some([50, 50][j])), None);
    }

    #[test]
    fn repeated_keys_share_their_first_id() {
        let keys = [3, 1, 3, 2, 1];
        let (index, ids) = build(keys.chunks(1), 1, 5);
        assert_eq!(ids, vec![0, 1, 0, 2, 1]);
        assert_eq!(index.get(|_| Some(2)), Some(2));
    }

    #[test]
    fn zero_width_keys_are_one_key() {
        let (index, ids) = build(std::iter::repeat_n(&[][..], 3), 0, 3);
        assert_eq!(ids, vec![0, 0, 0]);
        assert_eq!(index.get(|_| unreachable!()), Some(0));
    }
}
