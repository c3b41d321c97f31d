//! A processor's ready set: the simulator's dispatch queue.
//!
//! Tasks are dispatched in `(step, id)` order, so a ready set holds each
//! task by its rank in that order ([`Program::step_ranks`]) and hands
//! out the least rank first. The ranks are global to the program, so a
//! crash remap moves ready tasks from one processor's set to another's
//! unchanged.
//!
//! [`Program::step_ranks`]: crate::Program::step_ranks

/// A set of ranks below a fixed bound, as a hierarchical bitset: bit
/// `b` of level-0 word `i` holds rank `64·i + b`, and bit `b` of
/// level-`l` word `i` is set iff level-`(l − 1)` word `64·i + b` is
/// nonzero. The top level is one word. Insert and pop-min touch one
/// word per level, six levels at most for `u32` ranks. A set holds
/// nothing until [`reset`](Self::reset) sizes it.
#[derive(Debug, Default)]
pub(crate) struct RankSet {
    /// Every level's words, level 0 first.
    words: Vec<u64>,
    /// Where each level starts in `words`; entry `depth − 1` is the top
    /// level's one word.
    starts: [usize; 6],
    depth: usize,
}

impl RankSet {
    /// Empty the set and size it for ranks below `bound`, keeping its
    /// allocation.
    pub(crate) fn reset(&mut self, bound: usize) {
        let mut total = 0;
        let mut len = bound.div_ceil(64).max(1);
        self.depth = 0;
        loop {
            self.starts[self.depth] = total;
            self.depth += 1;
            total += len;
            if len == 1 {
                break;
            }
            len = len.div_ceil(64);
        }
        self.words.clear();
        self.words.resize(total, 0);
    }

    /// `true` iff the set holds no rank.
    pub(crate) fn is_empty(&self) -> bool {
        self.depth == 0 || self.words[self.starts[self.depth - 1]] == 0
    }

    /// Add `rank`, which must be below the bound and not in the set.
    #[inline]
    pub(crate) fn insert(&mut self, rank: u32) {
        let mut i = rank as usize;
        for &start in &self.starts[..self.depth] {
            let word = &mut self.words[start + (i >> 6)];
            let was = *word;
            *word = was | 1 << (i & 63);
            if was != 0 {
                // The levels above already mark this word nonempty.
                return;
            }
            i >>= 6;
        }
    }

    /// Remove and return the least rank in the set.
    #[inline]
    pub(crate) fn pop_min(&mut self) -> Option<u32> {
        if self.is_empty() {
            return None;
        }
        let mut i = 0;
        for &start in self.starts[..self.depth].iter().rev() {
            i = i << 6 | self.words[start + i].trailing_zeros() as usize;
        }
        let rank = i as u32;
        for &start in &self.starts[..self.depth] {
            let word = &mut self.words[start + (i >> 6)];
            *word &= !(1 << (i & 63));
            if *word != 0 {
                break;
            }
            i >>= 6;
        }
        Some(rank)
    }

    /// Move every rank of `self` into `other`.
    pub(crate) fn drain_into(&mut self, other: &mut RankSet) {
        while let Some(rank) = self.pop_min() {
            other.insert(rank);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_obs::SplitMix64;
    use loom_partition::Steps;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Random pushes, pops and whole-set moves over three processors'
    /// ready sets, each checked against the `(step, id)` binary heap the
    /// ready sets replaced.
    fn check_against_heaps(n: usize, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        // Steps with many ties, some negative.
        let span = (n as u64 / 3).max(2);
        let step: Vec<i64> = (0..n)
            .map(|_| rng.below(span) as i64 - span as i64 / 2)
            .collect();
        let steps = Steps::new(step.clone());
        let (order, ranks) = (steps.order(), steps.ranks());
        let mut sets: Vec<RankSet> = (0..3).map(|_| RankSet::default()).collect();
        for s in &mut sets {
            s.reset(n);
        }
        let mut heaps: Vec<BinaryHeap<Reverse<(i64, u32)>>> = vec![BinaryHeap::new(); 3];
        // Tasks not in any set, in a shuffled order.
        let mut outside: Vec<u32> = (0..n as u32).collect();
        for i in (1..outside.len()).rev() {
            outside.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for _ in 0..4 * n {
            let p = rng.below(3) as usize;
            if rng.below(n as u64 / 2 + 1) == 0 {
                // About eight whole-set moves per run, as a crash remap
                // makes.
                let q = (p + 1 + rng.below(2) as usize) % 3;
                let mut from = std::mem::take(&mut sets[p]);
                from.drain_into(&mut sets[q]);
                sets[p] = from;
                let moved = std::mem::take(&mut heaps[p]);
                heaps[q].extend(moved);
            } else if rng.below(20) <= 10 {
                if let Some(t) = outside.pop() {
                    sets[p].insert(ranks[t as usize]);
                    heaps[p].push(Reverse((step[t as usize], t)));
                }
            } else {
                let got = sets[p].pop_min().map(|r| order[r as usize]);
                let want = heaps[p].pop().map(|Reverse((_, t))| t);
                assert_eq!(got, want, "n={n} seed={seed}");
                outside.extend(got);
            }
            for (s, h) in sets.iter().zip(&heaps) {
                assert_eq!(s.is_empty(), h.is_empty());
            }
        }
        for (s, h) in sets.iter_mut().zip(&mut heaps) {
            while let Some(Reverse((_, t))) = h.pop() {
                assert_eq!(s.pop_min().map(|r| order[r as usize]), Some(t));
            }
            assert_eq!(s.pop_min(), None);
        }
    }

    #[test]
    fn ready_sets_pop_in_step_id_order() {
        // Sizes on both sides of one, two and three full levels.
        for (i, n) in [1, 2, 63, 64, 65, 4095, 4096, 4097, 262_143, 262_145]
            .into_iter()
            .enumerate()
        {
            check_against_heaps(n, 0x5eed + i as u64);
        }
    }

    #[test]
    fn reset_empties_a_used_set() {
        let mut s = RankSet::default();
        s.reset(5000);
        for r in [4999, 0, 64, 4096] {
            s.insert(r);
        }
        s.reset(70);
        assert!(s.is_empty());
        s.insert(69);
        s.insert(3);
        assert_eq!(
            (s.pop_min(), s.pop_min(), s.pop_min()),
            (Some(3), Some(69), None)
        );
    }
}
