//! The simulator's event queue.
//!
//! Events leave in `(time, push order)` order: the earliest time first,
//! and events of one time in the order they were pushed. The engine
//! never schedules an event before the one it is handling, so the queue
//! is monotone, and a radix heap serves it without comparisons between
//! events.

use std::collections::VecDeque;

/// A monotone priority queue of `(time, event)` pairs: a radix heap
/// whose buckets keep push order, so events of equal time leave first
/// in, first out.
///
/// With `last` the time of the latest pop, an event of time `t > last`
/// sits in bucket `⌊log₂(t ⊕ last)⌋`, the highest bit where `t` and
/// `last` differ; events at `last` wait in a FIFO of their own. A pop
/// with that FIFO empty takes the lowest nonempty bucket, advances
/// `last` to its least time and redistributes it into lower buckets.
/// Each event moves at most 64 times, in practice once or twice, and
/// events of equal time always share a bucket, so a redistribution
/// keeps their order.
#[derive(Debug)]
pub(crate) struct EventQueue<E> {
    last: u64,
    /// Events at time `last`, in push order.
    due: VecDeque<(u64, E)>,
    buckets: [Vec<(u64, E)>; 64],
    /// Bit `b` is set iff bucket `b` is nonempty.
    nonempty: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            last: 0,
            due: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            nonempty: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// Empty the queue and restart its clock at 0, keeping its
    /// allocations.
    pub(crate) fn clear(&mut self) {
        self.last = 0;
        self.due.clear();
        for b in &mut self.buckets {
            b.clear();
        }
        self.nonempty = 0;
    }

    /// Schedule `event` at `time`, which must not precede the latest
    /// pop.
    #[inline]
    pub(crate) fn push(&mut self, time: u64, event: E) {
        debug_assert!(time >= self.last, "event at {time} before {}", self.last);
        let x = time ^ self.last;
        if x == 0 {
            self.due.push_back((time, event));
        } else {
            let b = x.ilog2() as usize;
            self.buckets[b].push((time, event));
            self.nonempty |= 1 << b;
        }
    }

    /// Remove and return the earliest event, the first pushed among
    /// equals.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(u64, E)> {
        if let Some(ev) = self.due.pop_front() {
            return Some(ev);
        }
        if self.nonempty == 0 {
            return None;
        }
        let b = self.nonempty.trailing_zeros() as usize;
        self.nonempty &= !(1 << b);
        if self.buckets[b].len() == 1 {
            let ev = self.buckets[b].pop().expect("nonempty");
            self.last = ev.0;
            return Some(ev);
        }
        let mut bucket = std::mem::take(&mut self.buckets[b]);
        self.last = bucket.iter().map(|&(t, _)| t).min().expect("nonempty");
        for (time, event) in bucket.drain(..) {
            self.push(time, event);
        }
        // Hand the emptied bucket's allocation back.
        self.buckets[b] = bucket;
        self.due.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_obs::SplitMix64;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Random interleavings of pushes and pops against a binary heap
    /// ordered by `(time, push sequence)`, with many equal times, near
    /// and far deltas, and an occasional clear.
    #[test]
    fn pops_in_time_then_push_order() {
        let mut rng = SplitMix64::new(0x9e3779b97f4a7c15);
        let mut q = EventQueue::default();
        let mut oracle: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        for round in 0..200_000u64 {
            if round % 50_000 == 49_999 {
                q.clear();
                oracle.clear();
                now = 0;
            }
            if rng.below(100) < 52 {
                let room = u64::MAX - now;
                let delta = match rng.below(10) {
                    0..=2 => 0,
                    3..=6 => rng.below(8),
                    7..=8 => rng.below(1 << 20),
                    _ => rng.below(room.max(1)),
                }
                .min(room);
                seq += 1;
                q.push(now + delta, seq);
                oracle.push(Reverse((now + delta, seq)));
            } else {
                let want = oracle.pop().map(|Reverse(e)| e);
                assert_eq!(q.pop(), want, "round {round}");
                if let Some((t, _)) = want {
                    now = t;
                }
            }
        }
        while let Some(Reverse(e)) = oracle.pop() {
            assert_eq!(q.pop(), Some(e));
        }
        assert_eq!(q.pop(), None);
    }
}
