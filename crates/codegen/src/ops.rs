//! The SPMD operation set and program container.

use loom_loopir::Point;

/// A message tag: the producing iteration and the dependence index it
/// satisfies. Tags make receives order-independent across channels, so
/// the interpreter's mailbox matching is exact.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag {
    /// Id of the source iteration.
    pub src_point: u32,
    /// Index into the nest's dependence-vector set.
    pub dep: u16,
}

/// One SPMD operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Block until the message with this tag arrives from `from`, then
    /// install its payload elements into local memory.
    Recv {
        /// Sending processor.
        from: u32,
        /// Message tag.
        tag: Tag,
    },
    /// Execute one iteration of the nest body against local memory.
    Compute {
        /// Id of the iteration (index into the enumerated space).
        point: u32,
    },
    /// Package the elements associated with dependence `tag.dep` at the
    /// just-computed iteration and send them to `to`.
    Send {
        /// Receiving processor.
        to: u32,
        /// Message tag.
        tag: Tag,
    },
}

impl Op {
    /// The mailbox slot this op touches when executed on processor
    /// `proc`: `(destination, tag)` for a `Send`, `(proc, tag)` for a
    /// `Recv`, nothing for a `Compute`. Two ops conflict exactly when
    /// their keys coincide (the interpreter's mailbox is a map over
    /// this key), which is the dependency relation the interleaving
    /// engine's partial-order reduction is built on.
    pub fn mailbox_key(&self, proc: u32) -> Option<(u32, Tag)> {
        match *self {
            Op::Send { to, tag } => Some((to, tag)),
            Op::Recv { from: _, tag } => Some((proc, tag)),
            Op::Compute { .. } => None,
        }
    }

    /// A short lowercase kind name (`"recv"` / `"compute"` / `"send"`),
    /// for diagnostics and trace rendering.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Recv { .. } => "recv",
            Op::Compute { .. } => "compute",
            Op::Send { .. } => "send",
        }
    }
}

/// A complete SPMD program: one op list per processor, plus the shared
/// iteration table.
#[derive(Clone, Debug)]
pub struct SpmdProgram {
    /// The enumerated iteration points (ids index into this).
    pub points: Vec<Point>,
    /// Per-processor operation lists, in program order.
    pub per_proc: Vec<Vec<Op>>,
}

impl SpmdProgram {
    /// Number of processors.
    pub fn num_procs(&self) -> usize {
        self.per_proc.len()
    }

    /// Total number of `Compute` ops (must equal the iteration count).
    pub fn num_computes(&self) -> usize {
        self.per_proc
            .iter()
            .flatten()
            .filter(|op| matches!(op, Op::Compute { .. }))
            .count()
    }

    /// Total number of messages (Send ops).
    pub fn num_messages(&self) -> usize {
        self.per_proc
            .iter()
            .flatten()
            .filter(|op| matches!(op, Op::Send { .. }))
            .count()
    }

    /// `true` iff no mailbox key is used by more than one `Send` or
    /// more than one `Recv` anywhere in the program. Programs
    /// `loom-codegen` emits always satisfy this (each tag names one
    /// producing iteration and one dependence), and it is the
    /// precondition for the interleaving engine's protocol-line
    /// batching: under unique keys, co-enabled transitions on distinct
    /// processors touch distinct mailbox slots and therefore commute.
    pub fn unique_tags(&self) -> bool {
        use std::collections::BTreeMap;
        let mut sends: BTreeMap<(u32, Tag), u32> = BTreeMap::new();
        let mut recvs: BTreeMap<(u32, Tag), u32> = BTreeMap::new();
        for (p, ops) in self.per_proc.iter().enumerate() {
            for op in ops {
                match *op {
                    Op::Send { to, tag } => *sends.entry((to, tag)).or_insert(0) += 1,
                    Op::Recv { from: _, tag } => *recvs.entry((p as u32, tag)).or_insert(0) += 1,
                    Op::Compute { .. } => {}
                }
            }
        }
        sends.values().all(|&n| n <= 1) && recvs.values().all(|&n| n <= 1)
    }

    /// The point ids processor `p` computes, in program order.
    pub fn computes_of(&self, p: usize) -> impl Iterator<Item = u32> + '_ {
        self.per_proc[p].iter().filter_map(|op| match op {
            Op::Compute { point } => Some(*point),
            _ => None,
        })
    }

    /// Structural sanity: every `Send` has exactly one matching `Recv`
    /// on the target processor and vice versa. Returns mismatched tags.
    pub fn unmatched_messages(&self) -> Vec<Tag> {
        use std::collections::BTreeMap;
        let mut sends: BTreeMap<(u32, Tag), i64> = BTreeMap::new();
        for (p, ops) in self.per_proc.iter().enumerate() {
            for op in ops {
                match *op {
                    Op::Send { to, tag } => *sends.entry((to, tag)).or_insert(0) += 1,
                    Op::Recv { from: _, tag } => *sends.entry((p as u32, tag)).or_insert(0) -= 1,
                    Op::Compute { .. } => {}
                }
            }
        }
        sends
            .into_iter()
            .filter(|&(_, n)| n != 0)
            .map(|((_, tag), _)| tag)
            .collect()
    }

    /// The deterministic round-robin, run-to-block driver: each
    /// processor in turn runs `step(p, op)` on its next ops until `step`
    /// reports it blocked (`Ok(false)`: a `Recv` whose message is not
    /// there yet); passes repeat until one makes no progress. What a
    /// step does — values, vector clocks — is the caller's. Returns the
    /// final program counters: a processor with `pcs[p]` short of its
    /// op count is blocked forever on that `Recv` — a deadlock.
    pub fn round_robin<E>(
        &self,
        mut step: impl FnMut(usize, &Op) -> Result<bool, E>,
    ) -> Result<Vec<usize>, E> {
        let mut pcs = vec![0usize; self.num_procs()];
        loop {
            let mut progressed = false;
            for (p, ops) in self.per_proc.iter().enumerate() {
                while let Some(op) = ops.get(pcs[p]) {
                    if !step(p, op)? {
                        break;
                    }
                    pcs[p] += 1;
                    progressed = true;
                }
            }
            if !progressed {
                return Ok(pcs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_matching() {
        let t = Tag {
            src_point: 0,
            dep: 1,
        };
        let prog = SpmdProgram {
            points: vec![vec![0], vec![1]],
            per_proc: vec![
                vec![Op::Compute { point: 0 }, Op::Send { to: 1, tag: t }],
                vec![Op::Recv { from: 0, tag: t }, Op::Compute { point: 1 }],
            ],
        };
        assert_eq!(prog.num_procs(), 2);
        assert_eq!(prog.num_computes(), 2);
        assert_eq!(prog.num_messages(), 1);
        assert!(prog.unmatched_messages().is_empty());
    }

    #[test]
    fn mailbox_keys_and_uniqueness() {
        let t = Tag {
            src_point: 0,
            dep: 1,
        };
        let send = Op::Send { to: 1, tag: t };
        let recv = Op::Recv { from: 0, tag: t };
        let comp = Op::Compute { point: 0 };
        assert_eq!(send.mailbox_key(0), Some((1, t)));
        assert_eq!(recv.mailbox_key(1), Some((1, t)));
        assert_eq!(comp.mailbox_key(0), None);
        assert_eq!(send.kind(), "send");
        let mut prog = SpmdProgram {
            points: vec![vec![0], vec![1]],
            per_proc: vec![
                vec![comp.clone(), send.clone()],
                vec![recv, Op::Compute { point: 1 }],
            ],
        };
        assert!(prog.unique_tags());
        assert_eq!(prog.computes_of(0).collect::<Vec<_>>(), vec![0]);
        prog.per_proc[0].push(send);
        assert!(!prog.unique_tags());
    }

    #[test]
    fn unmatched_detected() {
        let t = Tag {
            src_point: 3,
            dep: 0,
        };
        let prog = SpmdProgram {
            points: vec![vec![0]],
            per_proc: vec![vec![Op::Send { to: 1, tag: t }], vec![]],
        };
        assert_eq!(prog.unmatched_messages(), vec![t]);
    }
}
