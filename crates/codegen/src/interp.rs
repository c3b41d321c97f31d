//! The one stepping core for generated SPMD programs, and the two
//! deterministic schedulers over it.
//!
//! `step` is the only definition of what an op does. A run builds one
//! slot layout from the nest and the iteration table (array ids, each
//! array's slot space, every access resolved; see the `store` module),
//! and each processor owns a private store of values and writer
//! versions indexed by slot. A `Recv`/`Compute`/`Send` reads and writes
//! that store against a `Mailbox` — the one thing executors differ in.
//! [`run`] (round-robin, run-to-block, through
//! [`crate::SpmdProgram::round_robin`]) and [`run_schedule`] (an explicit
//! replayed op order) share an in-memory mailbox where an absent
//! message reports the receiver blocked; [`crate::threads`] runs each
//! processor on a thread of its own (processor 0 on the caller's) over
//! channels whose receives poll, then block. Every scheduler
//! returns the same [`RunError`] for the same fault, and gathers the
//! stores into one [`Memory`] by the largest writer version.

use crate::gen::Codegen;
use crate::ops::{Op, Tag};
use crate::store::{Layout, PayloadItem, Store};
use loom_exec::memory::Memory;
use loom_loopir::LoopNest;
use std::collections::HashMap;

/// An execution failure, from any of the three executors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// No processor can make progress; lists each blocked processor and
    /// the tag it waits for. The threaded runner reports the receive
    /// whose channel closed or timed out.
    Deadlock {
        /// `(processor, tag waited on)` for every blocked processor.
        blocked: Vec<(u32, Tag)>,
    },
    /// A `Compute` op or a `Send` tag names a point id outside the
    /// iteration table, or one whose table entry lies outside the
    /// iteration space's bounding box.
    BadPoint {
        /// The offending id.
        id: u32,
    },
    /// A `Send` tag names a dependence with no payload spec.
    UnknownDependence {
        /// The offending dependence index.
        dep: u16,
    },
    /// A `Send` targets a processor the program does not have.
    UnknownProcessor {
        /// The offending destination.
        to: u32,
    },
    /// A replayed schedule ([`run_schedule`]) named a processor that
    /// does not exist or has no ops left at that step.
    BadSchedule {
        /// Index into the schedule where replay failed.
        at: usize,
    },
    /// A replayed schedule ended before every processor finished.
    IncompleteSchedule {
        /// The first unfinished processor.
        proc: u32,
    },
    /// A processor's thread in the threaded runner panicked: a scoped
    /// worker's, or the caller's while it ran processor 0.
    WorkerPanicked {
        /// The processor whose thread died.
        proc: u32,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Deadlock { blocked } => write!(f, "SPMD deadlock; blocked: {blocked:?}"),
            RunError::BadPoint { id } => write!(f, "op names unknown point {id}"),
            RunError::UnknownDependence { dep } => write!(f, "send names unknown dependence {dep}"),
            RunError::UnknownProcessor { to } => write!(f, "send targets nonexistent P{to}"),
            RunError::BadSchedule { at } => write!(f, "schedule step {at} has no op to run"),
            RunError::IncompleteSchedule { proc } => write!(f, "schedule left P{proc} unfinished"),
            RunError::WorkerPanicked { proc } => write!(f, "worker P{proc} panicked"),
        }
    }
}

impl std::error::Error for RunError {}

/// What a run produced.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The global result: every element taken from the processor that
    /// performed the globally last write to it.
    pub gathered: Memory,
    /// Messages delivered.
    pub messages: u64,
    /// Element values transferred.
    pub words: u64,
}

/// What every step of one execution reads.
pub(crate) struct Ctx<'a> {
    pub(crate) cg: &'a Codegen,
    pub(crate) layout: &'a Layout<'a>,
    pub(crate) init: &'a dyn Fn(&str, &[i64]) -> f64,
}

impl<'a> Ctx<'a> {
    fn point(&self, id: u32) -> Result<&'a [i64], RunError> {
        self.cg
            .program
            .points
            .get(id as usize)
            .filter(|pt| self.layout.covers(pt))
            .ok_or(RunError::BadPoint { id })
    }
}

/// Where a processor's messages go and come from.
pub(crate) trait Mailbox {
    /// Deliver `items`, tagged `tag`, to processor `to`.
    fn send(&mut self, to: u32, tag: Tag, items: Vec<PayloadItem>);
    /// Take the message tagged `tag` addressed to processor `p`;
    /// `Ok(None)` means it has not arrived and `p` is blocked.
    fn recv(&mut self, p: u32, tag: Tag) -> Result<Option<Vec<PayloadItem>>, RunError>;
}

/// Execute `op` as processor `p` against its store. `Ok(false)` means
/// `p` is blocked on a `Recv` whose message `mail` does not have yet;
/// the op did not run.
pub(crate) fn step(
    store: &mut Store,
    cx: &Ctx,
    p: usize,
    op: &Op,
    mail: &mut impl Mailbox,
) -> Result<bool, RunError> {
    match *op {
        Op::Recv { from: _, tag } => {
            let Some(items) = mail.recv(p as u32, tag)? else {
                return Ok(false);
            };
            for item in &items {
                store.install(item);
            }
        }
        Op::Compute { point } => {
            let pt = cx.point(point)?;
            for st in cx.layout.stmts() {
                cx.layout.execute(st, store, pt, point, cx.init);
            }
        }
        Op::Send { to, tag } => {
            let pt = cx.point(tag.src_point)?;
            let Some(parts) = cx.layout.payload(tag.dep) else {
                return Err(RunError::UnknownDependence { dep: tag.dep });
            };
            if to as usize >= cx.cg.program.num_procs() {
                return Err(RunError::UnknownProcessor { to });
            }
            let items = parts
                .iter()
                .map(|part| cx.layout.word(part, store, pt, tag.src_point, cx.init))
                .collect();
            mail.send(to, tag, items);
        }
    }
    Ok(true)
}

/// The deterministic schedulers' mailbox: a message waits under
/// `(destination, tag)` until received.
#[derive(Default)]
struct Slots {
    waiting: HashMap<(u32, Tag), Vec<PayloadItem>>,
    messages: u64,
    words: u64,
}

impl Mailbox for Slots {
    fn send(&mut self, to: u32, tag: Tag, items: Vec<PayloadItem>) {
        self.messages += 1;
        self.words += items.len() as u64;
        self.waiting.insert((to, tag), items);
    }

    fn recv(&mut self, p: u32, tag: Tag) -> Result<Option<Vec<PayloadItem>>, RunError> {
        Ok(self.waiting.remove(&(p, tag)))
    }
}

/// Every processor of one deterministic run, plus their mailbox.
struct Machine<'a> {
    cx: Ctx<'a>,
    stores: Vec<Store>,
    slots: Slots,
}

impl<'a> Machine<'a> {
    fn new(cx: Ctx<'a>) -> Machine<'a> {
        let stores = (0..cx.cg.program.num_procs())
            .map(|_| cx.layout.store())
            .collect();
        Machine {
            cx,
            stores,
            slots: Slots::default(),
        }
    }

    fn step(&mut self, p: usize, op: &Op) -> Result<bool, RunError> {
        step(&mut self.stores[p], &self.cx, p, op, &mut self.slots)
    }

    /// The finished run: the stores' gather and the traffic.
    fn finish(self) -> RunResult {
        RunResult {
            gathered: self.cx.layout.gather(&self.stores),
            messages: self.slots.messages,
            words: self.slots.words,
        }
    }
}

/// Run a generated SPMD program to completion under the deterministic
/// round-robin, run-to-block scheduler: a run either completes
/// identically every time or reports the same deadlock.
pub fn run(
    nest: &LoopNest,
    cg: &Codegen,
    init: &dyn Fn(&str, &[i64]) -> f64,
) -> Result<RunResult, RunError> {
    let prog = &cg.program;
    let layout = Layout::new(nest, cg);
    let mut m = Machine::new(Ctx {
        cg,
        layout: &layout,
        init,
    });
    let pcs = prog.round_robin(|p, op| m.step(p, op))?;
    let blocked: Vec<(u32, Tag)> = pcs
        .iter()
        .enumerate()
        .filter_map(|(p, &pc)| prog.per_proc[p].get(pc)?.mailbox_key(p as u32))
        .collect();
    if !blocked.is_empty() {
        return Err(RunError::Deadlock { blocked });
    }
    Ok(m.finish())
}

/// Run a generated SPMD program under an explicit global op order:
/// `schedule[k]` names the processor whose next op executes at step
/// `k`. Mailbox matching, payload versioning, and the final gather are
/// identical to [`run`] — only the interleaving differs. This is the
/// replay hook the interleaving engine (`loom-check` rule `LC014`)
/// uses to compare the final memory state across explored schedules
/// and against the sequential oracle.
///
/// Errors: [`RunError::Deadlock`] if a scheduled `Recv` has no
/// message, [`RunError::BadSchedule`] if a step names a processor
/// with nothing left to run, and [`RunError::IncompleteSchedule`]
/// if the schedule ends early.
pub fn run_schedule(
    nest: &LoopNest,
    cg: &Codegen,
    schedule: &[u32],
    init: &dyn Fn(&str, &[i64]) -> f64,
) -> Result<RunResult, RunError> {
    let prog = &cg.program;
    let layout = Layout::new(nest, cg);
    let mut m = Machine::new(Ctx {
        cg,
        layout: &layout,
        init,
    });
    let mut pcs = vec![0usize; prog.num_procs()];
    for (at, &proc) in schedule.iter().enumerate() {
        let p = proc as usize;
        let Some(op) = pcs.get(p).and_then(|&pc| prog.per_proc[p].get(pc)) else {
            return Err(RunError::BadSchedule { at });
        };
        if !m.step(p, op)? {
            let blocked = op.mailbox_key(proc).into_iter().collect();
            return Err(RunError::Deadlock { blocked });
        }
        pcs[p] += 1;
    }
    if let Some(p) = (0..pcs.len()).find(|&p| pcs[p] < prog.per_proc[p].len()) {
        return Err(RunError::IncompleteSchedule { proc: p as u32 });
    }
    Ok(m.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, CodegenError};
    use crate::threads::run_threaded_gathered;
    use loom_exec::memory::address_hash_init;
    use loom_exec::{equivalent, sequential};
    use loom_hyperplane::TimeFn;
    use loom_loopir::Point;
    use loom_partition::{partition, PartitionConfig};

    fn check_workload(w: &loom_workloads::Workload, assignment: &[usize], procs: usize) {
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        assert_eq!(assignment.len(), p.num_blocks(), "{}", w.nest.name());
        let cg = generate(&w.nest, &p, assignment, procs).expect("codegen-able");
        let result = run(&w.nest, &cg, &address_hash_init)
            .unwrap_or_else(|e| panic!("{}: {e}", w.nest.name()));
        let serial = sequential(&w.nest, &address_hash_init);
        assert_eq!(
            equivalent(&result.gathered, &serial),
            Ok(()),
            "{} diverged",
            w.nest.name()
        );
    }

    #[test]
    fn l1_spmd_matches_oracle() {
        let w = loom_workloads::l1::workload(4);
        check_workload(&w, &[0, 1, 1, 0], 2);
    }

    #[test]
    fn matvec_spmd_matches_oracle() {
        let w = loom_workloads::matvec::workload(8);
        // 8 blocks onto 4 procs round-robin (worst-case scatter).
        let assignment: Vec<usize> = (0..8).map(|b| b % 4).collect();
        check_workload(&w, &assignment, 4);
    }

    #[test]
    fn matmul_spmd_matches_oracle() {
        let w = loom_workloads::matmul::workload(4);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let assignment: Vec<usize> = (0..p.num_blocks()).map(|b| b % 4).collect();
        let cg = generate(&w.nest, &p, &assignment, 4).unwrap();
        let result = run(&w.nest, &cg, &address_hash_init).unwrap();
        let serial = sequential(&w.nest, &address_hash_init);
        assert_eq!(equivalent(&result.gathered, &serial), Ok(()));
        assert!(result.messages > 0);
        assert!(result.words >= result.messages);
    }

    #[test]
    fn deadlock_detected_on_corrupted_program() {
        // Remove one Send from a valid program: its Recv must block and
        // be reported.
        let w = loom_workloads::l1::workload(4);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let mut cg = generate(&w.nest, &p, &[0, 1, 1, 0], 2).unwrap();
        for ops in &mut cg.program.per_proc {
            if let Some(pos) = ops.iter().position(|o| matches!(o, Op::Send { .. })) {
                ops.remove(pos);
                break;
            }
        }
        let err = run(&w.nest, &cg, &|_, _| 0.0).unwrap_err();
        assert!(matches!(err, RunError::Deadlock { .. }));
    }

    /// The driver's own round-robin order, recorded through the stepping
    /// core. On a failing program it ends with the failing step.
    fn round_robin_schedule(nest: &LoopNest, cg: &Codegen) -> Vec<u32> {
        let layout = Layout::new(nest, cg);
        let mut m = Machine::new(Ctx {
            cg,
            layout: &layout,
            init: &address_hash_init,
        });
        let mut schedule = Vec::new();
        let _ = cg.program.round_robin(|p, op| {
            schedule.push(p as u32);
            let ran = m.step(p, op)?;
            if !ran {
                schedule.pop();
            }
            Ok::<_, RunError>(ran)
        });
        schedule
    }

    #[test]
    fn replayed_schedule_matches_free_run() {
        let w = loom_workloads::l1::workload(4);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let cg = generate(&w.nest, &p, &[0, 1, 1, 0], 2).unwrap();
        // The round-robin run-to-block order, replayed explicitly, must
        // reproduce the free run bit for bit.
        let schedule = round_robin_schedule(&w.nest, &cg);
        let free = run(&w.nest, &cg, &address_hash_init).unwrap();
        let replayed = run_schedule(&w.nest, &cg, &schedule, &address_hash_init).unwrap();
        assert_eq!(equivalent(&replayed.gathered, &free.gathered), Ok(()));
        assert_eq!(replayed.messages, free.messages);
    }

    /// Nests beyond the builtins, with their dependence vectors and a
    /// legal Π: `.loom` samples (`vardist_scale` writes `A[3*i]`, a
    /// scaled box), a negative subscript coefficient, and a nest mixing
    /// a box-indexed array with a hash-indexed one.
    fn extra_nests() -> Vec<(Vec<Point>, Vec<i64>, LoopNest)> {
        use loom_hyperplane::{find_optimal, SearchConfig};
        use loom_loopir::deps::DepOptions;
        use loom_loopir::{parse_nest, uniformize, Access, Aff, IterSpace, Stmt};
        let samples = [
            ("heat1d", include_str!("../../../samples/heat1d.loom")),
            (
                "wavefront_dp",
                include_str!("../../../samples/wavefront_dp.loom"),
            ),
            ("strided", include_str!("../../../samples/strided.loom")),
            (
                "vardist_scale",
                include_str!("../../../samples/vardist_scale.loom"),
            ),
        ];
        let mut nests: Vec<LoopNest> = samples
            .iter()
            .map(|(name, src)| parse_nest(name, src).unwrap())
            .collect();
        let sq = || IterSpace::rect(&[8, 8]).unwrap();
        // A[i+1, 7-j] = A[i, 7-j] + B[-j]
        let back =
            |a: &str, c| Access::new(a, vec![Aff::new(vec![1, 0], c), Aff::new(vec![0, -1], 7)]);
        nests.push(
            LoopNest::new(
                "negative",
                sq(),
                vec![Stmt::assign(
                    back("A", 1),
                    vec![
                        back("A", 0),
                        Access::new("B", vec![Aff::new(vec![0, -1], 0)]),
                    ],
                )],
            )
            .unwrap(),
        );
        // A[i+1, j] = A[i, j]; S[i+1, 10^8 j] = S[i, 10^8 j] + A[i+1, j]
        let sparse = |c| {
            Access::new(
                "S",
                vec![Aff::new(vec![1, 0], c), Aff::new(vec![0, 100_000_000], 0)],
            )
        };
        nests.push(
            LoopNest::new(
                "mixed",
                sq(),
                vec![
                    Stmt::assign(
                        Access::simple("A", 2, &[(0, 1), (1, 0)]),
                        vec![Access::simple("A", 2, &[(0, 0), (1, 0)])],
                    ),
                    Stmt::assign(
                        sparse(1),
                        vec![sparse(0), Access::simple("A", 2, &[(0, 1), (1, 0)])],
                    ),
                ],
            )
            .unwrap(),
        );
        nests
            .into_iter()
            .map(|nest| {
                let deps = uniformize(&nest, DepOptions::default()).unwrap().vectors;
                let pi = find_optimal(&deps, nest.space(), SearchConfig::default()).unwrap();
                let pi = pi.coeffs().to_vec();
                (deps, pi, nest)
            })
            .collect()
    }

    #[test]
    fn executors_agree_on_every_builtin() {
        let builtins = loom_workloads::all_default()
            .into_iter()
            .map(|w| (w.verified_deps(), w.pi, w.nest));
        for (deps, pi, nest) in builtins.chain(extra_nests()) {
            let name = nest.name();
            let p = partition(
                nest.space().clone(),
                deps,
                TimeFn::new(pi),
                &PartitionConfig::default(),
            )
            .unwrap();
            let serial = sequential(&nest, &address_hash_init);
            for procs in [1, 2, 3, 4] {
                let assignment: Vec<usize> = (0..p.num_blocks()).map(|b| b % procs).collect();
                // conv2d accumulates y over a 2-D tap lattice: value
                // routing is (correctly) refused rather than mis-computed.
                let cg = match generate(&nest, &p, &assignment, procs) {
                    Err(CodegenError::MultiDimensionalAccumulation { .. }) if name == "conv2d" => {
                        continue
                    }
                    Ok(cg) if name != "conv2d" => cg,
                    other => panic!("{name}: unexpected {:?}", other.map(|_| ())),
                };
                if name == "mixed" {
                    let layout = Layout::new(&nest, &cg);
                    assert_eq!(layout.hashed(), ["S"]);
                }
                let at = format!("{name} on {procs} procs");
                let free = run(&nest, &cg, &address_hash_init)
                    .unwrap_or_else(|e| panic!("{at}: run: {e}"));
                let schedule = round_robin_schedule(&nest, &cg);
                let replayed = run_schedule(&nest, &cg, &schedule, &address_hash_init)
                    .unwrap_or_else(|e| panic!("{at}: run_schedule: {e}"));
                let threaded = run_threaded_gathered(&nest, &cg, &address_hash_init)
                    .unwrap_or_else(|e| panic!("{at}: threads: {e}"));
                for (executor, gathered) in [
                    ("run", &free.gathered),
                    ("run_schedule", &replayed.gathered),
                    ("run_threaded_gathered", &threaded),
                ] {
                    assert_eq!(
                        equivalent(gathered, &serial),
                        Ok(()),
                        "{at}: {executor} diverged"
                    );
                }
                assert_eq!(
                    (replayed.messages, replayed.words),
                    (free.messages, free.words),
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn corrupted_ops_fail_alike_on_every_executor() {
        let w = loom_workloads::l1::workload(4);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let valid = generate(&w.nest, &p, &[0, 1, 1, 0], 2).unwrap();
        let n_points = valid.program.points.len() as u32;
        // (what, how the program is corrupted, expected error)
        type Corrupt = fn(&mut [Vec<Op>], u32);
        let cases: [(&str, Corrupt, RunError); 4] = [
            (
                "compute of a point outside the table, last on P0",
                |ops, n| ops[0].push(Op::Compute { point: n }),
                RunError::BadPoint { id: n_points },
            ),
            (
                "the same compute first on P1, so P0 starves",
                |ops, n| ops[1].insert(0, Op::Compute { point: n }),
                RunError::BadPoint { id: n_points },
            ),
            (
                "message for a dependence with no payload spec",
                |ops, _| {
                    let tag = Tag {
                        src_point: 0,
                        dep: 99,
                    };
                    ops[0].push(Op::Send { to: 1, tag });
                    ops[1].push(Op::Recv { from: 0, tag });
                },
                RunError::UnknownDependence { dep: 99 },
            ),
            (
                "send to a processor that does not exist",
                |ops, _| {
                    let tag = Tag {
                        src_point: 0,
                        dep: 0,
                    };
                    ops[0].push(Op::Send { to: 7, tag });
                },
                RunError::UnknownProcessor { to: 7 },
            ),
        ];
        for (what, corrupt, expected) in cases {
            let mut cg = valid.clone();
            corrupt(&mut cg.program.per_proc, n_points);
            let schedule = round_robin_schedule(&w.nest, &cg);
            let init = &address_hash_init;
            let results = [
                ("run", run(&w.nest, &cg, init).err()),
                (
                    "run_schedule",
                    run_schedule(&w.nest, &cg, &schedule, init).err(),
                ),
                (
                    "run_threaded_gathered",
                    run_threaded_gathered(&w.nest, &cg, init).err(),
                ),
            ];
            for (executor, err) in results {
                assert_eq!(err.as_ref(), Some(&expected), "{what}: {executor}");
            }
        }
    }

    #[test]
    fn bad_schedules_are_rejected() {
        let w = loom_workloads::l1::workload(4);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let cg = generate(&w.nest, &p, &[0, 1, 1, 0], 2).unwrap();
        // Too short: every processor still has ops. Schedule one
        // non-blocking op so the failure is the early end, not a
        // blocked recv.
        let p0 = (0..cg.program.num_procs())
            .find(|&p| !matches!(cg.program.per_proc[p].first(), Some(Op::Recv { .. })))
            .expect("some processor starts unblocked") as u32;
        assert!(matches!(
            run_schedule(&w.nest, &cg, &[p0], &address_hash_init),
            Err(RunError::IncompleteSchedule { .. })
        ));
        // Nonexistent processor.
        assert!(matches!(
            run_schedule(&w.nest, &cg, &[9], &address_hash_init),
            Err(RunError::BadSchedule { at: 0 })
        ));
    }

    #[test]
    fn single_proc_trivially_correct() {
        let w = loom_workloads::sor::workload(5, 5);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let cg = generate(&w.nest, &p, &vec![0; p.num_blocks()], 1).unwrap();
        let result = run(&w.nest, &cg, &address_hash_init).unwrap();
        assert_eq!(result.messages, 0);
        let serial = sequential(&w.nest, &address_hash_init);
        assert_eq!(equivalent(&result.gathered, &serial), Ok(()));
    }
}
