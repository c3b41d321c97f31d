//! The one stepping core for generated SPMD programs, and the two
//! deterministic schedulers over it.
//!
//! `Processor::step` is the only definition of what an op does: each
//! processor owns a private [`Memory`] plus a version map, and a
//! `Recv`/`Compute`/`Send` reads and writes them against a `Mailbox`
//! — the one thing executors differ in. [`run`] (round-robin,
//! run-to-block, through [`SpmdProgram::round_robin`]) and
//! [`run_schedule`] (an explicit replayed op order) share an in-memory
//! mailbox where an absent message reports the receiver blocked;
//! [`crate::threads`] runs one OS thread per processor over channels
//! that block. Every scheduler returns the same [`RunError`] for the
//! same fault.

use crate::gen::{Codegen, PayloadSpec};
use crate::ops::{Op, SpmdProgram, Tag};
use loom_exec::execute_iteration;
use loom_exec::memory::{Element, Memory};
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
    /// iteration table.
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
    /// A worker thread of the threaded runner panicked.
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
    /// Each processor's private memory after completion.
    pub memories: Vec<Memory>,
    /// The global result: every element taken from the processor that
    /// performed the globally last write to it.
    pub gathered: Memory,
    /// Messages delivered.
    pub messages: u64,
    /// Element values transferred.
    pub words: u64,
}

/// A transferred element: address, value, and — for values the source
/// itself wrote — the id of the writing iteration. The writer id makes
/// installation order-independent: a processor keeps, per element, the
/// version from the *sequentially latest* writer, so when several
/// accumulation dependences deliver the same element (e.g. conv2d's
/// `y` along both `(0,0,1,0)` and `(0,0,0,1)`), a staler copy arriving
/// later can never clobber a newer one. Forwarded *reads* (reuse chains
/// of in-nest-read-only arrays) carry no writer and are installed only
/// into absent slots.
pub type PayloadItem = (Element, f64, Option<u32>);

/// What every step of one execution reads.
pub(crate) struct Ctx<'a> {
    pub(crate) nest: &'a LoopNest,
    pub(crate) cg: &'a Codegen,
    pub(crate) init: &'a dyn Fn(&str, &[i64]) -> f64,
}

impl<'a> Ctx<'a> {
    fn point(&self, id: u32) -> Result<&'a [i64], RunError> {
        let points = &self.cg.program.points;
        points
            .get(id as usize)
            .map(Vec::as_slice)
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

/// One processor's private state: its memory and, per element it
/// wrote or received, the id of the writing iteration (see
/// [`PayloadItem`]).
#[derive(Default)]
pub(crate) struct Processor {
    pub(crate) mem: Memory,
    versions: HashMap<Element, u32>,
}

impl Processor {
    /// Execute `op` as processor `p`. `Ok(false)` means `p` is blocked
    /// on a `Recv` whose message `mail` does not have yet; the op did
    /// not run.
    pub(crate) fn step(
        &mut self,
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
                self.install(items);
            }
            Op::Compute { point } => {
                let pt = cx.point(point)?;
                execute_iteration(cx.nest, pt, &mut self.mem, cx.init);
                for stmt in cx.nest.stmts() {
                    let w = stmt.write();
                    self.versions
                        .insert((w.array().to_string(), w.element_at(pt)), point);
                }
            }
            Op::Send { to, tag } => {
                let pt = cx.point(tag.src_point)?;
                let Some(specs) = cx.cg.payload_specs.get(tag.dep as usize) else {
                    return Err(RunError::UnknownDependence { dep: tag.dep });
                };
                if to as usize >= cx.cg.program.num_procs() {
                    return Err(RunError::UnknownProcessor { to });
                }
                mail.send(to, tag, self.payload(cx, specs, pt, tag.src_point));
            }
        }
        Ok(true)
    }

    /// The payload of the message for one dependence produced at
    /// iteration `point` (id `src_id`), read from this memory.
    fn payload(
        &self,
        cx: &Ctx,
        specs: &[PayloadSpec],
        point: &[i64],
        src_id: u32,
    ) -> Vec<PayloadItem> {
        let mut out = Vec::new();
        for spec in specs {
            match spec {
                PayloadSpec::Write { stmt } => {
                    let w = cx.nest.stmts()[*stmt].write();
                    let e = w.element_at(point);
                    let v = self.mem.read(w.array(), &e, cx.init);
                    out.push(((w.array().to_string(), e), v, Some(src_id)));
                }
                PayloadSpec::Reads { stmt, array } => {
                    for r in cx.nest.stmts()[*stmt].reads() {
                        if r.array() == array {
                            let e = r.element_at(point);
                            let v = self.mem.read(array, &e, cx.init);
                            out.push(((array.clone(), e), v, None));
                        }
                    }
                }
            }
        }
        out
    }

    /// Install received items under the version rule (see
    /// [`PayloadItem`]).
    fn install(&mut self, items: Vec<PayloadItem>) {
        for (key, v, writer) in items {
            match writer {
                Some(w) => {
                    if self.versions.get(&key).is_none_or(|&cur| cur < w) {
                        self.mem.write(&key.0, key.1.clone(), v);
                        self.versions.insert(key, w);
                    }
                }
                None => {
                    if self.mem.get(&key.0, &key.1).is_none() {
                        self.mem.write(&key.0, key.1, v);
                    }
                }
            }
        }
    }
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
    procs: Vec<Processor>,
    slots: Slots,
}

impl<'a> Machine<'a> {
    fn new(cx: Ctx<'a>) -> Machine<'a> {
        let procs = (0..cx.cg.program.num_procs())
            .map(|_| Processor::default())
            .collect();
        Machine {
            cx,
            procs,
            slots: Slots::default(),
        }
    }

    fn step(&mut self, p: usize, op: &Op) -> Result<bool, RunError> {
        self.procs[p].step(&self.cx, p, op, &mut self.slots)
    }

    /// The finished run: per-processor memories plus their gather.
    fn finish(self) -> RunResult {
        let memories: Vec<Memory> = self.procs.into_iter().map(|p| p.mem).collect();
        RunResult {
            gathered: gather(self.cx.nest, &self.cx.cg.program, &memories),
            memories,
            messages: self.slots.messages,
            words: self.slots.words,
        }
    }
}

/// Gather the global result: every element taken from the processor
/// that performed the globally last (sequential-order) write to it.
pub(crate) fn gather(nest: &LoopNest, prog: &SpmdProgram, memories: &[Memory]) -> Memory {
    let mut proc_of_point = vec![0u32; prog.points.len()];
    for p in 0..prog.num_procs() {
        for id in prog.computes_of(p) {
            if let Some(owner) = proc_of_point.get_mut(id as usize) {
                *owner = p as u32;
            }
        }
    }
    let mut last_writer: HashMap<Element, u32> = HashMap::new();
    for (id, pt) in prog.points.iter().enumerate() {
        for stmt in nest.stmts() {
            let e = (
                stmt.write().array().to_string(),
                stmt.write().element_at(pt),
            );
            last_writer.insert(e, proc_of_point[id]);
        }
    }
    let mut gathered = Memory::new();
    for ((array, element), owner) in last_writer {
        if let Some(v) = memories[owner as usize].get(&array, &element) {
            gathered.write(&array, element, v);
        }
    }
    gathered
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
    let mut m = Machine::new(Ctx { nest, cg, init });
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
    let mut m = Machine::new(Ctx { nest, cg, init });
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
        let mut m = Machine::new(Ctx {
            nest,
            cg,
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

    #[test]
    fn executors_agree_on_every_builtin() {
        for w in loom_workloads::all_default() {
            let name = w.nest.name();
            let p = partition(
                w.nest.space().clone(),
                w.verified_deps(),
                TimeFn::new(w.pi.clone()),
                &PartitionConfig::default(),
            )
            .unwrap();
            let serial = sequential(&w.nest, &address_hash_init);
            for procs in [2, 4] {
                let assignment: Vec<usize> = (0..p.num_blocks()).map(|b| b % procs).collect();
                // conv2d accumulates y over a 2-D tap lattice: value
                // routing is (correctly) refused rather than mis-computed.
                let cg = match generate(&w.nest, &p, &assignment, procs) {
                    Err(CodegenError::MultiDimensionalAccumulation { .. }) if name == "conv2d" => {
                        continue
                    }
                    Ok(cg) if name != "conv2d" => cg,
                    other => panic!("{name}: unexpected {:?}", other.map(|_| ())),
                };
                let at = format!("{name} on {procs} procs");
                let free = run(&w.nest, &cg, &address_hash_init)
                    .unwrap_or_else(|e| panic!("{at}: run: {e}"));
                let schedule = round_robin_schedule(&w.nest, &cg);
                let replayed = run_schedule(&w.nest, &cg, &schedule, &address_hash_init)
                    .unwrap_or_else(|e| panic!("{at}: run_schedule: {e}"));
                let threaded = run_threaded_gathered(&w.nest, &cg, &address_hash_init)
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
