//! A blocking message-passing interpreter for generated SPMD programs.
//!
//! Each processor owns a private [`Memory`]; messages are matched by
//! tag; receives block. The scheduler is deterministic round-robin with
//! run-to-block semantics, so a run either completes identically every
//! time or reports the same deadlock.

use crate::gen::{Codegen, PayloadSpec};
use crate::ops::{Op, Tag};
use loom_exec::memory::{Element, Memory};
use loom_loopir::LoopNest;
use std::collections::HashMap;

/// Interpreter failure.
#[derive(Clone, Debug, PartialEq)]
pub enum InterpError {
    /// No processor can make progress; lists each blocked processor and
    /// the tag it waits for.
    Deadlock {
        /// `(processor, tag waited on)` for every blocked processor.
        blocked: Vec<(u32, Tag)>,
    },
    /// A `Compute` op referenced an out-of-range point id.
    BadPoint {
        /// The offending id.
        id: u32,
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
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::Deadlock { blocked } => {
                write!(f, "SPMD deadlock; blocked: {blocked:?}")
            }
            InterpError::BadPoint { id } => write!(f, "compute of unknown point {id}"),
            InterpError::BadSchedule { at } => {
                write!(f, "schedule step {at} names a processor with no op to run")
            }
            InterpError::IncompleteSchedule { proc } => {
                write!(f, "schedule ended before P{proc} finished")
            }
        }
    }
}

impl std::error::Error for InterpError {}

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

/// Evaluate the payload of a message for dependence `dep` produced at
/// iteration `src` (point id `src_id`) on processor memory `mem`.
pub(crate) fn payload(
    nest: &LoopNest,
    specs: &[PayloadSpec],
    point: &[i64],
    src_id: u32,
    mem: &Memory,
    init: &dyn Fn(&str, &[i64]) -> f64,
) -> Vec<PayloadItem> {
    let mut out = Vec::new();
    for spec in specs {
        match spec {
            PayloadSpec::Write { stmt } => {
                let w = nest.stmts()[*stmt].write();
                let e = w.element_at(point);
                let v = mem.read(w.array(), &e, init);
                out.push(((w.array().to_string(), e), v, Some(src_id)));
            }
            PayloadSpec::Reads { stmt, array } => {
                for r in nest.stmts()[*stmt].reads() {
                    if r.array() == array {
                        let e = r.element_at(point);
                        let v = mem.read(array, &e, init);
                        out.push(((array.clone(), e), v, None));
                    }
                }
            }
        }
    }
    out
}

/// Install received items into a processor's memory under the version
/// rule (see [`PayloadItem`]).
pub(crate) fn install(
    mem: &mut Memory,
    versions: &mut HashMap<Element, u32>,
    items: Vec<PayloadItem>,
) {
    for ((array, element), v, writer) in items {
        let key = (array, element);
        match writer {
            Some(w) => {
                if versions.get(&key).is_none_or(|&cur| cur < w) {
                    mem.write(&key.0, key.1.clone(), v);
                    versions.insert(key, w);
                }
            }
            None => {
                if mem.get(&key.0, &key.1).is_none() {
                    mem.write(&key.0, key.1, v);
                }
            }
        }
    }
}

/// Record the writes one computed iteration performs, for versioning.
pub(crate) fn record_local_writes(
    nest: &LoopNest,
    point: &[i64],
    id: u32,
    versions: &mut HashMap<Element, u32>,
) {
    for stmt in nest.stmts() {
        let key = (
            stmt.write().array().to_string(),
            stmt.write().element_at(point),
        );
        versions.insert(key, id);
    }
}

/// Execute one iteration's statements against a processor's memory.
pub(crate) fn compute(
    nest: &LoopNest,
    point: &[i64],
    mem: &mut Memory,
    init: &dyn Fn(&str, &[i64]) -> f64,
) {
    for stmt in nest.stmts() {
        let reads: Vec<f64> = stmt
            .reads()
            .iter()
            .map(|r| mem.read(r.array(), &r.element_at(point), init))
            .collect();
        let value = stmt.semantics().eval(&reads);
        mem.write(stmt.write().array(), stmt.write().element_at(point), value);
    }
}

/// The mutable machine state one run threads through [`exec_op`].
struct RunState {
    memories: Vec<Memory>,
    versions: Vec<HashMap<Element, u32>>,
    pcs: Vec<usize>,
    /// Mailbox keyed by (destination proc, tag).
    mailbox: HashMap<(u32, Tag), Vec<PayloadItem>>,
    messages: u64,
    words: u64,
}

impl RunState {
    fn new(n_procs: usize) -> RunState {
        RunState {
            memories: vec![Memory::new(); n_procs],
            versions: vec![HashMap::new(); n_procs],
            pcs: vec![0; n_procs],
            mailbox: HashMap::new(),
            messages: 0,
            words: 0,
        }
    }

    /// The finished run: per-processor memories plus their gather.
    fn finish(self, nest: &LoopNest, prog: &crate::ops::SpmdProgram) -> RunResult {
        RunResult {
            gathered: gather(nest, prog, &self.memories),
            memories: self.memories,
            messages: self.messages,
            words: self.words,
        }
    }
}

/// Execute processor `p`'s next op. `Ok(true)` means progress was
/// made; `Ok(false)` means `p` is blocked on an unsatisfied `Recv`.
fn exec_op(
    nest: &LoopNest,
    cg: &Codegen,
    st: &mut RunState,
    p: usize,
    init: &dyn Fn(&str, &[i64]) -> f64,
) -> Result<bool, InterpError> {
    let prog = &cg.program;
    match &prog.per_proc[p][st.pcs[p]] {
        Op::Recv { from: _, tag } => {
            let Some(items) = st.mailbox.remove(&(p as u32, *tag)) else {
                return Ok(false); // blocked
            };
            install(&mut st.memories[p], &mut st.versions[p], items);
        }
        Op::Compute { point } => {
            let id = *point as usize;
            if id >= prog.points.len() {
                return Err(InterpError::BadPoint { id: *point });
            }
            let pt = prog.points[id].clone();
            compute(nest, &pt, &mut st.memories[p], init);
            record_local_writes(nest, &pt, *point, &mut st.versions[p]);
        }
        Op::Send { to, tag } => {
            let id = tag.src_point as usize;
            if id >= prog.points.len() {
                return Err(InterpError::BadPoint { id: tag.src_point });
            }
            let pt = prog.points[id].clone();
            let specs = cg
                .payload_specs
                .get(tag.dep as usize)
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            let items = payload(nest, specs, &pt, tag.src_point, &st.memories[p], init);
            st.messages += 1;
            st.words += items.len() as u64;
            st.mailbox.insert((*to, *tag), items);
        }
    }
    st.pcs[p] += 1;
    Ok(true)
}

/// Gather the global result: every element taken from the processor
/// that performed the globally last (sequential-order) write to it.
pub(crate) fn gather(
    nest: &LoopNest,
    prog: &crate::ops::SpmdProgram,
    memories: &[Memory],
) -> Memory {
    let mut proc_of_point = vec![0u32; prog.points.len()];
    for (p, ops) in prog.per_proc.iter().enumerate() {
        for op in ops {
            if let Op::Compute { point } = op {
                if (*point as usize) < proc_of_point.len() {
                    proc_of_point[*point as usize] = p as u32;
                }
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

/// Run a generated SPMD program to completion.
pub fn run(
    nest: &LoopNest,
    cg: &Codegen,
    init: &dyn Fn(&str, &[i64]) -> f64,
) -> Result<RunResult, InterpError> {
    let prog = &cg.program;
    let n_procs = prog.num_procs();
    let mut st = RunState::new(n_procs);

    loop {
        let mut progress = false;
        let mut all_done = true;
        for p in 0..n_procs {
            let ops = &prog.per_proc[p];
            while st.pcs[p] < ops.len() {
                if !exec_op(nest, cg, &mut st, p, init)? {
                    break; // blocked
                }
                progress = true;
            }
            if st.pcs[p] < ops.len() {
                all_done = false;
            }
        }
        if all_done {
            break;
        }
        if !progress {
            let blocked = (0..n_procs)
                .filter(|&p| st.pcs[p] < prog.per_proc[p].len())
                .map(|p| match prog.per_proc[p][st.pcs[p]] {
                    Op::Recv { tag, .. } => (p as u32, tag),
                    _ => unreachable!("only receives block"),
                })
                .collect();
            return Err(InterpError::Deadlock { blocked });
        }
    }
    Ok(st.finish(nest, prog))
}

/// Run a generated SPMD program under an explicit global op order:
/// `schedule[k]` names the processor whose next op executes at step
/// `k`. Mailbox matching, payload versioning, and the final gather are
/// identical to [`run`] — only the interleaving differs. This is the
/// replay hook the interleaving engine (`loom-check` rule `LC014`)
/// uses to compare the final memory state across explored schedules
/// and against the sequential oracle.
///
/// Errors: [`InterpError::Deadlock`] if a scheduled `Recv` has no
/// message, [`InterpError::BadSchedule`] if a step names a processor
/// with nothing left to run, and [`InterpError::IncompleteSchedule`]
/// if the schedule ends early.
pub fn run_schedule(
    nest: &LoopNest,
    cg: &Codegen,
    schedule: &[u32],
    init: &dyn Fn(&str, &[i64]) -> f64,
) -> Result<RunResult, InterpError> {
    let prog = &cg.program;
    let n_procs = prog.num_procs();
    let mut st = RunState::new(n_procs);
    for (at, &proc) in schedule.iter().enumerate() {
        let p = proc as usize;
        if p >= n_procs || st.pcs[p] >= prog.per_proc[p].len() {
            return Err(InterpError::BadSchedule { at });
        }
        if !exec_op(nest, cg, &mut st, p, init)? {
            let tag = match prog.per_proc[p][st.pcs[p]] {
                Op::Recv { tag, .. } => tag,
                _ => unreachable!("only receives block"),
            };
            return Err(InterpError::Deadlock {
                blocked: vec![(proc, tag)],
            });
        }
    }
    if let Some(p) = (0..n_procs).find(|&p| st.pcs[p] < prog.per_proc[p].len()) {
        return Err(InterpError::IncompleteSchedule { proc: p as u32 });
    }
    Ok(st.finish(nest, prog))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
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
        assert!(matches!(err, InterpError::Deadlock { .. }));
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
        let mut schedule = Vec::new();
        {
            let prog = &cg.program;
            let mut pcs = vec![0usize; prog.num_procs()];
            let mut mailbox = std::collections::HashSet::new();
            loop {
                let mut progress = false;
                #[allow(clippy::needless_range_loop)] // pcs and per_proc walk in lockstep
                for p in 0..prog.num_procs() {
                    while pcs[p] < prog.per_proc[p].len() {
                        match prog.per_proc[p][pcs[p]] {
                            Op::Recv { tag, .. } => {
                                if !mailbox.remove(&(p as u32, tag)) {
                                    break;
                                }
                            }
                            Op::Send { to, tag } => {
                                mailbox.insert((to, tag));
                            }
                            Op::Compute { .. } => {}
                        }
                        schedule.push(p as u32);
                        pcs[p] += 1;
                        progress = true;
                    }
                }
                if !progress {
                    break;
                }
            }
        }
        let free = run(&w.nest, &cg, &address_hash_init).unwrap();
        let replayed = run_schedule(&w.nest, &cg, &schedule, &address_hash_init).unwrap();
        assert_eq!(equivalent(&replayed.gathered, &free.gathered), Ok(()));
        assert_eq!(replayed.messages, free.messages);
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
            Err(InterpError::IncompleteSchedule { .. })
        ));
        // Nonexistent processor.
        assert!(matches!(
            run_schedule(&w.nest, &cg, &[9], &address_hash_init),
            Err(InterpError::BadSchedule { at: 0 })
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
