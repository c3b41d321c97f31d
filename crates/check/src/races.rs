//! Rules `LC005` and `LC007` — static data-race detection over the
//! generated SPMD program.
//!
//! Nothing is executed. The analysis builds the happens-before order
//! the program's synchronization induces — per-processor program order
//! plus one edge per matched `Send`/`Recv` pair — with vector clocks,
//! then evaluates every statement's affine access functions at every
//! `Compute` op and flags any two accesses to the same array element
//! that (a) run on different processors, (b) are unordered by
//! happens-before, and (c) include at least one write. Because the
//! programs `loom-codegen` emits synchronize *every* dependence (anti
//! and output dependences carry no payload but still send their tag),
//! a correctly generated program is race-free; a reported race means
//! the program, partition, or schedule is wrong.
//!
//! The message-matching fixpoint also proves deadlock-freedom along the
//! way: a `Recv` whose message never materializes blocks its processor
//! forever and is reported as `LC007` at error severity, while a
//! message that is sent but never received is `LC007` at warning
//! severity (wasteful, and usually a symptom of a mismatched program).

use crate::diag::{Diagnostic, RuleId, Span};
use loom_codegen::{Op, SpmdProgram, Tag};
use loom_loopir::LoopNest;
use std::collections::BTreeMap;
use std::convert::Infallible;

/// One executed `Compute`, with the vector clock at its occurrence.
struct ComputeEvent {
    proc: usize,
    point: u32,
    clock: Vec<u64>,
}

/// `true` iff event `a` happens before event `b` (or they are the same
/// logical time on one processor — program order handles that case
/// before we ever compare).
fn happens_before(a: &ComputeEvent, b: &ComputeEvent) -> bool {
    a.clock[a.proc] <= b.clock[a.proc]
}

fn fmt_point(p: &[i64]) -> String {
    let parts: Vec<String> = p.iter().map(|x| x.to_string()).collect();
    format!("({})", parts.join(","))
}

/// Run the happens-before analysis and the per-element race scan.
pub fn check_races(nest: &LoopNest, program: &SpmdProgram) -> Vec<Diagnostic> {
    let n = program.num_procs();
    let mut out = Vec::new();

    // Phase 1: propagate vector clocks to a fixpoint under the
    // round-robin driver. Sends deposit a clock snapshot keyed by
    // (from, to, tag) and Recvs join it. BTreeMap keeps the scan
    // deterministic.
    let mut clock: Vec<Vec<u64>> = vec![vec![0; n]; n];
    let mut mailbox: BTreeMap<(u32, u32, Tag), Vec<u64>> = BTreeMap::new();
    let mut computes: Vec<ComputeEvent> = Vec::new();
    let Ok(pcs) = program.round_robin(|p, op| -> Result<bool, Infallible> {
        match *op {
            Op::Recv { from, tag } => match mailbox.remove(&(from, p as u32, tag)) {
                Some(snapshot) => {
                    for (c, s) in clock[p].iter_mut().zip(&snapshot) {
                        *c = (*c).max(*s);
                    }
                }
                None => return Ok(false),
            },
            Op::Compute { point } => {
                clock[p][p] += 1;
                computes.push(ComputeEvent {
                    proc: p,
                    point,
                    clock: clock[p].clone(),
                });
            }
            Op::Send { to, tag } => {
                clock[p][p] += 1;
                mailbox.insert((p as u32, to, tag), clock[p].clone());
            }
        }
        Ok(true)
    });

    // Phase 2: LC007. Anything still blocked is a Recv whose message
    // can never arrive — the program deadlocks there. Messages left in
    // the mailbox were sent but never consumed.
    let mut deadlocked = false;
    for (p, &stuck_at) in pcs.iter().enumerate() {
        if let Some(&Op::Recv { from, tag }) = program.per_proc[p].get(stuck_at) {
            deadlocked = true;
            out.push(Diagnostic::error(
                RuleId::UnmatchedMessage,
                Span::ProgramOp {
                    proc: p as u32,
                    op: stuck_at,
                },
                format!(
                    "receive of message (source point {}, dep {}) from P{from} \
                     can never be satisfied; the program deadlocks here",
                    tag.src_point, tag.dep
                ),
            ));
        }
    }
    for (from, to, tag) in mailbox.into_keys() {
        out.push(Diagnostic::warning(
            RuleId::UnmatchedMessage,
            Span::Nest,
            format!(
                "message (source point {}, dep {}) from P{from} to P{to} \
                 is sent but never received",
                tag.src_point, tag.dep
            ),
        ));
    }
    if deadlocked {
        // Computes past the deadlock never happen; a race verdict over
        // the partial order would be misleading.
        return out;
    }

    // Phase 3: LC005. Index every access by (array, element) and test
    // cross-processor pairs with at least one write for happens-before.
    let points = &program.points;
    // Access list per element: (compute-event index, is-write).
    type AccessList = Vec<(usize, bool)>;
    let mut accesses: BTreeMap<(&str, Vec<i64>), AccessList> = BTreeMap::new();
    for (ei, ev) in computes.iter().enumerate() {
        let point = points.point(ev.point as usize);
        for stmt in nest.stmts() {
            let w = stmt.write();
            accesses
                .entry((w.array(), w.element_at(point)))
                .or_default()
                .push((ei, true));
            for r in stmt.reads() {
                accesses
                    .entry((r.array(), r.element_at(point)))
                    .or_default()
                    .push((ei, false));
            }
        }
    }
    for ((array, element), accs) in &accesses {
        if !accs.iter().any(|&(_, write)| write) {
            continue;
        }
        'element: for (i, &(a, wa)) in accs.iter().enumerate() {
            for &(b, wb) in &accs[i + 1..] {
                if !(wa || wb) {
                    continue;
                }
                let (ea, eb) = (&computes[a], &computes[b]);
                if ea.proc == eb.proc {
                    continue; // ordered by program order
                }
                if happens_before(ea, eb) || happens_before(eb, ea) {
                    continue;
                }
                out.push(Diagnostic::error(
                    RuleId::DataRace,
                    Span::Element {
                        array: (*array).to_string(),
                        element: element.clone(),
                    },
                    format!(
                        "{} at iteration {} on P{} and {} at iteration {} on P{} \
                         are concurrent: no synchronization orders them",
                        if wa { "write" } else { "read" },
                        fmt_point(points.point(ea.point as usize)),
                        ea.proc,
                        if wb { "write" } else { "read" },
                        fmt_point(points.point(eb.point as usize)),
                        eb.proc,
                    ),
                ));
                // One diagnostic per racing element keeps reports
                // readable; the first unordered pair is representative.
                break 'element;
            }
        }
    }
    dedupe(out)
}

/// Drop repeated diagnostics, keeping first-occurrence order.
///
/// The scan phases can surface the same fact more than once — e.g. a
/// racing pair found through two statements that access the same
/// element — and rendering the identical (rule, severity, span,
/// message) tuple twice only pads the report.
fn dedupe(diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut seen = std::collections::BTreeSet::new();
    diags
        .into_iter()
        .filter(|d| seen.insert((d.rule, d.severity, d.span.to_string(), d.message.clone())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_codegen::generate;
    use loom_hyperplane::TimeFn;
    use loom_mapping::map_partitioning;
    use loom_partition::{partition, PartitionConfig};

    fn l1_program() -> (LoopNest, SpmdProgram) {
        let w = loom_workloads::l1::workload(4);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let m = map_partitioning(&p, 1).unwrap();
        let cg = generate(&w.nest, &p, m.assignment(), 2).unwrap();
        (w.nest, cg.program)
    }

    #[test]
    fn generated_program_is_race_free() {
        let (nest, program) = l1_program();
        assert_eq!(check_races(&nest, &program), vec![]);
    }

    #[test]
    fn removed_send_deadlocks() {
        let (nest, mut program) = l1_program();
        let (p, i) = program
            .per_proc
            .iter()
            .enumerate()
            .find_map(|(p, ops)| {
                ops.iter()
                    .position(|op| matches!(op, Op::Send { .. }))
                    .map(|i| (p, i))
            })
            .expect("a cross-processor program has sends");
        program.per_proc[p].remove(i);
        let ds = check_races(&nest, &program);
        assert!(
            ds.iter().any(|d| d.rule == RuleId::UnmatchedMessage
                && d.severity == crate::Severity::Error),
            "{ds:?}"
        );
    }

    #[test]
    fn injected_duplicate_compute_races() {
        // Recompute some point on the *other* processor with no
        // synchronization: its writes collide with the original's.
        let (nest, mut program) = l1_program();
        let point = program.per_proc[0]
            .iter()
            .find_map(|op| match op {
                Op::Compute { point } => Some(*point),
                _ => None,
            })
            .unwrap();
        program.per_proc[1].insert(0, Op::Compute { point });
        let ds = check_races(&nest, &program);
        assert!(
            ds.iter()
                .any(|d| d.rule == RuleId::DataRace && d.severity == crate::Severity::Error),
            "{ds:?}"
        );
    }

    #[test]
    fn identical_diagnostics_are_deduplicated() {
        let d = |msg: &str| {
            Diagnostic::error(
                RuleId::DataRace,
                Span::Element {
                    array: "A".to_string(),
                    element: vec![1, 2],
                },
                msg.to_string(),
            )
        };
        let deduped = dedupe(vec![d("same"), d("same"), d("other"), d("same")]);
        assert_eq!(deduped.len(), 2);
        assert_eq!(deduped[0].message, "same");
        assert_eq!(deduped[1].message, "other");
        // Same message under a different span survives.
        let mut w = d("same");
        w.span = Span::Nest;
        assert_eq!(dedupe(vec![d("same"), w]).len(), 2);
    }

    #[test]
    fn orphan_send_warns() {
        let (nest, mut program) = l1_program();
        program.per_proc[0].push(Op::Send {
            to: 1,
            tag: Tag {
                src_point: 0,
                dep: 999,
            },
        });
        let ds = check_races(&nest, &program);
        assert!(ds.iter().all(|d| d.severity != crate::Severity::Error));
        assert!(
            ds.iter()
                .any(|d| d.rule == RuleId::UnmatchedMessage
                    && d.severity == crate::Severity::Warning),
            "{ds:?}"
        );
    }
}
