//! Execution traces, post-hoc validity checking, and Chrome
//! trace-event export.

use crate::profile::CriticalPathReport;
use crate::program::Program;
use crate::sim::SimReport;
use loom_obs::chrome::TraceBuilder;
use loom_obs::Json;

/// One task's execution interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskRecord {
    /// Task id.
    pub task: u32,
    /// Processor it ran on.
    pub proc: u32,
    /// Start tick.
    pub start: u64,
    /// End tick.
    pub end: u64,
}

/// A violated execution-trace property.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceViolation {
    /// Two tasks overlapped on the same processor.
    Overlap {
        /// First task.
        a: u32,
        /// Second task.
        b: u32,
        /// The processor.
        proc: u32,
    },
    /// A task started before one of its predecessors finished.
    DependenceOrder {
        /// The predecessor.
        src: u32,
        /// The dependent task.
        dst: u32,
    },
    /// A task ran on a different processor than assigned, or is missing.
    WrongOrMissing {
        /// The task.
        task: u32,
    },
}

/// Check a trace against its program: every task present on its assigned
/// processor, no same-processor overlap, and every dependence arc
/// honored (`end(src) ≤ start(dst)`). Returns all violations found.
pub fn verify_trace(program: &Program, trace: &[TaskRecord]) -> Vec<TraceViolation> {
    let mut violations = Vec::new();
    let mut record_of: Vec<Option<&TaskRecord>> = vec![None; program.len()];
    for r in trace {
        if (r.task as usize) < program.len() {
            record_of[r.task as usize] = Some(r);
        }
    }
    for (t, rec) in record_of.iter().enumerate() {
        match rec {
            Some(r) if r.proc == program.proc_of[t] => {}
            _ => violations.push(TraceViolation::WrongOrMissing { task: t as u32 }),
        }
    }
    // Same-processor overlap: sweep per processor.
    let mut by_proc: Vec<Vec<&TaskRecord>> = vec![Vec::new(); program.num_procs];
    for r in trace {
        by_proc[r.proc as usize].push(r);
    }
    for (p, records) in by_proc.iter_mut().enumerate() {
        records.sort_by_key(|r| (r.start, r.end));
        for w in records.windows(2) {
            if w[1].start < w[0].end {
                violations.push(TraceViolation::Overlap {
                    a: w[0].task,
                    b: w[1].task,
                    proc: p as u32,
                });
            }
        }
    }
    for (a, b) in program.arcs() {
        if let (Some(ra), Some(rb)) = (record_of[a as usize], record_of[b as usize]) {
            if rb.start < ra.end {
                violations.push(TraceViolation::DependenceOrder { src: a, dst: b });
            }
        }
    }
    violations
}

/// Render a full simulator report as a Chrome trace-event JSON value
/// (`chrome://tracing`, Perfetto, or Speedscope all open it): one
/// thread track per processor carrying nested `B`/`E` slices per task,
/// plus — when [`SimMetrics`](crate::metrics::SimMetrics) were
/// collected — an `X` slice per message send and `s`/`f` flow arrows
/// from each send to its arrival processor. Ticks map 1:1 onto µs.
///
/// When the report carries a fault
/// [`DegradationReport`](crate::fault::DegradationReport) with a
/// non-empty attribution table, an extra `faults` track (tid one past
/// the last processor) gets an instant band per fault hit, plus an `X`
/// slice on the impacted processor's own track spanning the direct
/// delay the fault caused there.
///
/// When a [`CriticalPathReport`] is supplied, a `critical path` track
/// (tid two past the last processor, clear of the `faults` track) gets
/// one `X` slice per path segment, so the makespan-bounding chain
/// lights up as its own lane in Perfetto. With `profile: None` no such
/// track exists.
///
/// Returns `None` when the report carries no trace
/// (`record_trace: false`).
pub fn chrome_trace(
    report: &SimReport,
    num_procs: usize,
    profile: Option<&CriticalPathReport>,
) -> Option<Json> {
    let trace = report.trace.as_ref()?;
    let mut tb = TraceBuilder::new();
    tb.process_name(0, "loom simulator");
    for p in 0..num_procs {
        tb.thread_name(0, p as u64, &format!("P{p}"));
    }
    // Tasks never overlap on one processor, so emitting each task's
    // B/E pair contiguously yields correctly nested tracks.
    for r in trace {
        tb.begin(0, r.proc as u64, r.start, &format!("task {}", r.task));
        tb.end(0, r.proc as u64, r.end);
    }
    if let Some(m) = &report.metrics {
        for (i, msg) in m.messages.iter().enumerate() {
            tb.complete(
                0,
                msg.src_proc as u64,
                msg.send_start,
                msg.send_end - msg.send_start,
                &format!("send to P{}", msg.dst_proc),
            );
            tb.flow_start(i as u64, 0, msg.src_proc as u64, msg.send_start, "msg");
            tb.flow_finish(i as u64, 0, msg.dst_proc as u64, msg.arrival, "msg");
        }
    }
    // Fault bands: only materialize the track when something hit, so
    // fault-free exports are byte-identical to the baseline's.
    if let Some(deg) = report
        .degradation
        .as_ref()
        .filter(|d| !d.attribution.is_empty())
    {
        let fault_tid = num_procs as u64;
        tb.thread_name(0, fault_tid, "faults");
        for hit in &deg.attribution {
            tb.instant(0, fault_tid, hit.at, &format!("fault: {}", hit.fault));
            if hit.delay_ticks > 0 {
                tb.complete(
                    0,
                    hit.proc as u64,
                    hit.at,
                    hit.delay_ticks,
                    &format!("fault delay: {}", hit.fault),
                );
            }
        }
    }
    // Critical-path overlay: a dedicated track (past the faults track's
    // tid) with one slice per path segment of the top path.
    if let Some(cp) = profile {
        if let Some(path) = cp.paths.first() {
            let cp_tid = num_procs as u64 + 1;
            tb.thread_name(0, cp_tid, "critical path");
            for seg in &path.segments {
                tb.complete(
                    0,
                    cp_tid,
                    seg.start,
                    seg.end - seg.start,
                    &format!("{} [{}]", seg.label, seg.kind.label()),
                );
            }
        }
    }
    Some(tb.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::MachineParams;
    use crate::sim::{simulate, SimConfig};
    use crate::topology::Topology;

    fn traced_config() -> SimConfig {
        SimConfig {
            params: MachineParams {
                t_calc: 1,
                t_start: 10,
                t_comm: 2,
                t_recv: 0,
            },
            topology: Topology::Hypercube(2),
            batch_messages: false,
            link_contention: false,
            record_trace: true,
            collect_metrics: false,
        }
    }

    #[test]
    fn simulator_traces_verify_clean() {
        // A diamond across processors.
        let prog = Program::from_parts(
            vec![0, 1, 1, 2],
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
            vec![0, 1, 2, 3],
            2,
            4,
        );
        let r = simulate(&prog, &traced_config()).unwrap();
        assert_eq!(verify_trace(&prog, r.trace.as_ref().unwrap()), vec![]);
    }

    #[test]
    fn detects_overlap() {
        let prog = Program::from_parts(vec![0, 0], vec![], vec![0, 0], 5, 1);
        let bad = vec![
            TaskRecord {
                task: 0,
                proc: 0,
                start: 0,
                end: 5,
            },
            TaskRecord {
                task: 1,
                proc: 0,
                start: 3,
                end: 8,
            },
        ];
        let v = verify_trace(&prog, &bad);
        assert!(v.contains(&TraceViolation::Overlap {
            a: 0,
            b: 1,
            proc: 0
        }));
    }

    #[test]
    fn detects_dependence_violation() {
        let prog = Program::from_parts(vec![0, 1], vec![(0, 1)], vec![0, 1], 5, 2);
        let bad = vec![
            TaskRecord {
                task: 0,
                proc: 0,
                start: 0,
                end: 5,
            },
            TaskRecord {
                task: 1,
                proc: 1,
                start: 2,
                end: 7,
            },
        ];
        let v = verify_trace(&prog, &bad);
        assert!(v.contains(&TraceViolation::DependenceOrder { src: 0, dst: 1 }));
    }

    #[test]
    fn chrome_trace_has_per_proc_tracks_and_flows() {
        // A diamond across processors, with metrics for flow arrows.
        let prog = Program::from_parts(
            vec![0, 1, 1, 2],
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
            vec![0, 1, 2, 3],
            2,
            4,
        );
        let mut cfg = traced_config();
        cfg.collect_metrics = true;
        let r = simulate(&prog, &cfg).unwrap();
        let json = chrome_trace(&r, 4, None).unwrap();
        let evs = json.as_arr().unwrap();
        // 1 process + 4 thread metadata events.
        let meta = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .count();
        assert_eq!(meta, 5);
        // Each of the 4 tasks opens and closes exactly once.
        let begins = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("B"))
            .count();
        let ends = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("E"))
            .count();
        assert_eq!((begins, ends), (4, 4));
        // 4 remote arcs → 4 messages, each with a flow start + finish.
        let flows = evs
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("msg"))
            .count();
        assert_eq!(flows, 8);
        // Without a trace there is nothing to export.
        let mut no_trace = traced_config();
        no_trace.record_trace = false;
        let r2 = simulate(&prog, &no_trace).unwrap();
        assert!(chrome_trace(&r2, 4, None).is_none());
    }

    #[test]
    fn chrome_trace_gets_fault_band_under_faults() {
        use crate::fault::{FaultConfig, FaultEvent, FaultPlan, RecoveryPolicy};
        use crate::sim::simulate_with_faults;
        let prog = Program::from_parts(vec![0, 1], vec![(0, 1)], vec![0, 1], 1, 4);
        let cfg = traced_config();
        let plan = FaultPlan::none().with_event(FaultEvent::LinkDown {
            from: 0,
            to: 1,
            at: 0,
            until: Some(1_000_000),
        });
        let r = simulate_with_faults(
            &prog,
            &cfg,
            &FaultConfig::new(plan, RecoveryPolicy::RetryOnly),
        )
        .unwrap();
        let json = chrome_trace(&r, 4, None).unwrap();
        let evs = json.as_arr().unwrap();
        // The reroute hit materializes the faults track and its pin.
        let instants: Vec<_> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
            .collect();
        assert!(!instants.is_empty());
        assert!(instants
            .iter()
            .all(|e| e.get("tid").and_then(Json::as_u64) == Some(4)));
        let named_faults = evs.iter().any(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
                == Some("faults")
        });
        assert!(named_faults, "faults track must be named");
        // A fault-free degraded run adds nothing: same event count as
        // the plain export.
        let empty = simulate_with_faults(
            &prog,
            &cfg,
            &FaultConfig::new(FaultPlan::none(), RecoveryPolicy::RetryOnly),
        )
        .unwrap();
        let base = simulate(&prog, &cfg).unwrap();
        assert_eq!(
            chrome_trace(&empty, 4, None)
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            chrome_trace(&base, 4, None)
                .unwrap()
                .as_arr()
                .unwrap()
                .len()
        );
    }

    #[test]
    fn annotated_trace_adds_critical_path_track_only_when_asked() {
        use crate::profile::critical_path;
        let prog = Program::from_parts(
            vec![0, 1, 1, 2],
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
            vec![0, 1, 2, 3],
            2,
            4,
        );
        let mut cfg = traced_config();
        cfg.collect_metrics = true;
        let r = simulate(&prog, &cfg).unwrap();
        let cp = critical_path(&prog, &cfg, &r).unwrap();
        // With a profile, a named track materializes past the fault
        // tid, and its slices tile the makespan.
        let plain = chrome_trace(&r, 4, None).unwrap();
        let annotated = chrome_trace(&r, 4, Some(&cp)).unwrap();
        let evs = annotated.as_arr().unwrap();
        assert!(evs.len() > plain.as_arr().unwrap().len());
        let cp_slices: Vec<_> = evs
            .iter()
            .filter(|e| {
                e.get("tid").and_then(Json::as_u64) == Some(5)
                    && e.get("ph").and_then(Json::as_str) == Some("X")
            })
            .collect();
        assert_eq!(cp_slices.len(), cp.paths[0].segments.len());
        let covered: u64 = cp_slices
            .iter()
            .filter_map(|e| e.get("dur").and_then(Json::as_u64))
            .sum();
        assert_eq!(covered, r.makespan);
    }

    #[test]
    fn detects_missing_task() {
        let prog = Program::from_parts(vec![0], vec![], vec![0], 1, 1);
        let v = verify_trace(&prog, &[]);
        assert_eq!(v, vec![TraceViolation::WrongOrMissing { task: 0 }]);
    }
}
