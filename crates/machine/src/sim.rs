//! The deterministic discrete-event engine.
//!
//! One engine serves two entry points: [`simulate`] runs the paper's
//! perfectly reliable machine, and [`simulate_with_faults`] runs the
//! same machine under a deterministic [`FaultPlan`] with a
//! [`RecoveryPolicy`]. The fault hooks are structured so that an empty
//! plan executes exactly the baseline code path — no RNG draws, no
//! extra events — which is what makes the bit-identical-replay property
//! testable.

use crate::cost::MachineParams;
use crate::fault::{DegradationReport, FaultConfig, FaultImpact, FaultPlan, RecoveryPolicy};
use crate::metrics::{LinkMetrics, MsgRecord, SimMetrics};
use crate::program::Program;
use crate::queue::EventQueue;
use crate::ready::RankSet;
use crate::topology::Topology;
use crate::trace::TaskRecord;
use loom_obs::SplitMix64;
use std::collections::VecDeque;

/// Simulation configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Machine timing parameters.
    pub params: MachineParams,
    /// Interconnect (must have at least `program.num_procs` nodes).
    pub topology: Topology,
    /// Combine all arcs from one task to one destination processor into a
    /// single message (an optimization the paper's per-word model does
    /// not perform; exposed for the ablation benches).
    pub batch_messages: bool,
    /// Model per-link contention: each directed link carries one message
    /// at a time, and store-and-forward messages queue at busy links.
    /// Off by default (the paper's cost model charges latency only).
    pub link_contention: bool,
    /// Record a full execution trace (costs memory proportional to the
    /// task count).
    pub record_trace: bool,
    /// Collect rich telemetry ([`SimMetrics`]): per-processor tick
    /// breakdowns, per-link traffic, hop histograms, and a message log.
    /// Purely observational — never changes simulated timing.
    pub collect_metrics: bool,
}

impl SimConfig {
    /// The paper's model on a hypercube: one word per arc, no batching.
    pub fn paper_hypercube(dim: usize, params: MachineParams) -> SimConfig {
        SimConfig {
            params,
            topology: Topology::Hypercube(dim),
            batch_messages: false,
            link_contention: false,
            record_trace: false,
            collect_metrics: false,
        }
    }
}

/// What the simulation measured.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Completion time of the last task.
    pub makespan: u64,
    /// Compute occupancy per processor.
    pub compute: Vec<u64>,
    /// Send occupancy per processor.
    pub comm: Vec<u64>,
    /// Messages sent (every transmission attempt, including
    /// retransmissions and the crash state-transfer message).
    pub messages: u64,
    /// Words sent.
    pub words: u64,
    /// Execution trace, if requested.
    pub trace: Option<Vec<TaskRecord>>,
    /// Rich telemetry, if requested via
    /// [`SimConfig::collect_metrics`].
    pub metrics: Option<SimMetrics>,
    /// What the injected faults did to the run; `Some` only for
    /// [`simulate_with_faults`].
    pub degradation: Option<DegradationReport>,
}

impl SimReport {
    /// The busiest processor's total occupancy (compute + comm) — the
    /// quantity the paper's `T_exec` bounds.
    pub fn max_proc_occupancy(&self) -> u64 {
        self.compute
            .iter()
            .zip(&self.comm)
            .map(|(&c, &m)| c + m)
            .max()
            .unwrap_or(0)
    }

    /// Per-processor idle ticks: makespan minus compute and comm
    /// occupancy.
    pub fn idle_ticks(&self) -> Vec<u64> {
        self.compute
            .iter()
            .zip(&self.comm)
            .map(|(&c, &m)| self.makespan.saturating_sub(c + m))
            .collect()
    }

    /// Total communication occupancy divided by total compute occupancy
    /// across all processors (`0.0` for a compute-free program).
    pub fn comm_to_compute_ratio(&self) -> f64 {
        let compute: u64 = self.compute.iter().sum();
        if compute == 0 {
            return 0.0;
        }
        self.comm.iter().sum::<u64>() as f64 / compute as f64
    }

    /// Per-processor utilization: fraction of the makespan each
    /// processor was busy (compute + comm), in `[0, 1]`.
    pub fn per_proc_utilization(&self) -> Vec<f64> {
        if self.makespan == 0 {
            return vec![0.0; self.compute.len()];
        }
        self.compute
            .iter()
            .zip(&self.comm)
            .map(|(&c, &m)| (c + m) as f64 / self.makespan as f64)
            .collect()
    }
}

/// Simulation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// Not every task completed — the arc set contains a cycle.
    Deadlock {
        /// Tasks that completed.
        completed: usize,
        /// Total tasks.
        total: usize,
    },
    /// The topology is smaller than the program's processor count.
    MachineTooSmall {
        /// Processors the program needs.
        needed: usize,
        /// Processors the topology has.
        available: usize,
    },
    /// No live route connects a communicating processor pair — the
    /// fault plan permanently partitioned the interconnect between
    /// them.
    Unroutable {
        /// The sending processor.
        src: usize,
        /// The destination processor.
        dst: usize,
    },
    /// A fault stranded work that the active [`RecoveryPolicy`] cannot
    /// recover, with a causal explanation of what went wrong.
    Unrecoverable {
        /// What fault stranded the work.
        fault: String,
        /// The first stranded task, when one is identifiable.
        task: Option<u32>,
        /// The tick at which recovery was abandoned.
        at: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { completed, total } => {
                write!(f, "deadlock: {completed}/{total} tasks completed")
            }
            SimError::MachineTooSmall { needed, available } => {
                write!(
                    f,
                    "program needs {needed} processors, machine has {available}"
                )
            }
            SimError::Unroutable { src, dst } => {
                write!(
                    f,
                    "no live route from processor {src} to processor {dst} (interconnect partitioned)"
                )
            }
            SimError::Unrecoverable { fault, task, at } => {
                write!(f, "unrecoverable at tick {at}: {fault}")?;
                if let Some(t) = task {
                    write!(f, " (task {t} stranded)")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A message's payload: the destination tasks
/// `payload[start..start + len]` of the run's arena
/// ([`SimScratch`]), written once when the producing task retires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

#[derive(Debug, PartialEq, Eq)]
enum Kind {
    TaskDone {
        proc: u32,
        task: u32,
    },
    SendDone {
        proc: u32,
    },
    Arrive {
        tasks: Span,
    },
    RecvDone {
        proc: u32,
        tasks: Span,
    },
    /// A retransmission timer fired; re-enqueue the stored send.
    Retry {
        id: u64,
    },
    /// A scheduled fail-stop crash.
    Crash {
        proc: u32,
    },
}

/// A queued send. Its destination is wherever its tasks live when it
/// is issued, and it carries one word per task.
#[derive(Clone, Copy)]
struct PendingSend {
    src_task: u32,
    tasks: Span,
    /// Transmission attempt number (0 = first try).
    attempt: u32,
}

#[derive(Default)]
struct Proc {
    busy_until: u64,
    /// Ready tasks by their rank in the program's `(step, id)` order.
    ready: RankSet,
    sends: VecDeque<PendingSend>,
    /// Messages that arrived but still need `t_recv` of software
    /// processing before their data is usable.
    recvs: VecDeque<Span>,
}

/// Reusable engine state for back-to-back simulations.
///
/// The engine's working buffers (task slots, ready sets, event queue,
/// per-processor queues, the message payload arena, link/retry tables)
/// are taken from a
/// `SimScratch` at the start of a run and handed back — cleared but
/// with their allocations intact — when it ends, so a sweep that runs
/// thousands of simulations (the explore path) pays the allocator once
/// per worker instead of once per run. Reusing a scratch is
/// **bit-identical** to starting fresh: every buffer is logically reset
/// before use; only spare capacity is carried over.
#[derive(Default)]
pub struct SimScratch {
    tasks: Vec<TaskSlot>,
    done: Vec<bool>,
    alive: Vec<bool>,
    running: Vec<Option<(u32, u64)>>,
    procs: Vec<Proc>,
    events: EventQueue<Kind>,
    payload: Vec<u32>,
    remote: Vec<(u32, u32)>,
    route: Vec<usize>,
    link_free: Vec<u64>,
    retry_states: Vec<Option<RetryState>>,
}

/// Fault-layer state carried alongside the engine when a plan is
/// active. Absent entirely for baseline runs.
struct FaultCtx<'a> {
    plan: &'a FaultPlan,
    policy: RecoveryPolicy,
    rng: SplitMix64,
    deg: DegradationReport,
    /// Plan has nonzero per-message noise rates.
    noise: bool,
    /// Plan schedules link outages.
    has_links: bool,
    /// Plan schedules slowdown windows.
    has_slow: bool,
}

impl FaultCtx<'_> {
    /// Bounded exponential backoff: `retry_timeout << min(attempt, 6)`.
    fn rto(&self, attempt: u32) -> u64 {
        self.plan.retry_timeout.max(1) << attempt.min(6)
    }
}

struct RetryState {
    /// Current owner (reassigned if the original sender crashes).
    proc: u32,
    send: PendingSend,
}

/// What the engine reads of a task when one of its arcs retires, kept
/// together so that retiring an arc touches one cache line.
#[derive(Clone, Copy, Debug)]
struct TaskSlot {
    /// Unretired incoming arcs.
    indeg: u32,
    /// The task's processor; diverges from `program.proc_of` only when
    /// `Remap` recovery moves tasks off a crashed processor.
    proc: u32,
    /// The task's rank in the program's `(step, id)` order.
    rank: u32,
}

struct Engine<'a> {
    program: &'a Program,
    config: &'a SimConfig,
    /// The task at each rank of the program's `(step, id)` order.
    order: &'a [u32],
    /// Fault-free ticks per task.
    dur: u64,
    tasks: Vec<TaskSlot>,
    /// Which tasks completed; kept only under a fault plan, whose crash
    /// handling reads it.
    done: Vec<bool>,
    alive: Vec<bool>,
    /// The task each processor is executing, with its start tick; kept
    /// only when a trace or a fault plan reads it.
    running: Vec<Option<(u32, u64)>>,
    track_running: bool,
    procs: Vec<Proc>,
    /// Pending events, leaving by time and then in the order they were
    /// scheduled: which event wins a shared tick decides every later
    /// start time.
    events: EventQueue<Kind>,
    /// Every message's destination tasks, appended as messages are
    /// formed; a message holds a [`Span`] of it.
    payload: Vec<u32>,
    /// `(destination processor, task)` of a retiring task's remote arcs,
    /// grouped into batched messages.
    remote: Vec<(u32, u32)>,
    /// The links of the message being issued, by
    /// [`Topology::link_id`]; filled only when someone needs them.
    route: Vec<usize>,
    compute: Vec<u64>,
    comm: Vec<u64>,
    messages: u64,
    words_sent: u64,
    completed: usize,
    makespan: u64,
    trace: Option<Vec<TaskRecord>>,
    metrics: Option<SimMetrics>,
    /// Per-link traffic under metrics, by [`Topology::link_id`]; it
    /// becomes [`SimMetrics::links`] when the report is built.
    link_metrics: Vec<LinkMetrics>,
    /// When each directed link is next free, by
    /// [`Topology::link_id`]; sized only under link contention.
    link_free: Vec<u64>,
    /// Armed retransmissions, by retry id (ids count up from 0).
    retry_states: Vec<Option<RetryState>>,
    faults: Option<FaultCtx<'a>>,
}

impl<'a> Engine<'a> {
    fn new(
        program: &'a Program,
        config: &'a SimConfig,
        faults: Option<FaultCtx<'a>>,
        scratch: &mut SimScratch,
    ) -> Result<Engine<'a>, SimError> {
        let n_tasks = program.len();
        let n_procs = program.num_procs;
        if config.topology.len() < n_procs {
            return Err(SimError::MachineTooSmall {
                needed: n_procs,
                available: config.topology.len(),
            });
        }
        // Working buffers come from the scratch, logically reset so a
        // reused scratch behaves exactly like a fresh one.
        let mut tasks = std::mem::take(&mut scratch.tasks);
        tasks.clear();
        tasks.extend(
            program
                .proc_of
                .iter()
                .zip(program.step_ranks())
                .enumerate()
                .map(|(t, (&proc, &rank))| TaskSlot {
                    indeg: program.predecessors(t).len() as u32,
                    proc,
                    rank,
                }),
        );
        let mut done = std::mem::take(&mut scratch.done);
        done.clear();
        if faults.is_some() {
            done.resize(n_tasks, false);
        }
        let mut alive = std::mem::take(&mut scratch.alive);
        alive.clear();
        alive.resize(n_procs, true);
        let mut running = std::mem::take(&mut scratch.running);
        running.clear();
        running.resize(n_procs, None);
        let mut procs = std::mem::take(&mut scratch.procs);
        procs.resize_with(n_procs, Proc::default);
        for p in &mut procs {
            p.busy_until = 0;
            p.ready.reset(n_tasks);
            p.sends.clear();
            p.recvs.clear();
        }
        let mut events = std::mem::take(&mut scratch.events);
        events.clear();
        let mut payload = std::mem::take(&mut scratch.payload);
        payload.clear();
        let mut remote = std::mem::take(&mut scratch.remote);
        remote.clear();
        let route = std::mem::take(&mut scratch.route);
        let mut link_free = std::mem::take(&mut scratch.link_free);
        link_free.clear();
        if config.link_contention {
            link_free.resize(config.topology.num_link_ids(), 0);
        }
        let mut retry_states = std::mem::take(&mut scratch.retry_states);
        retry_states.clear();
        let track_running = config.record_trace || faults.is_some();
        Ok(Engine {
            program,
            config,
            order: program.step_order(),
            dur: program.flops * config.params.t_calc,
            tasks,
            done,
            alive,
            running,
            track_running,
            procs,
            events,
            payload,
            remote,
            route,
            compute: vec![0; n_procs],
            comm: vec![0; n_procs],
            messages: 0,
            words_sent: 0,
            completed: 0,
            makespan: 0,
            trace: config.record_trace.then(Vec::new),
            metrics: config.collect_metrics.then(|| SimMetrics::new(n_procs)),
            link_metrics: if config.collect_metrics {
                vec![LinkMetrics::default(); config.topology.num_link_ids()]
            } else {
                Vec::new()
            },
            link_free,
            retry_states,
            faults,
        })
    }

    /// Hand the working buffers back to `scratch` so the next run can
    /// reuse their allocations.
    fn reclaim(&mut self, scratch: &mut SimScratch) {
        scratch.tasks = std::mem::take(&mut self.tasks);
        scratch.done = std::mem::take(&mut self.done);
        scratch.alive = std::mem::take(&mut self.alive);
        scratch.running = std::mem::take(&mut self.running);
        scratch.procs = std::mem::take(&mut self.procs);
        scratch.events = std::mem::take(&mut self.events);
        scratch.payload = std::mem::take(&mut self.payload);
        scratch.remote = std::mem::take(&mut self.remote);
        scratch.route = std::mem::take(&mut self.route);
        scratch.link_free = std::mem::take(&mut self.link_free);
        scratch.retry_states = std::mem::take(&mut self.retry_states);
    }

    /// The processor task `t` lives on now.
    #[inline]
    fn owner(&self, t: u32) -> usize {
        self.tasks[t as usize].proc as usize
    }

    /// Retire one incoming arc of `w`; returns the owner processor when
    /// the task just became ready.
    fn complete_arc(&mut self, w: u32) -> Option<usize> {
        let slot = &mut self.tasks[w as usize];
        slot.indeg -= 1;
        if slot.indeg == 0 {
            let q = slot.proc as usize;
            self.procs[q].ready.insert(slot.rank);
            Some(q)
        } else {
            None
        }
    }

    /// Give processor `p` work if it is alive and free at `now`.
    ///
    /// Scheduling policy: each processor is a single resource shared by
    /// computation and message startup. When free it first issues
    /// pending sends (data flows out as early as possible), then
    /// processes received messages, then executes the ready task with
    /// the smallest hyperplane step — so the execution order defined by
    /// the time transformation is preserved within every processor.
    fn dispatch(&mut self, p: usize, now: u64) -> Result<(), SimError> {
        if !self.alive[p] || self.procs[p].busy_until > now {
            return Ok(());
        }
        loop {
            if let Some(send) = self.procs[p].sends.pop_front() {
                if self.issue_send(p, now, send)? {
                    return Ok(());
                }
                // Send resolved without occupying the processor
                // (delivered locally after a remap, or backed off to a
                // retry timer) — keep looking for work.
                continue;
            }
            if let Some(tasks) = self.procs[p].recvs.pop_front() {
                let occ = self.config.params.t_recv;
                self.procs[p].busy_until = now + occ;
                self.comm[p] += occ;
                if let Some(m) = self.metrics.as_mut() {
                    m.procs[p].recv_ticks += occ;
                    m.recvs.push(crate::metrics::RecvRecord {
                        proc: p as u32,
                        start: now,
                        end: now + occ,
                        tasks: self.payload[tasks.range()].to_vec(),
                    });
                }
                self.events.push(
                    now + occ,
                    Kind::RecvDone {
                        proc: p as u32,
                        tasks,
                    },
                );
                return Ok(());
            }
            if let Some(rank) = self.procs[p].ready.pop_min() {
                self.start_task(p, now, self.order[rank as usize]);
                return Ok(());
            }
            return Ok(());
        }
    }

    fn start_task(&mut self, p: usize, now: u64, task: u32) {
        let dur = if self.faults.is_some() {
            self.slowed(p, now, task)
        } else {
            self.dur
        };
        self.procs[p].busy_until = now + dur;
        self.compute[p] += dur;
        if self.track_running {
            self.running[p] = Some((task, now));
        }
        if let Some(m) = self.metrics.as_mut() {
            m.procs[p].compute_ticks += dur;
            m.procs[p].tasks += 1;
        }
        self.events.push(
            now + dur,
            Kind::TaskDone {
                proc: p as u32,
                task,
            },
        );
    }

    /// The duration of `task` started on `p` at `now` under the fault
    /// plan's slowdown windows.
    #[cold]
    fn slowed(&mut self, p: usize, now: u64, task: u32) -> u64 {
        let mut dur = self.dur;
        let f = self.faults.as_mut().expect("slowdown without fault ctx");
        if f.has_slow && dur > 0 {
            // The slowdown factor at the start tick governs the
            // whole task (tasks are the atomic unit of work).
            let factor = f.plan.slow_factor(p, now);
            if factor > 1 {
                let extra = dur * (factor - 1);
                dur *= factor;
                f.deg.faults_hit += 1;
                f.deg.attribution.push(FaultImpact {
                    fault: format!("P{p} slowed {factor}x during task {task}"),
                    at: now,
                    proc: p as u32,
                    delay_ticks: extra,
                });
            }
        }
        dur
    }

    /// A fault consumed transmission attempt `send.attempt`. Apply the
    /// recovery policy: abort, or arm a bounded-backoff retry timer
    /// counted from `retry_base`.
    fn fault_lost(
        &mut self,
        p: usize,
        dst: usize,
        now: u64,
        send: PendingSend,
        why: &str,
        retry_base: u64,
    ) -> Result<(), SimError> {
        let task = Some(self.payload[send.tasks.start as usize]);
        let f = self.faults.as_mut().expect("fault_lost without fault ctx");
        f.deg.faults_hit += 1;
        if f.policy == RecoveryPolicy::Abort {
            return Err(SimError::Unrecoverable {
                fault: format!("{why} on message P{p}->P{dst} (recovery=abort)"),
                task,
                at: now,
            });
        }
        if send.attempt >= f.plan.max_retries {
            return Err(SimError::Unrecoverable {
                fault: format!(
                    "message P{p}->P{dst} abandoned after {} attempts ({why})",
                    send.attempt + 1
                ),
                task,
                at: now,
            });
        }
        let backoff = f.rto(send.attempt);
        f.deg.attribution.push(FaultImpact {
            fault: format!("{why} P{p}->P{dst} attempt {}", send.attempt),
            at: now,
            proc: p as u32,
            delay_ticks: retry_base + backoff - now,
        });
        let id = self.retry_states.len() as u64;
        self.retry_states.push(Some(RetryState {
            proc: p as u32,
            send: PendingSend {
                attempt: send.attempt + 1,
                ..send
            },
        }));
        self.events.push(retry_base + backoff, Kind::Retry { id });
        Ok(())
    }

    /// Issue one pending send from `p`. Returns `Ok(true)` when the
    /// send occupies the processor (the baseline outcome), `Ok(false)`
    /// when it resolved without consuming processor time. Kept out of
    /// line: `dispatch`, which calls it, runs once per task, and most
    /// tasks send nothing.
    #[inline(never)]
    fn issue_send(&mut self, p: usize, now: u64, send: PendingSend) -> Result<bool, SimError> {
        // Destination is wherever the tasks live *now* — a remap may
        // have moved them since the send was queued.
        let dst = self.owner(self.payload[send.tasks.start as usize]);
        let words = u64::from(send.tasks.len);
        if dst == p {
            // The remap brought producer and consumers together: the
            // transfer is local and free.
            if let Some(f) = self.faults.as_mut() {
                f.deg.localized_sends += 1;
            }
            for i in send.tasks.range() {
                let ready = self.complete_arc(self.payload[i]);
                debug_assert!(ready.is_none_or(|q| q == p));
            }
            return Ok(false);
        }
        if send.attempt > 0 {
            let f = self.faults.as_mut().expect("retry without fault ctx");
            f.deg.retries += 1;
            f.deg.retransmitted_words += words;
        }
        let occ = self.config.params.send_occupancy(words);

        // Fault layer, part 1: route around links that are down at the
        // instant the message leaves the sender.
        let topology = self.config.topology;
        let link_plan = self
            .faults
            .as_ref()
            .and_then(|f| f.has_links.then_some(f.plan));
        // Only routed when someone needs the links.
        let routed = link_plan.is_some() || self.config.link_contention || self.metrics.is_some();
        if routed {
            topology.route_link_ids_into(p, dst, &mut self.route);
        }
        if let Some(plan) = link_plan {
            let is_down = |a: usize, b: usize| plan.link_down_during(a, b, now, now);
            let down = |&id: &usize| {
                let (a, b) = topology.link_ends(id);
                is_down(a, b)
            };
            if self.route.iter().any(down) {
                match topology.route_links_avoiding(p, dst, is_down) {
                    Some(links) => {
                        let extra =
                            occ * (links.len() as u64).saturating_sub(self.route.len() as u64);
                        let f = self.faults.as_mut().unwrap();
                        f.deg.faults_hit += 1;
                        f.deg.reroutes += 1;
                        if extra > 0 {
                            f.deg.attribution.push(FaultImpact {
                                fault: format!("rerouted P{p}->P{dst} around dead links"),
                                at: now,
                                proc: p as u32,
                                delay_ticks: extra,
                            });
                        }
                        self.route.clear();
                        self.route
                            .extend(links.iter().map(|&(a, b)| topology.link_id(a, b)));
                    }
                    None => {
                        // No live route at all right now. If the cut is
                        // permanent no retry can ever succeed.
                        let dead_forever = |a: usize, b: usize| plan.link_dead_forever(a, b, now);
                        if topology
                            .route_links_avoiding(p, dst, dead_forever)
                            .is_none()
                        {
                            return Err(SimError::Unroutable { src: p, dst });
                        }
                        self.fault_lost(p, dst, now, send, "link outage", now)?;
                        return Ok(false);
                    }
                }
            }
        }

        // Fault layer, part 2: per-attempt message noise. Each guard
        // draws at most once so the stream advances deterministically.
        let mut lost: Option<&'static str> = None;
        let mut extra_delay = 0u64;
        if let Some(f) = self.faults.as_mut() {
            if f.noise {
                if f.plan.drop_per_mille > 0 && f.rng.below(1000) < f.plan.drop_per_mille as u64 {
                    f.deg.drops += 1;
                    lost = Some("dropped");
                } else if f.plan.corrupt_per_mille > 0
                    && f.rng.below(1000) < f.plan.corrupt_per_mille as u64
                {
                    f.deg.corruptions += 1;
                    lost = Some("corrupted");
                } else if f.plan.delay_per_mille > 0
                    && f.rng.below(1000) < f.plan.delay_per_mille as u64
                {
                    extra_delay = 1 + f.rng.below(f.plan.max_delay_ticks.max(1));
                    f.deg.faults_hit += 1;
                    f.deg.delays += 1;
                    f.deg.delay_ticks_added += extra_delay;
                    f.deg.attribution.push(FaultImpact {
                        fault: format!("delayed P{p}->P{dst} attempt {}", send.attempt),
                        at: now,
                        proc: p as u32,
                        delay_ticks: extra_delay,
                    });
                }
            }
        }

        let hops = if routed {
            self.route.len() as u64
        } else {
            topology.distance(p, dst) as u64
        };
        debug_assert!(hops > 0, "send to self");
        let (sender_done, arrival) = if self.config.link_contention {
            // Store-and-forward with one message per directed link at a
            // time: queue at each busy link.
            let mut cur = now;
            let mut first_end = now + occ;
            for (i, &id) in self.route.iter().enumerate() {
                let start = cur.max(self.link_free[id]);
                if self.metrics.is_some() {
                    self.link_metrics[id].wait_ticks += start - cur;
                }
                let end = start + occ;
                self.link_free[id] = end;
                if i == 0 {
                    first_end = end;
                }
                cur = end;
            }
            (first_end, cur)
        } else {
            (now + occ, now + occ * hops)
        };
        let arrival = arrival + extra_delay;
        if let Some(m) = self.metrics.as_mut() {
            for &id in &self.route {
                let lm = &mut self.link_metrics[id];
                lm.messages += 1;
                lm.words += words;
                lm.busy_ticks += occ;
            }
            m.procs[p].msgs_sent += 1;
            m.procs[p].send_ticks += sender_done - now;
            m.hops.record(hops);
            m.messages.push(MsgRecord {
                src_proc: p as u32,
                dst_proc: dst as u32,
                src_task: send.src_task,
                dst_tasks: self.payload[send.tasks.range()].to_vec(),
                words,
                send_start: now,
                send_end: sender_done,
                arrival,
                hops: hops as u32,
                fault_delay: extra_delay,
            });
        }
        // A blocking send occupies the sender until its first hop
        // (including any wait for the outgoing link).
        self.procs[p].busy_until = sender_done;
        self.comm[p] += sender_done - now;
        self.messages += 1;
        self.words_sent += words;
        self.events
            .push(sender_done, Kind::SendDone { proc: p as u32 });
        match lost {
            None => self
                .events
                .push(arrival, Kind::Arrive { tasks: send.tasks }),
            Some(why) => {
                // The attempt burned wire time but delivers nothing;
                // the sender learns from the missing ack after its
                // timeout, counted from the end of the transmission.
                self.fault_lost(p, dst, now, send, why, sender_done)?;
            }
        }
        Ok(true)
    }

    fn on_task_done(&mut self, p: usize, task: u32, now: u64) -> Result<(), SimError> {
        if !self.alive[p] {
            // The processor died mid-execution; the completion is void.
            return Ok(());
        }
        // At a shared tick the processor may already have dispatched its
        // next task (an Arrive scheduled earlier for the same tick freed it), so
        // `running` can point past this completion; only clear it when it
        // still names the task that just finished.
        if self.track_running {
            let start = match self.running[p] {
                Some((t, start)) if t == task => {
                    self.running[p] = None;
                    start
                }
                _ => now.saturating_sub(self.dur),
            };
            if let Some(tr) = self.trace.as_mut() {
                tr.push(TaskRecord {
                    task,
                    proc: p as u32,
                    start,
                    end: now,
                });
            }
        }
        if let Some(done) = self.done.get_mut(task as usize) {
            *done = true;
        }
        self.completed += 1;
        self.makespan = self.makespan.max(now);
        // Local arcs complete immediately; remote arcs queue sends, each
        // carrying its tasks as a span of the payload arena.
        let program = self.program;
        if !self.config.batch_messages {
            // The hottest loop of a run: the slot is read once here,
            // where a call to `complete_arc` measured slower.
            for w in program.successors(task as usize) {
                let slot = &mut self.tasks[w as usize];
                if slot.proc as usize == p {
                    slot.indeg -= 1;
                    if slot.indeg == 0 {
                        self.procs[p].ready.insert(slot.rank);
                    }
                } else {
                    let tasks = self.push_payload(std::iter::once(w));
                    self.procs[p].sends.push_back(PendingSend {
                        src_task: task,
                        tasks,
                        attempt: 0,
                    });
                }
            }
            return self.dispatch(p, now);
        }
        let mut remote = std::mem::take(&mut self.remote);
        remote.clear();
        for w in program.successors(task as usize) {
            let q = self.owner(w);
            if q == p {
                self.complete_arc(w);
            } else {
                remote.push((q as u32, w));
            }
        }
        remote.sort_unstable();
        for group in remote.chunk_by(|a, b| a.0 == b.0) {
            let tasks = self.push_payload(group.iter().map(|&(_, w)| w));
            self.procs[p].sends.push_back(PendingSend {
                src_task: task,
                tasks,
                attempt: 0,
            });
        }
        self.remote = remote;
        self.dispatch(p, now)
    }

    /// Append a message's destination tasks to the payload arena.
    fn push_payload(&mut self, tasks: impl Iterator<Item = u32>) -> Span {
        let start = self.payload.len() as u32;
        self.payload.extend(tasks);
        let end = u32::try_from(self.payload.len())
            .expect("a run sends fewer than 2^32 destination words");
        Span {
            start,
            len: end - start,
        }
    }

    fn on_arrive(&mut self, tasks: Span, now: u64) -> Result<(), SimError> {
        // All tasks of one message live on one processor (a remap moves
        // a crashed processor's tasks together, preserving this).
        let q = self.owner(self.payload[tasks.start as usize]);
        debug_assert!(self.payload[tasks.range()]
            .iter()
            .all(|&w| self.owner(w) == q));
        if let Some(m) = self.metrics.as_mut() {
            m.procs[q].msgs_received += 1;
        }
        if self.config.params.t_recv > 0 {
            self.procs[q].recvs.push_back(tasks);
            self.dispatch(q, now)
        } else {
            for i in tasks.range() {
                if let Some(q) = self.complete_arc(self.payload[i]) {
                    self.dispatch(q, now)?;
                }
            }
            Ok(())
        }
    }

    fn on_recv_done(&mut self, p: usize, tasks: Span, now: u64) -> Result<(), SimError> {
        if !self.alive[p] {
            // The receiver died mid-processing; the message data moved
            // with the crash state transfer — redeliver to the tasks'
            // current owner, who pays `t_recv` again.
            let q = self.owner(self.payload[tasks.start as usize]);
            self.procs[q].recvs.push_back(tasks);
            return self.dispatch(q, now);
        }
        for i in tasks.range() {
            self.complete_arc(self.payload[i]);
        }
        self.dispatch(p, now)
    }

    fn on_retry(&mut self, id: u64, now: u64) -> Result<(), SimError> {
        if let Some(st) = self.retry_states[id as usize].take() {
            let mut p = st.proc as usize;
            if !self.alive[p] {
                // Owner crashed and ownership was not reassigned (the
                // send's data now lives with the tasks' owner).
                p = self.owner(self.payload[st.send.tasks.start as usize]);
            }
            self.procs[p].sends.push_back(st.send);
            self.dispatch(p, now)?;
        }
        Ok(())
    }

    fn on_crash(&mut self, p: usize, now: u64) -> Result<(), SimError> {
        if !self.alive[p] {
            return Ok(());
        }
        self.alive[p] = false;
        let stranded: Vec<u32> = (0..self.program.len())
            .filter(|&t| self.owner(t as u32) == p && !self.done[t])
            .map(|t| t as u32)
            .collect();
        let policy = {
            let f = self.faults.as_mut().expect("crash without fault ctx");
            f.deg.crashes += 1;
            f.deg.faults_hit += 1;
            f.policy
        };
        if stranded.is_empty() {
            // Nothing left to do on this processor — fail-stop is free.
            self.running[p] = None;
            return Ok(());
        }
        if policy != RecoveryPolicy::Remap {
            return Err(SimError::Unrecoverable {
                fault: format!(
                    "P{p} fail-stopped with {} unfinished tasks (recovery={policy})",
                    stranded.len()
                ),
                task: Some(stranded[0]),
                at: now,
            });
        }
        // Gray-code nearest surviving neighbor: minimal hop distance,
        // ties toward the lowest processor id.
        let survivor = (0..self.program.num_procs)
            .filter(|&q| self.alive[q])
            .min_by_key(|&q| (self.config.topology.distance(p, q), q))
            .ok_or(SimError::Unrecoverable {
                fault: format!("P{p} fail-stopped and no processor survives"),
                task: Some(stranded[0]),
                at: now,
            })?;
        for &t in &stranded {
            self.tasks[t as usize].proc = survivor as u32;
        }
        // Migrate the dead processor's queues: ready tasks, unsent
        // messages (their payloads ride the state transfer), and
        // arrived-but-unprocessed messages.
        let mut ready = std::mem::take(&mut self.procs[p].ready);
        ready.drain_into(&mut self.procs[survivor].ready);
        self.procs[p].ready = ready;
        let sends = std::mem::take(&mut self.procs[p].sends);
        self.procs[survivor].sends.extend(sends);
        let recvs = std::mem::take(&mut self.procs[p].recvs);
        self.procs[survivor].recvs.extend(recvs);
        // The task that died mid-execution restarts from scratch.
        if let Some((task, _)) = self.running[p].take() {
            self.procs[survivor]
                .ready
                .insert(self.tasks[task as usize].rank);
        }
        // Pending retransmissions now originate from the survivor.
        for st in self.retry_states.iter_mut().flatten() {
            if st.proc as usize == p {
                st.proc = survivor as u32;
            }
        }
        // Charge the paper's cost model for shipping the crashed
        // processor's state to the survivor: one word per stranded task.
        let words = (stranded.len() as u64).max(1);
        let dist = self.config.topology.distance(p, survivor);
        let cost = self.config.params.message_cost(words, dist);
        let start = self.procs[survivor].busy_until.max(now);
        self.procs[survivor].busy_until = start + cost;
        self.comm[survivor] += cost;
        self.messages += 1;
        self.words_sent += words;
        let f = self.faults.as_mut().expect("checked above");
        f.deg.remapped_tasks += stranded.len() as u64;
        f.deg.state_transfer_words += words;
        f.deg.state_transfer_ticks += cost;
        f.deg.attribution.push(FaultImpact {
            fault: format!(
                "P{p} crashed; {} tasks remapped to P{survivor}",
                stranded.len()
            ),
            at: now,
            proc: survivor as u32,
            delay_ticks: cost,
        });
        self.events.push(
            start + cost,
            Kind::SendDone {
                proc: survivor as u32,
            },
        );
        Ok(())
    }

    fn run(mut self, scratch: &mut SimScratch) -> Result<SimReport, SimError> {
        let outcome = self.exec();
        self.reclaim(scratch);
        outcome?;
        if let Some(tr) = self.trace.as_mut() {
            tr.sort_by_key(|r| (r.start, r.task));
        }
        if let Some(m) = self.metrics.as_mut() {
            let topology = self.config.topology;
            m.links = std::mem::take(&mut self.link_metrics)
                .into_iter()
                .enumerate()
                .filter(|(_, lm)| lm.messages > 0)
                .map(|(id, lm)| (topology.link_ends(id), lm))
                .collect();
        }
        let degradation = self.faults.take().map(|f| {
            let mut deg = f.deg;
            deg.faults_injected = f.plan.events.len() as u64;
            deg.degraded_makespan = self.makespan;
            deg
        });
        Ok(SimReport {
            makespan: self.makespan,
            compute: std::mem::take(&mut self.compute),
            comm: std::mem::take(&mut self.comm),
            messages: self.messages,
            words: self.words_sent,
            trace: self.trace.take(),
            metrics: self.metrics.take(),
            degradation,
        })
    }

    /// The event loop proper: seed ready sets, drain the event queue.
    fn exec(&mut self) -> Result<(), SimError> {
        let n_tasks = self.program.len();
        // Seed the ready sets.
        for t in 0..n_tasks {
            let slot = self.tasks[t];
            if slot.indeg == 0 {
                self.procs[slot.proc as usize].ready.insert(slot.rank);
            }
        }
        // Arm scheduled crashes before anything else so a crash at tick
        // `t` beats every same-tick completion (fail-stop wins ties).
        if let Some(f) = self.faults.as_ref() {
            let crashes = f.plan.crashes();
            for (proc, at) in crashes {
                if proc < self.program.num_procs {
                    self.events.push(at, Kind::Crash { proc: proc as u32 });
                }
            }
        }
        for p in 0..self.program.num_procs {
            self.dispatch(p, 0)?;
        }
        while let Some((now, kind)) = self.events.pop() {
            match kind {
                Kind::TaskDone { proc, task } => self.on_task_done(proc as usize, task, now)?,
                Kind::SendDone { proc } => self.dispatch(proc as usize, now)?,
                Kind::Arrive { tasks } => self.on_arrive(tasks, now)?,
                Kind::RecvDone { proc, tasks } => self.on_recv_done(proc as usize, tasks, now)?,
                Kind::Retry { id } => self.on_retry(id, now)?,
                Kind::Crash { proc } => self.on_crash(proc as usize, now)?,
            }
        }
        if self.completed != n_tasks {
            return Err(SimError::Deadlock {
                completed: self.completed,
                total: n_tasks,
            });
        }
        Ok(())
    }
}

/// Run the program to completion on the configured (fault-free)
/// machine.
///
/// Scheduling policy: each processor is a single resource shared by
/// computation and message startup. When free it first issues pending
/// sends (data flows out as early as possible), then executes the ready
/// task with the smallest hyperplane step — so the execution order defined
/// by the time transformation is preserved within every processor.
pub fn simulate(program: &Program, config: &SimConfig) -> Result<SimReport, SimError> {
    simulate_scratch(program, config, &mut SimScratch::default())
}

/// [`simulate`] with reusable engine state: back-to-back runs through
/// the same [`SimScratch`] avoid re-allocating the engine's working
/// buffers while remaining bit-identical to fresh-state runs.
pub fn simulate_scratch(
    program: &Program,
    config: &SimConfig,
    scratch: &mut SimScratch,
) -> Result<SimReport, SimError> {
    Engine::new(program, config, None, scratch)?.run(scratch)
}

/// Run the program under a deterministic fault plan.
///
/// The fault-free baseline is simulated first (trace and metrics
/// suppressed) so the attached [`DegradationReport`] can report
/// makespan inflation; the degraded run then executes with the plan's
/// noise stream seeded from [`FaultConfig::seed`]. An empty plan takes
/// exactly the baseline code path, so its report matches [`simulate`]
/// bit for bit (with a zeroed degradation summary attached).
pub fn simulate_with_faults(
    program: &Program,
    config: &SimConfig,
    faults: &FaultConfig,
) -> Result<SimReport, SimError> {
    simulate_with_faults_scratch(program, config, faults, &mut SimScratch::default())
}

/// [`simulate_with_faults`] with reusable engine state: the baseline
/// and degraded runs share one [`SimScratch`], and back-to-back calls
/// reuse its buffers while remaining bit-identical to fresh-state runs.
pub fn simulate_with_faults_scratch(
    program: &Program,
    config: &SimConfig,
    faults: &FaultConfig,
    scratch: &mut SimScratch,
) -> Result<SimReport, SimError> {
    let mut base_cfg = *config;
    base_cfg.record_trace = false;
    base_cfg.collect_metrics = false;
    let baseline = Engine::new(program, &base_cfg, None, scratch)?.run(scratch)?;
    let ctx = FaultCtx {
        plan: &faults.plan,
        policy: faults.policy,
        rng: SplitMix64::new(faults.seed()),
        deg: DegradationReport::default(),
        noise: faults.plan.has_message_noise(),
        has_links: faults.plan.has_link_faults(),
        has_slow: faults
            .plan
            .events
            .iter()
            .any(|e| matches!(e, crate::fault::FaultEvent::ProcSlow { .. })),
    };
    let mut report = Engine::new(program, config, Some(ctx), scratch)?.run(scratch)?;
    if let Some(deg) = report.degradation.as_mut() {
        deg.baseline_makespan = baseline.makespan;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultEvent;

    fn params() -> MachineParams {
        MachineParams {
            t_calc: 1,
            t_start: 10,
            t_comm: 2,
            t_recv: 0,
        }
    }

    fn config(n_procs_dim: usize) -> SimConfig {
        SimConfig {
            params: params(),
            topology: Topology::Hypercube(n_procs_dim),
            batch_messages: false,
            link_contention: false,
            record_trace: true,
            collect_metrics: false,
        }
    }

    #[test]
    fn single_proc_chain_is_serial() {
        // 3 tasks in a chain on one processor, 2 flops each.
        let prog = Program::from_parts(vec![0, 1, 2], vec![(0, 1), (1, 2)], vec![0, 0, 0], 2, 1);
        let r = simulate(&prog, &config(0)).unwrap();
        assert_eq!(r.makespan, 6);
        assert_eq!(r.compute, vec![6]);
        assert_eq!(r.comm, vec![0]);
        assert_eq!(r.messages, 0);
    }

    #[test]
    fn two_proc_chain_pays_message() {
        // task0 (proc0) → task1 (proc1), 1 flop, 1 word, 1 hop.
        let prog = Program::from_parts(vec![0, 1], vec![(0, 1)], vec![0, 1], 1, 2);
        let r = simulate(&prog, &config(1)).unwrap();
        // t=1 task0 done; send occupies proc0 until 1+12; arrival at 13;
        // task1 runs 13→14.
        assert_eq!(r.makespan, 14);
        assert_eq!(r.compute, vec![1, 1]);
        assert_eq!(r.comm, vec![12, 0]);
        assert_eq!(r.messages, 1);
        assert_eq!(r.words, 1);
    }

    #[test]
    fn multi_hop_store_and_forward() {
        // proc 0b00 → proc 0b11 on a 2-cube: 2 hops.
        let prog = Program::from_parts(vec![0, 1], vec![(0, 1)], vec![0, 3], 1, 4);
        let r = simulate(&prog, &config(2)).unwrap();
        // Arrival at 1 + 2*12 = 25; completion at 26.
        assert_eq!(r.makespan, 26);
        // Sender only occupied for the first hop.
        assert_eq!(r.comm[0], 12);
    }

    #[test]
    fn independent_tasks_run_in_parallel() {
        let prog = Program::from_parts(vec![0, 0], vec![], vec![0, 1], 5, 2);
        let r = simulate(&prog, &config(1)).unwrap();
        assert_eq!(r.makespan, 5);
        assert_eq!(r.compute, vec![5, 5]);
    }

    #[test]
    fn batching_reduces_messages_and_makespan() {
        // task0 on proc0 feeds 4 tasks on proc1.
        let prog = Program::from_parts(
            vec![0, 1, 1, 1, 1],
            vec![(0, 1), (0, 2), (0, 3), (0, 4)],
            vec![0, 1, 1, 1, 1],
            1,
            2,
        );
        let unbatched = simulate(&prog, &config(1)).unwrap();
        let mut cfg = config(1);
        cfg.batch_messages = true;
        let batched = simulate(&prog, &cfg).unwrap();
        assert_eq!(unbatched.messages, 4);
        assert_eq!(batched.messages, 1);
        assert_eq!(batched.words, 4);
        assert!(batched.makespan < unbatched.makespan);
        // One batched message: t_start + 4·t_comm = 18 occupancy.
        assert_eq!(batched.comm[0], 18);
    }

    #[test]
    fn deadlock_detected() {
        let prog = Program::from_parts(vec![0, 0], vec![(0, 1), (1, 0)], vec![0, 0], 1, 1);
        assert_eq!(
            simulate(&prog, &config(0)).unwrap_err(),
            SimError::Deadlock {
                completed: 0,
                total: 2
            }
        );
    }

    #[test]
    fn machine_too_small_detected() {
        let prog = Program::from_parts(vec![0], vec![], vec![0], 1, 4);
        assert_eq!(
            simulate(&prog, &config(1)).unwrap_err(),
            SimError::MachineTooSmall {
                needed: 4,
                available: 2
            }
        );
    }

    #[test]
    fn trace_records_every_task() {
        let prog = Program::from_parts(vec![0, 1, 2], vec![(0, 1), (1, 2)], vec![0, 0, 0], 2, 1);
        let r = simulate(&prog, &config(0)).unwrap();
        let tr = r.trace.unwrap();
        assert_eq!(tr.len(), 3);
        assert_eq!(tr[0].start, 0);
        assert_eq!(tr[2].end, 6);
    }

    #[test]
    fn link_contention_serializes_shared_links() {
        // Two independent cross-proc sends from proc 0 to proc 1: with
        // contention off both messages pipeline through the wire model
        // (arrival = send end); with contention on, behavior over ONE
        // link is identical because the sender already serializes its
        // own sends. Use a two-hop route shared by two senders instead:
        // procs 0b00 and 0b01 both send to 0b11; the (0b01,0b11) link is
        // shared under e-cube routing.
        let prog = Program::from_parts(
            vec![0, 0, 1, 1],
            vec![(0, 2), (1, 3)],
            vec![0, 1, 3, 3],
            1,
            4,
        );
        let mut free = config(2);
        free.record_trace = false;
        let mut contended = free;
        contended.link_contention = true;
        let a = simulate(&prog, &free).unwrap();
        let b = simulate(&prog, &contended).unwrap();
        assert!(
            b.makespan >= a.makespan,
            "contention can only delay: {} vs {}",
            b.makespan,
            a.makespan
        );
        // Compute totals are unaffected.
        assert_eq!(a.compute, b.compute);
    }

    #[test]
    fn contention_off_matches_original_model() {
        let prog = Program::from_parts(vec![0, 1], vec![(0, 1)], vec![0, 3], 1, 4);
        let r = simulate(&prog, &config(2)).unwrap();
        assert_eq!(r.makespan, 26); // same as multi_hop_store_and_forward
    }

    #[test]
    fn receive_overhead_charged_to_receiver() {
        // task0 (proc0) → task1 (proc1), t_recv = 3: arrival at 13, then
        // 3 ticks of receive processing, task1 runs 16→17.
        let prog = Program::from_parts(vec![0, 1], vec![(0, 1)], vec![0, 1], 1, 2);
        let mut cfg = config(1);
        cfg.params = cfg.params.with_recv(3);
        let r = simulate(&prog, &cfg).unwrap();
        assert_eq!(r.makespan, 17);
        assert_eq!(r.comm[1], 3, "receiver pays t_recv");
        assert_eq!(r.comm[0], 12, "sender unchanged");
    }

    #[test]
    fn receive_overhead_monotone() {
        let prog = Program::from_parts(
            vec![0, 0, 1, 1],
            vec![(0, 2), (0, 3), (1, 2), (1, 3)],
            vec![0, 1, 0, 1],
            3,
            2,
        );
        let mut prev = 0;
        for t_recv in [0u64, 2, 8, 32] {
            let mut cfg = config(1);
            cfg.params = cfg.params.with_recv(t_recv);
            let r = simulate(&prog, &cfg).unwrap();
            assert!(r.makespan >= prev, "t_recv={t_recv}");
            prev = r.makespan;
        }
    }

    #[test]
    fn metrics_breakdown_matches_report() {
        // task0 (proc0) → task1 (proc1): one message, one hop.
        let prog = Program::from_parts(vec![0, 1], vec![(0, 1)], vec![0, 1], 1, 2);
        let mut cfg = config(1);
        cfg.collect_metrics = true;
        let r = simulate(&prog, &cfg).unwrap();
        let m = r.metrics.as_ref().unwrap();
        assert_eq!(m.procs.len(), 2);
        // Tick breakdowns agree with the coarse report.
        for p in 0..2 {
            assert_eq!(m.procs[p].compute_ticks, r.compute[p]);
            assert_eq!(m.procs[p].send_ticks + m.procs[p].recv_ticks, r.comm[p]);
        }
        assert_eq!(m.procs[0].msgs_sent, 1);
        assert_eq!(m.procs[1].msgs_received, 1);
        assert_eq!(m.procs.iter().map(|p| p.tasks).sum::<u64>(), 2);
        // One message logged, one hop, over link (0,1).
        assert_eq!(m.messages.len(), 1);
        let msg = &m.messages[0];
        assert_eq!((msg.src_proc, msg.dst_proc), (0, 1));
        assert_eq!(msg.src_task, 0);
        assert_eq!(msg.dst_tasks, vec![1]);
        assert_eq!(msg.hops, 1);
        assert_eq!(msg.send_start, 1);
        assert_eq!(msg.send_end, 13);
        assert_eq!(msg.arrival, 13);
        assert_eq!(m.hops.count(), 1);
        assert_eq!(m.links.get(&(0, 1)).unwrap().messages, 1);
        assert_eq!(m.links.get(&(0, 1)).unwrap().busy_ticks, 12);
    }

    #[test]
    fn metrics_do_not_change_timing() {
        let prog = Program::from_parts(
            vec![0, 0, 1, 1],
            vec![(0, 2), (0, 3), (1, 2), (1, 3)],
            vec![0, 1, 0, 1],
            3,
            2,
        );
        for contention in [false, true] {
            for t_recv in [0u64, 3] {
                let mut plain = config(1);
                plain.link_contention = contention;
                plain.params = plain.params.with_recv(t_recv);
                plain.record_trace = true;
                let mut metered = plain;
                metered.collect_metrics = true;
                let a = simulate(&prog, &plain).unwrap();
                let b = simulate(&prog, &metered).unwrap();
                let ctx = format!("contention={contention} t_recv={t_recv}");
                assert_eq!(a.makespan, b.makespan, "{ctx}");
                assert_eq!(a.compute, b.compute, "{ctx}");
                assert_eq!(a.comm, b.comm, "{ctx}");
                // The full event-level task trace is bit-identical, not
                // just the aggregates.
                assert_eq!(a.trace, b.trace, "{ctx}");
                assert!(a.metrics.is_none());
                assert!(b.metrics.is_some());
            }
        }
    }

    #[test]
    fn metrics_record_link_wait_under_contention() {
        // Two senders share the (0b01, 0b11) link under e-cube routing.
        let prog = Program::from_parts(
            vec![0, 0, 1, 1],
            vec![(0, 2), (1, 3)],
            vec![0, 1, 3, 3],
            1,
            4,
        );
        let mut cfg = config(2);
        cfg.link_contention = true;
        cfg.collect_metrics = true;
        let r = simulate(&prog, &cfg).unwrap();
        let m = r.metrics.as_ref().unwrap();
        let shared = m.links.get(&(0b01, 0b11)).unwrap();
        assert_eq!(shared.messages, 2);
        assert!(shared.wait_ticks > 0, "shared link should queue");
        assert_eq!(m.total_link_wait(), shared.wait_ticks);
        assert_eq!(m.hottest_link().unwrap().0, (0b01, 0b11));
    }

    #[test]
    fn derived_report_helpers() {
        let prog = Program::from_parts(vec![0, 1], vec![(0, 1)], vec![0, 1], 1, 2);
        let r = simulate(&prog, &config(1)).unwrap();
        // makespan 14; proc0 busy 1+12, proc1 busy 1.
        assert_eq!(r.idle_ticks(), vec![1, 13]);
        assert_eq!(r.comm_to_compute_ratio(), 6.0); // 12 comm / 2 compute
        let util = r.per_proc_utilization();
        assert!((util[0] - 13.0 / 14.0).abs() < 1e-12);
        assert!((util[1] - 1.0 / 14.0).abs() < 1e-12);
        // Degenerate empty report.
        let empty = SimReport {
            makespan: 0,
            compute: vec![0],
            comm: vec![0],
            messages: 0,
            words: 0,
            trace: None,
            metrics: None,
            degradation: None,
        };
        assert_eq!(empty.idle_ticks(), vec![0]);
        assert_eq!(empty.comm_to_compute_ratio(), 0.0);
        assert_eq!(empty.per_proc_utilization(), vec![0.0]);
    }

    #[test]
    fn report_helpers_zero_makespan() {
        // A single zero-flop task: the run finishes at tick 0.
        let prog = Program::from_parts(vec![0], vec![], vec![0], 0, 1);
        let r = simulate(&prog, &config(0)).unwrap();
        assert_eq!(r.makespan, 0);
        assert_eq!(r.max_proc_occupancy(), 0);
        assert_eq!(r.idle_ticks(), vec![0]);
        assert_eq!(r.comm_to_compute_ratio(), 0.0);
        assert_eq!(r.per_proc_utilization(), vec![0.0]);
    }

    #[test]
    fn report_helpers_compute_free_program() {
        // Zero-flop tasks across two processors: all occupancy is comm.
        let prog = Program::from_parts(vec![0, 1], vec![(0, 1)], vec![0, 1], 0, 2);
        let r = simulate(&prog, &config(1)).unwrap();
        assert_eq!(r.compute, vec![0, 0]);
        assert!(r.comm[0] > 0, "the message still costs wire time");
        // The guarded ratio must not divide by zero.
        assert_eq!(r.comm_to_compute_ratio(), 0.0);
        assert_eq!(r.max_proc_occupancy(), r.comm[0]);
        let idle = r.idle_ticks();
        assert_eq!(idle[0], r.makespan - r.comm[0]);
        assert_eq!(idle[1], r.makespan);
        let util = r.per_proc_utilization();
        assert!(util.iter().all(|&u| (0.0..=1.0).contains(&u)));
    }

    #[test]
    fn report_helpers_single_processor_run() {
        // One processor, never idle: utilization exactly 1.
        let prog = Program::from_parts(vec![0, 1, 2], vec![(0, 1), (1, 2)], vec![0, 0, 0], 3, 1);
        let r = simulate(&prog, &config(0)).unwrap();
        assert_eq!(r.max_proc_occupancy(), r.makespan);
        assert_eq!(r.idle_ticks(), vec![0]);
        assert_eq!(r.comm_to_compute_ratio(), 0.0);
        assert_eq!(r.per_proc_utilization(), vec![1.0]);
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    fn chain_prog() -> Program {
        // proc0 → proc1 → proc2 → proc3 chain across a 2-cube.
        Program::from_parts(
            vec![0, 1, 2, 3],
            vec![(0, 1), (1, 2), (2, 3)],
            vec![0, 1, 2, 3],
            2,
            4,
        )
    }

    #[test]
    fn empty_plan_matches_baseline_exactly() {
        let prog = chain_prog();
        let cfg = config(2);
        let base = simulate(&prog, &cfg).unwrap();
        let fc = FaultConfig::new(FaultPlan::none(), RecoveryPolicy::RetryOnly);
        let r = simulate_with_faults(&prog, &cfg, &fc).unwrap();
        assert_eq!(r.makespan, base.makespan);
        assert_eq!(r.compute, base.compute);
        assert_eq!(r.comm, base.comm);
        assert_eq!(r.messages, base.messages);
        assert_eq!(r.words, base.words);
        assert_eq!(r.trace, base.trace);
        let deg = r.degradation.unwrap();
        assert_eq!(deg.faults_hit, 0);
        assert_eq!(deg.baseline_makespan, base.makespan);
        assert_eq!(deg.degraded_makespan, base.makespan);
        assert_eq!(deg.makespan_inflation(), 0.0);
    }

    #[test]
    fn message_drops_retry_and_inflate_makespan() {
        let prog = chain_prog();
        let cfg = config(2);
        // Drop every message on its first attempts: per-mille 1000.
        let plan = FaultPlan {
            retry_timeout: 8,
            ..FaultPlan::message_noise(42, 500, 0, 0)
        };
        let fc = FaultConfig::new(plan, RecoveryPolicy::RetryOnly);
        let r = simulate_with_faults(&prog, &cfg, &fc).unwrap();
        let deg = r.degradation.as_ref().unwrap();
        assert!(deg.drops > 0, "500‰ over several messages must drop some");
        assert_eq!(deg.retries, deg.drops + deg.corruptions);
        assert!(deg.retransmitted_words > 0);
        assert!(deg.degraded_makespan > deg.baseline_makespan);
        assert!(deg.makespan_inflation() > 0.0);
        // Attempts show up in the traffic counters.
        assert!(r.messages > 3);
    }

    #[test]
    fn identical_seeds_reproduce_identical_degradation() {
        let prog = chain_prog();
        let cfg = config(2);
        let plan = FaultPlan::message_noise(7, 300, 100, 200);
        let a = simulate_with_faults(
            &prog,
            &cfg,
            &FaultConfig::new(plan.clone(), RecoveryPolicy::RetryOnly),
        )
        .unwrap();
        let b = simulate_with_faults(
            &prog,
            &cfg,
            &FaultConfig::new(plan, RecoveryPolicy::RetryOnly),
        )
        .unwrap();
        assert_eq!(a.degradation, b.degradation);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn abort_policy_fails_on_first_drop() {
        let prog = chain_prog();
        let cfg = config(2);
        let plan = FaultPlan::message_noise(1, 1000, 0, 0); // drop everything
        let err = simulate_with_faults(&prog, &cfg, &FaultConfig::new(plan, RecoveryPolicy::Abort))
            .unwrap_err();
        assert!(matches!(err, SimError::Unrecoverable { .. }), "got {err:?}");
    }

    #[test]
    fn retries_are_bounded() {
        let prog = chain_prog();
        let cfg = config(2);
        let plan = FaultPlan {
            max_retries: 3,
            retry_timeout: 4,
            ..FaultPlan::message_noise(1, 1000, 0, 0) // drop everything forever
        };
        let err = simulate_with_faults(
            &prog,
            &cfg,
            &FaultConfig::new(plan, RecoveryPolicy::RetryOnly),
        )
        .unwrap_err();
        match err {
            SimError::Unrecoverable { fault, .. } => {
                assert!(fault.contains("abandoned"), "{fault}")
            }
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
    }

    #[test]
    fn transient_link_outage_reroutes() {
        // proc0 → proc1 on a 2-cube with link (0,1) down for the whole
        // run: the message must detour 0→2→3→1 (3 hops) and still land.
        let prog = Program::from_parts(vec![0, 1], vec![(0, 1)], vec![0, 1], 1, 4);
        let cfg = config(2);
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
        let deg = r.degradation.as_ref().unwrap();
        assert_eq!(deg.reroutes, 1);
        // 3 hops instead of 1: arrival 1 + 3·12 = 37, completion 38.
        assert_eq!(r.makespan, 38);
        assert!(deg.makespan_inflation() > 0.0);
    }

    #[test]
    fn permanent_partition_is_unroutable() {
        // On a 2-node ring there is no detour: cutting 0→1 for good
        // makes the pair unroutable.
        let prog = Program::from_parts(vec![0, 1], vec![(0, 1)], vec![0, 1], 1, 2);
        let mut cfg = config(1);
        cfg.topology = Topology::Ring(2);
        let plan = FaultPlan::none().with_event(FaultEvent::LinkDown {
            from: 0,
            to: 1,
            at: 0,
            until: None,
        });
        let err = simulate_with_faults(
            &prog,
            &cfg,
            &FaultConfig::new(plan, RecoveryPolicy::RetryOnly),
        )
        .unwrap_err();
        assert_eq!(err, SimError::Unroutable { src: 0, dst: 1 });
    }

    #[test]
    fn short_outage_retries_until_link_returns() {
        // Same 2-node ring, but the outage ends at tick 40: the send
        // backs off and succeeds once the link is back.
        let prog = Program::from_parts(vec![0, 1], vec![(0, 1)], vec![0, 1], 1, 2);
        let mut cfg = config(1);
        cfg.topology = Topology::Ring(2);
        let plan = FaultPlan {
            retry_timeout: 16,
            ..FaultPlan::none().with_event(FaultEvent::LinkDown {
                from: 0,
                to: 1,
                at: 0,
                until: Some(40),
            })
        };
        let r = simulate_with_faults(
            &prog,
            &cfg,
            &FaultConfig::new(plan, RecoveryPolicy::RetryOnly),
        )
        .unwrap();
        let deg = r.degradation.as_ref().unwrap();
        assert!(deg.faults_hit > 0);
        assert!(r.makespan > 14, "outage must delay the 14-tick baseline");
    }

    #[test]
    fn slowdown_inflates_compute() {
        let prog = chain_prog();
        let cfg = config(2);
        let plan = FaultPlan::none().with_event(FaultEvent::ProcSlow {
            proc: 0,
            factor: 5,
            at: 0,
            until: None,
        });
        let r = simulate_with_faults(
            &prog,
            &cfg,
            &FaultConfig::new(plan, RecoveryPolicy::RetryOnly),
        )
        .unwrap();
        let deg = r.degradation.as_ref().unwrap();
        assert_eq!(r.compute[0], 10, "2 flops × 5 slowdown");
        assert!(deg.faults_hit > 0);
        assert!(deg.degraded_makespan > deg.baseline_makespan);
    }

    #[test]
    fn crash_under_retry_only_is_unrecoverable() {
        let prog = chain_prog();
        let cfg = config(2);
        let plan = FaultPlan::none().with_crash(2, 1);
        let err = simulate_with_faults(
            &prog,
            &cfg,
            &FaultConfig::new(plan, RecoveryPolicy::RetryOnly),
        )
        .unwrap_err();
        match err {
            SimError::Unrecoverable { fault, task, .. } => {
                assert!(fault.contains("P2 fail-stopped"), "{fault}");
                assert_eq!(task, Some(2));
            }
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
    }

    #[test]
    fn crash_with_remap_completes_and_charges_state_transfer() {
        let prog = chain_prog();
        let cfg = config(2);
        let plan = FaultPlan::none().with_crash(2, 1);
        let r = simulate_with_faults(&prog, &cfg, &FaultConfig::new(plan, RecoveryPolicy::Remap))
            .unwrap();
        let deg = r.degradation.as_ref().unwrap();
        assert_eq!(deg.crashes, 1);
        assert!(deg.remapped_tasks >= 1);
        assert!(deg.state_transfer_words > 0);
        assert!(deg.state_transfer_ticks > 0);
        // P2's Gray-code nearest survivor is P0 (distance 1, lowest id).
        assert!(
            r.compute[2] == 0 || r.comm[2] == 0,
            "dead proc does no new work"
        );
        // Every task still completed exactly once.
        assert_eq!(r.trace.as_ref().unwrap().len(), 4);
    }

    #[test]
    fn crash_after_completion_is_harmless() {
        let prog = chain_prog();
        let cfg = config(2);
        let base = simulate(&prog, &cfg).unwrap();
        let plan = FaultPlan::none().with_crash(1, base.makespan + 1_000);
        let r = simulate_with_faults(&prog, &cfg, &FaultConfig::new(plan, RecoveryPolicy::Abort))
            .unwrap();
        assert_eq!(r.makespan, base.makespan);
        let deg = r.degradation.unwrap();
        assert_eq!(deg.crashes, 1);
        assert_eq!(deg.remapped_tasks, 0);
    }

    #[test]
    fn determinism() {
        let prog = Program::from_parts(
            vec![0, 0, 1, 1],
            vec![(0, 2), (0, 3), (1, 2), (1, 3)],
            vec![0, 1, 0, 1],
            3,
            2,
        );
        let a = simulate(&prog, &config(1)).unwrap();
        let b = simulate(&prog, &config(1)).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.compute, b.compute);
        assert_eq!(a.comm, b.comm);
    }
}
