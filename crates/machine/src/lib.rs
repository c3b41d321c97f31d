//! A deterministic discrete-event simulator of a message-passing
//! multiprocessor, parameterized by the cost model the paper uses:
//! `t_calc` per floating-point operation, and `t_start + k·t_comm` to
//! transmit `k` words between adjacent processors (store-and-forward
//! over multi-hop routes).
//!
//! This is the substitute for the 1991 hypercube hardware the paper's
//! analysis assumes (see DESIGN.md §4): partitioned blocks are placed on
//! processors, iterations execute in data-driven order respecting the
//! hyperplane schedule, and every interblock dependence arc that crosses
//! processors becomes a message. The simulator reports makespan,
//! per-processor compute/communication occupancy, and message counts, so
//! benches can reproduce the *shape* of the paper's Table I.
//!
//! * [`topology`] — hypercube / mesh / ring / complete interconnects,
//! * [`cost`] — the `(t_calc, t_start, t_comm)` machine parameters,
//! * [`program`] — the executable form of a partitioned + mapped nest,
//! * [`sim`] — the event-driven engine and its report,
//! * [`fault`] — deterministic fault injection (link outages, message
//!   drop/corruption/delay, slowdowns, fail-stop crashes) with
//!   retry/reroute/remap recovery,
//! * [`trace`] — optional execution traces, a post-hoc validity check,
//!   and Chrome trace-event export,
//! * [`metrics`] — rich opt-in telemetry (per-processor tick
//!   breakdowns, per-link traffic, message logs),
//! * [`profile`] — critical-path extraction over a traced + metered
//!   run: attributes every tick of the makespan to compute / startup /
//!   transit / contention / recv / fault-recovery buckets.
//!
//! ```
//! use loom_machine::{simulate, MachineParams, Program, SimConfig};
//!
//! // Two tasks chained across two processors: the message costs
//! // t_start + t_comm = 55 ticks on the classic machine.
//! let prog = Program::from_parts(vec![0, 1], vec![(0, 1)], vec![0, 1], 1, 2);
//! let report = simulate(
//!     &prog,
//!     &SimConfig::paper_hypercube(1, MachineParams::classic_1991()),
//! ).unwrap();
//! assert_eq!(report.makespan, 1 + 55 + 1);
//! assert_eq!(report.messages, 1);
//! ```

#![deny(missing_docs)]

pub mod cost;
pub mod fault;
pub mod metrics;
pub mod profile;
pub mod program;
pub mod sim;
pub mod topology;
pub mod trace;

pub use cost::MachineParams;
pub use fault::{
    DegradationReport, FaultConfig, FaultEvent, FaultImpact, FaultPlan, RecoveryPolicy,
};
pub use metrics::SimMetrics;
pub use profile::{critical_path, critical_path_top_k, Attribution, CriticalPathReport};
pub use program::Program;
pub use sim::{
    simulate, simulate_scratch, simulate_with_faults, simulate_with_faults_scratch, SimConfig,
    SimError, SimReport, SimScratch,
};
pub use topology::Topology;
