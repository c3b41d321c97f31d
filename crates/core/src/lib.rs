//! `loom-core` — the public façade of the Sheu–Tai (1991) reproduction.
//!
//! One call takes a nested loop from source form to a simulated parallel
//! execution on a hypercube:
//!
//! ```
//! use loom_core::{Pipeline, PipelineConfig};
//! let w = loom_workloads::matvec::workload(16);
//! let out = Pipeline::new(w.nest.clone())
//!     .run(&PipelineConfig { cube_dim: 2, ..Default::default() })
//!     .unwrap();
//! assert_eq!(out.pi.coeffs(), &[1, 1]);            // hyperplane method
//! assert_eq!(out.partitioning.num_blocks(), 16);   // Algorithm 1
//! assert!(out.sim.is_some());                      // simulated machine
//! ```
//!
//! The stages (each usable on its own through the substrate crates):
//!
//! 1. dependence extraction ([`loom_loopir::deps`]),
//! 2. time transformation by the hyperplane method ([`loom_hyperplane`]),
//! 3. partitioning into blocks — Algorithm 1 ([`loom_partition`]),
//! 4. hypercube mapping — Algorithm 2 ([`loom_mapping`]),
//! 5. discrete-event execution on the machine model ([`loom_machine`]).
//!
//! [`analytic`] implements the paper's closed-form `T_exec` model
//! (Table I), and [`report`] renders the aligned text tables the repro
//! binaries print.

#![deny(missing_docs)]

pub mod analytic;
pub mod explore;
pub mod obs_export;
pub mod pipeline;
pub mod report;
pub mod symbolic_cost;

pub use pipeline::{
    Admitted, MachineOptions, PartitionedStage, Pipeline, PipelineConfig, PipelineError,
    PipelineOutput,
};
