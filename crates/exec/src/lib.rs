//! Numerical execution of loop nests — the reproduction's end-to-end
//! *correctness* check.
//!
//! The partitioning and mapping machinery reorders iterations across
//! processors; the only ground truth that matters is that the reordered
//! execution computes **exactly** the values the original sequential
//! loop computes. This crate provides:
//!
//! * [`memory::Memory`] — a sparse array store keyed by
//!   `(array, element)`,
//! * [`oracle`] — the sequential interpreter (lexicographic iteration
//!   order, the semantics of the source loop),
//! * [`ordered`] — execution in an arbitrary total order (a hyperplane
//!   schedule front order, or the start-time order of a simulator
//!   trace), with dependence-order validation,
//! * [`ordered::equivalent`] — exact comparison of two executions.
//!
//! Because every array element has a unique writer *sequence* fixed by
//! the dependence relation, any dependence-respecting order produces
//! bit-identical floating-point results — asserted, not assumed, by the
//! tests here and in `tests-int`.
//!
//! ```
//! use loom_exec::{equivalent, execute_in_order, schedule_order, sequential};
//! use loom_exec::memory::address_hash_init;
//! use loom_hyperplane::{Schedule, TimeFn};
//!
//! let w = loom_workloads::matvec::workload(6);
//! let serial = sequential(&w.nest, &address_hash_init);
//! // Re-execute in hyperplane front order: bit-identical.
//! let points: Vec<_> = w.nest.space().points().collect();
//! let sched = Schedule::build(TimeFn::new(w.pi.clone()), w.nest.space());
//! let order = schedule_order(&points, &sched);
//! let par = execute_in_order(&w.nest, &points, &order, &w.verified_deps(),
//!                            &address_hash_init).unwrap();
//! assert_eq!(equivalent(&par, &serial), Ok(()));
//! ```

#![deny(missing_docs)]

pub mod memory;
pub mod oracle;
pub mod ordered;

pub use memory::Memory;
pub use oracle::{execute_iteration, sequential};
pub use ordered::{equivalent, execute_in_order, schedule_order, trace_order, Divergence};
