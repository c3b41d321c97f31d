//! SPMD code generation — the output stage of the parallelizing
//! compiler the paper describes.
//!
//! After Algorithm 1 partitions a nest into blocks and Algorithm 2 maps
//! blocks onto processors, each processor must run a *program*: execute
//! its own iterations in hyperplane order, receive remote operands
//! before using them, and send produced values to the processors that
//! need them. This crate:
//!
//! * generates that program per processor ([`gen::generate`]) — a list
//!   of [`ops::Op`]s (`Recv`, `Compute`, `Send`) tagged with the
//!   dependence arcs they serve,
//! * renders it as readable pseudo-code ([`render`]),
//! * and *runs* it with per-processor private stores, indexed by slots
//!   of one layout built per run. One stepping core ([`interp`])
//!   defines what each op does; three schedulers
//!   drive it: [`run`] (deterministic round-robin run-to-block via
//!   [`SpmdProgram::round_robin`], which detects deadlock),
//!   [`run_schedule`] (replay of an explicit op order), and
//!   [`run_threaded_gathered`] (a thread per processor over channels:
//!   processor 0 on the caller's, the rest on scoped workers). All three report one [`RunError`], and their gathered
//!   results are compared bit-for-bit against the sequential oracle in
//!   the tests.
//!
//! Anti and output dependences carry no data across private memories —
//! they become empty synchronization tokens that only enforce ordering,
//! mirroring how a distributed-memory code generator treats them.

#![deny(missing_docs)]

pub mod gen;
pub mod interp;
pub mod ops;
pub mod render;
mod store;
pub mod threads;

pub use gen::{generate, CodegenError};
pub use interp::{run, run_schedule, RunError};
pub use ops::{Op, SpmdProgram, Tag};
pub use threads::run_threaded_gathered;
