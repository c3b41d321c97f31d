//! `loom-obs` — the observability substrate of the loom workspace, built
//! with zero external dependencies (the whole workspace builds offline).
//!
//! The paper's argument is quantitative — `T_exec` splits into
//! computation and communication, Theorem 2 bounds neighbour counts,
//! contention lives on individual hypercube links — so every layer of
//! the pipeline needs a cheap way to *measure itself*:
//!
//! * [`recorder`] — [`Recorder`] collects named wall-clock [`Span`]s and
//!   monotonic [`Counter`]s; the disabled recorder costs one branch per
//!   call site, so un-instrumented runs pay ~nothing,
//! * [`flight`] — a bounded structured-event ring buffer
//!   ([`FlightRecorder`]) with a stable JSONL schema, plus span
//!   aggregation into per-stage exclusive-time summaries and
//!   collapsed-stack (flamegraph) export,
//! * [`histogram`] — a power-of-two-bucketed [`Histogram`] for tick and
//!   hop distributions,
//! * [`json`] — a tiny JSON value ([`Json`]) with a renderer and a
//!   parser, for machine-readable metrics files and round-trip tests,
//! * [`diff`] — cross-run regression detection over bench/metrics
//!   documents, with noise thresholds on the histogram's
//!   power-of-two bucket scale (behind `loom obs diff`),
//! * [`chrome`] — a builder for Chrome trace-event JSON
//!   ([`chrome::TraceBuilder`]) loadable in Perfetto or
//!   `chrome://tracing`,
//! * [`pool`] — a deterministic scoped-thread work pool ([`Pool`])
//!   whose `map_indexed` returns results in input order and whose
//!   single-thread mode is the exact serial path,
//! * [`rng`] — a deterministic [`SplitMix64`] generator for seeded
//!   baselines and property-style tests,
//! * [`bench`](mod@bench) — a tiny wall-clock micro-benchmark harness
//!   ([`bench::Bench`]) backing the `harness = false` bench targets.
//!
//! ```
//! use loom_obs::Recorder;
//!
//! let rec = Recorder::enabled();
//! {
//!     let _span = rec.span("phase.partition");
//!     rec.counter("blocks").add(17);
//! }
//! assert_eq!(rec.counters()["blocks"], 17);
//! assert_eq!(rec.spans()[0].name, "phase.partition");
//! ```

#![deny(missing_docs)]

pub mod bench;
pub mod chrome;
pub mod diff;
pub mod flight;
pub mod histogram;
pub mod json;
pub mod pool;
pub mod recorder;
pub mod rng;

pub use diff::{DiffOptions, DiffReport, Finding, FindingKind};
pub use flight::{FlightEvent, FlightRecorder, StageSummary};
pub use histogram::Histogram;
pub use json::{Json, JsonLimits};
pub use pool::Pool;
pub use recorder::{Counter, Recorder, Span, SpanRecord};
pub use rng::SplitMix64;
