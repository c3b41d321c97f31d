//! Real parallel execution: run a generated SPMD program on OS threads
//! with message channels — the closest a host machine gets to the
//! paper's multicomputer.
//!
//! One thread per simulated processor, each owning a private
//! [`Memory`]; sends go through `std::sync::mpsc` channels; receives
//! block on the channel and buffer out-of-order tags. Because the
//! generated programs are deadlock-free (receives always wait on
//! strictly earlier hyperplane steps), the threads always terminate,
//! and because each processor's value computation is fully determined
//! by its program, the gathered result is *bit-identical* across runs
//! and to the sequential oracle — asserted by the tests.

use crate::gen::Codegen;
use crate::ops::{Op, Tag};
use loom_exec::memory::{Element, Memory};
use loom_loopir::LoopNest;
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Duration;

/// How long a worker waits on one receive before declaring the program
/// inconsistent. Generous: correct generated programs deliver within
/// microseconds; a corrupted program (missing send) can deadlock
/// *cyclically*, which channel closure alone cannot detect.
const RECV_TIMEOUT: Duration = Duration::from_secs(2);

/// A threaded-run failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ThreadError {
    /// A receive's channel closed — or timed out — before its tag
    /// arrived: the program was inconsistent (a matching send never
    /// executed, possibly in a deadlocked cycle).
    MissingMessage {
        /// The processor that was waiting.
        proc: u32,
        /// The tag it waited for.
        tag: Tag,
    },
    /// A worker thread panicked.
    WorkerPanicked {
        /// The processor whose thread died.
        proc: u32,
    },
}

impl std::fmt::Display for ThreadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThreadError::MissingMessage { proc, tag } => {
                write!(f, "P{proc} waited forever for {tag:?}")
            }
            ThreadError::WorkerPanicked { proc } => write!(f, "worker P{proc} panicked"),
        }
    }
}

impl std::error::Error for ThreadError {}

use crate::interp::{compute, gather, install, payload, record_local_writes, PayloadItem};

type Msg = (Tag, Vec<PayloadItem>);

/// Execute the SPMD program on real threads; returns per-processor
/// memories in processor order.
pub fn run_threaded(
    nest: &LoopNest,
    cg: &Codegen,
    init: &(dyn Fn(&str, &[i64]) -> f64 + Sync),
) -> Result<Vec<Memory>, ThreadError> {
    let n_procs = cg.program.num_procs();
    let mut senders: Vec<mpsc::Sender<Msg>> = Vec::with_capacity(n_procs);
    let mut receivers: Vec<Option<mpsc::Receiver<Msg>>> = Vec::with_capacity(n_procs);
    for _ in 0..n_procs {
        let (tx, rx) = mpsc::channel();
        senders.push(tx);
        receivers.push(Some(rx));
    }

    let results: Vec<Result<Memory, ThreadError>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n_procs);
        #[allow(clippy::needless_range_loop)]
        for p in 0..n_procs {
            let rx = receivers[p].take().expect("receiver taken once");
            // Each worker gets senders to every *other* processor; the
            // slot for itself stays empty. Generated programs never send
            // to self, and holding a sender to one's own channel would
            // keep it open forever — a blocked receive could then never
            // observe closure when a matching send is missing.
            let senders: Vec<Option<mpsc::Sender<Msg>>> = senders
                .iter()
                .enumerate()
                .map(|(q, tx)| (q != p).then(|| tx.clone()))
                .collect();
            let program = &cg.program;
            let specs = &cg.payload_specs;
            handles.push(scope.spawn(move || -> Result<Memory, ThreadError> {
                let mut mem = Memory::new();
                let mut versions: HashMap<Element, u32> = HashMap::new();
                let mut stash: HashMap<Tag, Vec<PayloadItem>> = HashMap::new();
                for op in &program.per_proc[p] {
                    match op {
                        Op::Recv { from: _, tag } => {
                            let items = loop {
                                if let Some(items) = stash.remove(tag) {
                                    break items;
                                }
                                match rx.recv_timeout(RECV_TIMEOUT) {
                                    Ok((t, items)) if t == *tag => break items,
                                    Ok((t, items)) => {
                                        stash.insert(t, items);
                                    }
                                    Err(_) => {
                                        // Disconnected or timed out: either
                                        // way the matching send is missing.
                                        return Err(ThreadError::MissingMessage {
                                            proc: p as u32,
                                            tag: *tag,
                                        });
                                    }
                                }
                            };
                            install(&mut mem, &mut versions, items);
                        }
                        Op::Compute { point } => {
                            let pt = &program.points[*point as usize];
                            compute(nest, pt, &mut mem, init);
                            record_local_writes(nest, pt, *point, &mut versions);
                        }
                        Op::Send { to, tag } => {
                            let pt = &program.points[tag.src_point as usize];
                            let items = payload(
                                nest,
                                &specs[tag.dep as usize],
                                pt,
                                tag.src_point,
                                &mem,
                                init,
                            );
                            // A closed receiver means that processor
                            // failed; surfaced at join time.
                            let tx = senders[*to as usize]
                                .as_ref()
                                .expect("generated programs never send to self");
                            let _ = tx.send((*tag, items));
                        }
                    }
                }
                Ok(mem)
            }));
        }
        drop(senders);
        handles
            .into_iter()
            .enumerate()
            .map(|(p, h)| {
                h.join()
                    .unwrap_or(Err(ThreadError::WorkerPanicked { proc: p as u32 }))
            })
            .collect()
    });

    results.into_iter().collect()
}

/// Run threaded and gather to a single global memory (same rule as the
/// deterministic interpreter: each element from its last writer).
pub fn run_threaded_gathered(
    nest: &LoopNest,
    cg: &Codegen,
    init: &(dyn Fn(&str, &[i64]) -> f64 + Sync),
) -> Result<Memory, ThreadError> {
    let memories = run_threaded(nest, cg, init)?;
    Ok(gather(nest, &cg.program, &memories))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use loom_exec::memory::address_hash_init;
    use loom_exec::{equivalent, sequential};
    use loom_hyperplane::TimeFn;
    use loom_partition::{partition, PartitionConfig};

    fn check(w: &loom_workloads::Workload, procs: usize) {
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let assignment: Vec<usize> = (0..p.num_blocks()).map(|b| b % procs).collect();
        let cg = match generate(&w.nest, &p, &assignment, procs) {
            Ok(cg) => cg,
            Err(e) => {
                // conv2d accumulates y over a 2-D tap lattice: value
                // routing is (correctly) refused rather than mis-computed.
                assert_eq!(w.nest.name(), "conv2d", "{}: unexpected {e}", w.nest.name());
                return;
            }
        };
        let gathered = run_threaded_gathered(&w.nest, &cg, &address_hash_init)
            .unwrap_or_else(|e| panic!("{}: {e}", w.nest.name()));
        let serial = sequential(&w.nest, &address_hash_init);
        assert_eq!(
            equivalent(&gathered, &serial),
            Ok(()),
            "{} diverged under real threads",
            w.nest.name()
        );
    }

    #[test]
    fn threads_match_oracle_on_all_workloads() {
        for w in loom_workloads::all_default() {
            check(&w, 4);
        }
    }

    #[test]
    fn multidimensional_accumulation_rejected() {
        let w = loom_workloads::conv2d::workload(3, 2);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let n = p.num_blocks();
        let err = generate(&w.nest, &p, &vec![0; n], 1).unwrap_err();
        assert!(matches!(
            err,
            crate::gen::CodegenError::MultiDimensionalAccumulation { rank: 2, .. }
        ));
    }

    #[test]
    fn threads_deterministic_across_runs() {
        let w = loom_workloads::sor::workload(10, 10);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let assignment: Vec<usize> = (0..p.num_blocks()).map(|b| b % 3).collect();
        let cg = generate(&w.nest, &p, &assignment, 3).unwrap();
        let a = run_threaded_gathered(&w.nest, &cg, &address_hash_init).unwrap();
        let b = run_threaded_gathered(&w.nest, &cg, &address_hash_init).unwrap();
        assert_eq!(equivalent(&a, &b), Ok(()));
    }

    #[test]
    fn missing_message_detected() {
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
        let err = run_threaded(&w.nest, &cg, &|_, _| 0.0).unwrap_err();
        assert!(matches!(err, ThreadError::MissingMessage { .. }));
    }
}
