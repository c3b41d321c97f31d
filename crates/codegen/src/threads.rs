//! Real parallel execution: run a generated SPMD program on OS threads
//! with message channels — the closest a host machine gets to the
//! paper's multicomputer.
//!
//! One thread per simulated processor, each stepping its own op list
//! through the shared `step` core on its own slot store; every worker
//! reads the one slot layout built before they start. Sends go through
//! `std::sync::mpsc` channels, and receives block on the channel and
//! buffer out-of-order tags. Because the generated programs are
//! deadlock-free (receives always wait on strictly earlier hyperplane
//! steps), the threads always terminate, and because each processor's
//! value computation is fully determined by its program, the gathered
//! result is *bit-identical* across runs and to the sequential oracle
//! — asserted by the tests.

use crate::gen::Codegen;
use crate::interp::{step, Ctx, Mailbox, RunError};
use crate::ops::Tag;
use crate::store::{Layout, PayloadItem, Store};
use loom_exec::memory::Memory;
use loom_loopir::LoopNest;
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Duration;

/// How long a worker waits on one receive before declaring the program
/// inconsistent. Generous: correct generated programs deliver within
/// microseconds; a corrupted program (missing send) can deadlock
/// *cyclically*, which channel closure alone cannot detect.
const RECV_TIMEOUT: Duration = Duration::from_secs(2);

type Msg = (Tag, Vec<PayloadItem>);

/// One worker's mailbox: its own channel's receiving end, a sender to
/// every other processor, and the messages that arrived ahead of their
/// receive.
struct Channels {
    rx: mpsc::Receiver<Msg>,
    /// `None` in the worker's own slot: holding a sender to its own
    /// channel would keep it open forever, so a blocked receive could
    /// never observe closure when a matching send is missing. A
    /// message to self goes straight to `stash`.
    senders: Vec<Option<mpsc::Sender<Msg>>>,
    stash: HashMap<Tag, Vec<PayloadItem>>,
}

impl Mailbox for Channels {
    fn send(&mut self, to: u32, tag: Tag, items: Vec<PayloadItem>) {
        match &self.senders[to as usize] {
            // A closed receiver means that processor failed; surfaced
            // at join time.
            Some(tx) => {
                let _ = tx.send((tag, items));
            }
            None => {
                self.stash.insert(tag, items);
            }
        }
    }

    fn recv(&mut self, p: u32, tag: Tag) -> Result<Option<Vec<PayloadItem>>, RunError> {
        loop {
            if let Some(items) = self.stash.remove(&tag) {
                return Ok(Some(items));
            }
            match self.rx.recv_timeout(RECV_TIMEOUT) {
                Ok((t, items)) if t == tag => return Ok(Some(items)),
                Ok((t, items)) => {
                    self.stash.insert(t, items);
                }
                // Disconnected or timed out: either way the matching
                // send is missing.
                Err(_) => {
                    let blocked = vec![(p, tag)];
                    return Err(RunError::Deadlock { blocked });
                }
            }
        }
    }
}

/// Run the SPMD program on one OS thread per processor and gather to a
/// single global memory (same rule as the deterministic interpreter:
/// each element from the store holding its largest writer version). A
/// worker's own failure is reported ahead of the receives it starves
/// elsewhere.
pub fn run_threaded_gathered(
    nest: &LoopNest,
    cg: &Codegen,
    init: &(dyn Fn(&str, &[i64]) -> f64 + Sync),
) -> Result<Memory, RunError> {
    let n_procs = cg.program.num_procs();
    let layout = Layout::new(nest, cg);
    let layout = &layout;
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..n_procs).map(|_| mpsc::channel()).unzip();
    let results: Vec<Result<Store, RunError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(p, rx)| {
                let senders = senders
                    .iter()
                    .enumerate()
                    .map(|(q, tx)| (q != p).then(|| tx.clone()))
                    .collect();
                let mut mail = Channels {
                    rx,
                    senders,
                    stash: HashMap::new(),
                };
                scope.spawn(move || {
                    let cx = Ctx { cg, layout, init };
                    let mut store = layout.store();
                    for op in &cg.program.per_proc[p] {
                        // A channel receive waits rather than reporting
                        // the worker blocked.
                        step(&mut store, &cx, p, op, &mut mail)?;
                    }
                    Ok(store)
                })
            })
            .collect();
        drop(senders);
        handles
            .into_iter()
            .enumerate()
            .map(|(p, h)| {
                h.join()
                    .unwrap_or(Err(RunError::WorkerPanicked { proc: p as u32 }))
            })
            .collect()
    });
    let mut starved = None;
    let mut stores = Vec::with_capacity(n_procs);
    for result in results {
        match result {
            Ok(store) => stores.push(store),
            Err(e @ RunError::Deadlock { .. }) => {
                starved.get_or_insert(e);
            }
            Err(e) => return Err(e),
        }
    }
    match starved {
        Some(e) => Err(e),
        None => Ok(layout.gather(&stores)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::ops::Op;
    use loom_exec::memory::address_hash_init;
    use loom_exec::{equivalent, sequential};
    use loom_hyperplane::TimeFn;
    use loom_partition::{partition, PartitionConfig};

    #[test]
    fn threads_match_oracle_on_all_workloads() {
        for w in loom_workloads::all_default() {
            let name = w.nest.name();
            let p = partition(
                w.nest.space().clone(),
                w.verified_deps(),
                TimeFn::new(w.pi.clone()),
                &PartitionConfig::default(),
            )
            .unwrap();
            let assignment: Vec<usize> = (0..p.num_blocks()).map(|b| b % 4).collect();
            let cg = match generate(&w.nest, &p, &assignment, 4) {
                Ok(cg) => cg,
                // conv2d accumulates y over a 2-D tap lattice: value
                // routing is (correctly) refused rather than mis-computed.
                Err(e) => {
                    assert_eq!(name, "conv2d", "{name}: unexpected {e}");
                    continue;
                }
            };
            let gathered = run_threaded_gathered(&w.nest, &cg, &address_hash_init)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let serial = sequential(&w.nest, &address_hash_init);
            assert_eq!(
                equivalent(&gathered, &serial),
                Ok(()),
                "{name} diverged under real threads"
            );
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
        let err = run_threaded_gathered(&w.nest, &cg, &|_, _| 0.0).unwrap_err();
        assert!(matches!(err, RunError::Deadlock { .. }));
    }

    #[test]
    fn self_send_is_delivered_as_the_interpreter_delivers_it() {
        // A worker holds no sender to its own channel; a message to
        // itself must still arrive, as it does in the shared mailbox.
        let w = loom_workloads::l1::workload(4);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let mut cg = generate(&w.nest, &p, &[0, 1, 1, 0], 2).unwrap();
        let src_point = cg.program.computes_of(0).last().unwrap();
        let tag = Tag { src_point, dep: 0 };
        cg.program.per_proc[0].extend([Op::Send { to: 0, tag }, Op::Recv { from: 0, tag }]);
        let threaded = run_threaded_gathered(&w.nest, &cg, &address_hash_init).unwrap();
        let interp = crate::run(&w.nest, &cg, &address_hash_init).unwrap();
        assert_eq!(equivalent(&threaded, &interp.gathered), Ok(()));
    }
}
