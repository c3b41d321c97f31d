//! Real parallel execution: run a generated SPMD program on OS threads
//! with message channels — the closest a host machine gets to the
//! paper's multicomputer.
//!
//! Each simulated processor runs on a thread of its own: processor 0 on
//! the calling thread, every other processor on a scoped worker. Each
//! steps its own op list through the shared `step` core on its own slot
//! store; every thread reads the one slot layout built before they
//! start. Sends go through `std::sync::mpsc` channels, and a receive
//! polls its channel briefly before it blocks on it, buffering
//! out-of-order tags. Because the generated programs are deadlock-free
//! (receives always wait on strictly earlier hyperplane steps), the
//! threads always terminate, and because each processor's value
//! computation is fully determined by its program, the gathered result
//! is *bit-identical* across runs and to the sequential oracle —
//! asserted by the tests.

use crate::gen::Codegen;
use crate::interp::{step, Ctx, Mailbox, RunError};
use crate::ops::Tag;
use crate::store::{Layout, PayloadItem, Store};
use loom_exec::memory::Memory;
use loom_loopir::LoopNest;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError};
use std::time::Duration;

/// How long a worker waits on one receive before declaring the program
/// inconsistent. Generous: correct generated programs deliver within
/// microseconds; a corrupted program (missing send) can deadlock
/// *cyclically*, which channel closure alone cannot detect.
const RECV_TIMEOUT: Duration = Duration::from_secs(2);

/// Polls of an empty channel that busy-wait before a receive starts
/// yielding its time slice.
const SPIN_POLLS: u32 = 32;
/// Polls of an empty channel, the spinning ones included, before a
/// receive parks the thread. Each poll past [`SPIN_POLLS`] yields, so a
/// sender sharing the receiver's CPU gets to run. Chosen by measurement
/// (`docs/PERFORMANCE.md`, "The threaded runner's own costs"): spinning
/// alone, or 32 polls in all, leaves most receives parked; anywhere from
/// 64 to 256 polls in all parks almost none, and 1024 is slower when
/// both threads share one CPU.
const POLLS: u32 = 128;

type Msg = (Tag, Vec<PayloadItem>);

/// One processor's mailbox: its own channel's receiving end, a sender
/// to every other processor, and the messages that arrived ahead of
/// their receive.
struct Channels {
    rx: mpsc::Receiver<Msg>,
    /// `None` in the processor's own slot: holding a sender to its own
    /// channel would keep it open forever, so a blocked receive could
    /// never observe closure when a matching send is missing. A
    /// message to self goes straight to `stash`.
    senders: Vec<Option<mpsc::Sender<Msg>>>,
    stash: HashMap<Tag, Vec<PayloadItem>>,
}

impl Channels {
    /// The next message on this processor's channel. Waking a parked
    /// thread costs a kernel round trip, far longer than a sender one
    /// op away takes to deliver, so the receive polls first: it spins
    /// [`SPIN_POLLS`] times, yields up to [`POLLS`] in all, and only
    /// then blocks for at most [`RECV_TIMEOUT`]. A closed channel ends
    /// the polling at once.
    fn next(&self) -> Result<Msg, RecvTimeoutError> {
        for poll in 0..POLLS {
            match self.rx.try_recv() {
                Ok(msg) => return Ok(msg),
                Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
                Err(TryRecvError::Empty) if poll < SPIN_POLLS => std::hint::spin_loop(),
                Err(TryRecvError::Empty) => std::thread::yield_now(),
            }
        }
        self.rx.recv_timeout(RECV_TIMEOUT)
    }
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
            match self.next() {
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

/// Run the SPMD program with one thread per processor — processor 0 on
/// the calling thread — and gather to a single global memory (same rule
/// as the deterministic interpreter: each element from the store
/// holding its largest writer version). A panic on any processor's
/// thread, the caller's included, is returned as
/// [`RunError::WorkerPanicked`]. A processor's own failure is reported
/// ahead of the receives it starves elsewhere.
pub fn run_threaded_gathered(
    nest: &LoopNest,
    cg: &Codegen,
    init: &(dyn Fn(&str, &[i64]) -> f64 + Sync),
) -> Result<Memory, RunError> {
    let n_procs = cg.program.num_procs();
    let layout = Layout::new(nest, cg);
    let layout = &layout;
    let run = |p: usize, mut mail: Channels| {
        let cx = Ctx { cg, layout, init };
        let mut store = layout.store();
        for op in &cg.program.per_proc[p] {
            // A channel receive waits rather than reporting the
            // processor blocked.
            step(&mut store, &cx, p, op, &mut mail)?;
        }
        Ok(store)
    };
    let run = &run;
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..n_procs).map(|_| mpsc::channel()).unzip();
    let mailboxes: Vec<Channels> = receivers
        .into_iter()
        .enumerate()
        .map(|(p, rx)| Channels {
            rx,
            senders: senders
                .iter()
                .enumerate()
                .map(|(q, tx)| (q != p).then(|| tx.clone()))
                .collect(),
            stash: HashMap::new(),
        })
        .collect();
    // Only the processors hold senders now, so a receive whose sender
    // has finished without sending sees its channel close.
    drop(senders);
    let mut mailboxes = mailboxes.into_iter();
    let caller = mailboxes.next();
    let results: Vec<Result<Store, RunError>> = std::thread::scope(|scope| {
        let workers: Vec<_> = mailboxes
            .enumerate()
            .map(|(k, mail)| scope.spawn(move || run(k + 1, mail)))
            .collect();
        // Processor 0's store and mailbox die with the closure; what it
        // shares with the workers is only read, so a panic leaves
        // nothing half-updated behind it.
        let own = caller.map(|mail| {
            catch_unwind(AssertUnwindSafe(|| run(0, mail)))
                .unwrap_or(Err(RunError::WorkerPanicked { proc: 0 }))
        });
        own.into_iter()
            .chain(workers.into_iter().zip(1..).map(|(h, p)| {
                h.join()
                    .unwrap_or(Err(RunError::WorkerPanicked { proc: p }))
            }))
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

    /// `l1` at size 4, mapped onto two processors; processor 0 computes
    /// before its first receive.
    fn l1_on_two() -> (loom_workloads::Workload, Codegen) {
        let w = loom_workloads::l1::workload(4);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let cg = generate(&w.nest, &p, &[1, 0, 0, 1], 2).unwrap();
        (w, cg)
    }

    #[test]
    fn missing_message_detected_by_closure_on_either_thread() {
        // Processor 0 runs on the caller, processor 1 on a worker. Cut
        // the quiet one's op list at its last `Send`: the other's receive
        // of that message must see its channel close as the quiet one
        // finishes, whichever thread that is, not wait out the timeout.
        for quiet in [1, 0] {
            let (w, mut cg) = l1_on_two();
            let ops = &mut cg.program.per_proc[quiet];
            let last = ops
                .iter()
                .rposition(|o| matches!(o, Op::Send { .. }))
                .unwrap();
            ops.truncate(last);
            let start = std::time::Instant::now();
            let err = run_threaded_gathered(&w.nest, &cg, &|_, _| 0.0).unwrap_err();
            let elapsed = start.elapsed();
            let RunError::Deadlock { blocked } = err else {
                panic!("P{quiet} quiet: expected a deadlock, got {err}");
            };
            assert_eq!(blocked.len(), 1);
            assert_eq!(blocked[0].0 as usize, 1 - quiet, "the other one starves");
            assert!(
                elapsed < RECV_TIMEOUT / 4,
                "P{quiet} quiet: detected after {elapsed:?}"
            );
        }
    }

    #[test]
    fn panic_on_any_thread_is_a_typed_error() {
        // `init` panics on both processors. Processor 0, on the
        // caller's thread, reads an input before it waits on anything.
        let (w, cg) = l1_on_two();
        let err = run_threaded_gathered(&w.nest, &cg, &|_, _| panic!("init failed"));
        assert_eq!(err.unwrap_err(), RunError::WorkerPanicked { proc: 0 });
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
