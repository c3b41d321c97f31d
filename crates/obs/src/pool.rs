//! `loom-pool` — a small deterministic work pool on scoped OS threads.
//!
//! The explore path of `loom-core` fans thousands of independent
//! pipeline runs out over a handful of workers; this module is the
//! zero-external-deps pool behind it. Determinism is the design
//! constraint: [`Pool::map_indexed`] always returns results **in input
//! order**, whatever order the workers actually ran, and a pool with
//! `threads = 1` takes the exact serial path (no threads spawned, no
//! queue, items processed front to back), so `threads ∈ {1, n}` can be
//! compared bit for bit.
//!
//! Workers pull items from a shared atomic cursor (a work *queue*, not
//! a pre-split range, so an expensive item late in the list cannot
//! strand one worker with all the slow work). The calling thread is
//! worker 0: a call with `w` workers spawns `w − 1` scoped threads, so
//! the smallest parallel call pays one spawn and one join, not two.
//! When the pool carries an enabled [`Recorder`], each call records:
//!
//! * `pool.tasks` — items processed,
//! * `pool.workers` — workers that ran, the calling thread included,
//! * `pool.queue_depth` — items enqueued per call (the depth each
//!   dispatch started from),
//! * one `pool.worker.<k>` span per worker covering its busy interval.

use crate::recorder::Recorder;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How many threads a pool should use: an explicit request, the
/// `LOOM_THREADS` environment variable, or the machine's parallelism.
///
/// `requested = 0` means "auto": `LOOM_THREADS` if set and parseable,
/// otherwise [`std::thread::available_parallelism`]. The result is
/// always at least 1.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(v) = std::env::var("LOOM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A deterministic map-over-items work pool (see the module docs).
#[derive(Clone, Debug)]
pub struct Pool {
    threads: usize,
    recorder: Recorder,
}

impl Pool {
    /// A pool with the given worker count (`0` = auto via
    /// [`resolve_threads`]) and no instrumentation.
    pub fn new(threads: usize) -> Pool {
        Pool::with_recorder(threads, Recorder::disabled())
    }

    /// A pool that records `pool.*` counters and per-worker busy spans
    /// into `recorder`.
    pub fn with_recorder(threads: usize, recorder: Recorder) -> Pool {
        Pool {
            threads: resolve_threads(threads),
            recorder,
        }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Apply `f` to every item, returning results in input order.
    pub fn map_indexed<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        self.map_indexed_with(items, || (), |(), i, item| f(i, item))
    }

    /// [`map_indexed`](Pool::map_indexed) with worker-local state: each
    /// worker calls `init` once and threads the resulting scratch value
    /// through every item it processes (the serial path uses a single
    /// scratch for all items). This is how explore reuses one
    /// `SimScratch` per worker across thousands of simulations.
    pub fn map_indexed_with<S, I, T, F, N>(&self, items: &[I], init: N, f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        N: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &I) -> T + Sync,
    {
        let n = items.len();
        self.recorder.add("pool.tasks", n as u64);
        self.recorder.add("pool.queue_depth", n as u64);
        let workers = self.threads.min(n);
        self.recorder.flight().emit(
            "pool.map",
            &[
                ("tasks", crate::json::Json::from(n)),
                ("workers", crate::json::Json::from(workers)),
            ],
        );
        if workers <= 1 {
            // The exact serial path: no threads, no cursor, input order.
            self.recorder.add("pool.workers", 1.min(n as u64));
            let _busy = (n > 0).then(|| self.recorder.span("pool.worker.0"));
            let mut scratch = init();
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| f(&mut scratch, i, item))
                .collect();
        }
        self.recorder.add("pool.workers", workers as u64);
        let cursor = AtomicUsize::new(0);
        // One worker: its busy span, its scratch, and the items it pulls
        // off the shared cursor, with their indices.
        let work = |k: usize| {
            let _busy = self.recorder.span(&format!("pool.worker.{k}"));
            let mut scratch = init();
            let mut local: Vec<(usize, T)> = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                local.push((i, f(&mut scratch, i, &items[i])));
            }
            local
        };
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut fill = |local: Vec<(usize, T)>| {
            for (i, value) in local {
                debug_assert!(slots[i].is_none(), "item {i} produced twice");
                slots[i] = Some(value);
            }
        };
        // Worker 0 is the calling thread, so a call spawns `workers − 1`
        // helpers. Should worker 0 panic, the scope joins the helpers
        // before the panic propagates.
        std::thread::scope(|scope| {
            let work = &work;
            let helpers: Vec<_> = (1..workers).map(|k| scope.spawn(move || work(k))).collect();
            fill(work(0));
            for h in helpers {
                fill(h.join().expect("pool worker panicked"));
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every item processed exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_arrive_in_input_order() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [1, 2, 4, 8] {
            let pool = Pool::new(threads);
            let out = pool.map_indexed(&items, |i, &x| {
                assert_eq!(i as u64, x);
                x * 3 + 1
            });
            assert_eq!(out, items.iter().map(|&x| x * 3 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..100).collect();
        let serial = Pool::new(1).map_indexed(&items, |_, &x| x.wrapping_mul(0x9E37_79B9));
        let parallel = Pool::new(4).map_indexed(&items, |_, &x| x.wrapping_mul(0x9E37_79B9));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn worker_local_state_is_reused() {
        // Each worker's scratch counts the items it saw; the totals must
        // cover every item exactly once.
        let items: Vec<u64> = (0..64).collect();
        let seen = AtomicU64::new(0);
        let pool = Pool::new(4);
        let out = pool.map_indexed_with(
            &items,
            || 0u64,
            |count, _, &x| {
                *count += 1;
                seen.fetch_add(1, Ordering::Relaxed);
                (x, *count)
            },
        );
        assert_eq!(seen.load(Ordering::Relaxed), 64);
        // Per-worker counts are contiguous 1..=k sequences; per item the
        // value is at least 1 and at most the item count.
        assert!(out.iter().all(|&(_, c)| (1..=64).contains(&c)));
        assert_eq!(out.iter().map(|&(x, _)| x).collect::<Vec<_>>(), items);
    }

    #[test]
    fn empty_input_is_fine() {
        let items: Vec<u64> = Vec::new();
        assert!(Pool::new(4).map_indexed(&items, |_, &x| x).is_empty());
        assert!(Pool::new(1).map_indexed(&items, |_, &x| x).is_empty());
    }

    #[test]
    fn counters_and_spans_recorded() {
        let rec = Recorder::enabled();
        let pool = Pool::with_recorder(3, rec.clone());
        let items: Vec<u64> = (0..10).collect();
        pool.map_indexed(&items, |_, &x| x);
        let counters = rec.counters();
        assert_eq!(counters.get("pool.tasks"), Some(&10));
        assert_eq!(counters.get("pool.workers"), Some(&3));
        assert_eq!(counters.get("pool.queue_depth"), Some(&10));
        let spans = rec.spans();
        let busy = spans
            .iter()
            .filter(|s| s.name.starts_with("pool.worker."))
            .count();
        assert_eq!(busy, 3, "one busy span per worker: {spans:?}");
    }

    #[test]
    fn panic_in_worker_zero_propagates_after_the_helpers_are_joined() {
        use std::sync::atomic::AtomicBool;
        // Worker 0 runs on the calling thread and panics in `init`; the
        // helper is held on its first item until that panic is
        // unwinding, then sets a flag when its scratch is dropped at
        // its end. The panic must reach the caller, and only after that.
        struct OnDrop<'a>(&'a AtomicBool);
        impl Drop for OnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let caller = std::thread::current().id();
        let (unwinding, helper_done) = (AtomicBool::new(false), AtomicBool::new(false));
        let items: Vec<u64> = (0..3).collect();
        let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Pool::new(2).map_indexed_with(
                &items,
                || {
                    if std::thread::current().id() == caller {
                        let _signal = OnDrop(&unwinding);
                        panic!("worker 0");
                    }
                    OnDrop(&helper_done)
                },
                |_, _, &x| {
                    // Bounded, so a pool whose caller is no worker fails
                    // below instead of hanging here.
                    let start = std::time::Instant::now();
                    while !unwinding.load(Ordering::SeqCst)
                        && start.elapsed() < std::time::Duration::from_secs(10)
                    {
                        std::thread::yield_now();
                    }
                    x
                },
            )
        }));
        let payload = got.expect_err("worker 0's panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker 0"));
        assert!(
            helper_done.load(Ordering::SeqCst),
            "the panic propagated before the helper was joined"
        );
    }

    #[test]
    fn thread_resolution_prefers_explicit() {
        assert_eq!(resolve_threads(7), 7);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn more_workers_than_items_degrades_gracefully() {
        let items: Vec<u64> = vec![1, 2];
        let out = Pool::new(16).map_indexed(&items, |_, &x| x + 1);
        assert_eq!(out, vec![2, 3]);
    }
}
