//! The calibration task: fixed work owned by the benchmark, measured in
//! the same process as the requests and interleaved with them.
//!
//! On the 2-vCPU VM the baseline was measured on, the machine's speed
//! varied by up to a factor of two between minutes and within a run
//! (co-tenants on the host), and a two-thread run also pays for waking
//! the second vCPU. Both move the calibration task as much as the
//! requests, so end-to-end times are reported in units of the task, run
//! the way the timed work runs (set-up on one thread, requests on as
//! many as they use): each set-up or request time is divided by the
//! task's latest time before it. They repeat within a few percent where
//! raw times do not. The task uses only the standard library, so no
//! change to the repository's crates moves it.
//!
//! A one-thread sample is one run, started straight after the work it
//! calibrates: the fastest of three runs in a row moved 12% against
//! `compile` between two sets of runs an hour apart, where single runs
//! stayed within 2% over five sets (a warm rerun misses the memory
//! contention the requests pay). A sample on more threads is the
//! fastest of three runs: waking the second vCPU delays a run by a
//! varying amount, never speeds it up, and a single run let
//! `explore_symbolic`'s latency spread over ten runs reach 7%, where the
//! fastest of three kept it within 2%.

use crate::stats::percentile;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How often the task runs while the benchmark works.
const PERIOD: Duration = Duration::from_millis(100);

/// One unit of work: fill, sort and index 20 000 pseudo-random words
/// (about a millisecond on one core).
fn unit(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut words: Vec<u64> = (0..20_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    words.sort_unstable();
    let index: std::collections::HashMap<u64, usize> =
        words.iter().enumerate().map(|(i, &w)| (w, i)).collect();
    words[words.len() / 2] ^ index.len() as u64
}

/// Wall time of one unit on each of `threads` fresh threads at once,
/// the way a request of that many threads runs.
fn run(threads: usize) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads)
            .map(|k| s.spawn(move || black_box(unit(k as u64))))
            .collect();
        black_box(unit(0));
        for h in helpers {
            black_box(h.join().expect("calibration thread"));
        }
    });
    t0.elapsed().as_secs_f64() * 1e3
}

/// The task's samples over a run: on one thread, the way set-up runs,
/// and on as many threads as a request uses.
pub struct Calibration {
    request_threads: usize,
    last: Option<Instant>,
    one_ms: Vec<f64>,
    request_ms: Vec<f64>,
}

impl Calibration {
    pub fn new(request_threads: usize) -> Calibration {
        Calibration {
            request_threads,
            last: None,
            one_ms: Vec::new(),
            request_ms: Vec::new(),
        }
    }

    /// Run the task if a period has passed since the last run.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= PERIOD) {
            self.one_ms.push(run(1));
            if self.request_threads > 1 {
                let fastest = (0..3)
                    .map(|_| run(self.request_threads))
                    .fold(f64::INFINITY, f64::min);
                self.request_ms.push(fastest);
            }
            self.last = Some(Instant::now());
        }
    }

    /// The one-thread task's latest time (ms), for a set-up.
    pub fn setup_now_ms(&self) -> f64 {
        *self.one_ms.last().expect("the task ran")
    }

    /// The request-shaped task's latest time (ms), for a request.
    pub fn request_now_ms(&self) -> f64 {
        *self.request_samples().last().expect("the task ran")
    }

    /// The one-thread task's median time (ms) over the run.
    pub fn setup_ms(&self) -> f64 {
        percentile(&self.one_ms, 50.0)
    }

    /// The request-shaped task's median time (ms) over the run.
    pub fn request_ms(&self) -> f64 {
        percentile(self.request_samples(), 50.0)
    }

    fn request_samples(&self) -> &[f64] {
        if self.request_threads > 1 {
            &self.request_ms
        } else {
            &self.one_ms
        }
    }

    pub fn samples(&self) -> usize {
        self.one_ms.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_sample_once_per_period() {
        let mut c = Calibration::new(2);
        c.tick();
        c.tick();
        assert_eq!(c.samples(), 1, "the second tick falls inside the period");
        assert!(c.setup_ms() > 0.0 && c.request_ms() > 0.0);
        assert_eq!(c.request_now_ms(), c.request_ms());
        let mut one = Calibration::new(1);
        one.tick();
        assert_eq!(one.request_now_ms(), one.setup_now_ms());
    }
}
