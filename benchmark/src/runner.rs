//! One workload run: set-up, warm-up, the timed closed loop, the
//! optional traced loop, and the oracle pass.

use crate::calibrate::Calibration;
use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::stats::{geomean, median, percentile, Draw};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-up runs at least `SETUP_RUNS` times and until `SETUP_BUDGET` is
/// spent, and `setup_s` is the median, so one slow build does not set
/// the metric. All builds come before the warm-up, one at a time: none
/// overlaps the timed loop, and peak memory holds one workload.
const SETUP_RUNS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_millis(500);

/// What the oracle found an input's first answer to be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Oracle {
    /// The oracle's answer.
    Agrees,
    /// Exactly the wrong answer recorded for a known gap in the library
    /// (see `README.md`): counted apart from failures, so the run stays
    /// correct until the answer changes. `makespan` is the true one.
    KnownGap { makespan: u64 },
}

/// A benchmark workload: a fixed pool of inputs, one request per input.
pub trait Workload: Sized {
    /// What a request returns.
    type Output;
    /// The part of an output that every repeat of the request must
    /// reproduce exactly.
    type Answer: PartialEq + std::fmt::Debug;
    /// Threads one request runs on; the calibration task runs on as many.
    const THREADS: usize;

    /// Build the input pool and everything the requests need.
    fn setup(smoke: bool) -> Result<Self, String>;
    fn len(&self) -> usize;
    fn label(&self, i: usize) -> String;
    /// One request on input `i`: what a user of the compiler waits for.
    /// `t` is disabled in timed runs; when enabled, spans wrap the
    /// calls into each crate.
    fn request(&self, i: usize, t: &mut Tracer) -> Result<Self::Output, String>;
    /// Reduce an output to its answer (outside the timer).
    fn answer(&self, i: usize, out: Self::Output) -> Self::Answer;
    /// Traced runs only: redo request `i` through each crate's public
    /// functions under spans, and check it reaches `answer`.
    fn replica(&self, i: usize, answer: &Self::Answer, t: &mut Tracer) -> Result<(), String>;
    /// Check the first answer for input `i` against an independent
    /// oracle. `verified[j]` tells whether input `j < i` agreed with its
    /// oracle.
    fn verify(&self, i: usize, answer: &Self::Answer, verified: &[bool]) -> Result<Oracle, String>;
    /// The simulated makespan (ticks) of the compile behind the answer.
    fn makespan(&self, i: usize, answer: &Self::Answer) -> u64;
}

/// `Ok` when an answer equals the one it must reproduce.
pub fn same<T: PartialEq + std::fmt::Debug>(what: &str, got: &T, want: &T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, want {want:?}"))
    }
}

pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_dir: Option<PathBuf>,
    pub smoke: bool,
}

/// The result line the benchmark prints last, plus the requests that
/// returned a known gap's recorded wrong answer (not in `failed`).
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub known_gap: u64,
    pub metrics: Vec<(Def, f64)>,
}

/// Requests per input, and how many of them failed.
struct Tally {
    attempted: Vec<u64>,
    failed: Vec<u64>,
}

impl Tally {
    fn new(n: usize) -> Tally {
        Tally {
            attempted: vec![0; n],
            failed: vec![0; n],
        }
    }

    fn record(&mut self, i: usize, label: &str, result: Result<(), String>) {
        self.attempted[i] += 1;
        if let Err(e) = result {
            self.failed[i] += 1;
            // Mismatches and errors are counted, never fatal; report
            // the first few so a failing run explains itself.
            if self.failed.iter().sum::<u64>() <= 5 {
                eprintln!("FAILED {label}: {e}");
            }
        }
    }

    /// Input `i`'s requests that reproduced its first answer.
    fn reproduced(&self, i: usize) -> u64 {
        self.attempted[i] - self.failed[i]
    }
}

/// Set the workload up repeatedly, each build dropped before the next;
/// the last serves the requests. Returns it with every set-up time, in
/// seconds and calibrated (see `calibrate`).
fn set_up<W: Workload>(
    smoke: bool,
    cal: &mut Calibration,
) -> Result<(W, Vec<f64>, Vec<f64>), String> {
    let start = Instant::now();
    let (mut raw_s, mut calibrated) = (Vec::new(), Vec::new());
    loop {
        cal.tick();
        let t0 = Instant::now();
        let w = W::setup(smoke)?;
        let s = t0.elapsed().as_secs_f64();
        raw_s.push(s);
        calibrated.push(s / cal.setup_now_ms());
        if raw_s.len() >= SETUP_RUNS && start.elapsed() >= SETUP_BUDGET {
            return Ok((w, raw_s, calibrated));
        }
    }
}

pub fn run<W: Workload>(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    let mut cal = Calibration::new(W::THREADS);
    let (w, setup_raw_s, setup_calibrated) = set_up::<W>(opts.smoke, &mut cal)?;
    let n = w.len();
    let mut draw = Draw::new(opts.seed, n);
    let mut tally = Tally::new(n);

    // Warm-up, untimed: the first occurrence of every input, in the
    // seed's order. Its answers are what every repeat must reproduce
    // and what the oracles check.
    let mut first: Vec<Option<W::Answer>> = (0..n).map(|_| None).collect();
    for i in draw.by_ref().take(n).collect::<Vec<_>>() {
        let out = w.request(i, &mut Tracer::disabled());
        let result = out.map(|o| first[i] = Some(w.answer(i, o)));
        tally.record(i, &w.label(i), result);
    }

    let untraced_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut lp = Loop {
        draw: &mut draw,
        cal: &mut cal,
        tally: &mut tally,
    };
    let timed = lp.run(&w, untraced_s, &mut Tracer::disabled(), &first);
    let peak_rss = peak_rss_mib();
    let raw = timed.iter().map(|&(i, ms, _)| (i, ms));
    // Each input in its own row, on stderr: the last line of stdout is
    // the result.
    for (i, xs) in by_input(n, raw.clone()).iter().enumerate() {
        if !xs.is_empty() {
            let p50 = percentile(xs, 50.0);
            eprintln!(
                "{:<64} {:>6} requests  p50 {p50:>10.3} ms",
                w.label(i),
                xs.len()
            );
        }
    }
    let untraced_raw = Mix::of(n, raw);
    let untraced = Mix::calibrated(n, &timed);
    let mut traced = Tracer::enabled();
    let traced_p50_ms = if opts.trace {
        Mix::calibrated(n, &lp.run(&w, opts.seconds / 2.0, &mut traced, &first)).p50_ms
    } else {
        f64::NAN
    };

    // Every request that reproduced a wrong first answer is wrong too.
    let mut oracle: Vec<Option<Oracle>> = vec![None; n];
    let mut verified = vec![false; n];
    let (mut failed, mut known_gap) = (tally.failed.iter().sum::<u64>(), 0);
    for i in 0..n {
        if let Some(answer) = &first[i] {
            match w.verify(i, answer, &verified) {
                Ok(o) => {
                    oracle[i] = Some(o);
                    verified[i] = o == Oracle::Agrees;
                    if o != Oracle::Agrees {
                        known_gap += tally.reproduced(i);
                        eprintln!("KNOWN GAP {}: the recorded wrong answer", w.label(i));
                    }
                }
                Err(e) => {
                    failed += tally.reproduced(i);
                    eprintln!("ORACLE MISMATCH {}: {e}", w.label(i));
                }
            }
        }
    }

    let attempted: u64 = tally.attempted.iter().sum();
    let metrics = if opts.trace {
        if let Some(dir) = &opts.trace_dir {
            write_trace(dir, name, &traced)?;
        }
        let overhead_pct = 100.0 * (traced_p50_ms / untraced.p50_ms - 1.0);
        layer_metrics(&traced, overhead_pct, known_gap as f64 / attempted as f64)
    } else {
        // A known gap's true makespan, so closing the gap leaves the
        // metric where it is.
        let makespans: Vec<f64> = (0..n)
            .filter_map(|i| match (&first[i], oracle[i]) {
                (_, Some(Oracle::KnownGap { makespan })) => Some(makespan as f64),
                (Some(a), _) => Some(w.makespan(i, a) as f64),
                (None, _) => None,
            })
            .collect();
        eprintln!(
            "raw: setup {:.6} s ({} repetitions), p50 {:.4} ms, p90 {:.4} ms, \
             {:.3} requests/s; calibration task {:.4} ms on 1 thread, {:.4} ms on {} \
             ({} samples)",
            median(&setup_raw_s),
            setup_raw_s.len(),
            untraced_raw.p50_ms,
            untraced_raw.p90_ms,
            untraced_raw.rps,
            cal.setup_ms(),
            cal.request_ms(),
            W::THREADS,
            cal.samples(),
        );
        let values = [
            median(&setup_calibrated),
            untraced.p50_ms,
            untraced.rps,
            if makespans.is_empty() {
                f64::NAN
            } else {
                geomean(&makespans)
            },
            peak_rss,
        ];
        END_TO_END.into_iter().zip(values).collect()
    };
    Ok(Outcome {
        correct: failed == 0 && oracle.iter().all(Option::is_some),
        attempted,
        failed,
        known_gap,
        metrics,
    })
}

fn by_input(n: usize, timed: impl Iterator<Item = (usize, f64)>) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); n];
    for (i, ms) in timed {
        out[i].push(ms);
    }
    out
}

/// Latency over an equal mix of the pool. The inputs' latencies form
/// separate clusters, and a percentile of all requests together jumps
/// between clusters as the mix shifts; these statistics weigh every
/// input the same, however the draw's last round was cut.
struct Mix {
    /// Geometric mean over inputs of each input's median.
    p50_ms: f64,
    /// `p50_ms` times the 90th percentile of every request's latency
    /// over its own input's median: the pooled tail has ten samples
    /// beyond it from 100 requests on, whatever the pool's size. On a
    /// shared machine it mostly measures interference, so it is printed
    /// for reading, not reported as a metric.
    p90_ms: f64,
    /// Requests per second through one round of the pool at each
    /// input's median latency.
    rps: f64,
}

impl Mix {
    /// Over calibrated times: in units of the calibration task,
    /// expressed at its nominal 1 ms (see `calibrate`).
    fn calibrated(n: usize, timed: &[(usize, f64, f64)]) -> Mix {
        Mix::of(n, timed.iter().map(|&(i, _, calibrated)| (i, calibrated)))
    }

    fn of(n: usize, timed: impl Iterator<Item = (usize, f64)>) -> Mix {
        let sampled: Vec<Vec<f64>> = by_input(n, timed)
            .into_iter()
            .filter(|xs| !xs.is_empty())
            .collect();
        let medians: Vec<f64> = sampled.iter().map(|xs| percentile(xs, 50.0)).collect();
        let slowdowns: Vec<f64> = sampled
            .iter()
            .zip(&medians)
            .flat_map(|(xs, m)| xs.iter().map(move |x| x / m))
            .collect();
        let p50_ms = geomean(&medians);
        Mix {
            p50_ms,
            p90_ms: p50_ms * percentile(&slowdowns, 90.0),
            rps: 1e3 * medians.len() as f64 / medians.iter().sum::<f64>(),
        }
    }
}

/// The closed loop: one client, the next request only after the last
/// answered.
struct Loop<'a> {
    draw: &'a mut Draw,
    cal: &'a mut Calibration,
    tally: &'a mut Tally,
}

impl Loop<'_> {
    /// Requests until `seconds` have passed. Returns each request's
    /// input and latency, in ms and calibrated; answers are checked, and
    /// the calibration task runs, outside the timer.
    fn run<W: Workload>(
        &mut self,
        w: &W,
        seconds: f64,
        t: &mut Tracer,
        first: &[Option<W::Answer>],
    ) -> Vec<(usize, f64, f64)> {
        let mut latencies = Vec::new();
        let start = Instant::now();
        let mut request_id = 0u32;
        while latencies.is_empty() || start.elapsed().as_secs_f64() < seconds {
            self.cal.tick();
            let i = self.draw.next().expect("the draw never ends");
            t.set_request(request_id);
            request_id += 1;
            let t0 = Instant::now();
            let out = t.span("request", |t| w.request(i, t));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            latencies.push((i, ms, ms / self.cal.request_now_ms()));
            let result = out.and_then(|o| {
                let answer = w.answer(i, o);
                if first[i].as_ref() != Some(&answer) {
                    return Err(format!("repeat differs from the first answer: {answer:?}"));
                }
                if t.is_enabled() {
                    t.span("replica", |t| w.replica(i, &answer, t))?;
                }
                Ok(())
            });
            self.tally.record(i, &w.label(i), result);
        }
        latencies
    }
}

/// Peak resident set (VmHWM) of this process in MiB; NaN where
/// `/proc` is unavailable.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn write_trace(dir: &std::path::Path, name: &str, t: &Tracer) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for (file, text) in [
        (format!("{name}.trace.json"), t.chrome()),
        (format!("{name}.layers.json"), t.layers_json(name)),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// The per-layer metrics of a traced run (see [`PER_LAYER`]).
fn layer_metrics(t: &Tracer, trace_overhead_pct: f64, known_gap_ratio: f64) -> Vec<(Def, f64)> {
    let spans = t.spans();
    let mut durations: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        durations
            .entry(s.name)
            .or_default()
            .push(s.dur_ns() as f64 / 1e3);
    }
    let p50_us = |name: &str| durations.get(name).map_or(0.0, |d| percentile(d, 50.0));

    // Per request: the spans of one name, and the replica's pipeline
    // stages.
    let mut per_request: BTreeMap<u32, BTreeMap<&str, f64>> = BTreeMap::new();
    let mut replica_stages: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans {
        let us = s.dur_ns() as f64 / 1e3;
        *per_request
            .entry(s.request)
            .or_default()
            .entry(s.name)
            .or_default() += us;
        if s.parent
            .is_some_and(|p| spans[p].name == "replica.run_with")
        {
            *replica_stages.entry(s.request).or_default() += us;
        }
    }
    let p50_or_0 = |xs: Vec<f64>| {
        if xs.is_empty() {
            0.0
        } else {
            percentile(&xs, 50.0)
        }
    };
    // core.run_with runs the same stages the replica times one by one;
    // the difference is the pipeline's own glue.
    let glue = p50_or_0(
        per_request
            .iter()
            .filter_map(|(r, m)| {
                Some(m.get("core.run_with")? - replica_stages.get(r).copied().unwrap_or(0.0))
            })
            .collect(),
    );
    let threaded_over_sequential = p50_or_0(
        per_request
            .values()
            .filter_map(|m| Some(m.get("codegen.run_threaded")? / m.get("exec.sequential")?))
            .collect(),
    );

    let requests = per_request.len().max(1) as f64;
    let count = |name: &str| t.counts().get(name).copied().unwrap_or(0) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    PER_LAYER
        .iter()
        .map(|d| {
            let value = match d.name {
                "core.pipeline_glue_us" => glue,
                "explore.simulated_ratio" => {
                    ratio(count("explore.simulated"), count("explore.candidates"))
                }
                "symbolic.fallback_ratio" => ratio(
                    count("explore.symbolic.fallback"),
                    count("explore.symbolic.fallback") + count("explore.symbolic.exact"),
                ),
                "exec.threaded_over_sequential" => threaded_over_sequential,
                "trace_overhead_pct" => trace_overhead_pct,
                "symbolic.known_gap_ratio" => known_gap_ratio,
                name => match name.strip_suffix("_us") {
                    Some(span) => p50_us(span),
                    None => count(name) / requests,
                },
            };
            (*d, value)
        })
        .collect()
}
