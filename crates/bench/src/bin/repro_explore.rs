//! A9 — explore throughput: the parallel, pruned, stage-cached
//! configuration search against the seed's serial implementation.
//!
//! For every builtin workload family and `pi_bound ∈ {1, 2, 3}` this
//! runs the configuration sweep twice — once through
//! `explore_reference` (the seed implementation: serial, unpruned, the
//! whole pipeline re-run per (Π, grouping, cube_dim) triple), once
//! through the rewritten `explore` on 4 worker threads with
//! branch-and-bound pruning and the partitioning stage shared across
//! machine sizes — asserts the ranked candidate lists are
//! **byte-identical**, and records wall time, candidate counts, and
//! pruning effectiveness. Each leg of a row runs [`SAMPLES`] times and
//! the row records its median wall time: one run is at the mercy of the
//! host's scheduler, which on a two-CPU machine moves the small rows
//! several-fold between runs. A row's `simulated` and `pruned` counts
//! come from one more, untimed sweep on one worker, the exact serial
//! path: with more workers they depend on the schedule. The sweep is written to `BENCH_explore.json`
//! (the repo's bench trajectory artifact); `--smoke` shrinks it to a
//! CI-sized subset and `--out <path>` redirects the artifact.

use loom_bench::maybe_write_metrics;
use loom_core::explore::{
    explore_reference, explore_with, Candidate, ExploreConfig, SymbolicExplore,
};
use loom_core::report::Table;
use loom_core::symbolic_cost::DeriveOptions;
use loom_core::MachineOptions;
use loom_machine::MachineParams;
use loom_obs::{Json, Recorder};
use std::sync::Arc;
use std::time::Instant;

const THREADS: usize = 4;
const CUBE_DIMS: [usize; 3] = [1, 2, 3];
/// Runs per leg of every row; the row records the median wall time.
const SAMPLES: usize = 5;

/// Run a timed leg [`SAMPLES`] times: every run's result, and the
/// median of their wall times in µs.
fn sampled<T>(mut leg: impl FnMut() -> (T, u64)) -> (Vec<T>, u64) {
    let (results, mut micros): (Vec<T>, Vec<u64>) = (0..SAMPLES).map(|_| leg()).unzip();
    micros.sort_unstable();
    (results, micros[SAMPLES / 2])
}

fn config(pi_bound: i64, threads: usize, prune: bool) -> ExploreConfig {
    ExploreConfig {
        pi_bound,
        top: 10,
        machine: MachineOptions {
            params: MachineParams::classic_1991(),
            ..Default::default()
        },
        threads,
        prune,
        symbolic: None,
    }
}

struct Leg {
    ranked: Vec<Candidate>,
    candidates: u64,
    simulated: u64,
    pruned: u64,
}

fn run_baseline(nest: &loom_loopir::LoopNest, pi_bound: i64) -> (Vec<Candidate>, u64) {
    let start = Instant::now();
    let ranked =
        explore_reference(nest, &CUBE_DIMS, &config(pi_bound, 1, false)).expect("explore succeeds");
    (ranked, start.elapsed().as_micros() as u64)
}

fn run_leg(nest: &loom_loopir::LoopNest, pi_bound: i64, threads: usize, prune: bool) -> (Leg, u64) {
    let rec = Recorder::enabled();
    let start = Instant::now();
    let ranked = explore_with(nest, &CUBE_DIMS, &config(pi_bound, threads, prune), &rec)
        .expect("explore succeeds");
    let micros = start.elapsed().as_micros() as u64;
    let counters = rec.counters();
    let leg = Leg {
        ranked,
        candidates: counters["explore.candidates"],
        simulated: counters["explore.simulated"],
        pruned: counters["explore.pruned"],
    };
    (leg, micros)
}

/// The builtin workload families at bench-grade sizes: big enough that
/// a candidate's pipeline + simulation outweighs thread dispatch, small
/// enough that the full sweep finishes in seconds. `--smoke` keeps the
/// default (test-sized) instances instead.
fn bench_workloads(smoke: bool) -> Vec<loom_workloads::Workload> {
    use loom_workloads::*;
    if smoke {
        return vec![
            matvec::workload(8),
            sor::workload(6, 6),
            matmul::workload(4),
        ];
    }
    vec![
        l1::workload(12),
        matmul::workload(6),
        matvec::workload(24),
        conv::workload(16, 8),
        sor::workload(16, 16),
        transitive::workload(6),
        dft::workload(16),
        conv2d::workload(8, 4),
        triangular::workload(14),
        heat2d::workload(6, 8),
    ]
}

/// A machine with short pipeline-fill transients: most matvec-like
/// configurations settle into a single cost regime, which is what the
/// closed-form derivation needs to certify a fit far below the target.
fn low_latency() -> MachineParams {
    MachineParams {
        t_calc: 3,
        t_start: 2,
        t_comm: 1,
        t_recv: 0,
    }
}

struct SymLeg {
    ranked: Vec<Candidate>,
    routed: u64,
    exact: u64,
    fallback: u64,
    probe_points: u64,
}

/// One `--symbolic` sweep: derive closed forms per (Π, grouping) pair
/// within `budget` probe points, evaluate at `size`, fall back to the
/// simulator only on `Unknown` — or, when the budget would pay for
/// validating every candidate at the target itself, route the whole
/// sweep to the simulator.
fn run_symbolic(
    name: &str,
    size: i64,
    pi_bound: i64,
    cube_dims: &[usize],
    params: MachineParams,
    budget: u64,
) -> (SymLeg, u64) {
    let fam = loom_workloads::family_of(name, None).expect("builtin family");
    let nest = fam(size).nest;
    let rec = Recorder::enabled();
    let cfg = ExploreConfig {
        machine: MachineOptions {
            params,
            ..Default::default()
        },
        symbolic: Some(SymbolicExplore {
            family: Arc::new(move |n| fam(n).nest),
            size,
            opts: DeriveOptions {
                max_probe_points: budget,
                ..DeriveOptions::default()
            },
        }),
        ..config(pi_bound, THREADS, true)
    };
    let start = Instant::now();
    let ranked = explore_with(&nest, cube_dims, &cfg, &rec).expect("symbolic explore succeeds");
    let micros = start.elapsed().as_micros() as u64;
    let counters = rec.counters();
    let leg = SymLeg {
        ranked,
        routed: counters["explore.symbolic.routed"],
        exact: counters["explore.symbolic.exact"],
        fallback: counters["explore.symbolic.fallback"],
        probe_points: counters["explore.symbolic.probe_points"],
    };
    (leg, micros)
}

fn run_reference_with(
    name: &str,
    size: i64,
    pi_bound: i64,
    cube_dims: &[usize],
    params: MachineParams,
) -> (Vec<Candidate>, u64) {
    let fam = loom_workloads::family_of(name, None).expect("builtin family");
    let nest = fam(size).nest;
    let cfg = ExploreConfig {
        machine: MachineOptions {
            params,
            ..Default::default()
        },
        ..config(pi_bound, 1, false)
    };
    let start = Instant::now();
    let ranked = explore_reference(&nest, cube_dims, &cfg).expect("explore succeeds");
    (ranked, start.elapsed().as_micros() as u64)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_explore.json".to_string());
    let pi_bounds: &[i64] = if smoke { &[1, 2] } else { &[1, 2, 3] };

    println!(
        "A9 — explore throughput: {THREADS}-thread pruned stage-cached sweep vs the\n\
         seed's serial explorer (full pipeline per candidate triple){}\n",
        if smoke { " (smoke)" } else { "" }
    );
    let mut t = Table::new([
        "workload",
        "pi_bound",
        "candidates",
        "simulated",
        "pruned",
        "baseline_ms",
        "explore_ms",
        "speedup",
    ]);
    let mut entries: Vec<Json> = Vec::new();
    let mut best_speedup_at_2 = 0.0f64;
    for w in bench_workloads(smoke) {
        for &pi_bound in pi_bounds {
            let (references, baseline_us) = sampled(|| run_baseline(&w.nest, pi_bound));
            let (legs, explore_us) = sampled(|| run_leg(&w.nest, pi_bound, THREADS, true));
            let (serial, _) = run_leg(&w.nest, pi_bound, 1, true);
            let reference = &references[0];
            let ranked_legs = legs.iter().chain([&serial]).map(|l| &l.ranked);
            for ranked in references.iter().chain(ranked_legs) {
                assert_eq!(
                    ranked,
                    reference,
                    "RANKING DIVERGED for {} at pi_bound={pi_bound}",
                    w.nest.name()
                );
            }
            let speedup = baseline_us as f64 / explore_us.max(1) as f64;
            if pi_bound == 2 {
                best_speedup_at_2 = best_speedup_at_2.max(speedup);
            }
            t.row([
                w.nest.name().to_string(),
                format!("{pi_bound}"),
                format!("{}", serial.candidates),
                format!("{}", serial.simulated),
                format!("{}", serial.pruned),
                format!("{:.1}", baseline_us as f64 / 1000.0),
                format!("{:.1}", explore_us as f64 / 1000.0),
                format!("{speedup:.2}x"),
            ]);
            entries.push(Json::obj(vec![
                ("workload", Json::from(w.nest.name())),
                ("pi_bound", Json::from(pi_bound)),
                ("candidates", Json::from(serial.candidates)),
                ("simulated", Json::from(serial.simulated)),
                ("pruned", Json::from(serial.pruned)),
                ("baseline_us", Json::from(baseline_us)),
                ("explore_us", Json::from(explore_us)),
                ("speedup", Json::from((speedup * 100.0).round() / 100.0)),
                ("ranking_identical", Json::from(true)),
            ]));
        }
    }
    println!("{t}");

    // --- symbolic sweep: closed-form T_exec vs the simulating path ---
    //
    // Identity rows run both paths and assert the byte-identical
    // ranking: at the default budget their targets are routed to the
    // simulator, and the conv and sor rows set a budget that prices the
    // target out, so they rank by closed forms (with honest fallback).
    // The speedup rows scale the size until the simulating path pays
    // millions of points per candidate while the symbolic path still
    // derives from small probe windows; the final row evaluates a space
    // the simulator cannot reach at all.
    println!("symbolic explore: closed-form T_exec vs simulating sweep\n");
    let mut st = Table::new([
        "workload",
        "size",
        "machine",
        "budget",
        "routed",
        "exact",
        "fallback",
        "baseline_ms",
        "symbolic_ms",
        "speedup",
    ]);
    let mut sym_entries: Vec<Json> = Vec::new();
    type SymRow = (
        &'static str,
        i64,
        i64,
        &'static [usize],
        MachineParams,
        &'static str,
        u64,
    );
    let default_budget = DeriveOptions::default().max_probe_points;
    let classic = MachineParams::classic_1991();
    let conv_priced_out: SymRow = (
        "conv",
        500,
        2,
        &[0, 1, 2],
        low_latency(),
        "low_latency",
        11_999,
    );
    let ident: Vec<SymRow> = if smoke {
        vec![
            (
                "matvec",
                12,
                2,
                &[0, 1, 2],
                classic,
                "classic_1991",
                default_budget,
            ),
            conv_priced_out,
        ]
    } else {
        vec![
            (
                "matvec",
                12,
                2,
                &[0, 1, 2],
                classic,
                "classic_1991",
                default_budget,
            ),
            (
                "matvec",
                24,
                2,
                &[0, 1, 2],
                low_latency(),
                "low_latency",
                default_budget,
            ),
            (
                "conv",
                10,
                2,
                &[0, 1, 2],
                low_latency(),
                "low_latency",
                default_budget,
            ),
            (
                "sor",
                10,
                2,
                &[0, 1, 2],
                classic,
                "classic_1991",
                default_budget,
            ),
            conv_priced_out,
            ("sor", 500, 2, &[0, 1, 2], classic, "classic_1991", 17_999),
        ]
    };
    let speedup_rows: Vec<SymRow> = if smoke {
        vec![]
    } else {
        vec![
            (
                "matvec",
                1024,
                1,
                &[1, 2],
                low_latency(),
                "low_latency",
                default_budget,
            ),
            (
                "matvec",
                2048,
                1,
                &[1, 2],
                low_latency(),
                "low_latency",
                default_budget,
            ),
        ]
    };
    for &(name, size, pi_bound, dims, params, mname, budget) in ident.iter().chain(&speedup_rows) {
        let (references, baseline_us) =
            sampled(|| run_reference_with(name, size, pi_bound, dims, params));
        let (syms, symbolic_us) =
            sampled(|| run_symbolic(name, size, pi_bound, dims, params, budget));
        for ranked in references.iter().chain(syms.iter().map(|l| &l.ranked)) {
            assert_eq!(
                ranked, &references[0],
                "SYMBOLIC RANKING DIVERGED for {name} at size {size}"
            );
        }
        let sym = &syms[0];
        let speedup = baseline_us as f64 / symbolic_us.max(1) as f64;
        st.row([
            name.to_string(),
            format!("{size}"),
            mname.to_string(),
            format!("{budget}"),
            format!("{}", sym.routed),
            format!("{}", sym.exact),
            format!("{}", sym.fallback),
            format!("{:.1}", baseline_us as f64 / 1000.0),
            format!("{:.1}", symbolic_us as f64 / 1000.0),
            format!("{speedup:.1}x"),
        ]);
        sym_entries.push(Json::obj(vec![
            ("workload", Json::from(name)),
            ("size", Json::from(size)),
            ("machine", Json::from(mname)),
            ("pi_bound", Json::from(pi_bound)),
            ("budget", Json::from(budget)),
            ("routed", Json::from(sym.routed)),
            ("exact", Json::from(sym.exact)),
            ("fallback", Json::from(sym.fallback)),
            ("probe_points", Json::from(sym.probe_points)),
            ("baseline_us", Json::from(baseline_us)),
            ("symbolic_us", Json::from(symbolic_us)),
            ("speedup", Json::from((speedup * 100.0).round() / 100.0)),
            ("ranking_identical", Json::from(true)),
        ]));
    }
    if !smoke {
        // The size-free showcase: M = 10⁶ is a 2·10¹²-point space — the
        // simulating path is out of reach, the closed forms evaluate in
        // O(1). Rehearse at a reachable size first: the sweep only runs
        // at M = 10⁶ when no candidate needed the simulator fallback
        // (one fallback there would BE the unreachable simulation). The
        // rehearsal target must be too large to route, or it would
        // rehearse the simulator instead of the derivation.
        let (rehearsal, _) =
            run_symbolic("matvec", 1024, 1, &[1, 2], low_latency(), default_budget);
        assert_eq!(rehearsal.routed, 0, "the rehearsal must derive");
        if rehearsal.fallback == 0 {
            let (syms, symbolic_us) = sampled(|| {
                run_symbolic(
                    "matvec",
                    1_000_000,
                    1,
                    &[1, 2],
                    low_latency(),
                    default_budget,
                )
            });
            let sym = &syms[0];
            assert_eq!(sym.routed + sym.fallback, 0, "10^6 sweep must not simulate");
            let best = &sym.ranked[0];
            st.row([
                "matvec".to_string(),
                "1000000".to_string(),
                "low_latency".to_string(),
                format!("{default_budget}"),
                format!("{}", sym.routed),
                format!("{}", sym.exact),
                format!("{}", sym.fallback),
                "unreachable".to_string(),
                format!("{:.1}", symbolic_us as f64 / 1000.0),
                "-".to_string(),
            ]);
            sym_entries.push(Json::obj(vec![
                ("workload", Json::from("matvec")),
                ("size", Json::from(1_000_000i64)),
                ("machine", Json::from("low_latency")),
                ("pi_bound", Json::from(1i64)),
                ("budget", Json::from(default_budget)),
                ("space_points", Json::from(2_000_000_000_000u64)),
                ("routed", Json::from(sym.routed)),
                ("exact", Json::from(sym.exact)),
                ("fallback", Json::from(sym.fallback)),
                ("probe_points", Json::from(sym.probe_points)),
                ("symbolic_us", Json::from(symbolic_us)),
                ("best_makespan", Json::from(best.makespan)),
                ("simulator_reachable", Json::from(false)),
            ]));
        } else {
            println!(
                "skipping the 10^6 row: rehearsal at size 1024 needed {} fallback(s)",
                rehearsal.fallback
            );
        }
    }
    println!("{st}");

    let doc = Json::obj(vec![
        ("bench", Json::from("explore")),
        ("threads", Json::from(THREADS)),
        (
            "cube_dims",
            Json::Arr(CUBE_DIMS.iter().map(|&d| Json::from(d)).collect()),
        ),
        ("smoke", Json::from(smoke)),
        (
            "best_speedup_at_pi_bound_2",
            Json::from((best_speedup_at_2 * 100.0).round() / 100.0),
        ),
        ("entries", Json::Arr(entries)),
        ("symbolic", Json::Arr(sym_entries)),
    ]);
    std::fs::write(&out_path, doc.render_pretty()).expect("write bench artifact");
    println!("wrote {out_path}");
    maybe_write_metrics("a9_explore", &doc);
    loom_bench::maybe_append_history("explore", &doc);
    println!(
        "\nevery row is double-checked: the pruned parallel sweep returned the\n\
         byte-identical top-10 the seed's serial explorer did; the speedup\n\
         comes from sharing the partitioning stage across machine sizes,\n\
         skipping candidates whose analytic lower bound cannot crack the\n\
         current top-10, and fanning pairs over {THREADS} workers."
    );
}
