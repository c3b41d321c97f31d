//! Integration tests for the critical-path profiler, the flight
//! recorder, and the regression-diff observatory: attribution must be
//! conservative and exact on every builtin workload, reproduce the
//! paper's Table I decomposition for matvec, and the diff must gate a
//! seeded regression while passing identical inputs.

use loom_core::analytic;
use loom_core::{Pipeline, PipelineConfig};
use loom_machine::{critical_path, CriticalPathReport, MachineParams, SimConfig};
use loom_obs::{FlightRecorder, Json, Recorder};
use loom_workloads::Workload;

/// Stage the pipeline by hand (the profiler needs the `Program` and
/// `SimConfig`), simulate with trace + metrics on, and profile. Tries
/// cube dimensions 2 → 1 → 0 so small partitionings still map.
fn profile_workload(
    w: &Workload,
    params: MachineParams,
    link_contention: bool,
    cube_dims: &[usize],
) -> (u64, CriticalPathReport) {
    let rec = Recorder::disabled();
    let pipeline = Pipeline::new(w.nest.clone());
    for &cube_dim in cube_dims {
        let cfg = PipelineConfig {
            time_fn: Some(w.pi.clone()),
            cube_dim,
            machine: None,
            ..Default::default()
        };
        let stage = pipeline.stage_partition(&cfg, &rec).expect("stages run");
        let Ok((_mapping, placement, target)) = stage.map_with(&cfg, &rec) else {
            continue;
        };
        let program = stage.program(&placement);
        let sim_cfg = SimConfig {
            params,
            topology: target,
            batch_messages: false,
            link_contention,
            record_trace: true,
            collect_metrics: true,
        };
        let report = loom_machine::simulate(&program, &sim_cfg).expect("simulates");
        let profile = critical_path(&program, &sim_cfg, &report).expect("profiles");
        return (report.makespan, profile);
    }
    panic!("{} mapped on no tried cube dimension", w.nest.name());
}

/// Attribution conservation: on every builtin workload — including a
/// software-receive machine and a contention-modeled run — the seven
/// components sum exactly to the makespan with zero residual, and the
/// per-processor + per-link tables re-tile the same total.
#[test]
fn attribution_sums_to_makespan_on_every_builtin_workload() {
    let variants: &[(MachineParams, bool)] = &[
        (MachineParams::classic_1991(), false),
        (MachineParams::classic_1991().with_recv(3), false),
        (MachineParams::classic_1991(), true),
    ];
    for w in loom_workloads::all_default() {
        for &(params, contention) in variants {
            let (makespan, profile) = profile_workload(&w, params, contention, &[2, 1, 0]);
            let name = w.nest.name();
            let ctx = format!("{name} t_recv={} contention={contention}", params.t_recv);
            assert_eq!(profile.makespan, makespan, "{ctx}");
            assert_eq!(profile.components.sum(), makespan, "{ctx}");
            assert_eq!(profile.components.fault_recovery, 0, "{ctx}");
            assert_eq!(profile.components.residual, 0, "{ctx}");
            let proc_sum: u64 = profile.per_proc.iter().map(|a| a.sum()).sum();
            let link_sum: u64 = profile.per_link.values().sum();
            assert_eq!(
                proc_sum + link_sum + profile.rerouted_ticks,
                makespan,
                "{ctx}: per-proc/per-link tables must re-tile the makespan"
            );
            assert!(!profile.paths.is_empty(), "{ctx}");
            assert_eq!(profile.paths[0].slack, 0, "{ctx}");
            for p in &profile.paths {
                assert_eq!(
                    p.components.sum(),
                    p.finish,
                    "{ctx}: path to {}",
                    p.end_task
                );
            }
        }
    }
}

/// Table I, `N = 1`: serial execution is pure compute — the profiler
/// attributes the entire makespan `2M²·t_calc` to the compute bucket.
#[test]
fn matvec_serial_profile_is_pure_compute() {
    let m = 16u64;
    let params = MachineParams {
        t_calc: 3,
        t_start: 50,
        t_comm: 5,
        t_recv: 0,
    };
    let w = loom_workloads::matvec::workload(m as i64);
    let (makespan, profile) = profile_workload(&w, params, false, &[0]);
    let expected = 2 * analytic::matvec_max_points(m, 1) * params.t_calc;
    assert_eq!(makespan, expected);
    assert_eq!(profile.components.compute, expected);
    assert_eq!(profile.components.sum(), expected);
    assert_eq!(profile.components.startup, 0);
    assert_eq!(profile.components.transit, 0);
    assert_eq!(profile.components.contention, 0);
    assert_eq!(profile.components.recv, 0);
}

/// Table I, `N = 4`: the paper decomposes
/// `T_exec = 2W·t_calc + (2M−2)·(t_start + t_comm)` — the profiled
/// critical path must show the same structure: a common message count
/// `b` behind both the startup and transit buckets with `b ≤ 2M−2`,
/// compute bounded by `2W·t_calc`, and nothing else.
#[test]
fn matvec_parallel_profile_matches_table_i_decomposition() {
    let m = 32u64;
    let params = MachineParams::classic_1991();
    let w = loom_workloads::matvec::workload(m as i64);
    let (makespan, profile) = profile_workload(&w, params, false, &[2]);
    let c = &profile.components;
    assert_eq!(c.compute + c.startup + c.transit, makespan);
    assert_eq!(c.contention, 0);
    assert_eq!(c.recv, 0);
    assert_eq!(c.fault_recovery, 0);
    assert_eq!(c.residual, 0);
    // One word per message: every path message contributes t_start to
    // startup and t_comm to transit per hop, so both buckets count the
    // same link crossings b.
    assert_eq!(c.startup % params.t_start, 0);
    assert_eq!(c.transit % params.t_comm, 0);
    let b = c.startup / params.t_start;
    assert_eq!(c.transit / params.t_comm, b);
    assert!(b >= 1, "a 4-processor run must communicate");
    assert!(
        b <= 2 * m - 2,
        "critical path crosses more links ({b}) than Table I's 2M-2 bound"
    );
    let two_w_tcalc = 2 * analytic::matvec_max_points(m, 4) * params.t_calc;
    assert!(
        c.compute <= two_w_tcalc,
        "critical-path compute {} exceeds the 2W·t_calc bound {two_w_tcalc}",
        c.compute
    );
}

/// The symbolic cost engine's compute/startup/transit decomposition
/// (`DeriveOptions::profile`) must agree with the PR 6 critical-path
/// profiler's attribution point-for-point on matvec — serial (`N = 1`,
/// pure compute, `2M²·t_calc`) and parallel (`N = 4`).
#[test]
fn symbolic_decomposition_matches_profiler_attribution_on_matvec() {
    use loom_core::symbolic_cost::{Derivation, DeriveOptions, ProbeCache};
    use loom_core::MachineOptions;
    let family = |n: i64| loom_workloads::matvec::workload(n).nest;
    let opts = DeriveOptions {
        profile: true,
        ..Default::default()
    };
    let rec = Recorder::disabled();
    let cases: &[(usize, MachineParams)] = &[
        (
            0,
            MachineParams {
                t_calc: 3,
                t_start: 50,
                t_comm: 5,
                t_recv: 0,
            },
        ),
        (2, MachineParams::classic_1991()),
    ];
    let target = 24i64;
    for &(cube_dim, params) in cases {
        let w = loom_workloads::matvec::workload(target);
        let cfg = PipelineConfig {
            time_fn: Some(w.pi.clone()),
            cube_dim,
            machine: Some(MachineOptions {
                params,
                ..Default::default()
            }),
            ..Default::default()
        };
        let mut cache = ProbeCache::new();
        let derivation = Pipeline::new(w.nest.clone())
            .stage_symbolic_cost(&family, target, &cfg, &opts, &mut cache, &rec)
            .expect("symbolic stage runs");
        let Derivation::Exact(cost) = derivation else {
            panic!("matvec cube_dim={cube_dim} must derive exactly, got {derivation:?}");
        };
        let sym = cost.profile.as_ref().expect("profile requested");
        let base = cost.t_exec.base();
        for n in [base, base + 3, target] {
            let (makespan, profiled) = profile_workload(
                &loom_workloads::matvec::workload(n),
                params,
                false,
                &[cube_dim],
            );
            let c = &profiled.components;
            let ctx = format!("cube_dim={cube_dim} n={n}");
            assert_eq!(cost.makespan(n), Some(makespan), "{ctx}");
            assert_eq!(sym.compute.eval_u64(n), Some(c.compute), "{ctx}: compute");
            assert_eq!(sym.startup.eval_u64(n), Some(c.startup), "{ctx}: startup");
            assert_eq!(sym.transit.eval_u64(n), Some(c.transit), "{ctx}: transit");
            if cube_dim == 0 {
                // Table I, N = 1: the whole makespan is 2M²·t_calc of
                // compute — no communication terms at all.
                let pure = 2 * (n as u64) * (n as u64) * params.t_calc;
                assert_eq!(c.compute, pure, "{ctx}");
                assert_eq!(sym.startup.eval_u64(n), Some(0), "{ctx}");
                assert_eq!(sym.transit.eval_u64(n), Some(0), "{ctx}");
            } else {
                assert!(
                    c.startup > 0,
                    "{ctx}: a 4-processor matvec run must pay startup on the path"
                );
            }
        }
    }
}

/// The regression observatory: identical documents diff clean; a
/// seeded 10× timing inflation comes back as a gating regression that
/// names the inflated leaf.
#[test]
fn obs_diff_gates_a_seeded_regression_and_passes_identical_inputs() {
    use loom_obs::diff::diff;
    use loom_obs::DiffOptions;
    let doc = |explore_us: u64| {
        Json::obj(vec![
            ("bench", Json::from("explore")),
            (
                "entries",
                Json::Arr(vec![Json::obj(vec![
                    ("workload", Json::from("matvec")),
                    ("pi_bound", Json::from(2i64)),
                    ("explore_us", Json::from(explore_us)),
                    ("ranking_identical", Json::from(true)),
                ])]),
            ),
        ])
    };
    let old = doc(1200);
    let clean = diff(&old, &old, &DiffOptions::default());
    assert!(clean.findings.is_empty());
    assert!(!clean.has_regressions());
    assert!(clean.compared > 0);
    let bad = diff(&old, &doc(12000), &DiffOptions::default());
    assert!(bad.has_regressions());
    assert!(bad.findings.iter().any(|f| f.path.contains("explore_us")));
}

/// Flight-recorder smoke: a pipeline run through an enabled recorder
/// leaves schema-versioned JSONL events (spans mirrored in, `sim.done`
/// and `pipeline.done` markers) and a parseable collapsed-stack export.
#[test]
fn flight_recorder_and_flamegraph_capture_a_pipeline_run() {
    let w = loom_workloads::matvec::workload(8);
    let flight = FlightRecorder::with_capacity(512);
    let rec = Recorder::enabled_with_flight(flight.clone());
    Pipeline::new(w.nest.clone())
        .run_with(
            &PipelineConfig {
                time_fn: Some(w.pi.clone()),
                cube_dim: 1,
                ..Default::default()
            },
            &rec,
        )
        .unwrap();
    let events = flight.events();
    assert!(events.iter().any(|e| e.kind == "span"));
    assert!(events.iter().any(|e| e.kind == "sim.done"));
    assert!(events.iter().any(|e| e.kind == "pipeline.done"));
    for line in flight.to_jsonl().lines() {
        let j = Json::parse(line).expect("every flight line is valid JSON");
        assert_eq!(j.get("v").and_then(Json::as_u64), Some(1));
    }
    let flame = loom_obs::flight::collapsed_stacks(&rec.spans());
    assert!(!flame.is_empty());
    assert!(flame.contains("pipeline."));
    for line in flame.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("line is `stack weight`");
        assert!(!stack.is_empty());
        weight.parse::<u64>().expect("weight is an integer");
    }
}
