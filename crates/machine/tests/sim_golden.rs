//! The simulator's golden grid: every builtin workload at a small size,
//! on 1-, 2- and 3-cubes, under two machine presets and five engine
//! configurations, plus seeded drop/retry and crash-with-remap fault
//! runs. Each run is one line of `tests/golden/sim.txt` pinning the
//! makespan, message and word counts, per-processor compute and comm
//! occupancy, and digests of the trace, the metrics and the degradation
//! report.
//!
//! The engine's event order is part of the result: which event wins a
//! shared tick decides every later start time. A change to any line is a
//! change to a simulated answer and must be deliberate. To regenerate
//! after such a change, run
//! `LOOM_GOLDEN_BLESS=1 cargo test -p loom-machine --test sim_golden`
//! and review the diff.

use loom_hyperplane::TimeFn;
use loom_machine::{
    simulate, simulate_with_faults, FaultConfig, FaultPlan, MachineParams, Program, RecoveryPolicy,
    SimConfig, SimReport, Topology,
};
use loom_partition::{partition, PartitionConfig};
use std::fmt::{Debug, Write as _};
use std::path::Path;

/// Every builtin at its default (small) size, partitioned along its
/// documented Π, with block `b` on processor `b mod 2^cube`.
fn programs() -> Vec<(String, usize, Program)> {
    let mut out = Vec::new();
    for w in loom_workloads::all_default() {
        let p = partition(
            w.nest.space().clone(),
            w.deps.clone(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .expect("builtins partition along their documented Π");
        for cube in 1..=3usize {
            let procs = 1 << cube;
            let assignment: Vec<usize> = (0..p.num_blocks()).map(|b| b % procs).collect();
            let prog =
                Program::from_partitioning(&p, &assignment, procs, w.nest.flops_per_iteration());
            out.push((w.nest.name().to_string(), cube, prog));
        }
    }
    out
}

/// FNV-1a over a value's `Debug` rendering: a stable digest of the
/// exact event-level record without pinning kilobytes of it.
fn digest<T: Debug>(value: &Option<T>) -> String {
    match value {
        None => "-".to_string(),
        Some(v) => {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in format!("{v:?}").bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            format!("{h:016x}")
        }
    }
}

fn line(label: &str, r: &SimReport) -> String {
    format!(
        "{label}: makespan={} messages={} words={} compute={:?} comm={:?} trace={} metrics={} faults={}",
        r.makespan,
        r.messages,
        r.words,
        r.compute,
        r.comm,
        digest(&r.trace),
        digest(&r.metrics),
        digest(&r.degradation),
    )
}

fn grid() -> String {
    let presets = [
        ("classic", MachineParams::classic_1991()),
        ("low", MachineParams::low_latency()),
    ];
    let mut doc = String::new();
    for (name, cube, prog) in programs() {
        for (preset, params) in presets {
            let base = SimConfig::paper_hypercube(cube, params);
            let configs = [
                ("default", base),
                (
                    "batch",
                    SimConfig {
                        batch_messages: true,
                        ..base
                    },
                ),
                (
                    "contention",
                    SimConfig {
                        link_contention: true,
                        ..base
                    },
                ),
                (
                    "t_recv=3",
                    SimConfig {
                        params: params.with_recv(3),
                        ..base
                    },
                ),
                (
                    "trace+metrics",
                    SimConfig {
                        record_trace: true,
                        collect_metrics: true,
                        ..base
                    },
                ),
            ];
            for (config, cfg) in configs {
                let r = simulate(&prog, &cfg).expect("builtins simulate");
                let label = format!("{name} cube={cube} {preset} {config}");
                writeln!(doc, "{}", line(&label, &r)).unwrap();
            }
        }
        if cube != 2 {
            continue;
        }
        // Fault runs on the 2-cube, traced, under fixed seeds.
        let mut cfg = SimConfig::paper_hypercube(cube, MachineParams::low_latency());
        cfg.record_trace = true;
        let plan = FaultPlan {
            retry_timeout: 8,
            ..FaultPlan::message_noise(42, 300, 100, 200)
        };
        let faults = [
            (
                "drop/retry",
                FaultConfig::new(plan, RecoveryPolicy::RetryOnly),
            ),
            (
                "crash/remap",
                FaultConfig::new(FaultPlan::none().with_crash(2, 20), RecoveryPolicy::Remap),
            ),
        ];
        for (fault, fc) in faults {
            let label = format!("{name} cube={cube} low {fault}");
            let text = match simulate_with_faults(&prog, &cfg, &fc) {
                Ok(r) => line(&label, &r),
                Err(e) => format!("{label}: error {e}"),
            };
            writeln!(doc, "{text}").unwrap();
        }
    }
    // One topology-routed row per non-cube interconnect, under contention.
    for (name, cube, prog) in programs().into_iter().filter(|(_, c, _)| *c == 3) {
        for topology in [Topology::Mesh { rows: 2, cols: 4 }, Topology::Ring(8)] {
            let cfg = SimConfig {
                topology,
                link_contention: true,
                collect_metrics: true,
                ..SimConfig::paper_hypercube(cube, MachineParams::low_latency())
            };
            let r = simulate(&prog, &cfg).expect("builtins simulate");
            let label = format!("{name} {topology:?} low contention+metrics");
            writeln!(doc, "{}", line(&label, &r)).unwrap();
        }
    }
    doc
}

#[test]
fn simulator_grid_matches_the_golden_document() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sim.txt");
    let doc = grid();
    if std::env::var_os("LOOM_GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &doc).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden document exists");
    let drifted: Vec<String> = want
        .lines()
        .zip(doc.lines())
        .filter(|(a, b)| a != b)
        .map(|(a, b)| format!("  want {a}\n  got  {b}"))
        .collect();
    assert!(
        drifted.is_empty() && want.lines().count() == doc.lines().count(),
        "{} of {} lines drifted ({} expected):\n{}",
        drifted.len(),
        doc.lines().count(),
        want.lines().count(),
        drifted.join("\n")
    );
}
