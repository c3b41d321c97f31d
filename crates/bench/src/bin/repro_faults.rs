//! A8 — fault sweep: how much of the paper's predicted makespan
//! survives an unreliable machine.
//!
//! For every builtin workload this sweeps message-drop rates under the
//! retry policy, then fail-stops the busiest processor under the remap
//! policy, and reports makespan inflation against the fault-free run.
//! Everything is seeded, so the table is bit-reproducible.

use loom_bench::maybe_write_metrics;
use loom_core::pipeline::{run_machine, MachineOptions};
use loom_core::report::Table;
use loom_core::{Pipeline, PipelineConfig};
use loom_machine::{FaultConfig, FaultPlan, RecoveryPolicy};
use loom_obs::{Json, Recorder};

const SEED: u64 = 1991;
const DROP_RATES: [u32; 3] = [10, 50, 200];

fn main() {
    println!("A8 — deterministic fault sweep (seed {SEED})\n");
    let rec = Recorder::disabled();
    let mut t = Table::new([
        "workload",
        "procs",
        "fault-free",
        "scenario",
        "makespan",
        "inflation",
        "retries",
        "remapped",
    ]);
    let mut metrics_doc: Vec<(String, Json)> = Vec::new();
    for w in loom_workloads::all_default() {
        let config = PipelineConfig {
            time_fn: Some(w.pi.clone()),
            ..PipelineConfig::default()
        };
        let stage = Pipeline::new(w.nest.clone())
            .stage_partition(&config, &rec)
            .expect("workloads partition");
        // Largest cube the block count supports, capped at 8 procs.
        let (_, placement, target) = (0..=3)
            .rev()
            .find_map(|cube_dim| {
                let config = PipelineConfig {
                    cube_dim,
                    ..config.clone()
                };
                stage.map_with(&config, &rec).ok()
            })
            .expect("every workload fits some cube");
        let n = target.len();
        let prog = stage.program(&placement);
        let free = run_machine(&prog, target, &MachineOptions::default(), &rec, None)
            .expect("fault-free sim")
            .makespan;
        let mut scenarios: Vec<(String, FaultConfig)> = DROP_RATES
            .iter()
            .map(|&rate| {
                (
                    format!("drop {rate}\u{2030}"),
                    FaultConfig::new(
                        FaultPlan::message_noise(SEED, rate, 0, 0),
                        RecoveryPolicy::RetryOnly,
                    ),
                )
            })
            .collect();
        // Fail-stop the processor owning the most tasks at tick 0 so the
        // remap path always has work to migrate.
        let busiest = (0..n)
            .max_by_key(|&q| {
                (
                    prog.proc_of.iter().filter(|&&r| r as usize == q).count(),
                    usize::MAX - q,
                )
            })
            .unwrap();
        scenarios.push((
            format!("crash P{busiest}+remap"),
            FaultConfig::new(
                FaultPlan::none().with_crash(busiest, 0),
                RecoveryPolicy::Remap,
            ),
        ));
        for (label, fc) in scenarios {
            let opts = MachineOptions {
                faults: Some(fc),
                ..MachineOptions::default()
            };
            let report = run_machine(&prog, target, &opts, &rec, None)
                .unwrap_or_else(|e| panic!("{} under {label}: {e}", w.nest.name()));
            let deg = report.degradation.expect("faulted run reports degradation");
            assert_eq!(deg.baseline_makespan, free, "baseline mismatch");
            if label.starts_with("crash") && n > 1 {
                assert!(deg.remapped_tasks > 0, "crash must strand tasks");
                assert!(deg.state_transfer_words > 0, "remap must pay for state");
            }
            t.row([
                w.nest.name().to_string(),
                format!("{n}"),
                format!("{free}"),
                label.clone(),
                format!("{}", report.makespan),
                format!("{:+.1}%", 100.0 * deg.makespan_inflation()),
                format!("{}", deg.retries),
                format!("{}", deg.remapped_tasks),
            ]);
            metrics_doc.push((format!("{}_{label}", w.nest.name()), deg.to_json()));
        }
    }
    println!("{t}");
    maybe_write_metrics("a8_faults", &Json::Obj(metrics_doc.into_iter().collect()));
    println!(
        "expected shape: light drop rates cost a few retry timeouts; heavy rates\n\
         inflate makespan by whole backoff windows; a tick-0 crash costs one\n\
         state-transfer message plus the survivor's doubled workload."
    );
}
