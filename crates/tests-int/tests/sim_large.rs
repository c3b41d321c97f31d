//! Exact simulated answers at a size where every processor's ready set
//! spans more than 4096 tasks: matvec 256 (65,536 tasks) under Π =
//! (1, 1) on a low-latency machine (`t_calc 3, t_start 2, t_comm 1`),
//! mapped through the `Pipeline`. The golden grid in
//! `crates/machine/tests/sim_golden.rs` runs only small programs; this
//! file pins the engine's answers on one large enough to exercise its
//! deepest data-structure paths, including `t_recv` and a crash
//! recovered by `Remap`.
//!
//! The values were recorded before the engine's ready queue changed
//! representation, and a change to any of them is a change to a
//! simulated answer.

use loom_core::{MachineOptions, Pipeline, PipelineConfig};
use loom_machine::{FaultConfig, FaultPlan, MachineParams, RecoveryPolicy, SimReport};
use loom_partition::PartitionConfig;

fn params() -> MachineParams {
    MachineParams {
        t_calc: 3,
        t_start: 2,
        t_comm: 1,
        t_recv: 0,
    }
}

/// Simulate matvec 256 under Π = (1, 1) with grouping `grouping` on the
/// `cube`-cube, with the given machine options.
fn run(pipeline: &Pipeline, grouping: usize, cube: usize, machine: MachineOptions) -> SimReport {
    let config = PipelineConfig {
        time_fn: Some(vec![1, 1]),
        partition: PartitionConfig {
            grouping_choice: Some(grouping),
            seed: None,
        },
        cube_dim: cube,
        target: None,
        machine: Some(machine),
    };
    pipeline
        .run(&config)
        .expect("matvec 256 simulates")
        .sim
        .expect("a machine was configured")
}

fn low_latency() -> MachineOptions {
    MachineOptions {
        params: params(),
        ..MachineOptions::default()
    }
}

/// FNV-1a over `bytes`.
fn fnv(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// A digest of every trace record's task, processor, start and end.
fn trace_digest(r: &SimReport) -> String {
    let bytes: Vec<u8> = r
        .trace
        .as_ref()
        .expect("trace recorded")
        .iter()
        .flat_map(|rec| [u64::from(rec.task), u64::from(rec.proc), rec.start, rec.end])
        .flat_map(u64::to_le_bytes)
        .collect();
    fnv(&bytes)
}

fn line(label: &str, r: &SimReport) -> String {
    format!(
        "{label}: makespan={} messages={} words={} compute={:?} comm={:?}",
        r.makespan, r.messages, r.words, r.compute, r.comm
    )
}

#[test]
fn matvec_256_low_latency_answers_are_pinned() {
    let pipeline = Pipeline::new(loom_workloads::matvec::workload(256).nest);
    let mut got = Vec::new();
    for grouping in [0, 1] {
        for cube in [1, 2] {
            let r = run(&pipeline, grouping, cube, low_latency());
            got.push(line(&format!("D[{grouping}] cube={cube}"), &r));
        }
    }
    let traced = run(
        &pipeline,
        0,
        2,
        MachineOptions {
            record_trace: true,
            ..low_latency()
        },
    );
    got.push(format!(
        "D[0] cube=2 trace={} records={}",
        trace_digest(&traced),
        traced.trace.as_ref().map_or(0, Vec::len)
    ));
    let metered = run(
        &pipeline,
        1,
        2,
        MachineOptions {
            link_contention: true,
            collect_metrics: true,
            ..low_latency()
        },
    );
    got.push(format!(
        "D[1] cube=2 contention makespan={} metrics={}",
        metered.makespan,
        fnv(format!("{:?}", metered.metrics).as_bytes())
    ));
    let recv = run(
        &pipeline,
        0,
        2,
        MachineOptions {
            params: params().with_recv(3),
            ..low_latency()
        },
    );
    got.push(line("D[0] cube=2 t_recv=3", &recv));
    let crashed = run(
        &pipeline,
        1,
        2,
        MachineOptions {
            record_trace: true,
            faults: Some(FaultConfig::new(
                FaultPlan::none().with_crash(3, 50_000),
                RecoveryPolicy::Remap,
            )),
            ..low_latency()
        },
    );
    let deg = crashed.degradation.as_ref().expect("fault run");
    got.push(line("D[1] cube=2 crash P3@50000 remap", &crashed));
    got.push(format!(
        "D[1] cube=2 crash P3@50000 remap: remapped={} transfer_ticks={} baseline={} trace={}",
        deg.remapped_tasks,
        deg.state_transfer_ticks,
        deg.baseline_makespan,
        trace_digest(&crashed)
    ));
    let expected = [
        "D[0] cube=1: makespan=198141 messages=510 words=510 compute=[197376, 195840] comm=[765, 765]",
        "D[0] cube=2: makespan=148989 messages=1020 words=1020 compute=[49536, 147840, 48768, 147072] comm=[384, 1149, 381, 1146]",
        "D[1] cube=1: makespan=198144 messages=510 words=510 compute=[197376, 195840] comm=[765, 765]",
        "D[1] cube=2: makespan=148992 messages=1020 words=1020 compute=[49536, 147840, 48768, 147072] comm=[384, 1149, 381, 1146]",
        "D[0] cube=2 trace=8ceca8886027f6d6 records=65536",
        "D[1] cube=2 contention makespan=148992 metrics=d08653c7cef35b86",
        "D[0] cube=2 t_recv=3: makespan=150138 messages=1020 words=1020 compute=[49536, 147840, 48768, 147072] comm=[768, 2298, 762, 2292]",
        "D[1] cube=2 crash P3@50000 remap: makespan=262511 messages=703 words=16947 compute=[49536, 245310, 48768, 49608] comm=[384, 17201, 381, 387]",
        "D[1] cube=2 crash P3@50000 remap: remapped=16245 transfer_ticks=16247 baseline=148992 trace=c1e971d7cf73f3a2",
    ];
    assert_eq!(got.join("\n"), expected.join("\n"));
}
