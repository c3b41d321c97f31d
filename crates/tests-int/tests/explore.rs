//! Determinism properties of the rewritten configuration explorer and
//! the simulator's scratch-buffer recycling.
//!
//! The load-bearing invariant (enforced here and by the CI smoke run of
//! `repro_explore`): the parallel, pruned, stage-cached `explore`
//! returns the **byte-identical** ranked candidate list the seed's
//! serial, unpruned `explore_reference` does — for every builtin
//! workload, every thread count, and with pruning on or off. Randomness
//! comes from a seeded [`SplitMix64`] so every run checks the same
//! cases.

use loom_core::explore::{explore_reference, explore_with, ExploreConfig};
use loom_core::MachineOptions;
use loom_machine::{
    simulate, simulate_scratch, simulate_with_faults, simulate_with_faults_scratch, FaultConfig,
    FaultEvent, FaultPlan, MachineParams, Program, RecoveryPolicy, SimConfig, SimReport,
    SimScratch, Topology,
};
use loom_mapping::map_partitioning;
use loom_obs::{Recorder, SplitMix64};
use loom_partition::{partition, PartitionConfig};

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

#[test]
fn parallel_pruned_explore_matches_serial_unpruned_reference() {
    let dims = [0, 1, 2];
    for w in loom_workloads::all_default() {
        let reference = explore_reference(&w.nest, &dims, &config(1, 1, false)).unwrap();
        for threads in [1, 2, 4, 8] {
            for prune in [false, true] {
                let got = explore_with(
                    &w.nest,
                    &dims,
                    &config(1, threads, prune),
                    &Recorder::disabled(),
                )
                .unwrap();
                assert_eq!(
                    got,
                    reference,
                    "{}: threads={threads} prune={prune} diverged from the seed explorer",
                    w.nest.name()
                );
            }
        }
    }
}

#[test]
fn wider_pi_search_stays_deterministic_on_sampled_workloads() {
    // pi_bound = 2 multiplies the candidate space; keep the runtime sane
    // by sampling three workloads — seeded, so the same three every run.
    let mut rng = SplitMix64::new(0x9e37_79b9);
    let workloads = loom_workloads::all_default();
    let dims = [1, 2];
    for _ in 0..3 {
        let w = &workloads[rng.below(workloads.len() as u64) as usize];
        let reference = explore_reference(&w.nest, &dims, &config(2, 1, false)).unwrap();
        let got = explore_with(&w.nest, &dims, &config(2, 4, true), &Recorder::disabled()).unwrap();
        assert_eq!(got, reference, "{} at pi_bound=2", w.nest.name());
    }
}

#[test]
fn explore_counters_account_for_every_candidate() {
    let w = loom_workloads::matvec::workload(8);
    let rec = Recorder::enabled();
    explore_with(&w.nest, &[0, 1, 2], &config(2, 2, true), &rec).unwrap();
    let counters = rec.counters();
    assert!(counters.contains_key("pool.tasks"), "pool.tasks missing");
    assert!(
        counters.contains_key("pool.workers"),
        "pool.workers missing"
    );
    let candidates = counters["explore.candidates"];
    let simulated = counters["explore.simulated"];
    let pruned = counters["explore.pruned"];
    assert!(candidates > 0);
    // Every candidate is either simulated, pruned, or skipped for a
    // structural reason (no legal mapping at that cube size) — never
    // double-counted.
    assert!(
        simulated + pruned <= candidates,
        "{simulated} + {pruned} > {candidates}"
    );
}

// ---------------------------------------------------------------------
// SimScratch recycling
// ---------------------------------------------------------------------

fn sim_config(cube_dim: usize) -> SimConfig {
    SimConfig {
        params: MachineParams::classic_1991(),
        topology: Topology::Hypercube(cube_dim),
        batch_messages: false,
        link_contention: false,
        record_trace: true,
        collect_metrics: false,
    }
}

/// Map a builtin workload onto the largest cube (≤ dim 3) it fits.
fn program_of(w: &loom_workloads::Workload) -> (Program, usize) {
    let p = partition(
        w.nest.space().clone(),
        w.verified_deps(),
        w.time_fn(),
        &PartitionConfig::default(),
    )
    .unwrap();
    let (cube_dim, mapping) = (0..=3)
        .rev()
        .find_map(|d| map_partitioning(&p, d).ok().map(|m| (d, m)))
        .unwrap();
    let prog = Program::from_partitioning(
        &p,
        mapping.assignment(),
        1 << cube_dim,
        w.nest.flops_per_iteration(),
    );
    (prog, cube_dim)
}

fn assert_reports_identical(a: &SimReport, b: &SimReport, what: &str) {
    assert_eq!(a.makespan, b.makespan, "{what}: makespan");
    assert_eq!(a.compute, b.compute, "{what}: compute");
    assert_eq!(a.comm, b.comm, "{what}: comm");
    assert_eq!(a.messages, b.messages, "{what}: messages");
    assert_eq!(a.words, b.words, "{what}: words");
    assert_eq!(a.trace, b.trace, "{what}: trace");
}

#[test]
fn scratch_reuse_is_bit_identical_across_workloads() {
    // One scratch threaded through every simulation, in sequence — each
    // run must match a fresh-buffer run exactly, or buffer recycling is
    // leaking state between candidates.
    let mut scratch = SimScratch::default();
    for w in loom_workloads::all_default() {
        let (prog, cube_dim) = program_of(&w);
        let cfg = sim_config(cube_dim);
        let fresh = simulate(&prog, &cfg).unwrap();
        let reused = simulate_scratch(&prog, &cfg, &mut scratch).unwrap();
        assert_reports_identical(&fresh, &reused, w.nest.name());
    }
}

#[test]
fn scratch_reuse_is_bit_identical_under_faults() {
    let mut scratch = SimScratch::default();
    let mut rng = SplitMix64::new(0xfa_017);
    for w in loom_workloads::all_default() {
        let (prog, cube_dim) = program_of(&w);
        let cfg = sim_config(cube_dim);
        let plan = FaultPlan::message_noise(
            rng.next_u64() >> 1,
            rng.below(120) as u32,
            rng.below(30) as u32,
            rng.below(120) as u32,
        )
        .with_event(FaultEvent::ProcSlow {
            proc: rng.below(1 << cube_dim) as usize,
            factor: 2 + rng.below(3),
            at: rng.below(300),
            until: None,
        });
        let fc = FaultConfig::new(plan, RecoveryPolicy::RetryOnly);
        let fresh = simulate_with_faults(&prog, &cfg, &fc).unwrap();
        let reused = simulate_with_faults_scratch(&prog, &cfg, &fc, &mut scratch).unwrap();
        assert_reports_identical(&fresh, &reused, w.nest.name());
        let (df, dr) = (fresh.degradation.unwrap(), reused.degradation.unwrap());
        assert_eq!(df.faults_hit, dr.faults_hit, "{}", w.nest.name());
        assert_eq!(
            df.degraded_makespan,
            dr.degraded_makespan,
            "{}",
            w.nest.name()
        );
    }
}
