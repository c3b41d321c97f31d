//! Fault-injection properties across the whole pipeline: the empty
//! plan is invisible, degradation is a pure function of
//! `(program, plan, seed, policy)`, remap recovery completes every
//! builtin workload under a crash, and abort surfaces a typed error.
//! Randomness comes from a seeded [`SplitMix64`] so every run checks
//! the same cases.

use loom_machine::{
    simulate, simulate_with_faults, FaultConfig, FaultEvent, FaultPlan, MachineParams, Program,
    RecoveryPolicy, SimConfig, SimError, Topology,
};
use loom_mapping::map_partitioning;
use loom_obs::{Json, SplitMix64};
use loom_partition::{partition, PartitionConfig};

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

/// A random but replayable fault plan for an `n`-processor cube.
fn random_plan(rng: &mut SplitMix64, n: usize) -> FaultPlan {
    // Seeds stay in i64 range: the JSON layer stores integers as i64,
    // so larger seeds cannot round-trip (LC008 rejects such plans).
    let mut plan = FaultPlan::message_noise(
        rng.next_u64() >> 1,
        rng.below(120) as u32,
        rng.below(30) as u32,
        rng.below(120) as u32,
    );
    if rng.below(2) == 1 && n > 1 {
        let from = rng.below(n as u64) as usize;
        let bit = 1usize << rng.below(n.trailing_zeros().max(1) as u64);
        let at = rng.below(500);
        plan = plan.with_event(FaultEvent::LinkDown {
            from,
            to: from ^ bit,
            at,
            until: Some(at + 1 + rng.below(400)),
        });
    }
    if rng.below(2) == 1 {
        let at = rng.below(300);
        plan = plan.with_event(FaultEvent::ProcSlow {
            proc: rng.below(n as u64) as usize,
            factor: 2 + rng.below(3),
            at,
            until: Some(at + 1 + rng.below(300)),
        });
    }
    plan
}

#[test]
fn empty_plan_is_bit_identical_to_baseline_everywhere() {
    for w in loom_workloads::all_default() {
        let (prog, cube_dim) = program_of(&w);
        let config = sim_config(cube_dim);
        let base = simulate(&prog, &config).unwrap();
        let fc = FaultConfig::new(FaultPlan::none(), RecoveryPolicy::RetryOnly);
        let faulted = simulate_with_faults(&prog, &config, &fc).unwrap();
        assert_eq!(faulted.makespan, base.makespan, "{}", w.nest.name());
        assert_eq!(faulted.compute, base.compute);
        assert_eq!(faulted.comm, base.comm);
        assert_eq!(faulted.messages, base.messages);
        assert_eq!(faulted.words, base.words);
        assert_eq!(faulted.trace, base.trace);
        let deg = faulted.degradation.unwrap();
        assert_eq!(deg.faults_hit, 0);
        assert_eq!(deg.degraded_makespan, base.makespan);
    }
}

#[test]
fn identical_seeds_give_identical_degradation() {
    let mut rng = SplitMix64::new(0x10ca_1fa1);
    let workloads = loom_workloads::all_default();
    for i in 0..24 {
        let w = &workloads[rng.below(workloads.len() as u64) as usize];
        let (prog, cube_dim) = program_of(w);
        let config = sim_config(cube_dim);
        let plan = random_plan(&mut rng, 1 << cube_dim);
        let policy = if rng.below(2) == 0 {
            RecoveryPolicy::RetryOnly
        } else {
            RecoveryPolicy::Remap
        };
        let fc = FaultConfig::new(plan, policy);
        let a = simulate_with_faults(&prog, &config, &fc);
        let b = simulate_with_faults(&prog, &config, &fc);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.makespan, b.makespan, "case {i}");
                assert_eq!(a.degradation, b.degradation, "case {i}");
                assert_eq!(a.trace, b.trace, "case {i}");
            }
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "case {i}"),
            (a, b) => panic!("case {i}: diverging outcomes {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn seed_override_changes_noise_not_determinism() {
    let w = loom_workloads::matvec::workload(16);
    let (prog, cube_dim) = program_of(&w);
    let config = sim_config(cube_dim);
    let mut fc = FaultConfig::new(
        FaultPlan::message_noise(1, 200, 0, 0),
        RecoveryPolicy::RetryOnly,
    );
    let with_plan_seed = simulate_with_faults(&prog, &config, &fc).unwrap();
    fc.seed_override = Some(999);
    let overridden_a = simulate_with_faults(&prog, &config, &fc).unwrap();
    let overridden_b = simulate_with_faults(&prog, &config, &fc).unwrap();
    assert_eq!(overridden_a.makespan, overridden_b.makespan);
    assert_eq!(overridden_a.degradation, overridden_b.degradation);
    // Different seed, different noise stream (the drop pattern moves).
    assert_ne!(
        with_plan_seed.degradation.unwrap().attribution,
        overridden_a.degradation.unwrap().attribution
    );
}

#[test]
fn remap_completes_every_builtin_workload_under_a_crash() {
    for w in loom_workloads::all_default() {
        let (prog, cube_dim) = program_of(&w);
        if cube_dim == 0 {
            continue; // nobody left to remap onto
        }
        let config = sim_config(cube_dim);
        let n = 1usize << cube_dim;
        let busiest = (0..n)
            .max_by_key(|&q| prog.proc_of.iter().filter(|&&r| r as usize == q).count())
            .unwrap();
        let fc = FaultConfig::new(
            FaultPlan::none().with_crash(busiest, 0),
            RecoveryPolicy::Remap,
        );
        let report = simulate_with_faults(&prog, &config, &fc)
            .unwrap_or_else(|e| panic!("{}: {e}", w.nest.name()));
        let deg = report.degradation.unwrap();
        assert_eq!(deg.crashes, 1, "{}", w.nest.name());
        assert!(deg.remapped_tasks > 0, "{}", w.nest.name());
        assert!(deg.state_transfer_words > 0, "{}", w.nest.name());
        assert!(deg.state_transfer_ticks > 0, "{}", w.nest.name());
        // Every task still completed, just not on the dead processor.
        let trace = report.trace.unwrap();
        assert_eq!(trace.len(), prog.len(), "{}", w.nest.name());
        assert!(trace.iter().all(|r| r.proc as usize != busiest || {
            // tasks finished before the crash tick keep their record
            r.end == 0
        }));
    }
}

#[test]
fn abort_and_retry_strand_on_crash_remap_does_not() {
    let w = loom_workloads::sor::workload(8, 8);
    let (prog, cube_dim) = program_of(&w);
    let config = sim_config(cube_dim);
    let plan = FaultPlan::none().with_crash(1, 0);
    for policy in [RecoveryPolicy::Abort, RecoveryPolicy::RetryOnly] {
        let err = simulate_with_faults(&prog, &config, &FaultConfig::new(plan.clone(), policy))
            .unwrap_err();
        match err {
            SimError::Unrecoverable { fault, task, at } => {
                assert!(fault.contains("fail-stopped"), "{fault}");
                assert!(task.is_some());
                assert_eq!(at, 0);
            }
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
    }
    let fc = FaultConfig::new(plan, RecoveryPolicy::Remap);
    assert!(simulate_with_faults(&prog, &config, &fc).is_ok());
}

#[test]
fn plans_round_trip_through_json() {
    let mut rng = SplitMix64::new(7);
    for _ in 0..32 {
        let mut plan = random_plan(&mut rng, 8);
        if rng.below(2) == 1 {
            plan = plan.with_crash(rng.below(8) as usize, rng.below(1000));
        }
        let doc = Json::parse(&plan.to_json().render_pretty()).unwrap();
        assert_eq!(FaultPlan::from_json(&doc).unwrap(), plan);
    }
}

#[test]
fn lc008_accepts_what_the_simulator_accepts() {
    // Any plan LC008 passes for the topology must not make the
    // simulator panic — run a sample of random plans end to end.
    let mut rng = SplitMix64::new(11);
    let w = loom_workloads::matvec::workload(8);
    let (prog, cube_dim) = program_of(&w);
    let config = sim_config(cube_dim);
    for _ in 0..16 {
        let plan = random_plan(&mut rng, 1 << cube_dim);
        let diags = loom_check::check_fault_plan(&plan, &config.topology);
        assert!(
            !diags
                .iter()
                .any(|d| d.severity == loom_check::Severity::Error),
            "{diags:?}"
        );
        let fc = FaultConfig::new(plan, RecoveryPolicy::Remap);
        // Completion or a typed error are both acceptable; panics and
        // hangs are not.
        let _ = simulate_with_faults(&prog, &config, &fc);
    }
}
