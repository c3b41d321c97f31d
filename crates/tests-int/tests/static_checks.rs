//! Integration tests for the `loom-check` static verifier.
//!
//! Two angles: a deterministic property harness cross-validating the
//! LC001 legality rule against the execution oracle (a schedule the
//! checker accepts must replay to the sequential result; a schedule it
//! rejects for a strictly negative `Π·d` must trip the oracle's order
//! validation), and the seeded-mutation suite — every mutated pipeline
//! artifact must produce exactly the expected rule id, in both the
//! human and the JSON rendering.

use loom_check::{
    check_gray, check_legality, check_lemma1, check_pipeline_mode, check_races, CheckMode,
    PipelineCheck, Report, Severity,
};
use loom_codegen::{generate, Op};
use loom_exec::memory::address_hash_init;
use loom_exec::{equivalent, execute_in_order, sequential, Divergence};
use loom_hyperplane::TimeFn;
use loom_mapping::map_partitioning;
use loom_obs::{Recorder, SplitMix64};
use loom_partition::{partition, PartitionConfig, Partitioning, Tig};
use loom_workloads::Workload;

fn pipeline_artifacts(w: &Workload, cube_dim: usize) -> (Partitioning, Tig, Vec<usize>) {
    let p = partition(
        w.nest.space().clone(),
        w.deps.clone(),
        TimeFn::new(w.pi.clone()),
        &PartitionConfig::default(),
    )
    .unwrap();
    let tig = Tig::from_partitioning(&p);
    let m = map_partitioning(&p, cube_dim).unwrap();
    let assignment = m.assignment().to_vec();
    (p, tig, assignment)
}

// ---------------------------------------------------------------------
// Property harness: LC001 vs. the execution oracle.
// ---------------------------------------------------------------------

/// Random Π candidates over small workloads. The ground truth for
/// legality is the definition itself (`Π·d ≥ 1` for every `d`); the
/// cross-check is behavioral: executing the nest front-by-front under
/// an accepted Π must reproduce the sequential store, and executing it
/// under a Π with a strictly negative `Π·d` must be caught as an order
/// violation by the oracle's dependence validation.
#[test]
fn random_pi_legality_matches_exec_oracle() {
    let workloads = [
        loom_workloads::l1::workload(4),
        loom_workloads::matvec::workload(5),
        loom_workloads::sor::workload(4, 4),
    ];
    let mut rng = SplitMix64::new(0x10c4);
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for _ in 0..96 {
        let w = &workloads[rng.below(workloads.len() as u64) as usize];
        let n = w.nest.dim();
        let coeffs: Vec<i64> = (0..n).map(|_| rng.range_i64(-2, 3)).collect();
        let pi = TimeFn::new(coeffs);
        let diags = check_legality(&pi, &w.deps);
        let legal = w
            .deps
            .iter()
            .all(|d| d.iter().zip(pi.coeffs()).map(|(&a, &b)| a * b).sum::<i64>() >= 1);
        assert_eq!(
            diags.is_empty(),
            legal,
            "LC001 disagrees with the definition for Π = {:?} on {}",
            pi.coeffs(),
            w.nest.name()
        );

        let points: Vec<Vec<i64>> = w.nest.space().points().collect();
        let mut order: Vec<usize> = (0..points.len()).collect();
        order.sort_by_key(|&i| (pi.time_of(&points[i]), points[i].clone()));
        let result = execute_in_order(&w.nest, &points, &order, &w.deps, &address_hash_init);
        if legal {
            accepted += 1;
            let mem = result.expect("legal Π must replay cleanly");
            equivalent(&mem, &sequential(&w.nest, &address_hash_init))
                .expect("legal Π must match the sequential store");
        } else {
            rejected += 1;
            // Only a strictly negative Π·d forces a front ordered after
            // its predecessor's; a Π·d = 0 tie may still happen to be
            // replayed in a valid order by the lexicographic tiebreak.
            let strictly_negative = w
                .deps
                .iter()
                .any(|d| d.iter().zip(pi.coeffs()).map(|(&a, &b)| a * b).sum::<i64>() < 0);
            if strictly_negative {
                assert!(
                    matches!(result, Err(Divergence::OrderViolation { .. })),
                    "Π = {:?} on {} has Π·d < 0 but the oracle replayed it",
                    pi.coeffs(),
                    w.nest.name()
                );
            }
        }
    }
    // The harness must exercise both branches, or it proves nothing.
    assert!(accepted >= 10, "only {accepted} legal Π sampled");
    assert!(rejected >= 10, "only {rejected} illegal Π sampled");
}

// ---------------------------------------------------------------------
// Clean pipelines: zero error diagnostics on every built-in workload.
// ---------------------------------------------------------------------

#[test]
fn all_builtin_workloads_check_clean() {
    for w in loom_workloads::all_default() {
        let (p, tig, assignment) = pipeline_artifacts(&w, 1);
        let report = check_pipeline_mode(
            &PipelineCheck {
                nest: &w.nest,
                deps: &w.deps,
                pi: &TimeFn::new(w.pi.clone()),
                partitioning: &p,
                tig: &tig,
                assignment: &assignment,
                cube_dim: 1,
            },
            CheckMode::Enumerative,
            &Recorder::disabled(),
        );
        assert!(
            !report.has_errors(),
            "{}:\n{}",
            w.nest.name(),
            report.render_human()
        );
    }
}

// ---------------------------------------------------------------------
// Seeded mutations: each must produce exactly the expected rule id.
// ---------------------------------------------------------------------

fn assert_only_rule(report: &Report, code: &str) {
    let counts = report.rule_counts();
    assert!(
        counts.contains_key(code),
        "expected {code}:\n{}",
        report.render_human()
    );
    assert_eq!(
        counts.len(),
        1,
        "expected only {code}:\n{}",
        report.render_human()
    );
    // Both renderings name the rule.
    assert!(report.render_human().contains(&format!("[{code}]")));
    let json = report.to_json().render_pretty();
    assert!(json.contains(&format!("\"rule\": \"{code}\"")), "{json}");
}

#[test]
fn mutation_illegal_pi_yields_lc001() {
    let w = loom_workloads::l1::workload(4);
    let report = Report::from_diagnostics(check_legality(&TimeFn::new(vec![1, -1]), &w.deps));
    assert!(report.has_errors());
    assert_only_rule(&report, "LC001");
}

#[test]
fn mutation_merged_blocks_yield_lc002() {
    let w = loom_workloads::l1::workload(4);
    let (p, _, _) = pipeline_artifacts(&w, 1);
    let pi = TimeFn::new(w.pi.clone());
    // The untouched partition satisfies Lemma 1 …
    let blocks = p.blocks().to_vec();
    assert!(check_lemma1(&pi, p.structure().point_table(), &blocks).is_empty());
    // … and merging two blocks that share a hyperplane step breaks it.
    let mut merged = blocks.clone();
    let moved = merged.pop().unwrap();
    merged[0].extend(moved);
    let report = Report::from_diagnostics(check_lemma1(&pi, p.structure().point_table(), &merged));
    assert!(report.has_errors());
    assert_only_rule(&report, "LC002");
}

#[test]
fn mutation_scrambled_gray_yields_lc004() {
    // matvec on a 16×16 space partitions into 16 blocks — a full
    // 4-cube, where the 1-hop guarantee is exact. Allocating blocks by
    // their binary index instead of a Gray walk breaks adjacency.
    let w = loom_workloads::matvec::workload(16);
    let (p, tig, gray) = pipeline_artifacts(&w, 4);
    assert!(p.num_blocks() >= 3 && p.num_blocks() <= 16);
    let cube_dim = 4;
    assert!(check_gray(&p, &tig, &gray, cube_dim)
        .iter()
        .all(|d| d.severity != Severity::Error));
    let binary: Vec<usize> = (0..p.num_blocks()).collect();
    let report = Report::from_diagnostics(check_gray(&p, &tig, &binary, cube_dim));
    assert!(report.has_errors());
    assert_only_rule(&report, "LC004");
}

#[test]
fn mutation_injected_write_yields_lc005() {
    let w = loom_workloads::l1::workload(4);
    let (p, _, _) = pipeline_artifacts(&w, 1);
    let m = map_partitioning(&p, 1).unwrap();
    let cg = generate(&w.nest, &p, m.assignment(), 2).unwrap();
    assert!(check_races(&w.nest, &cg.program).is_empty());
    // Recompute a proc-0 iteration on proc 1 with no synchronization:
    // two processors now write the same elements concurrently.
    let mut program = cg.program;
    let point = program.per_proc[0]
        .iter()
        .find_map(|op| match op {
            Op::Compute { point } => Some(*point),
            _ => None,
        })
        .unwrap();
    program.per_proc[1].insert(0, Op::Compute { point });
    let report = Report::from_diagnostics(check_races(&w.nest, &program));
    assert!(report.has_errors());
    assert_only_rule(&report, "LC005");
}

#[test]
fn pipeline_gate_rejects_mutants_and_passes_clean() {
    use loom_core::pipeline::MachineOptions;
    use loom_core::{Pipeline, PipelineConfig};
    let w = loom_workloads::sor::workload(6, 6);
    let config = PipelineConfig {
        time_fn: Some(w.pi.clone()),
        cube_dim: 1,
        machine: Some(MachineOptions {
            static_check: true,
            ..Default::default()
        }),
        ..Default::default()
    };
    let out = Pipeline::new(w.nest.clone()).run(&config);
    assert!(out.is_ok(), "{:?}", out.err().map(|e| e.to_string()));
}
