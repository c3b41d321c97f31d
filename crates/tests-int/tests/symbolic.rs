//! Property harness for the symbolic engine (`LC009`–`LC012`): on every
//! instantiated size the symbolic verdicts must agree with the
//! enumerative oracles — `LC001` legality, the point-walking Lemma 1
//! scan, and the vector-clock message analysis — with zero
//! disagreements. The enumerative side certifies one instance by brute
//! force; the symbolic side claims the same verdict from the lattice
//! structure, so any split between them is a soundness bug in one of
//! the two.

use loom_check::{
    check_blocking_cycles, check_legality, check_legality_symbolic, check_lemma1,
    check_lemma1_symbolic, check_lemma1_symbolic_groups, check_protocol, check_races,
    SymbolicStats,
};
use loom_codegen::generate;
use loom_hyperplane::TimeFn;
use loom_mapping::map_partitioning;
use loom_obs::SplitMix64;
use loom_partition::{partition, PartitionConfig, Partitioning, Tig};
use loom_workloads::Workload;

fn partition_of(w: &Workload) -> Partitioning {
    partition(
        w.nest.space().clone(),
        w.deps.clone(),
        TimeFn::new(w.pi.clone()),
        &PartitionConfig::default(),
    )
    .unwrap()
}

/// Workloads swept across iteration-space sizes 3..=12 (2-D) and
/// 3..=5 (3-D, to keep the enumerative oracle fast).
fn sized_workloads() -> Vec<Workload> {
    let mut ws = Vec::new();
    for s in 3..=12 {
        ws.push(loom_workloads::l1::workload(s));
        ws.push(loom_workloads::matvec::workload(s));
        ws.push(loom_workloads::triangular::workload(s));
    }
    for s in 3..=5 {
        ws.push(loom_workloads::matmul::workload(s));
    }
    ws
}

/// LC009 (legality half) vs LC001: identical verdict and identical
/// per-dependence findings for random Π, with both branches exercised.
#[test]
fn symbolic_legality_agrees_with_lc001() {
    let workloads = [
        loom_workloads::l1::workload(4),
        loom_workloads::matvec::workload(5),
        loom_workloads::sor::workload(4, 4),
        loom_workloads::matmul::workload(3),
    ];
    let mut rng = SplitMix64::new(0x5e9b01);
    let (mut accepted, mut rejected) = (0usize, 0usize);
    for _ in 0..128 {
        let w = &workloads[rng.below(workloads.len() as u64) as usize];
        let coeffs: Vec<i64> = (0..w.nest.dim()).map(|_| rng.range_i64(-2, 3)).collect();
        let pi = TimeFn::new(coeffs);
        let enumerative = check_legality(&pi, &w.deps);
        let symbolic = check_legality_symbolic(&pi, &w.deps);
        assert_eq!(
            enumerative.len(),
            symbolic.len(),
            "Π = {:?} on {}",
            pi.coeffs(),
            w.nest.name()
        );
        for (e, s) in enumerative.iter().zip(&symbolic) {
            assert_eq!(e.span, s.span);
            assert_eq!(e.message, s.message);
            assert_eq!(s.rule.code(), "LC009");
        }
        if enumerative.is_empty() {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    assert!(accepted >= 10, "only {accepted} legal Π sampled");
    assert!(rejected >= 10, "only {rejected} illegal Π sampled");
}

/// Symbolic Lemma 1 vs the point-walking scan: on untouched
/// partitionings and on randomly merged group mutants, across every
/// size — the clean/violation verdict must never split.
#[test]
fn symbolic_lemma1_agrees_with_enumerative_across_sizes() {
    let mut rng = SplitMix64::new(0x1e44a1);
    let mut mutant_violations = 0usize;
    for w in sized_workloads() {
        let p = partition_of(&w);
        let pi = TimeFn::new(w.pi.clone());

        // Untouched partitioning: both engines must call it clean.
        let mut stats = SymbolicStats::default();
        let sym = check_lemma1_symbolic(&p, &mut stats);
        let enu = check_lemma1(&pi, p.structure().point_table(), p.blocks());
        assert!(enu.is_empty(), "{}: enumerative oracle", w.nest.name());
        assert!(
            sym.is_empty(),
            "{}: symbolic disagrees with clean oracle:\n{:?}",
            w.nest.name(),
            sym
        );

        // Seeded mutants: merge two random groups and compare verdicts.
        let groups: Vec<Vec<usize>> = p
            .grouping()
            .groups
            .iter()
            .map(|g| g.members.clone())
            .collect();
        if groups.len() < 2 {
            continue;
        }
        for _ in 0..4 {
            let i = rng.below(groups.len() as u64) as usize;
            let mut j = rng.below(groups.len() as u64) as usize;
            if i == j {
                j = (j + 1) % groups.len();
            }
            let mut merged_groups = groups.clone();
            let moved = merged_groups[j].clone();
            merged_groups[i].extend(moved);
            merged_groups.remove(j);
            let merged_blocks: Vec<Vec<usize>> = merged_groups
                .iter()
                .map(|g| {
                    g.iter()
                        .flat_map(|&pid| p.projected().line_members(pid).iter().copied())
                        .collect()
                })
                .collect();
            let mut stats = SymbolicStats::default();
            let sym = check_lemma1_symbolic_groups(&p, &merged_groups, &mut stats);
            let enu = check_lemma1(&pi, p.structure().point_table(), &merged_blocks);
            assert_eq!(
                sym.is_empty(),
                enu.is_empty(),
                "{} merge G{i}+G{j}: symbolic {:?} vs enumerative {:?}",
                w.nest.name(),
                sym,
                enu
            );
            if !enu.is_empty() {
                mutant_violations += 1;
            }
        }
    }
    // The mutant sweep must actually produce violations, or the
    // agreement assertions above prove nothing about the firing side.
    assert!(
        mutant_violations >= 10,
        "only {mutant_violations} violating mutants sampled"
    );
}

/// LC011/LC012 vs the vector-clock oracle: on every size where a
/// program can be generated, the symbolic protocol summary matches the
/// TIG and finds no blocking cycle exactly when the enumerative
/// message walk finds no deadlock and no race.
#[test]
fn symbolic_protocol_agrees_with_vector_clock_oracle() {
    for w in sized_workloads() {
        let p = partition_of(&w);
        let tig = Tig::from_partitioning(&p);
        let mut stats = SymbolicStats::default();
        let lc011 = check_protocol(&p, &tig, &mut stats);
        let lc012 = check_blocking_cycles(&p);
        assert!(lc011.is_empty(), "{}: {:?}", w.nest.name(), lc011);
        assert!(lc012.is_empty(), "{}: {:?}", w.nest.name(), lc012);

        let m = map_partitioning(&p, 1).unwrap();
        if let Ok(cg) = generate(&w.nest, &p, m.assignment(), 2) {
            let oracle = check_races(&w.nest, &cg.program);
            assert!(
                oracle.is_empty(),
                "{}: vector-clock oracle disagrees:\n{:?}",
                w.nest.name(),
                oracle
            );
        }
    }
}

/// A tampered TIG edge must trip LC011 at every size — the summary is
/// exact, not approximate, so even an off-by-one is caught.
#[test]
fn tampered_tig_trips_lc011_at_every_size() {
    for s in [3, 6, 9, 12] {
        let w = loom_workloads::l1::workload(s);
        let p = partition_of(&w);
        let tig = Tig::from_partitioning(&p);
        let mut edges: std::collections::BTreeMap<(usize, usize), u64> = tig.edges().collect();
        let (&key, &weight) = edges.iter().next().unwrap();
        edges.insert(key, weight + 1);
        let weights: Vec<u64> = (0..tig.len()).map(|v| tig.weight(v)).collect();
        let tampered = Tig::from_parts(weights, edges);
        let mut stats = SymbolicStats::default();
        let ds = check_protocol(&p, &tampered, &mut stats);
        assert_eq!(ds.len(), 1, "size {s}");
        assert_eq!(ds[0].rule.code(), "LC011");
    }
}
