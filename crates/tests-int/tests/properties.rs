//! Property-based integration tests: random uniform dependence sets and
//! spaces must always yield partitionings that satisfy the paper's laws,
//! and mappings/simulations that conserve work. Randomness comes from a
//! seeded [`SplitMix64`] so every run checks the same cases.

use loom_hyperplane::{find_optimal, SearchConfig, TimeFn};
use loom_loopir::{parse_nest, Aff, IterSpace};
use loom_machine::{simulate, MachineParams, Program, SimConfig, Topology};
use loom_mapping::{baseline, map_partitioning};
use loom_obs::SplitMix64;
use loom_partition::comm::comm_stats;
use loom_partition::{partition, PartitionConfig};
use std::collections::BTreeSet;

/// Random 2-D dependence sets with strictly positive wavefront sums, so
/// Π = (1,1) is always legal and partitioning always applies.
fn dep_set_2d(rng: &mut SplitMix64) -> Vec<Vec<i64>> {
    loop {
        let n = 1 + rng.below(3) as usize;
        let mut set = BTreeSet::new();
        for _ in 0..n {
            set.insert((rng.range_i64(0, 3), rng.range_i64(-2, 3)));
        }
        let deps: Vec<Vec<i64>> = set
            .into_iter()
            .filter(|&(a, b)| a + b > 0 && (a, b) > (0, 0))
            .map(|(a, b)| vec![a, b])
            .collect();
        if !deps.is_empty() {
            return deps;
        }
    }
}

/// 64 random `(deps, rows, cols)` cases per seed.
fn for_random_cases(seed: u64, mut check: impl FnMut(&mut SplitMix64, Vec<Vec<i64>>, i64, i64)) {
    let mut rng = SplitMix64::new(seed);
    for _ in 0..64 {
        let deps = dep_set_2d(&mut rng);
        let rows = rng.range_i64(3, 8);
        let cols = rng.range_i64(3, 8);
        check(&mut rng, deps, rows, cols);
    }
}

#[test]
fn partitioning_always_lawful() {
    for_random_cases(1, |_, deps, rows, cols| {
        let space = IterSpace::rect(&[rows, cols]).unwrap();
        let p = partition(
            space,
            deps.clone(),
            TimeFn::new(vec![1, 1]),
            &PartitionConfig::default(),
        )
        .unwrap();
        // Disjoint cover.
        let covered: usize = p.blocks().iter().map(Vec::len).sum();
        assert_eq!(covered, (rows * cols) as usize, "{deps:?}");
        // All laws hold.
        let violations = loom_check::check_laws(&p);
        assert!(
            violations.is_empty(),
            "{deps:?}: violations: {violations:?}"
        );
    });
}

#[test]
fn interblock_never_exceeds_total() {
    for_random_cases(2, |_, deps, rows, cols| {
        let space = IterSpace::rect(&[rows, cols]).unwrap();
        let p = partition(
            space,
            deps.clone(),
            TimeFn::new(vec![1, 1]),
            &PartitionConfig::default(),
        )
        .unwrap();
        let stats = comm_stats(&p);
        assert!(stats.interblock_arcs <= stats.total_arcs, "{deps:?}");
    });
}

#[test]
fn searched_pi_is_legal_and_minimal_among_wavefronts() {
    for_random_cases(3, |_, deps, rows, cols| {
        let space = IterSpace::rect(&[rows, cols]).unwrap();
        let pi = find_optimal(&deps, &space, SearchConfig::default()).unwrap();
        assert!(pi.is_legal_for(&deps), "{deps:?}");
        // Never worse than the plain wavefront, which is legal for this
        // strategy by construction.
        let wf = TimeFn::new(vec![1, 1]);
        assert!(pi.steps(&space) <= wf.steps(&space), "{deps:?}");
    });
}

#[test]
fn simulation_conserves_work_on_any_mapping() {
    for_random_cases(4, |rng, deps, rows, cols| {
        let (rows, cols) = (rows.min(6), cols.min(6));
        let space = IterSpace::rect(&[rows, cols]).unwrap();
        let p = partition(
            space,
            deps.clone(),
            TimeFn::new(vec![1, 1]),
            &PartitionConfig::default(),
        )
        .unwrap();
        let n_procs = 2usize;
        let seed = rng.below(32);
        let assignment = baseline::random(p.num_blocks(), n_procs, seed);
        let prog = Program::from_partitioning(&p, &assignment, n_procs, 2);
        let sim = simulate(
            &prog,
            &SimConfig {
                params: MachineParams::low_latency(),
                topology: Topology::Hypercube(1),
                batch_messages: false,
                link_contention: false,
                record_trace: false,
                collect_metrics: false,
            },
        )
        .unwrap();
        let total: u64 = sim.compute.iter().sum();
        assert_eq!(total, (rows * cols) as u64 * 2, "{deps:?}");
        // Makespan at least the serial work divided by processors.
        assert!(sim.makespan >= total / n_procs as u64, "{deps:?}");
        assert_eq!(sim.messages as usize, prog.remote_arcs(), "{deps:?}");
    });
}

#[test]
fn gray_mapping_never_unbalances_by_more_than_one_cluster() {
    for m in 8i64..24 {
        let w = loom_workloads::matvec::workload(m);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let cube_dim = 2usize;
        if p.num_blocks() < 1 << cube_dim {
            continue;
        }
        let mapping = map_partitioning(&p, cube_dim).unwrap();
        let per = mapping.blocks_per_proc();
        let min = per.iter().map(Vec::len).min().unwrap();
        let max = per.iter().map(Vec::len).max().unwrap();
        assert!(
            max - min <= 1,
            "m={m}: cluster sizes {:?}",
            per.iter().map(Vec::len).collect::<Vec<_>>()
        );
    }
}

/// `Π·x`'s extremes over every point of `space`, by enumeration.
fn enumerated_step_range(pi: &TimeFn, space: &IterSpace) -> Option<(i64, i64)> {
    space
        .points()
        .map(|p| pi.time_of(&p))
        .fold(None, |range, t| {
            Some(range.map_or((t, t), |(lo, hi): (i64, i64)| (lo.min(t), hi.max(t))))
        })
}

/// A random bound of loop `level`: a constant in `[-3, 3]` plus
/// coefficients in `[-2, 2]` on the outer indices.
fn random_bound(rng: &mut SplitMix64, dim: usize, level: usize) -> Aff {
    let coeffs = (0..dim)
        .map(|j| if j < level { rng.range_i64(-2, 3) } else { 0 })
        .collect();
    Aff::new(coeffs, rng.range_i64(-3, 4))
}

/// `TimeFn::step_range` reads each row's two ends; it must equal full
/// enumeration on the coupled-bound builtins, every sample and random
/// coupled spaces (empty rows and empty spaces included), for random Π.
#[test]
fn step_range_equals_enumeration() {
    let mut spaces: Vec<(String, IterSpace)> = Vec::new();
    for n in [1, 2, 5, 9] {
        for w in [
            loom_workloads::triangular::workload(n),
            loom_workloads::transitive::workload(n),
        ] {
            spaces.push((format!("{} {n}", w.nest.name()), w.nest.space().clone()));
        }
    }
    let dir = format!("{}/../../samples", env!("CARGO_MANIFEST_DIR"));
    let mut samples: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "loom"))
        .collect();
    samples.sort();
    assert!(samples.len() >= 8, "samples not found in {dir}");
    for path in samples {
        let src = std::fs::read_to_string(&path).unwrap();
        let nest = parse_nest("sample", &src).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        spaces.push((path.display().to_string(), nest.space().clone()));
    }
    let mut rng = SplitMix64::new(7);
    for case in 0..200 {
        let dim = 2 + case % 2;
        let lo: Vec<Aff> = (0..dim).map(|j| random_bound(&mut rng, dim, j)).collect();
        let hi = (0..dim)
            .map(|j| random_bound(&mut rng, dim, j) + rng.range_i64(0, 6))
            .collect();
        let space = IterSpace::new(lo, hi).unwrap();
        spaces.push((format!("random {case}: {space:?}"), space));
    }
    let mut nonempty = 0;
    for (name, space) in &spaces {
        for _ in 0..8 {
            let pi = TimeFn::new((0..space.dim()).map(|_| rng.range_i64(-3, 4)).collect());
            let want = enumerated_step_range(&pi, space);
            assert_eq!(pi.step_range(space), want, "{name}, {pi}");
            nonempty += usize::from(want.is_some());
        }
    }
    assert!(nonempty > spaces.len(), "too few non-empty spaces");
}
