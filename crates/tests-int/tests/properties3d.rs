//! Property-based tests over random 3-D uniform dependence sets: the
//! partitioner's laws, SPMD deadlock-freedom, and numerical equivalence
//! must hold for arbitrary members of the paper's loop class, not just
//! the named workloads.

use loom_codegen::generate;
use loom_exec::memory::address_hash_init;
use loom_exec::{equivalent, sequential};
use loom_hyperplane::TimeFn;
use loom_loopir::sem::Expr;
use loom_loopir::{Access, IterSpace, LoopNest, Stmt};
use loom_obs::SplitMix64;
use loom_partition::{partition, PartitionConfig};
use std::collections::BTreeSet;

/// Random 3-D dependence sets legal under Π = (1,1,1).
fn dep_set_3d(rng: &mut SplitMix64) -> Vec<Vec<i64>> {
    loop {
        let n = 1 + rng.below(3) as usize;
        let mut set = BTreeSet::new();
        for _ in 0..n {
            set.insert((
                rng.range_i64(0, 2),
                rng.range_i64(-1, 2),
                rng.range_i64(-1, 2),
            ));
        }
        let deps: Vec<Vec<i64>> = set
            .into_iter()
            .filter(|&(a, b, c)| a + b + c > 0)
            .map(|(a, b, c)| vec![a, b, c])
            .collect();
        if !deps.is_empty() {
            return deps;
        }
    }
}

/// 32 random dependence sets per seed.
fn for_random_deps(seed: u64, mut check: impl FnMut(&mut SplitMix64, Vec<Vec<i64>>)) {
    let mut rng = SplitMix64::new(seed);
    for _ in 0..32 {
        let deps = dep_set_3d(&mut rng);
        check(&mut rng, deps);
    }
}

/// A synthetic single-statement nest whose flow dependences are exactly
/// `deps`: `A[i+M, j+M, k+M] = Σ A[i+M−d…]` with `M` a margin making all
/// subscripts well-formed (subscript values may be negative; the store
/// is sparse so that is fine).
fn nest_with_deps(deps: &[Vec<i64>], sizes: &[i64]) -> LoopNest {
    let n = 3;
    let write = Access::simple("A", n, &[(0, 0), (1, 0), (2, 0)]);
    let reads: Vec<Access> = deps
        .iter()
        .map(|d| Access::simple("A", n, &[(0, -d[0]), (1, -d[1]), (2, -d[2])]))
        .collect();
    let expr = Expr::sum_of_reads(reads.len());
    LoopNest::new(
        "synthetic3d",
        IterSpace::rect(sizes).unwrap(),
        vec![Stmt::assign(write, reads).with_expr(expr)],
    )
    .unwrap()
}

#[test]
fn laws_hold_in_3d() {
    for_random_deps(1, |rng, deps| {
        let (a, b, c) = (
            rng.range_i64(3, 6),
            rng.range_i64(3, 6),
            rng.range_i64(3, 6),
        );
        let space = IterSpace::rect(&[a, b, c]).unwrap();
        let p = partition(
            space,
            deps.clone(),
            TimeFn::wavefront(3),
            &PartitionConfig::default(),
        )
        .unwrap();
        let covered: usize = p.blocks().iter().map(Vec::len).sum();
        assert_eq!(covered, (a * b * c) as usize, "{deps:?}");
        let violations = loom_check::check_laws(&p);
        assert!(
            violations.is_empty(),
            "{deps:?}: violations: {violations:?}"
        );
    });
}

#[test]
fn spmd_is_deadlock_free_and_exact_in_3d() {
    for_random_deps(2, |rng, deps| {
        let size = rng.range_i64(3, 5);
        let procs = rng.range_i64(2, 5) as usize;
        let salt = rng.below(8) as usize;
        let nest = nest_with_deps(&deps, &[size, size, size]);
        let extracted =
            loom_loopir::deps::dependence_vectors(&nest, loom_loopir::DepOptions::default())
                .unwrap();
        // The synthetic construction must reproduce the wanted flow deps
        // (extraction may add anti deps between read pairs — all are
        // handled by the partitioner as long as Π stays legal).
        let pi = TimeFn::wavefront(3);
        if !pi.is_legal_for(&extracted) {
            return;
        }
        let p = partition(
            nest.space().clone(),
            extracted,
            pi,
            &PartitionConfig::default(),
        )
        .unwrap();
        let assignment: Vec<usize> = (0..p.num_blocks()).map(|x| (x + salt) % procs).collect();
        // The synthetic write A[i,j,k] has full-rank subscripts, so
        // codegen always applies here.
        let cg = generate(&nest, &p, &assignment, procs).expect("chain-writable");
        assert!(cg.program.unmatched_messages().is_empty(), "{deps:?}");
        let result = loom_codegen::run(&nest, &cg, &address_hash_init)
            .expect("generated programs never deadlock");
        let serial = sequential(&nest, &address_hash_init);
        assert_eq!(equivalent(&result.gathered, &serial), Ok(()), "{deps:?}");
    });
}

#[test]
fn group_size_r_is_respected_in_3d() {
    for_random_deps(3, |rng, deps| {
        let size = rng.range_i64(4, 6);
        let space = IterSpace::rect(&[size, size, size]).unwrap();
        let p = partition(
            space,
            deps.clone(),
            TimeFn::wavefront(3),
            &PartitionConfig::default(),
        )
        .unwrap();
        let r = p.vectors().r as usize;
        for g in &p.grouping().groups {
            assert!(g.members.len() <= r, "{deps:?}: group exceeds r = {r}");
        }
    });
}
