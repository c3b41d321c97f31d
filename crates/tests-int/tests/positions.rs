//! `Q^p` keeps each projected point and each group base as integer line
//! coordinates only, and Algorithm 2 bisects blocks by integer positions:
//! each group base's scaled projection `S = (Π·Π)·v₀^p` dotted with a
//! direction's dependence. These tests hold both against exact rational
//! arithmetic on the iteration points: the rational points rebuilt from
//! `ProjectedStructure::scaled` and the test's own `Π·Π`, and the order
//! and ties of the rational products `v₀^p·d^p` the positions stand for.

use loom_hyperplane::TimeFn;
use loom_loopir::{IterSpace, Point};
use loom_mapping::other_targets::partition_positions;
use loom_partition::{partition, PartitionConfig, Partitioning};
use loom_tests_int::{key_of, legal_pis, point_at, QVec, Ratio};

/// The projection `x − (x·Π / Π·Π)·Π` of an integer vector, in rationals.
fn project(x: &[i64], pi: &QVec) -> QVec {
    QVec::from_ints(x).project(pi)
}

/// The axis coefficient `Π_a`: the first coefficient of least nonzero
/// magnitude.
fn axis_coefficient(pi: &[i64]) -> i64 {
    let least = pi.iter().filter(|&&c| c != 0).map(|c| c.abs()).min();
    *pi.iter()
        .find(|c| Some(c.abs()) == least)
        .expect("a nonzero Π")
}

/// Every maximal grouping of one (space, `D`, Π): the partitionings whose
/// grouping choice achieves the maximal multiplier.
fn partitionings(space: &IterSpace, deps: &[Point], pi: &[i64]) -> Vec<Partitioning> {
    (0..deps.len())
        .filter_map(|grouping| {
            let config = PartitionConfig {
                grouping_choice: Some(grouping),
                seed: None,
            };
            partition(
                space.clone(),
                deps.to_vec(),
                TimeFn::new(pi.to_vec()),
                &config,
            )
            .ok()
        })
        .collect()
}

/// Checks one partitioning's lines, group bases and block positions
/// against the rational reference; returns how many adjacent block pairs
/// the positions told apart.
fn check(what: &str, p: &Partitioning) -> usize {
    let (cs, qp) = (p.structure(), p.projected());
    let piq = QVec::from_ints(p.time_fn().coeffs());
    let first_projected = |pid: usize| project(cs.point(qp.line_members(pid)[0]), &piq);
    for pid in 0..qp.len() {
        let key = qp.line_key(pid);
        assert_eq!(
            point_at(qp, key),
            first_projected(pid),
            "{what}: line {pid}"
        );
        let back = key_of(qp, &point_at(qp, key));
        assert_eq!(back.as_deref(), Some(key), "{what}: line {pid} round trip");
    }

    // Each group base, rebuilt from its first line: that line lies `k`
    // steps of `d_l^p` past the base, for some `0 ≤ k < r`.
    let groups = &p.grouping().groups;
    let grouping = p.vectors().grouping;
    let dl = grouping.map(|l| project(&cs.deps()[l], &piq));
    let bases: Vec<QVec> = groups
        .iter()
        .map(|g| {
            let first = first_projected(g.members[0]);
            let base = (0..p.vectors().r)
                .map(|k| match &dl {
                    Some(dl) => &first - &dl.scale(Ratio::int(k)),
                    None => first.clone(),
                })
                .find(|b| key_of(qp, b).as_deref() == Some(&g.base[..]))
                .unwrap_or_else(|| panic!("{what}: base {:?} off its first line", g.base));
            assert_eq!(point_at(qp, &g.base), base, "{what}: base {:?}", g.base);
            let back = key_of(qp, &base);
            assert_eq!(
                back.as_deref(),
                Some(&g.base[..]),
                "{what}: base round trip"
            );
            base
        })
        .collect();

    // Sorted by the rational product (ties by block id), adjacent blocks
    // compare alike by integer position: same order, same ties.
    let positions = partition_positions(p).expect("positions fit in i64");
    let mut told_apart = 0;
    for (i, &k) in p.vectors().omega().iter().enumerate() {
        let dir = project(&cs.deps()[k], &piq);
        let rational: Vec<Ratio> = bases.iter().map(|b| b.dot(&dir)).collect();
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_by_key(|&b| (rational[b], b));
        for w in order.windows(2) {
            let (a, b) = (w[0], w[1]);
            let want = rational[a].cmp(&rational[b]);
            let got = positions[a][i].cmp(&positions[b][i]);
            assert_eq!(got, want, "{what}: blocks {a} and {b} along D[{k}]");
            told_apart += usize::from(want.is_lt());
        }
    }
    told_apart
}

#[test]
fn integer_positions_order_blocks_like_rational_products() {
    let mut cases = 0;
    for w in loom_workloads::all_default() {
        let (space, deps) = (w.nest.space(), w.verified_deps());
        for pi in legal_pis(space.dim(), &deps, 1) {
            for p in partitionings(space, &deps, &pi) {
                check(&format!("{}, Π = {pi:?}", w.nest.name()), &p);
                cases += 1;
            }
        }
    }
    assert!(cases > 0, "no builtin partitioned");
}

/// No builtin admits a Π whose axis coefficient is negative, so synthetic
/// nests supply them, with `|Π_a|` of 1 and 2.
#[test]
fn negative_axis_coefficients_keep_the_order() {
    let plane = IterSpace::rect(&[6, 6]).unwrap();
    let cube = IterSpace::rect(&[4, 4, 4]).unwrap();
    let plane_deps = vec![vec![-1, 0], vec![0, 1]];
    let cube_deps = vec![vec![1, 0, 0], vec![0, -1, 0], vec![0, 0, 1]];
    let cases = [
        (&plane, &plane_deps, vec![-1, 1]),
        (&plane, &plane_deps, vec![-2, 3]),
        (&cube, &cube_deps, vec![2, -1, 3]),
        (&cube, &cube_deps, vec![3, -2, 4]),
    ];
    for (space, deps, pi) in cases {
        assert!(
            axis_coefficient(&pi) < 0,
            "Π = {pi:?}: the axis is positive"
        );
        let ps = partitionings(space, deps, &pi);
        assert!(!ps.is_empty(), "Π = {pi:?}: no maximal grouping");
        let told_apart: usize = ps.iter().map(|p| check(&format!("Π = {pi:?}"), p)).sum();
        assert!(told_apart > 0, "Π = {pi:?}: every block tied");
    }
}
