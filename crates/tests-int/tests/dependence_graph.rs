//! The dependence graph of `Q = (V, D)` is built once, in
//! `ComputationalStructure::new`, and read by every later layer. These
//! tests hold it against a naive oracle that enumerates `p ± d ∈ V` for
//! every point and dependence: the arc lists must match it in order, and
//! so must the layers that read them (comm stats, the simulator's
//! program) and the projected level's integer neighbor lookup. A sweep
//! shares one `Q` across all its pairs and one projection per Π; the
//! partitionings built over them must equal fresh ones.

use loom_hyperplane::TimeFn;
use loom_loopir::aff::Aff;
use loom_loopir::deps::{dependence_vectors, DepOptions};
use loom_loopir::{parse_nest, IterSpace, Point};
use loom_machine::Program;
use loom_partition::comm::comm_stats;
use loom_partition::{
    partition, partition_projected, ComputationalStructure, PartitionConfig, Partitioning,
    ProjectedStructure,
};
use loom_tests_int::{key_of, point_at, QVec};
use std::collections::HashMap;
use std::sync::Arc;

/// Per point, the arcs `(other end, dependence index)` to `p + d` (or
/// `p − d` when `sign` is −1) that land in `V`, in dependence order. A
/// sum past the word is no point of `V`.
fn naive_arcs(cs: &ComputationalStructure, sign: i64) -> Vec<Vec<(usize, usize)>> {
    let points: Vec<&[i64]> = (0..cs.len()).map(|id| cs.point(id)).collect();
    let index: HashMap<&[i64], usize> = points.iter().enumerate().map(|(i, &p)| (p, i)).collect();
    points
        .iter()
        .map(|p| {
            cs.deps()
                .iter()
                .enumerate()
                .filter_map(|(k, d)| {
                    let q: Point = p
                        .iter()
                        .zip(d)
                        .map(|(&a, &b)| a.checked_add(sign.checked_mul(b)?))
                        .collect::<Option<_>>()?;
                    index.get(q.as_slice()).map(|&qid| (qid, k))
                })
                .collect()
        })
        .collect()
}

/// Check `Q`'s points, ids and arcs against the oracle; returns the
/// oracle's successor lists.
fn check_structure(name: &str, cs: &ComputationalStructure) -> Vec<Vec<(usize, usize)>> {
    let enumerated: Vec<Point> = cs.space().points().collect();
    assert_eq!(cs.len(), enumerated.len(), "{name}: |V|");
    let succ = naive_arcs(cs, 1);
    let pred = naive_arcs(cs, -1);
    for id in 0..cs.len() {
        assert_eq!(cs.point(id), enumerated[id], "{name}: point {id}");
        assert_eq!(cs.id_of(cs.point(id)), Some(id), "{name}: id_of");
        let got: Vec<_> = cs.successors(id).collect();
        assert_eq!(got, succ[id], "{name}: successors of {:?}", cs.point(id));
        let got: Vec<_> = cs.predecessors(id).collect();
        assert_eq!(got, pred[id], "{name}: predecessors of {:?}", cs.point(id));
    }
    let total: usize = succ.iter().map(Vec::len).sum();
    assert_eq!(cs.num_arcs(), total, "{name}: num_arcs");

    // Points just outside V are not in it.
    for (j, &(lo, hi)) in cs.space().bounding_box().iter().enumerate() {
        let mut outside = cs.point(0).to_vec();
        outside[j] = lo - 1;
        assert_eq!(cs.id_of(&outside), None, "{name}: below the box");
        outside[j] = hi + 1;
        assert_eq!(cs.id_of(&outside), None, "{name}: above the box");
    }
    assert_eq!(cs.id_of(&[]), None, "{name}: wrong arity");
    succ
}

/// Check one partitioned nest against the oracle.
fn check(name: &str, p: &Partitioning) {
    let cs = p.structure();
    let succ = check_structure(name, cs);
    let total: usize = succ.iter().map(Vec::len).sum();

    let interblock = succ
        .iter()
        .enumerate()
        .flat_map(|(id, arcs)| arcs.iter().map(move |&(q, _)| (id, q)))
        .filter(|&(a, b)| p.block_of(a) != p.block_of(b))
        .count();
    let stats = comm_stats(p);
    assert_eq!(
        (stats.total_arcs, stats.interblock_arcs),
        (total, interblock),
        "{name}: comm_stats"
    );

    let assignment: Vec<usize> = (0..p.num_blocks()).map(|b| b % 2).collect();
    let program = Program::from_partitioning(p, &assignment, 2, 1);
    let arcs: Vec<(u32, u32)> = succ
        .iter()
        .enumerate()
        .flat_map(|(id, arcs)| arcs.iter().map(move |&(q, _)| (id as u32, q as u32)))
        .collect();
    assert_eq!(
        program.arcs().collect::<Vec<_>>(),
        arcs,
        "{name}: program arcs"
    );

    // The projected level: stepping a line along a projected dependence
    // in integer line coordinates reaches the line the rational sum names.
    let qp = p.projected();
    let line_of: HashMap<&[i64], usize> =
        (0..qp.len()).map(|pid| (qp.line_key(pid), pid)).collect();
    let id_of = |q: &QVec| line_of.get(&key_of(qp, q)?[..]).copied();
    let deps: Vec<QVec> = (0..qp.num_deps())
        .map(|k| point_at(qp, qp.dep_key(k)))
        .collect();
    for pid in 0..qp.len() {
        let point = point_at(qp, qp.line_key(pid));
        assert_eq!(id_of(&point), Some(pid), "{name}: line id_of");
        let steps: Vec<i64> = qp
            .line_members(pid)
            .iter()
            .map(|&id| p.time_fn().time_of(cs.point(id)))
            .collect();
        assert!(
            steps.windows(2).all(|w| w[0] < w[1]),
            "{name}: line {pid} out of step order"
        );
        for (k, d) in deps.iter().enumerate() {
            let want = id_of(&(&point + d));
            assert_eq!(qp.neighbor(pid, k), want, "{name}: neighbor({pid}, {k})");
        }
    }
}

fn partitioned(space: IterSpace, deps: Vec<Point>, pi: Vec<i64>) -> Partitioning {
    partition(space, deps, TimeFn::new(pi), &PartitionConfig::default()).expect("partitions")
}

#[test]
fn every_builtin_matches_the_oracle() {
    for w in loom_workloads::all_default() {
        let p = partitioned(w.nest.space().clone(), w.verified_deps(), w.pi.clone());
        check(w.nest.name(), &p);
    }
}

#[test]
fn triangular_spaces_match_the_oracle() {
    for n in [1, 2, 5, 9] {
        let w = loom_workloads::triangular::workload(n);
        let p = partitioned(w.nest.space().clone(), w.verified_deps(), w.pi.clone());
        check(&format!("triangular {n}"), &p);
    }
}

#[test]
fn strided_sample_matches_the_oracle() {
    let path = format!("{}/../../samples/strided.loom", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let nest = parse_nest("strided", &src).expect("parses");
    let deps = dependence_vectors(&nest, DepOptions::default()).expect("uniform");
    let pi = loom_hyperplane::find_optimal(
        &deps,
        nest.space(),
        loom_hyperplane::SearchConfig::default(),
    )
    .expect("a legal Π");
    let p = partition(nest.space().clone(), deps, pi, &PartitionConfig::default()).unwrap();
    check("strided.loom", &p);
}

/// A diagonal of points `(i, 100·i)` fills 1 slot in 100 of its
/// bounding box, past the dense index's 4× rule, so the hash fallback
/// indexes it.
#[test]
fn sparse_nest_matches_the_oracle() {
    let n = 2;
    let lo = vec![Aff::constant(n, 0), Aff::new(vec![100, 0], 0)];
    let hi = vec![Aff::constant(n, 9), Aff::new(vec![100, 0], 0)];
    let space = IterSpace::new(lo, hi).unwrap();
    assert!(sparsity(&space) > 4.0, "the box must be sparse");
    let p = partitioned(
        space,
        vec![vec![1, 100], vec![2, 200], vec![0, 1]],
        vec![1, 1],
    );
    check("sparse diagonal", &p);
    assert_eq!(p.structure().num_arcs(), 9 + 8);

    // A sparse box in three dimensions, with a skewed Π.
    let n = 3;
    let lo = vec![
        Aff::constant(n, 0),
        Aff::constant(n, 0),
        Aff::new(vec![50, 70, 0], 0),
    ];
    let hi = vec![
        Aff::constant(n, 3),
        Aff::constant(n, 3),
        Aff::new(vec![50, 70, 0], 1),
    ];
    let space = IterSpace::new(lo, hi).unwrap();
    let deps = vec![vec![1, 0, 50], vec![0, 1, 70], vec![0, 0, 1]];
    check("sparse 3-D", &partitioned(space, deps, vec![2, 1, 1]));
}

/// Line coordinates divide by `gcd(Π)`, and a Π whose first nonzero
/// coefficient is negative orders each line against the lexicographic
/// order.
#[test]
fn non_primitive_and_negative_time_functions_match_the_oracle() {
    let l1 = loom_workloads::l1::workload(5);
    let p = partitioned(l1.nest.space().clone(), l1.verified_deps(), vec![2, 2]);
    check("l1, Π = (2, 2)", &p);
    let matmul = loom_workloads::matmul::workload(4);
    let p = partitioned(
        matmul.nest.space().clone(),
        matmul.verified_deps(),
        vec![3, 6, 3],
    );
    check("matmul, Π = (3, 6, 3)", &p);
    let space = IterSpace::rect(&[5, 6]).unwrap();
    let p = partitioned(space, vec![vec![-1, 1], vec![0, 1]], vec![-1, 2]);
    check("Π = (-1, 2)", &p);
}

/// A structure built without a partitioning reads the same arcs.
#[test]
fn structure_alone_matches_the_oracle() {
    let space = IterSpace::rect_bounds(&[-2, 3], &[4, 7]).unwrap();
    let deps = vec![vec![1, -1], vec![0, 2], vec![3, 0]];
    let cs = ComputationalStructure::new(space, deps).unwrap();
    let succ = naive_arcs(&cs, 1);
    for (id, want) in succ.iter().enumerate() {
        assert_eq!(&cs.successors(id).collect::<Vec<_>>(), want);
    }
}

/// The box volume over the point count: above 4 the point index of `Q`
/// falls back to hashing, at most 4 it ranks densely.
fn sparsity(space: &IterSpace) -> f64 {
    let volume: i64 = space
        .bounding_box()
        .iter()
        .map(|&(l, h)| h - l + 1)
        .product();
    volume as f64 / space.count() as f64
}

/// `Q`'s dense rank builds arcs by rank arithmetic. Its edge cases
/// equal the oracle: negative coordinates and dependence components, a
/// dependence as long as an extent (which never lands) or one shorter
/// (which lands only from a face), points on every face of the box, a
/// box the space fills partly, and one and three dimensions.
#[test]
fn dense_box_edge_cases_match_the_oracle() {
    let n = 2;
    let triangle = IterSpace::new(
        vec![Aff::constant(n, -3), Aff::constant(n, -2)],
        vec![Aff::constant(n, 4), Aff::new(vec![1, 0], 0)],
    )
    .unwrap();
    let cases: Vec<(&str, IterSpace, Vec<Point>)> = vec![
        (
            "negative box, mixed signs",
            IterSpace::rect_bounds(&[-4, -3], &[-1, 2]).unwrap(),
            vec![vec![1, -1], vec![-2, 1], vec![0, 5], vec![3, -5]],
        ),
        (
            "dependences as long as an extent",
            IterSpace::rect_bounds(&[-2, 3], &[2, 8]).unwrap(),
            vec![vec![5, 0], vec![0, 6], vec![0, -6], vec![-5, 1], vec![4, 5]],
        ),
        (
            "dependences past the word's reach",
            IterSpace::rect(&[3, 3]).unwrap(),
            vec![
                vec![i64::MAX, 0],
                vec![i64::MIN, 1],
                vec![1, i64::MIN],
                vec![1, 1],
            ],
        ),
        (
            "triangle in its box",
            triangle,
            vec![vec![1, 1], vec![0, 1], vec![2, -1], vec![-1, 3]],
        ),
        (
            "one dimension",
            IterSpace::rect_bounds(&[-5], &[5]).unwrap(),
            vec![vec![1], vec![-3], vec![10], vec![11]],
        ),
        (
            "three dimensions",
            IterSpace::rect_bounds(&[-1, 0, 2], &[1, 3, 4]).unwrap(),
            vec![vec![1, 0, -1], vec![0, 3, 0], vec![-2, 1, 2], vec![0, 0, 3]],
        ),
    ];
    for (name, space, deps) in cases {
        assert!(sparsity(&space) <= 4.0, "{name}: the box must be dense");
        let cs = ComputationalStructure::new(space, deps).unwrap();
        let succ = check_structure(name, &cs);
        assert!(succ.iter().any(|arcs| !arcs.is_empty()), "{name}: no arcs");
        // Every face of the box holds a point whose arcs the oracle
        // checked: the extremes of each coordinate are attained.
        for (j, &(lo, hi)) in cs.space().bounding_box().iter().enumerate() {
            for face in [lo, hi] {
                assert!(
                    (0..cs.len()).any(|id| cs.point(id)[j] == face),
                    "{name}: no point on face x{j} = {face}"
                );
            }
        }
    }
}

/// A skewed space and a sparse diagonal leave most of their boxes
/// empty, so `Q` indexes their points by hash; the arcs equal the
/// oracle's.
#[test]
fn hashed_point_index_matches_the_oracle() {
    let n = 2;
    let skewed = IterSpace::new(
        vec![Aff::constant(n, 0), Aff::new(vec![3, 0], -1)],
        vec![Aff::constant(n, 9), Aff::new(vec![3, 0], 1)],
    )
    .unwrap();
    let diagonal = IterSpace::new(
        vec![Aff::constant(n, -4), Aff::new(vec![-7, 0], 0)],
        vec![Aff::constant(n, 4), Aff::new(vec![-7, 0], 0)],
    )
    .unwrap();
    let cases: Vec<(&str, IterSpace, Vec<Point>)> = vec![
        (
            "skewed band",
            skewed,
            vec![vec![1, 3], vec![0, 1], vec![1, 2], vec![-1, -4], vec![2, 7]],
        ),
        (
            "descending diagonal",
            diagonal,
            vec![vec![1, -7], vec![2, -14], vec![0, 1], vec![i64::MAX, 0]],
        ),
    ];
    for (name, space, deps) in cases {
        assert!(sparsity(&space) > 4.0, "{name}: the box must be sparse");
        let cs = ComputationalStructure::new(space, deps).unwrap();
        let succ = check_structure(name, &cs);
        assert!(succ.iter().any(|arcs| !arcs.is_empty()), "{name}: no arcs");
    }
}

/// Every Π with coefficients in `[−1, 1]` that is legal for `deps`.
fn legal_pis_within_one(dim: usize, deps: &[Point]) -> Vec<Vec<i64>> {
    let mut out = Vec::new();
    for code in 0..3usize.pow(dim as u32) {
        let pi: Vec<i64> = (0..dim)
            .map(|j| (code / 3usize.pow(j as u32) % 3) as i64 - 1)
            .collect();
        if TimeFn::new(pi.clone()).is_legal_for(deps) {
            out.push(pi);
        }
    }
    out
}

/// The partitioning's observable result: blocks, each point's block,
/// the grouping and the selected vectors.
fn summary(p: &Partitioning) -> impl PartialEq + std::fmt::Debug {
    let block_of: Vec<usize> = (0..p.structure().len()).map(|id| p.block_of(id)).collect();
    (
        p.blocks().to_vec(),
        block_of,
        p.grouping().groups.clone(),
        p.grouping().group_of.clone(),
        p.vectors().clone(),
        p.time_fn().coeffs().to_vec(),
    )
}

/// A sweep over every builtin, every legal Π within bound 1 and every
/// grouping index builds `Q` once per builtin and each projection once
/// per Π. Each partitioning over the shared structures equals a fresh
/// `partition` of the same inputs, errors included.
#[test]
fn shared_structures_partition_like_fresh_ones() {
    let (mut pairs, mut oks) = (0, 0);
    for w in loom_workloads::all_default() {
        let name = w.nest.name();
        let deps = w.verified_deps();
        let space = w.nest.space();
        let cs = Arc::new(ComputationalStructure::new(space.clone(), deps.clone()).unwrap());
        let pis = legal_pis_within_one(space.dim(), &deps);
        assert!(!pis.is_empty(), "{name}: no legal Π");
        let projections: Vec<Arc<ProjectedStructure>> = pis
            .iter()
            .map(|pi| Arc::new(ProjectedStructure::project(&cs, &TimeFn::new(pi.clone()))))
            .collect();
        for (pi, qp) in pis.iter().zip(&projections) {
            for grouping in 0..deps.len() {
                let config = PartitionConfig {
                    grouping_choice: Some(grouping),
                    seed: None,
                };
                let fresh = partition(
                    space.clone(),
                    deps.clone(),
                    TimeFn::new(pi.clone()),
                    &config,
                );
                let shared = partition_projected(cs.clone(), qp.clone(), &config);
                let what = format!("{name}, Π = {pi:?}, grouping {grouping}");
                match (fresh, shared) {
                    (Ok(fresh), Ok(shared)) => {
                        assert_eq!(summary(&shared), summary(&fresh), "{what}");
                        oks += 1;
                        assert!(std::ptr::eq(shared.structure(), &*cs), "{what}: Q copied");
                        assert!(
                            std::ptr::eq(shared.projected(), &**qp),
                            "{what}: Q^p copied"
                        );
                    }
                    (Err(fresh), Err(shared)) => assert_eq!(shared, fresh, "{what}"),
                    (fresh, shared) => panic!(
                        "{what}: fresh {:?}, shared {:?}",
                        fresh.map(|p| p.num_blocks()),
                        shared.map(|p| p.num_blocks())
                    ),
                }
                pairs += 1;
            }
        }
    }
    // 34 pairs today: 27 partition, 7 name a non-maximal grouping.
    assert!(
        oks >= 20 && pairs - oks >= 5,
        "{oks} of {pairs} pairs partitioned: both outcomes must be exercised"
    );
}
