//! `Q^p` keeps projected points and dependences as integer line
//! coordinates; `ProjectedStructure::display_point` prints the rational
//! point they stand for and `ProjectedStructure::key_of` finds the line
//! coordinates of an integer point on the hyperplane. These tests hold
//! both against rational projections of the iteration points and
//! dependences of `Q` (Definition 3), over every builtin at every legal Π
//! with coefficients in `[−2, 2]`.

use loom_hyperplane::TimeFn;
use loom_partition::{ComputationalStructure, ProjectedStructure};
use loom_tests_int::{box_points, legal_pis, QVec};

#[test]
fn display_and_key_of_match_rational_projection() {
    let (mut shown, mut on_plane, mut off_plane) = (0, 0, 0);
    for w in loom_workloads::all_default() {
        let (space, deps) = (w.nest.space(), w.verified_deps());
        let cs = ComputationalStructure::new(space.clone(), deps.clone()).unwrap();
        let small = box_points(space.dim(), 2);
        for pi in legal_pis(space.dim(), &deps, 2) {
            let what = format!("{}, Π = {pi:?}", w.nest.name());
            let qp = ProjectedStructure::project(&cs, &TimeFn::new(pi.clone()));
            let piq = QVec::from_ints(&pi);
            let project = |x: &[i64]| QVec::from_ints(x).project(&piq).to_string();

            // Every projected point and every projected dependence prints
            // as its rational projection does.
            for pid in 0..qp.len() {
                let x = cs.point(qp.line_members(pid)[0]);
                assert_eq!(qp.display_point(qp.line_key(pid)), project(x), "{what}");
                shown += 1;
            }
            assert_eq!(qp.num_deps(), cs.deps().len(), "{what}");
            for (k, d) in cs.deps().iter().enumerate() {
                assert_eq!(qp.display_point(qp.dep_key(k)), project(d), "{what}");
                shown += 1;
            }

            // A point of `V` on the hyperplane is its own projection: its
            // line coordinates are its line's.
            for pid in 0..qp.len() {
                for &id in qp.line_members(pid) {
                    let x = cs.point(id);
                    if pi.iter().zip(x).map(|(a, b)| a * b).sum::<i64>() == 0 {
                        let key = qp.key_of(x);
                        assert_eq!(key.as_deref(), Some(qp.line_key(pid)), "{what}: {x:?}");
                    }
                }
            }

            // An integer point on the hyperplane round-trips through its
            // line coordinates; one off it has none.
            let pp: i64 = pi.iter().map(|c| c * c).sum();
            for x in &small {
                let dot: i64 = pi.iter().zip(x).map(|(a, b)| a * b).sum();
                let key = qp.key_of(x);
                if dot == 0 {
                    let key = key.unwrap_or_else(|| panic!("{what}: {x:?} has no key"));
                    let want: Vec<i64> = x.iter().map(|c| c * pp).collect();
                    assert_eq!(qp.scaled(&key), Some(want), "{what}: {x:?}");
                    assert_eq!(qp.display_point(&key), project(x), "{what}: {x:?}");
                    on_plane += 1;
                } else {
                    assert_eq!(key, None, "{what}: {x:?} is off the hyperplane");
                    off_plane += 1;
                }
            }
            // A point of another dimension has no key either.
            assert_eq!(qp.key_of(&vec![0; space.dim() + 1]), None, "{what}");
        }
    }
    assert!(shown > 0 && on_plane > 0 && off_plane > 0);
}
