//! Algorithm 1 Steps 1–2 read the integer line coordinates of `D^p`:
//! `r_i` from the scaled projection, `β` and independence from the rank
//! of the dependences' line coordinates. These tests hold
//! `select_vectors` against an oracle that projects the dependences of
//! `Q` itself, in rationals (Definition 3): `r_i` as the lcm of the
//! coordinate denominators, rank and independence by fraction-free
//! elimination in `i128`.

use loom_hyperplane::TimeFn;
use loom_loopir::Point;
use loom_partition::grouping::{select_vectors, GroupingVectors};
use loom_partition::{ComputationalStructure, Error, ProjectedStructure};
use loom_rational::int::gcd;
use loom_tests_int::{legal_pis, QVec};

/// The least positive `r` with `r·d ∈ ℤⁿ`: the lcm of the denominators.
fn denominator_lcm(d: &QVec) -> i64 {
    d.coords()
        .iter()
        .fold(1, |l, c| l / gcd(l, c.den()) * c.den())
}

/// The rank of rational vectors, by fraction-free row elimination in
/// `i128` on their integer multiples.
fn rank(vs: &[&QVec]) -> usize {
    let mut rows: Vec<Vec<i128>> = vs
        .iter()
        .map(|v| {
            let r = denominator_lcm(v);
            v.coords()
                .iter()
                .map(|c| i128::from(c.num()) * i128::from(r / c.den()))
                .collect()
        })
        .collect();
    let cols = rows.first().map_or(0, Vec::len);
    let mut rank = 0;
    for c in 0..cols {
        let Some(p) = (rank..rows.len()).find(|&i| rows[i][c] != 0) else {
            continue;
        };
        rows.swap(rank, p);
        let pivot = rows[rank].clone();
        for row in &mut rows[rank + 1..] {
            let f = row[c];
            for (x, &y) in row.iter_mut().zip(&pivot) {
                *x = *x * pivot[c] - f * y;
            }
            // Keep entries small: divide out each row's content.
            let g = row.iter().fold(0i128, |g, &x| gcd128(g, x));
            if g > 1 {
                row.iter_mut().for_each(|x| *x /= g);
            }
        }
        rank += 1;
    }
    rank
}

fn gcd128(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Steps 1–2 from the rational projections of `deps` along `pi`.
fn oracle(deps: &[Point], pi: &[i64], prefer: Option<usize>) -> Result<GroupingVectors, Error> {
    let pi = QVec::from_ints(pi);
    let deps: Vec<QVec> = deps
        .iter()
        .map(|d| QVec::from_ints(d).project(&pi))
        .collect();
    let nonzero: Vec<usize> = (0..deps.len()).filter(|&i| !deps[i].is_zero()).collect();
    if nonzero.is_empty() {
        return Ok(GroupingVectors {
            grouping: None,
            auxiliary: Vec::new(),
            r: 1,
            beta: 0,
        });
    }
    let r = nonzero
        .iter()
        .map(|&i| denominator_lcm(&deps[i]))
        .max()
        .unwrap();
    let grouping = match prefer {
        Some(p) => {
            let r_p = denominator_lcm(&deps[p]);
            if r_p != r {
                return Err(Error::InvalidGroupingChoice {
                    requested: p,
                    r_requested: r_p,
                    r_max: r,
                });
            }
            // A zero projection passes Step 1 when r = 1 but spans
            // nothing.
            if deps[p].is_zero() {
                return Err(Error::ZeroGroupingChoice { requested: p });
            }
            p
        }
        None => *nonzero
            .iter()
            .find(|&&i| denominator_lcm(&deps[i]) == r)
            .unwrap(),
    };
    let beta = rank(&nonzero.iter().map(|&i| &deps[i]).collect::<Vec<_>>());
    let mut chosen = vec![&deps[grouping]];
    let mut auxiliary = Vec::new();
    for &i in &nonzero {
        if auxiliary.len() + 1 == beta {
            break;
        }
        if i == grouping {
            continue;
        }
        chosen.push(&deps[i]);
        if rank(&chosen) == chosen.len() {
            auxiliary.push(i);
        } else {
            chosen.pop();
        }
    }
    assert_eq!(auxiliary.len() + 1, beta, "a nonzero start reaches rank β");
    Ok(GroupingVectors {
        grouping: Some(grouping),
        auxiliary,
        r,
        beta,
    })
}

#[test]
fn select_vectors_matches_rational_oracle() {
    let (mut cases, mut rejected, mut zero, mut with_auxiliary) = (0, 0, 0, 0);
    for w in loom_workloads::all_default() {
        let (space, deps) = (w.nest.space(), w.verified_deps());
        let cs = ComputationalStructure::new(space.clone(), deps.clone()).unwrap();
        for pi in legal_pis(space.dim(), &deps, 2) {
            let qp = ProjectedStructure::project(&cs, &TimeFn::new(pi.clone()));
            for prefer in std::iter::once(None).chain((0..deps.len()).map(Some)) {
                let got = select_vectors(&qp, prefer);
                assert_eq!(
                    got,
                    oracle(cs.deps(), &pi, prefer),
                    "{}, Π = {pi:?}, prefer {prefer:?}",
                    w.nest.name()
                );
                cases += 1;
                match got {
                    Err(Error::InvalidGroupingChoice { .. }) => rejected += 1,
                    Err(Error::ZeroGroupingChoice { .. }) => zero += 1,
                    Ok(gv) if !gv.auxiliary.is_empty() => with_auxiliary += 1,
                    _ => {}
                }
            }
        }
    }
    // The walk reaches both rejections of a `prefer` and a nonempty Ψ.
    assert!(cases > 0 && rejected > 0 && zero > 0 && with_auxiliary > 0);
}
