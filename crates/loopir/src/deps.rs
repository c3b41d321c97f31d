//! Uniform (constant) dependence extraction.
//!
//! For two accesses to the same array with subscripts `U·i + a` (source)
//! and `U·j + b` (sink), the iterations touching a common element satisfy
//! `U·(j − i) = a − b`. When the linear parts `U` agree, the solution set
//! is a coset of the integer nullspace lattice of `U`, so the dependence
//! *distances* are constant — exactly the "constant loop-carried
//! dependence" class the hyperplane method (and this paper) requires.
//!
//! The extractor returns, per conflicting access pair:
//!
//! * the particular solution `d₀` (normalized lexicographically positive) —
//!   a flow, anti, or output dependence, and
//! * one primitive generator per nullspace direction — the *reuse*
//!   dependences that the paper materializes by rewriting loops into
//!   single-assignment form (matmul's `(0,1,0)`, `(1,0,0)`, `(0,0,1)`).
//!
//! Accesses to the same array whose linear subscript parts differ are
//! outside the uniform class: a write/read pair then yields
//! [`Error::NonUniform`]; a read/read pair is skipped (reuse modelling is
//! an optimization, never a correctness requirement).

use crate::access::Access;
use crate::nest::LoopNest;
use crate::{Error, Point};
use loom_rational::int::gcd_all;
use loom_rational::intlinalg::{try_solve_integer, IMat};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

/// The classic dependence taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DepKind {
    /// True dependence: write, then read.
    Flow,
    /// Anti dependence: read, then write.
    Anti,
    /// Output dependence: write, then write.
    Output,
    /// Input reuse: read, then read of the same element (the paper's
    /// single-assignment propagation vectors).
    Input,
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DepKind::Flow => "flow",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
            DepKind::Input => "input",
        };
        write!(f, "{s}")
    }
}

/// A single extracted dependence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dependence {
    /// The (lexicographically positive) constant dependence vector.
    pub vector: Point,
    /// Dependence class.
    pub kind: DepKind,
    /// Array through which the dependence flows.
    pub array: String,
    /// Index of the source statement in the nest body.
    pub src_stmt: usize,
    /// Index of the sink statement in the nest body.
    pub dst_stmt: usize,
}

impl fmt::Display for Dependence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} dep on `{}`: S{} -> S{} distance {:?}",
            self.kind, self.array, self.src_stmt, self.dst_stmt, self.vector
        )
    }
}

/// Extraction options.
#[derive(Clone, Copy, Debug)]
pub struct DepOptions {
    /// Include read-after-read reuse dependences (needed to reproduce the
    /// paper's dependence sets for matmul / matvec). Default `true`.
    pub include_input_reuse: bool,
    /// Include anti and output dependences. Default `true`.
    pub include_anti_output: bool,
    /// Include intra-iteration (zero-distance) dependences between
    /// *different* statements, ordered by textual position. These never
    /// enter the vector set `D` (a zero vector admits no legal Π) but
    /// drive statement-offset scheduling. Default `false`.
    pub include_intra: bool,
}

impl Default for DepOptions {
    fn default() -> DepOptions {
        DepOptions {
            include_input_reuse: true,
            include_anti_output: true,
            include_intra: false,
        }
    }
}

/// `-1`, `0`, `1` for lexicographic sign of a vector.
pub(crate) fn lex_sign(v: &[i64]) -> Ordering {
    for &x in v {
        match x.cmp(&0) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    Ordering::Equal
}

/// Divide by the gcd of the entries and flip to lexicographic-positive.
pub(crate) fn primitive_lex_positive(v: &[i64]) -> Option<Point> {
    let g = gcd_all(v);
    if g == 0 {
        return None;
    }
    let mut p: Point = v.iter().map(|&x| x / g).collect();
    if lex_sign(&p) == Ordering::Less {
        for x in &mut p {
            *x = -*x;
        }
    }
    Some(p)
}

/// The linear subscript parts of an access as a `rank × n` integer matrix.
fn linear_matrix(acc: &Access, n: usize) -> IMat {
    let rows: Vec<&[i64]> = acc.subscripts().iter().map(|s| s.coeffs()).collect();
    if rows.is_empty() {
        IMat::zero(0, n)
    } else {
        IMat::from_rows(&rows)
    }
}

fn offsets(acc: &Access) -> Vec<i64> {
    acc.subscripts().iter().map(|s| s.constant_term()).collect()
}

/// One occurrence of an array access inside a nest body: the statement
/// index, the access itself, and whether it is the statement's write.
pub type AccessSite<'a> = (usize, &'a Access, bool);

/// A write-involved access pair whose linear subscript parts differ —
/// outside the uniform class [`extract_dependences`] handles, and the
/// raw material the [`crate::uniformize`](mod@crate::uniformize) pass folds into synthesized
/// constant vectors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NonUniformPair {
    /// Array both accesses touch.
    pub array: String,
    /// The first access in program order.
    pub a: Access,
    /// Statement index of `a`.
    pub a_stmt: usize,
    /// Whether `a` is its statement's write.
    pub a_write: bool,
    /// The second access in program order.
    pub b: Access,
    /// Statement index of `b`.
    pub b_stmt: usize,
    /// Whether `b` is its statement's write.
    pub b_write: bool,
}

/// Gather every access per array, preserving program order (the raw
/// material both [`extract_dependences`] and the symbolic front-end
/// dependence analysis in `loom-check` scan pairwise). Arrays appear in
/// order of first occurrence.
pub fn accesses_by_array(nest: &LoopNest) -> Vec<(String, Vec<AccessSite<'_>>)> {
    let mut by_array: Vec<(String, Vec<AccessSite<'_>>)> = Vec::new();
    for (si, stmt) in nest.stmts().iter().enumerate() {
        for (acc, is_write) in
            std::iter::once((stmt.write(), true)).chain(stmt.reads().iter().map(|r| (r, false)))
        {
            match by_array.iter_mut().find(|(a, _)| a == acc.array()) {
                Some((_, v)) => v.push((si, acc, is_write)),
                None => by_array.push((acc.array().to_string(), vec![(si, acc, is_write)])),
            }
        }
    }
    by_array
}

/// Extract all uniform dependences of a loop nest.
///
/// The result is deterministic: dependences are sorted by array, then
/// kind, then vector.
pub fn extract_dependences(nest: &LoopNest, opts: DepOptions) -> Result<Vec<Dependence>, Error> {
    extract_with(nest, opts, &mut |pair| {
        Err(Error::NonUniform { array: pair.array })
    })
}

/// [`extract_dependences`] with the uniformity requirement relaxed:
/// write-involved access pairs whose linear subscript parts differ are
/// collected as [`NonUniformPair`]s (in extraction order) instead of
/// aborting, so the [`crate::uniformize`](mod@crate::uniformize) pass can fold them. The
/// uniform pairs are extracted exactly as [`extract_dependences`] does,
/// and [`Error::Overflow`] still propagates.
pub fn extract_dependences_relaxed(
    nest: &LoopNest,
    opts: DepOptions,
) -> Result<(Vec<Dependence>, Vec<NonUniformPair>), Error> {
    let mut pairs = Vec::new();
    let deps = extract_with(nest, opts, &mut |pair| {
        pairs.push(pair);
        Ok(())
    })?;
    Ok((deps, pairs))
}

/// The shared pairwise scan: `on_nonuniform` decides whether a
/// non-uniform write pair aborts extraction (the strict entry point) or
/// is recorded and skipped (the relaxed one).
fn extract_with(
    nest: &LoopNest,
    opts: DepOptions,
    on_nonuniform: &mut dyn FnMut(NonUniformPair) -> Result<(), Error>,
) -> Result<Vec<Dependence>, Error> {
    let n = nest.dim();
    let by_array = accesses_by_array(nest);

    let mut out: Vec<Dependence> = Vec::new();
    for (array, accs) in &by_array {
        for (x, &(sx, ax, wx)) in accs.iter().enumerate() {
            for &(sy, ay, wy) in accs.iter().skip(x) {
                let any_write = wx || wy;
                if !any_write && !opts.include_input_reuse {
                    continue;
                }
                if !ax.same_linear_part(ay) {
                    if any_write {
                        on_nonuniform(NonUniformPair {
                            array: array.clone(),
                            a: Access::clone(ax),
                            a_stmt: sx,
                            a_write: wx,
                            b: Access::clone(ay),
                            b_stmt: sy,
                            b_write: wy,
                        })?;
                    }
                    continue; // read/read with different shapes: no reuse model
                }
                if ax.rank() == 0 {
                    continue; // scalar constants carry no loop dependence here
                }
                let u = linear_matrix(ax, n);
                // U·i_x + a_x = U·i_y + a_y  ⇒  U·(i_y − i_x) = a_x − a_y,
                // so a solution d is the distance from x's iteration to y's
                // (lex-positive d ⇒ access x executes first).
                let c: Vec<i64> = offsets(ax)
                    .iter()
                    .zip(offsets(ay))
                    .map(|(a, b)| a - b)
                    .collect();
                let solved = try_solve_integer(&u, &c).map_err(|_| Error::Overflow {
                    array: array.clone(),
                })?;
                let Some((d0, generators)) = solved else {
                    continue; // no integer solution: the accesses never conflict
                };

                // Zero-distance conflicts between distinct statements:
                // intra-iteration dependences, ordered textually.
                if any_write && opts.include_intra && lex_sign(&d0) == Ordering::Equal && sx != sy {
                    let (src, dst, kind) = if sx < sy {
                        (sx, sy, kind_of(wx, wy))
                    } else {
                        (sy, sx, kind_of(wy, wx))
                    };
                    if opts.include_anti_output || kind == DepKind::Flow {
                        out.push(Dependence {
                            vector: vec![0; n],
                            kind,
                            array: array.clone(),
                            src_stmt: src,
                            dst_stmt: dst,
                        });
                    }
                }

                // Particular vector → flow/anti/output between distinct roles.
                if any_write && lex_sign(&d0) != Ordering::Equal {
                    let (kind, vector, src, dst) = match lex_sign(&d0) {
                        Ordering::Greater => (kind_of(wx, wy), d0.clone(), sx, sy),
                        _ => (
                            kind_of(wy, wx),
                            d0.iter().map(|&v| -v).collect::<Point>(),
                            sy,
                            sx,
                        ),
                    };
                    if opts.include_anti_output || kind == DepKind::Flow {
                        out.push(Dependence {
                            vector,
                            kind,
                            array: array.clone(),
                            src_stmt: src,
                            dst_stmt: dst,
                        });
                    }
                }

                // Nullspace generators → reuse/output chains along which the
                // same element is touched repeatedly.
                for g in &generators {
                    let Some(vector) = primitive_lex_positive(g) else {
                        continue;
                    };
                    let kind = if wx && wy {
                        DepKind::Output
                    } else if any_write {
                        DepKind::Flow // write reused by later reads of itself
                    } else {
                        DepKind::Input
                    };
                    if !opts.include_anti_output && kind == DepKind::Output {
                        continue;
                    }
                    out.push(Dependence {
                        vector,
                        kind,
                        array: array.clone(),
                        src_stmt: sx.min(sy),
                        dst_stmt: sx.max(sy),
                    });
                }
            }
        }
    }

    // Deduplicate and order deterministically.
    out.sort_by(|a, b| {
        (&a.array, a.kind, &a.vector, a.src_stmt, a.dst_stmt)
            .cmp(&(&b.array, b.kind, &b.vector, b.src_stmt, b.dst_stmt))
    });
    out.dedup();
    Ok(out)
}

/// Source-write/sink-write flags → dependence kind.
pub(crate) fn kind_of(src_is_write: bool, dst_is_write: bool) -> DepKind {
    match (src_is_write, dst_is_write) {
        (true, true) => DepKind::Output,
        (true, false) => DepKind::Flow,
        (false, true) => DepKind::Anti,
        (false, false) => DepKind::Input,
    }
}

/// The distinct dependence-vector set `D` of a nest: every extracted
/// dependence's vector, deduplicated, in lexicographic order.
pub fn dependence_vectors(nest: &LoopNest, opts: DepOptions) -> Result<Vec<Point>, Error> {
    let deps = extract_dependences(nest, opts)?;
    let set: BTreeSet<Point> = deps
        .into_iter()
        .map(|d| d.vector)
        .filter(|v| v.iter().any(|&x| x != 0))
        .collect();
    Ok(set.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::IterSpace;
    use crate::Stmt;

    fn l1() -> LoopNest {
        LoopNest::new(
            "L1",
            IterSpace::rect(&[4, 4]).unwrap(),
            vec![
                Stmt::assign(
                    Access::simple("A", 2, &[(0, 1), (1, 1)]),
                    vec![
                        Access::simple("A", 2, &[(0, 1), (1, 0)]),
                        Access::simple("B", 2, &[(0, 0), (1, 0)]),
                    ],
                ),
                Stmt::assign(
                    Access::simple("B", 2, &[(0, 1), (1, 0)]),
                    vec![Access::simple("A", 2, &[(0, 0), (1, 0)])],
                ),
            ],
        )
        .unwrap()
    }

    fn matmul() -> LoopNest {
        // C[i,j] := C[i,j] + A[i,k] * B[k,j] over a 4×4×4 space.
        LoopNest::new(
            "matmul",
            IterSpace::rect(&[4, 4, 4]).unwrap(),
            vec![Stmt::assign(
                Access::simple("C", 3, &[(0, 0), (1, 0)]),
                vec![
                    Access::simple("C", 3, &[(0, 0), (1, 0)]),
                    Access::simple("A", 3, &[(0, 0), (2, 0)]),
                    Access::simple("B", 3, &[(2, 0), (1, 0)]),
                ],
            )],
        )
        .unwrap()
    }

    #[test]
    fn l1_dependence_vectors_match_paper() {
        // Example 1: D = {(0,1), (1,1), (1,0)} — all flow dependences.
        let d = dependence_vectors(&l1(), DepOptions::default()).unwrap();
        assert_eq!(d, vec![vec![0, 1], vec![1, 0], vec![1, 1]]);
        // And only flow dependences arise (subscripts never conflict
        // anti-wise in this loop).
        let deps = extract_dependences(&l1(), DepOptions::default()).unwrap();
        assert!(deps.iter().all(|d| d.kind == DepKind::Flow));
        assert_eq!(deps.len(), 3);
    }

    #[test]
    fn matmul_dependences_match_paper_rewritten_form() {
        // Example 2: the paper rewrites matmul to expose
        // d_A = (0,1,0), d_B = (1,0,0), d_C = (0,0,1).
        let d = dependence_vectors(&matmul(), DepOptions::default()).unwrap();
        assert_eq!(d, vec![vec![0, 0, 1], vec![0, 1, 0], vec![1, 0, 0]]);
    }

    #[test]
    fn matmul_reuse_requires_input_option() {
        let opts = DepOptions {
            include_input_reuse: false,
            ..Default::default()
        };
        let d = dependence_vectors(&matmul(), opts).unwrap();
        // Only the C recurrence remains.
        assert_eq!(d, vec![vec![0, 0, 1]]);
    }

    #[test]
    fn matvec_dependences_match_paper() {
        // L4: y[i] := y[i] + A[i,j] * x[j] → D = {(1,0), (0,1)}.
        let nest = LoopNest::new(
            "matvec",
            IterSpace::rect(&[4, 4]).unwrap(),
            vec![Stmt::assign(
                Access::simple("y", 2, &[(0, 0)]),
                vec![
                    Access::simple("y", 2, &[(0, 0)]),
                    Access::simple("A", 2, &[(0, 0), (1, 0)]),
                    Access::simple("x", 2, &[(1, 0)]),
                ],
            )],
        )
        .unwrap();
        let d = dependence_vectors(&nest, DepOptions::default()).unwrap();
        assert_eq!(d, vec![vec![0, 1], vec![1, 0]]);
    }

    #[test]
    fn anti_dependence_detected() {
        // A[i] := A[i+1] — read of i+1 happens before the write at i+1:
        // anti dependence with distance (1).
        let nest = LoopNest::new(
            "anti",
            IterSpace::rect(&[8]).unwrap(),
            vec![Stmt::assign(
                Access::simple("A", 1, &[(0, 0)]),
                vec![Access::simple("A", 1, &[(0, 1)])],
            )],
        )
        .unwrap();
        let deps = extract_dependences(&nest, DepOptions::default()).unwrap();
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].kind, DepKind::Anti);
        assert_eq!(deps[0].vector, vec![1]);
        // Excluded when anti/output deps are off.
        let opts = DepOptions {
            include_anti_output: false,
            ..Default::default()
        };
        assert!(extract_dependences(&nest, opts).unwrap().is_empty());
    }

    #[test]
    fn non_uniform_rejected() {
        // A[2i] written, A[i] read → non-uniform.
        let nest = LoopNest::new(
            "nonuniform",
            IterSpace::rect(&[8]).unwrap(),
            vec![Stmt::assign(
                Access::new("A", vec![crate::Aff::new(vec![2], 0)]),
                vec![Access::simple("A", 1, &[(0, 0)])],
            )],
        )
        .unwrap();
        assert!(matches!(
            extract_dependences(&nest, DepOptions::default()),
            Err(Error::NonUniform { .. })
        ));
    }

    #[test]
    fn relaxed_extraction_records_nonuniform_pairs() {
        // A[2i] := A[i] + B[i-1]; B[i] := A[i]: the A write/read pair is
        // non-uniform and must be recorded, while the uniform B chain
        // still extracts. A[i]/A[i] (read/read, same shape) is uniform.
        let nest = LoopNest::new(
            "mix",
            IterSpace::rect(&[8]).unwrap(),
            vec![
                Stmt::assign(
                    Access::new("A", vec![crate::Aff::new(vec![2], 0)]),
                    vec![
                        Access::simple("A", 1, &[(0, 0)]),
                        Access::simple("B", 1, &[(0, -1)]),
                    ],
                ),
                Stmt::assign(
                    Access::simple("B", 1, &[(0, 0)]),
                    vec![Access::simple("A", 1, &[(0, 0)])],
                ),
            ],
        )
        .unwrap();
        let (deps, pairs) = extract_dependences_relaxed(&nest, DepOptions::default()).unwrap();
        // Two non-uniform pairs: A[2i]/A[i] of S0 and A[2i]/A[i] of S1.
        assert_eq!(pairs.len(), 2);
        assert!(pairs.iter().all(|p| p.array == "A" && p.a_write));
        // The uniform B flow dep B[i] -> B[i-1] survives.
        assert!(deps
            .iter()
            .any(|d| d.array == "B" && d.kind == DepKind::Flow && d.vector == vec![1]));
        // The strict entry point still rejects the same nest.
        assert!(matches!(
            extract_dependences(&nest, DepOptions::default()),
            Err(Error::NonUniform { .. })
        ));
    }

    #[test]
    fn never_conflicting_accesses_no_dep() {
        // A[2i] written, A[2i+1] read: same linear part, offsets differ by
        // 1, but 2d = 1 has no integer solution → no dependence.
        let two_i = crate::Aff::new(vec![2], 0);
        let nest = LoopNest::new(
            "parity",
            IterSpace::rect(&[8]).unwrap(),
            vec![Stmt::assign(
                Access::new("A", vec![two_i.clone()]),
                vec![Access::new("A", vec![two_i + 1])],
            )],
        )
        .unwrap();
        assert!(extract_dependences(&nest, DepOptions::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn vectors_are_lex_positive_and_distinct() {
        for nest in [l1(), matmul()] {
            let d = dependence_vectors(&nest, DepOptions::default()).unwrap();
            for v in &d {
                assert_eq!(
                    lex_sign(v),
                    Ordering::Greater,
                    "vector {v:?} not lex-positive"
                );
            }
            let set: BTreeSet<_> = d.iter().collect();
            assert_eq!(set.len(), d.len());
        }
    }

    #[test]
    fn intra_iteration_dependences_extracted_on_request() {
        // S0 writes T[i], S1 reads T[i] in the same iteration.
        let nest = LoopNest::new(
            "intra",
            IterSpace::rect(&[4]).unwrap(),
            vec![
                Stmt::assign(
                    Access::simple("T", 1, &[(0, 0)]),
                    vec![Access::simple("A", 1, &[(0, 0)])],
                ),
                Stmt::assign(
                    Access::simple("U", 1, &[(0, 0)]),
                    vec![Access::simple("T", 1, &[(0, 0)])],
                ),
            ],
        )
        .unwrap();
        // Default: no intra deps, and no vectors at all.
        let d = extract_dependences(&nest, DepOptions::default()).unwrap();
        assert!(d.is_empty());
        // With the flag: one zero-distance flow dep S0 → S1.
        let opts = DepOptions {
            include_intra: true,
            ..Default::default()
        };
        let d = extract_dependences(&nest, opts).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].kind, DepKind::Flow);
        assert_eq!((d[0].src_stmt, d[0].dst_stmt), (0, 1));
        assert_eq!(d[0].vector, vec![0]);
        // The vector set still excludes zero vectors.
        assert!(dependence_vectors(&nest, opts).unwrap().is_empty());
    }

    #[test]
    fn stencil_multiple_flow_deps() {
        // A[i+1,j+1] := A[i,j] + A[i,j+1] + A[i+1,j] — three flow deps.
        let nest = LoopNest::new(
            "stencil",
            IterSpace::rect(&[5, 5]).unwrap(),
            vec![Stmt::assign(
                Access::simple("A", 2, &[(0, 1), (1, 1)]),
                vec![
                    Access::simple("A", 2, &[(0, 0), (1, 0)]),
                    Access::simple("A", 2, &[(0, 0), (1, 1)]),
                    Access::simple("A", 2, &[(0, 1), (1, 0)]),
                ],
            )],
        )
        .unwrap();
        let d = dependence_vectors(&nest, DepOptions::default()).unwrap();
        assert_eq!(d, vec![vec![0, 1], vec![1, 0], vec![1, 1]]);
    }
}
