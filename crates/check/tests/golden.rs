//! Golden-output tests: one scenario per rule id, asserting the exact
//! human rendering and the exact JSON document. These strings are the
//! stable output contract — `loom check --json` consumers and the CI
//! smoke step both parse them, so a change here is a breaking change
//! and must be deliberate.

use loom_check::{
    check_access_dependences, check_direction_bounds, check_gray, check_grouping_vectors,
    check_legality, check_lemma1, check_lemma1_symbolic_groups, check_neighbor_bound,
    check_protocol, check_races, Report,
};
use loom_codegen::{generate, Op};
use loom_hyperplane::TimeFn;
use loom_mapping::map_partitioning;
use loom_partition::grouping::GroupingVectors;
use loom_partition::{partition, PartitionConfig, Partitioning, Tig};
use std::collections::BTreeSet;

fn l1_partition() -> (loom_workloads::Workload, Partitioning) {
    let w = loom_workloads::l1::workload(4);
    let p = partition(
        w.nest.space().clone(),
        w.deps.clone(),
        TimeFn::new(w.pi.clone()),
        &PartitionConfig::default(),
    )
    .unwrap();
    (w, p)
}

/// Compare both renderings against their goldens. To regenerate after a
/// deliberate format change, run
/// `GOLDEN_DUMP=1 cargo test -p loom-check --test golden -- --nocapture`
/// and paste the printed blocks back into the expectations.
fn snapshot(name: &str, report: &Report, expected_human: &str, expected_json: &str) {
    if std::env::var("GOLDEN_DUMP").is_ok() {
        println!(
            "=== {name} HUMAN ===\n{}=== {name} JSON ===\n{}\n",
            report.render_human(),
            report.to_json().render_pretty()
        );
        return;
    }
    assert_eq!(
        report.render_human(),
        expected_human,
        "{name}: human rendering drifted"
    );
    assert_eq!(
        report.to_json().render_pretty(),
        expected_json,
        "{name}: JSON rendering drifted"
    );
}

#[test]
fn golden_lc001_schedule_legality() {
    let w = loom_workloads::l1::workload(4);
    let report = Report::from_diagnostics(check_legality(&TimeFn::new(vec![1, -1]), &w.deps));
    snapshot(
        "LC001",
        &report,
        r#"error[LC001] dep[0]=(0,1): Π·d = -1 < 1; the schedule does not advance across this dependence
error[LC001] dep[2]=(1,1): Π·d = 0 < 1; the schedule does not advance across this dependence
check: 2 error(s), 0 warning(s), 0 note(s)
"#,
        r#"{
  "diagnostics": [
    {
      "rule": "LC001",
      "name": "schedule-legality",
      "severity": "error",
      "span": {
        "kind": "dep",
        "index": 0,
        "vector": [
          0,
          1
        ]
      },
      "message": "Π·d = -1 < 1; the schedule does not advance across this dependence"
    },
    {
      "rule": "LC001",
      "name": "schedule-legality",
      "severity": "error",
      "span": {
        "kind": "dep",
        "index": 2,
        "vector": [
          1,
          1
        ]
      },
      "message": "Π·d = 0 < 1; the schedule does not advance across this dependence"
    }
  ],
  "counts": {
    "LC001": 2
  },
  "errors": 2,
  "warnings": 0
}
"#,
    );
}

#[test]
fn golden_lc002_block_shared_step() {
    let (w, p) = l1_partition();
    let mut blocks = p.blocks().to_vec();
    let moved = blocks.pop().unwrap();
    blocks[0].extend(moved);
    let report = Report::from_diagnostics(check_lemma1(
        &TimeFn::new(w.pi.clone()),
        p.structure().point_table(),
        &blocks,
    ));
    snapshot(
        "LC002",
        &report,
        r#"error[LC002] points (0,3) and (3,0): both iterations of block B0 execute at step 3; Lemma 1 requires distinct steps within a block
check: 1 error(s), 0 warning(s), 0 note(s)
"#,
        r#"{
  "diagnostics": [
    {
      "rule": "LC002",
      "name": "block-shared-step",
      "severity": "error",
      "span": {
        "kind": "point_pair",
        "a": [
          0,
          3
        ],
        "b": [
          3,
          0
        ]
      },
      "message": "both iterations of block B0 execute at step 3; Lemma 1 requires distinct steps within a block"
    }
  ],
  "counts": {
    "LC002": 1
  },
  "errors": 1,
  "warnings": 0
}
"#,
    );
}

#[test]
fn golden_lc003_neighbor_bound() {
    // One dependence (m = 1) of full rank (β = 1): bound 2·1−1 = 1.
    // Group 0 sends to two targets — one over the bound.
    let graph = vec![BTreeSet::from([1, 2]), BTreeSet::from([2]), BTreeSet::new()];
    let report = Report::from_diagnostics(check_neighbor_bound(&graph, 1, 1));
    snapshot(
        "LC003",
        &report,
        r#"error[LC003] group G0: group sends data to 2 other groups, exceeding 2m−β = 2·1−1 = 1 (Theorem 2)
check: 1 error(s), 0 warning(s), 0 note(s)
"#,
        r#"{
  "diagnostics": [
    {
      "rule": "LC003",
      "name": "neighbor-bound",
      "severity": "error",
      "span": {
        "kind": "group",
        "group": 0
      },
      "message": "group sends data to 2 other groups, exceeding 2m−β = 2·1−1 = 1 (Theorem 2)"
    }
  ],
  "counts": {
    "LC003": 1
  },
  "errors": 1,
  "warnings": 0
}
"#,
    );
}

#[test]
fn golden_lc003_lemma2_direction_bound() {
    // Ω = {d0}: along the grouping direction group 0 reaches two groups,
    // one over Lemma 2's bound; group 1 reaches one, within it.
    let table = [(0, 0, 1), (0, 0, 2), (0, 1, 2), (1, 0, 2)];
    let report = Report::from_diagnostics(check_direction_bounds(&table, &[0]));
    snapshot(
        "LC003-lemma2",
        &report,
        r#"error[LC003] group G0: group sends data to 2 groups (G1, G2) along Ω dependence 0, exceeding 1 (Lemma 2)
check: 1 error(s), 0 warning(s), 0 note(s)
"#,
        r#"{
  "diagnostics": [
    {
      "rule": "LC003",
      "name": "neighbor-bound",
      "severity": "error",
      "span": {
        "kind": "group",
        "group": 0
      },
      "message": "group sends data to 2 groups (G1, G2) along Ω dependence 0, exceeding 1 (Lemma 2)"
    }
  ],
  "counts": {
    "LC003": 1
  },
  "errors": 1,
  "warnings": 0
}
"#,
    );
}

#[test]
fn golden_lc003_lemma3_direction_bound() {
    // Ω = {d0}: off Ω, along d1, group 1 reaches three groups, one over
    // Lemma 3's bound; group 0 reaches two, at it.
    let table = [
        (0, 1, 2),
        (0, 1, 3),
        (1, 0, 2),
        (1, 1, 0),
        (1, 1, 2),
        (1, 1, 3),
    ];
    let report = Report::from_diagnostics(check_direction_bounds(&table, &[0]));
    snapshot(
        "LC003-lemma3",
        &report,
        r#"error[LC003] group G1: group sends data to 3 groups (G0, G2, G3) along non-Ω dependence 1, exceeding 2 (Lemma 3)
check: 1 error(s), 0 warning(s), 0 note(s)
"#,
        r#"{
  "diagnostics": [
    {
      "rule": "LC003",
      "name": "neighbor-bound",
      "severity": "error",
      "span": {
        "kind": "group",
        "group": 1
      },
      "message": "group sends data to 3 groups (G0, G2, G3) along non-Ω dependence 1, exceeding 2 (Lemma 3)"
    }
  ],
  "counts": {
    "LC003": 1
  },
  "errors": 1,
  "warnings": 0
}
"#,
    );
}

#[test]
fn golden_lc004_gray_adjacency() {
    // 4 chain blocks on a full 2-cube; binary allocation puts chain
    // neighbors B1(01)–B2(10) two hops apart.
    let w = loom_workloads::matvec::workload(4);
    let p = partition(
        w.nest.space().clone(),
        w.deps.clone(),
        TimeFn::new(w.pi.clone()),
        &PartitionConfig::default(),
    )
    .unwrap();
    let tig = Tig::from_partitioning(&p);
    let binary: Vec<usize> = (0..p.num_blocks()).collect();
    let report = Report::from_diagnostics(check_gray(&p, &tig, &binary, 2));
    snapshot(
        "LC004",
        &report,
        r#"error[LC004] tig edge B1-B2: Ω-neighbor blocks mapped to processors 1 and 2, 2 hops apart; Gray-code allocation guarantees 1
check: 1 error(s), 0 warning(s), 0 note(s)
"#,
        r#"{
  "diagnostics": [
    {
      "rule": "LC004",
      "name": "gray-adjacency",
      "severity": "error",
      "span": {
        "kind": "tig_edge",
        "a": 1,
        "b": 2
      },
      "message": "Ω-neighbor blocks mapped to processors 1 and 2, 2 hops apart; Gray-code allocation guarantees 1"
    }
  ],
  "counts": {
    "LC004": 1
  },
  "errors": 1,
  "warnings": 0
}
"#,
    );
}

#[test]
fn golden_lc005_data_race() {
    let (w, p) = l1_partition();
    let m = map_partitioning(&p, 1).unwrap();
    let cg = generate(&w.nest, &p, m.assignment(), 2).unwrap();
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
    snapshot(
        "LC005",
        &report,
        r#"error[LC005] element A(1,1): write at iteration (0,0) on P0 and write at iteration (0,0) on P1 are concurrent: no synchronization orders them
error[LC005] element B(1,0): write at iteration (0,0) on P0 and write at iteration (0,0) on P1 are concurrent: no synchronization orders them
check: 2 error(s), 0 warning(s), 0 note(s)
"#,
        r#"{
  "diagnostics": [
    {
      "rule": "LC005",
      "name": "data-race",
      "severity": "error",
      "span": {
        "kind": "element",
        "array": "A",
        "element": [
          1,
          1
        ]
      },
      "message": "write at iteration (0,0) on P0 and write at iteration (0,0) on P1 are concurrent: no synchronization orders them"
    },
    {
      "rule": "LC005",
      "name": "data-race",
      "severity": "error",
      "span": {
        "kind": "element",
        "array": "B",
        "element": [
          1,
          0
        ]
      },
      "message": "write at iteration (0,0) on P0 and write at iteration (0,0) on P1 are concurrent: no synchronization orders them"
    }
  ],
  "counts": {
    "LC005": 2
  },
  "errors": 2,
  "warnings": 0
}
"#,
    );
}

#[test]
fn golden_lc006_grouping_rank() {
    let (_, p) = l1_partition();
    let fabricated = GroupingVectors {
        beta: 2,
        ..p.vectors().clone()
    };
    let report = Report::from_diagnostics(check_grouping_vectors(p.projected(), &fabricated));
    snapshot(
        "LC006",
        &report,
        r#"error[LC006] nest: recorded β = 2 disagrees with rank(mat(D^p)) = 1
error[LC006] nest: Ω holds 1 vector(s) where β = 2 requires a rank-β independent set
check: 2 error(s), 0 warning(s), 0 note(s)
"#,
        r#"{
  "diagnostics": [
    {
      "rule": "LC006",
      "name": "grouping-rank",
      "severity": "error",
      "span": {
        "kind": "nest"
      },
      "message": "recorded β = 2 disagrees with rank(mat(D^p)) = 1"
    },
    {
      "rule": "LC006",
      "name": "grouping-rank",
      "severity": "error",
      "span": {
        "kind": "nest"
      },
      "message": "Ω holds 1 vector(s) where β = 2 requires a rank-β independent set"
    }
  ],
  "counts": {
    "LC006": 2
  },
  "errors": 2,
  "warnings": 0
}
"#,
    );
}

#[test]
fn golden_lc007_unmatched_message() {
    let (w, p) = l1_partition();
    let m = map_partitioning(&p, 1).unwrap();
    let cg = generate(&w.nest, &p, m.assignment(), 2).unwrap();
    let mut program = cg.program;
    let (proc, i) = program
        .per_proc
        .iter()
        .enumerate()
        .find_map(|(p, ops)| {
            ops.iter()
                .position(|op| matches!(op, Op::Send { .. }))
                .map(|i| (p, i))
        })
        .unwrap();
    program.per_proc[proc].remove(i);
    let report = Report::from_diagnostics(check_races(&w.nest, &program));
    snapshot(
        "LC007",
        &report,
        r#"error[LC007] P0 op 2: receive of message (source point 1, dep 1) from P1 can never be satisfied; the program deadlocks here
error[LC007] P1 op 0: receive of message (source point 0, dep 0) from P0 can never be satisfied; the program deadlocks here
check: 2 error(s), 0 warning(s), 0 note(s)
"#,
        r#"{
  "diagnostics": [
    {
      "rule": "LC007",
      "name": "unmatched-message",
      "severity": "error",
      "span": {
        "kind": "program_op",
        "proc": 0,
        "op": 2
      },
      "message": "receive of message (source point 1, dep 1) from P1 can never be satisfied; the program deadlocks here"
    },
    {
      "rule": "LC007",
      "name": "unmatched-message",
      "severity": "error",
      "span": {
        "kind": "program_op",
        "proc": 1,
        "op": 0
      },
      "message": "receive of message (source point 0, dep 0) from P0 can never be satisfied; the program deadlocks here"
    }
  ],
  "counts": {
    "LC007": 2
  },
  "errors": 2,
  "warnings": 0
}
"#,
    );
}

#[test]
fn golden_lc009_parametric_legality() {
    // The same merged-block shape as the LC002 golden, decided by the
    // symbolic engine: merge the last grouping line into group 0 and
    // let the Presburger core find the collision witness.
    let (_, p) = l1_partition();
    let mut groups: Vec<Vec<usize>> = p
        .grouping()
        .groups
        .iter()
        .map(|g| g.members.clone())
        .collect();
    let moved = groups.pop().unwrap();
    groups[0].extend(moved);
    let mut stats = loom_check::SymbolicStats::default();
    let report = Report::from_diagnostics(check_lemma1_symbolic_groups(&p, &groups, &mut stats));
    snapshot(
        "LC009",
        &report,
        r#"error[LC009] points (0,3) and (3,0): both iterations of block B0 execute at step 3; Lemma 1 requires distinct steps within a block
check: 1 error(s), 0 warning(s), 0 note(s)
"#,
        r#"{
  "diagnostics": [
    {
      "rule": "LC009",
      "name": "parametric-legality",
      "severity": "error",
      "span": {
        "kind": "point_pair",
        "a": [
          0,
          3
        ],
        "b": [
          3,
          0
        ]
      },
      "message": "both iterations of block B0 execute at step 3; Lemma 1 requires distinct steps within a block"
    }
  ],
  "counts": {
    "LC009": 1
  },
  "errors": 1,
  "warnings": 0
}
"#,
    );
}

#[test]
fn golden_lc010_access_dependence() {
    // The committed variable-distance sample: since the uniformization
    // engine landed, this nest is *admitted* — the exact certificate
    // (LC016) and over-approximation warning (LC017) are part of the
    // contract (the CI sample sweep relies on the zero exit).
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../samples/nonuniform.loom"
    ))
    .unwrap();
    let nest = loom_loopir::parse::parse_nest("nonuniform.loom", &src).unwrap();
    let report = Report::from_diagnostics(check_access_dependences(&nest, None));
    snapshot(
        "LC010",
        &report,
        r#"info[LC016] accesses A[2i] and A[i]: cover certified: every conflict distance is a non-negative integer combination of [[1]] (2 escape system(s) refuted)
warning[LC017] accesses A[2i] and A[i]: synthesized vector (1) over-approximates: iterations (2) and (3) never conflict on `A`, yet the folded nest synchronizes them; legal-Π census over [-2,2]^1: true relation admits 2 (best 8 step(s)), folded set admits 2 (best 8 step(s))
check: 0 error(s), 1 warning(s), 1 note(s)
"#,
        r#"{
  "diagnostics": [
    {
      "rule": "LC016",
      "name": "uniformize-soundness",
      "severity": "info",
      "span": {
        "kind": "access_pair",
        "array": "A",
        "a": "A[2i]",
        "b": "A[i]"
      },
      "message": "cover certified: every conflict distance is a non-negative integer combination of [[1]] (2 escape system(s) refuted)"
    },
    {
      "rule": "LC017",
      "name": "uniformize-tightness",
      "severity": "warning",
      "span": {
        "kind": "access_pair",
        "array": "A",
        "a": "A[2i]",
        "b": "A[i]"
      },
      "message": "synthesized vector (1) over-approximates: iterations (2) and (3) never conflict on `A`, yet the folded nest synchronizes them; legal-Π census over [-2,2]^1: true relation admits 2 (best 8 step(s)), folded set admits 2 (best 8 step(s))"
    }
  ],
  "counts": {
    "LC016": 1,
    "LC017": 1
  },
  "errors": 0,
  "warnings": 1
}
"#,
    );
}

#[test]
fn golden_lc011_protocol_summary() {
    let (_, p) = l1_partition();
    let tig = Tig::from_partitioning(&p);
    let mut edges: std::collections::BTreeMap<(usize, usize), u64> = tig.edges().collect();
    let (&key, &weight) = edges.iter().next().unwrap();
    edges.insert(key, weight + 1);
    let weights: Vec<u64> = (0..tig.len()).map(|v| tig.weight(v)).collect();
    let tampered = Tig::from_parts(weights, edges);
    let mut stats = loom_check::SymbolicStats::default();
    let report = Report::from_diagnostics(check_protocol(&p, &tampered, &mut stats));
    snapshot(
        "LC011",
        &report,
        r#"error[LC011] tig edge B0-B1: symbolic send/recv summary derives 2 message(s) between B0 and B1, but the task graph records 3; the communication protocol and the TIG disagree
check: 1 error(s), 0 warning(s), 0 note(s)
"#,
        r#"{
  "diagnostics": [
    {
      "rule": "LC011",
      "name": "protocol-summary",
      "severity": "error",
      "span": {
        "kind": "tig_edge",
        "a": 0,
        "b": 1
      },
      "message": "symbolic send/recv summary derives 2 message(s) between B0 and B1, but the task graph records 3; the communication protocol and the TIG disagree"
    }
  ],
  "counts": {
    "LC011": 1
  },
  "errors": 1,
  "warnings": 0
}
"#,
    );
}

#[test]
fn golden_lc012_blocking_cycle() {
    // `partition()` refuses illegal schedules, so a non-positive-lag
    // cycle cannot be staged through public constructors; the golden
    // pins the diagnostic's rendering contract in the exact shape
    // `check_blocking_cycles` emits.
    let report = Report::from_diagnostics(vec![loom_check::Diagnostic::error(
        loom_check::RuleId::BlockingCycle,
        loom_check::Span::Block { block: 0 },
        "blocks B0 → B1 → B0 form a cycle of blocking waits with total schedule lag \
         0 ≤ 0; a receive in this cycle can wait on its own block's progress forever"
            .to_string(),
    )]);
    snapshot(
        "LC012",
        &report,
        r#"error[LC012] block B0: blocks B0 → B1 → B0 form a cycle of blocking waits with total schedule lag 0 ≤ 0; a receive in this cycle can wait on its own block's progress forever
check: 1 error(s), 0 warning(s), 0 note(s)
"#,
        r#"{
  "diagnostics": [
    {
      "rule": "LC012",
      "name": "blocking-cycle",
      "severity": "error",
      "span": {
        "kind": "block",
        "block": 0
      },
      "message": "blocks B0 → B1 → B0 form a cycle of blocking waits with total schedule lag 0 ≤ 0; a receive in this cycle can wait on its own block's progress forever"
    }
  ],
  "counts": {
    "LC012": 1
  },
  "errors": 1,
  "warnings": 0
}
"#,
    );
}

/// Generate the l1 SPMD program the interleaving goldens corrupt:
/// size 6 on a 2-cube gives four processors with real concurrency.
fn l1_codegen() -> (loom_loopir::LoopNest, loom_codegen::gen::Codegen) {
    let w = loom_workloads::l1::workload(6);
    let p = partition(
        w.nest.space().clone(),
        w.deps.clone(),
        TimeFn::new(w.pi.clone()),
        &PartitionConfig::default(),
    )
    .unwrap();
    let m = map_partitioning(&p, 2).unwrap();
    let cg = generate(&w.nest, &p, m.assignment(), 4).unwrap();
    (w.nest, cg)
}

#[test]
fn golden_lc013_interleaving_deadlock() {
    let (nest, mut cg) = l1_codegen();
    cg.program =
        loom_check::mutate_program(&cg.program, loom_check::Mutation::DropSend, 1).unwrap();
    let mut stats = loom_check::InterleaveStats::default();
    let report = Report::from_diagnostics(loom_check::check_interleavings(&nest, &cg, &mut stats));
    snapshot(
        "LC013",
        &report,
        r#"error[LC013] trace P1:0..3 P3:0..5 P1:3..10 P0:0..4 P2:0..5 P3:5..11 P1:10..17 P0:4..7 P2:5..9: deadlock reachable after 44 ops (9 macro-steps): P1 waits for (source point 15, dep 1); P2 waits for (source point 16, dep 0); P3 waits for (source point 14, dep 0); no enabled processor remains
info[LC013] P1 op 17: P1 blocks here: receive of (source point 15, dep 1) is never satisfied in this interleaving
info[LC013] P2 op 9: P2 blocks here: receive of (source point 16, dep 0) is never satisfied in this interleaving
info[LC013] P3 op 11: P3 blocks here: receive of (source point 14, dep 0) is never satisfied in this interleaving
check: 1 error(s), 0 warning(s), 3 note(s)
"#,
        r#"{
  "diagnostics": [
    {
      "rule": "LC013",
      "name": "interleaving-deadlock",
      "severity": "error",
      "span": {
        "kind": "trace",
        "steps": [
          [
            1,
            0,
            3
          ],
          [
            3,
            0,
            5
          ],
          [
            1,
            3,
            10
          ],
          [
            0,
            0,
            4
          ],
          [
            2,
            0,
            5
          ],
          [
            3,
            5,
            11
          ],
          [
            1,
            10,
            17
          ],
          [
            0,
            4,
            7
          ],
          [
            2,
            5,
            9
          ]
        ]
      },
      "message": "deadlock reachable after 44 ops (9 macro-steps): P1 waits for (source point 15, dep 1); P2 waits for (source point 16, dep 0); P3 waits for (source point 14, dep 0); no enabled processor remains"
    },
    {
      "rule": "LC013",
      "name": "interleaving-deadlock",
      "severity": "info",
      "span": {
        "kind": "program_op",
        "proc": 1,
        "op": 17
      },
      "message": "P1 blocks here: receive of (source point 15, dep 1) is never satisfied in this interleaving"
    },
    {
      "rule": "LC013",
      "name": "interleaving-deadlock",
      "severity": "info",
      "span": {
        "kind": "program_op",
        "proc": 2,
        "op": 9
      },
      "message": "P2 blocks here: receive of (source point 16, dep 0) is never satisfied in this interleaving"
    },
    {
      "rule": "LC013",
      "name": "interleaving-deadlock",
      "severity": "info",
      "span": {
        "kind": "program_op",
        "proc": 3,
        "op": 11
      },
      "message": "P3 blocks here: receive of (source point 14, dep 0) is never satisfied in this interleaving"
    }
  ],
  "counts": {
    "LC013": 4
  },
  "errors": 1,
  "warnings": 0
}
"#,
    );
}

#[test]
fn golden_lc014_interleaving_determinacy() {
    let (nest, mut cg) = l1_codegen();
    cg.program =
        loom_check::mutate_program(&cg.program, loom_check::Mutation::SwapSendEarlier, 1).unwrap();
    let mut stats = loom_check::InterleaveStats::default();
    let report = Report::from_diagnostics(loom_check::check_interleavings(&nest, &cg, &mut stats));
    snapshot(
        "LC014",
        &report,
        r#"error[LC014] element A(3,4): replayed interleaving computes Some(105.09375) but the sequential oracle computes Some(212.96875); the parallel program is not equivalent to the nest
check: 1 error(s), 0 warning(s), 0 note(s)
"#,
        r#"{
  "diagnostics": [
    {
      "rule": "LC014",
      "name": "interleaving-determinacy",
      "severity": "error",
      "span": {
        "kind": "element",
        "array": "A",
        "element": [
          3,
          4
        ]
      },
      "message": "replayed interleaving computes Some(105.09375) but the sequential oracle computes Some(212.96875); the parallel program is not equivalent to the nest"
    }
  ],
  "counts": {
    "LC014": 1
  },
  "errors": 1,
  "warnings": 0
}
"#,
    );
}

#[test]
fn golden_lc015_block_access_bounds() {
    let (nest, mut cg) = l1_codegen();
    let first_compute = cg
        .program
        .per_proc
        .iter_mut()
        .flat_map(|ops| ops.iter_mut())
        .find_map(|op| match op {
            Op::Compute { point } => Some(point),
            _ => None,
        })
        .unwrap();
    *first_compute = 10_000;
    let mut stats = loom_check::AbsintStats::default();
    let report = Report::from_diagnostics(loom_check::check_block_bounds(&nest, &cg, &mut stats));
    snapshot(
        "LC015",
        &report,
        r#"error[LC015] P0 op 1: compute names point 10000 but the iteration table has 36 entries
check: 1 error(s), 0 warning(s), 0 note(s)
"#,
        r#"{
  "diagnostics": [
    {
      "rule": "LC015",
      "name": "block-access-bounds",
      "severity": "error",
      "span": {
        "kind": "program_op",
        "proc": 0,
        "op": 1
      },
      "message": "compute names point 10000 but the iteration table has 36 entries"
    }
  ],
  "counts": {
    "LC015": 1
  },
  "errors": 1,
  "warnings": 0
}
"#,
    );
}

/// SARIF golden: the exact document `loom check --format sarif` emits
/// for the committed non-uniform sample.
#[test]
fn golden_sarif_nonuniform() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../samples/nonuniform.loom"
    ))
    .unwrap();
    let nest = loom_loopir::parse::parse_nest("nonuniform.loom", &src).unwrap();
    let report = Report::from_diagnostics(check_access_dependences(&nest, None));
    let sarif = report
        .to_sarif(Some("samples/nonuniform.loom"))
        .render_pretty();
    if std::env::var("GOLDEN_DUMP").is_ok() {
        println!("=== SARIF ===\n{sarif}\n");
        return;
    }
    let expected = r#"{
  "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
  "version": "2.1.0",
  "runs": [
    {
      "tool": {
        "driver": {
          "name": "loom-check",
          "version": "0.1.0",
          "informationUri": "https://example.invalid/loom/docs/CHECKS.md",
          "rules": [
            {
              "id": "LC001",
              "name": "schedule-legality",
              "shortDescription": {
                "text": "schedule-legality"
              }
            },
            {
              "id": "LC002",
              "name": "block-shared-step",
              "shortDescription": {
                "text": "block-shared-step"
              }
            },
            {
              "id": "LC003",
              "name": "neighbor-bound",
              "shortDescription": {
                "text": "neighbor-bound"
              }
            },
            {
              "id": "LC004",
              "name": "gray-adjacency",
              "shortDescription": {
                "text": "gray-adjacency"
              }
            },
            {
              "id": "LC005",
              "name": "data-race",
              "shortDescription": {
                "text": "data-race"
              }
            },
            {
              "id": "LC006",
              "name": "grouping-rank",
              "shortDescription": {
                "text": "grouping-rank"
              }
            },
            {
              "id": "LC007",
              "name": "unmatched-message",
              "shortDescription": {
                "text": "unmatched-message"
              }
            },
            {
              "id": "LC008",
              "name": "fault-plan",
              "shortDescription": {
                "text": "fault-plan"
              }
            },
            {
              "id": "LC009",
              "name": "parametric-legality",
              "shortDescription": {
                "text": "parametric-legality"
              }
            },
            {
              "id": "LC010",
              "name": "access-dependence",
              "shortDescription": {
                "text": "access-dependence"
              }
            },
            {
              "id": "LC011",
              "name": "protocol-summary",
              "shortDescription": {
                "text": "protocol-summary"
              }
            },
            {
              "id": "LC012",
              "name": "blocking-cycle",
              "shortDescription": {
                "text": "blocking-cycle"
              }
            },
            {
              "id": "LC013",
              "name": "interleaving-deadlock",
              "shortDescription": {
                "text": "interleaving-deadlock"
              }
            },
            {
              "id": "LC014",
              "name": "interleaving-determinacy",
              "shortDescription": {
                "text": "interleaving-determinacy"
              }
            },
            {
              "id": "LC015",
              "name": "block-access-bounds",
              "shortDescription": {
                "text": "block-access-bounds"
              }
            },
            {
              "id": "LC016",
              "name": "uniformize-soundness",
              "shortDescription": {
                "text": "uniformize-soundness"
              }
            },
            {
              "id": "LC017",
              "name": "uniformize-tightness",
              "shortDescription": {
                "text": "uniformize-tightness"
              }
            },
            {
              "id": "LC018",
              "name": "uniformize-legality",
              "shortDescription": {
                "text": "uniformize-legality"
              }
            },
            {
              "id": "LP001",
              "name": "lex-invalid-char",
              "shortDescription": {
                "text": "lex-invalid-char"
              }
            },
            {
              "id": "LP002",
              "name": "lex-int-overflow",
              "shortDescription": {
                "text": "lex-int-overflow"
              }
            },
            {
              "id": "LP003",
              "name": "parse-expected",
              "shortDescription": {
                "text": "parse-expected"
              }
            },
            {
              "id": "LP004",
              "name": "parse-unknown-index",
              "shortDescription": {
                "text": "parse-unknown-index"
              }
            },
            {
              "id": "LP005",
              "name": "parse-non-affine",
              "shortDescription": {
                "text": "parse-non-affine"
              }
            },
            {
              "id": "LP006",
              "name": "parse-bad-step",
              "shortDescription": {
                "text": "parse-bad-step"
              }
            },
            {
              "id": "LP007",
              "name": "parse-invalid-nest",
              "shortDescription": {
                "text": "parse-invalid-nest"
              }
            },
            {
              "id": "LP008",
              "name": "resource-limit",
              "shortDescription": {
                "text": "resource-limit"
              }
            }
          ]
        }
      },
      "results": [
        {
          "ruleId": "LC016",
          "ruleIndex": 15,
          "level": "note",
          "message": {
            "text": "accesses A[2i] and A[i]: cover certified: every conflict distance is a non-negative integer combination of [[1]] (2 escape system(s) refuted)"
          },
          "locations": [
            {
              "logicalLocations": [
                {
                  "fullyQualifiedName": "accesses A[2i] and A[i]"
                }
              ],
              "physicalLocation": {
                "artifactLocation": {
                  "uri": "samples/nonuniform.loom"
                },
                "region": {
                  "startLine": 1,
                  "startColumn": 1
                }
              }
            }
          ]
        },
        {
          "ruleId": "LC017",
          "ruleIndex": 16,
          "level": "warning",
          "message": {
            "text": "accesses A[2i] and A[i]: synthesized vector (1) over-approximates: iterations (2) and (3) never conflict on `A`, yet the folded nest synchronizes them; legal-Π census over [-2,2]^1: true relation admits 2 (best 8 step(s)), folded set admits 2 (best 8 step(s))"
          },
          "locations": [
            {
              "logicalLocations": [
                {
                  "fullyQualifiedName": "accesses A[2i] and A[i]"
                }
              ],
              "physicalLocation": {
                "artifactLocation": {
                  "uri": "samples/nonuniform.loom"
                },
                "region": {
                  "startLine": 1,
                  "startColumn": 1
                }
              }
            }
          ]
        }
      ]
    }
  ]
}
"#;
    assert_eq!(sarif, expected, "SARIF rendering drifted");
}
