//! End-to-end tests of the `loom` binary itself.

use std::process::Command;

fn loom(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_loom"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn usage_on_no_args() {
    let (_, err, ok) = loom(&[]);
    assert!(!ok);
    assert!(err.contains("usage: loom"));
}

#[test]
fn workloads_lists_all() {
    let (out, _, ok) = loom(&["workloads"]);
    assert!(ok);
    for name in [
        "l1",
        "matmul",
        "matvec",
        "conv1d",
        "sor",
        "transitive",
        "dft",
        "conv2d",
        "triangular",
    ] {
        assert!(out.contains(name), "missing {name}:\n{out}");
    }
}

#[test]
fn partition_prints_paper_numbers() {
    let (out, _, ok) = loom(&["partition", "--workload", "l1", "--size", "4"]);
    assert!(ok);
    assert!(out.contains("33 total, 12 interblock"));
    assert!(out.contains("laws: all hold"));
}

#[test]
fn simulate_reports_makespan() {
    let (out, _, ok) = loom(&[
        "simulate",
        "--workload",
        "matvec",
        "--size",
        "16",
        "--cube",
        "2",
    ]);
    assert!(ok);
    assert!(out.contains("makespan"));
    assert!(out.contains("P3"));
}

#[test]
fn codegen_run_verifies() {
    let (out, _, ok) = loom(&[
        "codegen",
        "--workload",
        "l1",
        "--size",
        "4",
        "--cube",
        "1",
        "--run",
    ]);
    assert!(ok);
    assert!(out.contains("bit-identical"));
}

#[test]
fn codegen_run_verifies_sparse_subscripts() {
    // The subscript box of A spans 1.5e9 columns for 256 iterations: the
    // executor must index it by the elements touched, not by the box.
    let dir = std::env::temp_dir().join("loom-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sparse.loom");
    std::fs::write(
        &path,
        "for i = 0 to 15\n  for j = 0 to 15\n    A[i + 1, 100000000*j] = A[i, 100000000*j] + 1;\n",
    )
    .unwrap();
    let (out, err, ok) = loom(&[
        "codegen",
        "--file",
        path.to_str().unwrap(),
        "--cube",
        "1",
        "--run",
    ]);
    assert!(ok, "{out}{err}");
    assert!(
        out.contains("verified: bit-identical to sequential execution"),
        "{out}"
    );
}

#[test]
fn table1_matches_paper() {
    let (out, _, ok) = loom(&["table1"]);
    assert!(ok);
    assert!(out.contains("786944·t_calc + 2046·(t_comm+t_start)"));
}

#[test]
fn viz_prints_grids() {
    let (out, _, ok) = loom(&["viz", "--workload", "sor", "--size", "6"]);
    assert!(ok);
    assert!(out.contains("blocks (one letter per block):"));
    assert!(out.contains("hyperplane steps (mod 10):"));
}

#[test]
fn viz_dot_emits_graphviz() {
    let (out, _, ok) = loom(&[
        "viz",
        "--workload",
        "matmul",
        "--size",
        "4",
        "--dot",
        "--cube",
        "2",
    ]);
    assert!(ok);
    assert!(out.contains("digraph groups {"));
    assert!(out.contains("graph tig {"));
    assert!(out.contains("subgraph cluster_p0"));
}

#[test]
fn file_frontend_works() {
    let dir = std::env::temp_dir().join("loom-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.loom");
    std::fs::write(&path, "for i = 0 to 7\n A[i+1] = A[i] + 1;\n").unwrap();
    let (out, _, ok) = loom(&["partition", "--file", path.to_str().unwrap()]);
    assert!(ok, "partition on file failed:\n{out}");
    assert!(out.contains("D = [[1]]"));
    // A fully serial chain: one block, zero interblock arcs.
    assert!(out.contains("1 blocks"));
}

#[test]
fn bad_workload_fails_cleanly() {
    let (_, err, ok) = loom(&["partition", "--workload", "nope"]);
    assert!(!ok);
    assert!(err.contains("unknown workload"));
}

#[test]
fn bad_file_fails_cleanly() {
    let (_, err, ok) = loom(&["partition", "--file", "/definitely/missing.loom"]);
    assert!(!ok);
    assert!(err.contains("cannot read"));
}

#[test]
fn check_clean_pipeline_exits_zero() {
    let (out, _, ok) = loom(&["check", "--workload", "sor", "--size", "8", "--cube", "2"]);
    assert!(ok, "{out}");
    assert!(out.contains("check: 0 error(s)"), "{out}");
}

#[test]
fn check_illegal_pi_reports_lc001_and_fails() {
    let (out, _, ok) = loom(&["check", "--workload", "l1", "--size", "4", "--pi", "1,-1"]);
    assert!(!ok);
    assert!(out.contains("error[LC001]"), "{out}");
    assert!(out.contains("Π·d"), "{out}");
}

#[test]
fn check_json_is_machine_readable() {
    let (out, _, ok) = loom(&[
        "check",
        "--workload",
        "l1",
        "--size",
        "4",
        "--pi",
        "1,-1",
        "--json",
    ]);
    assert!(!ok);
    assert!(out.contains("\"rule\": \"LC001\""), "{out}");
    assert!(out.contains("\"severity\": \"error\""), "{out}");
    assert!(out.contains("\"counts\""), "{out}");
}

#[test]
fn check_allow_downgrades_to_warning() {
    let (out, _, ok) = loom(&[
        "check",
        "--workload",
        "l1",
        "--size",
        "4",
        "--pi",
        "1,-1",
        "--allow",
        "LC001",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("warning[LC001]"), "{out}");
    assert!(out.contains("check: 0 error(s)"), "{out}");
}

#[test]
fn check_file_frontend_works() {
    let dir = std::env::temp_dir().join("loom-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("check.loom");
    std::fs::write(&path, "for i = 0 to 7\n A[i+1] = A[i] + 1;\n").unwrap();
    let (out, _, ok) = loom(&["check", "--file", path.to_str().unwrap(), "--cube", "0"]);
    assert!(ok, "{out}");
    assert!(out.contains("check: 0 error(s)"), "{out}");
}

#[test]
fn sim_fault_plan_honors_allow_lc008() {
    // A plan with an inverted window is an LC008 error, but the window
    // simply never applies at runtime — the canonical case for
    // `--allow LC008`. The suppression path must be uniform with every
    // other rule (the plan gate routes through the same Report).
    let dir = std::env::temp_dir().join("loom-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("inverted.json");
    std::fs::write(
        &path,
        r#"{"events": [{"kind": "proc_slow", "proc": 0, "factor": 2, "at": 10, "until": 5}]}"#,
    )
    .unwrap();
    let base = [
        "sim",
        "--workload",
        "l1",
        "--size",
        "4",
        "--cube",
        "1",
        "--fault-plan",
        path.to_str().unwrap(),
    ];
    let (_, err, ok) = loom(&base);
    assert!(!ok, "unallowed LC008 error must refuse the run");
    assert!(err.contains("error[LC008]"), "{err}");
    let mut allowed = base.to_vec();
    allowed.extend(["--allow", "LC008"]);
    let (out, err, ok) = loom(&allowed);
    assert!(ok, "--allow LC008 must admit the run:\n{err}");
    assert!(err.contains("warning[LC008]"), "{err}");
    assert!(out.contains("makespan"), "{out}");
}

#[test]
fn check_explain_prints_catalog_entry() {
    let (out, _, ok) = loom(&["check", "--explain", "LC013"]);
    assert!(ok);
    assert!(out.contains("interleaving-deadlock"), "{out}");
    assert!(out.contains("DPOR"), "{out}");
    assert!(out.contains("docs/CHECKS.md"), "{out}");
    let (_, err, ok) = loom(&["check", "--explain", "LC099"]);
    assert!(!ok);
    assert!(err.contains("LC001 through LC018"), "{err}");
}

#[test]
fn check_interleave_clean_exits_zero() {
    let (out, _, ok) = loom(&[
        "check",
        "--workload",
        "l1",
        "--size",
        "6",
        "--cube",
        "2",
        "--interleave",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("check: 0 error(s)"), "{out}");
}

#[test]
fn check_corrupt_drop_send_reports_lc013_trace() {
    let (out, _, ok) = loom(&[
        "check",
        "--workload",
        "l1",
        "--size",
        "6",
        "--cube",
        "2",
        "--corrupt",
        "drop-send",
    ]);
    assert!(!ok);
    assert!(out.contains("error[LC013]"), "{out}");
    assert!(out.contains("trace"), "{out}");
    assert!(out.contains("deadlock"), "{out}");
}

#[test]
fn check_symbolic_and_interleave_conflict() {
    let (_, err, ok) = loom(&[
        "check",
        "--workload",
        "l1",
        "--size",
        "4",
        "--cube",
        "1",
        "--symbolic",
        "--interleave",
    ]);
    assert!(!ok);
    assert!(err.contains("mutually exclusive"), "{err}");
}

#[test]
fn explore_ranks() {
    let (out, _, ok) = loom(&[
        "explore",
        "--workload",
        "l1",
        "--size",
        "4",
        "--cubes",
        "1",
        "--top",
        "3",
    ]);
    assert!(ok);
    assert!(out.contains("rank"));
    assert!(out.contains("makespan"));
}

/// The rows of a ranking table, one cell per column.
fn ranking_rows(out: &str) -> Vec<Vec<String>> {
    out.lines()
        .skip_while(|l| !l.starts_with("----"))
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .map(|l| {
            l.split("  ")
                .map(str::trim)
                .filter(|c| !c.is_empty())
                .map(String::from)
                .collect()
        })
        .collect()
}

#[test]
fn explore_costs_under_the_simulator_switches() {
    // matmul 4 ranks differently under contention and under batching;
    // each must be the reference explorer's ranking under the same
    // machine options, and `--validate` must not change it.
    use loom_core::explore::{explore_reference, ExploreConfig};
    use loom_core::pipeline::MachineOptions;
    let nest = loom_workloads::matmul::workload(4).nest;
    let base = ["explore", "--workload", "matmul", "--size", "4"];
    let (plain, _, ok) = loom(&base);
    assert!(ok, "{plain}");
    for (flags, machine) in [
        (
            &["--contention"][..],
            MachineOptions {
                link_contention: true,
                ..Default::default()
            },
        ),
        (
            &["--batch", "--validate"][..],
            MachineOptions {
                batch_messages: true,
                validate_trace: true,
                ..Default::default()
            },
        ),
    ] {
        let (out, err, ok) = loom(&[&base[..], flags].concat());
        assert!(ok, "{flags:?}: {err}");
        assert_ne!(out, plain, "{flags:?} must change the ranking here");
        let config = ExploreConfig {
            machine,
            ..Default::default()
        };
        let want: Vec<Vec<String>> = explore_reference(&nest, &[1, 2, 3], &config)
            .unwrap()
            .iter()
            .enumerate()
            .map(|(i, c)| {
                vec![
                    format!("{}", i + 1),
                    format!("{:?}", c.pi),
                    format!("D[{}]", c.grouping),
                    format!("{}", 1usize << c.cube_dim),
                    format!("{}", c.blocks),
                    format!("{}", c.makespan),
                    format!("{}", c.messages),
                ]
            })
            .collect();
        assert!(!want.is_empty());
        assert_eq!(ranking_rows(&out), want, "{flags:?}");
    }
}

/// The `makespan` a `simulate` run or a `profile --json` run reports.
fn makespan_of(out: &str) -> u64 {
    let line = out
        .lines()
        .find(|l| {
            l.trim_start()
                .trim_start_matches('"')
                .starts_with("makespan")
        })
        .unwrap_or_else(|| panic!("no makespan in:\n{out}"));
    let digits: String = line.chars().filter(char::is_ascii_digit).collect();
    digits.parse().unwrap()
}

#[test]
fn profile_and_simulate_agree_on_the_grouping_choice() {
    let base = [
        "--workload",
        "matmul",
        "--size",
        "4",
        "--cube",
        "2",
        "--grouping",
        "1",
    ];
    let (sim, _, ok) = loom(&[&["simulate"][..], &base].concat());
    assert!(ok, "{sim}");
    let (prof, err, ok) = loom(&[&["profile"][..], &base, &["--json"]].concat());
    assert!(ok, "{err}");
    assert_eq!(makespan_of(&sim), 1193);
    assert_eq!(makespan_of(&prof), makespan_of(&sim));
}

#[test]
fn symbolic_explore_ranks_the_same_nest_as_plain_explore() {
    // Secondary extents below the family clamp (conv2d taps ≥ 1, heat2d
    // grid ≥ 2) and a plain builtin: both rankings must cost one nest.
    // These targets are small enough to be ranked by simulation; a
    // one-point budget prices them out, so every candidate goes through
    // the derivation instead. On either path the explorer rejects a
    // family whose target is not the CLI's nest, so a diverging family
    // fails the run.
    let cases: [&[&str]; 3] = [
        &["--workload", "conv2d", "--size", "3", "--size2", "0"],
        &["--workload", "heat2d", "--size", "3", "--size2", "1"],
        &["--workload", "matvec", "--size", "12", "--pi-bound", "2"],
    ];
    std::thread::scope(|s| {
        let runs: Vec<_> = cases
            .iter()
            .map(|case| {
                s.spawn(move || {
                    let (plain, _, ok) = loom(&[&["explore"][..], case].concat());
                    assert!(ok, "{plain}");
                    let symbolic = [
                        &["--symbolic"][..],
                        &["--symbolic", "--symbolic-budget", "1"],
                    ]
                    .map(|flags| {
                        let (out, err, ok) = loom(&[&["explore"][..], case, flags].concat());
                        assert!(ok, "{case:?} {flags:?}: {err}");
                        out
                    });
                    (case, plain, symbolic)
                })
            })
            .collect();
        for run in runs {
            let (case, plain, symbolic) = run.join().unwrap();
            assert!(
                plain.lines().count() > 3,
                "{case:?}: empty ranking\n{plain}"
            );
            for out in symbolic {
                assert_eq!(plain, out, "{case:?}");
            }
        }
    });
}

#[test]
fn trace_out_without_a_simulation_is_a_usage_error() {
    for cmd in ["check", "explore"] {
        let out = Command::new(env!("CARGO_BIN_EXE_loom"))
            .args([
                cmd,
                "--workload",
                "l1",
                "--size",
                "4",
                "--trace-out",
                "t.json",
            ])
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {err}");
        assert!(
            err.contains("--trace-out applies to simulate and profile"),
            "{err}"
        );
    }
}

#[test]
fn out_of_range_numeric_flags_are_usage_errors() {
    // Every bounded numeric flag refuses a value below its minimum with
    // exit 2 and a message naming the flag, instead of running a
    // different configuration.
    let faults = concat!(env!("CARGO_MANIFEST_DIR"), "/../../samples/faults.json");
    let sim = ["simulate", "--workload", "l1", "--size", "4"];
    let cases: &[(&[&str], &str)] = &[
        (&[&sim[..], &["--t-calc", "-1"]].concat(), "--t-calc"),
        (&[&sim[..], &["--t-start", "-50"]].concat(), "--t-start"),
        (&[&sim[..], &["--t-comm", "-1"]].concat(), "--t-comm"),
        (&[&sim[..], &["--t-recv", "-1"]].concat(), "--t-recv"),
        (&[&sim[..], &["--cube", "-1"]].concat(), "--cube"),
        (
            &[
                &sim[..],
                &["--cube", "2", "--fault-plan", faults, "--fault-seed", "-1"],
            ]
            .concat(),
            "--fault-seed",
        ),
        (
            &[
                "check",
                "--workload",
                "l1",
                "--size",
                "4",
                "--corrupt",
                "drop-send",
                "--corrupt-seed",
                "-1",
            ],
            "--corrupt-seed",
        ),
        (
            &["explore", "--workload", "l1", "--pi-bound", "-1"],
            "--pi-bound",
        ),
        (&["explore", "--workload", "l1", "--top", "0"], "--top"),
        (
            &["explore", "--workload", "l1", "--threads", "-1"],
            "--threads",
        ),
        (
            &["explore", "--workload", "l1", "--cubes", "1,-1"],
            "--cubes",
        ),
        (&["profile", "--workload", "l1", "--top", "0"], "--top"),
        (
            &["obs", "diff", "a.json", "b.json", "--threshold", "-1"],
            "--threshold",
        ),
        (&["table1", "--m", "-4"], "--m"),
    ];
    for (args, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_loom"))
            .args(*args)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(flag), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

/// The processors a `map` table names, in row order.
fn mapped_procs(out: &str) -> Vec<String> {
    out.lines()
        .filter(|l| l.starts_with('B'))
        .filter_map(|l| l.split_whitespace().nth(2).map(String::from))
        .collect()
}

#[test]
fn map_codegen_and_viz_read_the_simulated_placement() {
    let ring = ["--workload", "matvec", "--size", "8", "--ring", "4"];
    let (out, err, ok) = loom(&[&["map"][..], &ring].concat());
    assert!(ok, "{err}");
    let mut procs = mapped_procs(&out);
    procs.sort();
    procs.dedup();
    assert_eq!(procs, ["P0", "P1", "P2", "P3"], "{out}");
    assert!(out.contains("quality: remote="), "{out}");
    // A hypercube still names its nodes by binary address.
    let (out, _, ok) = loom(&["map", "--workload", "matvec", "--size", "8", "--cube", "2"]);
    assert!(ok);
    assert!(mapped_procs(&out).iter().all(|p| p.len() == 3), "{out}");

    let (out, err, ok) = loom(&[&["viz", "--dot"][..], &ring].concat());
    assert!(ok, "{err}");
    assert!(out.contains("subgraph cluster_p3"), "{out}");
    let (out, err, ok) = loom(&[&["codegen", "--run"][..], &ring].concat());
    assert!(ok, "{err}");
    assert!(out.contains("P3"), "{out}");
    assert!(out.contains("verified: bit-identical"), "{out}");
}

#[test]
fn mesh_and_ring_ignore_the_cube_dimension() {
    let ring = ["simulate", "--workload", "l1", "--size", "4", "--ring", "2"];
    let (want, err, ok) = loom(&ring);
    assert!(ok, "{err}");
    let (got, err, ok) = loom(&[&ring[..], &["--cube", "3"]].concat());
    assert!(ok, "{err}");
    assert_eq!(got, want);
}

#[test]
fn check_and_explore_refuse_mesh_and_ring() {
    for cmd in ["check", "explore"] {
        for target in [["--mesh", "2x2"], ["--ring", "2"]] {
            let out = Command::new(env!("CARGO_BIN_EXE_loom"))
                .args([cmd, "--workload", "l1", "--size", "4"])
                .args(target)
                .output()
                .expect("binary runs");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{cmd} {target:?}: {err}");
            assert!(
                err.contains(&format!(
                    "--mesh and --ring apply to map, simulate, codegen, viz and profile, not {cmd}"
                )),
                "{err}"
            );
            assert!(out.stdout.is_empty(), "{cmd} {target:?} ran anyway");
        }
    }
}

#[test]
fn shapes_that_do_not_fit_fail_cleanly() {
    let faults = format!("{}/../../samples/faults.json", env!("CARGO_MANIFEST_DIR"));
    let huge_mesh = "4294967296x4294967296";
    for (flags, msg) in [
        (&["--cube", "64"][..], "cannot split 4 blocks into 2^64"),
        (
            &["--cube", "64", "--fault-plan", &faults],
            "Hypercube(64) has more processors than a machine word counts",
        ),
        (&["--mesh", huge_mesh], "cannot split 4 blocks into 2^64"),
        (
            &["--mesh", huge_mesh, "--fault-plan", &faults],
            "Mesh { rows: 4294967296, cols: 4294967296 } has more processors",
        ),
        (
            &["--ring", "6"],
            "cannot map onto Ring(6): mesh and ring extents must be powers of two",
        ),
        (
            &["--mesh", "3x2"],
            "cannot map onto Mesh { rows: 3, cols: 2 }: mesh and ring extents must be powers of two",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_loom"))
            .args(["simulate", "--workload", "l1", "--size", "4"])
            .args(flags)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {err}");
        assert!(err.contains(msg), "{flags:?}: {err}");
        assert!(!err.contains("panicked"), "{flags:?}: {err}");
    }
}

/// Partitioning does not depend on the machine: `partition` prints its
/// blocks for a machine the blocks could not fill.
#[test]
fn partition_ignores_the_machine() {
    for target in [["--ring", "8"], ["--cube", "5"]] {
        let args = [
            &["partition", "--workload", "l1", "--size", "4", "--blocks"][..],
            &target,
        ]
        .concat();
        let (out, err, ok) = loom(&args);
        assert!(ok, "{target:?}: {err}");
        let blocks = out.lines().filter(|l| l.starts_with("  B")).count();
        assert_eq!(blocks, 4, "{target:?}: {out}");
        assert!(out.contains("4 blocks"), "{out}");
        let (plain, _, _) = loom(&args[..args.len() - 2]);
        assert_eq!(out, plain, "{target:?}");
    }
}

#[test]
fn zero_projection_is_no_grouping_vector() {
    // heat2d's D[2] and triangular's D[0] are parallel to their Π, at
    // β = 2 and β = 1.
    for args in [
        "partition --workload heat2d --size 4 --pi 1,0,0 --grouping 2",
        "partition --workload triangular --size 5 --pi 0,1 --grouping 0",
    ] {
        let (_, err, ok) = loom(&args.split(' ').collect::<Vec<_>>());
        assert!(!ok, "{args}");
        assert!(
            err.contains("is parallel to Π: its projection is zero"),
            "{args}: {err}"
        );
    }
}
