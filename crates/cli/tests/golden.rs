//! Golden CLI contract: the stdout and exit code of `loom` over a fixed
//! grid of command lines — every subcommand on the builtin workloads and
//! on every committed sample nest, corrupt ones included. The recorded
//! document is `tests/golden/cli.txt`; a change to it is a change to the
//! CLI's observable behaviour and must be deliberate.
//!
//! To regenerate after such a change, run
//! `LOOM_GOLDEN_BLESS=1 cargo test -p loom-cli --test golden`
//! and review the diff of `tests/golden/cli.txt`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Builtins at sizes small enough for a debug build, with a cube each
/// one has enough blocks for.
const BUILTINS: &[(&str, &str)] = &[
    ("l1", "4"),
    ("matmul", "3"),
    ("matvec", "8"),
    ("conv1d", "6"),
    ("sor", "5"),
    ("transitive", "3"),
    ("dft", "6"),
    ("conv2d", "3"),
    ("triangular", "5"),
    ("heat2d", "3"),
];

/// Builtins whose closed-form ranking is cheap enough to derive in a
/// debug build at the sizes above.
const SYMBOLIC_BUILTINS: &[&str] = &["l1", "matvec", "dft", "heat2d"];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn samples() -> Vec<String> {
    let mut files = Vec::new();
    for dir in ["samples", "samples/corrupt"] {
        let mut here: Vec<String> = std::fs::read_dir(root().join(dir))
            .expect("samples directory")
            .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
            .filter(|name| name.ends_with(".loom"))
            .map(|name| format!("{dir}/{name}"))
            .collect();
        here.sort();
        files.extend(here);
    }
    files
}

fn grid() -> Vec<Vec<String>> {
    let mut g: Vec<Vec<&str>> = vec![
        vec!["workloads"],
        vec!["table1"],
        vec!["table1", "--m", "64", "--t-start", "20"],
    ];
    let builtin = |cmd: &str, w: &str, s: &str, extra: &[&'static str]| -> Vec<String> {
        let mut v = vec![cmd.to_string(), "--workload".into(), w.into()];
        v.extend(["--size".to_string(), s.to_string()]);
        v.extend(extra.iter().map(|x| x.to_string()));
        v
    };
    let mut owned: Vec<Vec<String>> = Vec::new();
    for &(w, s) in BUILTINS {
        owned.push(builtin("partition", w, s, &[]));
        owned.push(builtin("map", w, s, &["--cube", "1"]));
        owned.push(builtin("simulate", w, s, &["--cube", "1"]));
        owned.push(builtin("codegen", w, s, &["--cube", "1", "--run"]));
        owned.push(builtin("viz", w, s, &[]));
        owned.push(builtin("profile", w, s, &["--cube", "1", "--json"]));
        owned.push(builtin("explore", w, s, &[]));
        owned.push(builtin("check", w, s, &["--cube", "1"]));
        if SYMBOLIC_BUILTINS.contains(&w) {
            owned.push(builtin("explore", w, s, &["--symbolic"]));
        }
    }
    // Aliases resolve to the same nests as their canonical names.
    for (alias, s) in [
        ("conv", "6"),
        ("stencil", "5"),
        ("tc", "3"),
        ("tri", "5"),
        ("heat", "3"),
    ] {
        owned.push(builtin("partition", alias, s, &["--size2", "2"]));
    }
    g.extend([
        // Simulator options.
        vec![
            "simulate",
            "--workload",
            "matvec",
            "--size",
            "16",
            "--cube",
            "2",
            "--batch",
            "--contention",
        ],
        vec![
            "sim",
            "--workload",
            "matvec",
            "--size",
            "8",
            "--mesh",
            "2x2",
        ],
        vec![
            "simulate",
            "--workload",
            "sor",
            "--size",
            "6",
            "--ring",
            "2",
            "--validate",
        ],
        vec![
            "simulate",
            "--workload",
            "matvec",
            "--size",
            "16",
            "--cube",
            "2",
            "--fault-plan",
            "samples/faults.json",
            "--fault-seed",
            "1991",
            "--recovery",
            "remap",
        ],
        vec![
            "simulate",
            "--workload",
            "l1",
            "--size",
            "6",
            "--cube",
            "1",
            "--t-calc",
            "3",
            "--t-start",
            "7",
            "--t-comm",
            "2",
            "--metrics-out",
            "/dev/null",
            "--trace-out",
            "/dev/null",
            "--flame-out",
            "/dev/null",
        ],
        // Partition details and explicit Π / grouping.
        vec!["partition", "--workload", "l1", "--size", "4", "--blocks"],
        vec![
            "partition",
            "--workload",
            "sor",
            "--size",
            "6",
            "--size2",
            "4",
            "--pi",
            "2,1",
            "--grouping",
            "1",
        ],
        vec![
            "viz",
            "--workload",
            "matmul",
            "--size",
            "3",
            "--dot",
            "--cube",
            "2",
        ],
        // `profile` and `simulate` must agree on the grouping choice.
        vec![
            "simulate",
            "--workload",
            "matmul",
            "--size",
            "4",
            "--cube",
            "2",
            "--grouping",
            "1",
        ],
        vec![
            "profile",
            "--workload",
            "matmul",
            "--size",
            "4",
            "--cube",
            "2",
            "--grouping",
            "1",
            "--json",
        ],
        vec![
            "profile",
            "--workload",
            "matvec",
            "--size",
            "8",
            "--cube",
            "2",
            "--top",
            "2",
        ],
        // Explore options; the secondary extent below the family clamp.
        vec![
            "explore",
            "--workload",
            "matvec",
            "--size",
            "8",
            "--cubes",
            "0,1",
            "--pi-bound",
            "2",
            "--top",
            "4",
            "--no-prune",
        ],
        vec![
            "explore",
            "--workload",
            "matvec",
            "--size",
            "12",
            "--pi-bound",
            "2",
        ],
        vec![
            "explore",
            "--workload",
            "matvec",
            "--size",
            "12",
            "--pi-bound",
            "2",
            "--symbolic",
        ],
        vec![
            "explore",
            "--workload",
            "matvec",
            "--size",
            "10",
            "--symbolic",
            "--symbolic-budget",
            "1",
        ],
        vec![
            "explore",
            "--workload",
            "conv2d",
            "--size",
            "3",
            "--size2",
            "0",
        ],
        vec![
            "explore",
            "--workload",
            "heat2d",
            "--size",
            "3",
            "--size2",
            "1",
        ],
        vec![
            "explore",
            "--workload",
            "heat2d",
            "--size",
            "3",
            "--size2",
            "1",
            "--symbolic",
        ],
        // `--trace-out` where no trace exists.
        vec![
            "check",
            "--workload",
            "l1",
            "--size",
            "4",
            "--trace-out",
            "/dev/null",
        ],
        vec![
            "explore",
            "--workload",
            "l1",
            "--size",
            "4",
            "--trace-out",
            "/dev/null",
        ],
        // Check options.
        vec!["check", "--workload", "l1", "--size", "4", "--pi", "1,-1"],
        vec![
            "check",
            "--workload",
            "l1",
            "--size",
            "4",
            "--pi",
            "1,-1",
            "--allow",
            "LC001",
            "--symbolic",
        ],
        vec!["check", "--explain", "LC016"],
        vec!["check", "--explain", "LC099"],
        vec!["check", "--workload", "l1", "--symbolic", "--interleave"],
        vec!["check", "--workload", "l1", "--corrupt", "bogus"],
        vec![
            "check",
            "--workload",
            "matvec",
            "--size",
            "8",
            "--cube",
            "2",
            "--corrupt",
            "swap",
            "--corrupt-seed",
            "3",
        ],
        vec![
            "check",
            "--workload",
            "sor",
            "--size",
            "6",
            "--cube",
            "2",
            "--metrics-out",
            "/dev/null",
            "--flame-out",
            "/dev/null",
        ],
        // Usage and pipeline errors.
        vec![],
        vec!["bogus"],
        vec!["partition", "--workload", "nope"],
        vec!["partition", "--workload", "l1", "--pi", "0,0"],
        vec!["partition", "--workload", "l1", "--size", "huge"],
        vec!["map", "--workload", "l1", "--size", "4", "--cube", "5"],
        vec!["simulate", "--workload", "l1", "--mesh", "2by2"],
        vec!["simulate", "--workload", "l1", "--grouping", "x"],
        vec![
            "simulate",
            "--workload",
            "l1",
            "--recovery",
            "x",
            "--fault-plan",
            "samples/faults.json",
        ],
        vec!["partition", "--file", "samples/missing.loom"],
        vec!["explore", "--file", "samples/l1.loom", "--symbolic"],
        vec![
            "check",
            "--file",
            "samples/nonuniform.loom",
            "--cube",
            "0",
            "--no-uniformize",
        ],
        vec![
            "partition",
            "--file",
            "samples/corrupt/garbage.loom",
            "--allow",
            "LP001,LP002,LP003,LP004,LP005,LP006,LP007,LP008",
        ],
    ]);
    for &(w, s) in &[("l1", "6"), ("matvec", "8")] {
        for mode in [
            &[][..],
            &["--symbolic"],
            &["--interleave"],
            &["--corrupt", "drop-send"],
        ] {
            for format in ["human", "json", "sarif"] {
                let mut v = builtin("check", w, s, &["--cube", "2", "--format"]);
                v.push(format.into());
                v.extend(mode.iter().map(|x| x.to_string()));
                owned.push(v);
            }
        }
    }
    for file in samples() {
        let f = |cmd: &str, extra: &[&str]| -> Vec<String> {
            let mut v = vec![cmd.to_string(), "--file".into(), file.clone()];
            v.extend(extra.iter().map(|x| x.to_string()));
            v
        };
        owned.push(f("partition", &["--cube", "1"]));
        owned.push(f("map", &["--cube", "1"]));
        owned.push(f("simulate", &["--cube", "1"]));
        owned.push(f("profile", &["--cube", "1", "--json"]));
        owned.push(f("codegen", &["--cube", "1", "--run"]));
        owned.push(f("viz", &["--cube", "1"]));
        owned.push(f("explore", &[]));
        owned.push(f("explore", &["--symbolic"]));
        for mode in [
            &[][..],
            &["--symbolic"],
            &["--interleave"],
            &["--corrupt", "drop-send"],
        ] {
            for format in ["human", "json", "sarif"] {
                let mut extra = vec!["--cube", "1", "--format", format];
                extra.extend_from_slice(mode);
                owned.push(f("check", &extra));
            }
        }
        owned.push(f("check", &["--cube", "0"]));
    }
    let mut all: Vec<Vec<String>> = g
        .into_iter()
        .map(|v| v.into_iter().map(String::from).collect())
        .collect();
    all.extend(owned);
    // Mesh and ring targets through the subcommands that read the
    // placement.
    all.extend(
        [
            "map --workload matvec --size 8 --ring 4",
            "codegen --workload l1 --size 4 --mesh 2x2 --run",
        ]
        .map(|line| line.split(' ').map(String::from).collect()),
    );
    all
}

/// One case: the command line, then its exit code, then its stdout.
fn run(args: &[String]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_loom"))
        .args(args)
        .current_dir(root())
        .env_remove("LOOM_FLIGHT_DIR")
        .env("LOOM_THREADS", "1")
        .output()
        .expect("binary runs");
    format!(
        "$ loom {}\n[exit {}]\n{}\n",
        args.join(" "),
        out.status
            .code()
            .map_or("signal".to_string(), |c| c.to_string()),
        record(&String::from_utf8_lossy(&out.stdout))
    )
}

/// Outputs up to [`FULL_TEXT_LIMIT`] bytes are recorded verbatim; longer
/// ones (large profile JSON, generated code) by their first lines plus a
/// digest of the whole, which keeps the document reviewable.
fn record(stdout: &str) -> String {
    if stdout.len() <= FULL_TEXT_LIMIT {
        return stdout.to_string();
    }
    let hash = stdout.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let head: String = stdout.split_inclusive('\n').take(12).collect();
    format!(
        "{head}[... {} lines, {} bytes, fnv1a64 {hash:016x}]\n",
        stdout.lines().count(),
        stdout.len()
    )
}

const FULL_TEXT_LIMIT: usize = 4096;

/// Split a golden document back into its cases, keyed by command line.
fn cases(doc: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for line in doc.split_inclusive('\n') {
        if let Some(cmd) = line.strip_prefix("$ loom ") {
            out.push((cmd.trim_end().to_string(), String::new()));
        }
        if let Some((_, body)) = out.last_mut() {
            body.push_str(line);
        }
    }
    out
}

#[test]
fn cli_stdout_and_exit_codes_match_the_golden_document() {
    let grid = grid();
    let results: Vec<Mutex<String>> = grid.iter().map(|_| Mutex::new(String::new())).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(args) = grid.get(i) else { break };
                *results[i].lock().unwrap() = run(args);
            });
        }
    });
    let got: String = results
        .into_iter()
        .map(|m| m.into_inner().unwrap())
        .collect();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cli.txt");
    if std::env::var_os("LOOM_GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden document (bless it first)");
    if got == want {
        return;
    }
    let want_cases = cases(&want);
    let got_cases = cases(&got);
    let mut report = String::new();
    for (cmd, body) in &got_cases {
        match want_cases.iter().find(|(c, _)| c == cmd) {
            None => report.push_str(&format!("new case: loom {cmd}\n")),
            Some((_, w)) if w != body => report.push_str(&format!(
                "changed: loom {cmd}\n--- golden\n{w}+++ now\n{body}\n"
            )),
            Some(_) => {}
        }
    }
    for (cmd, _) in &want_cases {
        if !got_cases.iter().any(|(c, _)| c == cmd) {
            report.push_str(&format!("missing case: loom {cmd}\n"));
        }
    }
    panic!("CLI output drifted from {}:\n{report}", path.display());
}
