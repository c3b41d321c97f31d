//! Golden paper artifacts: the stdout of every quick repro binary, one
//! recorded document per binary under `tests/golden/`. The binaries
//! regenerate the paper's tables and figures and the ablations around
//! them; a change to one of these documents is a change to a reported
//! result and must be deliberate.
//!
//! To regenerate after such a change, run
//! `LOOM_GOLDEN_BLESS=1 cargo test -p loom-bench --test repro_golden`
//! and review the diff under `tests/golden/`.

use std::path::Path;
use std::process::Command;

/// Each binary's name under `tests/golden/` and its executable.
const REPROS: &[(&str, &str)] = &[
    ("fig1", env!("CARGO_BIN_EXE_repro_fig1")),
    ("fig3", env!("CARGO_BIN_EXE_repro_fig3")),
    ("fig456", env!("CARGO_BIN_EXE_repro_fig456")),
    ("fig7", env!("CARGO_BIN_EXE_repro_fig7")),
    ("fig8", env!("CARGO_BIN_EXE_repro_fig8")),
    ("table1", env!("CARGO_BIN_EXE_repro_table1")),
    ("grain", env!("CARGO_BIN_EXE_repro_grain")),
    ("scaling", env!("CARGO_BIN_EXE_repro_scaling")),
    ("topologies", env!("CARGO_BIN_EXE_repro_topologies")),
    ("contention", env!("CARGO_BIN_EXE_repro_contention")),
    ("faults", env!("CARGO_BIN_EXE_repro_faults")),
    ("baselines", env!("CARGO_BIN_EXE_repro_baselines")),
    (
        "ablation_mapping",
        env!("CARGO_BIN_EXE_repro_ablation_mapping"),
    ),
    (
        "ablation_grouping",
        env!("CARGO_BIN_EXE_repro_ablation_grouping"),
    ),
];

fn stdout_of(exe: &str) -> String {
    let out = Command::new(exe)
        .env_remove("LOOM_METRICS_DIR")
        .env_remove("LOOM_BENCH_HISTORY")
        .env_remove("LOOM_FLIGHT_DIR")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{exe} exited with {}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn repro_stdout_matches_the_golden_documents() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let bless = std::env::var_os("LOOM_GOLDEN_BLESS").is_some();
    let mut drifted = Vec::new();
    for &(name, exe) in REPROS {
        let stdout = stdout_of(exe);
        let path = dir.join(format!("{name}.txt"));
        if bless {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, &stdout).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|_| panic!("golden {} (bless it first)", path.display()));
        if stdout != want {
            drifted.push(format!("--- {name} golden\n{want}+++ {name} now\n{stdout}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "repro output drifted from {}:\n{}",
        dir.display(),
        drifted.join("\n")
    );
}
