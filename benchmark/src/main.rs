//! The loom benchmark: end-to-end metrics of four workloads (compile,
//! explore, explore_symbolic, execute) and, traced, where their time
//! goes layer by layer. See `README.md` for how to run, compare and
//! trace.

mod calibrate;
mod compare;
mod compile;
mod execute;
mod explore;
mod metrics;
mod runner;
mod stats;
mod symbolic;
mod trace;

use loom_obs::Json;
use runner::{Outcome, RunOpts};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// The workloads, in the order a full run takes them.
const WORKLOADS: [&str; 4] = ["compile", "explore", "explore_symbolic", "execute"];

/// Environment the repository's crates read; a full run's children
/// start without it so every workload sees the same configuration.
const SCRUBBED_ENV: [&str; 4] = [
    "LOOM_THREADS",
    "LOOM_METRICS_DIR",
    "LOOM_FLIGHT_DIR",
    "LOOM_BENCH_HISTORY",
];

/// The line of a workload's output that a full run copies into the
/// result it keeps, for `--compare`.
const KNOWN_GAP: &str = "known_gap_requests";

const USAGE: &str = "usage:
  benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR] [--smoke]
  benchmark [--seed N] [--seconds S] [--runs K] [--out FILE] [--smoke]
  benchmark --compare A.json B.json [--spec BENCHMARK.json]
workloads: compile, explore, explore_symbolic, execute";

fn main() {
    match real_main() {
        Ok(true) => {}
        // `--compare` found a regression.
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<PathBuf>,
    smoke: bool,
    runs: usize,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    spec: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        trace_dir: None,
        smoke: false,
        runs: 1,
        out: None,
        compare: None,
        spec: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = parse(flag, value()?)?,
            "--seconds" => a.seconds = parse(flag, value()?)?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--trace-dir" => a.trace_dir = Some(value()?.into()),
            "--runs" => a.runs = parse(flag, value()?)?,
            "--out" => a.out = Some(value()?.into()),
            "--spec" => a.spec = value()?.into(),
            "--compare" => {
                let first = PathBuf::from(value()?);
                a.compare = Some((first, value()?.into()));
            }
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if a.runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    Ok(a)
}

fn parse<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag}: cannot parse {v}"))
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = parse_args(&argv)?;
    if let Some((before, after)) = &a.compare {
        return compare::compare(before, after, &a.spec);
    }
    let opts = RunOpts {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        trace_dir: a.trace_dir.clone(),
        smoke: a.smoke,
    };
    match &a.workload {
        Some(name) => {
            let outcome = run_workload(name, &opts)?;
            for (d, value) in &outcome.metrics {
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                println!(
                    "{:<32} {value:>18.6} {:<6} ({better} is better)",
                    d.name, d.unit
                );
            }
            println!(
                "{KNOWN_GAP} {} (requests that returned a known gap's recorded wrong answer)",
                outcome.known_gap
            );
            println!("{}", outcome_json(&outcome).render());
            Ok(true)
        }
        None => run_all(&a, &argv).map(|()| true),
    }
}

fn run_workload(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    match name {
        "compile" => runner::run::<compile::Compile>(name, opts),
        "explore" => runner::run::<explore::Explore>(name, opts),
        "explore_symbolic" => runner::run::<symbolic::ExploreSymbolic>(name, opts),
        "execute" => runner::run::<execute::Execute>(name, opts),
        other => Err(format!("unknown workload {other}")),
    }
}

fn outcome_json(o: &Outcome) -> Json {
    let metrics = o
        .metrics
        .iter()
        .map(|(d, value)| {
            let metric = vec![("value", Json::from(*value)), ("unit", Json::from(d.unit))];
            (d.name, Json::obj(metric))
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::from(o.correct)),
        ("attempted", Json::from(o.attempted)),
        ("failed", Json::from(o.failed)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// Every workload, `--runs` times, each in a fresh child process of
/// this binary, one at a time: set-up time and peak memory are per
/// workload, and only one process ever generates load.
fn run_all(a: &Args, argv: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    for run in 0..a.runs {
        let mut results = Vec::new();
        for name in WORKLOADS {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name]).args(child_args(argv));
            for var in SCRUBBED_ENV {
                cmd.env_remove(var);
            }
            let out = cmd
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("{name}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("");
            if !out.status.success() {
                return Err(format!("{name} exited with {}", out.status));
            }
            let mut result =
                Json::parse(last).map_err(|e| format!("{name}: bad result line: {e:?}"))?;
            let known_gap = stdout
                .lines()
                .find_map(|l| {
                    l.strip_prefix(KNOWN_GAP)?
                        .split_whitespace()
                        .next()?
                        .parse()
                        .ok()
                })
                .ok_or(format!("{name}: no {KNOWN_GAP} line"))?;
            if let Json::Obj(fields) = &mut result {
                fields.push(("known_gap".into(), Json::Int(known_gap)));
            }
            println!("run {} {name} ({})", run + 1, verdict(&result));
            for line in stdout.lines().filter(|l| !l.starts_with('{')) {
                println!("  {line}");
            }
            results.push((name, result));
        }
        runs.push(Json::obj(results));
    }
    let doc = Json::obj(vec![
        ("seed", Json::from(a.seed)),
        ("seconds", Json::from(a.seconds)),
        ("runs", Json::Arr(runs)),
    ]);
    if let Some(path) = &a.out {
        std::fs::write(path, doc.render_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

/// The parent's arguments a child takes over: everything except the
/// parent-only `--runs` and `--out`.
fn child_args(argv: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--runs" | "--out" => {
                it.next();
            }
            _ => out.push(arg.clone()),
        }
    }
    out
}

fn verdict(result: &Json) -> String {
    let field = |k| result.get(k).and_then(Json::as_u64).unwrap_or(0);
    let correct = result.get("correct") == Some(&Json::Bool(true));
    format!(
        "{}, {} attempted, {} failed",
        if correct { "correct" } else { "INCORRECT" },
        field("attempted"),
        field("failed")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A few requests of every workload, each verified by its oracle.
    #[test]
    fn smoke_pass_of_every_workload() {
        for name in WORKLOADS {
            for trace in [false, true] {
                let opts = RunOpts {
                    seed: 7,
                    seconds: 0.2,
                    trace,
                    trace_dir: None,
                    smoke: true,
                };
                let o = run_workload(name, &opts).expect(name);
                assert!(o.correct && o.failed == 0, "{name} trace={trace}");
                assert!(o.attempted > 0);
                let table = if trace {
                    &metrics::PER_LAYER[..]
                } else {
                    &metrics::END_TO_END[..]
                };
                let names: Vec<_> = o.metrics.iter().map(|m| m.0.name).collect();
                let want: Vec<_> = table.iter().map(|d| d.name).collect();
                assert_eq!(names, want);
                if !trace {
                    assert!(
                        o.metrics.iter().all(|m| m.1 > 0.0),
                        "{name}: {:?}",
                        o.metrics
                    );
                }
            }
        }
    }

    #[test]
    fn child_args_drop_parent_only_flags() {
        let argv: Vec<String> = ["--seed", "3", "--runs", "5", "--out", "x.json", "--smoke"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(child_args(&argv), ["--seed", "3", "--smoke"]);
    }
}
