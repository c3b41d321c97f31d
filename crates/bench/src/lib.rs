//! Shared helpers for the repro binaries and criterion benches.
//!
//! Each `repro_*` binary regenerates one table or figure of the paper
//! (see DESIGN.md §3 for the experiment index); the criterion benches
//! measure the algorithms themselves. Everything routes through the same
//! helpers here so the numbers printed by binaries, asserted by tests,
//! and timed by benches come from one code path.

#![deny(missing_docs)]

use loom_hyperplane::TimeFn;
use loom_obs::Json;
use loom_partition::{partition, PartitionConfig, Partitioning};
use loom_workloads::Workload;
use std::path::Path;

/// Partition a workload with its documented Π and default choices.
pub fn partition_workload(w: &Workload) -> Partitioning {
    partition(
        w.nest.space().clone(),
        w.verified_deps(),
        TimeFn::new(w.pi.clone()),
        &PartitionConfig::default(),
    )
    .expect("workloads partition cleanly")
}

/// Partition the 4×4×4 matmul exactly as the paper's Example 2 does:
/// grouping vector `d_A`, auxiliary `d_C`, seed group based at
/// `(−1,−1,2)`.
pub fn paper_matmul_partitioning() -> Partitioning {
    let w = loom_workloads::matmul::workload(4);
    // Sorted dependence set: [d_C=(0,0,1), d_A=(0,1,0), d_B=(1,0,0)].
    partition(
        w.nest.space().clone(),
        w.verified_deps(),
        TimeFn::new(w.pi.clone()),
        &PartitionConfig {
            grouping_choice: Some(1),
            seed: Some(vec![-1, -1, 2]),
        },
    )
    .expect("matmul partitions")
}

/// Write a metrics document to `<dir>/<name>.json`, pretty-rendered,
/// creating `dir` if needed.
pub fn write_metrics_to(dir: &Path, name: &str, doc: &Json) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("{name}.json")), doc.render_pretty())
}

/// Write a metrics document to `<dir>/<name>-<disc>.json`, pretty-
/// rendered, creating `dir` if needed. The discriminator keeps
/// concurrent runs that share a metrics directory from clobbering each
/// other's files; [`maybe_write_metrics`] passes the process id.
pub fn write_metrics_discriminated(
    dir: &Path,
    name: &str,
    disc: &str,
    doc: &Json,
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}-{disc}.json"));
    std::fs::write(&path, doc.render_pretty())?;
    Ok(path)
}

/// If `LOOM_METRICS_DIR` is set, write `doc` to `<dir>/<name>-<pid>.json`
/// and note it on stderr — the repro binaries call this so every
/// experiment can leave machine-readable metrics next to its printed
/// table without changing its stdout. The pid in the filename makes
/// concurrent runs sharing one directory collision-safe.
pub fn maybe_write_metrics(name: &str, doc: &Json) {
    let Ok(dir) = std::env::var("LOOM_METRICS_DIR") else {
        return;
    };
    let disc = std::process::id().to_string();
    match write_metrics_discriminated(Path::new(&dir), name, &disc, doc) {
        Ok(path) => eprintln!("metrics: wrote {}", path.display()),
        Err(e) => eprintln!("metrics: cannot write {name}-{disc}.json: {e}"),
    }
}

/// Append one history record — `{"ts": …, "bench": name, "doc": …}` on
/// a single JSONL line — to `path`, creating the file (and parent
/// directory) if needed. The regression observatory's `loom obs diff`
/// reads records back out of this file.
pub fn append_history_to(path: &Path, name: &str, ts_unix: u64, doc: &Json) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    let record = Json::obj(vec![
        ("ts", Json::from(ts_unix)),
        ("bench", Json::from(name)),
        ("doc", doc.clone()),
    ]);
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{}", record.render())
}

/// If `LOOM_BENCH_HISTORY` is set, append `doc` as one timestamped
/// JSONL record. The variable names either the history file itself or a
/// directory (then `bench-history.jsonl` inside it is used).
pub fn maybe_append_history(name: &str, doc: &Json) {
    let Ok(dest) = std::env::var("LOOM_BENCH_HISTORY") else {
        return;
    };
    let dest = Path::new(&dest);
    let path = if dest.is_dir() {
        dest.join("bench-history.jsonl")
    } else {
        dest.to_path_buf()
    };
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    match append_history_to(&path, name, ts, doc) {
        Ok(()) => eprintln!("history: appended {name} to {}", path.display()),
        Err(e) => eprintln!("history: cannot append to {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_matmul_is_17_groups() {
        assert_eq!(paper_matmul_partitioning().num_blocks(), 17);
    }

    #[test]
    fn write_metrics_to_creates_dir_and_file() {
        let dir = std::env::temp_dir().join("loom-metrics-test");
        let _ = std::fs::remove_dir_all(&dir);
        let doc = Json::obj(vec![("makespan", Json::from(42u64))]);
        write_metrics_to(&dir, "a6_contention", &doc).unwrap();
        let body = std::fs::read_to_string(dir.join("a6_contention.json")).unwrap();
        assert_eq!(Json::parse(&body).unwrap(), doc);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn discriminated_metrics_files_do_not_collide() {
        let dir = std::env::temp_dir().join("loom-metrics-disc-test");
        let _ = std::fs::remove_dir_all(&dir);
        let a = Json::obj(vec![("run", Json::from(1u64))]);
        let b = Json::obj(vec![("run", Json::from(2u64))]);
        let pa = write_metrics_discriminated(&dir, "a9_explore", "111", &a).unwrap();
        let pb = write_metrics_discriminated(&dir, "a9_explore", "222", &b).unwrap();
        assert_ne!(pa, pb);
        assert_eq!(
            Json::parse(&std::fs::read_to_string(&pa).unwrap()).unwrap(),
            a
        );
        assert_eq!(
            Json::parse(&std::fs::read_to_string(&pb).unwrap()).unwrap(),
            b
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn history_appends_one_parseable_line_per_record() {
        let dir = std::env::temp_dir().join("loom-history-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("bench-history.jsonl");
        let doc = Json::obj(vec![("speedup", Json::from(2.5f64))]);
        append_history_to(&path, "explore", 1000, &doc).unwrap();
        append_history_to(&path, "check", 2000, &doc).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("ts").unwrap().as_u64(), Some(1000));
        assert_eq!(first.get("bench").unwrap().as_str(), Some("explore"));
        assert_eq!(first.get("doc").unwrap(), &doc);
        let second = Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("bench").unwrap().as_str(), Some("check"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_workloads_partition() {
        for w in loom_workloads::all_default() {
            let p = partition_workload(&w);
            assert!(p.num_blocks() > 0, "{} produced no blocks", w.nest.name());
            let violations = loom_check::check_laws(&p);
            assert!(violations.is_empty(), "{}: {violations:?}", w.nest.name());
        }
    }
}
