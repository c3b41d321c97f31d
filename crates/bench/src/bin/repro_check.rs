//! A10 — static-check cost: the symbolic engine (`LC009`–`LC012`)
//! against the enumerative rules (`LC001`–`LC007`) as the iteration
//! space grows.
//!
//! The enumerative verifier walks every block point (Lemma 1) and every
//! message of the generated SPMD program (vector clocks), so its cost
//! scales with the instantiated iteration space. The symbolic engine
//! decides the same properties from the lattice and affine structure —
//! O(lines·deps) summaries instead of O(iterations) walks — so its cost
//! depends on the number of projection lines, not the extent along Π.
//! For each workload family at three sizes this times both engines on
//! identical prebuilt artifacts, asserts both return the same clean
//! verdict, and writes the comparison to `BENCH_check.json`. `--smoke`
//! shrinks the sweep for CI; `--out <path>` redirects the artifact.

use loom_check::{check_pipeline_mode, CheckMode, PipelineCheck};
use loom_core::report::Table;
use loom_hyperplane::TimeFn;
use loom_mapping::map_partitioning;
use loom_obs::{Json, Recorder};
use loom_partition::{partition, PartitionConfig, Tig};
use loom_workloads::Workload;
use std::time::Instant;

/// Median-of-`reps` wall time for one engine over prebuilt artifacts.
fn time_mode(input: &PipelineCheck<'_>, mode: CheckMode, reps: usize) -> (u64, bool) {
    let mut times = Vec::with_capacity(reps);
    let mut clean = true;
    for _ in 0..reps {
        let start = Instant::now();
        let report = check_pipeline_mode(input, mode, &Recorder::disabled());
        times.push(start.elapsed().as_micros() as u64);
        clean &= !report.has_errors();
    }
    times.sort_unstable();
    (times[times.len() / 2], clean)
}

fn sweep(smoke: bool) -> Vec<(&'static str, Vec<Workload>)> {
    use loom_workloads::*;
    if smoke {
        return vec![
            (
                "l1",
                vec![l1::workload(4), l1::workload(8), l1::workload(12)],
            ),
            (
                "matvec",
                vec![
                    matvec::workload(8),
                    matvec::workload(12),
                    matvec::workload(16),
                ],
            ),
        ];
    }
    vec![
        (
            "l1",
            vec![l1::workload(8), l1::workload(16), l1::workload(32)],
        ),
        (
            "matvec",
            vec![
                matvec::workload(8),
                matvec::workload(16),
                matvec::workload(32),
            ],
        ),
        (
            "sor",
            vec![
                sor::workload(8, 8),
                sor::workload(16, 16),
                sor::workload(32, 32),
            ],
        ),
        (
            "triangular",
            vec![
                triangular::workload(8),
                triangular::workload(16),
                triangular::workload(32),
            ],
        ),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_check.json".to_string());
    let reps = if smoke { 3 } else { 9 };

    println!(
        "A10 — static-check cost: symbolic LC009-LC012 vs enumerative\n\
         LC001-LC007 on identical artifacts, {reps} reps, median wall time{}\n",
        if smoke { " (smoke)" } else { "" }
    );
    let mut t = Table::new([
        "workload",
        "points",
        "lines",
        "enumerative_us",
        "symbolic_us",
        "speedup",
    ]);
    let mut entries: Vec<Json> = Vec::new();
    for (family, workloads) in sweep(smoke) {
        for w in workloads {
            let p = partition(
                w.nest.space().clone(),
                w.deps.clone(),
                TimeFn::new(w.pi.clone()),
                &PartitionConfig::default(),
            )
            .expect("builtin workloads partition");
            let tig = Tig::from_partitioning(&p);
            let cube_dim = 1;
            let mapping = map_partitioning(&p, cube_dim).expect("builtin workloads map");
            let pi = TimeFn::new(w.pi.clone());
            let input = PipelineCheck {
                nest: &w.nest,
                deps: &w.deps,
                pi: &pi,
                partitioning: &p,
                tig: &tig,
                assignment: mapping.assignment(),
                cube_dim,
            };
            let points = p.structure().len();
            let lines = p.projected().len();
            let (enum_us, enum_clean) = time_mode(&input, CheckMode::Enumerative, reps);
            let (sym_us, sym_clean) = time_mode(&input, CheckMode::Symbolic, reps);
            assert!(
                enum_clean && sym_clean,
                "{family}@{points}: engines disagree on the clean verdict"
            );
            let speedup = enum_us as f64 / sym_us.max(1) as f64;
            t.row([
                family.to_string(),
                format!("{points}"),
                format!("{lines}"),
                format!("{enum_us}"),
                format!("{sym_us}"),
                format!("{speedup:.1}x"),
            ]);
            entries.push(Json::obj(vec![
                ("workload", Json::from(family)),
                ("points", Json::from(points)),
                ("lines", Json::from(lines)),
                ("enumerative_us", Json::from(enum_us)),
                ("symbolic_us", Json::from(sym_us)),
                ("speedup", Json::from((speedup * 10.0).round() / 10.0)),
                ("verdicts_agree", Json::from(true)),
            ]));
        }
    }
    println!("{t}");
    let doc = Json::obj(vec![
        ("bench", Json::from("check")),
        ("reps", Json::from(reps)),
        ("smoke", Json::from(smoke)),
        ("entries", Json::Arr(entries)),
    ]);
    std::fs::write(&out_path, doc.render_pretty()).expect("write bench artifact");
    println!("wrote {out_path}");
    loom_bench::maybe_write_metrics("a10_check", &doc);
    loom_bench::maybe_append_history("check", &doc);
    println!(
        "\nevery row runs both engines on the same partitioning, TIG, and\n\
         mapping: the enumerative column grows with the point count, the\n\
         symbolic column tracks the projection-line count — the check is\n\
         O(blocks), not O(iterations)."
    );
}
