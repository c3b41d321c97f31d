//! The metrics the benchmark reports: names, units and directions.
//! `BENCHMARK.json` repeats these tables with the regression bounds; a
//! unit test keeps the two in step.

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the compiler sees, measured with tracing off.
pub const END_TO_END: [Def; 5] = [
    lower("setup_s", "s"),
    lower("latency_p50_ms", "ms"),
    higher("throughput_rps", "1/s"),
    lower("makespan_geomean_ticks", "ticks"),
    lower("peak_rss_mib", "MiB"),
];

/// One layer each, from the traced run. A metric named `<span>_us` is
/// the median duration of the spans named `<span>`; a `count` metric
/// is a run total divided by the traced requests.
pub const PER_LAYER: [Def; 41] = [
    lower("loopir.parse_us", "us"),
    lower("loopir.deps_us", "us"),
    lower("check.admit_us", "us"),
    lower("check.verify_us", "us"),
    lower("hyperplane.search_us", "us"),
    lower("hyperplane.offsets_us", "us"),
    lower("partition.partition_us", "us"),
    lower("partition.comm_stats_us", "us"),
    lower("partition.tig_us", "us"),
    lower("mapping.map_us", "us"),
    lower("machine.program_us", "us"),
    lower("machine.simulate_us", "us"),
    lower("core.run_with_us", "us"),
    lower("core.pipeline_glue_us", "us"),
    lower("core.explore_us", "us"),
    lower("symbolic.derive_us", "us"),
    lower("symbolic.fallback_sim_us", "us"),
    lower("codegen.generate_us", "us"),
    lower("codegen.run_threaded_us", "us"),
    lower("codegen.interp_us", "us"),
    lower("exec.sequential_us", "us"),
    lower("check.uniformize.proofs", "count"),
    lower("check.symbolic.fallback", "count"),
    lower("hyperplane.candidates", "count"),
    lower("partition.blocks", "count"),
    lower("machine.messages", "count"),
    lower("explore.candidates", "count"),
    lower("explore.simulated", "count"),
    higher("explore.pruned", "count"),
    lower("pool.tasks", "count"),
    lower("pool.workers", "count"),
    lower("explore.symbolic.probe_points", "count"),
    higher("explore.symbolic.exact", "count"),
    lower("explore.symbolic.fallback", "count"),
    lower("codegen.computes", "count"),
    lower("codegen.messages", "count"),
    lower("explore.simulated_ratio", "ratio"),
    lower("symbolic.fallback_ratio", "ratio"),
    lower("symbolic.known_gap_ratio", "ratio"),
    lower("exec.threaded_over_sequential", "ratio"),
    lower("trace_overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use loom_obs::Json;

    /// `BENCHMARK.json` lists exactly these metrics, with these units
    /// and directions.
    #[test]
    fn spec_file_matches_the_tables() {
        let spec =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = spec.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), table.len(), "{key}: metric count");
            for (entry, def) in listed.iter().zip(table) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
                let better = if def.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
            }
        }
    }
}
