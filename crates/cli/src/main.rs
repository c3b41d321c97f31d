//! `loom` — command-line driver for the Sheu–Tai partitioning and
//! mapping pipeline. Run it without arguments for the subcommands and
//! their flags ([`usage`]).
//!
//! Every pipeline subcommand takes one path from flags to results. The
//! input — a builtin named in [`BUILTINS`], instantiated from its
//! `loom_workloads::family_of` size family, or a `--file` nest — is
//! resolved once into its pipeline and Π by [`load`], which admits the
//! nest's dependences (`Pipeline::admitted`): a variable-distance
//! `.loom` nest is folded and certified there, once, and every later
//! stage reads that admission. [`config`] and [`machine_options`] turn
//! the flags into the pipeline's configuration, and the subcommand runs
//! the pipeline's own stages on the result (`stage_partition`,
//! `map_with`, `check_mode`, `complete_with`, `run_machine`,
//! `explore`). [`Obs`] writes the output flags.
//!
//! Setting `LOOM_FLIGHT_DIR` makes every pipeline-running subcommand
//! flush its flight-recorder ring (JSONL) into that directory on exit.
//!
//! Every failure funnels through the typed [`CliError`] (exit 2 for
//! usage problems, exit 1 for wrong artifacts); `.loom` input is parsed
//! by the resilient front end, so malformed files come back as a full
//! `LP0NN` diagnostic report — all problems in one pass — rather than
//! one terse abort.

mod args;
mod error;

use args::{Args, ObsFlags};
use error::CliError;
use loom_core::analytic::table1_rows;
use loom_core::pipeline::{run_machine, MachineOptions};
use loom_core::report::Table;
use loom_core::{PartitionedStage, Pipeline, PipelineConfig, PipelineError};
use loom_machine::{MachineParams, SimReport, Topology};
use loom_mapping::Mapping;
use loom_obs::{FlightRecorder, Json, Recorder};
use loom_workloads::Family;

fn usage() -> ! {
    eprintln!(
        "usage: loom <command> [flags]\n\
         commands:\n\
         \x20 workloads                         list built-in workloads\n\
         \x20 partition --workload W --size S   run Algorithm 1, print blocks\n\
         \x20 map       --workload W --cube N   run Algorithms 1+2, print placement\n\
         \x20 simulate  --workload W --cube N   full pipeline + machine simulation\n\
         \x20 sim       alias for simulate\n\
         \x20 codegen   --workload W --cube N   emit SPMD pseudo-code [--run verifies]\n\
         \x20 check     --workload W --cube N   static verifier [--symbolic|--interleave]\n\
         \x20           [--format human|json|sarif] [--allow IDS] [--explain LC0NN]\n\
         \x20           [--corrupt drop-send|dup-send|drop-recv|swap] [--corrupt-seed N]\n\
         \x20 viz       --workload W            ASCII block/wavefront grids [--dot]\n\
         \x20 explore   --workload W            rank (Π, grouping, N) by simulated cost\n\
         \x20           [--threads T] [--no-prune] [--bench-out FILE] [--metrics-out FILE]\n\
         \x20           [--symbolic] rank by closed-form T_exec (simulate only on Unknown)\n\
         \x20           [--symbolic-budget POINTS] probe budget for the derivation\n\
         \x20 profile   --workload W --cube N   critical-path profile of a simulated run\n\
         \x20           [--top K] [--json] [--trace-out FILE] [--flame-out FILE]\n\
         \x20 obs diff  OLD NEW                 compare two bench/metrics JSON documents\n\
         \x20           [--threshold B] [--warn-only] [--json]\n\
         \x20 table1    [--m M]                 the paper's Table I\n\
         common flags: --size S (default 8), --size2 S (2nd extent), --pi a,b,…,\n\
         \x20               --file NEST.loom (parse a .loom nest; variable-distance\n\
         \x20               dependences are folded and certified per LC016 unless\n\
         \x20               --no-uniformize restores the front-end rejection)\n\
         output flags:   --metrics-out FILE (counters + simulator metrics JSON) and\n\
         \x20               --flame-out FILE (collapsed-stack flamegraph export) on\n\
         \x20               simulate/check/explore/profile; --trace-out FILE\n\
         \x20               (Chrome/Perfetto trace JSON) on simulate/profile\n\
         machine flags:  --mesh RxC | --ring N (instead of --cube; extents powers\n\
         \x20               of two) on map, simulate, codegen, viz and profile\n\
         simulate flags: --t-calc/--t-start/--t-comm, --batch, --contention,\n\
         \x20               --validate (replay the trace through verify_trace);\n\
         \x20               explore costs candidates under all of them\n\
         fault flags:    --fault-plan FILE (JSON fault plan, see docs/RESILIENCE.md),\n\
         \x20               --fault-seed N (override the plan's noise seed),\n\
         \x20               --recovery abort|retry|remap (default retry),\n\
         \x20               --degradation-out FILE (degradation report JSON)"
    );
    std::process::exit(2)
}

/// The builtin workloads, in `loom workloads` order: listed name, the
/// other names it answers to, `loom_workloads::family_of` key, whether
/// `--size2` is a tap count (clamped to `--size`), the size it is listed
/// at, and its role in the paper.
#[rustfmt::skip]
#[allow(clippy::type_complexity)]
const BUILTINS: [(&str, &[&str], &str, bool, i64, &str); 10] = [
    ("l1",       &[],          "l1",         false, 4, "§II running example"),
    ("matmul",   &[],          "matmul",     false, 4, "§III Example 2"),
    ("matvec",   &[],          "matvec",     false, 8, "§IV / Table I"),
    ("conv1d",   &["conv"],    "conv",       true,  8, "§I motivation"),
    ("sor",      &["stencil"], "sor",        false, 6, "extension"),
    ("transitive", &["tc"],      "transitive", false, 4, "§I motivation"),
    ("dft",      &[],          "dft",        false, 8, "§I motivation"),
    ("conv2d",   &[],          "conv2d",     true,  4, "extension (4-deep)"),
    ("triangular", &["tri"],     "triangular", false, 6, "extension (affine bounds)"),
    ("heat2d",   &["heat"],    "heat2d",     false, 3, "extension (negative deps)"),
];

/// `--workload` with `--size`/`--size2`: the builtin's size family
/// (secondary extent pinned) and the size to instantiate it at. The
/// nest every subcommand runs and the family `explore --symbolic`
/// ranks over are this one family.
fn builtin(a: &Args) -> Result<(Family, i64), CliError> {
    let size = a.int_flag("size", 8)?;
    let size2 = a.int_flag("size2", size)?;
    let name = a.str_flag("workload", "l1");
    BUILTINS
        .iter()
        .find(|(listed, aliases, ..)| *listed == name || aliases.contains(&name.as_str()))
        .and_then(|&(_, _, key, taps, ..)| {
            loom_workloads::family_of(key, Some(if taps { size2.min(size) } else { size2 }))
        })
        .map(|family| (family, size))
        .ok_or_else(|| CliError::usage(format!("unknown workload `{name}`; run `loom workloads`")))
}

/// Parse `--file` into a nest through the resilient front end.
/// Malformed input renders the full `LP0NN` report (honoring
/// `--format` and `--allow`); with every error suppressed the
/// recovered partial IR is used.
fn parse_file_nest(a: &Args, path: &str) -> Result<loom_loopir::LoopNest, CliError> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| CliError::usage(format!("cannot read {path}: {e}")))?;
    let name = path.rsplit('/').next().unwrap_or("nest").to_string();
    let out = loom_loopir::parse_nest_recovering(&name, &src);
    if out.diags.is_empty() {
        // The front-end invariant: no diagnostics implies an IR.
        return out
            .nest
            .ok_or_else(|| CliError::failed(format!("{path}: internal error: no IR produced")));
    }
    let mut report = loom_check::report_from_parse(&out.diags);
    apply_allow(a, &mut report);
    if report.has_errors() {
        render_report(a, &report)?;
        return Err(CliError::Diagnostics);
    }
    // Every error was --allow'ed: surface the warnings on stderr and
    // continue with whatever IR recovery salvaged.
    eprint!("{}", report.render_human());
    out.nest
        .ok_or_else(|| CliError::failed(format!("{path}: no usable IR after recovery")))
}

/// `--pi`, validated: the all-zero time function is never a schedule
/// (every projection stage divides by ‖Π‖²), so reject it up front
/// instead of letting the partitioner assert.
fn pi_flag(a: &Args) -> Result<Option<Vec<i64>>, CliError> {
    match a.int_list_flag("pi")? {
        Some(pi) if pi.iter().all(|&c| c == 0) => Err(CliError::usage(
            "error: --pi needs at least one nonzero coefficient",
        )),
        other => Ok(other),
    }
}

/// What a pipeline subcommand runs on, resolved once by [`load`].
struct Input {
    /// The pipeline over the nest, its dependences admitted.
    pipeline: Pipeline,
    /// `--pi`, else the builtin's canonical Π, else the optimal one.
    pi: Vec<i64>,
    /// A builtin's size family and size; `None` for a `--file` nest.
    family: Option<(Family, i64)>,
}

/// Resolve `--file` or `--workload` into an [`Input`]. This is the
/// CLI's one dependence analysis, the pipeline's own admission
/// (`Pipeline::admitted`, its span and proof counters on `rec`): a
/// variable-distance nest is folded and certified here, once, unless
/// `--no-uniformize` restores the front-end rejection first. `Ok(None)`
/// means an uncertifiable nest's report was rendered and `--allow` left
/// no error in it.
fn load(a: &Args, rec: &Recorder) -> Result<Option<Input>, CliError> {
    let path = a.flags.get("file");
    let (nest, builtin_pi, family) = match path {
        Some(path) => (parse_file_nest(a, path)?, None, None),
        None => {
            let (family, size) = builtin(a)?;
            let w = family(size);
            (w.nest, Some(w.pi), Some((family, size)))
        }
    };
    let label = path.map_or_else(|| nest.name().to_string(), String::clone);
    if a.switch("no-uniformize") {
        loom_loopir::deps::dependence_vectors(&nest, loom_loopir::DepOptions::default())
            .map_err(|e| CliError::usage(format!("{label}: {e}")))?;
    }
    let pipeline = Pipeline::new(nest);
    let admitted = match pipeline.admitted(rec) {
        Ok(admitted) => admitted,
        Err(PipelineError::StaticCheck(mut report)) => {
            apply_allow(a, &mut report);
            render_report(a, &report)?;
            return if report.has_errors() {
                Err(CliError::Diagnostics)
            } else {
                Ok(None)
            };
        }
        Err(PipelineError::Deps(e)) => return Err(CliError::usage(format!("{label}: {e}"))),
        Err(e) => return Err(e.into()),
    };
    let pi = match pi_flag(a)?.or(builtin_pi) {
        Some(pi) => pi,
        None => optimal_pi(pipeline.nest(), &admitted.deps, &label)?,
    };
    Ok(Some(Input {
        pipeline,
        pi,
        family,
    }))
}

/// The optimal legal time function for a `--file` nest.
fn optimal_pi(
    nest: &loom_loopir::LoopNest,
    deps: &[Vec<i64>],
    label: &str,
) -> Result<Vec<i64>, CliError> {
    let pi =
        loom_hyperplane::find_optimal(deps, nest.space(), loom_hyperplane::SearchConfig::default())
            .map_err(|e| CliError::failed(format!("{label}: no legal time function: {e}")))?
            .coeffs()
            .to_vec();
    if pi.iter().all(|&c| c == 0) {
        // Only reachable with an empty dependence set: every candidate
        // is vacuously legal and the zero vector minimizes the search.
        return Err(CliError::failed(format!(
            "{label}: the nest has no loop-carried dependences, so no time \
             function is forced; pass one explicitly with --pi"
        )));
    }
    Ok(pi)
}

/// [`load`] for every subcommand but `check`: an uncertifiable nest
/// fails, and an admitted fold is noted on stderr.
fn resolve(a: &Args, rec: &Recorder) -> Result<Input, CliError> {
    let input = load(a, rec)?.ok_or(CliError::Diagnostics)?;
    let admitted = input.pipeline.admitted(&Recorder::disabled())?;
    if let (Some(path), false) = (a.flags.get("file"), admitted.folded.is_empty()) {
        let vecs: Vec<String> = admitted
            .deps
            .iter()
            .map(|v| {
                let parts: Vec<String> = v.iter().map(|x| x.to_string()).collect();
                format!("({})", parts.join(","))
            })
            .collect();
        eprintln!(
            "note: {path}: variable-distance dependences folded into the \
             certified synthesized set {{{}}} (LC016); run \
             `loom check --file {path}` for the certificate and the \
             tightness report",
            vecs.join(", ")
        );
    }
    Ok(input)
}

impl Input {
    /// Stages 1–4 through the pipeline: Algorithm 1 on the admitted `D`
    /// and the resolved Π, then Algorithm 2's mapping and the placement
    /// on the configured target.
    fn stage(
        &self,
        cfg: &PipelineConfig,
        rec: &Recorder,
    ) -> Result<(PartitionedStage, Mapping, Mapping), CliError> {
        let stage = self.pipeline.stage_partition(cfg, rec)?;
        let (mapping, placement, _) = stage.map_with(cfg, rec)?;
        Ok((stage, mapping, placement))
    }
}

fn machine_params(a: &Args) -> Result<MachineParams, CliError> {
    Ok(MachineParams {
        t_calc: a.int_flag_at_least("t-calc", 1, 0)? as u64,
        t_start: a.int_flag_at_least("t-start", 50, 0)? as u64,
        t_comm: a.int_flag_at_least("t-comm", 5, 0)? as u64,
        t_recv: a.int_flag_at_least("t-recv", 0, 0)? as u64,
    })
}

fn pick_target(a: &Args) -> Result<Option<Topology>, CliError> {
    if let Some(mesh) = a.flags.get("mesh") {
        let parts: Vec<&str> = mesh.split(['x', 'X']).collect();
        if let [r, c] = parts[..] {
            if let (Ok(rows), Ok(cols)) = (r.parse(), c.parse()) {
                return Ok(Some(Topology::Mesh { rows, cols }));
            }
        }
        return Err(CliError::usage("error: --mesh expects RxC (e.g. 2x4)"));
    }
    if let Some(ring) = a.flags.get("ring") {
        return match ring.parse() {
            Ok(n) => Ok(Some(Topology::Ring(n))),
            Err(_) => Err(CliError::usage("error: --ring expects an integer")),
        };
    }
    Ok(None)
}

/// `check` verifies Algorithm 2's Gray-code mapping and `explore`
/// sweeps cube dimensions: on a mesh or ring target either would run a
/// machine the user did not ask for, so they refuse it.
fn hypercube_only(a: &Args, command: &str) -> Result<(), CliError> {
    if a.flags.contains_key("mesh") || a.flags.contains_key("ring") {
        return Err(CliError::usage(format!(
            "error: --mesh and --ring apply to map, simulate, codegen, viz and profile, \
             not {command}"
        )));
    }
    Ok(())
}

/// The one flag → [`PipelineConfig`] builder: Π (resolved by [`load`]),
/// `--cube`/`--mesh`/`--ring` and `--grouping`. The machine model is
/// [`machine_options`]; only `simulate` runs it through the pipeline.
fn config(a: &Args, pi: &[i64]) -> Result<PipelineConfig, CliError> {
    let grouping_choice = (a.flags.get("grouping").map(|v| v.parse()).transpose())
        .map_err(|_| CliError::usage("error: --grouping expects an index"))?;
    Ok(PipelineConfig {
        time_fn: Some(pi.to_vec()),
        cube_dim: a.int_flag_at_least("cube", 1, 0)? as usize,
        target: pick_target(a)?,
        partition: loom_partition::PartitionConfig {
            grouping_choice,
            seed: None,
        },
        machine: None,
    })
}

/// The one flag → [`MachineOptions`] builder: the §IV timing
/// parameters, the simulator switches, and the telemetry the output
/// flags need. Faults are `simulate`'s alone ([`fault_config`]).
fn machine_options(a: &Args) -> Result<MachineOptions, CliError> {
    Ok(MachineOptions {
        params: machine_params(a)?,
        batch_messages: a.switch("batch"),
        link_contention: a.switch("contention"),
        record_trace: a.flags.contains_key("trace-out"),
        collect_metrics: a.flags.contains_key("metrics-out") || a.flags.contains_key("trace-out"),
        validate_trace: a.switch("validate"),
        ..Default::default()
    })
}

/// Build the fault configuration from `--fault-plan` / `--fault-seed`
/// / `--recovery`. The plan is statically validated (rule `LC008`)
/// against the machine `cfg` targets before it is accepted; any error
/// diagnostic refuses the run.
fn fault_config(
    a: &Args,
    cfg: &PipelineConfig,
) -> Result<Option<loom_machine::FaultConfig>, CliError> {
    let Some(path) = a.flags.get("fault-plan") else {
        return Ok(None);
    };
    let src = std::fs::read_to_string(path)
        .map_err(|e| CliError::usage(format!("cannot read {path}: {e}")))?;
    let doc =
        Json::parse(&src).map_err(|e| CliError::usage(format!("{path}: invalid JSON: {e}")))?;
    let plan = loom_machine::FaultPlan::from_json(&doc)
        .map_err(|e| CliError::usage(format!("{path}: invalid fault plan: {e}")))?;
    let topology = cfg.target.unwrap_or(Topology::Hypercube(cfg.cube_dim));
    // Route the LC008 diagnostics through a Report so `--allow LC008`
    // downgrades them exactly like every other rule: suppression and
    // exit-code policy are uniform across all rules.
    let mut report =
        loom_check::Report::from_diagnostics(loom_check::check_fault_plan(&plan, &topology));
    apply_allow(a, &mut report);
    for d in report.diagnostics() {
        eprintln!("{path}: {d}");
    }
    if report.has_errors() {
        return Err(CliError::Diagnostics);
    }
    let policy: loom_machine::RecoveryPolicy = a
        .str_flag("recovery", "retry")
        .parse()
        .map_err(|e: String| CliError::usage(format!("error: {e}")))?;
    let mut fc = loom_machine::FaultConfig::new(plan, policy);
    if a.flags.contains_key("fault-seed") {
        fc.seed_override = Some(a.int_flag_at_least("fault-seed", 0, 0)? as u64);
    }
    Ok(Some(fc))
}

/// A subcommand's enabled recorder (its flight ring honors
/// `LOOM_FLIGHT_DIR`) and the output flags it writes at the end.
struct Obs {
    rec: Recorder,
    out: ObsFlags,
    command: &'static str,
}

impl Obs {
    /// `traced` marks the subcommands that simulate and so have a trace
    /// to write; `--trace-out` anywhere else is a usage error, not a
    /// file that silently never appears.
    fn new(a: &Args, command: &'static str, traced: bool) -> Result<Obs, CliError> {
        let out = a.obs_flags();
        if out.trace_out.is_some() && !traced {
            return Err(CliError::usage(format!(
                "error: --trace-out applies to simulate and profile, not {command}"
            )));
        }
        Ok(Obs {
            rec: Recorder::enabled_with_flight(FlightRecorder::from_env()),
            out,
            command,
        })
    }

    /// Write `--metrics-out` (with the run's simulator telemetry, if
    /// any), `--trace-out` (the document `trace` renders, with its
    /// name), and `--flame-out`, then flush the flight ring.
    fn finish(
        &self,
        sim: Option<&SimReport>,
        trace: impl FnOnce() -> Option<(&'static str, Json)>,
    ) -> Result<(), CliError> {
        if let Some(path) = &self.out.metrics_out {
            let doc = loom_core::obs_export::metrics_json(&self.rec, sim);
            write_out(path, doc.render_pretty(), "metrics")?;
        }
        if let Some(path) = &self.out.trace_out {
            let (what, doc) = trace().ok_or_else(|| {
                CliError::failed("internal error: no trace recorded despite --trace-out")
            })?;
            write_out(path, doc.render_pretty(), what)?;
        }
        if let Some(path) = &self.out.flame_out {
            let flame = loom_obs::flight::collapsed_stacks(&self.rec.spans());
            write_out(path, flame, "flamegraph")?;
        }
        if let Some(path) = self.rec.flight().flush_to_env_dir(self.command) {
            eprintln!("flight log written to {}", path.display());
        }
        Ok(())
    }
}

fn write_out(path: &str, contents: String, what: &str) -> Result<(), CliError> {
    std::fs::write(path, contents)
        .map_err(|e| CliError::failed(format!("cannot write {path}: {e}")))?;
    println!("{what} written to {path}");
    Ok(())
}

fn cmd_workloads() {
    let mut t = Table::new(["name", "depth", "D", "paper role"]);
    for (name, _, key, _, size, role) in BUILTINS {
        if let Some(family) = loom_workloads::family_of(key, None) {
            let w = family(size);
            t.row([
                name.to_string(),
                format!("{}", w.nest.dim()),
                format!("{:?}", w.deps),
                role.to_string(),
            ]);
        }
    }
    println!("{t}");
}

fn cmd_partition(a: &Args) -> Result<(), CliError> {
    // Partitioning is machine-independent: the stage stops before
    // Algorithm 2, so no machine flag can fail it.
    let input = resolve(a, &Recorder::disabled())?;
    let stage = input
        .pipeline
        .stage_partition(&config(a, &input.pi)?, &Recorder::disabled())?;
    let nest = input.pipeline.nest();
    println!("{nest}");
    println!("D = {:?}", stage.deps);
    println!("{} ({} steps)", stage.pi, stage.pi.steps(nest.space()));
    let p = &stage.partitioning;
    println!(
        "r = {}, beta = {}, {} projected points -> {} blocks (largest {})",
        p.vectors().r,
        p.vectors().beta,
        p.projected().len(),
        p.num_blocks(),
        p.max_block_size()
    );
    println!(
        "arcs: {} total, {} interblock ({:.0}%)",
        stage.comm().total_arcs,
        stage.comm().interblock_arcs,
        100.0 * stage.comm().interblock_fraction()
    );
    if a.switch("blocks") {
        for (b, block) in p.blocks().iter().enumerate() {
            let pts: Vec<String> = block
                .iter()
                .map(|&id| format!("{:?}", p.structure().point(id)))
                .collect();
            println!("  B{b}: {}", pts.join(" "));
        }
    }
    let violations = loom_check::check_laws(p);
    if violations.is_empty() {
        println!("laws: all hold");
    } else {
        println!("laws:");
        for d in violations {
            println!("  {d}");
        }
    }
    Ok(())
}

fn cmd_map(a: &Args) -> Result<(), CliError> {
    let input = resolve(a, &Recorder::disabled())?;
    let (stage, _, placement) = input.stage(&config(a, &input.pi)?, &Recorder::disabled())?;
    let mut t = Table::new(["block", "size", "processor"]);
    for (b, &proc) in placement.assignment().iter().enumerate() {
        t.row([
            format!("B{b}"),
            format!("{}", stage.partitioning.block(b).len()),
            // A hypercube node's name is its binary address.
            match placement.cube() {
                Topology::Hypercube(d) => format!("P{proc:0w$b}", w = d.max(1)),
                _ => format!("P{proc}"),
            },
        ]);
    }
    println!("{t}");
    let q = loom_mapping::metrics::evaluate(stage.tig(), placement.assignment(), &placement.cube());
    println!("quality: {q}");
    Ok(())
}

fn cmd_simulate(a: &Args) -> Result<(), CliError> {
    let obs = Obs::new(a, "simulate", true)?;
    let input = resolve(a, &obs.rec)?;
    let mut cfg = config(a, &input.pi)?;
    let machine = MachineOptions {
        faults: fault_config(a, &cfg)?,
        ..machine_options(a)?
    };
    let params = machine.params;
    cfg.machine = Some(machine);
    let out = input
        .pipeline
        .stage_partition(&cfg, &obs.rec)?
        .complete_with(&cfg, &obs.rec, None)?;
    let sim = out.sim_report()?;
    println!(
        "{} on {:?} ({} procs), t_calc={} t_start={} t_comm={}{}{}",
        input.pipeline.nest().name(),
        out.target,
        out.placement.num_procs(),
        params.t_calc,
        params.t_start,
        params.t_comm,
        if a.switch("batch") { ", batched" } else { "" },
        if a.switch("contention") {
            ", contention"
        } else {
            ""
        },
    );
    println!("makespan          = {}", sim.makespan);
    println!("busiest processor = {}", sim.max_proc_occupancy());
    println!("messages, words   = {}, {}", sim.messages, sim.words);
    let mut t = Table::new(["proc", "compute", "comm", "total"]);
    for p in 0..sim.compute.len() {
        t.row([
            format!("P{p}"),
            format!("{}", sim.compute[p]),
            format!("{}", sim.comm[p]),
            format!("{}", sim.compute[p] + sim.comm[p]),
        ]);
    }
    println!("{t}");
    println!(
        "utilization:\n{}",
        loom_viz::utilization_chart(&sim.compute, &sim.comm, sim.makespan, 40)
    );
    if let Some(deg) = sim.degradation.as_ref() {
        println!(
            "faults: {} injected, {} hit ({} drops, {} corruptions, {} delays)",
            deg.faults_injected, deg.faults_hit, deg.drops, deg.corruptions, deg.delays
        );
        println!(
            "recovery: {} retries ({} words resent), {} reroutes, {} crashes, {} tasks remapped",
            deg.retries, deg.retransmitted_words, deg.reroutes, deg.crashes, deg.remapped_tasks
        );
        println!(
            "degradation: makespan {} -> {} (+{:.1}%)",
            deg.baseline_makespan,
            deg.degraded_makespan,
            100.0 * deg.makespan_inflation()
        );
        if let Some(path) = a.flags.get("degradation-out") {
            write_out(path, deg.to_json().render_pretty(), "degradation report")?;
        }
    }
    if a.switch("validate") {
        // A violating trace already failed the pipeline with
        // PipelineError::Trace, so reaching here means a clean replay.
        println!("trace validated: no violations");
    }
    obs.finish(Some(sim), || {
        loom_machine::trace::chrome_trace(sim, out.placement.num_procs(), None)
            .map(|d| ("trace", d))
    })
}

fn cmd_codegen(a: &Args) -> Result<(), CliError> {
    let input = resolve(a, &Recorder::disabled())?;
    let (stage, _, placement) = input.stage(&config(a, &input.pi)?, &Recorder::disabled())?;
    let nest = input.pipeline.nest();
    let cg = loom_codegen::generate(
        nest,
        &stage.partitioning,
        placement.assignment(),
        placement.num_procs(),
    )
    .map_err(|e| CliError::failed(format!("codegen refused: {e}")))?;
    println!("{}", loom_codegen::render::render(nest, &cg));
    println!(
        "{} computes, {} messages",
        cg.program.num_computes(),
        cg.program.num_messages()
    );
    if a.switch("run") {
        use loom_exec::memory::address_hash_init;
        let result = loom_codegen::run(nest, &cg, &address_hash_init)
            .map_err(|e| CliError::failed(format!("SPMD run failed: {e}")))?;
        let serial = loom_exec::sequential(nest, &address_hash_init);
        match loom_exec::equivalent(&result.gathered, &serial) {
            Ok(()) => println!("verified: bit-identical to sequential execution"),
            Err(d) => return Err(CliError::failed(format!("DIVERGED: {d:?}"))),
        }
    }
    Ok(())
}

/// Render a check report in the selected `--format` (`human`, `json`,
/// or `sarif`; the legacy `--json` switch still selects JSON).
fn render_report(a: &Args, report: &loom_check::Report) -> Result<(), CliError> {
    let format = if a.switch("json") {
        "json".to_string()
    } else {
        a.str_flag("format", "human")
    };
    match format.as_str() {
        "human" => print!("{}", report.render_human()),
        "json" => println!("{}", report.to_json().render_pretty()),
        "sarif" => {
            let artifact = a.flags.get("file").map(|s| s.as_str());
            println!("{}", report.to_sarif(artifact).render_pretty())
        }
        other => {
            return Err(CliError::usage(format!(
                "unknown --format `{other}` (expected human, json, or sarif)"
            )))
        }
    }
    Ok(())
}

fn apply_allow(a: &Args, report: &mut loom_check::Report) {
    if let Some(allow) = a.flags.get("allow") {
        let codes: Vec<String> = allow
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        report.allow(&codes);
    }
}

/// Parse `--corrupt MODE` into a program mutation.
fn parse_mutation(name: &str) -> Result<loom_check::Mutation, CliError> {
    match name {
        "drop-send" => Ok(loom_check::Mutation::DropSend),
        "dup-send" => Ok(loom_check::Mutation::DupSend),
        "drop-recv" => Ok(loom_check::Mutation::DropRecv),
        "swap" => Ok(loom_check::Mutation::SwapSendEarlier),
        other => Err(CliError::usage(format!(
            "unknown --corrupt `{other}` (expected drop-send, dup-send, drop-recv, or swap)"
        ))),
    }
}

fn cmd_check(a: &Args) -> Result<(), CliError> {
    if let Some(code) = a.flags.get("explain") {
        return match loom_check::explain(code) {
            Some(text) => {
                print!("{text}");
                Ok(())
            }
            None => Err(CliError::usage(format!(
                "unknown rule `{code}`; known rules are LC001 through LC018 and LP001 through LP008"
            ))),
        };
    }
    let symbolic = a.switch("symbolic");
    let interleave = a.switch("interleave") || a.flags.contains_key("corrupt");
    if symbolic && interleave {
        return Err(CliError::usage(
            "--symbolic and --interleave/--corrupt are mutually exclusive",
        ));
    }
    let obs = Obs::new(a, "check", false)?;
    hypercube_only(a, "check")?;
    // An uncertifiable nest's report is the check's verdict. The check
    // engines count their own uniformization proofs, so the load does
    // not record them.
    let Some(input) = load(a, &Recorder::disabled())? else {
        return Ok(());
    };
    let cfg = config(a, &input.pi)?;
    let pi = loom_hyperplane::TimeFn::new(input.pi.clone());
    let admitted = input.pipeline.admitted(&Recorder::disabled())?;

    // An illegal Π must come back as an LC001/LC009 diagnostic on
    // stdout, not as a partitioner error on stderr, so legality is
    // checked before the pipeline stages run.
    let mut report = loom_check::Report::from_diagnostics(if symbolic {
        loom_check::check_legality_symbolic(&pi, &admitted.deps)
    } else {
        loom_check::check_legality(&pi, &admitted.deps)
    });
    if !report.has_errors() {
        let (stage, mapping, ..) = input.stage(&cfg, &obs.rec)?;
        report = if let Some(mode) = a.flags.get("corrupt") {
            // Seeded-mutation mode: generate the SPMD program, corrupt
            // it, and run the interleaving engine's program-level
            // rules on the result — an expect-fail harness for LC013–
            // LC015 counterexamples.
            let mutation = parse_mutation(mode)?;
            let seed = a.int_flag_at_least("corrupt-seed", 1, 0)? as u64;
            let nest = input.pipeline.nest();
            let mut cg = loom_codegen::generate(
                nest,
                &stage.partitioning,
                mapping.assignment(),
                mapping.num_procs(),
            )
            .map_err(|e| CliError::failed(format!("codegen failed: {e}")))?;
            cg.program =
                loom_check::mutate_program(&cg.program, mutation, seed).ok_or_else(|| {
                    CliError::usage(format!(
                        "--corrupt {mode}: the program has no eligible site"
                    ))
                })?;
            loom_check::check_program(nest, &cg, &obs.rec)
        } else {
            let mode = if interleave {
                loom_check::CheckMode::Interleaving
            } else if symbolic {
                loom_check::CheckMode::Symbolic
            } else {
                loom_check::CheckMode::Enumerative
            };
            match stage.check_mode(&mapping, mode, &obs.rec) {
                Ok(report) | Err(PipelineError::StaticCheck(report)) => report,
                Err(e) => return Err(e.into()),
            }
        };
    }
    // Prepend the fold's certificate/tightness diagnostics — except in
    // symbolic mode, whose LC010 rule re-derives and reports them.
    if !admitted.folded.is_empty() && !symbolic {
        let mut merged = loom_check::Report::from_diagnostics(admitted.folded.clone());
        merged.extend(report.diagnostics().to_vec());
        report = merged;
    }
    apply_allow(a, &mut report);
    render_report(a, &report)?;
    obs.finish(None, || None)?;
    if report.has_errors() {
        return Err(CliError::Diagnostics);
    }
    Ok(())
}

fn cmd_viz(a: &Args) -> Result<(), CliError> {
    let input = resolve(a, &Recorder::disabled())?;
    let (stage, _, placement) = input.stage(&config(a, &input.pi)?, &Recorder::disabled())?;
    if a.switch("dot") {
        println!("{}", loom_viz::group_graph_dot(&stage.partitioning));
        println!(
            "{}",
            loom_viz::tig_dot(stage.tig(), Some(placement.assignment()))
        );
        return Ok(());
    }
    match loom_viz::block_grid(&stage.partitioning) {
        Some(grid) => {
            let space = input.pipeline.nest().space();
            println!("blocks (one letter per block):\n{grid}");
            let sched = loom_hyperplane::Schedule::build(stage.pi.clone(), space);
            println!(
                "hyperplane steps (mod 10):\n{}",
                loom_viz::wavefront_grid(&sched, space).unwrap()
            );
        }
        None => {
            println!("(space is not 2-D; emitting DOT instead)\n");
            println!("{}", loom_viz::group_graph_dot(&stage.partitioning));
        }
    }
    Ok(())
}

/// `--symbolic`: rank over the input's own size family. A `--file`
/// nest has no size family, so the combination is a usage error.
fn symbolic_explore(
    a: &Args,
    input: &Input,
) -> Result<loom_core::explore::SymbolicExplore, CliError> {
    let Some((family, size)) = input.family.clone() else {
        return Err(CliError::usage(
            "error: --symbolic needs a size-parameterized builtin workload; \
             a --file nest has no size family",
        ));
    };
    let mut opts = loom_core::symbolic_cost::DeriveOptions::default();
    if let Some(b) = a.flags.get("symbolic-budget") {
        opts.max_probe_points = b.parse().map_err(|_| {
            CliError::usage("error: --symbolic-budget expects a point count (integer)")
        })?;
    }
    Ok(loom_core::explore::SymbolicExplore {
        family: std::sync::Arc::new(move |n| family(n).nest),
        size,
        opts,
    })
}

fn cmd_explore(a: &Args) -> Result<(), CliError> {
    let obs = Obs::new(a, "explore", false)?;
    hypercube_only(a, "explore")?;
    let input = resolve(a, &obs.rec)?;
    let dims: Vec<usize> = match a.int_list_flag("cubes")? {
        Some(v) if v.iter().any(|&x| x < 0) => {
            return Err(CliError::usage("error: --cubes expects integers >= 0"))
        }
        Some(v) => v.into_iter().map(|x| x as usize).collect(),
        None => vec![1, 2, 3],
    };
    let cfg = loom_core::explore::ExploreConfig {
        pi_bound: a.int_flag_at_least("pi-bound", 1, 1)?,
        top: a.int_flag_at_least("top", 10, 1)? as usize,
        // Candidates are costed on the fault-free model under the given
        // timing parameters and simulator switches, as `simulate` runs
        // them; no candidate records a trace or metrics for output.
        machine: MachineOptions {
            record_trace: false,
            collect_metrics: false,
            ..machine_options(a)?
        },
        threads: a.int_flag_at_least("threads", 0, 0)? as usize,
        prune: !a.switch("no-prune"),
        symbolic: if a.switch("symbolic") {
            Some(symbolic_explore(a, &input)?)
        } else {
            None
        },
    };
    let start = std::time::Instant::now();
    let nest = input.pipeline.nest();
    let best = input
        .pipeline
        .explore(&dims, &cfg, &obs.rec)
        .map_err(|e| CliError::failed(format!("exploration failed: {e}")))?;
    let wall_us = start.elapsed().as_micros() as u64;
    obs.finish(None, || None)?;
    let counters = obs.rec.counters();
    let get = |k: &str| counters.get(k).copied().unwrap_or(0);
    if let Some(path) = a.flags.get("bench-out") {
        let count = |k: &str| Json::from(get(k));
        let mut fields = vec![
            ("workload", Json::from(nest.name())),
            ("candidates", count("explore.candidates")),
            ("simulated", count("explore.simulated")),
            ("pruned", count("explore.pruned")),
            ("wall_us", Json::from(wall_us)),
            ("ranked", Json::from(best.len())),
        ];
        if cfg.symbolic.is_some() {
            fields.extend([
                ("symbolic_routed", count("explore.symbolic.routed")),
                ("symbolic_exact", count("explore.symbolic.exact")),
                ("symbolic_fallback", count("explore.symbolic.fallback")),
                (
                    "symbolic_probe_points",
                    count("explore.symbolic.probe_points"),
                ),
            ]);
        }
        std::fs::write(path, Json::obj(fields).render_pretty())
            .map_err(|e| CliError::failed(format!("cannot write {path}: {e}")))?;
        eprintln!("bench summary written to {path}");
    }
    if let Some(sym) = &cfg.symbolic {
        let routed = get("explore.symbolic.routed");
        if routed > 0 {
            eprintln!(
                "symbolic: target ranked by simulation (2 x {} cubes x {} points \
                 <= budget {}): {routed} candidates routed",
                dims.len(),
                nest.space().count(),
                sym.opts.max_probe_points,
            );
        }
        eprintln!(
            "symbolic: {} exact, {} fallback, {} infeasible \
             ({} probe sims, {} probe points)",
            get("explore.symbolic.exact"),
            get("explore.symbolic.fallback"),
            get("explore.symbolic.infeasible"),
            get("explore.symbolic.probe_sims"),
            get("explore.symbolic.probe_points"),
        );
    }
    let mut t = Table::new([
        "rank", "Π", "grouping", "N", "blocks", "makespan", "messages",
    ]);
    for (i, c) in best.iter().enumerate() {
        t.row([
            format!("{}", i + 1),
            format!("{:?}", c.pi),
            format!("D[{}]", c.grouping),
            format!("{}", 1usize << c.cube_dim),
            format!("{}", c.blocks),
            format!("{}", c.makespan),
            format!("{}", c.messages),
        ]);
    }
    println!("{t}");
    Ok(())
}

fn cmd_profile(a: &Args) -> Result<(), CliError> {
    let obs = Obs::new(a, "profile", true)?;
    let input = resolve(a, &obs.rec)?;
    let (stage, _, placement) = input.stage(&config(a, &input.pi)?, &obs.rec)?;
    let target = placement.cube();
    let program = stage.program(&placement);
    // The profiler walks the trace and the telemetry, so record both.
    let machine = MachineOptions {
        record_trace: true,
        collect_metrics: true,
        ..machine_options(a)?
    };
    let report = run_machine(&program, target, &machine, &obs.rec, None)?;
    let k = a.int_flag_at_least("top", 3, 1)? as usize;
    let profile = {
        let _s = obs.rec.span("profile.critical_path");
        loom_machine::critical_path_top_k(&program, &machine.sim_config(target), &report, k)
            .map_err(|e| CliError::failed(format!("profiling failed: {e}")))?
    };
    if a.switch("json") {
        println!("{}", profile.to_json().render_pretty());
    } else {
        println!(
            "{} on {:?} ({} procs)",
            input.pipeline.nest().name(),
            target,
            placement.num_procs()
        );
        print!("{}", profile.render_human());
    }
    obs.finish(Some(&report), || {
        loom_machine::trace::chrome_trace(&report, placement.num_procs(), Some(&profile))
            .map(|d| ("annotated trace", d))
    })
}

/// Read + parse a JSON document for `loom obs diff` (size- and
/// depth-bounded: the inputs are untrusted).
fn read_json(path: &str) -> Result<Json, CliError> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| CliError::usage(format!("cannot read {path}: {e}")))?;
    Json::parse(&src).map_err(|e| CliError::usage(format!("{path}: invalid JSON: {e}")))
}

fn cmd_obs(a: &Args) -> Result<(), CliError> {
    let (old_path, new_path) =
        match (
            a.positional.first().map(String::as_str),
            a.positional.get(1),
            a.positional.get(2),
        ) {
            (Some("diff"), Some(old), Some(new)) => (old.clone(), new.clone()),
            _ => return Err(CliError::usage(
                "usage: loom obs diff <old.json> <new.json> [--threshold B] [--warn-only] [--json]",
            )),
        };
    let opts = loom_obs::DiffOptions {
        tolerance_buckets: a.int_flag_at_least("threshold", 1, 0)? as usize,
    };
    let old = read_json(&old_path)?;
    let new = read_json(&new_path)?;
    let report = loom_obs::diff::diff(&old, &new, &opts);
    if a.switch("json") {
        println!("{}", report.to_json().render_pretty());
    } else {
        let table = report.render_table();
        if table.is_empty() {
            println!(
                "no differences beyond noise ({} leaves compared)",
                report.compared
            );
        } else {
            print!("{table}");
        }
    }
    if report.has_regressions() {
        if a.switch("warn-only") {
            eprintln!("regressions found (exit 0: --warn-only)");
        } else {
            return Err(CliError::Diagnostics);
        }
    }
    Ok(())
}

fn cmd_table1(a: &Args) -> Result<(), CliError> {
    let m = a.int_flag_at_least("m", 1024, 1)? as u64;
    let params = machine_params(a)?;
    let mut t = Table::new(["N", "T_exec (symbolic)", "ticks"]);
    for (n, terms) in table1_rows(m) {
        t.row([
            format!("{n}"),
            terms.render(),
            format!("{}", terms.evaluate(&params)),
        ]);
    }
    println!("{t}");
    Ok(())
}

fn main() {
    let a = args::parse(std::env::args().skip(1));
    let result = match a.command.as_deref() {
        Some("workloads") => {
            cmd_workloads();
            Ok(())
        }
        Some("partition") => cmd_partition(&a),
        Some("map") => cmd_map(&a),
        Some("simulate") | Some("sim") => cmd_simulate(&a),
        Some("codegen") => cmd_codegen(&a),
        Some("check") => cmd_check(&a),
        Some("viz") => cmd_viz(&a),
        Some("explore") => cmd_explore(&a),
        Some("profile") => cmd_profile(&a),
        Some("obs") => cmd_obs(&a),
        Some("table1") => cmd_table1(&a),
        _ => usage(),
    };
    if let Err(e) = result {
        e.render();
        std::process::exit(e.exit_code());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_has_a_family_and_unique_names() {
        let mut names = Vec::new();
        for (name, aliases, key, ..) in BUILTINS {
            assert!(loom_workloads::family_of(key, None).is_some(), "{key}");
            names.push(name);
            names.extend(aliases);
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "a name answers to two builtins");
    }
}
