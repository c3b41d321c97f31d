//! `compile`: the user's `.loom → mapping → program` path. One request
//! parses (samples) or takes (builtins) a nest, runs the pipeline with
//! Π search, the symbolic static check and simulation, then generates
//! the SPMD program.

use crate::runner::{same, Oracle, Workload};
use crate::trace::Tracer;
use loom_check::{check_pipeline_mode, CheckMode, PipelineCheck, UniformizeStats};
use loom_codegen::gen::Codegen;
use loom_codegen::CodegenError;
use loom_core::{MachineOptions, Pipeline, PipelineConfig, PipelineError, PipelineOutput};
use loom_exec::memory::address_hash_init;
use loom_hyperplane::SearchConfig;
use loom_loopir::{DepOptions, LoopNest};
use loom_machine::{MachineParams, Program, SimConfig, SimScratch};
use loom_partition::comm::comm_stats;
use loom_partition::{partition, PartitionConfig, Tig};
use std::hint::black_box;

/// Every `samples/*.loom` except the deliberately corrupt ones. The
/// vardist and nonuniform samples take the uniformization path.
pub const SAMPLES: [(&str, &str); 8] = [
    ("heat1d.loom", include_str!("../../samples/heat1d.loom")),
    ("l1.loom", include_str!("../../samples/l1.loom")),
    ("matmul.loom", include_str!("../../samples/matmul.loom")),
    (
        "nonuniform.loom",
        include_str!("../../samples/nonuniform.loom"),
    ),
    ("strided.loom", include_str!("../../samples/strided.loom")),
    (
        "vardist_diag2d.loom",
        include_str!("../../samples/vardist_diag2d.loom"),
    ),
    (
        "vardist_scale.loom",
        include_str!("../../samples/vardist_scale.loom"),
    ),
    (
        "wavefront_dp.loom",
        include_str!("../../samples/wavefront_dp.loom"),
    ),
];

/// The largest hypercube a compile input is mapped onto.
const MAX_CUBE: usize = 2;

pub enum Source {
    Builtin(LoopNest),
    /// A `.loom` file: parsed from its text in every request.
    Sample(&'static str, &'static str),
}

impl Source {
    pub fn name(&self) -> &str {
        match self {
            Source::Builtin(nest) => nest.name(),
            Source::Sample(name, _) => name,
        }
    }

    pub fn nest(&self, t: &mut Tracer) -> Result<LoopNest, String> {
        match self {
            Source::Builtin(nest) => Ok(nest.clone()),
            Source::Sample(name, text) => t.span("loopir.parse", |_| {
                let out = loom_loopir::parse_nest_recovering(name, text);
                match (out.diags.first(), out.nest) {
                    (None, Some(nest)) => Ok(nest),
                    (diag, _) => Err(format!("{name}: does not parse: {diag:?}")),
                }
            }),
        }
    }
}

/// The compile configuration: Π search, symbolic static check,
/// simulation on the 1991 machine.
pub fn config(cube_dim: usize) -> PipelineConfig {
    PipelineConfig {
        cube_dim,
        machine: Some(MachineOptions {
            params: MachineParams::classic_1991(),
            static_check: true,
            symbolic_check: true,
            ..Default::default()
        }),
        ..Default::default()
    }
}

/// The largest cube dimension `≤ max` the nest maps onto.
fn largest_cube(nest: &LoopNest, max: usize) -> Result<usize, String> {
    for d in (0..=max).rev() {
        match Pipeline::new(nest.clone()).run(&config(d)) {
            Ok(_) => return Ok(d),
            Err(PipelineError::Mapping(_)) => continue,
            Err(e) => return Err(format!("{}: {e}", nest.name())),
        }
    }
    Err(format!("{}: maps onto no cube", nest.name()))
}

/// Codegen's refusal of a multi-dimensional accumulation (conv2d) is
/// the expected answer, not an error.
fn program_summary(cg: &Result<Codegen, CodegenError>) -> Result<(usize, usize), String> {
    match cg {
        Ok(cg) => Ok((cg.program.num_computes(), cg.program.num_messages())),
        Err(e) => Err(e.to_string()),
    }
}

/// What a compile must reproduce: the pipeline's artifacts and the
/// generated program's size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileAnswer {
    pub deps: Vec<Vec<i64>>,
    pub pi: Vec<i64>,
    pub offsets: Vec<i64>,
    pub blocks: usize,
    pub assignment: Vec<usize>,
    pub makespan: u64,
    pub messages: u64,
    /// Computes and messages of the SPMD program, or codegen's refusal.
    pub program: Result<(usize, usize), String>,
}

pub struct CompileOutput {
    out: PipelineOutput,
    codegen: Result<Codegen, CodegenError>,
}

/// Input `i`, the cube it maps onto, and the requests on it.
pub struct Compile {
    inputs: Vec<(Source, usize)>,
}

fn builtins() -> Vec<LoopNest> {
    use loom_workloads::*;
    vec![
        l1::workload(48).nest,
        matmul::workload(10).nest,
        matvec::workload(64).nest,
        conv::workload(96, 8).nest,
        sor::workload(48, 48).nest,
        transitive::workload(10).nest,
        dft::workload(48).nest,
        triangular::workload(40).nest,
        heat2d::workload(10, 12).nest,
        conv2d::workload(8, 4).nest,
    ]
}

impl Workload for Compile {
    type Output = CompileOutput;
    type Answer = CompileAnswer;
    const THREADS: usize = 1;

    fn setup(smoke: bool) -> Result<Compile, String> {
        let mut sources: Vec<Source> = builtins().into_iter().map(Source::Builtin).collect();
        sources.extend(
            SAMPLES
                .iter()
                .map(|&(name, text)| Source::Sample(name, text)),
        );
        if smoke {
            sources.truncate(3);
        }
        let inputs = sources
            .into_iter()
            .map(|s| {
                let cube = largest_cube(&s.nest(&mut Tracer::disabled())?, MAX_CUBE)?;
                Ok((s, cube))
            })
            .collect::<Result<_, String>>()?;
        Ok(Compile { inputs })
    }

    fn len(&self) -> usize {
        self.inputs.len()
    }

    fn label(&self, i: usize) -> String {
        let (source, cube) = &self.inputs[i];
        format!("compile {} cube {cube}", source.name())
    }

    fn request(&self, i: usize, t: &mut Tracer) -> Result<CompileOutput, String> {
        let (source, cube) = &self.inputs[i];
        let pipeline = Pipeline::new(source.nest(t)?);
        let rec = t.recorder();
        let out = t
            .span("core.run_with", |_| pipeline.run_with(&config(*cube), &rec))
            .map_err(|e| e.to_string())?;
        let codegen = t.span("codegen.generate", |_| {
            loom_codegen::generate(
                pipeline.nest(),
                &out.partitioning,
                out.mapping.assignment(),
                out.placement.num_procs(),
            )
        });
        Ok(CompileOutput { out, codegen })
    }

    fn answer(&self, _i: usize, o: CompileOutput) -> CompileAnswer {
        let sim = o.out.sim.as_ref().expect("the compile config simulates");
        CompileAnswer {
            deps: o.out.deps.clone(),
            pi: o.out.pi.coeffs().to_vec(),
            offsets: o.out.stmt_offsets.clone(),
            blocks: o.out.partitioning.num_blocks(),
            assignment: o.out.mapping.assignment().to_vec(),
            makespan: sim.makespan,
            messages: sim.messages,
            program: program_summary(&o.codegen),
        }
    }

    fn replica(&self, i: usize, answer: &CompileAnswer, t: &mut Tracer) -> Result<(), String> {
        let (source, cube) = &self.inputs[i];
        let nest = source.nest(&mut Tracer::disabled())?;
        let (got, _) = replica(&nest, *cube, t)?;
        same("stage replica", &got, answer)
    }

    /// The stage replica must reach the pipeline's answer, and the
    /// generated program, run, must compute what the source loop does.
    fn verify(&self, i: usize, answer: &CompileAnswer, _: &[bool]) -> Result<Oracle, String> {
        let (source, cube) = &self.inputs[i];
        let nest = source.nest(&mut Tracer::disabled())?;
        let (got, codegen) = replica(&nest, *cube, &mut Tracer::disabled())?;
        same("stage replica", &got, answer)?;
        match codegen {
            Ok(cg) => spmd_matches_sequential(&nest, &cg)?,
            Err(CodegenError::MultiDimensionalAccumulation { .. }) => {}
            Err(e) => return Err(format!("codegen: {e}")),
        }
        Ok(Oracle::Agrees)
    }

    fn makespan(&self, _i: usize, answer: &CompileAnswer) -> u64 {
        answer.makespan
    }
}

/// Run a generated program in the round-robin interpreter and compare
/// it with the sequential execution of the source loop.
pub fn spmd_matches_sequential(nest: &LoopNest, cg: &Codegen) -> Result<(), String> {
    let run = loom_codegen::run(nest, cg, &address_hash_init).map_err(|e| e.to_string())?;
    let serial = loom_exec::sequential(nest, &address_hash_init);
    loom_exec::equivalent(&run.gathered, &serial).map_err(|d| format!("SPMD diverges: {d:?}"))
}

/// The compile stage by stage through each crate's public functions,
/// one span per stage, so a traced run shows where a compile spends its
/// time. The stages of `Pipeline::run_with` sit under one
/// `replica.run_with` span: `core.run_with` minus them is the
/// pipeline's own glue.
fn replica(
    nest: &LoopNest,
    cube: usize,
    t: &mut Tracer,
) -> Result<(CompileAnswer, Result<Codegen, CodegenError>), String> {
    let s = t.span("replica.run_with", |t| pipeline_stages(nest, cube, t))?;
    let assignment = s.mapping.assignment();
    let procs = s.mapping.cube().len();
    let codegen = t.span("codegen.generate", |_| {
        loom_codegen::generate(nest, &s.partitioning, assignment, procs)
    });
    if let Ok(cg) = &codegen {
        t.count("codegen.computes", cg.program.num_computes() as u64);
        t.count("codegen.messages", cg.program.num_messages() as u64);
    }
    let answer = CompileAnswer {
        blocks: s.partitioning.num_blocks(),
        assignment: assignment.to_vec(),
        makespan: s.sim.makespan,
        messages: s.sim.messages,
        program: program_summary(&codegen),
        deps: s.deps,
        pi: s.pi.coeffs().to_vec(),
        offsets: s.offsets,
    };
    Ok((answer, codegen))
}

struct Stages {
    deps: Vec<Vec<i64>>,
    pi: loom_hyperplane::TimeFn,
    offsets: Vec<i64>,
    partitioning: loom_partition::Partitioning,
    mapping: loom_mapping::Mapping,
    sim: loom_machine::SimReport,
}

fn pipeline_stages(nest: &LoopNest, cube: usize, t: &mut Tracer) -> Result<Stages, String> {
    let opts = DepOptions::default();
    let deps = match t.span("loopir.deps", |_| {
        loom_loopir::deps::dependence_vectors(nest, opts)
    }) {
        Ok(deps) => deps,
        Err(loom_loopir::Error::NonUniform { .. }) => {
            let mut stats = UniformizeStats::default();
            let admitted = t.span("check.admit", |_| {
                loom_check::admit_uniformized(nest, opts, &mut stats)
            });
            t.count("check.uniformize.proofs", stats.proofs);
            admitted.map_err(|r| r.render_human())?.0.vectors
        }
        Err(e) => return Err(e.to_string()),
    };
    let rec = t.recorder();
    let pi = t
        .span("hyperplane.search", |_| {
            loom_hyperplane::find_optimal_with(&deps, nest.space(), SearchConfig::default(), &rec)
        })
        .map_err(|e| e.to_string())?;
    let offsets = t.span("hyperplane.offsets", |_| {
        let intra = DepOptions {
            include_intra: true,
            ..opts
        };
        let records = match loom_loopir::deps::extract_dependences(nest, intra) {
            Err(loom_loopir::Error::NonUniform { .. }) => loom_loopir::uniformize(nest, intra)
                .map(|u| u.deps)
                .map_err(|e| format!("{e:?}")),
            other => other.map_err(|e| e.to_string()),
        }?;
        loom_hyperplane::compute_offsets(nest.stmts().len(), &records, &pi)
            .map_err(|e| format!("{e:?}"))
    })?;
    let p = t
        .span("partition.partition", |_| {
            partition(
                nest.space().clone(),
                deps.clone(),
                pi.clone(),
                &PartitionConfig::default(),
            )
        })
        .map_err(|e| e.to_string())?;
    t.count("partition.blocks", p.num_blocks() as u64);
    black_box(t.span("partition.comm_stats", |_| comm_stats(&p)));
    let tig = t.span("partition.tig", |_| Tig::from_partitioning(&p));
    let mapping = t
        .span("mapping.map", |_| loom_mapping::map_partitioning(&p, cube))
        .map_err(|e| e.to_string())?;
    let report = t.span("check.verify", |_| {
        let input = PipelineCheck {
            nest,
            deps: &deps,
            pi: &pi,
            partitioning: &p,
            tig: &tig,
            assignment: mapping.assignment(),
            cube_dim: cube,
        };
        check_pipeline_mode(&input, CheckMode::Symbolic, &rec)
    });
    if report.has_errors() {
        return Err(report.render_human());
    }
    let procs = mapping.cube().len();
    let program = t.span("machine.program", |_| {
        Program::from_partitioning(&p, mapping.assignment(), procs, nest.flops_per_iteration())
    });
    let sim_config = SimConfig::paper_hypercube(cube, MachineParams::classic_1991());
    let sim = t
        .span("machine.simulate", |_| {
            loom_machine::simulate_scratch(&program, &sim_config, &mut SimScratch::default())
        })
        .map_err(|e| e.to_string())?;
    t.count("machine.messages", sim.messages);
    t.count_from(&rec, &["hyperplane.candidates", "check.symbolic.fallback"]);
    Ok(Stages {
        deps,
        pi,
        offsets,
        partitioning: p,
        mapping,
        sim,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stage replica reaches `Pipeline::run`'s answer on every
    /// `compile` input.
    #[test]
    fn replica_equals_pipeline_on_every_input() {
        let w = Compile::setup(false).expect("set-up");
        for i in 0..w.len() {
            let out = w.request(i, &mut Tracer::disabled()).expect("compiles");
            let answer = w.answer(i, out);
            let (source, cube) = &w.inputs[i];
            let nest = source.nest(&mut Tracer::disabled()).unwrap();
            let (got, _) = replica(&nest, *cube, &mut Tracer::enabled()).expect("replica");
            assert_eq!(got, answer, "{}", w.label(i));
        }
    }
}
