//! The end-to-end pipeline: loop nest → dependences → Π → blocks →
//! hypercube mapping → simulated execution.

use loom_hyperplane::{SearchConfig, TimeFn};
use loom_loopir::{DepOptions, Dependence, LoopNest, Point};
use loom_machine::trace::{verify_trace, TraceViolation};
use loom_machine::{
    simulate_scratch, simulate_with_faults_scratch, FaultConfig, MachineParams, Program, SimConfig,
    SimReport, SimScratch, Topology,
};
use loom_mapping::other_targets::{map_positions_mesh, map_positions_ring, partition_positions};
use loom_mapping::{map_positions, Mapping};
use loom_obs::{Json, Recorder};
use loom_partition::comm::comm_stats;
use loom_partition::{
    partition_projected, CommStats, ComputationalStructure, PartitionConfig, Partitioning,
    ProjectedStructure, Tig,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Machine-simulation options for the pipeline. The topology is not
/// among them: it is the configured target's
/// ([`PipelineConfig::target`], the hypercube of `cube_dim` when unset).
#[derive(Clone, Debug)]
pub struct MachineOptions {
    /// Timing parameters.
    pub params: MachineParams,
    /// Merge per-task same-destination messages.
    pub batch_messages: bool,
    /// Model per-link contention in the interconnect.
    pub link_contention: bool,
    /// Record the execution trace.
    pub record_trace: bool,
    /// Collect rich simulator telemetry
    /// ([`loom_machine::SimMetrics`]).
    pub collect_metrics: bool,
    /// Check the execution trace against the program after simulation
    /// (implies trace recording) and fail the pipeline with
    /// [`PipelineError::Trace`] on any violation.
    pub validate_trace: bool,
    /// Run the `loom-check` static verifier over the pipeline's
    /// artifacts after mapping (before simulation) and fail with
    /// [`PipelineError::StaticCheck`] on any error-severity diagnostic.
    pub static_check: bool,
    /// Run the static check with the symbolic engine
    /// ([`loom_check::CheckMode::Symbolic`]): `LC009`–`LC012` prove
    /// legality, Lemma 1, and the communication protocol in time
    /// independent of the iteration-space extent, instead of the
    /// enumerative point-and-message walk. Only consulted when
    /// `static_check` is set.
    pub symbolic_check: bool,
    /// Inject faults during simulation: the deterministic plan plus the
    /// recovery policy ([`loom_machine::fault`]). `None` simulates the
    /// paper's perfectly reliable machine.
    pub faults: Option<FaultConfig>,
}

impl MachineOptions {
    /// The static-check engine these options select: `None` unless
    /// `static_check` is set; then symbolic if `symbolic_check` is set,
    /// enumerative otherwise. The interleaving engine is reached through
    /// [`PartitionedStage::check_mode`] with
    /// [`loom_check::CheckMode::Interleaving`].
    pub fn static_check_mode(&self) -> Option<loom_check::CheckMode> {
        if !self.static_check {
            None
        } else if self.symbolic_check {
            Some(loom_check::CheckMode::Symbolic)
        } else {
            Some(loom_check::CheckMode::Enumerative)
        }
    }

    /// The simulator configuration these options select on `target`
    /// (validation needs the trace, so it implies recording it).
    pub fn sim_config(&self, target: Topology) -> SimConfig {
        SimConfig {
            params: self.params,
            topology: target,
            batch_messages: self.batch_messages,
            link_contention: self.link_contention,
            record_trace: self.record_trace || self.validate_trace,
            collect_metrics: self.collect_metrics,
        }
    }
}

impl Default for MachineOptions {
    fn default() -> MachineOptions {
        MachineOptions {
            params: MachineParams::classic_1991(),
            batch_messages: false,
            link_contention: false,
            record_trace: false,
            collect_metrics: false,
            validate_trace: false,
            static_check: false,
            symbolic_check: false,
            faults: None,
        }
    }
}

/// Pipeline configuration. Dependences are extracted with every class
/// included, and a nest the uniform front end rejects is admitted
/// through certified uniformization (`LC016`): its variable-distance
/// dependences are folded into a synthesized constant-vector basis,
/// the cover is proven by the Presburger core, and the folded set
/// drives the rest of the pipeline. An uncertifiable nest is rejected
/// with the full report as [`PipelineError::StaticCheck`].
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Fixed time function; `None` searches for the optimal one within
    /// the default [`SearchConfig`] bounds.
    pub time_fn: Option<Vec<i64>>,
    /// Algorithm 1 options.
    pub partition: PartitionConfig,
    /// Hypercube dimension `n` (the machine has `2ⁿ` processors).
    /// Ignored when `target` is set.
    pub cube_dim: usize,
    /// Explicit machine target (a mesh's and a ring's extents must be
    /// powers of two); `None` uses `Hypercube(cube_dim)`.
    pub target: Option<Topology>,
    /// Simulate on the machine model; `None` stops after mapping.
    pub machine: Option<MachineOptions>,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            time_fn: None,
            partition: PartitionConfig::default(),
            cube_dim: 2,
            target: None,
            machine: Some(MachineOptions::default()),
        }
    }
}

/// Everything the pipeline produced.
#[derive(Clone, Debug)]
pub struct PipelineOutput {
    /// The extracted dependence set `D`.
    pub deps: Vec<Point>,
    /// The time transformation Π.
    pub pi: TimeFn,
    /// Algorithm 1's partitioning.
    pub partitioning: Partitioning,
    /// Interblock communication statistics.
    pub comm: CommStats,
    /// The Task Interaction Graph of the blocks.
    pub tig: Tig,
    /// Algorithm 2's block → processor mapping, on the hypercube with
    /// the target's processor count.
    pub mapping: Mapping,
    /// The placement on the configured target (same as `mapping` for
    /// hypercube targets).
    pub placement: Mapping,
    /// The machine target used.
    pub target: Topology,
    /// Fine-grain statement schedule offsets δ_s (see
    /// [`loom_hyperplane::offsets`]): statement `s` of iteration `x`
    /// runs at `Π·x + δ_s`. All zeros for single-statement bodies and
    /// nests without intra-iteration dependences.
    pub stmt_offsets: Vec<i64>,
    /// The simulated execution, when requested.
    pub sim: Option<SimReport>,
}

impl PipelineOutput {
    /// The simulation report, as a typed error instead of a panic when
    /// the pipeline was configured with `machine: None`.
    pub fn sim_report(&self) -> Result<&SimReport, PipelineError> {
        self.sim.as_ref().ok_or(PipelineError::NoSimulation)
    }
}

/// A pipeline failure, wrapping the failing stage's error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// Dependence extraction failed (non-uniform nest).
    Deps(loom_loopir::Error),
    /// No legal/valid time transformation.
    TimeFn(loom_hyperplane::Error),
    /// Partitioning failed.
    Partition(loom_partition::Error),
    /// Mapping failed.
    Mapping(loom_mapping::Error),
    /// Simulation failed.
    Sim(loom_machine::sim::SimError),
    /// The simulated execution trace violated a structural property
    /// (only produced when
    /// [`MachineOptions::validate_trace`] is set).
    Trace(Vec<TraceViolation>),
    /// The `loom-check` static verifier reported error-severity
    /// diagnostics (only produced when
    /// [`MachineOptions::static_check`] is set). The full report —
    /// warnings included — rides along for rendering.
    StaticCheck(loom_check::Report),
    /// A simulation-derived artifact was requested from a pipeline
    /// configured with `machine: None`, so no simulation ever ran.
    NoSimulation,
    /// A symbolic exploration's `family(size)` is not the nest being
    /// explored, so its closed forms would rank a different space than
    /// the simulator.
    FamilyMismatch {
        /// The target size the family was instantiated at.
        size: i64,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Deps(e) => write!(f, "dependence extraction: {e}"),
            PipelineError::TimeFn(e) => write!(f, "time transformation: {e}"),
            PipelineError::Partition(e) => write!(f, "partitioning: {e}"),
            PipelineError::Mapping(e) => write!(f, "mapping: {e}"),
            PipelineError::Sim(e) => write!(f, "simulation: {e}"),
            PipelineError::Trace(v) => {
                write!(f, "trace validation: {} violation(s): {v:?}", v.len())
            }
            PipelineError::StaticCheck(report) => {
                write!(f, "static check: {}", report.render_human().trim_end())
            }
            PipelineError::NoSimulation => {
                write!(
                    f,
                    "no simulation: the pipeline ran with machine options disabled"
                )
            }
            PipelineError::FamilyMismatch { size } => {
                write!(
                    f,
                    "symbolic family: family({size}) is not the explored nest"
                )
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// The pipeline driver.
///
/// The parts of a stage that depend on less than the whole stage are
/// built once per `Pipeline`, by the first stage that needs them, and
/// shared by every stage it builds afterwards, on any thread: the
/// nest's admitted dependences ([`Pipeline::admitted`]), `Q = (V, D)`
/// (one per dependence set `D`) and `Q^p` (one per `D` and Π). The
/// symbolic-cost probes' pipelines are parts too, one per probe size and
/// family, so every derivation on this `Pipeline` shares each probe
/// size's admission, `Q` and projections. Clones share them too.
#[derive(Clone, Debug)]
pub struct Pipeline {
    nest: Arc<LoopNest>,
    parts: Arc<Parts>,
}

/// The shared stage parts of a [`Pipeline`].
#[derive(Debug, Default)]
struct Parts {
    /// The nest's admitted dependence analysis.
    admitted: OnceLock<Result<Admitted, PipelineError>>,
    /// `Q` and its projections, per dependence set `D`.
    over: Mutex<BTreeMap<Vec<Point>, Arc<OverDeps>>>,
    /// The probe pipelines, per probe size: one per distinct nest a
    /// family has at that size.
    probes: Mutex<BTreeMap<i64, Vec<Pipeline>>>,
}

/// `Q` over one dependence set, and its projection per Π. A cell per Π
/// lets two threads project along different Πs at once, and makes two
/// that need the same Π build it once.
#[derive(Debug, Default)]
struct OverDeps {
    structure: OnceLock<Result<Arc<ComputationalStructure>, loom_partition::Error>>,
    projections: Mutex<BTreeMap<Vec<i64>, ProjectionCell>>,
}

/// One Π's projection, built by the first stage that needs it.
type ProjectionCell = Arc<OnceLock<Arc<ProjectedStructure>>>;

/// A nest's admitted dependence analysis ([`Pipeline::admitted`]).
#[derive(Clone, Debug)]
pub struct Admitted {
    /// The dependence records, intra-iteration ones included.
    pub records: Vec<Dependence>,
    /// `D`: the distinct nonzero vectors of `records`.
    pub deps: Vec<Point>,
    /// The fold's `LC016`/`LC017` diagnostics; empty for a uniform nest.
    pub folded: Vec<loom_check::Diagnostic>,
}

impl Pipeline {
    /// Wrap a loop nest.
    pub fn new(nest: LoopNest) -> Pipeline {
        Pipeline {
            nest: Arc::new(nest),
            parts: Arc::default(),
        }
    }

    /// The nest being compiled.
    pub fn nest(&self) -> &LoopNest {
        &self.nest
    }

    /// Run all stages.
    pub fn run(&self, config: &PipelineConfig) -> Result<PipelineOutput, PipelineError> {
        self.run_with(config, &Recorder::disabled())
    }

    /// [`run`](Pipeline::run) with instrumentation: when `recorder` is
    /// enabled, each stage records a `pipeline.<stage>` span, and
    /// structural counters (`pipeline.deps`, `pipeline.blocks`,
    /// `pipeline.interblock_arcs`) are filled in along the way.
    pub fn run_with(
        &self,
        config: &PipelineConfig,
        recorder: &Recorder,
    ) -> Result<PipelineOutput, PipelineError> {
        let out = {
            let _total = recorder.span("pipeline.total");
            self.stage_partition(config, recorder)?
                .complete_with(config, recorder, None)?
        };
        recorder.flight().emit(
            "pipeline.done",
            &[
                ("nest", Json::from(self.nest.name())),
                ("blocks", Json::from(out.partitioning.num_blocks())),
                ("procs", Json::from(out.placement.num_procs())),
            ],
        );
        Ok(out)
    }

    /// Stage 1, shared by every stage of this `Pipeline`: the nest's
    /// dependence records and their set `D`. A nest the uniform front
    /// end rejects is admitted through certified uniformization: the
    /// fold (`loom_loopir::uniformize`) stands for the nest only once
    /// the Presburger core proves its cover (`LC016`), and an
    /// uncertifiable nest, `Unknown` verdicts included, is a
    /// [`PipelineError::StaticCheck`] with the full report. The first
    /// call runs the analysis and records the `pipeline.deps` span and
    /// the `check.uniformize.*` counters on `recorder`; later calls
    /// record nothing.
    pub fn admitted(&self, recorder: &Recorder) -> Result<&Admitted, PipelineError> {
        let admitted = self
            .parts
            .admitted
            .get_or_init(|| admit(&self.nest, recorder));
        admitted.as_ref().map_err(Clone::clone)
    }

    /// Run stages 1–3 (dependences → Π → partitioning + TIG): the
    /// prefix of the pipeline that depends only on the nest, the time
    /// function, and the grouping choice — never on the machine. The returned [`PartitionedStage`] can be
    /// completed once per machine size without re-running any of it.
    pub fn stage_partition(
        &self,
        config: &PipelineConfig,
        recorder: &Recorder,
    ) -> Result<PartitionedStage, PipelineError> {
        let deps = self.admitted(recorder)?.deps.clone();
        self.stage_partition_with_deps(config, recorder, deps)
    }

    /// The symbolic-cost stage: derive a closed-form `T_exec` for this
    /// nest's configuration over the size family it belongs to, instead
    /// of simulating at the target size. `family(target_size)` must equal
    /// the wrapped nest, or the stage fails with
    /// [`PipelineError::FamilyMismatch`]. Resumable: the [`ProbeCache`]
    /// carries every probe stage and probe simulation across calls, so
    /// re-deriving for another cube dimension or a larger target (same Π
    /// and grouping) reuses all of them. The probes are stages of this
    /// `Pipeline`'s probe pipelines, so calls for other Π or groupings
    /// share each probe size's `Q` and projections; each cache is still
    /// charged for every probe it uses. A [`Derivation::Unknown`] result
    /// means the caller should fall back to [`run`](Pipeline::run) —
    /// always correct, just not O(1). Records what the call spent on
    /// probes as `pipeline.symbolic_probe_sims` and
    /// `pipeline.symbolic_probe_points`.
    ///
    /// [`ProbeCache`]: crate::symbolic_cost::ProbeCache
    /// [`Derivation::Unknown`]: crate::symbolic_cost::Derivation::Unknown
    pub fn stage_symbolic_cost(
        &self,
        family: &dyn Fn(i64) -> LoopNest,
        target_size: i64,
        config: &PipelineConfig,
        opts: &crate::symbolic_cost::DeriveOptions,
        cache: &mut crate::symbolic_cost::ProbeCache,
        recorder: &Recorder,
    ) -> Result<crate::symbolic_cost::Derivation, PipelineError> {
        let _s = recorder.span("pipeline.symbolic_cost");
        if family(target_size) != *self.nest {
            return Err(PipelineError::FamilyMismatch { size: target_size });
        }
        let pi = self.time_fn(config, &self.admitted(recorder)?.deps, recorder)?;
        let config = PipelineConfig {
            time_fn: Some(pi.coeffs().to_vec()),
            ..config.clone()
        };
        let (sims, points) = (cache.sims(), cache.points_spent());
        let derived = crate::symbolic_cost::derive(self, family, &config, target_size, opts, cache);
        recorder.add("pipeline.symbolic_probe_sims", cache.sims() - sims);
        recorder.add(
            "pipeline.symbolic_probe_points",
            cache.points_spent() - points,
        );
        Ok(derived)
    }

    /// [`stage_partition`](Pipeline::stage_partition) over a dependence
    /// set `D` the caller supplies instead of the admitted one, over the
    /// parts this `Pipeline` shares (see [`Pipeline`]).
    pub fn stage_partition_with_deps(
        &self,
        config: &PipelineConfig,
        recorder: &Recorder,
        deps: Vec<Point>,
    ) -> Result<PartitionedStage, PipelineError> {
        recorder.add("pipeline.deps", deps.len() as u64);

        // 2. Time transformation (hyperplane method).
        let pi = {
            let _s = recorder.span("pipeline.time_fn");
            self.time_fn(config, &deps, recorder)?
        };

        // 3. Partitioning (Algorithm 1), over the shared `Q` and `Q^p`.
        let partitioning = {
            let _s = recorder.span("pipeline.partition");
            let over = self
                .parts
                .over
                .lock()
                .unwrap()
                .entry(deps.clone())
                .or_default()
                .clone();
            let cs = over
                .structure
                .get_or_init(|| {
                    ComputationalStructure::new(self.nest.space().clone(), deps.clone())
                        .map(Arc::new)
                })
                .clone()
                .map_err(PipelineError::Partition)?;
            let projection = over
                .projections
                .lock()
                .unwrap()
                .entry(pi.coeffs().to_vec())
                .or_default()
                .clone();
            let qp = projection
                .get_or_init(|| Arc::new(ProjectedStructure::project(&cs, &pi)))
                .clone();
            partition_projected(cs, qp, &config.partition).map_err(PipelineError::Partition)?
        };
        recorder.add("pipeline.blocks", partitioning.num_blocks() as u64);
        Ok(PartitionedStage {
            pipeline: self.clone(),
            deps,
            pi,
            partitioning,
            comm: OnceLock::new(),
            tig: OnceLock::new(),
            positions: OnceLock::new(),
        })
    }

    /// The pipeline of `nest`, the family's nest at probe size `n`: the
    /// one this `Pipeline` already shares for that nest, or a new one
    /// it keeps for later probes.
    pub(crate) fn probe_pipeline(&self, n: i64, nest: LoopNest) -> Pipeline {
        let mut probes = self
            .parts
            .probes
            .lock()
            .expect("probe pipelines lock poisoned");
        let at_size = probes.entry(n).or_default();
        if let Some(pipeline) = at_size.iter().find(|p| *p.nest == nest) {
            return pipeline.clone();
        }
        let pipeline = Pipeline::new(nest);
        at_size.push(pipeline.clone());
        pipeline
    }

    /// The time transformation Π: the fixed one checked legal for
    /// `deps`, or the hyperplane search's optimum.
    fn time_fn(
        &self,
        config: &PipelineConfig,
        deps: &[Point],
        recorder: &Recorder,
    ) -> Result<TimeFn, PipelineError> {
        match &config.time_fn {
            Some(coeffs) => {
                let pi = TimeFn::new(coeffs.clone());
                pi.check_legal(deps).map_err(PipelineError::TimeFn)?;
                Ok(pi)
            }
            None => loom_hyperplane::find_optimal_with(
                deps,
                self.nest.space(),
                SearchConfig::default(),
                recorder,
            )
            .map_err(PipelineError::TimeFn),
        }
    }
}

/// [`Pipeline::admitted`]'s analysis of `nest`, with proof counts on
/// `recorder`.
fn admit(nest: &LoopNest, recorder: &Recorder) -> Result<Admitted, PipelineError> {
    let _s = recorder.span("pipeline.deps");
    let opts = DepOptions {
        include_intra: true,
        ..DepOptions::default()
    };
    let (records, folded) = match loom_loopir::extract_dependences(nest, opts) {
        Ok(records) => (records, Vec::new()),
        Err(loom_loopir::Error::NonUniform { .. }) => {
            let mut stats = loom_check::UniformizeStats::default();
            let admitted = loom_check::admit_uniformized(nest, opts, &mut stats);
            stats.record(recorder);
            let (u, diags) = admitted.map_err(PipelineError::StaticCheck)?;
            (u.deps, diags)
        }
        Err(e) => return Err(PipelineError::Deps(e)),
    };
    Ok(Admitted {
        deps: loom_loopir::vector_set(&records),
        records,
        folded,
    })
}

/// The machine-independent prefix of a pipeline run: everything up to
/// and including partitioning and the TIG, produced by
/// [`Pipeline::stage_partition`]. The mapping and simulation stages
/// still have to run; exploration computes one stage per (Π, grouping)
/// pair and completes it once per machine size, instead of re-running
/// projection, grouping, and region growing for every `cube_dim`.
///
/// The communication statistics and the TIG are built on first use:
/// simulating a mapping needs neither, so exploration never pays for
/// them unless it runs the static check. So are the blocks' coordinates
/// along the bisection directions, which every machine size's mapping
/// reads.
#[derive(Clone, Debug)]
pub struct PartitionedStage {
    pipeline: Pipeline,
    /// The extracted dependence set `D`.
    pub deps: Vec<Point>,
    /// The time transformation Π.
    pub pi: TimeFn,
    /// Algorithm 1's partitioning.
    pub partitioning: Partitioning,
    comm: OnceLock<CommStats>,
    tig: OnceLock<Tig>,
    positions: OnceLock<Result<Vec<Vec<i64>>, loom_mapping::Error>>,
}

impl PartitionedStage {
    /// Interblock communication statistics.
    pub fn comm(&self) -> &CommStats {
        self.comm.get_or_init(|| comm_stats(&self.partitioning))
    }

    /// The Task Interaction Graph of the blocks.
    pub fn tig(&self) -> &Tig {
        self.tig
            .get_or_init(|| Tig::from_partitioning(&self.partitioning))
    }

    /// Step 4 — mapping: the placement on the configured target
    /// (Algorithm 2 on hypercubes, the extension allocators on meshes
    /// and rings), and Algorithm 2's mapping on the hypercube with the
    /// target's processor count, which the static check verifies. The
    /// two are one mapping on a hypercube target.
    pub fn map_with(
        &self,
        config: &PipelineConfig,
        recorder: &Recorder,
    ) -> Result<(Mapping, Mapping, Topology), PipelineError> {
        let target = config
            .target
            .unwrap_or(Topology::Hypercube(config.cube_dim));
        let _s = recorder.span("pipeline.mapping");
        let positions = self
            .positions
            .get_or_init(|| partition_positions(&self.partitioning))
            .as_ref()
            .map_err(|e| PipelineError::Mapping(e.clone()))?;
        let placement = match target {
            Topology::Hypercube(d) => map_positions(positions, d),
            Topology::Mesh { rows, cols } => map_positions_mesh(positions, rows, cols),
            Topology::Ring(n) => map_positions_ring(positions, n),
        }
        .map_err(PipelineError::Mapping)?;
        let mapping = match target {
            Topology::Hypercube(_) => placement.clone(),
            // A mesh or ring has a power-of-two processor count.
            _ => map_positions(positions, target.len().trailing_zeros() as usize)
                .map_err(PipelineError::Mapping)?,
        };
        Ok((mapping, placement, target))
    }

    /// Step 4b — static verification (`loom-check`) with the given
    /// engine: every rule runs against the stage's artifacts plus the
    /// given mapping, and counters land as `check.<code>` (symbolic runs
    /// add the `check.symbolic.*` proof-discharge counters). The report
    /// comes back either way: as `Ok` when it holds no error-severity
    /// diagnostic, else inside [`PipelineError::StaticCheck`], which
    /// aborts the pipeline before any simulation is paid for.
    pub fn check_mode(
        &self,
        mapping: &Mapping,
        mode: loom_check::CheckMode,
        recorder: &Recorder,
    ) -> Result<loom_check::Report, PipelineError> {
        let _s = recorder.span("pipeline.check");
        let report = loom_check::check_pipeline_mode(
            &loom_check::PipelineCheck {
                nest: self.pipeline.nest(),
                deps: &self.deps,
                pi: &self.pi,
                partitioning: &self.partitioning,
                tig: self.tig(),
                assignment: mapping.assignment(),
                // Algorithm 2's mapping: 2^cube_dim processors.
                cube_dim: mapping.num_procs().trailing_zeros() as usize,
            },
            mode,
            recorder,
        );
        if report.has_errors() {
            return Err(PipelineError::StaticCheck(report));
        }
        Ok(report)
    }

    /// The executable form of this stage's blocks under a placement.
    pub fn program(&self, placement: &Mapping) -> Program {
        Program::from_partitioning(
            &self.partitioning,
            placement.assignment(),
            placement.num_procs(),
            self.pipeline.nest().flops_per_iteration(),
        )
    }

    /// Finish the pipeline (mapping → static check → simulation →
    /// statement offsets), consuming the stage into a full [`PipelineOutput`]. `recorder`
    /// instruments the run; an optional reusable [`SimScratch`] lets
    /// back-to-back completions skip the simulator's buffer allocations
    /// while staying bit-identical to fresh-state runs.
    pub fn complete_with(
        self,
        config: &PipelineConfig,
        recorder: &Recorder,
        scratch: Option<&mut SimScratch>,
    ) -> Result<PipelineOutput, PipelineError> {
        let (mapping, placement, target) = self.map_with(config, recorder)?;
        if let Some(mode) = config
            .machine
            .as_ref()
            .and_then(MachineOptions::static_check_mode)
        {
            self.check_mode(&mapping, mode, recorder)?;
        }

        // 5. Machine simulation.
        let sim = match &config.machine {
            None => None,
            Some(opts) => {
                let program = self.program(&placement);
                Some(run_machine(&program, target, opts, recorder, scratch)?)
            }
        };

        // Fine-grain statement schedule offsets δ_s under Π, from the
        // admitted records (intra-iteration ones included).
        let stmt_offsets = {
            let _s = recorder.span("pipeline.stmt_offsets");
            let records = &self.pipeline.admitted(recorder)?.records;
            let stmts = self.pipeline.nest().stmts().len();
            loom_hyperplane::compute_offsets(stmts, records, &self.pi)
                .map_err(|_| PipelineError::TimeFn(loom_hyperplane::Error::NotFound { bound: 0 }))?
        };
        let PartitionedStage {
            deps,
            pi,
            partitioning,
            comm,
            tig,
            ..
        } = self;
        let comm = comm
            .into_inner()
            .unwrap_or_else(|| comm_stats(&partitioning));
        let tig = tig
            .into_inner()
            .unwrap_or_else(|| Tig::from_partitioning(&partitioning));
        recorder.add("pipeline.interblock_arcs", comm.interblock_arcs as u64);
        Ok(PipelineOutput {
            deps,
            pi,
            partitioning,
            comm,
            tig,
            mapping,
            placement,
            target,
            stmt_offsets,
            sim,
        })
    }
}

/// Step 5 — simulate `program` on `target` under `opts`, with fault
/// bookkeeping (`fault.*` counters) and post-hoc trace validation.
/// `scratch` lets callers reuse the simulator's working buffers across
/// runs; `None` simulates from fresh state. Shared by
/// [`PartitionedStage::complete_with`] and exploration's pruned path.
pub fn run_machine(
    program: &Program,
    target: Topology,
    opts: &MachineOptions,
    recorder: &Recorder,
    scratch: Option<&mut SimScratch>,
) -> Result<SimReport, PipelineError> {
    let _s = recorder.span("pipeline.simulate");
    let mut local = SimScratch::default();
    let scratch = scratch.unwrap_or(&mut local);
    let sim_config = opts.sim_config(target);
    let report = match &opts.faults {
        None => simulate_scratch(program, &sim_config, scratch).map_err(PipelineError::Sim)?,
        Some(fc) => {
            let r = simulate_with_faults_scratch(program, &sim_config, fc, scratch)
                .map_err(PipelineError::Sim)?;
            if let Some(deg) = r.degradation.as_ref() {
                recorder.add("fault.injected", deg.faults_injected);
                recorder.add("fault.hit", deg.faults_hit);
                recorder.add("fault.drops", deg.drops);
                recorder.add("fault.corruptions", deg.corruptions);
                recorder.add("fault.delays", deg.delays);
                recorder.add("fault.reroutes", deg.reroutes);
                recorder.add("fault.retries", deg.retries);
                recorder.add("fault.retransmitted_words", deg.retransmitted_words);
                recorder.add("fault.crashes", deg.crashes);
                recorder.add("fault.remapped_tasks", deg.remapped_tasks);
                recorder.add("fault.state_transfer_words", deg.state_transfer_words);
                recorder.add(
                    "fault.makespan_inflation_permille",
                    (deg.makespan_inflation() * 1000.0).round().max(0.0) as u64,
                );
            }
            r
        }
    };
    // Remap recovery legitimately moves tasks off their statically
    // assigned processors, which is exactly what verify_trace rejects —
    // skip validation for runs that actually remapped.
    let remapped = report
        .degradation
        .as_ref()
        .is_some_and(|d| d.remapped_tasks > 0);
    if opts.validate_trace && !remapped {
        let violations = verify_trace(program, report.trace.as_deref().unwrap_or(&[]));
        if !violations.is_empty() {
            return Err(PipelineError::Trace(violations));
        }
    }
    recorder.flight().emit(
        "sim.done",
        &[
            ("makespan", Json::from(report.makespan)),
            ("messages", Json::from(report.messages)),
            ("words", Json::from(report.words)),
        ],
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic_cost::{derive, Derivation, DeriveOptions, ProbeCache};

    #[test]
    fn l1_end_to_end() {
        let w = loom_workloads::l1::workload(4);
        let out = Pipeline::new(w.nest)
            .run(&PipelineConfig {
                cube_dim: 1,
                ..Default::default()
            })
            .unwrap();
        assert_eq!(out.deps.len(), 3);
        assert_eq!(out.pi.coeffs(), &[1, 1]);
        assert_eq!(out.partitioning.num_blocks(), 4);
        assert_eq!(out.comm.total_arcs, 33);
        assert_eq!(out.comm.interblock_arcs, 12);
        assert_eq!(out.tig.len(), 4);
        let sim = out.sim.unwrap();
        assert!(sim.makespan > 0);
        assert_eq!(sim.compute.len(), 2);
    }

    /// A config that fixes Π and the grouping choice.
    fn grouped(pi: &[i64], grouping: usize) -> PipelineConfig {
        PipelineConfig {
            time_fn: Some(pi.to_vec()),
            partition: PartitionConfig {
                grouping_choice: Some(grouping),
                seed: None,
            },
            machine: None,
            ..Default::default()
        }
    }

    /// `stage` partitions like a fresh `partition` of its own inputs,
    /// and shares `Q` and `Q^p` with `other` by pointer.
    fn shares_with(stage: &PartitionedStage, other: &PartitionedStage) {
        let p = &stage.partitioning;
        let fresh = loom_partition::partition(
            stage.pipeline.nest().space().clone(),
            stage.deps.clone(),
            stage.pi.clone(),
            &PartitionConfig {
                grouping_choice: p.vectors().grouping,
                seed: None,
            },
        )
        .unwrap();
        assert_eq!((p.blocks(), p.vectors()), (fresh.blocks(), fresh.vectors()));
        assert_eq!(p.structure().deps(), &stage.deps[..]);
        let q = &other.partitioning;
        assert!(std::ptr::eq(p.structure(), q.structure()), "Q copied");
        assert!(std::ptr::eq(p.projected(), q.projected()), "Q^p copied");
    }

    #[test]
    fn stage_parts_are_shared_across_groupings() {
        // l1 under Π = (1, 1): two of its three groupings are maximal.
        let w = loom_workloads::l1::workload(6);
        let deps = w.verified_deps();
        let pipeline = Pipeline::new(w.nest.clone());
        let rec = Recorder::disabled();
        let stages: Vec<_> = (0..deps.len())
            .filter_map(|g| pipeline.stage_partition(&grouped(&[1, 1], g), &rec).ok())
            .collect();
        assert!(stages.len() >= 2, "{} grouping(s) partition", stages.len());
        for stage in &stages {
            shares_with(stage, &stages[0]);
        }
        // Another Π reads the same `Q` through its own projection.
        let other = pipeline
            .stage_partition(&grouped(&[2, 1], 0), &rec)
            .unwrap();
        let (p, q) = (&other.partitioning, &stages[0].partitioning);
        assert!(std::ptr::eq(p.structure(), q.structure()));
        assert!(!std::ptr::eq(p.projected(), q.projected()));
    }

    #[test]
    fn stage_parts_are_shared_across_threads() {
        let w = loom_workloads::l1::workload(6);
        let deps = w.verified_deps();
        let rec = Recorder::disabled();
        let groupings: Vec<usize> = (0..deps.len())
            .filter(|&g| {
                Pipeline::new(w.nest.clone())
                    .stage_partition(&grouped(&[1, 1], g), &rec)
                    .is_ok()
            })
            .collect();
        assert!(groupings.len() >= 2);
        // Two threads build different groupings at the same moment on
        // one fresh `Pipeline`, so both race for its admission, `Q` and
        // `Q^p`.
        for _ in 0..16 {
            let pipeline = Pipeline::new(w.nest.clone());
            let start = std::sync::Barrier::new(2);
            let stages: Vec<_> = std::thread::scope(|scope| {
                let workers: Vec<_> = groupings[..2]
                    .iter()
                    .map(|&g| {
                        let (pipeline, start, rec) = (&pipeline, &start, &rec);
                        scope.spawn(move || {
                            start.wait();
                            pipeline.stage_partition(&grouped(&[1, 1], g), rec).unwrap()
                        })
                    })
                    .collect();
                workers.into_iter().map(|h| h.join().unwrap()).collect()
            });
            shares_with(&stages[0], &stages[1]);
            shares_with(&stages[1], &stages[0]);
        }
    }

    #[test]
    fn stage_parts_follow_a_new_dependence_set() {
        let w = loom_workloads::l1::workload(6);
        let deps = w.verified_deps();
        let pipeline = Pipeline::new(w.nest.clone());
        let rec = Recorder::disabled();
        let stage = |deps: &[Point], grouping| {
            pipeline
                .stage_partition_with_deps(&grouped(&[1, 1], grouping), &rec, deps.to_vec())
                .unwrap()
        };
        let first = stage(&deps, 0);
        // A smaller `D` on the same `Pipeline` gets a `Q` of its own,
        // shared by its later stages, and the first `D` keeps its own.
        let other: Vec<Point> = vec![vec![1, 0], vec![0, 1]];
        let (a, b) = (stage(&other, 0), stage(&other, 1));
        shares_with(&a, &b);
        shares_with(&b, &a);
        assert!(!std::ptr::eq(
            a.partitioning.structure(),
            first.partitioning.structure()
        ));
        shares_with(&stage(&deps, 0), &first);
    }

    /// Derive `family` at size 16 under Π = (1, 1), `grouping` and the
    /// 1-cube on `pipeline`, with a fresh cache.
    fn derive_on(
        pipeline: &Pipeline,
        family: &dyn Fn(i64) -> LoopNest,
        grouping: usize,
    ) -> (Derivation, ProbeCache) {
        let config = PipelineConfig {
            cube_dim: 1,
            ..grouped(&[1, 1], grouping)
        };
        let mut cache = ProbeCache::new();
        let opts = DeriveOptions::default();
        let derived = derive(pipeline, family, &config, 16, &opts, &mut cache);
        (derived, cache)
    }

    /// Checks [`shares_with`] on every size both caches probed, and
    /// returns how many there were.
    fn probes_share(a: &ProbeCache, b: &ProbeCache) -> usize {
        let b: BTreeMap<i64, &PartitionedStage> = b.stages().collect();
        a.stages()
            .filter_map(|(n, stage)| b.get(&n).map(|other| shares_with(stage, other)))
            .count()
    }

    fn l1(n: i64) -> LoopNest {
        loom_workloads::l1::workload(n).nest
    }

    #[test]
    fn stage_parts_are_shared_across_probe_pairs() {
        // Two maximal groupings of l1 under Π = (1, 1) derive on one
        // target pipeline: every probe size's `Q` and `Q^p` is built once.
        let pipeline = Pipeline::new(l1(16));
        let (_, a) = derive_on(&pipeline, &l1, 0);
        let (_, b) = derive_on(&pipeline, &l1, 1);
        assert!(probes_share(&a, &b) >= 5);
        // A cache of its own prices its own probes all the same.
        let (_, fresh) = derive_on(&Pipeline::new(l1(16)), &l1, 1);
        assert_eq!(b.points_spent(), fresh.points_spent());
        assert_eq!(b.sims(), fresh.sims());
    }

    #[test]
    fn stage_parts_of_probes_are_shared_across_threads() {
        // Two threads derive different groupings at the same moment on
        // one fresh target pipeline, so both race for each probe size's
        // pipeline, `Q` and `Q^p`.
        for _ in 0..4 {
            let pipeline = Pipeline::new(l1(16));
            let start = std::sync::Barrier::new(2);
            let caches = std::thread::scope(|scope| {
                [0, 1]
                    .map(|g| {
                        let (pipeline, start) = (&pipeline, &start);
                        scope.spawn(move || {
                            start.wait();
                            derive_on(pipeline, &l1, g).1
                        })
                    })
                    .map(|h| h.join().unwrap())
            });
            assert!(probes_share(&caches[0], &caches[1]) >= 5);
        }
    }

    #[test]
    fn stage_parts_follow_a_new_family() {
        // A second family with the target's `D` on the same target
        // pipeline probes its own nests, and derives what it derives on
        // a pipeline of its own.
        let sor = |n: i64| loom_workloads::sor::workload(n, n).nest;
        let pipeline = Pipeline::new(l1(16));
        let (_, first) = derive_on(&pipeline, &l1, 0);
        let (derived, second) = derive_on(&pipeline, &sor, 0);
        assert_eq!(derived, derive_on(&Pipeline::new(sor(16)), &sor, 0).0);
        assert!(matches!(derived, Derivation::Exact(_)), "{derived:?}");
        for (n, stage) in second.stages() {
            assert_eq!(*stage.pipeline.nest(), sor(n), "size {n}");
        }
        // Its later derivations share its probe parts; the first
        // family's stay its own.
        assert!(probes_share(&second, &derive_on(&pipeline, &sor, 1).1) >= 5);
        assert!(probes_share(&first, &derive_on(&pipeline, &l1, 1).1) >= 5);
    }

    #[test]
    fn symbolic_cost_stage_checks_the_family() {
        let pipeline = Pipeline::new(loom_workloads::matvec::workload(32).nest);
        let matvec = |n: i64| loom_workloads::matvec::workload(n).nest;
        let cfg = PipelineConfig {
            time_fn: Some(vec![1, 1]),
            cube_dim: 1,
            ..Default::default()
        };
        let stage = |family: &dyn Fn(i64) -> LoopNest, size| {
            pipeline.stage_symbolic_cost(
                family,
                size,
                &cfg,
                &DeriveOptions::default(),
                &mut ProbeCache::new(),
                &Recorder::disabled(),
            )
        };
        for (family, size) in [(&l1 as &dyn Fn(i64) -> LoopNest, 32), (&matvec, 31)] {
            assert_eq!(
                stage(family, size).unwrap_err(),
                PipelineError::FamilyMismatch { size }
            );
        }
        assert!(matches!(stage(&matvec, 32), Ok(Derivation::Exact(_))));
    }

    #[test]
    fn symbolic_cost_stage_is_resumable_across_cube_dims() {
        let fam = |n: i64| loom_workloads::matvec::workload(n).nest;
        let pipeline = Pipeline::new(fam(32));
        let mut cache = ProbeCache::new();
        let cfg = PipelineConfig {
            time_fn: Some(vec![1, 1]),
            cube_dim: 1,
            ..Default::default()
        };
        let rec = Recorder::enabled();
        let opts = DeriveOptions::default();
        let d1 = pipeline
            .stage_symbolic_cost(&fam, 32, &cfg, &opts, &mut cache, &rec)
            .unwrap();
        let Derivation::Exact(c1) = d1 else {
            panic!("matvec cube=1 must derive exactly: {d1:?}");
        };
        let points_before = cache.points_spent();
        // Re-derive on a larger cube with the same cache: every probe
        // partitioning is reused, only the new cube's simulations run.
        let cfg2 = PipelineConfig { cube_dim: 2, ..cfg };
        let d2 = pipeline
            .stage_symbolic_cost(&fam, 32, &cfg2, &opts, &mut cache, &rec)
            .unwrap();
        let Derivation::Exact(c2) = d2 else {
            panic!("matvec cube=2 must derive exactly");
        };
        assert!(cache.points_spent() > points_before);
        // The counters count each probe once, however often the cache
        // is resumed.
        let counters = rec.counters();
        assert_eq!(
            counters.get("pipeline.symbolic_probe_sims"),
            Some(&cache.sims())
        );
        assert_eq!(
            counters.get("pipeline.symbolic_probe_points"),
            Some(&cache.points_spent())
        );
        // Both forms agree with the full pipeline at the target size.
        for (cube_dim, cost) in [(1usize, &c1), (2, &c2)] {
            let out = Pipeline::new(fam(32))
                .run(&PipelineConfig {
                    time_fn: Some(vec![1, 1]),
                    cube_dim,
                    ..Default::default()
                })
                .unwrap();
            assert_eq!(cost.makespan(32), Some(out.sim.as_ref().unwrap().makespan));
            assert_eq!(
                cost.messages_at(32),
                Some(out.sim.as_ref().unwrap().messages)
            );
        }
    }

    #[test]
    fn fixed_time_fn_respected() {
        let w = loom_workloads::sor::workload(6, 6);
        let out = Pipeline::new(w.nest)
            .run(&PipelineConfig {
                time_fn: Some(vec![2, 1]),
                cube_dim: 1,
                machine: None,
                ..Default::default()
            })
            .unwrap();
        assert_eq!(out.pi.coeffs(), &[2, 1]);
        assert!(out.sim.is_none());
        assert!(matches!(out.sim_report(), Err(PipelineError::NoSimulation)));
    }

    #[test]
    fn illegal_fixed_time_fn_rejected() {
        let w = loom_workloads::l1::workload(4);
        let err = Pipeline::new(w.nest)
            .run(&PipelineConfig {
                time_fn: Some(vec![1, -1]),
                ..Default::default()
            })
            .unwrap_err();
        assert!(matches!(err, PipelineError::TimeFn(_)));
    }

    fn matvec_makespans(m: i64, params: MachineParams, dims: &[usize]) -> Vec<u64> {
        let w = loom_workloads::matvec::workload(m);
        dims.iter()
            .map(|&cube_dim| {
                let out = Pipeline::new(w.nest.clone())
                    .run(&PipelineConfig {
                        time_fn: Some(w.pi.clone()),
                        cube_dim,
                        machine: Some(MachineOptions {
                            params,
                            ..Default::default()
                        }),
                        ..Default::default()
                    })
                    .unwrap();
                out.sim.unwrap().makespan
            })
            .collect()
    }

    #[test]
    fn parallel_speedup_on_matvec_when_comm_is_cheap() {
        // On a low-latency machine the simulated makespan must drop as
        // the cube grows.
        let results = matvec_makespans(32, MachineParams::low_latency(), &[0, 1, 2, 3]);
        assert!(
            results.windows(2).all(|w| w[1] < w[0]),
            "makespan must shrink with machine size: {results:?}"
        );
    }

    #[test]
    fn fine_grain_loses_on_classic_machine() {
        // The paper's own caveat: with 1991 communication costs and a
        // small problem, parallel execution is *slower* than serial —
        // "our method is suitable for medium- to coarse-grain
        // computation". The simulator reproduces that regime too.
        let results = matvec_makespans(16, MachineParams::classic_1991(), &[0, 2]);
        assert!(
            results[1] > results[0],
            "fine grain + expensive messages should lose: {results:?}"
        );
    }

    #[test]
    fn cube_too_large_fails_cleanly() {
        let w = loom_workloads::l1::workload(4); // 4 blocks
        let err = Pipeline::new(w.nest)
            .run(&PipelineConfig {
                cube_dim: 4,
                ..Default::default()
            })
            .unwrap_err();
        assert!(matches!(err, PipelineError::Mapping(_)));
    }

    #[test]
    fn stmt_offsets_exposed() {
        // L1: no intra-iteration deps → zero offsets for both statements.
        let w = loom_workloads::l1::workload(4);
        let out = Pipeline::new(w.nest)
            .run(&PipelineConfig {
                machine: None,
                cube_dim: 1,
                ..Default::default()
            })
            .unwrap();
        assert_eq!(out.stmt_offsets, vec![0, 0]);
    }

    #[test]
    fn mesh_and_ring_targets_simulate() {
        let w = loom_workloads::matvec::workload(16);
        for target in [
            Topology::Mesh { rows: 2, cols: 4 },
            Topology::Ring(8),
            Topology::Hypercube(3),
        ] {
            let out = Pipeline::new(w.nest.clone())
                .run(&PipelineConfig {
                    time_fn: Some(w.pi.clone()),
                    target: Some(target),
                    ..Default::default()
                })
                .unwrap();
            assert_eq!(out.target, target);
            assert_eq!(out.placement.num_procs(), 8);
            let sim = out.sim.unwrap();
            assert_eq!(sim.compute.len(), 8);
            let total: u64 = sim.compute.iter().sum();
            assert_eq!(total, 16 * 16 * 2);
            assert_eq!(out.placement.cube(), target);
            assert_eq!(out.mapping.cube(), Topology::Hypercube(3));
        }
    }

    #[test]
    fn mesh_and_ring_targets_ignore_cube_dim() {
        // l1 at size 4 has 4 blocks: too few for a 3-cube, enough for a
        // 2-ring or a 2×2 mesh, whichever `cube_dim` says.
        let w = loom_workloads::l1::workload(4);
        for target in [Topology::Ring(2), Topology::Mesh { rows: 2, cols: 2 }] {
            let run = |cube_dim| {
                Pipeline::new(w.nest.clone())
                    .run(&PipelineConfig {
                        cube_dim,
                        target: Some(target),
                        ..Default::default()
                    })
                    .unwrap()
            };
            let (default, large) = (run(2), run(3));
            assert_eq!(large.placement.assignment(), default.placement.assignment());
            assert_eq!(
                large.mapping.cube(),
                Topology::Hypercube(target.len().ilog2() as usize)
            );
            assert_eq!(large.sim.unwrap().makespan, default.sim.unwrap().makespan);
        }
    }

    #[test]
    fn instrumented_run_records_phases() {
        let w = loom_workloads::l1::workload(4);
        let rec = Recorder::enabled();
        let out = Pipeline::new(w.nest)
            .run_with(
                &PipelineConfig {
                    cube_dim: 1,
                    ..Default::default()
                },
                &rec,
            )
            .unwrap();
        let names: Vec<String> = rec.spans().iter().map(|s| s.name.clone()).collect();
        for phase in [
            "pipeline.deps",
            "pipeline.time_fn",
            "hyperplane.search",
            "pipeline.stmt_offsets",
            "pipeline.partition",
            "pipeline.mapping",
            "pipeline.simulate",
            "pipeline.total",
        ] {
            assert!(
                names.contains(&phase.to_string()),
                "missing {phase}: {names:?}"
            );
        }
        let counters = rec.counters();
        assert_eq!(counters.get("pipeline.deps"), Some(&3));
        assert_eq!(
            counters.get("pipeline.blocks"),
            Some(&(out.partitioning.num_blocks() as u64))
        );
        assert!(counters.contains_key("hyperplane.candidates"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let w = loom_workloads::l1::workload(4);
        let rec = Recorder::disabled();
        Pipeline::new(w.nest)
            .run_with(
                &PipelineConfig {
                    cube_dim: 1,
                    ..Default::default()
                },
                &rec,
            )
            .unwrap();
        assert!(rec.spans().is_empty());
        assert!(rec.counters().is_empty());
    }

    #[test]
    fn flight_events_flow_through_the_pipeline() {
        use loom_obs::FlightRecorder;
        let w = loom_workloads::l1::workload(4);
        let flight = FlightRecorder::with_capacity(256);
        let rec = Recorder::enabled_with_flight(flight.clone());
        Pipeline::new(w.nest)
            .run_with(
                &PipelineConfig {
                    cube_dim: 1,
                    ..Default::default()
                },
                &rec,
            )
            .unwrap();
        let events = flight.events();
        assert!(events.iter().any(|e| e.kind == "sim.done"));
        assert!(events.iter().any(|e| e.kind == "span"));
        assert_eq!(
            events.last().map(|e| e.kind.as_str()),
            Some("pipeline.done")
        );
        let sim_done = events.iter().find(|e| e.kind == "sim.done").unwrap();
        let j = sim_done.to_json();
        assert!(j.get("makespan").unwrap().as_u64().unwrap() > 0);
    }

    #[test]
    fn validate_trace_accepts_clean_runs() {
        let w = loom_workloads::sor::workload(8, 8);
        let out = Pipeline::new(w.nest)
            .run(&PipelineConfig {
                time_fn: Some(w.pi.clone()),
                cube_dim: 2,
                machine: Some(MachineOptions {
                    validate_trace: true,
                    ..Default::default()
                }),
                ..Default::default()
            })
            .unwrap();
        // validate_trace implies the trace was recorded.
        assert!(out.sim.unwrap().trace.is_some());
    }

    #[test]
    fn pipeline_metrics_flow_through() {
        let w = loom_workloads::matvec::workload(16);
        let out = Pipeline::new(w.nest)
            .run(&PipelineConfig {
                time_fn: Some(w.pi.clone()),
                cube_dim: 2,
                machine: Some(MachineOptions {
                    collect_metrics: true,
                    ..Default::default()
                }),
                ..Default::default()
            })
            .unwrap();
        let sim = out.sim.unwrap();
        let m = sim.metrics.as_ref().unwrap();
        assert_eq!(m.procs.len(), 4);
        assert_eq!(m.messages.len(), sim.messages as usize);
    }

    #[test]
    fn static_check_passes_clean_pipelines_and_records_counters() {
        let w = loom_workloads::l1::workload(4);
        let rec = Recorder::enabled();
        let out = Pipeline::new(w.nest)
            .run_with(
                &PipelineConfig {
                    cube_dim: 1,
                    machine: Some(MachineOptions {
                        static_check: true,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
                &rec,
            )
            .unwrap();
        assert!(out.sim.is_some());
        let names: Vec<String> = rec.spans().iter().map(|s| s.name.clone()).collect();
        assert!(names.contains(&"pipeline.check".to_string()));
        assert!(names.contains(&"check.total".to_string()));
    }

    #[test]
    fn static_check_off_by_default() {
        let opts = MachineOptions::default();
        assert!(!opts.static_check);
        assert!(!opts.symbolic_check);
        assert!(opts.faults.is_none());
    }

    #[test]
    fn static_check_mode_follows_the_engine_flags() {
        use loom_check::CheckMode;
        let mode = |static_check, symbolic_check| {
            MachineOptions {
                static_check,
                symbolic_check,
                ..Default::default()
            }
            .static_check_mode()
        };
        // Off: the engine flag alone never turns the check on.
        assert_eq!(mode(false, true), None);
        assert_eq!(mode(true, false), Some(CheckMode::Enumerative));
        assert_eq!(mode(true, true), Some(CheckMode::Symbolic));
    }

    #[test]
    fn symbolic_check_gate_passes_and_records_proof_counters() {
        let w = loom_workloads::l1::workload(4);
        let rec = Recorder::enabled();
        let out = Pipeline::new(w.nest)
            .run_with(
                &PipelineConfig {
                    cube_dim: 1,
                    machine: Some(MachineOptions {
                        static_check: true,
                        symbolic_check: true,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
                &rec,
            )
            .unwrap();
        assert!(out.sim.is_some());
        let counters = rec.counters();
        assert!(counters.contains_key("check.symbolic.lattice"));
        assert_eq!(counters.get("check.symbolic.fallback"), Some(&0));
    }

    #[test]
    fn fault_plumbing_reaches_simulator_and_recorder() {
        use loom_machine::{FaultPlan, RecoveryPolicy};
        let w = loom_workloads::matvec::workload(16);
        let rec = Recorder::enabled();
        let out = Pipeline::new(w.nest)
            .run_with(
                &PipelineConfig {
                    time_fn: Some(w.pi.clone()),
                    cube_dim: 2,
                    machine: Some(MachineOptions {
                        faults: Some(FaultConfig::new(
                            FaultPlan::none().with_crash(3, 50),
                            RecoveryPolicy::Remap,
                        )),
                        ..Default::default()
                    }),
                    ..Default::default()
                },
                &rec,
            )
            .unwrap();
        let sim = out.sim.unwrap();
        let deg = sim.degradation.as_ref().unwrap();
        assert_eq!(deg.crashes, 1);
        assert!(deg.state_transfer_words > 0);
        let counters = rec.counters();
        assert_eq!(counters.get("fault.crashes"), Some(&1));
        assert_eq!(counters.get("fault.injected"), Some(&1));
        assert!(counters.contains_key("fault.state_transfer_words"));
    }

    #[test]
    fn abort_policy_propagates_unrecoverable() {
        use loom_machine::{FaultPlan, RecoveryPolicy, SimError};
        let w = loom_workloads::matvec::workload(16);
        let err = Pipeline::new(w.nest)
            .run(&PipelineConfig {
                time_fn: Some(w.pi.clone()),
                cube_dim: 2,
                machine: Some(MachineOptions {
                    faults: Some(FaultConfig::new(
                        FaultPlan::none().with_crash(0, 0),
                        RecoveryPolicy::Abort,
                    )),
                    ..Default::default()
                }),
                ..Default::default()
            })
            .unwrap_err();
        match err {
            PipelineError::Sim(SimError::Unrecoverable { .. }) => {}
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
    }

    #[test]
    fn empty_fault_plan_matches_fault_free_pipeline() {
        use loom_machine::{FaultPlan, RecoveryPolicy};
        let w = loom_workloads::matvec::workload(16);
        let base_cfg = PipelineConfig {
            time_fn: Some(w.pi.clone()),
            cube_dim: 2,
            ..Default::default()
        };
        let base = Pipeline::new(w.nest.clone())
            .run(&base_cfg)
            .unwrap()
            .sim
            .unwrap();
        let faulted = Pipeline::new(w.nest)
            .run(&PipelineConfig {
                machine: Some(MachineOptions {
                    faults: Some(FaultConfig::new(
                        FaultPlan::none(),
                        RecoveryPolicy::RetryOnly,
                    )),
                    ..Default::default()
                }),
                ..base_cfg
            })
            .unwrap()
            .sim
            .unwrap();
        assert_eq!(faulted.makespan, base.makespan);
        assert_eq!(faulted.messages, base.messages);
        assert_eq!(faulted.words, base.words);
        assert_eq!(faulted.degradation.unwrap().faults_hit, 0);
    }

    #[test]
    fn non_uniform_nest_admitted_through_uniformization() {
        use loom_loopir::{Access, Aff, IterSpace, LoopNest, Stmt};
        // A[2i] = A[i]: the seed front end rejects this with LC010;
        // certified folding admits it with the synthesized set {(1)}.
        let nest = LoopNest::new(
            "vardist",
            IterSpace::rect(&[8]).unwrap(),
            vec![Stmt::assign(
                Access::new("A", vec![Aff::new(vec![2], 0)]),
                vec![Access::simple("A", 1, &[(0, 0)])],
            )],
        )
        .unwrap();
        let rec = Recorder::enabled();
        let out = Pipeline::new(nest)
            .run_with(
                &PipelineConfig {
                    cube_dim: 0,
                    ..PipelineConfig::default()
                },
                &rec,
            )
            .expect("admitted through uniformization");
        assert_eq!(out.deps, vec![vec![1]]);
        assert!(out.pi.dot(&[1]) >= 1);
        let counters = rec.counters();
        assert!(counters.get("check.uniformize.pairs") >= Some(&1));
        assert!(counters.get("check.uniformize.proofs") >= Some(&1));
        assert_eq!(counters.get("check.uniformize.refuted"), Some(&0));
        assert_eq!(counters.get("check.uniformize.unknown"), Some(&0));
    }

    #[test]
    fn uncoverable_nest_rejected_with_report() {
        use loom_loopir::{Access, IterSpace, LoopNest, Stmt};
        // Rank-mismatched accesses cannot be folded: admission must
        // fail with the full diagnostic report, never a wrong admission.
        let nest = LoopNest::new(
            "ranks",
            IterSpace::rect(&[4, 4]).unwrap(),
            vec![Stmt::assign(
                Access::simple("A", 2, &[(0, 0)]),
                vec![Access::simple("A", 2, &[(0, 0), (1, 0)])],
            )],
        )
        .unwrap();
        let err = Pipeline::new(nest)
            .run(&PipelineConfig::default())
            .unwrap_err();
        match err {
            PipelineError::StaticCheck(report) => assert!(report.has_errors()),
            other => panic!("expected StaticCheck rejection, got {other}"),
        }
    }
}
