//! Configuration exploration: let the cost model choose the compile.
//!
//! The paper fixes Π and the grouping vector by hand; a compiler has to
//! *choose* them. [`Pipeline::explore`] sweeps the legal time
//! transformations within a coefficient bound, every maximal
//! grouping-vector choice, and the requested machine sizes, costs each
//! configuration, and ranks by makespan. Deterministic: ties break
//! toward smaller Π, smaller grouping index, smaller machine.
//!
//! There is one sweep; each candidate asks one of two cost oracles:
//!
//! * **simulate** (the default) — map, statically check if asked, and
//!   run the machine simulator at the nest's own size;
//! * **closed form** (`ExploreConfig::symbolic`) — evaluate the
//!   symbolic cost engine's `T_exec` at the target size, falling back
//!   to the simulator per candidate when no exact form is derived.
//!
//! The closed form is priced before it is paid for. Once per sweep, a
//! target the probe budget would let the derivation validate on every
//! machine size (`2·|cube_dims|·|T| ≤ max_probe_points`, where each
//! validation probe at the target is one partitioning plus one
//! simulation) is **routed** to the simulating oracle, pruning
//! included: the derivation would simulate the target anyway, so it
//! could only add its probe window to the cost. The rule reads only the
//! lattice size, the machine-size count and the budget;
//! `explore.symbolic.routed` counts the candidates it sent to the
//! simulator.
//!
//! The sweep is organised for throughput without giving up determinism
//! (see `docs/PERFORMANCE.md`):
//!
//! * **stage caching** — the partitioning prefix of the pipeline
//!   ([`Pipeline::stage_partition`]) is built at most once per
//!   (Π, grouping) pair and shared across every machine size. Every
//!   stage is built on the explored [`Pipeline`], which shares the
//!   stage's own parts more widely: the admitted dependences
//!   ([`Pipeline::admitted`]) once per `Pipeline`, the computational
//!   structure `Q` once per sweep and `Q`'s projection once per Π, each
//!   built by the first pair that needs it. Per pair only vector
//!   selection, growing and the blocks remain. The closed-form oracle's
//!   [`ProbeCache`] is shared across machine sizes the same way, and its
//!   probes are stages of the same `Pipeline`'s probe pipelines, so
//!   every pair shares each probe size's admission, `Q` and per-Π
//!   projection;
//! * **parallelism** — (Π, grouping) pairs fan out over a
//!   [`loom_obs::Pool`], whose `map_indexed` returns results in input
//!   order whatever order the workers ran; each worker reuses one
//!   [`SimScratch`] across all its simulations;
//! * **branch-and-bound pruning** — a candidate whose analytic lower
//!   bound ([`crate::analytic::makespan_lower_bound`]) already exceeds
//!   the current k-th best simulated makespan cannot enter the top-k
//!   and is skipped (`explore.pruned` counts them). Pruning is disabled
//!   when `top == 0` (every candidate is kept), under fault injection
//!   (crash remap can beat the fault-free bound), and under the
//!   closed-form oracle unless the sweep was routed (a form claimed
//!   exact is not a simulated makespan, so it must never tighten the
//!   gate).
//!
//! The ranked candidate list is **byte-identical** across thread counts
//! and with pruning on or off; `tests-int/tests/explore.rs` asserts it
//! for every builtin workload.

use crate::analytic::makespan_lower_bound;
use crate::pipeline::{run_machine, MachineOptions, Pipeline, PipelineConfig, PipelineError};
use crate::symbolic_cost::{self, Derivation, DeriveOptions, NestFamily, ProbeCache};
use loom_hyperplane::TimeFn;
use loom_loopir::LoopNest;
use loom_machine::SimScratch;
use loom_obs::{Pool, Recorder};
use loom_partition::PartitionConfig;
use std::collections::BinaryHeap;
use std::sync::Mutex;

/// One explored configuration and its simulated outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// The time transformation.
    pub pi: Vec<i64>,
    /// The grouping-vector index (into the dependence set).
    pub grouping: usize,
    /// Hypercube dimension.
    pub cube_dim: usize,
    /// Simulated makespan.
    pub makespan: u64,
    /// Messages sent.
    pub messages: u64,
    /// Number of blocks.
    pub blocks: usize,
}

/// Symbolic exploration: rank candidates by closed-form `T_exec`
/// instead of simulating each one at the target size.
///
/// The explored nest **must** be `family(size)`'s nest
/// — the closed forms are derived over `family` and evaluated at
/// `size`, while dependence extraction, Π enumeration and every
/// simulation read the nest. The sweep checks it and fails with
/// [`PipelineError::FamilyMismatch`] otherwise, whichever oracle it
/// would have used.
/// A configuration whose derivation comes back [`Derivation::Unknown`]
/// falls back to simulating at the target size (counted by
/// `explore.symbolic.fallback`), so the ranking is always populated;
/// [`Derivation::Infeasible`] configurations are skipped exactly as the
/// simulator skips partition/mapping failures.
///
/// `opts.max_probe_points` (the CLI's `--symbolic-budget`) is what the
/// derivation of one (Π, grouping) pair may spend on probes. When that
/// budget would already pay for validating each of the pair's
/// candidates at the target (`2·|cube_dims|·|T| ≤ max_probe_points`),
/// the sweep is routed: it simulates, with pruning and the static check
/// exactly as without `symbolic`, and records `explore.symbolic.routed`.
/// Otherwise pruning does not apply, and `machine.static_check` is
/// honoured only on the fallback path — an exact candidate never
/// materialises its target-size partitioning.
#[derive(Clone)]
pub struct SymbolicExplore {
    /// The size family the explored nest belongs to.
    pub family: NestFamily,
    /// The target size parameter: `family(size)` must equal the nest
    /// being explored.
    pub size: i64,
    /// Probe-and-fit protocol knobs.
    pub opts: DeriveOptions,
}

impl std::fmt::Debug for SymbolicExplore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymbolicExplore")
            .field("family", &"<fn>")
            .field("size", &self.size)
            .field("opts", &self.opts)
            .finish()
    }
}

/// Exploration bounds.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Π coefficients searched in `[-bound, bound]`.
    pub pi_bound: i64,
    /// Keep only the `top` best candidates (0 = all).
    pub top: usize,
    /// Machine options used for every simulation.
    pub machine: MachineOptions,
    /// Worker threads for the candidate sweep: `0` = auto
    /// (`LOOM_THREADS`, then the machine's parallelism), `1` = the
    /// exact serial path. The ranked result is identical either way.
    pub threads: usize,
    /// Branch-and-bound pruning: skip simulating candidates whose
    /// analytic lower bound already exceeds the current k-th best
    /// makespan. Never changes the ranked result set.
    pub prune: bool,
    /// Rank by closed-form `T_exec` (the symbolic cost engine) instead
    /// of simulating every candidate at the target size.
    pub symbolic: Option<SymbolicExplore>,
}

impl Default for ExploreConfig {
    fn default() -> ExploreConfig {
        ExploreConfig {
            pi_bound: 1,
            top: 10,
            machine: MachineOptions::default(),
            threads: 0,
            prune: true,
            symbolic: None,
        }
    }
}

/// Enumerate legal Π within the bound, sorted by (steps, L1 norm, lex).
fn legal_pis(nest: &LoopNest, deps: &[Vec<i64>], bound: i64) -> Vec<Vec<i64>> {
    let n = nest.dim();
    let mut out = Vec::new();
    let mut coeffs = vec![-bound; n];
    loop {
        let pi = TimeFn::new(coeffs.clone());
        if pi.is_legal_for(deps) {
            out.push(coeffs.clone());
        }
        let mut k = n;
        loop {
            if k == 0 {
                // Precompute the sort key once per candidate instead of
                // rebuilding a TimeFn inside the comparator.
                let mut keyed: Vec<(i64, i64, Vec<i64>)> = out
                    .into_iter()
                    .map(|c| {
                        let steps = TimeFn::new(c.clone()).steps(nest.space());
                        let l1 = c.iter().map(|x| x.abs()).sum::<i64>();
                        (steps, l1, c)
                    })
                    .collect();
                keyed.sort();
                return keyed.into_iter().map(|(_, _, c)| c).collect();
            }
            k -= 1;
            if coeffs[k] < bound {
                coeffs[k] += 1;
                for c in &mut coeffs[k + 1..] {
                    *c = -bound;
                }
                break;
            }
        }
    }
}

/// The shared branch-and-bound gate: a max-heap of the `cap` smallest
/// simulated makespans seen so far. A candidate is pruned only when the
/// heap is full **and** its lower bound is *strictly* greater than the
/// k-th best — ties must still be simulated because the final ranking
/// breaks them on secondary keys.
struct PruneGate {
    heap: BinaryHeap<u64>,
    cap: usize,
}

impl PruneGate {
    fn new(cap: usize) -> PruneGate {
        PruneGate {
            heap: BinaryHeap::new(),
            cap,
        }
    }

    /// `true` once `cap` makespans are recorded: before that no bound
    /// can prune, so callers skip computing one.
    fn is_full(&self) -> bool {
        self.cap > 0 && self.heap.len() == self.cap
    }

    fn should_prune(&self, bound: u64) -> bool {
        self.is_full() && bound > *self.heap.peek().unwrap()
    }

    fn record(&mut self, makespan: u64) {
        if self.cap == 0 {
            return;
        }
        if self.heap.len() < self.cap {
            self.heap.push(makespan);
        } else if makespan < *self.heap.peek().unwrap() {
            self.heap.pop();
            self.heap.push(makespan);
        }
    }
}

/// Route before probing: `true` when the probe budget would let
/// [`symbolic_cost::derive`] validate every one of a pair's `cubes`
/// candidates at the target itself — a validation probe costs one
/// partitioning plus one simulation, `2·|T|` points — so a closed form
/// could only add its probe window to simulating the target. Counting
/// stops at the cap, so a 10¹²-point target costs a few rows.
fn routed(target: &LoopNest, cubes: usize, opts: &DeriveOptions) -> bool {
    let cap = opts.max_probe_points / (2 * cubes.max(1) as u64);
    target.space().count_at_most(cap).is_some()
}

/// Rank candidates by makespan — ties break toward smaller |Π|₁, then
/// lexicographically smaller Π, grouping, and machine — and keep the
/// `top` best (0 = all).
fn rank(mut results: Vec<Candidate>, top: usize) -> Vec<Candidate> {
    results.sort_by_key(|c| {
        (
            c.makespan,
            c.pi.iter().map(|x| x.abs()).sum::<i64>(),
            c.pi.clone(),
            c.grouping,
            c.cube_dim,
        )
    });
    if top > 0 {
        results.truncate(top);
    }
    results
}

/// The seed implementation of [`Pipeline::explore`], kept as the
/// determinism oracle and the bench baseline: fully serial, no pruning,
/// no stage caching — the entire pipeline (dependences → Π →
/// partitioning → TIG → mapping → simulation) re-runs for every (Π,
/// grouping, cube_dim) triple. `config.threads`, `config.prune` and
/// `config.symbolic` are ignored. [`Pipeline::explore`] must return a
/// byte-identical ranked list; `tests-int/tests/explore.rs` and
/// `repro_explore` both enforce it.
pub fn explore_reference(
    nest: &LoopNest,
    cube_dims: &[usize],
    config: &ExploreConfig,
) -> Result<Vec<Candidate>, PipelineError> {
    let pipeline = Pipeline::new(nest.clone());
    let deps = &pipeline.admitted(&Recorder::disabled())?.deps;
    let pis = legal_pis(nest, deps, config.pi_bound);
    let mut results: Vec<Candidate> = Vec::new();
    for pi in &pis {
        for grouping in 0..deps.len() {
            for &cube_dim in cube_dims {
                let run = Pipeline::new(nest.clone()).run(&PipelineConfig {
                    time_fn: Some(pi.clone()),
                    cube_dim,
                    partition: loom_partition::PartitionConfig {
                        grouping_choice: Some(grouping),
                        seed: None,
                    },
                    machine: Some(config.machine.clone()),
                    ..Default::default()
                });
                match run {
                    Ok(out) => {
                        let sim = out.sim.as_ref().ok_or(PipelineError::NoSimulation)?;
                        results.push(Candidate {
                            pi: pi.clone(),
                            grouping,
                            cube_dim,
                            makespan: sim.makespan,
                            messages: sim.messages,
                            blocks: out.partitioning.num_blocks(),
                        });
                    }
                    Err(e) if e.is_oversized() => return Err(e),
                    // Grouping choice not maximal, or cube too large:
                    // legitimate skips during exploration.
                    Err(PipelineError::Partition(_)) | Err(PipelineError::Mapping(_)) => {}
                    Err(e) => return Err(e),
                }
            }
        }
    }
    Ok(rank(results, config.top))
}

/// Per-pair accounting of the sweep.
#[derive(Clone, Copy, Default)]
struct Counts {
    simulated: u64,
    pruned: u64,
    exact: u64,
    fallback: u64,
    infeasible: u64,
    probe_sims: u64,
    probe_points: u64,
}

impl Counts {
    fn add(&mut self, other: Counts) {
        self.simulated += other.simulated;
        self.pruned += other.pruned;
        self.exact += other.exact;
        self.fallback += other.fallback;
        self.infeasible += other.infeasible;
        self.probe_sims += other.probe_sims;
        self.probe_points += other.probe_points;
    }
}

/// [`Pipeline::explore`] on a pipeline of its own over `nest`.
pub fn explore_with(
    nest: &LoopNest,
    cube_dims: &[usize],
    config: &ExploreConfig,
    recorder: &Recorder,
) -> Result<Vec<Candidate>, PipelineError> {
    Pipeline::new(nest.clone()).explore(cube_dims, config, recorder)
}

impl Pipeline {
    /// Explore configurations for the nest across the given hypercube
    /// dimensions; returns candidates ranked by makespan (see the module
    /// docs for the two cost oracles). The sweep reads the nest's admitted
    /// dependences ([`Pipeline::admitted`]), admitting it on `recorder` if
    /// no stage has yet.
    ///
    /// Configurations whose partitioning or mapping fails (grouping choice
    /// not maximal, machine larger than the block count) are skipped
    /// silently; other pipeline failures propagate, the first in input
    /// order winning whatever order the workers hit them in.
    ///
    /// Records `explore.candidates` / `explore.simulated` counters, plus
    /// `explore.pruned` when simulating (routed sweeps included), the full
    /// `explore.symbolic.*` set whenever `config.symbolic` is set (zeros
    /// but `routed` on a routed sweep), `pool.*` counters and per-worker
    /// busy spans, and an `explore.total` span around the sweep.
    pub fn explore(
        &self,
        cube_dims: &[usize],
        config: &ExploreConfig,
        recorder: &Recorder,
    ) -> Result<Vec<Candidate>, PipelineError> {
        let deps = &self.admitted(recorder)?.deps;
        let nest = self.nest();
        let _total = recorder.span("explore.total");
        let pis = legal_pis(nest, deps, config.pi_bound);
        let routed = match &config.symbolic {
            None => false,
            Some(sym) => {
                if (sym.family)(sym.size) != *nest {
                    return Err(PipelineError::FamilyMismatch { size: sym.size });
                }
                routed(nest, cube_dims.len(), &sym.opts)
            }
        };
        let symbolic = config.symbolic.as_ref().filter(|_| !routed);

        // One work item per (Π, grouping) pair: the partitioning prefix of
        // the pipeline runs once per pair and is completed per cube_dim.
        let pairs: Vec<(usize, usize)> = (0..pis.len())
            .flat_map(|p| (0..deps.len()).map(move |g| (p, g)))
            .collect();
        let candidates = (pairs.len() * cube_dims.len()) as u64;
        recorder.add("explore.candidates", candidates);

        // Pruning is sound only when a k-th best exists to compare against
        // (top > 0), the machine is fault-free (crash remap can beat the
        // fault-free lower bound; see A8 in EXPERIMENTS.md), and every
        // makespan in the gate was simulated.
        let pruning =
            config.prune && config.top > 0 && config.machine.faults.is_none() && symbolic.is_none();
        let gate = Mutex::new(PruneGate::new(if pruning { config.top } else { 0 }));

        let pool = Pool::with_recorder(config.threads, recorder.clone());
        type PairOutcome = Result<(Vec<Candidate>, Counts), PipelineError>;
        let outcomes: Vec<PairOutcome> = pool.map_indexed_with(
            &pairs,
            SimScratch::default,
            |scratch, _idx, &(pi_idx, grouping)| {
                // Per-candidate pipeline stages run un-instrumented: the
                // sweep-level counters are the meaningful signal, and
                // thousands of interleaved stage spans are not.
                let rec = Recorder::disabled();
                let pi = &pis[pi_idx];
                let base = PipelineConfig {
                    time_fn: Some(pi.clone()),
                    partition: PartitionConfig {
                        grouping_choice: Some(grouping),
                        seed: None,
                    },
                    machine: Some(config.machine.clone()),
                    ..Default::default()
                };
                let candidate = |cube_dim, makespan, messages, blocks| Candidate {
                    pi: pi.clone(),
                    grouping,
                    cube_dim,
                    makespan,
                    messages,
                    blocks,
                };
                let mut found = Vec::new();
                let mut counts = Counts::default();
                let mut cache = ProbeCache::new();
                // The partitioning prefix at the nest's own size, built on
                // the first cube the simulator has to cost.
                let mut stage = None;
                for &cube_dim in cube_dims {
                    let cfg = PipelineConfig {
                        cube_dim,
                        ..base.clone()
                    };
                    if let Some(sym) = symbolic {
                        let derived = symbolic_cost::derive(
                            self,
                            &*sym.family,
                            &cfg,
                            sym.size,
                            &sym.opts,
                            &mut cache,
                        );
                        match derived {
                            Derivation::Exact(cost) => {
                                if let (Some(makespan), Some(messages), Some(blocks)) = (
                                    cost.makespan(sym.size),
                                    cost.messages_at(sym.size),
                                    cost.blocks_at(sym.size),
                                ) {
                                    counts.exact += 1;
                                    found.push(candidate(
                                        cube_dim,
                                        makespan,
                                        messages,
                                        blocks as usize,
                                    ));
                                    continue;
                                }
                                // Overflow at the target: fall through to
                                // the simulator, which shares the
                                // explorer's u64 domain.
                            }
                            Derivation::Infeasible { .. } => {
                                counts.infeasible += 1;
                                continue;
                            }
                            Derivation::Unknown { .. } => {}
                        }
                        counts.fallback += 1;
                    }
                    if stage.is_none() {
                        match self.stage_partition(&base, &rec) {
                            Ok(s) => stage = Some(s),
                            Err(e) if e.is_oversized() => return Err(e),
                            // Grouping choice not maximal: skip the pair.
                            Err(PipelineError::Partition(_)) => break,
                            Err(e) => return Err(e),
                        }
                    }
                    let stage = stage.as_ref().expect("stage built above");
                    let (mapping, placement, target) = match stage.map_with(&cfg, &rec) {
                        Ok(x) => x,
                        // Cube too large for the block count: skip.
                        Err(PipelineError::Mapping(_)) => continue,
                        Err(e) => return Err(e),
                    };
                    if let Some(mode) = config.machine.static_check_mode() {
                        stage.check_mode(&mapping, mode, &rec)?;
                    }
                    let program = stage.program(&placement);
                    if pruning && gate.lock().unwrap().is_full() {
                        // The link-occupancy term is sound only when the
                        // simulation serializes links.
                        let topology = config.machine.link_contention.then_some(target);
                        let bound = makespan_lower_bound(
                            &program,
                            &config.machine.params,
                            config.machine.batch_messages,
                            topology.as_ref(),
                        );
                        if gate.lock().unwrap().should_prune(bound) {
                            counts.pruned += 1;
                            continue;
                        }
                    }
                    let report =
                        run_machine(&program, target, &config.machine, &rec, Some(scratch))?;
                    counts.simulated += 1;
                    if pruning {
                        gate.lock().unwrap().record(report.makespan);
                    }
                    found.push(candidate(
                        cube_dim,
                        report.makespan,
                        report.messages,
                        stage.partitioning.num_blocks(),
                    ));
                }
                counts.probe_sims = cache.sims();
                counts.probe_points = cache.points_spent();
                Ok((found, counts))
            },
        );

        // Merge in input order; the first error in input order propagates,
        // whatever order the workers hit errors in.
        let mut results: Vec<Candidate> = Vec::new();
        let mut total = Counts::default();
        for outcome in outcomes {
            let (found, counts) = outcome?;
            results.extend(found);
            total.add(counts);
        }
        recorder.add("explore.simulated", total.simulated);
        if symbolic.is_none() {
            recorder.add("explore.pruned", total.pruned);
        }
        if config.symbolic.is_some() {
            recorder.add(
                "explore.symbolic.routed",
                if routed { candidates } else { 0 },
            );
            recorder.add("explore.symbolic.exact", total.exact);
            recorder.add("explore.symbolic.fallback", total.fallback);
            recorder.add("explore.symbolic.infeasible", total.infeasible);
            recorder.add("explore.symbolic.probe_sims", total.probe_sims);
            recorder.add("explore.symbolic.probe_points", total.probe_points);
        }
        Ok(rank(results, config.top))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_machine::MachineParams;

    fn cfg() -> ExploreConfig {
        ExploreConfig {
            pi_bound: 1,
            top: 5,
            machine: MachineOptions {
                params: MachineParams::low_latency(),
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn explores_and_ranks_matvec() {
        let w = loom_workloads::matvec::workload(12);
        let best = explore_with(&w.nest, &[1, 2], &cfg(), &Recorder::disabled()).unwrap();
        assert!(!best.is_empty());
        // Ranked ascending by makespan.
        for pair in best.windows(2) {
            assert!(pair[0].makespan <= pair[1].makespan);
        }
        // The winner must beat (or match) the canonical configuration.
        let canonical = Pipeline::new(w.nest.clone())
            .run(&PipelineConfig {
                time_fn: Some(w.pi.clone()),
                cube_dim: 2,
                machine: Some(cfg().machine),
                ..Default::default()
            })
            .unwrap()
            .sim
            .unwrap()
            .makespan;
        assert!(best[0].makespan <= canonical);
    }

    #[test]
    fn contended_pruning_keeps_the_ranking_byte_identical() {
        // The link-occupancy term only makes the prune gate tighter;
        // the strict top-k inequality means the ranked set (and every
        // tie-broken position in it) must match the unpruned reference.
        let w = loom_workloads::matvec::workload(10);
        let mut config = cfg();
        config.machine.link_contention = true;
        let reference = explore_reference(&w.nest, &[0, 1, 2], &config).unwrap();
        let rec = Recorder::enabled();
        let got = explore_with(&w.nest, &[0, 1, 2], &config, &rec).unwrap();
        assert_eq!(got, reference);
        assert!(!got.is_empty());
    }

    #[test]
    fn respects_top_limit() {
        let w = loom_workloads::l1::workload(4);
        let best = explore_with(&w.nest, &[0, 1], &cfg(), &Recorder::disabled()).unwrap();
        assert!(best.len() <= 5);
    }

    #[test]
    fn legal_pis_sorted_and_legal() {
        let w = loom_workloads::sor::workload(5, 5);
        let deps = w.verified_deps();
        let pis = legal_pis(&w.nest, &deps, 1);
        assert!(!pis.is_empty());
        for pi in &pis {
            assert!(TimeFn::new(pi.clone()).is_legal_for(&deps));
        }
        // First candidate minimizes steps.
        let steps: Vec<i64> = pis
            .iter()
            .map(|c| TimeFn::new(c.clone()).steps(w.nest.space()))
            .collect();
        assert!(steps[0] <= *steps.last().unwrap());
        assert_eq!(pis[0], vec![1, 1]);
    }

    #[test]
    fn parallel_and_pruned_match_serial_unpruned() {
        let w = loom_workloads::matvec::workload(10);
        let baseline = explore_reference(&w.nest, &[0, 1, 2], &cfg()).unwrap();
        assert_eq!(
            explore_with(
                &w.nest,
                &[0, 1, 2],
                &ExploreConfig {
                    threads: 1,
                    prune: false,
                    ..cfg()
                },
                &Recorder::disabled(),
            )
            .unwrap(),
            baseline,
            "stage-cached serial must match the seed implementation"
        );
        for threads in [2, 4] {
            for prune in [false, true] {
                let got = explore_with(
                    &w.nest,
                    &[0, 1, 2],
                    &ExploreConfig {
                        threads,
                        prune,
                        ..cfg()
                    },
                    &Recorder::disabled(),
                )
                .unwrap();
                assert_eq!(got, baseline, "threads={threads} prune={prune}");
            }
        }
    }

    #[test]
    fn counters_recorded_and_pruning_skips_work() {
        let w = loom_workloads::matvec::workload(10);
        // Serial path: with threads > 1 whether a given candidate is
        // pruned depends on which worker reaches the shared gate first,
        // so the pruned count is timing-dependent under load.
        let count_with = |top: usize, prune: bool| {
            let rec = Recorder::enabled();
            explore_with(
                &w.nest,
                &[0, 1, 2],
                &ExploreConfig {
                    threads: 1,
                    top,
                    prune,
                    ..cfg()
                },
                &rec,
            )
            .unwrap();
            let counters = rec.counters();
            assert!(counters.contains_key("pool.tasks"));
            let candidates = counters["explore.candidates"];
            let simulated = counters["explore.simulated"];
            let pruned = counters["explore.pruned"];
            // The rest were mapping/partition skips.
            assert!(pruned + simulated <= candidates);
            assert!(simulated >= 1);
            (simulated, pruned)
        };
        let (sim_unpruned, p0) = count_with(1, false);
        let (sim_pruned, p1) = count_with(1, true);
        assert_eq!(p0, 0, "prune=false must never prune");
        assert!(
            sim_pruned + p1 == sim_unpruned,
            "pruning only skips simulations"
        );
        assert!(p1 > 0, "top=1 on matvec should prune something");
    }

    fn symbolic_matvec(size: i64, max_probe_points: u64) -> SymbolicExplore {
        SymbolicExplore {
            family: std::sync::Arc::new(|n| loom_workloads::matvec::workload(n).nest),
            size,
            opts: DeriveOptions {
                max_probe_points,
                ..DeriveOptions::default()
            },
        }
    }

    #[test]
    fn symbolic_ranking_matches_simulating_explorer() {
        // A budget below 2·3·|T| prices the 400-point target out on
        // three cubes, so every candidate reaches the derivation.
        let size = 20;
        let w = loom_workloads::matvec::workload(size);
        let baseline = explore_reference(&w.nest, &[0, 1, 2], &cfg()).unwrap();
        let rec = Recorder::enabled();
        let config = ExploreConfig {
            symbolic: Some(symbolic_matvec(size, 799)),
            ..cfg()
        };
        let got = explore_with(&w.nest, &[0, 1, 2], &config, &rec).unwrap();
        assert_eq!(
            got, baseline,
            "symbolic ranking must be byte-identical to the simulating sweep"
        );
        let counters = rec.counters();
        let get = |k: &str| counters[k];
        assert_eq!(
            [
                get("explore.symbolic.routed"),
                get("explore.symbolic.exact"),
                get("explore.symbolic.fallback"),
                get("explore.simulated"),
            ],
            [0, 2, 4, 4],
            "matvec must derive exactly, not only ride the fallback: {counters:?}"
        );
    }

    #[test]
    fn affordable_symbolic_target_is_routed_to_the_simulator() {
        let size = 14;
        let w = loom_workloads::matvec::workload(size);
        let baseline = explore_reference(&w.nest, &[0, 1, 2], &cfg()).unwrap();
        let rec = Recorder::enabled();
        let config = ExploreConfig {
            symbolic: Some(symbolic_matvec(
                size,
                DeriveOptions::default().max_probe_points,
            )),
            ..cfg()
        };
        let got = explore_with(&w.nest, &[0, 1, 2], &config, &rec).unwrap();
        assert_eq!(got, baseline);
        let counters = rec.counters();
        assert_eq!(
            counters["explore.symbolic.routed"], counters["explore.candidates"],
            "{counters:?}"
        );
        assert!(counters["explore.candidates"] > 0);
        for k in [
            "probe_points",
            "probe_sims",
            "exact",
            "fallback",
            "infeasible",
        ] {
            assert_eq!(counters[&*format!("explore.symbolic.{k}")], 0, "{k}");
        }
        assert!(counters.contains_key("explore.pruned"));
        // The routing boundary on three cubes: 2·3·196 = 1176 points.
        let opts = |budget| symbolic_matvec(size, budget).opts;
        assert!(routed(&w.nest, 3, &opts(1176)));
        assert!(!routed(&w.nest, 3, &opts(1175)));
        assert!(routed(&w.nest, 1, &opts(392)));
        assert!(!routed(&w.nest, 1, &opts(391)));
    }

    #[test]
    fn symbolic_family_must_be_the_explored_nest() {
        // matvec 14's family instantiated at 15: a different space, on
        // the routed path (default budget) and the derived one alike.
        let w = loom_workloads::matvec::workload(14);
        for budget in [DeriveOptions::default().max_probe_points, 1] {
            let config = ExploreConfig {
                symbolic: Some(symbolic_matvec(15, budget)),
                ..cfg()
            };
            let got = explore_with(&w.nest, &[0, 1, 2], &config, &Recorder::disabled());
            assert!(
                matches!(got, Err(PipelineError::FamilyMismatch { size: 15 })),
                "budget {budget}: {got:?}"
            );
        }
    }

    #[test]
    fn top_zero_keeps_everything_and_disables_pruning() {
        let w = loom_workloads::l1::workload(4);
        let rec = Recorder::enabled();
        let all = explore_with(&w.nest, &[0, 1], &ExploreConfig { top: 0, ..cfg() }, &rec).unwrap();
        let counters = rec.counters();
        // No truncation: every simulated candidate is in the result.
        assert_eq!(all.len() as u64, counters["explore.simulated"]);
        assert!(!all.is_empty());
        assert_eq!(counters.get("explore.pruned"), Some(&0));
    }
}
