//! Symbolic cost engine — the paper's Table I derivation, mechanized.
//!
//! §IV of the paper derives `T_exec` for matrix–vector multiplication
//! *by hand*: a closed form in the problem size `M`, evaluated at any
//! size without executing anything. The simulator reproduces those
//! numbers, but its cost scales with iteration-space **points**; this
//! module recovers the closed form mechanically, so a configuration's
//! cost at `M = 10⁹` is one O(1) evaluation in checked `i128`.
//!
//! The derivation rests on the same structure the PR 5 symbolic checker
//! exploits: under an affine-bound space and a uniform dependence set,
//! every projection line's schedule is an arithmetic progression
//! ([`loom_check::ap_overlap`]), block shapes grow affinely with the
//! size parameter, and the Gray-code mapping is periodic in the block
//! index. Ehrhart's theorem then makes every counted quantity — block
//! counts, per-link message counts, busiest-processor load, schedule
//! length, and the event-driven makespan itself — a **quasi-polynomial**
//! of the size parameter `n`: a polynomial of degree ≤ the nest depth
//! whose coefficients cycle with a small period (Table I's own `W(M)`
//! has period `N` through `l = ⌊(N−2)/N·M⌋ + 1`).
//!
//! The derivation behind [`Pipeline::stage_symbolic_cost`] therefore:
//!
//! 1. **guards** the configuration: uniform dependences that are stable
//!    across sizes, a fault-free machine, Lemma 1 discharged by the
//!    Presburger core ([`loom_check::check_lemma1_symbolic`]), and the
//!    LC011 AP traffic summary agreeing with the engine's message count
//!    on every probe;
//! 2. **probes** the configuration at a window of small sizes through
//!    the real pipeline and the real discrete-event engine (the
//!    *validation oracle*): each probe is a stage that
//!    [`Pipeline::stage_partition`] builds for `family(n)`, mapped, made
//!    a program and simulated by [`run_machine`], the path the explorer
//!    simulates through. The target's `Pipeline` keeps one probe
//!    pipeline per size, so every derivation on it shares each probe
//!    size's admitted dependences, `Q` and projections;
//! 3. **fits** each quantity as a quasi-polynomial by finite
//!    differences, per residue class, trying periods in ascending
//!    order; a fit is accepted only if it also reproduces at least two
//!    held-out probes per residue class **exactly**;
//! 4. **validates** the fit against the oracle on a geometric ladder of
//!    sizes beyond the window — and at the target itself whenever that
//!    probe fits the budget. The event-driven makespan is *piecewise*
//!    quasi-polynomial (pipeline-fill transients end, compute overtakes
//!    communication), so a window fitted inside a transient regime
//!    extrapolates wrongly; a ladder mismatch **rebases** the window at
//!    the failing size and refits in the settled regime;
//! 5. returns [`Derivation::Unknown`] the moment anything fails —
//!    callers fall back to simulating at the target size, so the
//!    symbolic path can be wrong about *speed* but never about
//!    *numbers*.
//!
//! The result, [`SymbolicCost`], evaluates `T_exec` (and messages,
//! blocks, the paper's `2W`/`2M−2` decomposition) at any size in O(1);
//! `tests-int/tests/symbolic_cost.rs` asserts it equals the simulated
//! makespan exactly on every builtin workload, and reproduces Table I
//! verbatim from the fitted forms.

use crate::pipeline::{run_machine, MachineOptions, PartitionedStage, Pipeline, PipelineConfig};
use loom_loopir::LoopNest;
use loom_machine::SimScratch;
use loom_obs::Recorder;
use std::collections::BTreeMap;

/// A size-parameterized nest family: `family(n)` is the nest at size
/// parameter `n`. The symbolic engine requires the dependence set to be
/// the same for every probed `n` (guarded, not assumed).
pub type NestFamily = std::sync::Arc<dyn Fn(i64) -> LoopNest + Send + Sync>;

// ---------------------------------------------------------------------------
// Quasi-polynomials
// ---------------------------------------------------------------------------

/// A univariate quasi-polynomial in Newton (forward-difference) form:
/// for `n ≥ base` with `n = base + r + j·period` (`0 ≤ r < period`),
///
/// ```text
/// f(n) = Σ_k  diffs[r][k] · C(j, k)
/// ```
///
/// where `diffs[r]` are the forward differences of the residue-class
/// subsequence at stride `period`. All evaluation is checked `i128`;
/// [`eval`](QuasiPoly::eval) returns `None` below `base` or on
/// overflow, never a wrong number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuasiPoly {
    base: i64,
    period: i64,
    diffs: Vec<Vec<i128>>,
}

impl QuasiPoly {
    /// A constant form (period 1, degree 0), valid from `base`.
    pub fn constant(base: i64, value: i128) -> QuasiPoly {
        QuasiPoly {
            base,
            period: 1,
            diffs: vec![vec![value]],
        }
    }

    /// Smallest size the fit covers.
    pub fn base(&self) -> i64 {
        self.base
    }

    /// Period of the coefficient cycle (1 = plain polynomial).
    pub fn period(&self) -> i64 {
        self.period
    }

    /// Polynomial degree (per residue class).
    pub fn degree(&self) -> usize {
        self.diffs
            .iter()
            .map(|d| d.len().saturating_sub(1))
            .max()
            .unwrap_or(0)
    }

    /// Evaluate at `n` with checked arithmetic. `None` for `n < base`
    /// (the fit proves nothing there) or on `i128` overflow.
    pub fn eval(&self, n: i64) -> Option<i128> {
        if n < self.base {
            return None;
        }
        let off = (n - self.base) as i128;
        let p = self.period as i128;
        let r = (off % p) as usize;
        let j = off / p;
        let mut acc: i128 = 0;
        let mut binom: i128 = 1; // C(j, 0)
        for (k, &c) in self.diffs[r].iter().enumerate() {
            if k > 0 {
                // C(j, k) = C(j, k−1)·(j−k+1)/k — the division is exact.
                binom = binom.checked_mul(j - k as i128 + 1)? / k as i128;
            }
            acc = acc.checked_add(c.checked_mul(binom)?)?;
        }
        Some(acc)
    }

    /// Evaluate and narrow to `u64` (`None` on overflow / negative /
    /// below-base, as for [`eval`](QuasiPoly::eval)).
    pub fn eval_u64(&self, n: i64) -> Option<u64> {
        u64::try_from(self.eval(n)?).ok()
    }

    /// Human-readable closed form in the Newton basis, e.g.
    /// `f(n) = 12 + 7·C(j,1) + 2·C(j,2)  [n = 4 + r + 2j]`.
    pub fn render(&self, var: &str) -> String {
        let one = |coeffs: &[i128]| -> String {
            let terms: Vec<String> = coeffs
                .iter()
                .enumerate()
                .filter(|&(k, &c)| c != 0 || k == 0)
                .map(|(k, &c)| {
                    if k == 0 {
                        format!("{c}")
                    } else {
                        format!("{c}·C(j,{k})")
                    }
                })
                .collect();
            terms.join(" + ")
        };
        if self.period == 1 {
            format!(
                "{} = {}  [j = {var} − {}]",
                var,
                one(&self.diffs[0]),
                self.base
            )
        } else {
            let rows: Vec<String> = self
                .diffs
                .iter()
                .enumerate()
                .map(|(r, c)| format!("r={r}: {}", one(c)))
                .collect();
            format!(
                "{} with {var} = {} + r + {}·j: {}",
                var,
                self.base,
                self.period,
                rows.join("; ")
            )
        }
    }
}

/// Forward differences of a sequence (one order).
fn forward_diff(seq: &[i128]) -> Vec<i128> {
    seq.windows(2).map(|w| w[1] - w[0]).collect()
}

/// Fit `values` (at consecutive sizes `base, base+1, …`) as a
/// quasi-polynomial of the given `period` and degree ≤ `degree`.
/// Every residue class must have at least `degree + 3` samples: the
/// first `degree + 1` differences become the Newton coefficients and
/// the **≥ 2 remaining samples are the holdout** — the (degree+1)-th
/// differences must vanish over the whole class, so the fitted form
/// reproduces every probed value exactly or the fit is rejected.
fn fit_series(values: &[i128], base: i64, period: i64, degree: usize) -> Option<QuasiPoly> {
    let p = period as usize;
    let mut diffs_all = Vec::with_capacity(p);
    for r in 0..p {
        let mut seq: Vec<i128> = values.iter().skip(r).step_by(p).copied().collect();
        if seq.len() < degree + 3 {
            return None;
        }
        let mut coeffs = Vec::with_capacity(degree + 1);
        for _ in 0..=degree {
            coeffs.push(seq[0]);
            seq = forward_diff(&seq);
        }
        if seq.iter().any(|&x| x != 0) {
            return None;
        }
        diffs_all.push(coeffs);
    }
    Some(QuasiPoly {
        base,
        period,
        diffs: diffs_all,
    })
}

/// Try ascending [`PERIODS`] over the available window; first exact fit
/// wins.
fn fit_component(values: &[i128], base: i64, degree: usize) -> Option<QuasiPoly> {
    PERIODS
        .into_iter()
        .filter(|&p| values.len() >= (p as usize) * (degree + 3))
        .find_map(|p| fit_series(values, base, p, degree))
}

// ---------------------------------------------------------------------------
// Derivation options and results
// ---------------------------------------------------------------------------

/// Candidate coefficient periods of every fitted form, tried in
/// ascending order.
const PERIODS: [i64; 9] = [1, 2, 3, 4, 5, 6, 8, 10, 24];
/// Smallest size probed.
const MIN_BASE: i64 = 2;
/// Largest size the base search may reach.
const MAX_BASE: i64 = 48;

/// Knobs of the probe-and-fit protocol. Every fitted form's degree is
/// capped by the nest depth (the Ehrhart bound).
#[derive(Clone, Debug)]
pub struct DeriveOptions {
    /// Total iteration-space points the probes may cost (partitioning
    /// and simulation both scale with points); exhausted ⇒ `Unknown`.
    pub max_probe_points: u64,
    /// Also fit the critical-path compute/startup/transit decomposition
    /// (PR 6 profiler) — costs traced probe simulations.
    pub profile: bool,
}

impl Default for DeriveOptions {
    fn default() -> DeriveOptions {
        DeriveOptions {
            max_probe_points: 1_500_000,
            profile: false,
        }
    }
}

/// What the probes cost and where the fit window sat.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeriveStats {
    /// Probe simulations run.
    pub probe_sims: u64,
    /// Total iteration-space points across all probes.
    pub probe_points: u64,
    /// First size of the partition-probe window.
    pub base: i64,
    /// First size of the simulation-probe window (≥ `base`: mapping
    /// needs at least as many blocks as processors).
    pub sim_base: i64,
    /// Window length (consecutive sizes probed).
    pub window: i64,
}

/// The critical-path decomposition as closed forms (fitted from the
/// PR 6 profiler's attribution, which always sums to the makespan).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SymbolicProfile {
    /// Nominal task execution ticks on the critical path.
    pub compute: QuasiPoly,
    /// `t_start` shares of sends and forwarding on the path.
    pub startup: QuasiPoly,
    /// `words·t_comm` wire time on the path.
    pub transit: QuasiPoly,
}

/// Closed-form cost of one (Π, grouping, cube) configuration family.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SymbolicCost {
    /// The simulated makespan `T_exec(n)`.
    pub t_exec: QuasiPoly,
    /// Messages sent (after batching, when configured).
    pub messages: QuasiPoly,
    /// Algorithm 1 block count.
    pub blocks: QuasiPoly,
    /// Schedule length (number of distinct hyperplane steps).
    pub steps: QuasiPoly,
    /// Busiest-processor flop count — the paper's `2W` term for matvec
    /// (its Table I `calc` coefficient multiplies `t_calc`).
    pub max_proc_flops: QuasiPoly,
    /// Optional critical-path decomposition.
    pub profile: Option<SymbolicProfile>,
    /// Number of processors of the configuration.
    pub num_procs: usize,
    /// Probe accounting.
    pub stats: DeriveStats,
}

impl SymbolicCost {
    /// `T_exec` at size `n` (`None` below the fit base or on overflow).
    pub fn makespan(&self, n: i64) -> Option<u64> {
        self.t_exec.eval_u64(n)
    }

    /// Message count at size `n`.
    pub fn messages_at(&self, n: i64) -> Option<u64> {
        self.messages.eval_u64(n)
    }

    /// Block count at size `n`.
    pub fn blocks_at(&self, n: i64) -> Option<u64> {
        self.blocks.eval_u64(n)
    }

    /// The paper's §IV occupancy decomposition at size `n`:
    /// `calc_coeff = ` busiest-processor flops (Table I's `2W` for
    /// matvec), `comm_coeff = steps − 1` communication rounds for a
    /// parallel machine (`2M − 2` for matvec) and 0 sequentially.
    pub fn exec_terms(&self, n: i64) -> Option<crate::analytic::ExecTerms> {
        let calc = self.max_proc_flops.eval_u64(n)?;
        let comm = if self.num_procs <= 1 {
            0
        } else {
            self.steps.eval_u64(n)?.checked_sub(1)?
        };
        Some(crate::analytic::ExecTerms {
            calc_coeff: calc,
            comm_coeff: comm,
        })
    }
}

/// Outcome of [`Pipeline::stage_symbolic_cost`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Derivation {
    /// Every component admitted an exactly-validated closed form.
    Exact(Box<SymbolicCost>),
    /// No closed form within the option budget — callers must fall
    /// back to the simulator at the target size (which is always
    /// correct, just not O(1)).
    Unknown {
        /// What failed first.
        reason: String,
    },
    /// The configuration is invalid at *every* size (grouping choice
    /// not maximal) or at the target size (machine larger than the
    /// block count): skip it, exactly as the simulating explorer does.
    Infeasible {
        /// Why the configuration cannot run.
        reason: String,
    },
}

// ---------------------------------------------------------------------------
// Probe cache
// ---------------------------------------------------------------------------

/// Copyable per-size simulation measurements.
#[derive(Clone, Copy, Debug)]
struct SimProbe {
    makespan: i128,
    messages: i128,
    max_proc_flops: i128,
    profile: Option<(i128, i128, i128)>,
}

/// One probed size: its pipeline stage plus lazily-filled per-cube
/// simulation summaries.
struct PartProbe {
    stage: PartitionedStage,
    points: u64,
    blocks: i128,
    steps: i128,
    sims: BTreeMap<usize, SimProbe>,
}

enum Probe {
    /// `family(n)` has a different dependence set (boundary effect at a
    /// tiny size) — the size is unusable.
    DepsMismatch,
    /// The stage rejected the configuration at this size.
    Rejected(String),
    Ok(Box<PartProbe>),
}

/// One derivation's probe context: the configuration every probe of it
/// shares, and the simulator's working buffers.
struct Probes<'a> {
    /// The target's pipeline, which shares each probe size's parts among
    /// all the derivations made on it.
    pipeline: &'a Pipeline,
    family: &'a dyn Fn(i64) -> LoopNest,
    /// Π, the grouping and the cube; probes map onto the hypercube.
    config: PipelineConfig,
    /// The caller's machine, recording a trace and metrics only when
    /// profiling, and validating no trace.
    machine: MachineOptions,
    profile: bool,
    budget: u64,
    scratch: SimScratch,
}

/// The resumable state of the symbolic-cost stage: every probe stage
/// and every probe simulation, memoized by size (and cube dimension).
/// One cache serves one `(family, Π, grouping, machine options)`
/// combination across any number of
/// [`Pipeline::stage_symbolic_cost`] calls — exploration reuses it
/// across every machine size, and a later call with a larger target
/// resumes from the probes already paid for. Its budget and counters
/// price this combination's own probes, whichever derivations share
/// their parts.
pub struct ProbeCache {
    probes: BTreeMap<i64, Probe>,
    point_counts: BTreeMap<i64, u64>,
    points_spent: u64,
    sims: u64,
    lemma1_checked: bool,
}

impl ProbeCache {
    /// Fresh cache (no probes yet).
    pub fn new() -> ProbeCache {
        ProbeCache {
            probes: BTreeMap::new(),
            point_counts: BTreeMap::new(),
            points_spent: 0,
            sims: 0,
            lemma1_checked: false,
        }
    }

    /// Total iteration-space points the probes have cost so far.
    pub fn points_spent(&self) -> u64 {
        self.points_spent
    }

    /// Probe simulations run so far.
    pub fn sims(&self) -> u64 {
        self.sims
    }

    /// Upper bound on what probing `[start, start + len)` (partition +
    /// one simulation each) would add to `points_spent`, skipping sizes
    /// already paid for. No probes run; point counts are memoized, and
    /// the walk stops early once the estimate clears `cap` — the
    /// caller only needs "over budget", not the exact figure.
    fn window_cost(&mut self, ctx: &Probes, start: i64, len: i64, cap: u64) -> u64 {
        let mut cost = 0u64;
        for n in start..start + len {
            match self.probes.get(&n) {
                None => {
                    let pts = match self.point_counts.get(&n) {
                        Some(&p) => p,
                        None => {
                            // Count with an early exit: a huge size only
                            // needs to prove "over cap", not its exact
                            // (possibly 10^12) point count — and an
                            // incomplete count is not memoized. Over the
                            // cap, charge the first count past the room.
                            let room = cap.saturating_sub(cost) / 2;
                            match (ctx.family)(n).space().count_at_most(room) {
                                Some(p) => {
                                    self.point_counts.insert(n, p);
                                    p
                                }
                                None => room + 1,
                            }
                        }
                    };
                    cost = cost.saturating_add(pts.saturating_mul(2));
                }
                Some(Probe::Ok(pp)) if !pp.sims.contains_key(&ctx.config.cube_dim) => {
                    cost = cost.saturating_add(pp.points);
                }
                Some(_) => {}
            }
            if cost > cap {
                return cost;
            }
        }
        cost
    }

    /// Probe `family(n)` up to its partitioned stage (memoized). The
    /// stage comes from the target pipeline's probe pipeline for
    /// `family(n)`, so it shares that size's admission, `Q` and
    /// projection along Π with every other derivation on the target;
    /// this cache is charged its points all the same, once the probe's
    /// `D` is known to be the target's.
    fn probe(&mut self, ctx: &Probes, n: i64) -> Result<&mut Probe, String> {
        if let std::collections::btree_map::Entry::Vacant(slot) = self.probes.entry(n) {
            let pipeline = ctx.pipeline.probe_pipeline(n, (ctx.family)(n));
            let rec = Recorder::disabled();
            let entry = match (pipeline.admitted(&rec), ctx.pipeline.admitted(&rec)) {
                (Ok(got), Ok(want)) if got.deps == want.deps => {
                    let points = pipeline.nest().space().count() as u64;
                    if self.points_spent.saturating_add(points) > ctx.budget {
                        return Err(format!(
                            "probe budget exhausted at size {n} ({} of {} points spent)",
                            self.points_spent, ctx.budget
                        ));
                    }
                    self.points_spent += points;
                    match pipeline.stage_partition(&ctx.config, &rec) {
                        Ok(stage) => Probe::Ok(Box::new(PartProbe {
                            blocks: stage.partitioning.num_blocks() as i128,
                            steps: stage.pi.steps(pipeline.nest().space()) as i128,
                            points,
                            stage,
                            sims: BTreeMap::new(),
                        })),
                        Err(e) => Probe::Rejected(e.to_string()),
                    }
                }
                _ => Probe::DepsMismatch,
            };
            slot.insert(entry);
        }
        Ok(self.probes.get_mut(&n).expect("just inserted"))
    }

    /// The probe at size `n`, which must be usable.
    fn part(&mut self, ctx: &Probes, n: i64) -> Result<&mut PartProbe, String> {
        match self.probe(ctx, n)? {
            Probe::Ok(pp) => Ok(pp.as_mut()),
            Probe::DepsMismatch => Err(format!("dependence set changes at probe size {n}")),
            Probe::Rejected(e) => Err(format!("the stage fails at probe size {n}: {e}")),
        }
    }

    /// Simulation-probe `family(n)` on the configured cube (memoized):
    /// the probe's stage is mapped, made a program and simulated exactly
    /// as the explorer does it, plus the LC011 cross-check.
    fn sim_probe(&mut self, ctx: &mut Probes, n: i64) -> Result<SimProbe, String> {
        let need_lemma1 = !self.lemma1_checked;
        let spent = self.points_spent;
        let pp = self.part(ctx, n)?;
        if let Some(s) = pp.sims.get(&ctx.config.cube_dim) {
            if !ctx.profile || s.profile.is_some() {
                return Ok(*s);
            }
        }
        if spent.saturating_add(pp.points) > ctx.budget {
            return Err(format!(
                "probe budget exhausted at size {n} ({spent} of {} points spent)",
                ctx.budget
            ));
        }
        if need_lemma1 {
            // LC009: Lemma 1 discharged symbolically (lattice argument +
            // Presburger core) — the structural license to extrapolate.
            let mut stats = loom_check::SymbolicStats::default();
            let diags = loom_check::check_lemma1_symbolic(&pp.stage.partitioning, &mut stats);
            if !diags.is_empty() {
                return Err("symbolic Lemma 1 rejected the partitioning".to_string());
            }
        }
        let rec = Recorder::disabled();
        let (mapping, placement, target) = pp
            .stage
            .map_with(&ctx.config, &rec)
            .map_err(|e| format!("probe size {n}: {e}"))?;
        let program = pp.stage.program(&placement);
        let max_proc_flops = {
            let mut per_proc = vec![0u64; placement.num_procs()];
            for &q in &program.proc_of {
                per_proc[q as usize] += program.flops;
            }
            per_proc.into_iter().max().unwrap_or(0) as i128
        };
        let report = run_machine(&program, target, &ctx.machine, &rec, Some(&mut ctx.scratch))
            .map_err(|e| format!("probe size {n}: {e}"))?;
        let (makespan, messages) = (report.makespan, report.messages);
        let prof = if ctx.profile {
            let sim_cfg = ctx.machine.sim_config(target);
            let cp = loom_machine::critical_path(&program, &sim_cfg, &report)
                .map_err(|e| format!("probe profiling failed at size {n}: {e:?}"))?;
            let a = cp.components;
            Some((a.compute as i128, a.startup as i128, a.transit as i128))
        } else {
            None
        };
        // LC011 cross-check: the AP-overlap traffic summary must agree
        // with the engine's message count (unbatched runs only — the
        // engine merges messages under batching).
        if !ctx.machine.batch_messages {
            let traffic = loom_check::block_traffic(&pp.stage.partitioning);
            if traffic.fallbacks > 0 {
                return Err(format!(
                    "AP structure broken at probe size {n} ({} fallback lines)",
                    traffic.fallbacks
                ));
            }
            let derived = traffic.remote_messages(mapping.assignment());
            if derived != messages {
                return Err(format!(
                    "LC011 traffic summary derives {derived} messages at size {n} \
                     but the engine sent {messages}"
                ));
            }
        }
        let sim = SimProbe {
            makespan: makespan as i128,
            messages: messages as i128,
            max_proc_flops,
            profile: prof,
        };
        pp.sims.insert(ctx.config.cube_dim, sim);
        let pp_points = pp.points;
        self.points_spent += pp_points;
        self.sims += 1;
        self.lemma1_checked = true;
        Ok(sim)
    }

    /// The (block count, schedule steps) series over
    /// `[start, start + len)` from partition-level probes.
    fn partition_series(
        &mut self,
        ctx: &Probes,
        start: i64,
        len: i64,
    ) -> Result<(Vec<i128>, Vec<i128>), String> {
        (start..start + len)
            .map(|n| self.part(ctx, n).map(|pp| (pp.blocks, pp.steps)))
            .collect()
    }

    /// `true` iff a validation probe at size `n` (one partitioning plus
    /// one simulation, ≈ 2× the point count) fits in the remaining
    /// budget. The lattice is counted row by row with an early exit at
    /// the affordable cap, so an unaffordable size — say a 10^12-point
    /// target — costs a few rows, never a full enumeration.
    fn affordable(&self, ctx: &Probes, n: i64) -> bool {
        let cap = ctx.budget.saturating_sub(self.points_spent) / 2;
        (ctx.family)(n).space().count_at_most(cap).is_some()
    }

    /// Oracle-check every fitted component at size `n`. `Ok(false)`
    /// means the engine disagrees (regime change — rebase); `Err` means
    /// the probe itself failed (guard or budget — give up).
    fn validate_at(&mut self, ctx: &mut Probes, n: i64, fit: &FitSet) -> Result<bool, String> {
        let pp = self.part(ctx, n)?;
        if fit.blocks.eval(n) != Some(pp.blocks) || fit.steps.eval(n) != Some(pp.steps) {
            return Ok(false);
        }
        let sp = self.sim_probe(ctx, n)?;
        if fit.t_exec.eval(n) != Some(sp.makespan)
            || fit.messages.eval(n) != Some(sp.messages)
            || fit.load.eval(n) != Some(sp.max_proc_flops)
        {
            return Ok(false);
        }
        if let Some(p) = &fit.profile {
            let Some((c, su, tr)) = sp.profile else {
                return Err(format!("validation probe at size {n} has no profile"));
            };
            if p.compute.eval(n) != Some(c)
                || p.startup.eval(n) != Some(su)
                || p.transit.eval(n) != Some(tr)
            {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

impl Default for ProbeCache {
    fn default() -> Self {
        ProbeCache::new()
    }
}

// ---------------------------------------------------------------------------
// Derivation driver
// ---------------------------------------------------------------------------

fn unknown(reason: impl Into<String>) -> Derivation {
    Derivation::Unknown {
        reason: reason.into(),
    }
}

/// Derive the closed-form cost of `config`'s configuration — its fixed
/// Π (`time_fn` must be set), grouping and `2^cube_dim` processors, on
/// its machine options (the defaults when unset) — over the size family,
/// exactly enough to stand in for the simulator at `target`. Each probe
/// is a stage of `pipeline`'s probe pipeline for `family(n)`, mapped onto
/// the hypercube and simulated through [`run_machine`].
///
/// Probes guard that every probed size reproduces the dependence set
/// `D` that `pipeline` admitted for the *target* nest. Fits are
/// validated three ways: held-out probes inside the window (≥ 2 per
/// residue class), a geometric ladder of oracle probes at ~2× and ~4×
/// the window end, and — whenever the probe budget can afford it — **at
/// the target size itself**, making the answer oracle-equal by
/// construction there. A
/// ladder mismatch means the engine crossed into a different cost
/// regime (pipeline-fill transients ending, compute overtaking
/// communication); the window is rebased past the mismatch and refit,
/// so accepted forms describe the regime the target actually lives in.
/// Any guard failure, unfittable window, or budget exhaustion yields
/// [`Derivation::Unknown`] so the caller simulates instead.
pub(crate) fn derive(
    pipeline: &Pipeline,
    family: &dyn Fn(i64) -> LoopNest,
    config: &PipelineConfig,
    target: i64,
    opts: &DeriveOptions,
    cache: &mut ProbeCache,
) -> Derivation {
    let machine = config.machine.clone().unwrap_or_default();
    if machine.faults.is_some() {
        return unknown("fault plans name concrete processors and ticks; no size family");
    }
    if target < MIN_BASE {
        return unknown(format!("target size {target} below probe base"));
    }
    let degree = family(MIN_BASE).dim();
    let budget = opts.max_probe_points;
    let num_procs = 1usize << config.cube_dim;
    let mut ctx = Probes {
        pipeline,
        family,
        config: PipelineConfig {
            target: None,
            machine: None,
            ..config.clone()
        },
        machine: MachineOptions {
            record_trace: opts.profile,
            collect_metrics: opts.profile,
            validate_trace: false,
            ..machine
        },
        profile: opts.profile,
        budget,
        scratch: SimScratch::default(),
    };

    // 1. Base: the smallest size that reproduces the dependence set and
    // partitions. A grouping the partitioner rejects is rejected by a
    // rank argument independent of the bounds — infeasible at any size.
    let mut base = None;
    for n in MIN_BASE..=MAX_BASE {
        match cache.probe(&ctx, n) {
            Err(e) => return unknown(e),
            Ok(Probe::DepsMismatch) => continue,
            Ok(Probe::Rejected(e)) => {
                return Derivation::Infeasible {
                    reason: format!("the stage rejects the configuration: {e}"),
                }
            }
            Ok(Probe::Ok(_)) => {
                base = Some(n);
                break;
            }
        }
    }
    let Some(base) = base else {
        return unknown(format!(
            "no size in [{MIN_BASE}, {MAX_BASE}] reproduces the target dependence set"
        ));
    };

    if base > target {
        return unknown(format!(
            "target size {target} is below the smallest size ({base}) that \
             reproduces the dependence set"
        ));
    }
    let min_window = degree as i64 + 3;

    // 2. Preliminary block-count form from partition-only probes at the
    // base: the cheap mapping-feasibility gate. Block counts are pure
    // lattice geometry — no machine constants, so no regime changes —
    // and the form is re-fitted and ladder-validated alongside the
    // simulated components below.
    let mut prelim_blocks = None;
    for p in PERIODS {
        let window = p * (degree as i64 + 3);
        let series = match cache.partition_series(&ctx, base, window) {
            Ok(s) => s,
            Err(e) => return unknown(e),
        };
        if let Some(b) = fit_component(&series.0, base, degree) {
            prelim_blocks = Some(b);
            break;
        }
    }
    let Some(prelim_blocks) = prelim_blocks else {
        return unknown("block count does not fit a quasi-polynomial over any probe window");
    };
    match prelim_blocks.eval(target) {
        None => return unknown("block count overflows at the target size"),
        Some(b) if b < num_procs as i128 => {
            return Derivation::Infeasible {
                reason: format!(
                    "{b} block(s) at size {target} cannot fill a {num_procs}-processor cube"
                ),
            }
        }
        Some(_) => {}
    }

    // 3. Fit / validate / rebase. Each attempt fits every component
    // over one window (ascending periods until everything fits), then
    // walks the validation ladder; a mismatch rebases the window past
    // the offending size and tries again.
    const MAX_ATTEMPTS: usize = 8;
    const SIZE_CAP: i64 = 1 << 20;
    let mut start = base;
    let mut last_reason = format!("no window fitted from size {base}");
    'attempts: for attempt in 0..MAX_ATTEMPTS {
        let mut fitted: Option<FitSet> = None;
        let mut skipped_for_budget = false;
        'rounds: for p in PERIODS {
            let window = p * (degree as i64 + 3);
            // Place the window at or after `start` — but never start it
            // beyond the target: a fit based past the target proves
            // nothing at the target, while a window *containing* the
            // target is oracle-equal there by construction.
            let mut s = start.min(target);
            // Never sink more than half the remaining budget into one
            // speculative window: a long-period window that devours the
            // budget here would starve the cheap short-period fits that
            // later attempts (at slid starts) usually land. The skip is
            // free — only nest bounds materialize, no probes run.
            let remaining = budget.saturating_sub(cache.points_spent());
            let est = cache.window_cost(&ctx, s, window, remaining / 2);
            if est > remaining / 2 {
                last_reason = format!(
                    "probe budget {budget} cannot afford a period-{p} fit window \
                     at size {s} (≈{est} points, {remaining} left)"
                );
                skipped_for_budget = true;
                continue 'rounds;
            }
            'place: loop {
                if s > SIZE_CAP {
                    return unknown(format!(
                        "no simulatable window below size {SIZE_CAP}: fewer blocks than processors"
                    ));
                }
                // `s` is re-read by `continue 'place`, not by this range.
                #[allow(clippy::mut_range_bound)]
                for n in s..s + window {
                    match cache.part(&ctx, n) {
                        Err(e) => return unknown(e),
                        Ok(pp) if pp.blocks >= num_procs as i128 => {}
                        Ok(_) => {
                            s = n + 1;
                            continue 'place;
                        }
                    }
                }
                break;
            }
            let (blocks_v, steps_v) = match cache.partition_series(&ctx, s, window) {
                Ok(v) => v,
                Err(e) => return unknown(e),
            };
            let mut mk_v = Vec::new();
            let mut msg_v = Vec::new();
            let mut load_v = Vec::new();
            let mut prof_v: Vec<(i128, i128, i128)> = Vec::new();
            for n in s..s + window {
                match cache.sim_probe(&mut ctx, n) {
                    Err(e) => return unknown(e),
                    Ok(sp) => {
                        mk_v.push(sp.makespan);
                        msg_v.push(sp.messages);
                        load_v.push(sp.max_proc_flops);
                        if let Some(t) = sp.profile {
                            prof_v.push(t);
                        }
                    }
                }
            }
            let fits = (
                fit_component(&blocks_v, s, degree),
                fit_component(&steps_v, s, degree),
                fit_component(&mk_v, s, degree),
                fit_component(&msg_v, s, degree),
                fit_component(&load_v, s, degree),
            );
            let (Some(blocks), Some(steps), Some(t_exec), Some(messages), Some(load)) = fits else {
                continue 'rounds;
            };
            let profile = if opts.profile {
                let series: [Vec<i128>; 3] = [
                    prof_v.iter().map(|t| t.0).collect(),
                    prof_v.iter().map(|t| t.1).collect(),
                    prof_v.iter().map(|t| t.2).collect(),
                ];
                let fitted = (
                    fit_component(&series[0], s, degree),
                    fit_component(&series[1], s, degree),
                    fit_component(&series[2], s, degree),
                );
                let (Some(compute), Some(startup), Some(transit)) = fitted else {
                    continue 'rounds;
                };
                Some(SymbolicProfile {
                    compute,
                    startup,
                    transit,
                })
            } else {
                None
            };
            fitted = Some(FitSet {
                blocks,
                steps,
                t_exec,
                messages,
                load,
                profile,
                num_procs,
                sim_base: s,
                window,
            });
            break 'rounds;
        }
        let Some(fit) = fitted else {
            // No period fits any window at `start`: the window likely
            // spans a regime boundary. Slide forward — linearly at
            // first (transients often end a handful of sizes in), then
            // doubling (the target clamp above anchors any late window
            // at the target itself, so overshooting is safe). When a
            // window was skipped for budget, keep that reason: it is
            // the actionable one.
            if !skipped_for_budget {
                last_reason = format!(
                    "no exact quasi-polynomial fit (period ≤ {}) over windows from size {start}",
                    PERIODS[PERIODS.len() - 1]
                );
            }
            start += min_window << attempt.saturating_sub(2);
            continue 'attempts;
        };

        // Mapping feasibility at the target, from the final block form.
        match fit.blocks.eval(target) {
            None => return unknown("block count overflows at the target size"),
            Some(b) if b < num_procs as i128 => {
                return Derivation::Infeasible {
                    reason: format!(
                        "{b} block(s) at size {target} cannot fill a {num_procs}-processor cube"
                    ),
                }
            }
            Some(_) => {}
        }

        // 4. Validation ladder. A target inside the window is already
        // oracle-equal (the Newton form interpolates every probe).
        let edge = fit.sim_base + fit.window - 1;
        if target <= edge {
            return exact(fit, base, cache);
        }
        let mut checks: Vec<i64> = Vec::new();
        let mut v = 2 * edge;
        while checks.len() < 2 && v < target {
            if !cache.affordable(&ctx, v) {
                break;
            }
            checks.push(v);
            v *= 2;
        }
        let target_affordable = cache.affordable(&ctx, target);
        if target_affordable {
            checks.push(target);
        } else if checks.is_empty() {
            return unknown(
                "probe budget cannot afford any validation probe beyond the fit window",
            );
        }
        for &v in &checks {
            match cache.validate_at(&mut ctx, v, &fit) {
                Err(e) => return unknown(e),
                Ok(true) => {}
                Ok(false) => {
                    last_reason = format!(
                        "fit over [{}, {}) breaks at size {v}: a different cost regime",
                        fit.sim_base,
                        fit.sim_base + fit.window
                    );
                    start = v;
                    continue 'attempts;
                }
            }
        }
        return exact(fit, base, cache);
    }
    unknown(format!(
        "no stable fit window after {MAX_ATTEMPTS} attempts: {last_reason}"
    ))
}

/// Everything [`derive`] fits for one window, pre-validation.
struct FitSet {
    blocks: QuasiPoly,
    steps: QuasiPoly,
    t_exec: QuasiPoly,
    messages: QuasiPoly,
    load: QuasiPoly,
    profile: Option<SymbolicProfile>,
    num_procs: usize,
    sim_base: i64,
    window: i64,
}

fn exact(fit: FitSet, base: i64, cache: &ProbeCache) -> Derivation {
    Derivation::Exact(Box::new(SymbolicCost {
        t_exec: fit.t_exec,
        messages: fit.messages,
        blocks: fit.blocks,
        steps: fit.steps,
        max_proc_flops: fit.load,
        profile: fit.profile,
        num_procs: fit.num_procs,
        stats: DeriveStats {
            probe_sims: cache.sims(),
            probe_points: cache.points_spent(),
            base,
            sim_base: fit.sim_base,
            window: fit.window,
        },
    }))
}

#[cfg(test)]
impl ProbeCache {
    /// Every probed size's stage, by size.
    pub(crate) fn stages(&self) -> impl Iterator<Item = (i64, &PartitionedStage)> {
        self.probes.iter().filter_map(|(&n, probe)| match probe {
            Probe::Ok(pp) => Some((n, &pp.stage)),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quasipoly_fits_and_evaluates_polynomials() {
        // f(n) = n² + 3n + 7 sampled at n = 2..12.
        let f = |n: i64| (n * n + 3 * n + 7) as i128;
        let vals: Vec<i128> = (2..12).map(f).collect();
        let qp = fit_series(&vals, 2, 1, 2).expect("degree-2 fit");
        for n in 2..200 {
            assert_eq!(qp.eval(n), Some(f(n)), "n={n}");
        }
        assert_eq!(qp.eval(1), None, "below base proves nothing");
        assert_eq!(qp.degree(), 2);
        assert_eq!(qp.period(), 1);
    }

    #[test]
    fn quasipoly_fits_periodic_coefficients() {
        // Table I's own shape: W(M) with period 4 at N = 4 — here a toy
        // with period 2: f(n) = n²  for even offsets, n² + n for odd.
        let f = |n: i64| ((n * n) + if n % 2 == 1 { n } else { 0 }) as i128;
        let vals: Vec<i128> = (3..23).map(f).collect();
        assert!(fit_series(&vals, 3, 1, 2).is_none(), "not a plain poly");
        let qp = fit_series(&vals, 3, 2, 2).expect("period-2 fit");
        for n in 3..300 {
            assert_eq!(qp.eval(n), Some(f(n)), "n={n}");
        }
    }

    #[test]
    fn holdout_rejects_non_polynomial_series() {
        let vals: Vec<i128> = (2..12).map(|n: i64| (1i128) << n).collect();
        for p in [1i64, 2] {
            assert!(fit_series(&vals, 2, p, 2).is_none(), "2^n must not fit");
        }
    }

    #[test]
    fn eval_checked_arithmetic_overflows_to_none() {
        let qp = QuasiPoly {
            base: 0,
            period: 1,
            diffs: vec![vec![i128::MAX, i128::MAX]],
        };
        assert_eq!(qp.eval(2), None, "overflow must be None, not wrap");
        assert_eq!(QuasiPoly::constant(1, 5).eval(7), Some(5));
    }

    /// Derive matvec under Π = (1, 1) on a fresh target pipeline.
    fn derive_matvec(cube_dim: usize, target: i64, opts: &DeriveOptions) -> Derivation {
        let fam = |n: i64| loom_workloads::matvec::workload(n).nest;
        let config = PipelineConfig {
            time_fn: Some(vec![1, 1]),
            cube_dim,
            ..Default::default()
        };
        let pipeline = Pipeline::new(fam(target));
        derive(
            &pipeline,
            &fam,
            &config,
            target,
            opts,
            &mut ProbeCache::new(),
        )
    }

    #[test]
    fn matvec_canonical_derivation_matches_simulation() {
        let d = derive_matvec(2, 40, &DeriveOptions::default());
        let Derivation::Exact(cost) = d else {
            panic!("matvec Π=(1,1) cube=2 must derive exactly: {d:?}");
        };
        // Oracle validation at a size beyond the probe window.
        let w = loom_workloads::matvec::workload(40);
        let out = Pipeline::new(w.nest)
            .run(&PipelineConfig {
                time_fn: Some(vec![1, 1]),
                cube_dim: 2,
                ..Default::default()
            })
            .unwrap();
        let sim = out.sim.unwrap();
        assert_eq!(cost.makespan(40), Some(sim.makespan));
        assert_eq!(cost.messages_at(40), Some(sim.messages));
        assert_eq!(
            cost.blocks_at(40),
            Some(out.partitioning.num_blocks() as u64)
        );
        // The paper's terms: W = matvec_max_points, steps = 2M − 1.
        let terms = cost.exec_terms(1024).unwrap();
        assert_eq!(
            terms.calc_coeff,
            2 * crate::analytic::matvec_max_points(1024, 4)
        );
        assert_eq!(terms.comm_coeff, 2046);
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let d = derive_matvec(
            2,
            1 << 20,
            &DeriveOptions {
                max_probe_points: 10,
                ..Default::default()
            },
        );
        assert!(
            matches!(d, Derivation::Unknown { ref reason } if reason.contains("budget")),
            "{d:?}"
        );
    }

    #[test]
    fn oversized_cube_is_infeasible_from_the_block_form() {
        // matvec(n) has n blocks; a 2^6-cube needs 64 — infeasible at
        // target 40 and the explorer must skip, not fall back.
        let d = derive_matvec(
            6,
            40,
            &DeriveOptions {
                max_probe_points: 1 << 20,
                ..Default::default()
            },
        );
        assert!(matches!(d, Derivation::Infeasible { .. }), "{d:?}");
    }
}
