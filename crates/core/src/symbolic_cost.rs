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
//! [`derive`](fn@derive) therefore:
//!
//! 1. **guards** the configuration: uniform dependences that are stable
//!    across sizes, a fault-free machine, Lemma 1 discharged by the
//!    Presburger core ([`loom_check::check_lemma1_symbolic`]), and the
//!    LC011 AP traffic summary agreeing with the engine's message count
//!    on every probe;
//! 2. **probes** the configuration at a window of small sizes through
//!    the real pipeline and the real discrete-event engine (the
//!    *validation oracle*, [`loom_machine::oracle_summary`]);
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

use crate::pipeline::MachineOptions;
use loom_loopir::{DepOptions, LoopNest, Point};
use loom_machine::{oracle_summary, simulate_scratch, Program, SimConfig, SimScratch, Topology};
use loom_partition::{partition, PartitionConfig, Partitioning};
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

/// Try ascending periods over the available window; first exact fit wins.
fn fit_component(values: &[i128], base: i64, periods: &[i64], degree: usize) -> Option<QuasiPoly> {
    periods
        .iter()
        .filter(|&&p| values.len() >= (p as usize) * (degree + 3))
        .find_map(|&p| fit_series(values, base, p, degree))
}

// ---------------------------------------------------------------------------
// Derivation options and results
// ---------------------------------------------------------------------------

/// Knobs of the probe-and-fit protocol.
#[derive(Clone, Debug)]
pub struct DeriveOptions {
    /// Degree cap for every fitted form; `None` uses the nest depth
    /// (the Ehrhart bound).
    pub degree: Option<usize>,
    /// Candidate coefficient periods, tried in ascending order.
    pub periods: Vec<i64>,
    /// Smallest size probed.
    pub min_base: i64,
    /// Largest size the base search may reach.
    pub max_base: i64,
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
            degree: None,
            periods: vec![1, 2, 3, 4, 5, 6, 8, 10, 24],
            min_base: 2,
            max_base: 48,
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

/// Outcome of [`derive`](fn@derive).
#[derive(Clone, Debug)]
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

/// One probed size: the partitioned artifacts plus lazily-filled
/// per-cube simulation summaries.
struct PartProbe {
    partitioning: Partitioning,
    flops_per_iter: u64,
    points: u64,
    blocks: i128,
    steps: i128,
    sims: BTreeMap<usize, SimProbe>,
}

enum Probe {
    /// `family(n)` has a different dependence set (boundary effect at a
    /// tiny size) — the size is unusable.
    DepsMismatch,
    /// Partitioning rejected the configuration at this size.
    PartitionFailed(String),
    Ok(Box<PartProbe>),
}

/// The resumable state of the symbolic-cost stage: every partitioning
/// and every probe simulation, memoized by size (and cube dimension).
/// One cache serves one `(family, Π, grouping, machine options)`
/// combination across any number of [`derive`](fn@derive) calls — exploration
/// reuses it across every machine size, and a later call with a larger
/// target resumes from the probes already paid for.
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
    fn window_cost(
        &mut self,
        family: &dyn Fn(i64) -> LoopNest,
        start: i64,
        len: i64,
        cube_dim: usize,
        cap: u64,
    ) -> u64 {
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
                            // incomplete count is not memoized.
                            let nest = family(n);
                            let mut p = 0u64;
                            let mut complete = true;
                            for _ in nest.space().points() {
                                p += 1;
                                if cost.saturating_add(p.saturating_mul(2)) > cap {
                                    complete = false;
                                    break;
                                }
                            }
                            if complete {
                                self.point_counts.insert(n, p);
                            }
                            p
                        }
                    };
                    cost = cost.saturating_add(pts.saturating_mul(2));
                }
                Some(Probe::Ok(pp)) if !pp.sims.contains_key(&cube_dim) => {
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

    /// Partition-probe `family(n)` (memoized).
    #[allow(clippy::too_many_arguments)]
    fn probe(
        &mut self,
        family: &dyn Fn(i64) -> LoopNest,
        deps: &[Point],
        pi: &[i64],
        pcfg: &PartitionConfig,
        n: i64,
        budget: u64,
    ) -> Result<&mut Probe, String> {
        if let std::collections::btree_map::Entry::Vacant(slot) = self.probes.entry(n) {
            let nest = family(n);
            let got = loom_loopir::deps::dependence_vectors(&nest, DepOptions::default());
            let entry = match got {
                Ok(d) if d == deps => {
                    let points = nest.space().count() as u64;
                    if self.points_spent.saturating_add(points) > budget {
                        return Err(format!(
                            "probe budget exhausted at size {n} ({} of {budget} points spent)",
                            self.points_spent
                        ));
                    }
                    self.points_spent += points;
                    let pi_fn = loom_hyperplane::TimeFn::new(pi.to_vec());
                    match partition(nest.space().clone(), deps.to_vec(), pi_fn.clone(), pcfg) {
                        Ok(partitioning) => Probe::Ok(Box::new(PartProbe {
                            blocks: partitioning.num_blocks() as i128,
                            steps: pi_fn.steps(nest.space()) as i128,
                            flops_per_iter: nest.flops_per_iteration(),
                            points,
                            partitioning,
                            sims: BTreeMap::new(),
                        })),
                        Err(e) => Probe::PartitionFailed(e.to_string()),
                    }
                }
                _ => Probe::DepsMismatch,
            };
            slot.insert(entry);
        }
        Ok(self.probes.get_mut(&n).expect("just inserted"))
    }

    /// Simulation-probe `family(n)` on the `cube_dim`-cube (memoized).
    /// The probe goes through the same stages and the same engine the
    /// explorer uses, plus the LC011 cross-check.
    #[allow(clippy::too_many_arguments)]
    fn sim_probe(
        &mut self,
        family: &dyn Fn(i64) -> LoopNest,
        deps: &[Point],
        pi: &[i64],
        pcfg: &PartitionConfig,
        n: i64,
        cube_dim: usize,
        machine: &MachineOptions,
        profile: bool,
        budget: u64,
        scratch: &mut SimScratch,
    ) -> Result<SimProbe, String> {
        let need_lemma1 = !self.lemma1_checked;
        let spent = self.points_spent;
        let probe = self.probe(family, deps, pi, pcfg, n, budget)?;
        let pp = match probe {
            Probe::Ok(pp) => pp,
            Probe::DepsMismatch => return Err(format!("dependence set changes at probe size {n}")),
            Probe::PartitionFailed(e) => {
                return Err(format!("partitioning fails at probe size {n}: {e}"))
            }
        };
        if let Some(s) = pp.sims.get(&cube_dim) {
            if !profile || s.profile.is_some() {
                return Ok(*s);
            }
        }
        if spent.saturating_add(pp.points) > budget {
            return Err(format!(
                "probe budget exhausted at size {n} ({spent} of {budget} points spent)"
            ));
        }
        if need_lemma1 {
            // LC009: Lemma 1 discharged symbolically (lattice argument +
            // Presburger core) — the structural license to extrapolate.
            let mut stats = loom_check::SymbolicStats::default();
            let diags = loom_check::check_lemma1_symbolic(&pp.partitioning, &mut stats);
            if !diags.is_empty() {
                return Err("symbolic Lemma 1 rejected the partitioning".to_string());
            }
        }
        let mapping = loom_mapping::map_partitioning(&pp.partitioning, cube_dim)
            .map_err(|e| format!("mapping fails at probe size {n}: {e:?}"))?;
        let num_procs = 1usize << cube_dim;
        let program = Program::from_partitioning(
            &pp.partitioning,
            mapping.assignment(),
            num_procs,
            pp.flops_per_iter,
        );
        let max_proc_flops = {
            let mut per_proc = vec![0u64; num_procs];
            for (t, &f) in program.task_flops.iter().enumerate() {
                per_proc[program.proc_of[t] as usize] += f;
            }
            per_proc.into_iter().max().unwrap_or(0) as i128
        };
        let sim_cfg = SimConfig {
            params: machine.params,
            topology: Topology::Hypercube(cube_dim),
            words_per_arc: machine.words_per_arc,
            batch_messages: machine.batch_messages,
            link_contention: machine.link_contention,
            record_trace: profile,
            collect_metrics: profile,
        };
        let (makespan, messages, prof) = if profile {
            let report = simulate_scratch(&program, &sim_cfg, scratch)
                .map_err(|e| format!("probe simulation failed at size {n}: {e:?}"))?;
            let cp = loom_machine::critical_path(&program, &sim_cfg, &report)
                .map_err(|e| format!("probe profiling failed at size {n}: {e:?}"))?;
            let a = cp.components;
            (
                report.makespan,
                report.messages,
                Some((a.compute as i128, a.startup as i128, a.transit as i128)),
            )
        } else {
            let s = oracle_summary(&program, &sim_cfg, scratch)
                .map_err(|e| format!("probe simulation failed at size {n}: {e:?}"))?;
            (s.makespan, s.messages, None)
        };
        // LC011 cross-check: the AP-overlap traffic summary must agree
        // with the engine's message count (unbatched runs only — the
        // engine merges messages under batching).
        if !machine.batch_messages {
            let traffic = loom_check::block_traffic(&pp.partitioning);
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
        pp.sims.insert(cube_dim, sim);
        let pp_points = pp.points;
        self.points_spent += pp_points;
        self.sims += 1;
        self.lemma1_checked = true;
        Ok(sim)
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

/// Derive the closed-form cost of the configuration
/// `(Π = pi, grouping per pcfg, 2^cube_dim processors)` over the size
/// family, exactly enough to stand in for the simulator at `target`.
///
/// `deps` is the dependence set of the *target* nest; probes guard that
/// every probed size reproduces it. Fits are validated three ways:
/// held-out probes inside the window (≥ 2 per residue class), a
/// geometric ladder of oracle probes at ~2× and ~4× the window end, and
/// — whenever the probe budget can afford it — **at the target size
/// itself**, making the answer oracle-equal by construction there. A
/// ladder mismatch means the engine crossed into a different cost
/// regime (pipeline-fill transients ending, compute overtaking
/// communication); the window is rebased past the mismatch and refit,
/// so accepted forms describe the regime the target actually lives in.
/// Any guard failure, unfittable window, or budget exhaustion yields
/// [`Derivation::Unknown`] so the caller simulates instead.
#[allow(clippy::too_many_arguments)]
pub fn derive(
    family: &dyn Fn(i64) -> LoopNest,
    deps: &[Point],
    pi: &[i64],
    pcfg: &PartitionConfig,
    cube_dim: usize,
    target: i64,
    machine: &MachineOptions,
    opts: &DeriveOptions,
    cache: &mut ProbeCache,
) -> Derivation {
    if machine.faults.is_some() {
        return unknown("fault plans name concrete processors and ticks; no size family");
    }
    if target < opts.min_base {
        return unknown(format!("target size {target} below probe base"));
    }
    let mut periods: Vec<i64> = opts.periods.iter().copied().filter(|&p| p >= 1).collect();
    periods.sort_unstable();
    periods.dedup();
    if periods.is_empty() {
        return unknown("no candidate periods configured");
    }
    let degree = opts
        .degree
        .unwrap_or_else(|| family(opts.min_base.max(1)).dim());
    let budget = opts.max_probe_points;
    let num_procs = 1usize << cube_dim;

    // 1. Base: the smallest size that reproduces the dependence set and
    // partitions. A grouping the partitioner rejects is rejected by a
    // rank argument independent of the bounds — infeasible at any size.
    let mut base = None;
    for n in opts.min_base..=opts.max_base {
        match cache.probe(family, deps, pi, pcfg, n, budget) {
            Err(e) => return unknown(e),
            Ok(Probe::DepsMismatch) => continue,
            Ok(Probe::PartitionFailed(e)) => {
                return Derivation::Infeasible {
                    reason: format!("partitioning rejects the configuration: {e}"),
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
            "no size in [{}, {}] reproduces the target dependence set",
            opts.min_base, opts.max_base
        ));
    };

    if base > target {
        return unknown(format!(
            "target size {target} is below the smallest size ({base}) that \
             reproduces the dependence set"
        ));
    }
    let mut scratch = SimScratch::default();
    let min_window = degree as i64 + 3;

    // 2. Preliminary block-count form from partition-only probes at the
    // base: the cheap mapping-feasibility gate. Block counts are pure
    // lattice geometry — no machine constants, so no regime changes —
    // and the form is re-fitted and ladder-validated alongside the
    // simulated components below.
    let mut prelim_blocks = None;
    for &p in &periods {
        let window = p * (degree as i64 + 3);
        let series = match partition_series(cache, family, deps, pi, pcfg, base, window, budget) {
            Ok(s) => s,
            Err(e) => return unknown(e),
        };
        if let Some(b) = fit_component(&series.0, base, &periods, degree) {
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
        'rounds: for &p in &periods {
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
            let est = cache.window_cost(family, s, window, cube_dim, remaining / 2);
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
                    match cache.probe(family, deps, pi, pcfg, n, budget) {
                        Err(e) => return unknown(e),
                        Ok(Probe::Ok(pp)) if pp.blocks >= num_procs as i128 => {}
                        Ok(Probe::Ok(_)) => {
                            s = n + 1;
                            continue 'place;
                        }
                        Ok(Probe::DepsMismatch) => {
                            return unknown(format!("dependence set changes at probe size {n}"))
                        }
                        Ok(Probe::PartitionFailed(e)) => {
                            return unknown(format!("partitioning fails at probe size {n}: {e}"))
                        }
                    }
                }
                break;
            }
            let (blocks_v, steps_v) =
                match partition_series(cache, family, deps, pi, pcfg, s, window, budget) {
                    Ok(v) => v,
                    Err(e) => return unknown(e),
                };
            let mut mk_v = Vec::new();
            let mut msg_v = Vec::new();
            let mut load_v = Vec::new();
            let mut prof_v: Vec<(i128, i128, i128)> = Vec::new();
            for n in s..s + window {
                match cache.sim_probe(
                    family,
                    deps,
                    pi,
                    pcfg,
                    n,
                    cube_dim,
                    machine,
                    opts.profile,
                    budget,
                    &mut scratch,
                ) {
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
                fit_component(&blocks_v, s, &periods, degree),
                fit_component(&steps_v, s, &periods, degree),
                fit_component(&mk_v, s, &periods, degree),
                fit_component(&msg_v, s, &periods, degree),
                fit_component(&load_v, s, &periods, degree),
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
                    fit_component(&series[0], s, &periods, degree),
                    fit_component(&series[1], s, &periods, degree),
                    fit_component(&series[2], s, &periods, degree),
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
                    periods.last().unwrap()
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
            if !affordable(family, v, cache, budget) {
                break;
            }
            checks.push(v);
            v *= 2;
        }
        let target_affordable = affordable(family, target, cache, budget);
        if target_affordable {
            checks.push(target);
        } else if checks.is_empty() {
            return unknown(
                "probe budget cannot afford any validation probe beyond the fit window",
            );
        }
        for &v in &checks {
            match validate_at(
                cache,
                family,
                deps,
                pi,
                pcfg,
                v,
                cube_dim,
                machine,
                &fit,
                opts.profile,
                budget,
                &mut scratch,
            ) {
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

/// Collect the (block count, schedule steps) series over
/// `[start, start + len)` from partition-level probes.
#[allow(clippy::too_many_arguments)]
fn partition_series(
    cache: &mut ProbeCache,
    family: &dyn Fn(i64) -> LoopNest,
    deps: &[Point],
    pi: &[i64],
    pcfg: &PartitionConfig,
    start: i64,
    len: i64,
    budget: u64,
) -> Result<(Vec<i128>, Vec<i128>), String> {
    let mut blocks = Vec::new();
    let mut steps = Vec::new();
    for n in start..start + len {
        match cache.probe(family, deps, pi, pcfg, n, budget)? {
            Probe::Ok(pp) => {
                blocks.push(pp.blocks);
                steps.push(pp.steps);
            }
            Probe::DepsMismatch => return Err(format!("dependence set changes at probe size {n}")),
            Probe::PartitionFailed(e) => {
                return Err(format!("partitioning fails at probe size {n}: {e}"))
            }
        }
    }
    Ok((blocks, steps))
}

/// `true` iff a validation probe at size `n` (one partitioning plus one
/// simulation, ≈ 2× the point count) fits in the remaining budget. The
/// lattice is counted with an early exit at the affordable cap, so an
/// unaffordable size — say a 10^12-point target — costs O(budget)
/// iterations, never a full enumeration.
fn affordable(family: &dyn Fn(i64) -> LoopNest, n: i64, cache: &ProbeCache, budget: u64) -> bool {
    let cap = budget.saturating_sub(cache.points_spent()) / 2;
    let nest = family(n);
    let mut pts = 0u64;
    for _ in nest.space().points() {
        pts += 1;
        if pts > cap {
            return false;
        }
    }
    true
}

/// Oracle-check every fitted component at size `n`. `Ok(false)` means
/// the engine disagrees (regime change — rebase); `Err` means the probe
/// itself failed (guard or budget — give up).
#[allow(clippy::too_many_arguments)]
fn validate_at(
    cache: &mut ProbeCache,
    family: &dyn Fn(i64) -> LoopNest,
    deps: &[Point],
    pi: &[i64],
    pcfg: &PartitionConfig,
    n: i64,
    cube_dim: usize,
    machine: &MachineOptions,
    fit: &FitSet,
    profile: bool,
    budget: u64,
    scratch: &mut SimScratch,
) -> Result<bool, String> {
    let (blocks, steps) = match cache.probe(family, deps, pi, pcfg, n, budget)? {
        Probe::Ok(pp) => (pp.blocks, pp.steps),
        Probe::DepsMismatch => {
            return Err(format!("dependence set changes at validation size {n}"))
        }
        Probe::PartitionFailed(e) => {
            return Err(format!("partitioning fails at validation size {n}: {e}"))
        }
    };
    if fit.blocks.eval(n) != Some(blocks) || fit.steps.eval(n) != Some(steps) {
        return Ok(false);
    }
    let sp = cache.sim_probe(
        family, deps, pi, pcfg, n, cube_dim, machine, profile, budget, scratch,
    )?;
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

    #[test]
    fn matvec_canonical_derivation_matches_simulation() {
        let fam = |n: i64| loom_workloads::matvec::workload(n).nest;
        let deps = loom_workloads::matvec::workload(8).verified_deps();
        let machine = MachineOptions::default();
        let mut cache = ProbeCache::new();
        let d = derive(
            &fam,
            &deps,
            &[1, 1],
            &PartitionConfig::default(),
            2,
            40,
            &machine,
            &DeriveOptions::default(),
            &mut cache,
        );
        let Derivation::Exact(cost) = d else {
            panic!("matvec Π=(1,1) cube=2 must derive exactly: {d:?}");
        };
        // Oracle validation at a size beyond the probe window.
        let w = loom_workloads::matvec::workload(40);
        let out = crate::Pipeline::new(w.nest)
            .run(&crate::PipelineConfig {
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
        let fam = |n: i64| loom_workloads::matvec::workload(n).nest;
        let deps = loom_workloads::matvec::workload(8).verified_deps();
        let mut cache = ProbeCache::new();
        let d = derive(
            &fam,
            &deps,
            &[1, 1],
            &PartitionConfig::default(),
            2,
            1 << 20,
            &MachineOptions::default(),
            &DeriveOptions {
                max_probe_points: 10,
                ..Default::default()
            },
            &mut cache,
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
        let fam = |n: i64| loom_workloads::matvec::workload(n).nest;
        let deps = loom_workloads::matvec::workload(8).verified_deps();
        let mut cache = ProbeCache::new();
        let d = derive(
            &fam,
            &deps,
            &[1, 1],
            &PartitionConfig::default(),
            6,
            40,
            &MachineOptions::default(),
            &DeriveOptions {
                max_base: 80,
                max_probe_points: 1 << 20,
                ..Default::default()
            },
            &mut cache,
        );
        assert!(matches!(d, Derivation::Infeasible { .. }), "{d:?}");
    }
}
