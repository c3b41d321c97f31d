//! `explore_symbolic`: the configuration search ranked by closed-form
//! `T_exec` (the symbolic cost engine) instead of simulation, with a
//! per-candidate simulator fallback.

use crate::explore::{EXPLORE_COUNTERS, THREADS};
use crate::runner::{same, Oracle, Workload};
use crate::trace::Tracer;
use loom_core::explore::{explore_with, Candidate, ExploreConfig, SymbolicExplore};
use loom_core::pipeline::run_machine;
use loom_core::symbolic_cost::{Derivation, DeriveOptions, NestFamily, ProbeCache};
use loom_core::{MachineOptions, Pipeline, PipelineConfig, PipelineError};
use loom_hyperplane::TimeFn;
use loom_loopir::{DepOptions, LoopNest};
use loom_machine::MachineParams;
use loom_obs::Recorder;
use loom_partition::PartitionConfig;
use std::sync::Arc;

const SYMBOLIC_COUNTERS: [&str; 3] = [
    "explore.symbolic.probe_points",
    "explore.symbolic.exact",
    "explore.symbolic.fallback",
];

/// The largest target the simulating explorer checks in a run; beyond
/// it the space is out of the simulator's reach.
const SIMULABLE: i64 = 1024;

/// Short pipeline-fill transients: matvec settles into one cost regime
/// early, which is what lets the closed forms certify far below the
/// target (the machine of the committed symbolic sweep).
fn low_latency() -> MachineParams {
    MachineParams {
        t_calc: 3,
        t_start: 2,
        t_comm: 1,
        t_recv: 0,
    }
}

/// A wrong ranking of the symbolic cost engine, recorded at the commit
/// that added the benchmark: the simulator's candidates in the
/// simulator's order, but with makespans the engine claims exact.
pub struct KnownGap {
    claimed: &'static [u64],
    simulated: &'static [u64],
}

/// matvec 1024 on `classic_1991`, Π bound 1, cube 1.
const MATVEC_1024_CLASSIC: KnownGap = KnownGap {
    claimed: &[116_624, 116_624],
    simulated: &[1_106_249, 1_106_276],
};

impl KnownGap {
    /// `answer` is exactly the recorded wrong ranking of `simulated`.
    fn is(&self, answer: &[Candidate], simulated: &[Candidate]) -> bool {
        let makespans = |r: &[Candidate]| r.iter().map(|c| c.makespan).collect::<Vec<_>>();
        let rest = |r: &[Candidate]| {
            r.iter()
                .map(|c| Candidate {
                    makespan: 0,
                    ..c.clone()
                })
                .collect::<Vec<_>>()
        };
        makespans(answer) == self.claimed
            && makespans(simulated) == self.simulated
            && rest(answer) == rest(simulated)
    }
}

pub struct SymInput {
    name: &'static str,
    size: i64,
    params: (&'static str, MachineParams),
    pi_bound: i64,
    cubes: &'static [usize],
    family: NestFamily,
    nest: LoopNest,
    /// For a target beyond [`SIMULABLE`]: the same sweep at a simulable
    /// size, which must verify in the same run.
    twin: Option<usize>,
    known_gap: Option<KnownGap>,
}

impl SymInput {
    fn new(
        name: &'static str,
        size: i64,
        params: (&'static str, MachineParams),
        pi_bound: i64,
        cubes: &'static [usize],
    ) -> SymInput {
        let builtin = loom_workloads::family_of(name, None).expect("builtin family");
        let family: NestFamily = Arc::new(move |n| builtin(n).nest);
        SymInput {
            name,
            size,
            params,
            pi_bound,
            cubes,
            nest: family(size),
            family,
            twin: None,
            known_gap: None,
        }
    }

    fn config(&self, symbolic: bool) -> ExploreConfig {
        ExploreConfig {
            pi_bound: self.pi_bound,
            top: 10,
            machine: MachineOptions {
                params: self.params.1,
                ..Default::default()
            },
            threads: THREADS,
            prune: true,
            symbolic: symbolic.then(|| SymbolicExplore {
                family: self.family.clone(),
                size: self.size,
                opts: DeriveOptions::default(),
            }),
        }
    }

    fn explore(&self, symbolic: bool, rec: &Recorder) -> Result<Vec<Candidate>, String> {
        explore_with(&self.nest, self.cubes, &self.config(symbolic), rec).map_err(|e| e.to_string())
    }
}

pub struct ExploreSymbolic {
    inputs: Vec<SymInput>,
}

impl Workload for ExploreSymbolic {
    type Output = Vec<Candidate>;
    type Answer = Vec<Candidate>;
    const THREADS: usize = THREADS;

    /// matvec over four orders of magnitude, where symbolic is the only
    /// fast path at the top, plus small nests, where a fixed probe
    /// spend costs far more than simulating, plus the known gap.
    /// `--smoke` keeps the two cheapest inputs.
    fn setup(smoke: bool) -> Result<ExploreSymbolic, String> {
        let ll = ("low_latency", low_latency());
        let classic = ("classic_1991", MachineParams::classic_1991());
        let mut inputs = if smoke {
            vec![
                SymInput::new("dft", 16, ll, 1, &[1, 2]),
                SymInput::new("l1", 16, ll, 1, &[1, 2]),
            ]
        } else {
            vec![
                SymInput::new("matvec", 12, ll, 1, &[1, 2]),
                SymInput::new("matvec", 64, ll, 1, &[1, 2]),
                SymInput::new("matvec", 256, ll, 1, &[1, 2]),
                SymInput::new("matvec", 1024, ll, 1, &[1, 2]),
                SymInput::new("matvec", 1_000_000, ll, 1, &[1, 2]),
                SymInput::new("conv", 10, ll, 1, &[1, 2]),
                SymInput::new("sor", 10, ll, 1, &[1, 2]),
                SymInput::new("dft", 16, ll, 1, &[1, 2]),
                SymInput::new("l1", 16, ll, 1, &[1, 2]),
                SymInput::new("matvec", 12, classic, 2, &[0, 1, 2]),
                SymInput {
                    known_gap: Some(MATVEC_1024_CLASSIC),
                    ..SymInput::new("matvec", 1024, classic, 1, &[1])
                },
            ]
        };
        for i in 0..inputs.len() {
            if inputs[i].size > SIMULABLE {
                let twin = inputs.iter().position(|t| {
                    t.name == inputs[i].name
                        && t.size == SIMULABLE
                        && t.params.0 == inputs[i].params.0
                        && t.pi_bound == inputs[i].pi_bound
                        && t.cubes == inputs[i].cubes
                });
                inputs[i].twin = Some(twin.ok_or("no simulable twin")?);
            }
        }
        Ok(ExploreSymbolic { inputs })
    }

    fn len(&self) -> usize {
        self.inputs.len()
    }

    fn label(&self, i: usize) -> String {
        let s = &self.inputs[i];
        format!(
            "explore_symbolic {} {} {} pi_bound {} cubes {:?}",
            s.name, s.size, s.params.0, s.pi_bound, s.cubes
        )
    }

    fn request(&self, i: usize, t: &mut Tracer) -> Result<Vec<Candidate>, String> {
        let rec = t.recorder();
        let ranked = t.span("core.explore", |_| self.inputs[i].explore(true, &rec));
        t.count_from(&rec, &EXPLORE_COUNTERS);
        t.count_from(&rec, &SYMBOLIC_COUNTERS);
        ranked
    }

    fn answer(&self, _i: usize, ranked: Vec<Candidate>) -> Vec<Candidate> {
        ranked
    }

    fn replica(&self, i: usize, answer: &Vec<Candidate>, t: &mut Tracer) -> Result<(), String> {
        same("symbolic replica", &replica(&self.inputs[i], t)?, answer)
    }

    /// The ranking must equal the simulating explorer's, or be exactly
    /// the input's known gap. A target the simulator cannot reach passes
    /// only with no fallback and its simulable twin verified.
    fn verify(
        &self,
        i: usize,
        answer: &Vec<Candidate>,
        verified: &[bool],
    ) -> Result<Oracle, String> {
        let s = &self.inputs[i];
        match s.twin {
            None => {
                let simulated = s.explore(false, &Recorder::disabled())?;
                if s.known_gap
                    .as_ref()
                    .is_some_and(|g| g.is(answer, &simulated))
                {
                    return Ok(Oracle::KnownGap {
                        makespan: simulated[0].makespan,
                    });
                }
                same("ranking", answer, &simulated).map(|()| Oracle::Agrees)
            }
            Some(twin) => {
                let rec = Recorder::enabled();
                s.explore(true, &rec)?;
                let fallbacks = rec.counters()["explore.symbolic.fallback"];
                if fallbacks > 0 {
                    return Err(format!("{fallbacks} simulator fallback(s)"));
                }
                if !verified[twin] {
                    return Err(format!("twin {} not verified", self.label(twin)));
                }
                Ok(Oracle::Agrees)
            }
        }
    }

    fn makespan(&self, _i: usize, answer: &Vec<Candidate>) -> u64 {
        answer.first().map_or(0, |c| c.makespan)
    }
}

/// The symbolic sweep through `Pipeline::stage_symbolic_cost`, one span
/// per derivation and per simulator fallback: one probe cache per
/// (Π, grouping) pair shared across its cubes, the simulator on
/// `Unknown`, and the explorer's ranking order.
fn replica(s: &SymInput, t: &mut Tracer) -> Result<Vec<Candidate>, String> {
    let deps = loom_loopir::deps::dependence_vectors(&s.nest, DepOptions::default())
        .map_err(|e| e.to_string())?;
    let pipeline = Pipeline::new(s.nest.clone());
    let machine = s.config(false).machine;
    let opts = DeriveOptions::default();
    let rec = Recorder::disabled();
    let mut found = Vec::new();
    for pi in legal_pis(s.nest.dim(), &deps, s.pi_bound) {
        for grouping in 0..deps.len() {
            let base = PipelineConfig {
                time_fn: Some(pi.clone()),
                partition: PartitionConfig {
                    grouping_choice: Some(grouping),
                    seed: None,
                },
                machine: Some(machine.clone()),
                ..Default::default()
            };
            let mut cache = ProbeCache::new();
            let mut stage = None;
            for &cube_dim in s.cubes {
                let cfg = PipelineConfig {
                    cube_dim,
                    ..base.clone()
                };
                let derived = t.span("symbolic.derive", |_| {
                    pipeline.stage_symbolic_cost(&*s.family, s.size, &cfg, &opts, &mut cache, &rec)
                });
                let candidate = |makespan, messages, blocks| Candidate {
                    pi: pi.clone(),
                    grouping,
                    cube_dim,
                    makespan,
                    messages,
                    blocks,
                };
                match derived.map_err(|e| e.to_string())? {
                    Derivation::Infeasible { .. } => continue,
                    Derivation::Exact(cost) => {
                        if let (Some(m), Some(msgs), Some(b)) = (
                            cost.makespan(s.size),
                            cost.messages_at(s.size),
                            cost.blocks_at(s.size),
                        ) {
                            found.push(candidate(m, msgs, b as usize));
                            continue;
                        }
                    }
                    Derivation::Unknown { .. } => {}
                }
                let simulated = t.span("symbolic.fallback_sim", |_| {
                    if stage.is_none() {
                        stage = match pipeline.stage_partition_with_deps(&base, &rec, deps.clone())
                        {
                            Ok(st) => Some(st),
                            Err(PipelineError::Partition(_)) => return Ok(None),
                            Err(e) => return Err(e),
                        };
                    }
                    let st = stage.as_ref().expect("stage built above");
                    let (_, placement, target) = match st.map_with(&cfg, &rec) {
                        Ok(x) => x,
                        Err(PipelineError::Mapping(_)) => return Ok(Some(None)),
                        Err(e) => return Err(e),
                    };
                    let program = st.program(&placement);
                    let report = run_machine(&program, target, &machine, &rec, None)?;
                    Ok(Some(Some((report, st.partitioning.num_blocks()))))
                });
                match simulated.map_err(|e| e.to_string())? {
                    // Grouping not maximal at the target: skip the pair.
                    None => break,
                    Some(None) => continue,
                    Some(Some((report, blocks))) => {
                        found.push(candidate(report.makespan, report.messages, blocks))
                    }
                }
            }
        }
    }
    found.sort_by_key(|c| {
        (
            c.makespan,
            c.pi.iter().map(|x| x.abs()).sum::<i64>(),
            c.pi.clone(),
            c.grouping,
            c.cube_dim,
        )
    });
    found.truncate(10);
    Ok(found)
}

/// Every Π in `[-bound, bound]^dim` legal for `deps` (any order).
fn legal_pis(dim: usize, deps: &[Vec<i64>], bound: i64) -> Vec<Vec<i64>> {
    let mut out = Vec::new();
    let mut pi = vec![-bound; dim];
    loop {
        if TimeFn::new(pi.clone()).is_legal_for(deps) {
            out.push(pi.clone());
        }
        let Some(k) = (0..dim).rev().find(|&k| pi[k] < bound) else {
            return out;
        };
        pi[k] += 1;
        pi[k + 1..].fill(-bound);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legal_pis_enumerates_the_box() {
        // One dependence (1, 0): Π legal iff π₁ ≥ 1.
        let pis = legal_pis(2, &[vec![1, 0]], 1);
        assert_eq!(pis, vec![vec![1, -1], vec![1, 0], vec![1, 1]]);
        assert_eq!(legal_pis(2, &[], 1).len(), 9);
    }

    /// The known gap's input returns exactly the recorded wrong ranking,
    /// or, once the engine is fixed, the simulator's.
    #[test]
    fn known_gap_is_recorded_exactly() {
        let w = ExploreSymbolic::setup(false).expect("set-up");
        let i = w
            .inputs
            .iter()
            .position(|s| s.known_gap.is_some())
            .expect("gap input");
        let answer = w.request(i, &mut Tracer::disabled()).expect("ranks");
        let oracle = w
            .verify(i, &answer, &vec![true; w.len()])
            .expect("verifies");
        assert!(
            matches!(
                oracle,
                Oracle::Agrees
                    | Oracle::KnownGap {
                        makespan: 1_106_249
                    }
            ),
            "{oracle:?}"
        );
    }
}
