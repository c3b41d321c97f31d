//! Property harness for the symbolic cost engine: the closed-form
//! `T_exec` quasi-polynomials must agree with the cycle-accurate
//! simulator **exactly** — on every builtin workload family across
//! sizes, on the parallel configurations that derive exactly, through
//! `ExploreConfig::symbolic` (byte-identical rankings with honest
//! fallback), and on the paper's Table I reproduced from the forms.

use loom_core::analytic::matvec_exec_terms;
use loom_core::explore::{explore_reference, explore_with, ExploreConfig, SymbolicExplore};
use loom_core::symbolic_cost::{Derivation, DeriveOptions, ProbeCache, SymbolicCost};
use loom_core::{MachineOptions, Pipeline, PipelineConfig};
use loom_machine::MachineParams;
use loom_obs::Recorder;
use loom_workloads::Family;
use std::sync::Arc;

const ALL_FAMILIES: [&str; 10] = [
    "l1",
    "matvec",
    "dft",
    "conv",
    "sor",
    "triangular",
    "matmul",
    "transitive",
    "conv2d",
    "heat2d",
];

/// A machine whose short transients keep most parallel configurations
/// inside one cost regime — the derivation-friendly counterpoint to
/// `classic_1991`'s long pipeline-fill phases.
fn low_latency() -> MachineParams {
    MachineParams {
        t_calc: 3,
        t_start: 2,
        t_comm: 1,
        t_recv: 0,
    }
}

fn machine(params: MachineParams) -> MachineOptions {
    MachineOptions {
        params,
        ..Default::default()
    }
}

/// Derive the closed forms for a builtin family at `target` under its
/// canonical Π, sharing nothing: fresh pipeline and cache, default
/// options unless overridden.
fn derive_builtin(
    name: &str,
    cube_dim: usize,
    target: i64,
    params: MachineParams,
    opts: &DeriveOptions,
) -> (Derivation, Family) {
    let fam = loom_workloads::family_of(name, None).expect("builtin family");
    let nest_fam = {
        let fam = fam.clone();
        move |n: i64| fam(n).nest
    };
    let cfg = PipelineConfig {
        time_fn: Some(fam(8).pi),
        cube_dim,
        machine: Some(machine(params)),
        ..Default::default()
    };
    let d = Pipeline::new(nest_fam(target))
        .stage_symbolic_cost(
            &nest_fam,
            target,
            &cfg,
            opts,
            &mut ProbeCache::new(),
            &Recorder::disabled(),
        )
        .expect("the stage derives");
    (d, fam)
}

/// The oracle: run the full pipeline (partition → map → simulate) at
/// one concrete size and return `(makespan, messages)`.
fn simulate(fam: &Family, n: i64, cube_dim: usize, params: MachineParams) -> (u64, u64) {
    let w = fam(n);
    let out = Pipeline::new(w.nest.clone())
        .run(&PipelineConfig {
            time_fn: Some(w.pi.clone()),
            cube_dim,
            machine: Some(machine(params)),
            ..Default::default()
        })
        .expect("pipeline simulates");
    let sim = out.sim.expect("simulation enabled");
    (sim.makespan, sim.messages)
}

fn assert_exact_at(
    cost: &SymbolicCost,
    fam: &Family,
    n: i64,
    cube_dim: usize,
    params: MachineParams,
    ctx: &str,
) {
    let (makespan, messages) = simulate(fam, n, cube_dim, params);
    assert_eq!(
        cost.makespan(n),
        Some(makespan),
        "{ctx}: symbolic T_exec must equal the simulated makespan at n={n}"
    );
    assert_eq!(
        cost.messages_at(n),
        Some(messages),
        "{ctx}: symbolic message count must match the simulator at n={n}"
    );
}

/// Every builtin family derives exactly on the serial machine (`N = 1`
/// — the paper's first Table I column: no messages, `T_exec` is pure
/// compute), and the closed form equals the simulated makespan at
/// three or more sizes including the target.
#[test]
fn serial_closed_form_is_exact_for_every_builtin_family() {
    let target = 33i64;
    for name in ALL_FAMILIES {
        let (d, fam) = derive_builtin(
            name,
            0,
            target,
            MachineParams::classic_1991(),
            &DeriveOptions::default(),
        );
        let Derivation::Exact(cost) = d else {
            panic!("{name}: serial derivation must be exact, got {d:?}");
        };
        let base = cost.t_exec.base();
        for n in [base, base + 5, target] {
            assert_exact_at(&cost, &fam, n, 0, MachineParams::classic_1991(), name);
        }
    }
}

/// The parallel configurations that settle into one cost regime derive
/// exactly, and the forms reproduce the simulator point-for-point —
/// makespan *and* message count — across sizes up to the target.
#[test]
fn parallel_closed_forms_match_the_simulator_exactly() {
    let target = 33i64;
    let classic = MachineParams::classic_1991();
    let cases: &[(&str, usize, MachineParams)] = &[
        ("l1", 1, low_latency()),
        ("l1", 2, low_latency()),
        ("matvec", 1, classic),
        ("matvec", 2, classic),
        ("dft", 1, low_latency()),
        ("dft", 2, low_latency()),
        ("conv", 1, low_latency()),
        ("sor", 1, classic),
        ("triangular", 1, classic),
    ];
    for &(name, cube_dim, params) in cases {
        let (d, fam) = derive_builtin(name, cube_dim, target, params, &DeriveOptions::default());
        let Derivation::Exact(cost) = d else {
            panic!("{name} cube_dim={cube_dim}: expected an exact derivation, got {d:?}");
        };
        let base = cost.t_exec.base();
        let ctx = format!("{name} cube_dim={cube_dim}");
        for n in [base, base + 3, target] {
            assert_exact_at(&cost, &fam, n, cube_dim, params, &ctx);
        }
    }
}

/// `ExploreConfig::symbolic` returns the byte-identical ranking the
/// simulating explorer computes, on every thread count and prune
/// setting, along both of its routes:
///
/// * **closed form** — each case's budget prices its target out on the
///   three cubes (`2·3·|T| > budget`), so every candidate reaches
///   `derive`. Candidates derive exactly (matvec), mix exact, fallback
///   and infeasible cubes (conv: the budget still pays for fit windows
///   on some pairs), or all fall back because a one-point budget
///   derives nothing (matmul). Pruning never
///   engages, and the serial sweep's `(simulated, exact, fallback,
///   infeasible)` counts are pinned.
/// * **routed** — at the default budget these targets are affordable,
///   so the sweep simulates every candidate with pruning, spends no
///   probe point, and counts `(simulated, pruned)` exactly as the
///   simulating sweep does, which is pinned per prune setting.
#[test]
fn symbolic_explore_ranking_is_byte_identical_with_honest_fallback() {
    let classic = MachineParams::classic_1991();
    struct Case {
        name: &'static str,
        size: i64,
        params: MachineParams,
        budget: u64,
        closed_form: [u64; 4],
        simulate: [(u64, u64); 2],
    }
    let cases = [
        Case {
            name: "matvec",
            size: 24,
            params: classic,
            budget: 1151,
            closed_form: [16, 8, 16, 0],
            simulate: [(24, 0), (17, 7)],
        },
        Case {
            name: "conv",
            size: 500,
            params: low_latency(),
            budget: 11_999,
            closed_form: [17, 13, 17, 6],
            simulate: [(30, 0), (25, 5)],
        },
        Case {
            name: "matmul",
            size: 5,
            params: classic,
            budget: 1,
            closed_form: [63, 0, 66, 0],
            simulate: [(63, 0), (30, 33)],
        },
    ];
    for case in cases {
        let fam = loom_workloads::family_of(case.name, None).expect("builtin family");
        let nest = fam(case.size).nest;
        let points = nest.space().count() as u64;
        assert!(
            2 * 3 * points > case.budget,
            "{}: the closed-form leg must price its target out",
            case.name
        );
        let cfg = ExploreConfig {
            pi_bound: 2,
            top: 10,
            machine: machine(case.params),
            threads: 1,
            prune: true,
            symbolic: None,
        };
        let baseline = explore_reference(&nest, &[0, 1, 2], &cfg).expect("reference explores");
        let symbolic = |budget: u64| SymbolicExplore {
            family: Arc::new({
                let fam = fam.clone();
                move |n| fam(n).nest
            }),
            size: case.size,
            opts: DeriveOptions {
                max_probe_points: budget,
                ..DeriveOptions::default()
            },
        };
        let default_budget = DeriveOptions::default().max_probe_points;
        for threads in [1, 4] {
            for prune in [false, true] {
                for budget in [None, Some(case.budget), Some(default_budget)] {
                    let ctx = format!(
                        "{} threads={threads} prune={prune} budget={budget:?}",
                        case.name
                    );
                    let rec = Recorder::enabled();
                    let got = explore_with(
                        &nest,
                        &[0, 1, 2],
                        &ExploreConfig {
                            threads,
                            prune,
                            symbolic: budget.map(symbolic),
                            ..cfg.clone()
                        },
                        &rec,
                    )
                    .expect("explore runs");
                    assert_eq!(got, baseline, "{ctx}: ranking must equal the reference");
                    let counters = rec.counters();
                    let get = |k: &str| counters.get(k).copied().unwrap_or(0);
                    let closed_form = budget == Some(case.budget);
                    if closed_form {
                        assert_eq!(get("explore.pruned"), 0, "{ctx}: {counters:?}");
                        assert_eq!(get("explore.symbolic.routed"), 0, "{ctx}: {counters:?}");
                    }
                    if budget == Some(default_budget) {
                        let routed = get("explore.symbolic.routed");
                        assert_eq!(routed, get("explore.candidates"), "{ctx}: {counters:?}");
                        assert!(routed > 0, "{ctx}: {counters:?}");
                        for k in ["probe_points", "probe_sims", "exact", "fallback"] {
                            let key = format!("explore.symbolic.{k}");
                            assert_eq!(counters.get(&key), Some(&0), "{ctx}: {counters:?}");
                        }
                    }
                    if threads > 1 {
                        // Which candidates the shared gate prunes
                        // depends on worker timing.
                        continue;
                    }
                    if closed_form {
                        let counts = [
                            get("explore.simulated"),
                            get("explore.symbolic.exact"),
                            get("explore.symbolic.fallback"),
                            get("explore.symbolic.infeasible"),
                        ];
                        assert_eq!(counts, case.closed_form, "{ctx}: {counters:?}");
                    } else {
                        let counts = (get("explore.simulated"), get("explore.pruned"));
                        assert_eq!(counts, case.simulate[prune as usize], "{ctx}: {counters:?}");
                    }
                }
            }
        }
    }
}

/// `derive`'s probe spend and fit window are pinned for the families
/// the exactness tests cover, and each target-33 answer is checked
/// against the simulator. The spend follows the window search order:
/// the cheapest untried window is fitted first. The matvec 1024 case
/// prices its target out, so its over-budget decisions (unaffordable
/// validation sizes) are pinned too; its makespan is the engine's known
/// gap (ROADMAP item 1), so only its spend is.
#[test]
fn derive_stats_are_pinned() {
    let classic = MachineParams::classic_1991();
    // (family, cube, target, machine, [probe_sims, probe_points, base,
    // sim_base, window])
    let cases: &[(&str, usize, i64, MachineParams, [i64; 5])] = &[
        ("matvec", 1, 33, classic, [12, 13890, 2, 33, 5]),
        ("matvec", 2, 33, classic, [21, 10811, 2, 4, 20]),
        ("conv", 1, 33, low_latency(), [31, 7412, 2, 27, 5]),
        ("sor", 1, 33, classic, [51, 16524, 2, 33, 20]),
        ("matvec", 1, 1024, classic, [7, 1620, 2, 2, 5]),
    ];
    for &(name, cube_dim, target, params, expect) in cases {
        let (d, fam) = derive_builtin(name, cube_dim, target, params, &DeriveOptions::default());
        let Derivation::Exact(cost) = d else {
            panic!("{name} cube_dim={cube_dim} target={target}: expected exact, got {d:?}");
        };
        let s = cost.stats;
        assert_eq!(
            [
                s.probe_sims as i64,
                s.probe_points as i64,
                s.base,
                s.sim_base,
                s.window
            ],
            expect,
            "{name} cube_dim={cube_dim} target={target}: {s:?}"
        );
        if target == 33 {
            let ctx = format!("{name} cube_dim={cube_dim}");
            assert_exact_at(&cost, &fam, target, cube_dim, params, &ctx);
        }
    }
}

/// The closed-form sweep's spend on the benchmark's derived matvec
/// input: every candidate derives exactly for 102,324 probe points
/// (354,824 when each start tried every period before sliding).
#[test]
fn matvec_1024_explore_spend_is_pinned() {
    let fam = loom_workloads::family_of("matvec", None).expect("builtin family");
    let cfg = ExploreConfig {
        pi_bound: 1,
        top: 10,
        machine: machine(low_latency()),
        threads: 1,
        prune: true,
        symbolic: Some(SymbolicExplore {
            family: Arc::new(move |n| fam(n).nest),
            size: 1024,
            opts: DeriveOptions::default(),
        }),
    };
    let rec = Recorder::enabled();
    let nest = loom_workloads::matvec::workload(1024).nest;
    explore_with(&nest, &[1, 2], &cfg, &rec).expect("explore runs");
    let counters = rec.counters();
    let get = |k: &str| counters.get(k).copied().unwrap_or(0);
    assert_eq!(
        [
            get("explore.symbolic.exact"),
            get("explore.symbolic.fallback"),
            get("explore.symbolic.probe_points"),
        ],
        [4, 0, 102_324],
        "{counters:?}"
    );
}

/// A validation probe past 32-bit point ids is an `Unknown`, not an
/// `Infeasible`: with no budget limit the derivation validates at the
/// 10¹⁰-point target, whose space is counted and never enumerated.
#[test]
fn oversized_validation_probe_is_unknown() {
    let opts = DeriveOptions {
        max_probe_points: u64::MAX,
        ..Default::default()
    };
    let (d, _) = derive_builtin("l1", 1, 100_000, low_latency(), &opts);
    assert!(
        matches!(d, Derivation::Unknown { ref reason }
            if reason.contains("probe size 100000") && reason.contains("10000000000 points")),
        "{d:?}"
    );
}

/// Table I of the paper, reproduced from closed forms at `M = 1024`:
/// all six printed `(calc, comm)` coefficient pairs from the analytic
/// formula, the serial row independently re-derived by the symbolic
/// engine (its `T_exec(1024)` is the paper's 2M² with `t_calc = 1`),
/// and the `N = 4` row's `2W` computation term recovered from the
/// engine's busiest-processor form — without ever simulating at
/// `M = 1024` (the probe budget cannot afford that size; the ladder
/// validates the fit geometrically below it).
#[test]
fn table_i_is_reproduced_from_the_closed_forms() {
    let expect = [
        (1u64, 2_097_152u64, 0u64),
        (4, 786_944, 2046),
        (16, 245_888, 2046),
        (64, 64_544, 2046),
        (256, 16_328, 2046),
        (1024, 4094, 2046),
    ];
    for &(n, calc, comm) in &expect {
        let terms = matvec_exec_terms(1024, n);
        assert_eq!(
            (terms.calc_coeff, terms.comm_coeff),
            (calc, comm),
            "Table I row N = {n}"
        );
    }

    // Serial row, re-derived: T_exec(M) = 2M²·t_calc with no messages.
    let m = 1024i64;
    let (d, _) = derive_builtin(
        "matvec",
        0,
        m,
        MachineParams::classic_1991(),
        &DeriveOptions::default(),
    );
    let Derivation::Exact(cost) = d else {
        panic!("serial matvec must derive exactly, got {d:?}");
    };
    assert_eq!(cost.makespan(m), Some(2_097_152), "Table I N = 1 ticks");
    assert_eq!(cost.messages_at(m), Some(0));
    assert_eq!(cost.max_proc_flops.eval_u64(m), Some(2_097_152));

    // N = 4 row: the busiest-processor form is pure lattice geometry
    // (machine constants cancel), so a low-latency derivation recovers
    // the paper's 2W = 786 944 — and the same form holds at any size.
    let (d, fam) = derive_builtin("matvec", 2, m, low_latency(), &DeriveOptions::default());
    let Derivation::Exact(cost) = d else {
        panic!("matvec cube_dim=2 must derive exactly at M = 1024, got {d:?}");
    };
    assert_eq!(
        cost.max_proc_flops.eval_u64(m),
        Some(786_944),
        "Table I N = 4: 2W"
    );
    // The paper's printed W assumes M divisible by N (Table I uses
    // M = 1024 on 4 processors); off-multiple sizes round differently
    // than the real Algorithm 1 partition, so compare on multiples.
    for n in [200i64, 512] {
        assert_eq!(
            cost.max_proc_flops.eval_u64(n),
            Some(matvec_exec_terms(n as u64, 4).calc_coeff),
            "2W form vs analytic at n = {n}"
        );
    }
    // One mid-size oracle check of the full T_exec form (the target
    // size itself is past the probe budget by design).
    assert_exact_at(&cost, &fam, 200, 2, low_latency(), "matvec cube_dim=2");
}

/// Every legal Π with coefficients in `[-1, 1]`.
fn legal_pis_within_one(dim: usize, deps: &[Vec<i64>]) -> Vec<Vec<i64>> {
    let mut pis = vec![vec![]];
    for _ in 0..dim {
        pis = pis
            .into_iter()
            .flat_map(|pi: Vec<i64>| (-1..=1).map(move |c| pi.iter().copied().chain([c]).collect()))
            .collect();
    }
    pis.retain(|pi| loom_hyperplane::TimeFn::new(pi.clone()).is_legal_for(deps));
    pis
}

/// Pairs that derive on one target `Pipeline` share each probe size's
/// `Q` and projections, and still derive exactly what a pipeline and
/// cache of their own derive: the same forms and the same `DeriveStats`,
/// for every family, legal Π within bound 1, grouping and cube.
#[test]
fn shared_probe_parts_derive_what_unshared_ones_derive() {
    let target = 33i64;
    // Every family still derives some pair exactly within this budget,
    // and the pairs that derive nothing stop early.
    let opts = DeriveOptions {
        max_probe_points: 200_000,
        ..DeriveOptions::default()
    };
    let rec = Recorder::disabled();
    for name in ALL_FAMILIES {
        let fam = loom_workloads::family_of(name, None).expect("builtin family");
        let family = move |n: i64| fam(n).nest;
        let nest = family(target);
        let shared = Pipeline::new(nest.clone());
        let deps = shared
            .admitted(&rec)
            .expect("builtin nests admit")
            .deps
            .clone();
        let mut exact = 0;
        for pi in legal_pis_within_one(nest.dim(), &deps) {
            for grouping in 0..deps.len() {
                // One cache per pair, resumed across its cubes.
                let (mut cache, mut own_cache) = (ProbeCache::new(), ProbeCache::new());
                let own = Pipeline::new(nest.clone());
                for cube_dim in [0, 1] {
                    let cfg = PipelineConfig {
                        time_fn: Some(pi.clone()),
                        partition: loom_partition::PartitionConfig {
                            grouping_choice: Some(grouping),
                            seed: None,
                        },
                        cube_dim,
                        machine: Some(machine(low_latency())),
                        ..Default::default()
                    };
                    let got = shared
                        .stage_symbolic_cost(&family, target, &cfg, &opts, &mut cache, &rec)
                        .expect("the stage derives");
                    let want = own
                        .stage_symbolic_cost(&family, target, &cfg, &opts, &mut own_cache, &rec)
                        .expect("the stage derives");
                    let ctx = format!("{name} Π={pi:?} grouping={grouping} cube={cube_dim}");
                    assert_eq!(got, want, "{ctx}");
                    exact += matches!(got, Derivation::Exact(_)) as usize;
                }
            }
        }
        assert!(exact > 0, "{name}: no pair derives exactly");
    }
}
