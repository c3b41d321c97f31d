//! The paper's closed-form performance model for matrix–vector
//! multiplication on a hypercube (§IV and Table I), plus a general
//! makespan lower bound ([`makespan_lower_bound`]) used by
//! exploration's branch-and-bound pruning.

use loom_machine::{MachineParams, Program};

/// The two symbolic terms of `T_exec(N)`:
/// `calc_coeff · t_calc + comm_coeff · (t_start + t_comm)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecTerms {
    /// Coefficient of `t_calc` (the `2W` term).
    pub calc_coeff: u64,
    /// Coefficient of `t_start + t_comm` (the `2M − 2` term; 0 for N=1).
    pub comm_coeff: u64,
}

impl ExecTerms {
    /// Evaluate numerically with concrete machine parameters.
    pub fn evaluate(&self, params: &MachineParams) -> u64 {
        self.calc_coeff * params.t_calc + self.comm_coeff * (params.t_start + params.t_comm)
    }

    /// Render in the paper's Table I notation, e.g.
    /// `786944·t_calc + 2046·(t_comm+t_start)`.
    pub fn render(&self) -> String {
        if self.comm_coeff == 0 {
            format!("{}·t_calc", self.calc_coeff)
        } else {
            format!(
                "{}·t_calc + {}·(t_comm+t_start)",
                self.calc_coeff, self.comm_coeff
            )
        }
    }
}

/// The maximum number of index points `W` assigned to one processor when
/// the `M` matvec blocks are dealt onto `N` processors (§IV): the busiest
/// processor holds the blocks containing the main diagonal,
/// `W = Σ_{i=l}^{M} i` with `l = ⌊(N−2)/N · M⌋ + 1`. For `N = 1` the
/// whole `M²` space is one processor's load.
pub fn matvec_max_points(m: u64, n: u64) -> u64 {
    assert!(n >= 1 && m >= 1);
    if n == 1 {
        return m * m;
    }
    // l = ⌊(N−2)/N · M⌋ + 1, computed exactly in integers.
    let l = (n - 2) * m / n + 1;
    // Σ_{i=l}^{M} i.
    (l + m) * (m - l + 1) / 2
}

/// The symbolic `T_exec(N)` of the paper:
/// `2W·t_calc + (2M−2)·(t_start + t_comm)` for `N > 1`, and `2M²·t_calc`
/// for the sequential machine.
pub fn matvec_exec_terms(m: u64, n: u64) -> ExecTerms {
    let calc_coeff = 2 * matvec_max_points(m, n);
    let comm_coeff = if n == 1 { 0 } else { 2 * m - 2 };
    ExecTerms {
        calc_coeff,
        comm_coeff,
    }
}

/// The rows of the paper's Table I for a given `M`: `(N, terms)` for
/// `N = 1, 4, 16, …, M` (powers of 4, as the paper tabulates).
pub fn table1_rows(m: u64) -> Vec<(u64, ExecTerms)> {
    let mut rows = Vec::new();
    let mut n = 1;
    while n <= m {
        rows.push((n, matvec_exec_terms(m, n)));
        n *= 4;
    }
    rows
}

/// Analytic speedup `T_exec(1) / T_exec(N)` under concrete parameters.
pub fn matvec_speedup(m: u64, n: u64, params: &MachineParams) -> f64 {
    let t1 = matvec_exec_terms(m, 1).evaluate(params) as f64;
    let tn = matvec_exec_terms(m, n).evaluate(params) as f64;
    t1 / tn
}

/// Analytic efficiency `speedup / N`.
pub fn matvec_efficiency(m: u64, n: u64, params: &MachineParams) -> f64 {
    matvec_speedup(m, n, params) / n as f64
}

/// The smallest problem size `M` at which the `N`-processor execution
/// beats the sequential one (`T_exec(N) < T_exec(1)`) — the grain-size
/// crossover the paper's §IV discussion is about ("our method is
/// suitable for medium- to coarse-grain computation"). Returns `None` if
/// no crossover exists below the search cap.
pub fn matvec_crossover_m(n: u64, params: &MachineParams, cap: u64) -> Option<u64> {
    assert!(n >= 2, "crossover needs a parallel machine");
    (n..=cap).find(|&m| {
        matvec_exec_terms(m, n).evaluate(params) < matvec_exec_terms(m, 1).evaluate(params)
    })
}

/// A cheap lower bound on the simulated makespan of `program` under
/// `params` — the gate of exploration's branch-and-bound pruning: a
/// candidate whose bound already exceeds the current k-th best makespan
/// cannot enter the top-k and need not be simulated.
///
/// The bound is the maximum of two relaxations, both provably ≤ the
/// discrete-event makespan on a fault-free machine:
///
/// * **occupancy bound** — compute, sends, and receive processing all
///   occupy a processor's serial timeline, so the makespan is at least
///   the busiest processor's `Σ flops · t_calc` plus one
///   store-and-forward send (`t_start + words·t_comm`) per outgoing
///   message plus `t_recv` per incoming message. With
///   `batch_messages`, arcs from one task to one destination processor
///   share a single message, exactly as the engine merges them;
/// * **critical-path bound** — along every dependence chain, a task
///   finishes no earlier than its slowest predecessor's finish plus the
///   cheapest possible delivery of the arc: free on the same processor,
///   otherwise one hop of store-and-forward occupancy plus the
///   receiver's `t_recv` processing. Batching only grows the message
///   carrying an arc, so the per-arc delay never overshoots.
///
/// Contention and multi-hop routes only add delay on top of either
/// relaxation, and senders can at best emit the instant the producing
/// task retires, so the bound never exceeds the simulated makespan.
///
/// The critical path is evaluated in `(step, id)` order, which is
/// topological because a legal Π advances every dependence by at least
/// one step; if a program violates that (hand-built arcs within a
/// step), the path term is skipped and the occupancy bound alone is
/// returned.
///
/// With `contended: Some(topology)`, a third relaxation tightens the
/// bound:
///
/// * **link-occupancy bound** — under contention every message holds
///   each directed link of its static route for its full
///   store-and-forward occupancy (`t_start + words·t_comm`), one
///   message per link at a time. All of a link's traffic therefore fits
///   inside the makespan, so the makespan is at least the busiest
///   link's `Σ send_occupancy(words)` over the messages routed across
///   it (counted per arc, or per `(source task, destination processor)`
///   message under batching — the same symbolic per-link message counts
///   the cost engine fits closed forms over).
///
/// Pass `Some(topology)` **only** when the simulation models link
/// contention (`link_contention`): without it, links carry any number
/// of messages concurrently and the term is not a lower bound.
///
/// Under fault injection the bound is *not* sound — crash remap can
/// co-locate tasks and beat the fault-free schedule — so exploration
/// disables pruning whenever faults are configured.
pub fn makespan_lower_bound(
    program: &Program,
    params: &MachineParams,
    batch_messages: bool,
    contended: Option<&loom_machine::Topology>,
) -> u64 {
    let n = program.len();
    if n == 0 {
        return 0;
    }
    let np = program.num_procs;
    // Processor occupancy: every task's compute, then one message per
    // remote arc, or per (source task, destination processor) pair
    // under batching, as sender occupancy plus the receiver's `t_recv`.
    // Under contention, each processor pair's send occupancy is also
    // summed for the link term (`pair_occ` is empty otherwise).
    let mut per_proc = vec![0u64; np];
    let mut pair_occ = vec![0u64; if contended.is_some() { np * np } else { 0 }];
    let mut dsts: Vec<u32> = Vec::new();
    for u in 0..n {
        let pu = program.proc_of[u];
        per_proc[pu as usize] += program.flops * params.t_calc;
        dsts.clear();
        dsts.extend(
            program
                .successors(u)
                .map(|v| program.proc_of[v as usize])
                .filter(|&pv| pv != pu),
        );
        if batch_messages {
            dsts.sort_unstable();
        }
        for group in dsts.chunk_by(|a, b| batch_messages && a == b) {
            let (pv, occ) = (group[0] as usize, params.send_occupancy(group.len() as u64));
            per_proc[pu as usize] += occ;
            per_proc[pv] += params.t_recv;
            if let Some(o) = pair_occ.get_mut(pu as usize * np + pv) {
                *o += occ;
            }
        }
    }
    // Link-occupancy term: the busiest directed link's serial traffic,
    // each processor pair's occupancy summed over its static route.
    let link_floor = contended.map_or(0, |topology| {
        let mut per_link = vec![0u64; topology.num_link_ids()];
        for (pair, &occ) in pair_occ.iter().enumerate().filter(|(_, &o)| o > 0) {
            for (a, b) in topology.route_links(pair / np, pair % np) {
                per_link[topology.link_id(a, b)] += occ;
            }
        }
        per_link.into_iter().max().unwrap_or(0)
    });
    let work = per_proc.into_iter().max().unwrap_or(0).max(link_floor);

    // The critical path, walked in the (step, id) order the program's
    // step table shares across every candidate of one Π. Each arc into
    // `t` must come from an earlier step, or the order is not
    // topological and only the occupancy terms stand.
    let steps = program.steps();
    let hop = params.send_occupancy(1) + params.t_recv;
    let mut finish = vec![0u64; n];
    let mut path = 0u64;
    for &t in program.step_order() {
        let t = t as usize;
        let mut ready = 0;
        for u in program.predecessors(t) {
            let u = u as usize;
            if steps[u] >= steps[t] {
                return work;
            }
            let delay = if program.proc_of[u] == program.proc_of[t] {
                0
            } else {
                hop
            };
            ready = ready.max(finish[u] + delay);
        }
        finish[t] = ready + program.flops * params.t_calc;
        path = path.max(finish[t]);
    }
    work.max(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_match_paper() {
        // Table I, M = 1024.
        let expect = [
            (1u64, 2_097_152u64, 0u64),
            (4, 786_944, 2046),
            (16, 245_888, 2046),
            (64, 64_544, 2046),
            (256, 16_328, 2046),
            (1024, 4094, 2046),
        ];
        for &(n, calc, comm) in &expect {
            let t = matvec_exec_terms(1024, n);
            assert_eq!(t.calc_coeff, calc, "calc coefficient for N={n}");
            assert_eq!(t.comm_coeff, comm, "comm coefficient for N={n}");
        }
        let rows = table1_rows(1024);
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[1].1.calc_coeff, 786_944);
    }

    #[test]
    fn evaluation_and_rendering() {
        let t = matvec_exec_terms(1024, 4);
        let p = MachineParams {
            t_calc: 1,
            t_start: 50,
            t_comm: 5,
            t_recv: 0,
        };
        assert_eq!(t.evaluate(&p), 786_944 + 2046 * 55);
        assert_eq!(t.render(), "786944·t_calc + 2046·(t_comm+t_start)");
        assert_eq!(matvec_exec_terms(1024, 1).render(), "2097152·t_calc");
    }

    #[test]
    fn w_is_monotone_in_n() {
        let mut prev = matvec_max_points(1024, 1);
        for n in [4, 16, 64, 256, 1024] {
            let w = matvec_max_points(1024, n);
            assert!(w < prev, "W must shrink as the machine grows");
            prev = w;
        }
    }

    #[test]
    fn n_equals_m_leaves_one_block_pair() {
        // N = M: each processor holds one block; the diagonal processor
        // has the two longest lines: M + (M−1).
        assert_eq!(matvec_max_points(1024, 1024), 2047);
        assert_eq!(matvec_max_points(8, 8), 15);
    }

    #[test]
    fn speedup_and_efficiency_behave() {
        let p = MachineParams::classic_1991();
        // Large grain: near-linear at small N, efficiency decays with N.
        let s4 = matvec_speedup(1024, 4, &p);
        assert!(s4 > 2.0 && s4 < 4.0, "speedup(4) = {s4}");
        assert!(matvec_efficiency(1024, 4, &p) > matvec_efficiency(1024, 64, &p));
        // Fine grain: parallel loses (speedup < 1).
        assert!(matvec_speedup(16, 4, &p) < 1.0);
    }

    #[test]
    fn crossover_exists_and_moves_with_latency() {
        let classic = MachineParams::classic_1991();
        let cheap = MachineParams::low_latency();
        let m_classic = matvec_crossover_m(4, &classic, 1 << 20).unwrap();
        let m_cheap = matvec_crossover_m(4, &cheap, 1 << 20).unwrap();
        assert!(
            m_cheap <= m_classic,
            "cheaper communication must cross over no later: {m_cheap} vs {m_classic}"
        );
        // Beyond the crossover, parallel keeps winning.
        assert!(matvec_speedup(m_classic * 4, 4, &classic) > 1.0);
        // Below it, it loses.
        if m_classic > 4 {
            assert!(matvec_speedup(m_classic - 1, 4, &classic) <= 1.0);
        }
    }

    #[test]
    fn small_machine_edge_cases() {
        assert_eq!(matvec_max_points(8, 1), 64);
        // N = 2: l = 1 → W = Σ_{1}^{8} = 36 — more than half of 64
        // because the diagonal blocks are the heavy ones.
        assert_eq!(matvec_max_points(8, 2), 36);
    }

    #[test]
    fn lower_bound_exact_on_two_task_chain() {
        // task0 (proc0) → task1 (proc1): compute 1, one hop of
        // t_start + t_comm = 55, compute 1 — the bound is tight here.
        let prog = Program::from_parts(vec![0, 1], vec![(0, 1)], vec![0, 1], 1, 2);
        let p = MachineParams::classic_1991();
        assert_eq!(makespan_lower_bound(&prog, &p, false, None), 57);
        // Same processor: the message is free, only serial compute remains.
        let local = Program::from_parts(vec![0, 1], vec![(0, 1)], vec![0, 0], 1, 1);
        assert_eq!(makespan_lower_bound(&local, &p, false, None), 2);
        // An arc within one step leaves no topological (step, id) order:
        // only the sender's occupancy, 1 + 55, stands.
        let flat = Program::from_parts(vec![0, 0], vec![(0, 1)], vec![0, 1], 1, 2);
        assert_eq!(makespan_lower_bound(&flat, &p, false, None), 56);
    }

    #[test]
    fn work_bound_covers_independent_tasks() {
        // Two independent tasks on one processor: the critical path is a
        // single task, but the work bound sees the serial execution.
        let prog = Program::from_parts(vec![0, 0], vec![], vec![0, 0], 3, 1);
        let p = MachineParams::classic_1991();
        assert_eq!(makespan_lower_bound(&prog, &p, false, None), 6);
        let empty = Program::from_parts(vec![], vec![], vec![], 1, 1);
        assert_eq!(makespan_lower_bound(&empty, &p, false, None), 0);
    }

    #[test]
    fn batching_shrinks_the_send_occupancy_term() {
        // task0 fans out to two tasks on proc1: unbatched it pays
        // t_start twice, batched the arcs share one message.
        let prog = Program::from_parts(vec![0, 1, 1], vec![(0, 1), (0, 2)], vec![0, 1, 1], 1, 2);
        let p = MachineParams::classic_1991();
        let unbatched = makespan_lower_bound(&prog, &p, false, None);
        let batched = makespan_lower_bound(&prog, &p, true, None);
        // Sender occupancy: 1 + 2·(50+5) = 111 vs 1 + 50+2·5 = 61.
        assert_eq!(unbatched, 111);
        assert_eq!(batched, 61);
    }

    #[test]
    fn lower_bound_never_exceeds_simulated_makespan() {
        use crate::pipeline::{Pipeline, PipelineConfig};
        use loom_machine::{simulate, SimConfig};
        let w = loom_workloads::matvec::workload(12);
        let rec = loom_obs::Recorder::disabled();
        for cube_dim in [0usize, 1, 2] {
            let cfg = PipelineConfig {
                time_fn: Some(w.pi.clone()),
                cube_dim,
                machine: None,
                ..Default::default()
            };
            let pipeline = Pipeline::new(w.nest.clone());
            let stage = pipeline.stage_partition(&cfg, &rec).unwrap();
            let (_mapping, placement, target) = stage.map_with(&cfg, &rec).unwrap();
            let program = stage.program(&placement);
            for params in [MachineParams::classic_1991(), MachineParams::low_latency()] {
                for batch in [false, true] {
                    for contention in [false, true] {
                        let mut sim_cfg = SimConfig::paper_hypercube(cube_dim, params);
                        sim_cfg.topology = target;
                        sim_cfg.batch_messages = batch;
                        sim_cfg.link_contention = contention;
                        let report = simulate(&program, &sim_cfg).unwrap();
                        let topology = contention.then_some(target);
                        let bound =
                            makespan_lower_bound(&program, &params, batch, topology.as_ref());
                        assert!(
                            bound <= report.makespan,
                            "unsound bound {bound} > makespan {} at cube_dim={cube_dim} \
                             batch={batch} contention={contention}",
                            report.makespan
                        );
                        assert!(bound > 0);
                    }
                }
            }
        }
    }

    #[test]
    fn unbatched_bound_matches_a_relaxation_oracle() {
        // The bound walks the critical path once, in (step, id) order
        // over the program's predecessor rows. On every builtin it must equal
        // the larger of the busiest processor's occupancy and the
        // longest path found by relaxing every arc until nothing moves.
        use crate::pipeline::{Pipeline, PipelineConfig};
        let rec = loom_obs::Recorder::disabled();
        let params = MachineParams::classic_1991();
        let hop = params.send_occupancy(1) + params.t_recv;
        let mut checked = 0;
        for w in loom_workloads::all_default() {
            let pipeline = Pipeline::new(w.nest.clone());
            let cfg = PipelineConfig {
                time_fn: Some(w.pi.clone()),
                machine: None,
                ..Default::default()
            };
            let stage = pipeline.stage_partition(&cfg, &rec).unwrap();
            for cube_dim in 0..=2 {
                let cfg = PipelineConfig {
                    cube_dim,
                    ..cfg.clone()
                };
                let Ok((_, placement, _)) = stage.map_with(&cfg, &rec) else {
                    continue;
                };
                let program = stage.program(&placement);
                let task = program.flops * params.t_calc;
                let mut busy = vec![0u64; program.num_procs];
                for &q in &program.proc_of {
                    busy[q as usize] += task;
                }
                let mut finish = vec![task; program.len()];
                for (u, v) in program.arcs() {
                    let (pu, pv) = (program.proc_of[u as usize], program.proc_of[v as usize]);
                    if pu != pv {
                        busy[pu as usize] += params.send_occupancy(1);
                        busy[pv as usize] += params.t_recv;
                    }
                }
                let mut moved = true;
                while moved {
                    moved = false;
                    for (u, v) in program.arcs() {
                        let (u, v) = (u as usize, v as usize);
                        let delay = if program.proc_of[u] == program.proc_of[v] {
                            0
                        } else {
                            hop
                        };
                        if finish[u] + delay + task > finish[v] {
                            finish[v] = finish[u] + delay + task;
                            moved = true;
                        }
                    }
                }
                let want = busy.into_iter().chain(finish).max().unwrap_or(0);
                assert_eq!(
                    makespan_lower_bound(&program, &params, false, None),
                    want,
                    "{} on {cube_dim}-cube",
                    w.nest.name()
                );
                checked += 1;
            }
        }
        assert!(checked >= 20, "only {checked} programs");
    }

    #[test]
    fn contended_link_floor_tightens_the_bound() {
        use loom_machine::{simulate, SimConfig, Topology};
        // Senders on procs 3 and 2 both deliver to proc 0: e-cube
        // routes 3→2→0 and 2→0 serialize on the directed link (2, 0).
        let prog = Program::from_parts(
            vec![0, 0, 1, 1],
            vec![(0, 2), (1, 3)],
            vec![3, 2, 0, 0],
            1,
            4,
        );
        let p = MachineParams::classic_1991();
        let topo = Topology::Hypercube(2);
        let plain = makespan_lower_bound(&prog, &p, false, None);
        let tight = makespan_lower_bound(&prog, &p, false, Some(&topo));
        // Critical path: 1 + (50+5) + 1.
        assert_eq!(plain, 57);
        // Two 55-tick occupancies queue on (2, 0).
        assert_eq!(tight, 110);
        // …and the contended simulation really is at least that slow.
        let mut cfg = SimConfig::paper_hypercube(2, p);
        cfg.link_contention = true;
        let r = simulate(&prog, &cfg).unwrap();
        assert!(tight <= r.makespan, "{tight} > {}", r.makespan);
    }
}
