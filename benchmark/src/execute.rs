//! `execute`: the run time of the generated code. One request runs a
//! program compiled during set-up on OS threads, one per processor of a
//! 1-cube (two workers), and gathers the result.

use crate::compile::{config, spmd_matches_sequential, Source, SAMPLES};
use crate::runner::{same, Oracle, Workload};
use crate::trace::Tracer;
use loom_codegen::gen::Codegen;
use loom_core::Pipeline;
use loom_exec::memory::address_hash_init;
use loom_exec::Memory;
use loom_loopir::LoopNest;

/// Two processors: two worker threads, the benchmark machine's cores.
const CUBE: usize = 1;

pub struct Compiled {
    nest: LoopNest,
    codegen: Codegen,
    makespan: u64,
}

pub struct Execute {
    programs: Vec<Compiled>,
}

impl Execute {
    fn run(&self, i: usize) -> Result<Memory, String> {
        let p = &self.programs[i];
        loom_codegen::run_threaded_gathered(&p.nest, &p.codegen, &address_hash_init)
            .map_err(|e| e.to_string())
    }
}

impl Workload for Execute {
    type Output = Memory;
    /// The gathered memory's digest.
    type Answer = u64;
    const THREADS: usize = 1 << CUBE;

    /// Compute-heavy (matvec) to message-heavy (matmul) programs.
    fn setup(smoke: bool) -> Result<Execute, String> {
        use loom_workloads::*;
        let mut sources: Vec<Source> = [
            matvec::workload(128),
            sor::workload(64, 64),
            heat2d::workload(16, 16),
            matmul::workload(16),
            transitive::workload(12),
            dft::workload(64),
            l1::workload(64),
            triangular::workload(64),
            conv::workload(256, 8),
        ]
        .into_iter()
        .map(|w| Source::Builtin(w.nest))
        .collect();
        sources.extend(
            SAMPLES
                .iter()
                .filter(|(name, _)| ["heat1d.loom", "wavefront_dp.loom"].contains(name))
                .map(|&(name, text)| Source::Sample(name, text)),
        );
        if smoke {
            sources.truncate(2);
        }
        let programs = sources
            .iter()
            .map(|s| {
                let pipeline = Pipeline::new(s.nest(&mut Tracer::disabled())?);
                let out = pipeline.run(&config(CUBE)).map_err(|e| e.to_string())?;
                let codegen = loom_codegen::generate(
                    pipeline.nest(),
                    &out.partitioning,
                    out.mapping.assignment(),
                    out.placement.num_procs(),
                )
                .map_err(|e| e.to_string())?;
                Ok(Compiled {
                    makespan: out.sim_report().map_err(|e| e.to_string())?.makespan,
                    nest: pipeline.nest().clone(),
                    codegen,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Execute { programs })
    }

    fn len(&self) -> usize {
        self.programs.len()
    }

    fn label(&self, i: usize) -> String {
        format!("execute {}", self.programs[i].nest.name())
    }

    fn request(&self, i: usize, t: &mut Tracer) -> Result<Memory, String> {
        t.span("codegen.run_threaded", |_| self.run(i))
    }

    fn answer(&self, _i: usize, memory: Memory) -> u64 {
        memory.digest()
    }

    /// The reference executions of the same program: the round-robin
    /// interpreter and the sequential source loop.
    fn replica(&self, i: usize, answer: &u64, t: &mut Tracer) -> Result<(), String> {
        let p = &self.programs[i];
        t.count("codegen.computes", p.codegen.program.num_computes() as u64);
        t.count("codegen.messages", p.codegen.program.num_messages() as u64);
        let interp = t.span("codegen.interp", |_| {
            loom_codegen::run(&p.nest, &p.codegen, &address_hash_init)
        });
        let serial = t.span("exec.sequential", |_| {
            loom_exec::sequential(&p.nest, &address_hash_init)
        });
        let interp = interp.map_err(|e| e.to_string())?;
        same("interpreter digest", &interp.gathered.digest(), answer)?;
        same("sequential digest", &serial.digest(), answer)
    }

    /// The threaded result must equal the sequential execution.
    fn verify(&self, i: usize, answer: &u64, _: &[bool]) -> Result<Oracle, String> {
        let p = &self.programs[i];
        let serial = loom_exec::sequential(&p.nest, &address_hash_init);
        loom_exec::equivalent(&self.run(i)?, &serial)
            .map_err(|d| format!("threaded run diverges: {d:?}"))?;
        same("digest", &serial.digest(), answer)?;
        spmd_matches_sequential(&p.nest, &p.codegen).map(|()| Oracle::Agrees)
    }

    fn makespan(&self, i: usize, _answer: &u64) -> u64 {
        self.programs[i].makespan
    }
}
