//! Bench: the numerical executors — sequential oracle throughput,
//! trace-order replay, the SPMD interpreter, the threaded runner, and
//! codegen.

use loom_codegen::generate;
use loom_exec::memory::address_hash_init;
use loom_exec::{execute_in_order, schedule_order, sequential};
use loom_hyperplane::{Schedule, TimeFn};
use loom_loopir::Point;
use loom_obs::bench::Bench;
use loom_partition::{partition, PartitionConfig};

fn main() {
    let mut bench = Bench::from_env();
    for m in [16i64, 32, 64] {
        let w = loom_workloads::matvec::workload(m);
        bench.run(&format!("oracle_interpreter/matvec/{m}"), || {
            sequential(&w.nest, &address_hash_init).len()
        });
    }

    let w = loom_workloads::sor::workload(24, 24);
    let deps = w.verified_deps();
    let points: Vec<Point> = w.nest.space().points().collect();
    let sched = Schedule::build(TimeFn::new(w.pi.clone()), w.nest.space());
    let order = schedule_order(&points, &sched);
    bench.run("ordered_execution/sor24_front_order", || {
        execute_in_order(&w.nest, &points, &order, &deps, &address_hash_init)
            .unwrap()
            .len()
    });

    for m in [16i64, 32] {
        let w = loom_workloads::matvec::workload(m);
        let p = partition(
            w.nest.space().clone(),
            w.verified_deps(),
            TimeFn::new(w.pi.clone()),
            &PartitionConfig::default(),
        )
        .unwrap();
        let assignment: Vec<usize> = (0..p.num_blocks()).map(|b| b % 4).collect();
        let cg = generate(&w.nest, &p, &assignment, 4).unwrap();
        bench.run(&format!("spmd_interpreter/matvec_4proc/{m}"), || {
            loom_codegen::run(&w.nest, &cg, &address_hash_init)
                .unwrap()
                .messages
        });
        threaded_2proc(&mut bench, &format!("matvec_2proc/{m}"), &w, |b, _| b % 2);
    }
    // Each half of the blocks on one processor: the `execute` workload's
    // programs for these nests, 126 messages each. dft is receive-heavy
    // (64 gathered elements), sor gather-heavy (4,096).
    let halves = |b, n| 2 * b / n;
    let dft = loom_workloads::dft::workload(64);
    threaded_2proc(&mut bench, "dft_2proc/64", &dft, halves);
    let sor = loom_workloads::sor::workload(64, 64);
    threaded_2proc(&mut bench, "sor_2proc/64", &sor, halves);

    let w = loom_workloads::sor::workload(24, 24);
    let p = partition(
        w.nest.space().clone(),
        w.verified_deps(),
        TimeFn::new(w.pi.clone()),
        &PartitionConfig::default(),
    )
    .unwrap();
    let assignment: Vec<usize> = (0..p.num_blocks()).map(|b| b % 8).collect();
    bench.run("spmd_codegen/sor24_8proc", || {
        generate(&w.nest, &p, &assignment, 8)
            .unwrap()
            .program
            .num_messages()
    });
    print!("{}", bench.report());
}

/// What the benchmark's `execute` workload times: the threaded runner
/// on two processors, block `b` of `n` on processor `deal(b, n)`.
fn threaded_2proc(
    bench: &mut Bench,
    name: &str,
    w: &loom_workloads::Workload,
    deal: impl Fn(usize, usize) -> usize,
) {
    let p = partition(
        w.nest.space().clone(),
        w.verified_deps(),
        TimeFn::new(w.pi.clone()),
        &PartitionConfig::default(),
    )
    .unwrap();
    let n = p.num_blocks();
    let assignment: Vec<usize> = (0..n).map(|b| deal(b, n)).collect();
    let cg = generate(&w.nest, &p, &assignment, 2).unwrap();
    bench.run(&format!("spmd_threaded/{name}"), || {
        loom_codegen::run_threaded_gathered(&w.nest, &cg, &address_hash_init)
            .unwrap()
            .len()
    });
}
