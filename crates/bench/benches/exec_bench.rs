//! Bench: the numerical executors — sequential oracle throughput,
//! trace-order replay, the SPMD interpreter, the threaded runner, and
//! codegen — and the store they write into.

use loom_codegen::generate;
use loom_exec::memory::address_hash_init;
use loom_exec::{execute_in_order, schedule_order, sequential, Memory};
use loom_hyperplane::{Schedule, TimeFn};
use loom_loopir::sem::Expr;
use loom_loopir::{Access, IterSpace, LoopNest, Point, Stmt};
use loom_obs::bench::Bench;
use loom_partition::{partition, PartitionConfig};
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let mut bench = Bench::from_env();
    for m in [16i64, 32, 64] {
        let w = loom_workloads::matvec::workload(m);
        bench.run(&format!("oracle_interpreter/matvec/{m}"), || {
            sequential(&w.nest, &address_hash_init).len()
        });
    }

    // `B[j, i] = A[i, j]`: every new element of `B` sorts before the one
    // written before it. A store whose insert moved elements would be
    // quadratic here; per element, 256² must cost at most twice 64². CI
    // takes a single sample, so the check times its own batches, each
    // writing 256² elements (sixteen 64² runs or one 256² run), and keeps
    // the fastest of five.
    const ELEMENTS: i64 = 256 * 256;
    let per_element: Vec<f64> = [64i64, 256]
        .iter()
        .map(|&n| {
            let nest = transpose(n);
            let run = || sequential(&nest, &address_hash_init).len();
            bench.run(&format!("oracle_interpreter/transpose/{n}x{n}"), run);
            let fastest = (0..5)
                .map(|_| {
                    let t = Instant::now();
                    for _ in 0..ELEMENTS / (n * n) {
                        black_box(run());
                    }
                    t.elapsed().as_nanos()
                })
                .min()
                .expect("five batches");
            fastest as f64 / ELEMENTS as f64
        })
        .collect();
    assert!(
        per_element[1] <= 2.0 * per_element[0],
        "a transposed write costs {:.1} ns per element at 256², {:.1} at 64²",
        per_element[1],
        per_element[0]
    );

    // What the gather hands `Memory`: sor 64 × 64's 4,096 written
    // elements as flat columns in slot order, taken over with their
    // index built.
    let sor = sequential(
        &loom_workloads::sor::workload(64, 64).nest,
        &address_hash_init,
    );
    let subscripts: Vec<i64> = sor.iter().flat_map(|(_, e, _)| e.to_vec()).collect();
    let values: Vec<f64> = sor.iter().map(|(_, _, v)| v).collect();
    bench.run("gather/sor_64x64", || {
        let mut mem = Memory::new();
        mem.write_flat("A", 2, subscripts.clone(), values.clone());
        mem.len()
    });

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

/// `B[j, i] = A[i, j]` over `n × n`.
fn transpose(n: i64) -> LoopNest {
    LoopNest::new(
        "transpose",
        IterSpace::rect(&[n, n]).unwrap(),
        vec![Stmt::assign(
            Access::simple("B", 2, &[(1, 0), (0, 0)]),
            vec![Access::simple("A", 2, &[(0, 0), (1, 0)])],
        )
        .with_expr(Expr::Read(0))],
    )
    .unwrap()
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
