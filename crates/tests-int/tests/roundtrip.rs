//! Source round-trip: every workload rendered to `.loom` text and
//! re-parsed must have the same space, dependences, and — run through
//! the sequential oracle — identical numerical results.

use loom_exec::memory::address_hash_init;
use loom_exec::{equivalent, sequential};
use loom_loopir::deps::{dependence_vectors, DepOptions};
use loom_loopir::parse::{parse_nest, to_source};

#[test]
fn workloads_round_trip_through_source() {
    for w in loom_workloads::all_default() {
        let Some(src) = to_source(&w.nest) else {
            // SOR (1/3) and heat2d (0.2) use fractional constants, which
            // the integer-literal grammar cannot express; refusing to
            // render them is correct.
            assert!(
                matches!(w.nest.name(), "sor" | "heat2d"),
                "{} unexpectedly not renderable",
                w.nest.name()
            );
            continue;
        };
        let reparsed = parse_nest(w.nest.name(), &src)
            .unwrap_or_else(|e| panic!("{}: {e}\nsource:\n{src}", w.nest.name()));
        assert_eq!(
            reparsed.space().count(),
            w.nest.space().count(),
            "{}",
            w.nest.name()
        );
        assert_eq!(
            dependence_vectors(&reparsed, DepOptions::default()).unwrap(),
            dependence_vectors(&w.nest, DepOptions::default()).unwrap(),
            "{}",
            w.nest.name()
        );
        // The strongest check: identical numerical results.
        let a = sequential(&w.nest, &address_hash_init);
        let b = sequential(&reparsed, &address_hash_init);
        assert_eq!(equivalent(&a, &b), Ok(()), "{} diverged", w.nest.name());
    }
}

#[test]
fn sample_files_parse_and_pipeline() {
    for sample in [
        "l1.loom",
        "heat1d.loom",
        "strided.loom",
        "matmul.loom",
        "wavefront_dp.loom",
    ] {
        let path = format!("{}/../../samples/{sample}", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let nest = parse_nest(sample, &src).unwrap_or_else(|e| panic!("{sample}: {e}"));
        let deps = dependence_vectors(&nest, DepOptions::default()).unwrap();
        assert!(!deps.is_empty(), "{sample} has no dependences?");
        let pi = loom_hyperplane::find_optimal(
            &deps,
            nest.space(),
            loom_hyperplane::SearchConfig::default(),
        )
        .unwrap();
        let p = loom_partition::partition(
            nest.space().clone(),
            deps,
            pi,
            &loom_partition::PartitionConfig::default(),
        )
        .unwrap();
        let violations = loom_check::check_laws(&p);
        assert!(violations.is_empty(), "{sample}: {violations:?}");
    }
}
