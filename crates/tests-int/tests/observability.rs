//! Integration tests for the observability layer: the Chrome trace
//! exporter's golden output, trace validation wired through the
//! pipeline, and the metrics JSON document's schema.

use loom_core::obs_export::metrics_json;
use loom_core::pipeline::MachineOptions;
use loom_core::{Pipeline, PipelineConfig};
use loom_machine::trace::chrome_trace;
use loom_machine::{simulate, MachineParams, Program, SimConfig, Topology};
use loom_obs::{Json, Recorder};

/// Two tasks on two hypercube processors with one message between them,
/// simulated with fixed params — the smallest program that exercises
/// every Chrome event kind (metadata, B/E, X, flow s/f).
fn two_proc_report() -> (Program, loom_machine::SimReport) {
    let prog = Program::from_parts(vec![0, 1], vec![(0, 1)], vec![0, 1], 3, 2);
    let config = SimConfig {
        params: MachineParams {
            t_calc: 1,
            t_start: 10,
            t_comm: 2,
            t_recv: 0,
        },
        topology: Topology::Hypercube(1),
        batch_messages: false,
        link_contention: false,
        record_trace: true,
        collect_metrics: true,
    };
    let report = simulate(&prog, &config).unwrap();
    (prog, report)
}

/// The exact trace the two-processor toy program exports. The simulator
/// is deterministic, so this file is a golden: any timing or format
/// change shows up as a diff here.
const GOLDEN: &str = r#"[
  {
    "name": "process_name",
    "ph": "M",
    "pid": 0,
    "tid": 0,
    "args": {
      "name": "loom simulator"
    }
  },
  {
    "name": "thread_name",
    "ph": "M",
    "pid": 0,
    "tid": 0,
    "args": {
      "name": "P0"
    }
  },
  {
    "name": "thread_name",
    "ph": "M",
    "pid": 0,
    "tid": 1,
    "args": {
      "name": "P1"
    }
  },
  {
    "name": "task 0",
    "ph": "B",
    "pid": 0,
    "tid": 0,
    "ts": 0
  },
  {
    "ph": "E",
    "pid": 0,
    "tid": 0,
    "ts": 3
  },
  {
    "name": "task 1",
    "ph": "B",
    "pid": 0,
    "tid": 1,
    "ts": 15
  },
  {
    "ph": "E",
    "pid": 0,
    "tid": 1,
    "ts": 18
  },
  {
    "name": "send to P1",
    "ph": "X",
    "pid": 0,
    "tid": 0,
    "ts": 3,
    "dur": 12
  },
  {
    "name": "msg",
    "cat": "msg",
    "ph": "s",
    "pid": 0,
    "tid": 0,
    "id": 0,
    "ts": 3
  },
  {
    "name": "msg",
    "cat": "msg",
    "ph": "f",
    "pid": 0,
    "tid": 1,
    "id": 0,
    "ts": 15,
    "bp": "e"
  }
]
"#;

#[test]
fn chrome_trace_golden_two_proc() {
    let (_, report) = two_proc_report();
    let json = chrome_trace(&report, 2, None).unwrap();
    assert_eq!(json.render_pretty(), GOLDEN);
}

#[test]
fn chrome_trace_is_valid_and_nested() {
    let (_, report) = two_proc_report();
    let json = chrome_trace(&report, 2, None).unwrap();
    // Valid JSON: the exporter's own parser round-trips it.
    let reparsed = Json::parse(&json.render_pretty()).unwrap();
    assert_eq!(reparsed, json);
    // B/E events nest correctly per thread: every E closes an open B,
    // their timestamps never run backwards, nothing is left open.
    // (Only B/E carry nesting; X and flow events are standalone.)
    let mut open: std::collections::BTreeMap<i64, Vec<i64>> = Default::default();
    let mut last_ts: std::collections::BTreeMap<i64, i64> = Default::default();
    for e in json.as_arr().unwrap() {
        let ph = e.get("ph").and_then(Json::as_str).unwrap();
        if ph != "B" && ph != "E" {
            continue;
        }
        let tid = e.get("tid").and_then(Json::as_i64).unwrap();
        let ts = e.get("ts").and_then(Json::as_i64).unwrap();
        let last = last_ts.entry(tid).or_insert(i64::MIN);
        assert!(ts >= *last, "task timestamps regress on tid {tid}");
        *last = ts;
        match ph {
            "B" => open.entry(tid).or_default().push(ts),
            _ => {
                let begin = open
                    .get_mut(&tid)
                    .and_then(Vec::pop)
                    .expect("E without a matching B");
                assert!(ts >= begin, "task ends before it begins");
            }
        }
    }
    assert!(open.values().all(Vec::is_empty), "unclosed B event");
}

#[test]
fn validate_trace_passes_on_clean_pipeline_run() {
    let w = loom_workloads::sor::workload(8, 8);
    let out = Pipeline::new(w.nest.clone())
        .run(&PipelineConfig {
            time_fn: Some(w.pi.clone()),
            cube_dim: 2,
            machine: Some(MachineOptions {
                validate_trace: true,
                ..Default::default()
            }),
            ..Default::default()
        })
        .expect("a clean simulation validates with zero violations");
    // validate_trace implies record_trace, so the trace is available.
    assert!(out.sim.unwrap().trace.is_some());
}

#[test]
fn metrics_document_schema_on_matmul() {
    let w = loom_workloads::matmul::workload(4);
    let rec = Recorder::enabled();
    let out = Pipeline::new(w.nest.clone())
        .run_with(
            &PipelineConfig {
                time_fn: Some(w.pi.clone()),
                cube_dim: 2,
                machine: Some(MachineOptions {
                    collect_metrics: true,
                    ..Default::default()
                }),
                ..Default::default()
            },
            &rec,
        )
        .unwrap();
    let sim = out.sim.as_ref().unwrap();
    let doc = metrics_json(&rec, Some(sim));

    // Recorder section: every pipeline phase span is present.
    let spans = doc.get("recorder").unwrap().get("spans").unwrap();
    let names: Vec<&str> = spans
        .as_arr()
        .unwrap()
        .iter()
        .map(|s| s.get("name").and_then(Json::as_str).unwrap())
        .collect();
    for phase in [
        "pipeline.deps",
        "pipeline.partition",
        "pipeline.mapping",
        "pipeline.simulate",
        "pipeline.total",
    ] {
        assert!(names.contains(&phase), "missing span {phase}");
    }
    let counters = doc.get("recorder").unwrap().get("counters").unwrap();
    assert!(counters.get("pipeline.blocks").is_some());

    // Sim section: occupancy vectors sized to the machine, plus the
    // rich telemetry block with per-proc and per-link detail.
    let simj = doc.get("sim").unwrap();
    assert_eq!(simj.get("compute").unwrap().as_arr().unwrap().len(), 4);
    assert_eq!(simj.get("utilization").unwrap().as_arr().unwrap().len(), 4);
    let telemetry = simj.get("telemetry").unwrap();
    assert_eq!(telemetry.get("procs").unwrap().as_arr().unwrap().len(), 4);
    assert!(telemetry.get("links").is_some());
    assert!(telemetry.get("hop_histogram").is_some());
    assert_eq!(
        telemetry
            .get("messages_logged")
            .and_then(Json::as_i64)
            .unwrap() as u64,
        sim.messages
    );

    // The whole document is machine-readable.
    assert_eq!(Json::parse(&doc.render_pretty()).unwrap(), doc);
}
