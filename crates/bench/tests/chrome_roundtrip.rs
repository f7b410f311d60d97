//! The Chrome trace-event JSON the telemetry exporter writes must round-trip
//! through this crate's own JSON parser — the same parser the verify gate
//! uses on the `--trace-out` artifact — and the span hierarchy encoded in
//! the `args` objects must reconstruct to the full four-level
//! step → superstep → rank-phase → kernel chain on the GPU executor.

use simcov_core::grid::GridDims;
use simcov_core::json::Json;
use simcov_core::params::SimParams;
use simcov_driver::Simulation;
use simcov_gpu::{GpuSim, GpuSimConfig};
use simcov_telemetry::{chrome, HealthConfig, Telemetry};
use std::collections::HashMap;

/// Drive a small instrumented GPU-executor run and export its trace.
fn rendered_trace() -> String {
    let p = SimParams::test_config(GridDims::new2d(32, 32), 8, 4, 11);
    let mut sim = GpuSim::new(GpuSimConfig::new(p, 4)).expect("valid config");
    sim.enable_telemetry(Telemetry::enabled(5, 1 << 14));
    sim.enable_health(HealthConfig::default());
    sim.run().expect("healthy run");
    let tel = sim.telemetry_handle();
    assert_eq!(tel.dropped(), 0, "ring sized for the whole run");
    chrome::render(&tel, sim.health_records())
}

#[test]
fn chrome_trace_roundtrips_through_bench_json_parser() {
    let text = rendered_trace();
    let doc = Json::parse(&text).expect("exporter output must be valid JSON");

    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace has events");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let other = doc.get("otherData").expect("otherData");
    assert_eq!(
        other.get("dropped_events").and_then(Json::as_f64),
        Some(0.0)
    );
    assert!(other.get("recorded_events").and_then(Json::as_f64).unwrap() > 0.0);

    // Every event is well-formed: named, phased, and placed on a track.
    for e in events {
        assert!(e.get("name").and_then(Json::as_str).is_some());
        let ph = e.get("ph").and_then(Json::as_str).expect("phase");
        assert!(matches!(ph, "X" | "M" | "i"), "unexpected phase {ph}");
        assert!(e.get("tid").and_then(Json::as_f64).is_some());
    }

    // Thread-name metadata covers driver, ranks, and the merged GPU track.
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .collect();
    assert!(names.contains(&"driver"));
    assert!(names.contains(&"rank 0"));
    assert!(names.contains(&"gpu phases"));

    // Rebuild the span hierarchy from args.{id,parent,level} and check the
    // deepest chain reaches kernel → rank-phase → superstep → step.
    let mut level_of: HashMap<u64, (&str, u64)> = HashMap::new();
    for e in events {
        if e.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let args = e.get("args").expect("span args");
        let id = args.get("id").and_then(Json::as_f64).expect("id") as u64;
        let parent = args.get("parent").and_then(Json::as_f64).expect("parent") as u64;
        let level = args.get("level").and_then(Json::as_str).expect("level");
        level_of.insert(id, (level, parent));
    }
    let mut best_chain = 0usize;
    let mut kernel_chain_seen = false;
    for (&id, &(level, _)) in &level_of {
        let mut depth = 1usize;
        let mut levels = vec![level];
        let mut cur = id;
        while let Some(&(_, parent)) = level_of.get(&cur) {
            if parent == 0 || !level_of.contains_key(&parent) {
                break;
            }
            levels.push(level_of[&parent].0);
            cur = parent;
            depth += 1;
        }
        best_chain = best_chain.max(depth);
        if levels == ["kernel", "rank-phase", "superstep", "step"] {
            kernel_chain_seen = true;
        }
    }
    assert!(best_chain >= 4, "deepest chain only {best_chain} levels");
    assert!(
        kernel_chain_seen,
        "no kernel span chains up through rank-phase/superstep/step"
    );
}
