//! Integration tests for the unified telemetry subsystem: the span hierarchy
//! must nest across all layers, the online health monitor must flag a slow
//! rank promptly (judged on synthetic walls) and must receive a real run's
//! stall, and instrumentation must be pure observation — a telemetry-on
//! run's trajectory must be bitwise identical to telemetry-off on both
//! executors.

use simcov_repro::pgas::{FaultEvent, FaultKind, FaultPlan};
use simcov_repro::simcov_core::grid::GridDims;
use simcov_repro::simcov_core::params::SimParams;
use simcov_repro::simcov_cpu::{CpuSim, CpuSimConfig};
use simcov_repro::simcov_driver::Simulation;
use simcov_repro::simcov_gpu::{GpuSim, GpuSimConfig};
use simcov_repro::simcov_telemetry::{
    HealthConfig, HealthKind, HealthMonitor, SpanKind, Telemetry,
};
use std::collections::HashMap;

fn params(steps: u64, seed: u64) -> SimParams {
    SimParams::test_config(GridDims::new2d(32, 32), steps, 6, seed)
}

/// A slow rank must surface as a straggler health record within three
/// supersteps, attributed to the right rank and no other. The walls are
/// synthetic, so the claim holds whatever the host's load: four ranks whose
/// supersteps take 20–80 µs of seeded jitter, and rank 1 stalled 50 ms at
/// superstep 3, the stall `FaultKind::SlowRank` injects in the run below.
#[test]
fn seeded_slow_rank_is_flagged_within_three_supersteps() {
    let (inject_at, stall_ns) = (3u64, 50_000_000u64);
    let mut mon = HealthMonitor::with_config(HealthConfig::default());
    let mut state = 0x5EED_u64;
    for superstep in 0..24u64 {
        let walls: Vec<u64> = (0..4u64)
            .map(|rank| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let wall = 20_000 + (state >> 33) % 60_000;
                wall + if rank == 1 && superstep == inject_at {
                    stall_ns
                } else {
                    0
                }
            })
            .collect();
        mon.observe_superstep(superstep / 3, superstep, superstep * 1_000, &walls);
    }
    let stragglers: Vec<_> = mon
        .records()
        .iter()
        .filter_map(|r| match &r.kind {
            HealthKind::Straggler { rank, z, .. } => Some((r.superstep, *rank, *z)),
            _ => None,
        })
        .collect();
    assert!(
        stragglers
            .iter()
            .any(|&(ss, _, _)| (inject_at..=inject_at + 3).contains(&ss)),
        "stall not flagged within three supersteps of {inject_at}: {stragglers:?}"
    );
    for &(ss, rank, z) in &stragglers {
        assert_eq!(rank, 1, "wrong rank blamed at superstep {ss}");
        assert!(z >= 4.0, "z = {z} at superstep {ss}");
    }
}

/// Wiring: a `SlowRank` fault in a real run reaches the health monitor as a
/// straggler record. The run reads wall clocks, so it makes no timing claim;
/// the detection bound is the test above.
#[test]
fn slow_rank_run_records_a_straggler() {
    let mut cfg = CpuSimConfig::new(params(20, 5), 4);
    cfg.fault_plan = FaultPlan::from_events(vec![FaultEvent {
        superstep: 3,
        rank: 1,
        kind: FaultKind::SlowRank {
            stall_ns: 50_000_000, // 50 ms against ~µs-scale peers
        },
    }]);
    let mut sim = CpuSim::new(cfg).expect("valid config");
    sim.enable_telemetry(Telemetry::enabled(5, 1 << 14));
    sim.enable_health(HealthConfig::default());
    sim.run().expect("a stall is not a failure");
    assert!(
        sim.health_records()
            .iter()
            .any(|r| matches!(r.kind, HealthKind::Straggler { .. })),
        "no straggler record: {:?}",
        sim.health_records()
    );
}

/// Telemetry and health monitoring are pure observation: the instrumented
/// trajectory is identical to the uninstrumented one, on both executors.
#[test]
fn telemetry_on_trajectory_is_identical_to_off() {
    let p = params(15, 42);

    let mut cpu_off = CpuSim::new(CpuSimConfig::new(p.clone(), 4)).expect("valid config");
    cpu_off.run().expect("healthy run");
    let mut cpu_on = CpuSim::new(CpuSimConfig::new(p.clone(), 4)).expect("valid config");
    cpu_on.enable_telemetry(Telemetry::enabled(5, 1 << 14));
    cpu_on.enable_health(HealthConfig::default());
    cpu_on.run().expect("healthy run");
    assert_trajectories_identical(&cpu_off, &cpu_on, "cpu");

    let mut gpu_off = GpuSim::new(GpuSimConfig::new(p.clone(), 4)).expect("valid config");
    gpu_off.run().expect("healthy run");
    let mut gpu_on = GpuSim::new(GpuSimConfig::new(p, 4)).expect("valid config");
    gpu_on.enable_telemetry(Telemetry::enabled(5, 1 << 14));
    gpu_on.enable_health(HealthConfig::default());
    gpu_on.run().expect("healthy run");
    assert_trajectories_identical(&gpu_off, &gpu_on, "gpu");
}

fn assert_trajectories_identical(off: &dyn Simulation, on: &dyn Simulation, who: &str) {
    let (a, b) = (&off.history().steps, &on.history().steps);
    assert_eq!(a.len(), b.len(), "{who}: step counts diverged");
    for (x, y) in a.iter().zip(b.iter()) {
        assert!(
            x.approx_eq(y, 0.0),
            "{who}: telemetry perturbed the trajectory at step {}",
            x.step
        );
    }
}

/// The GPU executor's span stream nests four levels deep: driver step →
/// BSP superstep → per-rank compute/exchange phase → device kernel phase.
#[test]
fn gpu_span_stream_nests_four_levels() {
    let mut sim = GpuSim::new(GpuSimConfig::new(params(8, 11), 4)).expect("valid config");
    sim.enable_telemetry(Telemetry::enabled(5, 1 << 14));
    sim.run().expect("healthy run");
    let tel = sim.telemetry_handle();
    assert_eq!(tel.dropped(), 0, "ring sized for the whole run");

    let events = tel.events();
    let by_id: HashMap<u64, (SpanKind, u64)> =
        events.iter().map(|e| (e.id, (e.kind, e.parent))).collect();
    let mut full_chains = 0usize;
    for e in &events {
        if e.kind != SpanKind::Kernel {
            continue;
        }
        let Some(&(pk, pp)) = by_id.get(&e.parent) else {
            continue;
        };
        let Some(&(gk, gp)) = by_id.get(&pp) else {
            continue;
        };
        let Some(&(sk, _)) = by_id.get(&gp) else {
            continue;
        };
        if pk == SpanKind::RankPhase && gk == SpanKind::Superstep && sk == SpanKind::Step {
            full_chains += 1;
        }
    }
    assert!(
        full_chains > 0,
        "no kernel span chains kernel → rank-phase → superstep → step"
    );

    // Volumes on the spans are live: at least one kernel span reports work.
    assert!(
        events.iter().any(|e| e.kind == SpanKind::Kernel && e.a > 0),
        "kernel spans never carry element counts"
    );
}

/// With the SDC defense engaged, every step records one `integrity:scrub`
/// span before its step span opens and one `integrity:reseal` span inside
/// it, each carrying its step; a run without the defense records neither.
#[test]
fn engaged_defense_traces_one_scrub_and_one_reseal_per_step() {
    let traced = |audit_period: Option<u64>| {
        let mut cfg = CpuSimConfig::new(params(12, 5), 4);
        if let Some(period) = audit_period {
            cfg = cfg.with_audit_period(period);
        }
        let mut sim = CpuSim::new(cfg).expect("valid config");
        sim.enable_telemetry(Telemetry::enabled(5, 1 << 14));
        sim.run().expect("healthy run");
        sim.telemetry_handle().events()
    };
    let events = traced(Some(4));
    let steps: HashMap<u64, u64> = events
        .iter()
        .filter(|e| e.kind == SpanKind::Step)
        .map(|e| (e.id, e.a))
        .collect();
    let of = |label: &str| -> Vec<_> { events.iter().filter(|e| e.label == label).collect() };
    let (scrubs, reseals) = (of("integrity:scrub"), of("integrity:reseal"));
    assert_eq!(
        scrubs.iter().map(|e| e.a).collect::<Vec<_>>(),
        (0..12).collect::<Vec<_>>()
    );
    assert_eq!(reseals.len(), 12);
    for r in &reseals {
        assert_eq!(
            steps.get(&r.parent),
            Some(&r.a),
            "a reseal nests in its step"
        );
    }
    assert!(
        scrubs.iter().all(|e| e.parent == 0),
        "a scrub precedes its step span"
    );
    assert!(traced(None)
        .iter()
        .all(|e| !e.label.starts_with("integrity:")));
}
