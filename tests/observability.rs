//! Integration tests for the observability layer: per-step [`StepRecord`]s
//! emitted through a `MetricsSink` must agree across executors, and the
//! telemetry stream's per-superstep spans must reconcile exactly with the
//! BSP communication counters, and its per-step trial-table spans with the
//! circulating pool.

use std::collections::HashMap;

use simcov_repro::gpusim::SharedSink;
use simcov_repro::simcov_core::grid::GridDims;
use simcov_repro::simcov_core::params::SimParams;
use simcov_repro::simcov_cpu::{CpuSim, CpuSimConfig};
use simcov_repro::simcov_driver::Simulation;
use simcov_repro::simcov_gpu::{GpuSim, GpuSimConfig};
use simcov_repro::simcov_telemetry::Telemetry;

fn params(seed: u64) -> SimParams {
    SimParams::test_config(GridDims::new2d(32, 32), 30, 6, seed)
}

/// Both executors, same seed: the model-level fields of every per-step
/// record (agents, virions, chemokine) must be identical, step for step.
#[test]
fn cpu_and_gpu_step_records_agree() {
    for seed in [3u64, 17, 99] {
        let cpu_sink = SharedSink::new();
        let mut cpu = CpuSim::new(CpuSimConfig::new(params(seed), 4)).expect("valid config");
        cpu.set_metrics_sink(Box::new(cpu_sink.clone()));
        cpu.run().expect("healthy run");

        let gpu_sink = SharedSink::new();
        let mut gpu = GpuSim::new(GpuSimConfig::new(params(seed), 4)).expect("valid config");
        gpu.set_metrics_sink(Box::new(gpu_sink.clone()));
        gpu.run().expect("healthy run");

        let cpu_recs = cpu_sink.records();
        let gpu_recs = gpu_sink.records();
        assert_eq!(cpu_recs.len(), 30, "one record per step (seed {seed})");
        assert_eq!(cpu_recs.len(), gpu_recs.len());
        for (c, g) in cpu_recs.iter().zip(gpu_recs.iter()) {
            assert_eq!(c.step, g.step);
            assert_eq!(
                c.agents, g.agents,
                "tissue T-cell counts diverged at step {} (seed {seed})",
                c.step
            );
            assert_eq!(
                c.virions, g.virions,
                "virion mass diverged at step {} (seed {seed})",
                c.step
            );
            assert_eq!(
                c.chemokine, g.chemokine,
                "chemokine mass diverged at step {} (seed {seed})",
                c.step
            );
            assert!(c.real_seconds > 0.0 && g.real_seconds > 0.0);
            assert!(c.sim_seconds.is_finite() && g.sim_seconds.is_finite());
        }
    }
}

/// Step records are well-formed: steps are consecutive, and the per-step
/// communication deltas sum back to the runtime's cumulative counters.
#[test]
fn step_record_comm_deltas_sum_to_counters() {
    let sink = SharedSink::new();
    let mut sim = CpuSim::new(CpuSimConfig::new(params(7), 5)).expect("valid config");
    sim.set_metrics_sink(Box::new(sink.clone()));
    sim.run().expect("healthy run");

    let recs = sink.records();
    for (i, r) in recs.iter().enumerate() {
        assert_eq!(r.step, i as u64, "steps must be consecutive from 0");
    }
    let comm = sim.comm_counters();
    let rec_msgs: u64 = recs.iter().map(|r| r.comm_messages).sum();
    let rec_bytes: u64 = recs.iter().map(|r| r.comm_bytes).sum();
    assert_eq!(rec_msgs, comm.messages + comm.bulk_messages);
    assert_eq!(rec_bytes, comm.bytes + comm.bulk_bytes);
}

/// The telemetry stream's superstep spans must reconcile exactly with the
/// BSP counters: one `superstep` span per counted superstep, and the
/// `exchange` span volumes sum to the cumulative totals — on both executors.
/// Each step's `trial-table` span counts the trials it drew.
#[test]
fn trace_comm_totals_equal_bsp_counters() {
    let mut cpu = CpuSim::new(CpuSimConfig::new(params(11), 4)).expect("valid config");
    cpu.enable_telemetry(Telemetry::enabled(5, 1 << 14));
    cpu.run().expect("healthy run");
    check_trace_matches_counters(&cpu, "cpu");

    let mut gpu = GpuSim::new(GpuSimConfig::new(params(11), 4)).expect("valid config");
    gpu.enable_telemetry(Telemetry::enabled(5, 1 << 14));
    gpu.run().expect("healthy run");
    check_trace_matches_counters(&gpu, "gpu");
}

fn check_trace_matches_counters(sim: &dyn Simulation, who: &str) {
    let tel = sim.telemetry_handle();
    assert_eq!(tel.dropped(), 0, "{who}: the ring must hold the whole run");
    let events = tel.events();
    let comm = sim.comm_counters();
    let labelled = |label: &'static str| events.iter().filter(move |e| e.label == label);
    assert_eq!(
        labelled("superstep").count() as u64,
        comm.supersteps,
        "{who}: one superstep span per superstep"
    );
    assert_eq!(
        labelled("exchange").count() as u64,
        comm.supersteps,
        "{who}: one exchange span per superstep"
    );
    assert_eq!(
        labelled("exchange").map(|e| e.a).sum::<u64>(),
        comm.messages + comm.bulk_messages,
        "{who}: message totals"
    );
    assert_eq!(
        labelled("exchange").map(|e| e.b).sum::<u64>(),
        comm.bytes + comm.bulk_bytes,
        "{who}: byte totals"
    );
    for e in labelled("superstep").chain(labelled("exchange")) {
        assert!(e.dur_ns > 0, "{who}: every {} span measured time", e.label);
    }
    // One `trial-table` span under each step's span, carrying the trials
    // drawn: the pool circulating when the step starts.
    let step_of: HashMap<u64, u64> = labelled("step").map(|e| (e.id, e.a)).collect();
    let history = &sim.history().steps;
    let mut tabled: Vec<u64> = labelled("trial-table")
        .map(|e| {
            let t = step_of[&e.parent];
            let pool = t
                .checked_sub(1)
                .map_or(0, |i| history[i as usize].tcells_vasculature);
            assert_eq!(e.a, pool, "{who}: trials drawn at step {t}");
            assert!(e.b <= e.a, "{who}: more listed than drawn at step {t}");
            t
        })
        .collect();
    assert!(
        labelled("trial-table").any(|e| e.a > 0),
        "{who}: no step drew a trial"
    );
    tabled.sort_unstable();
    let steps: Vec<u64> = (0..history.len() as u64).collect();
    assert_eq!(tabled, steps, "{who}: one trial-table span per step");
}

/// Metrics must be pure observation: installing a sink must not change the
/// trajectory.
#[test]
fn metrics_sink_does_not_perturb_simulation() {
    let mut plain = CpuSim::new(CpuSimConfig::new(params(23), 3)).expect("valid config");
    plain.run().expect("healthy run");

    let sink = SharedSink::new();
    let mut observed = CpuSim::new(CpuSimConfig::new(params(23), 3)).expect("valid config");
    observed.set_metrics_sink(Box::new(sink.clone()));
    observed.enable_telemetry(Telemetry::enabled(4, 1 << 14));
    observed.run().expect("healthy run");

    assert_eq!(plain.history().steps.len(), observed.history().steps.len());
    for (a, b) in plain
        .history()
        .steps
        .iter()
        .zip(observed.history().steps.iter())
    {
        assert!(
            a.approx_eq(b, 0.0),
            "observation changed the trajectory at step {}",
            a.step
        );
    }
}
