//! The `Unit` seam, tested once, generically: whatever implements
//! [`Unit`] must — behind the shared [`BspSim`] shell — reproduce the serial
//! oracle bitwise, corrupt state as a self-inverse, survive an elastic
//! rebuild with its world and telemetry intact, and build identically from a
//! [`RunSpec`] and from the hand-written [`RunConfig`] it resolves to.

use simcov_repro::pgas::fault::FaultRates;
use simcov_repro::simcov_core::grid::GridDims;
use simcov_repro::simcov_core::params::SimParams;
use simcov_repro::simcov_core::serial::SerialSim;
use simcov_repro::simcov_cpu::CpuRank;
use simcov_repro::simcov_driver::{BspSim, RecoveryPolicy, RunConfig, Simulation, Unit};
use simcov_repro::simcov_gpu::GpuDevice;
use simcov_repro::simcov_sweep::{ExecutorKind, FaultSpec, RunSpec};
use simcov_repro::simcov_telemetry::{SpanKind, Telemetry};

const STEPS: u64 = 80;

fn params() -> SimParams {
    SimParams::test_config(GridDims::new2d(24, 24), STEPS, 3, 42)
}

fn build<U: Unit>(units: usize) -> BspSim<U> {
    BspSim::new(RunConfig::new(params(), units)).expect("valid config")
}

fn assert_matches_serial<U: Unit>(sim: &BspSim<U>, serial: &SerialSim, what: &str) {
    if let Some((idx, why)) = serial.world.first_difference(&sim.assemble_world()) {
        panic!("{}: {what}: diverged at voxel {idx}: {why}", U::NAME);
    }
    assert_eq!(
        serial.history,
        *sim.history(),
        "{}: {what}: stats diverged",
        U::NAME
    );
}

/// Kernel-level spans a unit recorded itself (the GPU phases; none on cpu).
fn unit_spans(tel: &Telemetry) -> usize {
    tel.events()
        .iter()
        .filter(|e| e.kind == SpanKind::Kernel)
        .count()
}

fn conformance<U: Unit>(kind: ExecutorKind) {
    assert_eq!(kind.name(), U::NAME);
    let mut serial = SerialSim::new(params());
    serial.run();

    // build → N steps → assemble_world equals the serial oracle bitwise.
    let mut sim = build::<U>(4);
    sim.run().expect("healthy run");
    assert_matches_serial(&sim, &serial, "4 units");

    // corrupt_bit(seed) twice is the identity on the assembled world, and
    // once is not (the flip lands on owned state).
    let clean = sim.assemble_world();
    for seed in 0..32u64 {
        let unit = seed as usize % sim.units.len();
        sim.units[unit].corrupt_bit(seed);
        assert!(
            clean.first_difference(&sim.assemble_world()).is_some(),
            "{}: seed {seed}: the flip must be visible",
            U::NAME
        );
        sim.units[unit].corrupt_bit(seed);
        assert!(
            clean.first_difference(&sim.assemble_world()).is_none(),
            "{}: seed {seed}: the second flip must restore the state",
            U::NAME
        );
    }

    // rebuild to fewer units mid-run preserves the world — the run still
    // lands on the oracle — and re-attaches telemetry to the new units.
    let mut sim = build::<U>(4);
    let tel = Telemetry::enabled(5, 1 << 15);
    sim.enable_telemetry(tel.clone());
    for _ in 0..STEPS / 2 {
        sim.advance_step().expect("healthy step");
    }
    let (world, unit_spans_before) = (sim.assemble_world(), unit_spans(&tel));
    sim.rebuild(&world, 2).expect("2 units partition the grid");
    assert_eq!(sim.n_units(), 2);
    assert_eq!(sim.partition().n_ranks(), 2);
    assert!(world.first_difference(&sim.assemble_world()).is_none());
    let recorded = tel.recorded();
    sim.run().expect("healthy run");
    assert_matches_serial(&sim, &serial, "rebuilt 4 -> 2 units");
    assert!(tel.recorded() > recorded, "{}: spans stopped", U::NAME);
    assert_eq!(
        unit_spans(&tel) > unit_spans_before,
        unit_spans_before > 0,
        "{}: unit-level spans must continue exactly where they existed",
        U::NAME
    );

    // RunSpec::build() and the hand-built RunConfig for the same spec (the
    // single `to_config` path) give identical runs, faults and all.
    let policy = RecoveryPolicy {
        checkpoint_period: 8,
        ..RecoveryPolicy::default()
    };
    let mut spec = RunSpec::test(kind, GridDims::new2d(24, 24), STEPS, 3, 42)
        .with_units(3)
        .with_fault(FaultSpec {
            seed: 0xFA17,
            rates: FaultRates {
                death: 0.004,
                payload_corruption: 0.01,
                state_corruption: 0.01,
                ..FaultRates::default()
            },
        })
        .with_recovery(policy);
    spec.audit_period = Some(4);
    spec.retransmit_budget = Some(2);
    let mut from_spec = spec.build().expect("valid spec");
    from_spec.run().expect("recovered run");
    let by_hand = RunConfig::new(spec.params(), 3)
        .with_fault_plan(spec.fault_plan())
        .with_recovery(policy)
        .with_audit_period(4)
        .with_retransmit_budget(2);
    let mut by_hand = BspSim::<U>::new(by_hand).expect("valid config");
    by_hand.run().expect("recovered run");
    assert_eq!(from_spec.name(), U::NAME);
    assert_eq!(from_spec.history(), by_hand.history());
    assert_eq!(from_spec.recovery_log(), by_hand.recovery_log());
    assert_eq!(from_spec.integrity_log(), by_hand.integrity_log());
    assert_eq!(from_spec.comm_counters(), by_hand.comm_counters());
    assert!(
        !by_hand.recovery_log().is_empty() || !by_hand.integrity_log().is_empty(),
        "{}: the plan must actually strike",
        U::NAME
    );
    // Recovery is bitwise: the faulted run still lands on the oracle.
    assert_eq!(serial.history, *by_hand.history());
}

#[test]
fn cpu_rank_conforms() {
    conformance::<CpuRank>(ExecutorKind::Cpu);
}

#[test]
fn gpu_device_conforms() {
    conformance::<GpuDevice>(ExecutorKind::Gpu);
}
