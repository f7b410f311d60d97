//! The socket transport under real faults, end to end through the driver.
//!
//! `--transport process` puts one worker process per rank under the BSP
//! exchange: every superstep's coalesced batches round-trip through
//! CRC64-sealed frames over local sockets. These tests pin the two
//! properties that make the transport usable:
//!
//! 1. **Transport invariance** — a healthy socket run is bitwise identical
//!    to the in-process mailbox run (history, world, and the logical
//!    communication counters) on both executors.
//! 2. **Graceful degradation** — a SIGKILLed worker, a garbled frame, a
//!    dropped inbox and a stalled peer are each classified, healed or
//!    escalated through the recovery ladder, and the recovered trajectory
//!    is bitwise identical to the failure-free run.
//!
//! Workers are forked, so a `RankDeath` fault is a real `SIGKILL(2)` of a
//! real process and a "closed socket" is a real EOF, not a simulated flag.
//! Every fault, wire or logical, is one event of the run's `FaultPlan`.

use simcov_repro::pgas::{FaultEvent, FaultKind, FaultPlan, ProcessTransportConfig, TransportMode};
use simcov_repro::simcov_core::grid::GridDims;
use simcov_repro::simcov_core::params::SimParams;
use simcov_repro::simcov_cpu::{CpuSim, CpuSimConfig};
use simcov_repro::simcov_driver::{RecoveryPolicy, Simulation};
use simcov_repro::simcov_gpu::{GpuSim, GpuSimConfig};

fn params(seed: u64) -> SimParams {
    SimParams::test_config(GridDims::new2d(32, 32), 40, 8, seed)
}

/// Forked workers with deadlines short enough that a stall test finishes
/// quickly but long enough that a loaded CI machine never trips them.
fn transport() -> TransportMode {
    TransportMode::Process(ProcessTransportConfig::forked())
}

/// A plan of one fault: `kind` strikes `rank` at `superstep`.
fn one_fault(superstep: u64, rank: usize, kind: FaultKind) -> FaultPlan {
    FaultPlan::from_events(vec![FaultEvent {
        superstep,
        rank,
        kind,
    }])
}

fn recovery() -> RecoveryPolicy {
    RecoveryPolicy {
        checkpoint_period: 4,
        ..RecoveryPolicy::default()
    }
}

#[test]
fn healthy_socket_run_is_bitwise_identical_to_in_process_cpu() {
    let mut inproc = CpuSim::new(CpuSimConfig::new(params(11), 4)).expect("valid config");
    inproc.run().expect("healthy run");

    let cfg = CpuSimConfig::new(params(11), 4).with_transport(transport());
    let mut socketed = CpuSim::new(cfg).expect("transport spawns");
    socketed.run().expect("healthy socket run");

    assert_eq!(inproc.history(), socketed.history(), "time series diverged");
    assert!(
        inproc
            .gather_world()
            .first_difference(&socketed.gather_world())
            .is_none(),
        "world diverged across transports"
    );
    // The logical volume metering is transport-invariant; only the wire
    // overhead counters know a socket was involved.
    assert_eq!(inproc.comm_counters(), socketed.comm_counters());
    assert!(inproc.transport_counters().is_none());
    let wire = socketed.transport_counters().expect("transport attached");
    assert!(wire.frames_sent > 0, "frames crossed the wire");
    assert_eq!(wire.frames_received, wire.frames_sent, "lossless exchange");
    // The exact bytes on the wire, pinned so a protocol edit cannot move
    // them unnoticed.
    assert_eq!(
        (wire.frames_sent, wire.bytes_sent, wire.bytes_received),
        (992, 304_297, 291_049)
    );
    assert_eq!(wire.wire_retransmits, 0);
    assert_eq!(wire.peers_closed + wire.peers_timed_out, 0);
}

#[test]
fn healthy_socket_run_is_bitwise_identical_to_in_process_gpu() {
    let mut inproc = GpuSim::new(GpuSimConfig::new(params(13), 4)).expect("valid config");
    inproc.run().expect("healthy run");

    let cfg = GpuSimConfig::new(params(13), 4).with_transport(transport());
    let mut socketed = GpuSim::new(cfg).expect("transport spawns");
    socketed.run().expect("healthy socket run");

    assert_eq!(inproc.history(), socketed.history(), "time series diverged");
    assert!(
        inproc
            .gather_world()
            .first_difference(&socketed.gather_world())
            .is_none(),
        "world diverged across transports"
    );
    assert_eq!(inproc.comm_counters(), socketed.comm_counters());
    let wire = socketed.transport_counters().expect("transport attached");
    assert!(wire.frames_sent > 0);
    assert_eq!(wire.frames_received, wire.frames_sent);
    assert_eq!(
        (wire.frames_sent, wire.bytes_sent, wire.bytes_received),
        (960, 194_920, 183_400)
    );
}

/// A worker SIGKILLed mid-run: the barrier sees the closed socket, the
/// failure takes the rollback → elastic re-partition ladder, the transport
/// respawns a worker set for the survivors, and the recovered trajectory
/// is bitwise identical to the failure-free run.
#[test]
fn sigkilled_worker_recovers_bitwise_identical_cpu() {
    let mut clean = CpuSim::new(CpuSimConfig::new(params(17), 4)).expect("valid config");
    clean.run().expect("no faults");

    // CPU: 3 supersteps per step — superstep 30 is mid step 10.
    let cfg = CpuSimConfig::new(params(17), 4)
        .with_transport(transport())
        .with_fault_plan(one_fault(30, 1, FaultKind::RankDeath))
        .with_recovery(recovery());
    let mut faulty = CpuSim::new(cfg).expect("transport spawns");
    faulty.run().expect("recovery must absorb the crash");

    let log = faulty.recovery_log();
    assert_eq!(log.len(), 1, "exactly one recovery");
    assert_eq!(log[0].dead_ranks, vec![1]);
    assert_eq!(faulty.n_units(), 3, "domain shrank to the survivors");
    let wire = faulty.transport_counters().expect("transport attached");
    assert!(wire.workers_respawned >= 3, "survivor workers respawned");
    assert_eq!(wire.degraded, 0, "never fell back to in-process");
    assert!(wire.peers_closed >= 1, "the socket saw the crash");

    assert_eq!(clean.history(), faulty.history(), "time series diverged");
    assert!(
        clean
            .gather_world()
            .first_difference(&faulty.gather_world())
            .is_none(),
        "world diverged after recovery"
    );
}

/// The same crash on the GPU executor (2 supersteps per step).
#[test]
fn sigkilled_worker_recovers_bitwise_identical_gpu() {
    let mut clean = GpuSim::new(GpuSimConfig::new(params(19), 4)).expect("valid config");
    clean.run().expect("no faults");

    let cfg = GpuSimConfig::new(params(19), 4)
        .with_transport(transport())
        .with_fault_plan(one_fault(20, 2, FaultKind::RankDeath))
        .with_recovery(recovery());
    let mut faulty = GpuSim::new(cfg).expect("transport spawns");
    faulty.run().expect("recovery must absorb the crash");

    assert_eq!(faulty.recovery_log().len(), 1);
    assert_eq!(faulty.n_units(), 3);
    let wire = faulty.transport_counters().expect("transport attached");
    assert!(wire.peers_closed >= 1, "the socket saw the crash");
    assert_eq!(clean.history(), faulty.history(), "time series diverged");
    assert!(
        clean
            .gather_world()
            .first_difference(&faulty.gather_world())
            .is_none(),
        "world diverged after recovery"
    );
}

/// One garbled inbox frame: the CRC rejects it, the barrier re-requests the
/// retained frames, and the run completes with no recovery at all — the
/// heal is invisible outside the wire counters.
#[test]
fn garbled_frame_heals_in_barrier_without_recovery() {
    let mut clean = CpuSim::new(CpuSimConfig::new(params(23), 4)).expect("valid config");
    clean.run().expect("no faults");

    let cfg = CpuSimConfig::new(params(23), 4)
        .with_transport(transport())
        .with_fault_plan(one_fault(
            31,
            2,
            FaultKind::InboxGarble {
                seed: 77,
                sticky: false,
            },
        ));
    let mut healed = CpuSim::new(cfg).expect("transport spawns");
    healed.run().expect("garble heals in-barrier");

    assert!(healed.recovery_log().is_empty(), "no rollback was needed");
    let wire = healed.transport_counters().expect("transport attached");
    assert!(wire.wire_retransmits >= 1, "the heal was a real retransmit");
    // The wire heal never pollutes the logical corruption counters.
    assert_eq!(healed.comm_counters().corrupt_batches, 0);
    assert_eq!(clean.history(), healed.history(), "time series diverged");
}

/// A dropped inbox reply heals the same way: re-request, replay, identical.
#[test]
fn dropped_inbox_heals_in_barrier_without_recovery() {
    let mut clean = CpuSim::new(CpuSimConfig::new(params(29), 4)).expect("valid config");
    clean.run().expect("no faults");

    let cfg = CpuSimConfig::new(params(29), 4)
        .with_transport(transport())
        .with_fault_plan(one_fault(40, 0, FaultKind::InboxDrop));
    let mut healed = CpuSim::new(cfg).expect("transport spawns");
    healed.run().expect("drop heals in-barrier");

    assert!(healed.recovery_log().is_empty());
    let wire = healed.transport_counters().expect("transport attached");
    assert!(wire.wire_retransmits >= 1);
    assert_eq!(clean.history(), healed.history(), "time series diverged");
}

/// A peer stalled past the full deadline × retry budget is classified as
/// timed out — not hung-forever — and the driver recovers exactly as for a
/// crash, bitwise identical to the failure-free run.
#[test]
fn stalled_peer_past_deadline_recovers_bitwise_identical() {
    let mut clean = CpuSim::new(CpuSimConfig::new(params(31), 4)).expect("valid config");
    clean.run().expect("no faults");

    // 60 ms read deadline, 2 retries, 1 s stall: the peer cannot answer
    // inside the budget and must classify as timed out.
    let tcfg = ProcessTransportConfig::forked()
        .with_deadlines(60_000_000, 1_000_000_000)
        .with_retry(2, 1_000_000);
    let stall = FaultKind::SlowRank {
        stall_ns: 1_000_000_000,
    };
    let cfg = CpuSimConfig::new(params(31), 4)
        .with_transport(TransportMode::Process(tcfg))
        .with_fault_plan(one_fault(33, 3, stall))
        .with_recovery(recovery());
    let mut faulty = CpuSim::new(cfg).expect("transport spawns");
    faulty.run().expect("recovery must absorb the timeout");

    assert_eq!(faulty.recovery_log().len(), 1, "timeout took the ladder");
    assert_eq!(faulty.recovery_log()[0].dead_ranks, vec![3]);
    let wire = faulty.transport_counters().expect("transport attached");
    assert!(
        wire.deadline_retries >= 1,
        "the deadline was really retried"
    );
    assert!(
        wire.peers_timed_out >= 1,
        "classified as timeout, not crash"
    );
    assert_eq!(clean.history(), faulty.history(), "time series diverged");
    assert!(
        clean
            .gather_world()
            .first_difference(&faulty.gather_world())
            .is_none(),
        "world diverged after recovery"
    );
}
