//! Silent-data-corruption defense tests: injected bit flips — in in-flight
//! coalesced batches, in rank-resident state between steps, and in stored
//! checkpoint generations — must be detected by the integrity lattice
//! (batch CRC64, end-of-step seal scrub, ABFT invariant audit, checkpoint
//! seals), healed by the matching tier of the recovery ladder (in-barrier
//! retransmit, verified-checkpoint rollback, generation quarantine), and
//! every healed run must be **bitwise identical** to the corruption-free
//! run — statistics and per-voxel state.

use simcov_repro::pgas::{
    CorruptionKind, FaultEvent, FaultKind, FaultPlan, FaultRates, IntegrityAction,
    IntegrityDetector,
};
use simcov_repro::simcov_core::grid::GridDims;
use simcov_repro::simcov_core::params::SimParams;
use simcov_repro::simcov_cpu::{CpuSim, CpuSimConfig};
use simcov_repro::simcov_driver::{
    load_checkpoint, persist_checkpoint, RecoveryPolicy, SimError, Simulation,
};
use simcov_repro::simcov_gpu::{GpuSim, GpuSimConfig};

fn params(seed: u64) -> SimParams {
    SimParams::test_config(GridDims::new2d(32, 32), 60, 8, seed)
}

fn payload(superstep: u64, rank: usize, seed: u64) -> FaultEvent {
    FaultEvent {
        superstep,
        rank,
        kind: FaultKind::PayloadCorruption { seed },
    }
}

fn state(superstep: u64, rank: usize, seed: u64) -> FaultEvent {
    FaultEvent {
        superstep,
        rank,
        kind: FaultKind::StateCorruption { seed },
    }
}

fn policy() -> RecoveryPolicy {
    RecoveryPolicy {
        checkpoint_period: 8,
        ..RecoveryPolicy::default()
    }
}

fn assert_identical<A: Simulation + ?Sized, B: Simulation + ?Sized>(clean: &A, healed: &B) {
    assert_eq!(
        clean.history(),
        healed.history(),
        "healed time series diverged"
    );
    if let Some((idx, why)) = clean
        .gather_world()
        .first_difference(&healed.gather_world())
    {
        panic!("healed state diverged at voxel {idx}: {why}");
    }
}

/// A bit flip in an in-flight halo batch is caught by the delivery-side
/// CRC64 and healed by retransmission inside the same barrier: no rollback,
/// no divergence.
#[test]
fn cpu_payload_corruption_heals_in_barrier() {
    let mut clean = CpuSim::new(CpuSimConfig::new(params(3), 4)).expect("valid config");
    clean.run().expect("no faults");

    // CPU steps are 3 supersteps; 95 is a state-exchange superstep
    // mid-infection, so halos are in flight to corrupt.
    let plan = FaultPlan::from_events(vec![payload(95, 0, 0xC0FFEE)]);
    let mut faulty =
        CpuSim::new(CpuSimConfig::new(params(3), 4).with_fault_plan(plan)).expect("valid config");
    faulty.run().expect("retransmit must absorb the flip");

    let cc = faulty.comm_counters();
    assert_eq!(cc.corruptions_landed, 1, "the flip must land in a batch");
    assert_eq!(cc.corrupt_batches, 1);
    assert_eq!(cc.retransmits, 1, "healed by one in-barrier retransmit");
    assert!(
        faulty.recovery_log().is_empty(),
        "in-barrier healing needs no rollback"
    );
    let log = faulty.integrity_log();
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].kind, CorruptionKind::Payload);
    assert_eq!(log[0].detector, IntegrityDetector::BatchCrc);
    assert_eq!(log[0].action, IntegrityAction::Retransmit);
    assert_eq!(log[0].step, log[0].injected_step, "zero detection latency");
    assert_identical(&clean, &faulty);
}

/// The same in-barrier healing on the GPU executor's bulk halo wave.
#[test]
fn gpu_payload_corruption_heals_in_barrier() {
    let mut clean = GpuSim::new(GpuSimConfig::new(params(5), 4)).expect("valid config");
    clean.run().expect("no faults");

    // GPU steps are 2 supersteps; 61 is the halo wave of step 31.
    let plan = FaultPlan::from_events(vec![payload(61, 1, 0xBEEF)]);
    let mut faulty =
        GpuSim::new(GpuSimConfig::new(params(5), 4).with_fault_plan(plan)).expect("valid config");
    faulty.run().expect("retransmit must absorb the flip");

    let cc = faulty.comm_counters();
    assert_eq!(cc.corruptions_landed, 1);
    assert_eq!(cc.retransmits, 1);
    assert!(faulty.recovery_log().is_empty());
    assert_identical(&clean, &faulty);
}

/// A bit flip in rank-resident state between steps survives the barrier —
/// no message carried it — but the next step's seal scrub catches it and
/// the driver rolls back to the last *verified* checkpoint. Detection
/// latency is exactly one step boundary.
#[test]
fn cpu_state_corruption_scrubs_and_rolls_back() {
    let mut clean = CpuSim::new(CpuSimConfig::new(params(7), 4)).expect("valid config");
    clean.run().expect("no faults");

    let plan = FaultPlan::from_events(vec![state(95, 2, 0xDA7A)]);
    let mut faulty = CpuSim::new(
        CpuSimConfig::new(params(7), 4)
            .with_fault_plan(plan)
            .with_recovery(policy()),
    )
    .expect("valid config");
    faulty.run().expect("rollback must absorb the flip");

    let rec = faulty.recovery_log();
    assert_eq!(rec.len(), 1, "one rollback");
    assert!(rec[0].dead_ranks.is_empty(), "no ranks died");
    assert_eq!(rec[0].survivors, 4, "SDC rollback keeps the partition");
    assert_eq!(faulty.n_units(), 4);

    let log = faulty.integrity_log();
    let state_recs: Vec<_> = log
        .iter()
        .filter(|r| r.kind == CorruptionKind::State)
        .collect();
    assert_eq!(state_recs.len(), 1, "one state detection");
    assert_eq!(state_recs[0].detector, IntegrityDetector::SealScrub);
    assert_eq!(state_recs[0].action, IntegrityAction::Rollback);
    assert_eq!(
        state_recs[0].step - state_recs[0].injected_step,
        1,
        "the scrub catches the flip at the next step boundary"
    );
    assert_identical(&clean, &faulty);
}

/// The same scrub-and-rollback tier on the GPU executor.
#[test]
fn gpu_state_corruption_scrubs_and_rolls_back() {
    let mut clean = GpuSim::new(GpuSimConfig::new(params(9), 4)).expect("valid config");
    clean.run().expect("no faults");

    let plan = FaultPlan::from_events(vec![state(63, 1, 0x51CC)]);
    let mut faulty = GpuSim::new(
        GpuSimConfig::new(params(9), 4)
            .with_fault_plan(plan)
            .with_recovery(policy()),
    )
    .expect("valid config");
    faulty.run().expect("rollback must absorb the flip");

    assert_eq!(faulty.recovery_log().len(), 1);
    assert_eq!(faulty.n_units(), 4, "no shrink on SDC rollback");
    let log = faulty.integrity_log();
    assert!(log.iter().any(|r| r.kind == CorruptionKind::State
        && r.detector == IntegrityDetector::SealScrub
        && r.action == IntegrityAction::Rollback));
    assert_identical(&clean, &faulty);
}

/// A rank dies in the same superstep another rank's batch is corrupted: the
/// fail-stop tier (shrink + replay) and the SDC tier (retransmit) fire
/// together and the run still lands bitwise identical.
#[test]
fn rank_death_and_payload_corruption_in_one_superstep() {
    let mut clean = CpuSim::new(CpuSimConfig::new(params(11), 4)).expect("valid config");
    clean.run().expect("no faults");

    let plan = FaultPlan::from_events(vec![
        FaultEvent {
            superstep: 90,
            rank: 1,
            kind: FaultKind::RankDeath,
        },
        payload(90, 2, 0xD00D),
    ]);
    let mut faulty = CpuSim::new(
        CpuSimConfig::new(params(11), 4)
            .with_fault_plan(plan)
            .with_recovery(policy()),
    )
    .expect("valid config");
    faulty.run().expect("both tiers must absorb their faults");

    let rec = faulty.recovery_log();
    assert_eq!(rec.len(), 1, "the death forces one recovery");
    assert_eq!(rec[0].dead_ranks, vec![1]);
    assert_eq!(faulty.n_units(), 3, "domain shrank to the survivors");
    assert_identical(&clean, &faulty);
}

/// A second state corruption lands while the driver is still replaying the
/// first rollback (the superstep clock is monotonic, so the event fires
/// mid-replay): the scrub catches it again and the ladder recovers twice.
#[test]
fn corruption_during_rollback_replay_recovers_again() {
    let mut clean = CpuSim::new(CpuSimConfig::new(params(13), 4)).expect("valid config");
    clean.run().expect("no faults");

    // First flip at superstep 90 (step 30, detected at 31, rolled back to
    // 24) — replay spans supersteps ~93..; the second flip at 99 lands
    // inside that replay window.
    let plan = FaultPlan::from_events(vec![state(90, 0, 0xAAA), state(99, 3, 0xBBB)]);
    let mut faulty = CpuSim::new(
        CpuSimConfig::new(params(13), 4)
            .with_fault_plan(plan)
            .with_recovery(policy()),
    )
    .expect("valid config");
    faulty.run().expect("both flips must be absorbed");

    assert_eq!(faulty.recovery_log().len(), 2, "two rollbacks");
    let log = faulty.integrity_log();
    assert_eq!(
        log.iter()
            .filter(|r| r.kind == CorruptionKind::State)
            .count(),
        2,
        "both flips detected and attributed"
    );
    assert_identical(&clean, &faulty);
}

/// With a zero retransmit budget the corrupt batch cannot be healed in the
/// barrier: the superstep surfaces a typed integrity failure and the driver
/// escalates to the rollback tier instead.
#[test]
fn zero_retransmit_budget_escalates_to_rollback() {
    let mut clean = CpuSim::new(CpuSimConfig::new(params(17), 4)).expect("valid config");
    clean.run().expect("no faults");

    let plan = FaultPlan::from_events(vec![payload(95, 0, 0xE5C)]);
    let mut faulty = CpuSim::new(
        CpuSimConfig::new(params(17), 4)
            .with_fault_plan(plan)
            .with_recovery(policy())
            .with_retransmit_budget(0),
    )
    .expect("valid config");
    faulty
        .run()
        .expect("rollback must absorb the unhealed batch");

    let rec = faulty.recovery_log();
    assert_eq!(rec.len(), 1, "escalated to one rollback");
    assert!(rec[0].dead_ranks.is_empty());
    assert_eq!(faulty.comm_counters().retransmits, 0, "budget was zero");
    let log = faulty.integrity_log();
    assert!(log
        .iter()
        .any(|r| r.kind == CorruptionKind::Payload && r.action == IntegrityAction::Rollback));
    assert_identical(&clean, &faulty);
}

/// When the rollback tier is exhausted too (zero retries), the unhealed
/// corruption surfaces as a typed error naming the integrity failure — so
/// callers can distinguish SDC from fail-stop faults.
#[test]
fn unhealed_corruption_with_no_retries_is_a_typed_error() {
    let plan = FaultPlan::from_events(vec![payload(95, 0, 0xFA7A)]);
    let mut faulty = CpuSim::new(
        CpuSimConfig::new(params(17), 4)
            .with_fault_plan(plan)
            .with_recovery(RecoveryPolicy {
                max_retries: 0,
                ..RecoveryPolicy::default()
            })
            .with_retransmit_budget(0),
    )
    .expect("valid config");
    match faulty.run() {
        Err(SimError::RetriesExhausted { last, attempts }) => {
            assert_eq!(attempts, 1);
            assert!(
                last.to_string().contains("integrity"),
                "error must name the integrity failure: {last}"
            );
        }
        other => panic!("expected retries-exhausted on the integrity failure, got {other:?}"),
    }
}

/// The most aggressive audit cadence (every step) stays silent on clean
/// runs — zero false positives — on both executors, and the audited run is
/// bitwise identical to the unaudited one.
#[test]
fn audit_period_one_has_zero_false_positives_on_both_executors() {
    let mut plain_cpu = CpuSim::new(CpuSimConfig::new(params(19), 4)).expect("valid config");
    plain_cpu.run().expect("no faults");
    let mut audited_cpu =
        CpuSim::new(CpuSimConfig::new(params(19), 4).with_audit_period(1)).expect("valid config");
    audited_cpu.run().expect("no faults");
    assert!(audited_cpu.integrity_log().is_empty(), "false positive");
    let mon = audited_cpu.integrity_stats();
    assert_eq!(mon.audits_run, 60, "audited every step");
    assert_eq!(mon.violations, 0);
    assert_identical(&plain_cpu, &audited_cpu);

    let mut plain_gpu = GpuSim::new(GpuSimConfig::new(params(19), 4)).expect("valid config");
    plain_gpu.run().expect("no faults");
    let mut audited_gpu =
        GpuSim::new(GpuSimConfig::new(params(19), 4).with_audit_period(1)).expect("valid config");
    audited_gpu.run().expect("no faults");
    assert!(audited_gpu.integrity_log().is_empty(), "false positive");
    assert_identical(&plain_gpu, &audited_gpu);
}

/// Seeded corruption on both channels with audits every step: the full
/// ladder engages and the healed run is identical on both executors.
#[test]
fn seeded_corruption_with_audit_period_one_is_bitwise_identical() {
    let rates = FaultRates {
        payload_corruption: 0.004,
        state_corruption: 0.004,
        ..FaultRates::default()
    };

    let mut clean_cpu = CpuSim::new(CpuSimConfig::new(params(23), 4)).expect("valid config");
    clean_cpu.run().expect("no faults");
    let mut cpu = CpuSim::new(
        CpuSimConfig::new(params(23), 4)
            .with_fault_plan(FaultPlan::seeded(0x5DC1, &rates, 4, 180))
            .with_recovery(policy())
            .with_audit_period(1),
    )
    .expect("valid config");
    cpu.run().expect("the ladder must absorb the seeded flips");
    assert_identical(&clean_cpu, &cpu);

    let mut clean_gpu = GpuSim::new(GpuSimConfig::new(params(23), 4)).expect("valid config");
    clean_gpu.run().expect("no faults");
    let mut gpu = GpuSim::new(
        GpuSimConfig::new(params(23), 4)
            .with_fault_plan(FaultPlan::seeded(0x5DC2, &rates, 4, 120))
            .with_recovery(policy())
            .with_audit_period(1),
    )
    .expect("valid config");
    gpu.run().expect("the ladder must absorb the seeded flips");
    assert_identical(&clean_gpu, &gpu);
}

/// Durable crash restart: persist mid-run, rebuild a fresh simulation from
/// the file, and finish — the final statistics and world are bitwise
/// identical to the uninterrupted run.
#[test]
fn durable_persist_and_resume_reproduce_the_uninterrupted_run() {
    let p = params(29);
    let path = std::env::temp_dir().join(format!("simcov_sdc_resume_{}.ck", std::process::id()));

    let mut uninterrupted = CpuSim::new(CpuSimConfig::new(p.clone(), 4)).expect("valid config");
    uninterrupted.run().expect("no faults");

    // First process: run half-way, persist, "crash" (drop).
    {
        let mut first = CpuSim::new(CpuSimConfig::new(p.clone(), 4)).expect("valid config");
        while first.step() < 30 {
            first.advance_step().expect("no faults");
        }
        persist_checkpoint(&path, &p, &first.checkpoint()).expect("persist");
    }

    // Second process: resume from the file and finish.
    let cp = load_checkpoint(&path, &p).expect("load");
    assert_eq!(cp.step, 30);
    let mut resumed = CpuSim::new(CpuSimConfig::new(p, 4)).expect("valid config");
    resumed.restore(&cp).expect("restore");
    resumed.run().expect("no faults");

    assert_identical(&uninterrupted, &resumed);
    let _ = std::fs::remove_file(&path);
}

/// The same durable round-trip on the GPU executor, resuming at a step that
/// is *not* a multiple of the tile-activity check period: the rebuilt
/// devices must re-derive the active tile set from the restored state
/// instead of idling interior tiles until the schedule comes around.
#[test]
fn gpu_durable_resume_off_the_check_schedule_is_bitwise_identical() {
    // 64×64 so the tile layout has interior (non-ghost) tiles — those are
    // exactly the ones a naive rebuild leaves idle until the next check.
    let p = SimParams::test_config(GridDims::new2d(64, 64), 60, 8, 31);
    let path =
        std::env::temp_dir().join(format!("simcov_sdc_gpu_resume_{}.ck", std::process::id()));

    let mut uninterrupted = GpuSim::new(GpuSimConfig::new(p.clone(), 4)).expect("valid config");
    uninterrupted.run().expect("no faults");

    // 27 is coprime with every admissible check period > 1 and not a
    // checkpoint boundary either.
    {
        let mut first = GpuSim::new(GpuSimConfig::new(p.clone(), 4)).expect("valid config");
        while first.step() < 27 {
            first.advance_step().expect("no faults");
        }
        persist_checkpoint(&path, &p, &first.checkpoint()).expect("persist");
    }

    let cp = load_checkpoint(&path, &p).expect("load");
    assert_eq!(cp.step, 27);
    let mut resumed = GpuSim::new(GpuSimConfig::new(p, 4)).expect("valid config");
    resumed.restore(&cp).expect("restore");
    resumed.run().expect("no faults");

    assert_identical(&uninterrupted, &resumed);
    let _ = std::fs::remove_file(&path);
}
