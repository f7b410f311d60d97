//! Property and cascade tests for the pure driver control plane, plus
//! live-vs-replay equivalence on the real executors.
//!
//! The pure core makes a failure cascade — a rank death during a rollback
//! during a corruption quarantine — just an event sequence. The seeded
//! suite here drives thousands of such sequences through
//! [`DriverState::apply`] with no threads, disk or fault-plan plumbing,
//! checking the invariants the interleaved implementation could only
//! exercise one hand-built scenario at a time. The live tests then record
//! real CPU/GPU runs and prove the event log replays — with zero
//! filesystem or executor access — to the exact control state and record
//! streams the live run produced.

use std::collections::VecDeque;

use simcov_repro::pgas::{
    CorruptionKind, IntegrityAction, IntegrityDetector, IntegrityFailure, SuperstepError,
    SuperstepFailure,
};
use simcov_repro::pgas::{FaultEvent, FaultKind, FaultPlan};
use simcov_repro::simcov_core::grid::GridDims;
use simcov_repro::simcov_core::integrity::IntegrityViolation;
use simcov_repro::simcov_core::params::SimParams;
use simcov_repro::simcov_cpu::{CpuSim, CpuSimConfig};
use simcov_repro::simcov_driver::state::{ScrubVerdict, StopCause};
use simcov_repro::simcov_driver::{
    replay, DriverState, Effect, Event, RecoveryPolicy, SerialDriver, SimError, Simulation,
};
use simcov_repro::simcov_gpu::{GpuSim, GpuSimConfig};

// ---------------------------------------------------------------------------
// Seeded cascade generator
// ---------------------------------------------------------------------------

/// Small deterministic PCG-ish generator; the suite must be reproducible
/// from its seeds alone.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

fn violation(rng: &mut Lcg) -> IntegrityViolation {
    if rng.chance(50) {
        IntegrityViolation::SealMismatch {
            expected: rng.next(),
            got: rng.next(),
        }
    } else {
        IntegrityViolation::NonFinite {
            field: "virions",
            index: rng.below(1024) as usize,
        }
    }
}

fn superstep_error(rng: &mut Lcg, units: usize) -> SuperstepError {
    if rng.chance(60) {
        let n_dead = if rng.chance(70) { 1 } else { 2 };
        let dead: Vec<usize> = (0..n_dead.min(units.saturating_sub(1).max(1)))
            .map(|k| (rng.below(units as u64) as usize).saturating_sub(k) % units.max(1))
            .collect();
        SuperstepError::Failure(SuperstepFailure {
            superstep: rng.below(500),
            dead_ranks: dead,
            dropped_messages: rng.below(40),
        })
    } else {
        SuperstepError::Integrity(IntegrityFailure {
            superstep: rng.below(500),
            corrupt_batches: 1 + rng.below(3),
            healed: 0,
            unhealed: 1 + rng.below(2),
        })
    }
}

/// Drive one seeded cascade: generate shell-shaped events, answer every
/// [`Effect::FetchRollbackTarget`] the way a checkpoint store would
/// (usually the newest generation, sometimes older after quarantine,
/// sometimes nothing left), and return the full log plus the state
/// trajectory for invariant checks.
fn run_cascade(seed: u64, len: usize) -> (DriverState, Vec<Event>, Vec<DriverState>) {
    let policy = RecoveryPolicy {
        checkpoint_period: 4,
        max_retries: 3,
        backoff_base_ns: 1_000,
    };
    let mut rng = Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15).max(1));
    let initial = DriverState::initial(4, Some(policy), true);
    let mut state = initial.clone();
    let mut events: Vec<Event> = Vec::new();
    let mut trajectory: Vec<DriverState> = Vec::new();
    let mut queue: VecDeque<Event> = VecDeque::new();

    for _ in 0..len {
        // Synthesize the next observation the way the shell would.
        if queue.is_empty() {
            let ev = if state.halted.is_some() {
                // A halted run only comes back via an external restore (or
                // keeps absorbing whatever straggles in).
                if rng.chance(40) {
                    Event::ExternalRestore {
                        step: rng.below(50),
                    }
                } else {
                    Event::StepComputed { step: state.step }
                }
            } else {
                match rng.below(100) {
                    0..=9 => Event::AdvanceRequested,
                    10..=19 => Event::Scrubbed {
                        verdict: if rng.chance(40) {
                            Some(ScrubVerdict {
                                violation: violation(&mut rng),
                                detector: if rng.chance(50) {
                                    IntegrityDetector::SealScrub
                                } else {
                                    IntegrityDetector::InvariantAudit
                                },
                            })
                        } else {
                            None
                        },
                    },
                    20..=34 if state.checkpoint_due() => {
                        Event::CheckpointSaved { step: state.step }
                    }
                    20..=34 => Event::StepComputed { step: state.step },
                    35..=54 => Event::ComputeFailed {
                        error: superstep_error(&mut rng, state.units),
                    },
                    55..=62 => Event::CorruptionApplied {
                        step: state.step,
                        superstep: rng.below(500),
                    },
                    63..=66 => Event::ExternalRestore {
                        step: rng.below(50),
                    },
                    _ => Event::StepComputed { step: state.step },
                }
            };
            queue.push_back(ev);
        }
        let ev = queue.pop_front().expect("just filled");
        events.push(ev.clone());
        let (next, effects) = state.clone().apply(ev);
        state = next;
        trajectory.push(state.clone());
        for eff in effects {
            if let Effect::FetchRollbackTarget { .. } = eff {
                // Model the store: the target is at or below the newest
                // generation (quarantine pops generations), never above
                // the failed step, and occasionally the store is dry.
                let answer = if rng.chance(8) {
                    Event::RollbackTargetFetched {
                        step: None,
                        quarantined: rng.below(3),
                    }
                } else {
                    let quarantined = rng.below(3);
                    let newest = state.last_checkpoint_step.unwrap_or(0).min(state.step);
                    let target = newest.saturating_sub(quarantined * policy.checkpoint_period);
                    Event::RollbackTargetFetched {
                        step: Some(target),
                        quarantined,
                    }
                };
                queue.push_back(answer);
            }
        }
    }
    (initial, events, trajectory)
}

// ---------------------------------------------------------------------------
// Pure-core properties over seeded cascades
// ---------------------------------------------------------------------------

/// The transition function is pure: replaying the recorded event log twice
/// produces bit-identical trajectories, effects and final state — and the
/// trajectory matches the one the generator observed live.
#[test]
fn replay_is_deterministic_and_matches_the_generating_fold() {
    for seed in 0..200u64 {
        let (initial, events, trajectory) = run_cascade(seed, 80);
        let a = replay(initial.clone(), &events);
        let b = replay(initial.clone(), &events);
        assert_eq!(a, b, "seed {seed}: replay is not deterministic");
        assert_eq!(
            a.trajectory, trajectory,
            "seed {seed}: replay diverged from the generating fold"
        );
        assert_eq!(a.final_state, *trajectory.last().expect("non-empty"));
        assert_eq!(a.halt, a.final_state.halted);
    }
}

/// The retry budget is honored on every cascade: while the run is live the
/// attempt counter never exceeds `max_retries`, and a halted run's counter
/// never exceeds `max_retries + 1` (the attempt that gave up).
#[test]
fn property_attempt_never_exceeds_the_retry_budget() {
    for seed in 200..400u64 {
        let (initial, _, trajectory) = run_cascade(seed, 80);
        let max = initial.policy.expect("engaged").max_retries;
        for (i, s) in trajectory.iter().enumerate() {
            assert!(
                s.attempt <= max + 1,
                "seed {seed} event {i}: attempt {} blew the budget {max}",
                s.attempt
            );
            if s.halted.is_none() && s.pending.is_none() {
                assert!(
                    s.attempt <= max,
                    "seed {seed} event {i}: live state holds attempt {} > {max}",
                    s.attempt
                );
            }
        }
    }
}

/// Elastic re-partitioning never collapses to zero units and never grows
/// the domain: survivors only shrink, and only at a decided rollback.
#[test]
fn property_units_never_zero_and_never_grow() {
    for seed in 400..600u64 {
        let (initial, _, trajectory) = run_cascade(seed, 80);
        let mut prev = initial.units;
        for (i, s) in trajectory.iter().enumerate() {
            assert!(s.units >= 1, "seed {seed} event {i}: zero units");
            assert!(
                s.units <= prev,
                "seed {seed} event {i}: units grew {prev} -> {}",
                s.units
            );
            prev = s.units;
        }
    }
}

/// A halted core absorbs every event except an external restore, which
/// rearms it on a fresh timeline.
#[test]
fn property_halt_absorbs_everything_but_restore() {
    for seed in 600..700u64 {
        let (_, _, trajectory) = run_cascade(seed, 80);
        let Some(halted) = trajectory.iter().find(|s| s.halted.is_some()) else {
            continue;
        };
        let frozen = halted.clone();
        for ev in [
            Event::AdvanceRequested,
            Event::StepComputed { step: 99 },
            Event::CheckpointSaved { step: 99 },
            Event::ComputeFailed {
                error: SuperstepError::Failure(SuperstepFailure {
                    superstep: 1,
                    dead_ranks: vec![0],
                    dropped_messages: 0,
                }),
            },
            Event::RollbackTargetFetched {
                step: Some(0),
                quarantined: 5,
            },
        ] {
            let (next, effects) = frozen.clone().apply(ev);
            assert_eq!(next, frozen, "seed {seed}: halted state mutated");
            assert!(effects.is_empty(), "seed {seed}: halted state acted");
        }
        let (revived, effects) = frozen.clone().apply(Event::ExternalRestore { step: 7 });
        assert!(effects.is_empty());
        assert!(revived.halted.is_none(), "restore must rearm");
        assert_eq!(revived.step, 7);
        assert_eq!(revived.attempt, 0);
        assert_eq!(revived.last_checkpoint_step, None);
        // The record streams survive the restore: history is never erased.
        assert_eq!(revived.recovery_log, frozen.recovery_log);
        assert_eq!(revived.integrity_log, frozen.integrity_log);
    }
}

/// The record streams are append-only along every trajectory, and every
/// recovery record respects the ladder's arithmetic: the rollback target is
/// at or below the failed step, survivors are positive, and the metered
/// backoff matches the policy for the recorded attempt.
#[test]
fn property_records_are_append_only_and_well_formed() {
    for seed in 700..900u64 {
        let (initial, _, trajectory) = run_cascade(seed, 80);
        let policy = initial.policy.expect("engaged");
        let (mut rlen, mut ilen) = (0usize, 0usize);
        for (i, s) in trajectory.iter().enumerate() {
            assert!(
                s.recovery_log.len() >= rlen && s.integrity_log.len() >= ilen,
                "seed {seed} event {i}: a record stream shrank"
            );
            rlen = s.recovery_log.len();
            ilen = s.integrity_log.len();
        }
        let last = trajectory.last().expect("non-empty");
        for r in &last.recovery_log {
            assert!(r.rollback_step <= r.failed_step, "seed {seed}: {r:?}");
            assert_eq!(r.replayed_steps, r.failed_step - r.rollback_step);
            assert!(r.survivors >= 1);
            assert!(r.attempt >= 1);
            assert_eq!(r.backoff_ns, policy.backoff_ns(r.attempt));
        }
    }
}

// ---------------------------------------------------------------------------
// Hand-built cascades pinning exact record sequences
// ---------------------------------------------------------------------------

fn engaged(units: usize) -> DriverState {
    DriverState::initial(
        units,
        Some(RecoveryPolicy {
            checkpoint_period: 4,
            max_retries: 3,
            backoff_base_ns: 1_000,
        }),
        true,
    )
}

/// Two injected corruptions, a scrub detection, and two quarantined
/// generations on the way to the target: quarantine records first, then one
/// attribution record per outstanding corruption, then the recovery —
/// the exact order the interleaved implementation produced.
#[test]
fn cascade_scrub_detection_with_quarantine_orders_records_exactly() {
    let s0 = engaged(4);
    let events = vec![
        Event::CheckpointSaved { step: 0 },
        Event::StepComputed { step: 0 },
        Event::CorruptionApplied {
            step: 1,
            superstep: 3,
        },
        Event::StepComputed { step: 1 },
        Event::CorruptionApplied {
            step: 2,
            superstep: 6,
        },
        Event::Scrubbed {
            verdict: Some(ScrubVerdict {
                violation: IntegrityViolation::SealMismatch {
                    expected: 1,
                    got: 2,
                },
                detector: IntegrityDetector::SealScrub,
            }),
        },
        Event::RollbackTargetFetched {
            step: Some(0),
            quarantined: 2,
        },
    ];
    let r = replay(s0, &events);
    assert!(r.halt.is_none());
    let ilog = &r.final_state.integrity_log;
    assert_eq!(ilog.len(), 4, "2 quarantines + 2 attributions: {ilog:?}");
    for q in &ilog[..2] {
        assert_eq!(q.kind, CorruptionKind::Checkpoint);
        assert_eq!(q.detector, IntegrityDetector::CheckpointSeal);
        assert_eq!(q.action, IntegrityAction::Quarantine);
    }
    assert_eq!(ilog[2].injected_step, 1, "oldest corruption first");
    assert_eq!(ilog[2].injected_superstep, 3);
    assert_eq!(ilog[3].injected_step, 2);
    assert_eq!(ilog[3].injected_superstep, 6);
    for a in &ilog[2..] {
        assert_eq!(a.kind, CorruptionKind::State);
        assert_eq!(a.detector, IntegrityDetector::SealScrub);
        assert_eq!(a.action, IntegrityAction::Rollback);
        assert_eq!(a.step, 2, "detected at the scrub of step 2");
    }
    let rlog = &r.final_state.recovery_log;
    assert_eq!(rlog.len(), 1);
    assert_eq!(rlog[0].failed_step, 2);
    assert_eq!(rlog[0].rollback_step, 0);
    assert_eq!(rlog[0].survivors, 4, "integrity rollback keeps geometry");
    assert_eq!(rlog[0].attempt, 1);
    assert!(r.final_state.outstanding.is_empty(), "attribution drained");
    assert_eq!(r.final_state.step, 0);
    assert_eq!(r.final_state.last_checkpoint_step, Some(0));
}

/// Rank deaths on every retry: the ladder climbs retransmit → rollback →
/// rollback → rollback, then fail-stops with `RetriesExhausted` after
/// exactly `max_retries` recoveries, shrinking the domain each time.
#[test]
fn cascade_death_storm_exhausts_the_ladder() {
    let mut state = engaged(8);
    let mut effects_seen = Vec::new();
    let kill = |rank: usize| Event::ComputeFailed {
        error: SuperstepError::Failure(SuperstepFailure {
            superstep: 10,
            dead_ranks: vec![rank],
            dropped_messages: 2,
        }),
    };
    let (s, _) = state.apply(Event::CheckpointSaved { step: 0 });
    state = s;
    for k in 0..4 {
        let (s, effs) = state.apply(kill(k));
        state = s;
        effects_seen.extend(effs.clone());
        for eff in effs {
            if let Effect::FetchRollbackTarget { verified_only } = eff {
                assert!(verified_only, "SDC defense is on");
                let (s, effs2) = state.apply(Event::RollbackTargetFetched {
                    step: Some(0),
                    quarantined: 0,
                });
                state = s;
                effects_seen.extend(effs2);
            }
        }
    }
    match &state.halted {
        Some(StopCause::RetriesExhausted { attempts, .. }) => {
            assert_eq!(*attempts, 4, "max_retries=3 gives up on attempt 4")
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    assert_eq!(state.recovery_log.len(), 3, "three recoveries before halt");
    let survivors: Vec<usize> = state.recovery_log.iter().map(|r| r.survivors).collect();
    assert_eq!(survivors, vec![7, 6, 5], "one rank lost per recovery");
    assert_eq!(state.units, 5);
    assert!(
        effects_seen
            .iter()
            .any(|e| matches!(e, Effect::Halt(StopCause::RetriesExhausted { .. }))),
        "the halt must surface as an effect"
    );
}

/// Every generation corrupt: the quarantine drains the store and the run
/// fail-stops naming the violation — after logging each quarantined
/// generation and the attribution, exactly as the live path did.
#[test]
fn cascade_store_exhaustion_fail_stops_with_full_forensics() {
    let s0 = engaged(4);
    let events = vec![
        Event::CheckpointSaved { step: 0 },
        Event::StepComputed { step: 0 },
        Event::Scrubbed {
            verdict: Some(ScrubVerdict {
                violation: IntegrityViolation::NonFinite {
                    field: "chemokine",
                    index: 17,
                },
                detector: IntegrityDetector::InvariantAudit,
            }),
        },
        Event::RollbackTargetFetched {
            step: None,
            quarantined: 3,
        },
    ];
    let r = replay(s0, &events);
    match &r.halt {
        Some(StopCause::Integrity { step, violation }) => {
            assert_eq!(*step, 1);
            assert!(matches!(violation, IntegrityViolation::NonFinite { .. }));
        }
        other => panic!("expected Integrity halt, got {other:?}"),
    }
    let ilog = &r.final_state.integrity_log;
    assert_eq!(ilog.len(), 4, "3 quarantines + 1 attribution: {ilog:?}");
    assert!(ilog[..3]
        .iter()
        .all(|q| q.action == IntegrityAction::Quarantine));
    assert_eq!(ilog[3].action, IntegrityAction::Rollback);
    assert_eq!(ilog[3].detector, IntegrityDetector::InvariantAudit);
    assert!(
        r.final_state.recovery_log.is_empty(),
        "no recovery happened"
    );
}

/// A failure before any checkpoint exists is immediately fatal — the core
/// must not even query the store.
#[test]
fn cascade_failure_without_a_checkpoint_is_unrecoverable() {
    let s0 = engaged(4);
    let (s1, effects) = s0.apply(Event::ComputeFailed {
        error: SuperstepError::Failure(SuperstepFailure {
            superstep: 0,
            dead_ranks: vec![2],
            dropped_messages: 0,
        }),
    });
    assert!(matches!(s1.halted, Some(StopCause::Unrecoverable(_))));
    assert_eq!(effects.len(), 1, "halt only, no store query: {effects:?}");
    assert!(matches!(effects[0], Effect::Halt(_)));
    assert!(!effects
        .iter()
        .any(|e| matches!(e, Effect::FetchRollbackTarget { .. })));
}

// ---------------------------------------------------------------------------
// Live-vs-replay equivalence on the real executors
// ---------------------------------------------------------------------------

fn params(seed: u64) -> SimParams {
    SimParams::test_config(GridDims::new2d(32, 32), 60, 8, seed)
}

fn death(superstep: u64, rank: usize) -> FaultEvent {
    FaultEvent {
        superstep,
        rank,
        kind: FaultKind::RankDeath,
    }
}

/// Replay a recorded run and assert the pure trajectory lands exactly on
/// the live control state and reproduces both record streams bit for bit.
fn assert_replay_matches<S: Simulation + ?Sized>(sim: &S) {
    let initial = sim
        .replay_initial_state()
        .expect("recording was enabled")
        .clone();
    let log = sim.event_log();
    assert!(!log.is_empty(), "a recorded run must have events");
    let r = replay(initial, log);
    let live = sim.control_state().expect("executor has a control plane");
    assert_eq!(
        &r.final_state, live,
        "replayed control state diverged from the live run"
    );
    assert_eq!(
        r.final_state.recovery_log.as_slice(),
        sim.recovery_log(),
        "replayed recovery stream diverged"
    );
}

/// CPU executor, rank death plus state corruption: the recorded event log
/// replays to the live control state with zero executor or store access.
#[test]
fn cpu_event_log_replays_to_the_live_control_state() {
    let plan = FaultPlan::from_events(vec![
        death(90, 1),
        FaultEvent {
            superstep: 60,
            rank: 0,
            kind: FaultKind::StateCorruption { seed: 0xDEAD },
        },
    ]);
    let mut sim =
        CpuSim::new(CpuSimConfig::new(params(3), 4).with_fault_plan(plan)).expect("valid config");
    sim.enable_event_recording();
    sim.run().expect("recovery absorbs both faults");
    assert!(
        !sim.recovery_log().is_empty(),
        "the cascade must actually recover"
    );
    assert_replay_matches(&sim);
    // The replayed integrity stream matches the shell's mirror too.
    let r = replay(
        sim.replay_initial_state().expect("recorded").clone(),
        sim.event_log(),
    );
    assert_eq!(
        r.final_state.integrity_log,
        sim.integrity_log(),
        "replayed integrity stream diverged"
    );
}

/// The same equivalence on the GPU executor.
#[test]
fn gpu_event_log_replays_to_the_live_control_state() {
    let plan = FaultPlan::from_events(vec![death(40, 2)]);
    let mut sim = GpuSim::new(
        GpuSimConfig::new(params(5), 4)
            .with_fault_plan(plan)
            .with_recovery(RecoveryPolicy {
                checkpoint_period: 4,
                ..RecoveryPolicy::default()
            }),
    )
    .expect("valid config");
    sim.enable_event_recording();
    sim.run().expect("recovery absorbs the death");
    assert_eq!(sim.recovery_log().len(), 1);
    assert_replay_matches(&sim);
}

/// A fatal run replays to the matching halt: the event log carries the
/// whole story including the terminal decision.
#[test]
fn fatal_run_replays_to_the_matching_halt() {
    let plan = FaultPlan::from_events((9..60).map(|s| death(s, 0)).collect());
    let mut sim = CpuSim::new(
        CpuSimConfig::new(params(13), 4)
            .with_fault_plan(plan)
            .with_recovery(RecoveryPolicy {
                checkpoint_period: 1,
                max_retries: 2,
                backoff_base_ns: 1_000,
            }),
    )
    .expect("valid config");
    sim.enable_event_recording();
    let err = sim.run().expect_err("the storm must exhaust retries");
    assert!(matches!(err, SimError::RetriesExhausted { .. }));
    let r = replay(
        sim.replay_initial_state().expect("recorded").clone(),
        sim.event_log(),
    );
    match r.halt {
        Some(StopCause::RetriesExhausted { attempts, .. }) => assert_eq!(attempts, 3),
        other => panic!("replay must reproduce the halt, got {other:?}"),
    }
    assert_replay_matches(&sim);
}

/// Recording mid-run: the snapshot taken at `enable_event_recording` is the
/// replay origin, so a log recorded from step 20 replays onto the live
/// state without needing the run's prefix.
#[test]
fn recording_started_mid_run_replays_from_its_snapshot() {
    let mut sim = CpuSim::new(CpuSimConfig::new(params(19), 4)).expect("valid config");
    for _ in 0..20 {
        sim.advance_step().expect("healthy step");
    }
    sim.enable_event_recording();
    assert_eq!(
        sim.replay_initial_state().expect("recorded").step,
        20,
        "snapshot taken at the recording point"
    );
    sim.run().expect("healthy run");
    assert_replay_matches(&sim);
}

/// The serial executor records the same event vocabulary (advance/compute/
/// restore) even though its control plane never needs recovery decisions.
#[test]
fn serial_event_log_replays_too() {
    let p = SimParams::test_config(GridDims::new2d(16, 16), 12, 2, 7);
    let mut sim = SerialDriver::new(p).expect("valid config");
    sim.enable_event_recording();
    sim.run().expect("healthy run");
    assert_replay_matches(&sim);
    assert_eq!(
        sim.control_state().expect("serial has a state").step,
        12,
        "pure step counter tracks the run"
    );
}
