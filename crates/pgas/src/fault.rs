//! Deterministic fault injection and failure reporting.
//!
//! The paper's exascale target assumes long multi-node runs where rank and
//! GPU failure is routine. This module gives the BSP runtime a *seeded,
//! reproducible* failure model so recovery machinery can be exercised and
//! benchmarked offline: a [`FaultPlan`] schedules rank deaths, message drops,
//! message duplications and slow-rank stalls at superstep boundaries, and
//! [`Bsp::try_superstep`] converts the injected faults into structural
//! detection ([`SuperstepFailure`]) exactly as a heartbeat/timeout layer
//! would on real hardware.
//!
//! Fault semantics at the superstep barrier:
//!
//! - **Rank death** — the rank's closure never runs, its heartbeat slot stays
//!   cold, and the barrier reports it in [`SuperstepFailure::dead_ranks`].
//! - **Message drop** — the rank computes but its outbox is lost in flight;
//!   the barrier reports the loss (payload acknowledgements are part of the
//!   delivery protocol, so drops are detectable).
//! - **Message duplication** — the network delivers a rank's outbox twice;
//!   the runtime's exactly-once layer suppresses the second copy and meters
//!   it in [`CommCounters::duplicates_suppressed`]. Not a failure.
//! - **Slow rank** — the rank is healthy but late; metered in
//!   [`CommCounters::stalls`] / [`CommCounters::stall_ns`] as simulated
//!   straggler time. Not a failure.
//! - **Inbox garble / inbox drop** — wire faults: the process transport
//!   garbles or loses the rank's inbox reply and heals it by re-request.
//!   In-process they do nothing.
//!
//! Under the process transport ([`crate::transport`]) a rank death also
//! SIGKILLs the rank's worker and a slow rank also makes its worker sleep,
//! so one plan drives both the logical and the wire faults.
//!
//! [`Bsp::try_superstep`]: crate::bsp::Bsp::try_superstep
//! [`CommCounters::duplicates_suppressed`]: crate::CommCounters
//! [`CommCounters::stalls`]: crate::CommCounters
//! [`CommCounters::stall_ns`]: crate::CommCounters

use std::fmt;

/// What kind of fault strikes a rank at a superstep boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The rank dies before computing: no heartbeat, no outbox.
    RankDeath,
    /// The rank computes, but its outgoing messages are lost in flight.
    MessageDrop,
    /// The network delivers the rank's outbox twice; the exactly-once layer
    /// suppresses the duplicates.
    MessageDuplicate,
    /// The rank is `stall_ns` nanoseconds late to the barrier. Metered;
    /// in-process never slept. Under the process transport the rank's
    /// worker also sleeps `stall_ns` before its next reply, so a stall past
    /// the deadline × retry budget classifies the peer as timed out.
    SlowRank { stall_ns: u64 },
    /// The network reorders the rank's *incoming* deliveries within the
    /// superstep: its assembled inbox is permuted with a shuffle seeded from
    /// `seed` (and the superstep/rank indices, so repeated events give
    /// distinct permutations). Not a failure — the schedule-adversarial
    /// suite uses this to prove the model is delivery-order independent.
    DeliveryShuffle { seed: u64 },
    /// Silent data corruption in flight: one seeded bit flip lands in one of
    /// the rank's outgoing coalesced (src, dst) mailbox batches after the
    /// send-side checksum is taken. Detected by the delivery-side CRC64
    /// verify; healed by an in-barrier retransmit (or surfaced as an
    /// [`IntegrityFailure`] when the retransmit budget is exhausted).
    PayloadCorruption { seed: u64 },
    /// Silent data corruption at rest: one seeded bit flip lands in the
    /// rank's resident voxel/cohort state between supersteps. The BSP layer
    /// only *schedules* it (state layout is application-owned); the executor
    /// applies the flip after the step's seal is taken, and the driver's
    /// seal-scrub catches it before the next step consumes the state.
    StateCorruption { seed: u64 },
    /// One seeded bit flips in the rank's inbox reply on the wire. `sticky`
    /// garbles every re-request too, exhausting the transport's retry
    /// budget into an [`IntegrityFailure`]; otherwise the first re-request
    /// heals it. Only the process transport reads it.
    InboxGarble { seed: u64, sticky: bool },
    /// The rank's inbox reply is lost on the wire once, forcing a
    /// re-request. Only the process transport reads it.
    InboxDrop,
}

/// One scheduled fault: `kind` strikes `rank` at global superstep index
/// `superstep` (the runtime's cumulative [`supersteps`] counter, which keeps
/// increasing across rollbacks — a replayed superstep gets a fresh index, so
/// a scheduled fault fires exactly once).
///
/// `rank` is interpreted modulo the runtime's *current* rank count at fire
/// time, so a plan generated for `n` ranks remains valid after recovery
/// shrinks the domain.
///
/// [`supersteps`]: crate::CommCounters::supersteps
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    pub superstep: u64,
    pub rank: usize,
    pub kind: FaultKind,
}

/// Per-rank per-superstep fault probabilities for [`FaultPlan::seeded`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability a rank dies at a given superstep boundary.
    pub death: f64,
    /// Probability a rank's outbox is dropped.
    pub drop: f64,
    /// Probability a rank's outbox is duplicated.
    pub duplicate: f64,
    /// Probability a rank stalls.
    pub stall: f64,
    /// Simulated lateness of each stall, nanoseconds.
    pub stall_ns: u64,
    /// Probability a bit flip lands in one of the rank's in-flight mailbox
    /// batches ([`FaultKind::PayloadCorruption`]).
    pub payload_corruption: f64,
    /// Probability a bit flip lands in the rank's resident state between
    /// supersteps ([`FaultKind::StateCorruption`]).
    pub state_corruption: f64,
}

impl Default for FaultRates {
    fn default() -> Self {
        FaultRates {
            death: 0.0,
            drop: 0.0,
            duplicate: 0.0,
            stall: 0.0,
            stall_ns: 50_000,
            payload_corruption: 0.0,
            state_corruption: 0.0,
        }
    }
}

/// A deterministic schedule of faults, sorted by superstep index.
///
/// The plan is consumed as the runtime executes: [`FaultPlan::take_due`]
/// returns (and retires) every event scheduled at or before the given
/// superstep. An empty plan costs one branch per superstep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Remaining events, sorted ascending by `superstep`.
    events: Vec<FaultEvent>,
    /// Index of the first unconsumed event.
    cursor: usize,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Build a plan from explicit events (sorted internally).
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.superstep);
        FaultPlan { events, cursor: 0 }
    }

    /// Sample a plan from per-rank per-superstep `rates`, deterministically
    /// from `seed`, covering superstep indices `0..horizon` for `n_ranks`
    /// ranks. The same `(seed, rates, n_ranks, horizon)` always produces the
    /// same plan.
    pub fn seeded(seed: u64, rates: &FaultRates, n_ranks: usize, horizon: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut events = Vec::new();
        for superstep in 0..horizon {
            for rank in 0..n_ranks {
                // Draw all four channels unconditionally so the stream
                // consumed per (superstep, rank) cell is fixed — editing one
                // rate never reshuffles the other channels.
                let u_death = rng.next_f64();
                let u_drop = rng.next_f64();
                let u_dup = rng.next_f64();
                let u_stall = rng.next_f64();
                if u_death < rates.death {
                    events.push(FaultEvent {
                        superstep,
                        rank,
                        kind: FaultKind::RankDeath,
                    });
                } else if u_drop < rates.drop {
                    events.push(FaultEvent {
                        superstep,
                        rank,
                        kind: FaultKind::MessageDrop,
                    });
                } else if u_dup < rates.duplicate {
                    events.push(FaultEvent {
                        superstep,
                        rank,
                        kind: FaultKind::MessageDuplicate,
                    });
                } else if u_stall < rates.stall {
                    events.push(FaultEvent {
                        superstep,
                        rank,
                        kind: FaultKind::SlowRank {
                            stall_ns: rates.stall_ns,
                        },
                    });
                }
            }
        }
        // The SDC channels draw from their own decorrelated stream so plans
        // sampled before corruption rates existed stay byte-stable, and
        // editing a corruption rate never reshuffles the fail-stop channels.
        if rates.payload_corruption > 0.0 || rates.state_corruption > 0.0 {
            let mut rng = SplitMix64::new(seed ^ 0x5DC5_DC5D_C5DC_5DC5);
            for superstep in 0..horizon {
                for rank in 0..n_ranks {
                    // Four draws per cell, unconditionally, for the same
                    // stream-stability reason as above.
                    let u_payload = rng.next_f64();
                    let u_state = rng.next_f64();
                    let s_payload = rng.next_u64();
                    let s_state = rng.next_u64();
                    if u_payload < rates.payload_corruption {
                        events.push(FaultEvent {
                            superstep,
                            rank,
                            kind: FaultKind::PayloadCorruption { seed: s_payload },
                        });
                    } else if u_state < rates.state_corruption {
                        events.push(FaultEvent {
                            superstep,
                            rank,
                            kind: FaultKind::StateCorruption { seed: s_state },
                        });
                    }
                }
            }
            // Stable sort: fail-stop events keep preceding same-superstep
            // corruption events, so merged plans stay deterministic.
            events.sort_by_key(|e| e.superstep);
        }
        FaultPlan { events, cursor: 0 }
    }

    /// A schedule that permutes every rank's delivery order at every
    /// superstep in `0..horizon` — the adversarial message schedule. Each
    /// (superstep, rank) cell gets a distinct permutation derived from
    /// `seed`, so the whole storm is reproducible.
    pub fn shuffled(seed: u64, n_ranks: usize, horizon: u64) -> Self {
        let mut events = Vec::with_capacity(n_ranks * horizon as usize);
        for superstep in 0..horizon {
            for rank in 0..n_ranks {
                events.push(FaultEvent {
                    superstep,
                    rank,
                    kind: FaultKind::DeliveryShuffle { seed },
                });
            }
        }
        FaultPlan { events, cursor: 0 }
    }

    /// True if no events remain to fire.
    pub fn is_exhausted(&self) -> bool {
        self.cursor >= self.events.len()
    }

    /// Number of events not yet fired.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }

    /// All scheduled events (fired and pending), in superstep order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Does the plan schedule any silent-data-corruption event? The runtime
    /// uses this to auto-engage batch checksumming and state seal-scrubbing
    /// only when corruption can actually strike, keeping the healthy hot
    /// path untouched.
    pub fn has_corruption(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(
                e.kind,
                FaultKind::PayloadCorruption { .. } | FaultKind::StateCorruption { .. }
            )
        })
    }

    /// Consume and return every event scheduled at or before `superstep`.
    /// Returns an empty slice's worth of nothing fast when the plan is idle.
    pub fn take_due(&mut self, superstep: u64) -> &[FaultEvent] {
        let start = self.cursor;
        while self.cursor < self.events.len() && self.events[self.cursor].superstep <= superstep {
            self.cursor += 1;
        }
        &self.events[start..self.cursor]
    }
}

/// A superstep that did not complete cleanly: ranks went missing at the
/// barrier and/or in-flight messages were lost. The runtime's state is
/// not trustworthy after a failure — callers roll back to a checkpoint and
/// rebuild (see the driver crate's recovery loop).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperstepFailure {
    /// Global superstep index (cumulative counter) at which the failure hit.
    pub superstep: u64,
    /// Ranks whose heartbeat was missing at the barrier.
    pub dead_ranks: Vec<usize>,
    /// Point-to-point + bulk messages lost in flight.
    pub dropped_messages: u64,
}

impl fmt::Display for SuperstepFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "superstep {} failed: {} dead rank(s) {:?}, {} message(s) dropped",
            self.superstep,
            self.dead_ranks.len(),
            self.dead_ranks,
            self.dropped_messages
        )
    }
}

impl std::error::Error for SuperstepFailure {}

/// A superstep during which the delivery-side CRC64 verify found corrupt
/// coalesced batches that could **not** all be healed within the barrier
/// (the per-superstep retransmit budget ran out). The delivered inboxes are
/// not trustworthy — callers roll back to a verified checkpoint exactly as
/// for a [`SuperstepFailure`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityFailure {
    /// Global superstep index (cumulative counter) at which corruption hit.
    pub superstep: u64,
    /// Coalesced batches whose delivery-side CRC64 mismatched.
    pub corrupt_batches: u64,
    /// Batches healed by an in-barrier retransmit.
    pub healed: u64,
    /// Batches left corrupt after the retransmit budget was exhausted.
    pub unhealed: u64,
}

impl fmt::Display for IntegrityFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "superstep {} integrity failure: {} corrupt batch(es), {} healed in-barrier, {} beyond the retransmit budget",
            self.superstep, self.corrupt_batches, self.healed, self.unhealed
        )
    }
}

impl std::error::Error for IntegrityFailure {}

/// Why a superstep did not complete cleanly: a fail-stop structural failure
/// (dead ranks / lost messages) or a data-integrity failure (unhealed
/// corrupt batches). When both strike the same superstep the structural
/// failure takes precedence — rollback covers both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SuperstepError {
    /// Ranks died or messages were lost; see [`SuperstepFailure`].
    Failure(SuperstepFailure),
    /// Corrupt batches survived the in-barrier retransmit budget.
    Integrity(IntegrityFailure),
}

impl SuperstepError {
    /// Global superstep index at which the error hit.
    pub fn superstep(&self) -> u64 {
        match self {
            SuperstepError::Failure(f) => f.superstep,
            SuperstepError::Integrity(i) => i.superstep,
        }
    }
}

impl fmt::Display for SuperstepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuperstepError::Failure(e) => e.fmt(f),
            SuperstepError::Integrity(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SuperstepError {}

impl From<SuperstepFailure> for SuperstepError {
    fn from(f: SuperstepFailure) -> Self {
        SuperstepError::Failure(f)
    }
}

impl From<IntegrityFailure> for SuperstepError {
    fn from(f: IntegrityFailure) -> Self {
        SuperstepError::Integrity(f)
    }
}

/// Which class of silent data corruption an [`IntegrityRecord`] concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// A bit flip in an in-flight coalesced mailbox batch.
    Payload,
    /// A bit flip in a rank's resident voxel/cohort state.
    State,
    /// A bit flip inside a stored checkpoint generation.
    Checkpoint,
}

impl CorruptionKind {
    pub fn name(&self) -> &'static str {
        match self {
            CorruptionKind::Payload => "payload",
            CorruptionKind::State => "state",
            CorruptionKind::Checkpoint => "checkpoint",
        }
    }
}

/// Which detector in the lattice caught the corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityDetector {
    /// Delivery-side CRC64 over a coalesced (src, dst) batch.
    BatchCrc,
    /// End-of-step state seal verified before the next step consumes it.
    SealScrub,
    /// ABFT conservation-invariant audit (exact summation).
    InvariantAudit,
    /// CRC64 seal over a stored checkpoint generation.
    CheckpointSeal,
}

impl IntegrityDetector {
    pub fn name(&self) -> &'static str {
        match self {
            IntegrityDetector::BatchCrc => "batch-crc",
            IntegrityDetector::SealScrub => "seal-scrub",
            IntegrityDetector::InvariantAudit => "invariant-audit",
            IntegrityDetector::CheckpointSeal => "checkpoint-seal",
        }
    }
}

/// Which rung of the self-healing ladder repaired the damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityAction {
    /// The corrupt batch was retransmitted within the barrier.
    Retransmit,
    /// The run rolled back to the last verified checkpoint and replayed.
    Rollback,
    /// A corrupt checkpoint generation was quarantined; recovery fell back
    /// to an older generation.
    Quarantine,
}

impl IntegrityAction {
    pub fn name(&self) -> &'static str {
        match self {
            IntegrityAction::Retransmit => "retransmit",
            IntegrityAction::Rollback => "rollback",
            IntegrityAction::Quarantine => "quarantine",
        }
    }
}

/// A [`FaultKind::StateCorruption`] strike collected by the BSP layer for
/// the executor to apply — the runtime schedules the flip but cannot touch
/// application-owned rank state. `superstep` is the global index at which
/// the strike was scheduled (used for detection-latency accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingStateCorruption {
    pub superstep: u64,
    pub rank: usize,
    pub seed: u64,
}

/// One detected (and healed) corruption, surfaced through the metrics layer
/// (`gpusim::metrics::StepRecord::integrity`) so bench artifacts can plot
/// detection latency and recovery cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityRecord {
    /// Simulation step at which the corruption was *detected*.
    pub step: u64,
    /// Simulation step at which the corruption was *injected* (equal to
    /// `step` for in-barrier batch detection; earlier for state corruption
    /// caught by a later scrub). `step - injected_step` is the detection
    /// latency the SDC sweep plots.
    pub injected_step: u64,
    /// Global superstep index at detection (0 for step-boundary detectors).
    pub superstep: u64,
    /// Global superstep index at which the corruption was *injected* (equal
    /// to `superstep` for in-barrier batch detection).
    pub injected_superstep: u64,
    /// What was corrupted.
    pub kind: CorruptionKind,
    /// Which detector caught it.
    pub detector: IntegrityDetector,
    /// Which healing tier repaired it.
    pub action: IntegrityAction,
}

/// One recovery performed by the driver: rollback to a checkpoint,
/// re-partition across survivors, replay. Surfaced through the metrics layer
/// (`gpusim::metrics::StepRecord::recoveries`) so bench artifacts can plot
/// recovery cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryRecord {
    /// Simulation step that was being computed when the failure hit.
    pub failed_step: u64,
    /// Global superstep index of the failed superstep.
    pub superstep: u64,
    /// Ranks declared dead (empty for pure message-loss failures).
    pub dead_ranks: Vec<usize>,
    /// Messages lost in flight.
    pub dropped_messages: u64,
    /// Step the run was rolled back to (the checkpointed step).
    pub rollback_step: u64,
    /// Steps that had to be recomputed: `failed_step - rollback_step`.
    pub replayed_steps: u64,
    /// Rank count after re-partitioning.
    pub survivors: usize,
    /// 1-based retry attempt within one driver advance.
    pub attempt: u32,
    /// Simulated backoff before this attempt, nanoseconds.
    pub backoff_ns: u64,
}

/// SplitMix64 — tiny, seedable, full-period; used only for fault sampling,
/// delivery shuffles and corruption targeting so the model's counter-based
/// RNG stream is untouched. Public so the fault-injection layers in other
/// crates (state bit flips in executors, checkpoint corruption in the
/// driver) derive their targets from the same deterministic generator.
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plan_is_deterministic() {
        let rates = FaultRates {
            death: 0.02,
            drop: 0.05,
            duplicate: 0.05,
            stall: 0.1,
            stall_ns: 1000,
            ..FaultRates::default()
        };
        let a = FaultPlan::seeded(42, &rates, 8, 200);
        let b = FaultPlan::seeded(42, &rates, 8, 200);
        assert_eq!(a, b);
        assert!(!a.is_exhausted(), "rates this high must yield events");
        let c = FaultPlan::seeded(43, &rates, 8, 200);
        assert_ne!(a, c, "different seed, different plan");
    }

    #[test]
    fn seeded_plan_rate_is_plausible() {
        let rates = FaultRates {
            death: 0.1,
            ..FaultRates::default()
        };
        let plan = FaultPlan::seeded(7, &rates, 10, 1000);
        // Expect ~1000 deaths out of 10_000 cells; accept a wide band.
        let n = plan.events().len();
        assert!((700..1300).contains(&n), "got {n} events");
        assert!(plan.events().iter().all(|e| e.kind == FaultKind::RankDeath));
    }

    #[test]
    fn take_due_consumes_in_order() {
        let mut plan = FaultPlan::from_events(vec![
            FaultEvent {
                superstep: 5,
                rank: 1,
                kind: FaultKind::MessageDrop,
            },
            FaultEvent {
                superstep: 2,
                rank: 0,
                kind: FaultKind::RankDeath,
            },
            FaultEvent {
                superstep: 5,
                rank: 2,
                kind: FaultKind::MessageDuplicate,
            },
        ]);
        assert_eq!(plan.remaining(), 3);
        assert!(plan.take_due(1).is_empty());
        let due = plan.take_due(2);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].kind, FaultKind::RankDeath);
        let due = plan.take_due(10);
        assert_eq!(due.len(), 2);
        assert!(plan.is_exhausted());
        assert!(plan.take_due(u64::MAX).is_empty());
    }

    #[test]
    fn corruption_rates_sample_their_own_stream() {
        // Turning corruption on must not disturb the fail-stop channels.
        let fail_stop = FaultRates {
            death: 0.01,
            drop: 0.02,
            ..FaultRates::default()
        };
        let with_sdc = FaultRates {
            payload_corruption: 0.05,
            state_corruption: 0.05,
            ..fail_stop
        };
        let legacy = FaultPlan::seeded(42, &fail_stop, 8, 200);
        let merged = FaultPlan::seeded(42, &with_sdc, 8, 200);
        let merged_fail_stop: Vec<_> = merged
            .events()
            .iter()
            .filter(|e| {
                !matches!(
                    e.kind,
                    FaultKind::PayloadCorruption { .. } | FaultKind::StateCorruption { .. }
                )
            })
            .copied()
            .collect();
        assert_eq!(legacy.events(), merged_fail_stop.as_slice());
        assert!(merged.has_corruption());
        assert!(!legacy.has_corruption());
        // Corruption event seeds must differ between events (each flip
        // targets a different bit).
        let seeds: Vec<u64> = merged
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::PayloadCorruption { seed } | FaultKind::StateCorruption { seed } => {
                    Some(seed)
                }
                _ => None,
            })
            .collect();
        assert!(seeds.len() > 10, "rates this high must yield corruptions");
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "per-event seeds must be unique");
        // Still sorted by superstep — take_due relies on it.
        assert!(merged
            .events()
            .windows(2)
            .all(|w| w[0].superstep <= w[1].superstep));
    }

    #[test]
    fn integrity_failure_displays_and_wraps() {
        let i = IntegrityFailure {
            superstep: 9,
            corrupt_batches: 3,
            healed: 2,
            unhealed: 1,
        };
        let s = format!("{i}");
        assert!(s.contains("superstep 9"));
        assert!(s.contains("3 corrupt batch(es)"));
        assert!(s.contains("1 beyond the retransmit budget"));
        let e = SuperstepError::from(i.clone());
        assert_eq!(e.superstep(), 9);
        assert_eq!(format!("{e}"), s);
        let f = SuperstepError::from(SuperstepFailure {
            superstep: 4,
            dead_ranks: vec![1],
            dropped_messages: 0,
        });
        assert_eq!(f.superstep(), 4);
    }

    #[test]
    fn zero_rates_yield_empty_plan() {
        let plan = FaultPlan::seeded(1, &FaultRates::default(), 64, 10_000);
        assert!(plan.is_exhausted());
        assert_eq!(plan, FaultPlan::none());
    }

    #[test]
    fn failure_displays() {
        let f = SuperstepFailure {
            superstep: 17,
            dead_ranks: vec![3],
            dropped_messages: 2,
        };
        let s = format!("{f}");
        assert!(s.contains("superstep 17"));
        assert!(s.contains("[3]"));
        assert!(s.contains("2 message(s)"));
    }
}
