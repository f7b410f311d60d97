//! Superstep execution over logical ranks.
//!
//! A [`Bsp`] instance owns the per-rank inboxes for one message type. Each
//! [`Bsp::superstep`] call runs a rank function over all ranks in parallel,
//! giving each its inbox (messages addressed to it during the *previous*
//! superstep) and an [`Outbox`] for new messages. This mirrors UPC++ RPCs as
//! SIMCoV uses them: enqueue during compute, observe effects after the next
//! progress/barrier boundary.
//!
//! Delivery is canonicalized: a rank's inbox holds messages ordered by
//! (source rank, emission order within the source). Together with the
//! counter-based model RNG this makes multi-rank execution bit-reproducible.
//!
//! The exchange itself runs on the double-buffered lock-free mailbox layer
//! (see [`crate::mailbox`]): an outbox holds one batch per destination it
//! wrote, each batch ships as one length-prefixed frame at the barrier, and
//! the per-rank inbox buffers swap front/back so allocations are reused.

use crate::counters::{CommCounters, WireSize};
use crate::crc::Payload;
use crate::fault::{
    CorruptionKind, FaultKind, FaultPlan, IntegrityAction, IntegrityDetector, IntegrityFailure,
    IntegrityRecord, PendingStateCorruption, SuperstepError, SuperstepFailure,
};
use crate::mailbox::{ExchangeFaults, Mailboxes, Outbox};
use crate::pool::WorkPool;
use crate::transport::{
    ExchangeTransport, ProcessTransport, ProcessTransportConfig, TransportCounters, WireOutcome,
};
use crate::wire::WireCodec;
use simcov_telemetry::{Histogram, RankWalls, SpanKind, Telemetry};

/// Corrupt batches healed per superstep before the superstep is failed and
/// the driver's rollback tier takes over. Real interconnects bound the
/// retransmit window the same way; tests lower it to force the escalation.
pub const DEFAULT_RETRANSMIT_BUDGET: u64 = 8;

/// A BSP domain over `n_ranks` logical ranks exchanging messages of type `M`.
pub struct Bsp<M> {
    n_ranks: usize,
    /// Double-buffered inboxes (front read during compute, back assembled at
    /// the barrier).
    mail: Mailboxes<M>,
    /// Per-rank sparse outboxes, reused superstep over superstep.
    outboxes: Vec<Outbox<M>>,
    pub counters: CommCounters,
    /// Scheduled fault injections (empty by default; see
    /// [`Bsp::inject_faults`]).
    plan: FaultPlan,
    /// Compute + verify per-batch CRC64 checksums at every exchange.
    /// Auto-engaged when the armed plan schedules corruption; off on the
    /// healthy hot path.
    verify_batches: bool,
    /// Corrupt batches healed in-barrier per superstep before escalating.
    retransmit_budget: u64,
    /// State-corruption strikes collected from the plan, awaiting the
    /// executor (the BSP cannot touch application state).
    pending_state: Vec<PendingStateCorruption>,
    /// In-barrier batch heals awaiting the driver's metrics drain.
    integrity_records: Vec<IntegrityRecord>,
    /// Unified telemetry handle (disabled by default; see
    /// [`Bsp::attach_telemetry`]). When enabled, every superstep records a
    /// span hierarchy: superstep → per-rank compute + exchange.
    telemetry: Telemetry,
    /// Superstep wall-clock histogram registered on the telemetry registry.
    superstep_hist: Option<Histogram>,
    /// Per-superstep rank wall clocks awaiting the driver's health drain.
    rank_walls: Vec<RankWalls>,
    /// Reusable per-rank wall scratch (one slot per rank, unique writer).
    wall_scratch: Vec<u64>,
    /// Optional process transport (see [`crate::transport`]): when attached,
    /// every barrier exchange round-trips the staged batches through
    /// per-rank worker processes before logical delivery.
    transport: Option<Box<dyn ExchangeTransport<M>>>,
    /// Last wire-counter snapshot from the transport; survives graceful
    /// degradation back to the in-process path.
    wire_counters: TransportCounters,
}

impl<M: Send + Sync + WireSize + Payload> Bsp<M> {
    pub fn new(n_ranks: usize) -> Self {
        assert!(n_ranks >= 1);
        Bsp {
            n_ranks,
            mail: Mailboxes::new(n_ranks),
            outboxes: (0..n_ranks).map(|_| Outbox::for_ranks(n_ranks)).collect(),
            counters: CommCounters::new(),
            plan: FaultPlan::none(),
            verify_batches: false,
            retransmit_budget: DEFAULT_RETRANSMIT_BUDGET,
            pending_state: Vec::new(),
            integrity_records: Vec::new(),
            telemetry: Telemetry::disabled(),
            superstep_hist: None,
            rank_walls: Vec::new(),
            wall_scratch: Vec::new(),
            transport: None,
            wire_counters: TransportCounters::default(),
        }
    }

    /// Arm a fault schedule. Events fire at the global superstep index
    /// recorded in [`CommCounters::supersteps`], which keeps increasing
    /// across rollbacks — a replayed superstep never re-fires a past fault.
    ///
    /// Arming a plan that schedules corruption auto-engages batch
    /// verification for the rest of the run (every coalesced batch then
    /// carries a CRC64 trailer verified at delivery).
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.verify_batches = self.verify_batches || plan.has_corruption();
        self.plan = plan;
    }

    /// The currently armed fault schedule.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Force batch CRC verification on even without a corruption plan
    /// (used by overhead benches and the false-positive sweeps).
    pub fn enable_integrity(&mut self) {
        self.verify_batches = true;
    }

    /// Cap the corrupt batches healed in-barrier per superstep; anything
    /// beyond fails the superstep with an [`IntegrityFailure`].
    pub fn set_retransmit_budget(&mut self, budget: u64) {
        self.retransmit_budget = budget;
    }

    /// Drain the state-corruption strikes collected so far. The executor
    /// applies each to the owning rank's resident state *after* the driver
    /// seals the step, so the seal-scrub catches the flip before the next
    /// step consumes it.
    pub fn take_pending_state_corruptions(&mut self) -> Vec<PendingStateCorruption> {
        std::mem::take(&mut self.pending_state)
    }

    /// Drain the in-barrier heal records (one per retransmitted batch) for
    /// the metrics stream. `step` is left 0 — the driver stamps it.
    pub fn take_integrity_records(&mut self) -> Vec<IntegrityRecord> {
        std::mem::take(&mut self.integrity_records)
    }

    /// Consume this runtime and return a fresh one over `n_ranks` ranks,
    /// carrying the cumulative counters and remaining fault plan forward.
    /// Used by recovery: after a rank death the driver rolls back to a
    /// checkpoint and rebuilds the domain across the survivors —
    /// in-flight messages from the failed epoch must not leak into the new
    /// one, so inboxes start empty. Integrity settings and still-pending
    /// state corruption carry over: a DRAM bit flip does not heal itself
    /// just because the epoch was rebuilt.
    pub fn rebuilt(self, n_ranks: usize) -> Bsp<M> {
        assert!(n_ranks >= 1);
        // Respawn the transport's worker set for the new domain; if that
        // fails, degrade gracefully to the in-process path rather than
        // abandon the recovery (the wire counters record the degradation).
        let mut wire_counters = self.wire_counters;
        let transport = match self.transport {
            Some(mut t) => {
                let ok = t.rebuilt(n_ranks);
                wire_counters = t.counters();
                if ok {
                    Some(t)
                } else {
                    None
                }
            }
            None => None,
        };
        Bsp {
            n_ranks,
            mail: Mailboxes::new(n_ranks),
            outboxes: (0..n_ranks).map(|_| Outbox::for_ranks(n_ranks)).collect(),
            counters: self.counters,
            plan: self.plan,
            verify_batches: self.verify_batches,
            retransmit_budget: self.retransmit_budget,
            pending_state: self.pending_state,
            integrity_records: self.integrity_records,
            telemetry: self.telemetry,
            superstep_hist: self.superstep_hist,
            rank_walls: self.rank_walls,
            wall_scratch: Vec::new(),
            transport,
            wire_counters,
        }
    }

    /// Attach a unified telemetry handle. With an enabled handle every
    /// superstep records a span hierarchy (superstep → per-rank compute +
    /// exchange, parented under the driver's published step span), samples
    /// per-rank wall clocks for the health monitor, and feeds the superstep
    /// wall histogram on the handle's registry. A disabled handle (the
    /// default) costs one branch per superstep.
    pub fn attach_telemetry(&mut self, t: Telemetry) {
        self.superstep_hist = t.registry().map(|r| {
            r.histogram(
                "pgas_superstep_wall_ns",
                "Wall-clock nanoseconds per BSP superstep",
            )
        });
        self.telemetry = t;
    }

    /// The attached telemetry handle (disabled unless
    /// [`Bsp::attach_telemetry`] installed an enabled one).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Drain the per-superstep rank wall-clock samples collected since the
    /// last drain (empty unless an enabled telemetry handle is attached).
    /// Walls include injected slow-rank stall time, so seeded stragglers
    /// are visible to the health monitor.
    pub fn take_rank_walls(&mut self) -> Vec<RankWalls> {
        std::mem::take(&mut self.rank_walls)
    }

    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// Messages currently pending for `rank` (delivered next superstep).
    pub fn pending(&self, rank: usize) -> usize {
        self.mail.pending(rank)
    }

    /// Execute one superstep: `f(rank, state, inbox, outbox) -> R` runs for
    /// every rank (in parallel on `pool`), then all outboxes are delivered.
    /// Returns the per-rank results in rank order.
    ///
    /// Infallible wrapper over [`Bsp::try_superstep`]: with no fault plan
    /// armed a superstep cannot fail; with one armed, an unhandled failure
    /// panics (drivers that arm faults use `try_superstep` and recover).
    pub fn superstep<S, R, F>(&mut self, pool: &WorkPool, states: &mut [S], f: F) -> Vec<R>
    where
        S: Send,
        R: Send + Default,
        F: Fn(usize, &mut S, &[M], &mut Outbox<M>) -> R + Sync,
    {
        self.try_superstep(pool, states, f)
            .unwrap_or_else(|e| panic!("unrecovered superstep failure: {e}"))
    }

    /// Execute one superstep, reporting failures instead of panicking.
    ///
    /// Faults due at this superstep (per the armed [`FaultPlan`]) are
    /// injected: dead ranks never run and leave their heartbeat slot cold;
    /// dropped outboxes are discarded in flight; duplicated outboxes are
    /// delivered once with the copies metered in
    /// [`CommCounters::duplicates_suppressed`]; stalls are metered in
    /// [`CommCounters::stalls`]. At the barrier, missing heartbeats and
    /// message loss surface as [`SuperstepFailure`].
    ///
    /// On `Err` the runtime's inboxes are *not* trustworthy (the failed
    /// epoch's messages are partially delivered) — callers roll back to a
    /// checkpoint and rebuild via [`Bsp::rebuilt`]. The superstep counter
    /// still advances, so the retried superstep gets a fresh fault index.
    ///
    /// With integrity verification engaged, every coalesced batch is CRC64
    /// verified at delivery. Corrupt batches are healed by in-barrier
    /// retransmits up to the budget; beyond it the superstep fails with
    /// [`SuperstepError::Integrity`]. A structural failure (dead ranks,
    /// lost messages) takes precedence when both strike the same superstep.
    pub fn try_superstep<S, R, F>(
        &mut self,
        pool: &WorkPool,
        states: &mut [S],
        f: F,
    ) -> Result<Vec<R>, SuperstepError>
    where
        S: Send,
        R: Send + Default,
        F: Fn(usize, &mut S, &[M], &mut Outbox<M>) -> R + Sync,
    {
        assert_eq!(states.len(), self.n_ranks, "one state per rank");
        let step_index = self.counters.supersteps;
        let tel = self.telemetry.clone();
        let tel_on = tel.is_enabled();
        let ss_open = tel.open();

        // Collect faults due now. Ranks are interpreted modulo the current
        // rank count so plans stay valid after an elastic shrink.
        let mut killed: Vec<usize> = Vec::new();
        let mut drops: Vec<usize> = Vec::new();
        let mut dups: Vec<usize> = Vec::new();
        let mut shuffles: Vec<(usize, u64)> = Vec::new();
        let mut corruptions: Vec<(usize, u64)> = Vec::new();
        let mut stalls: Vec<(usize, u64)> = Vec::new();
        // The due events also go to an attached transport, which reads the
        // wire ones (rank deaths, stalls, inbox garbles and drops).
        let due = self.plan.take_due(step_index);
        if !due.is_empty() {
            let n = self.n_ranks;
            for ev in due {
                let rank = ev.rank % n;
                match ev.kind {
                    FaultKind::RankDeath => killed.push(rank),
                    FaultKind::MessageDrop => drops.push(rank),
                    FaultKind::MessageDuplicate => dups.push(rank),
                    FaultKind::SlowRank { stall_ns } => {
                        self.counters.stalls += 1;
                        self.counters.stall_ns += stall_ns;
                        // Attribute the stall to its rank so telemetry walls
                        // (and the straggler detector) see it.
                        stalls.push((rank, stall_ns));
                    }
                    FaultKind::DeliveryShuffle { seed } => {
                        // Distinct permutation per (superstep, rank), still
                        // fully determined by the planted seed.
                        let stream = seed
                            .wrapping_add(step_index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                            .wrapping_add((rank as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
                        shuffles.push((rank, stream));
                    }
                    FaultKind::PayloadCorruption { seed } => corruptions.push((rank, seed)),
                    FaultKind::StateCorruption { seed } => {
                        self.pending_state.push(PendingStateCorruption {
                            superstep: step_index,
                            rank,
                            seed,
                        });
                    }
                    FaultKind::InboxGarble { .. } | FaultKind::InboxDrop => {}
                }
            }
            killed.sort_unstable();
            killed.dedup();
        }

        for ob in &mut self.outboxes {
            ob.clear();
        }

        // Per-rank result, outbox and heartbeat slots, written exclusively
        // by the rank that owns them.
        let mut results: Vec<R> = (0..self.n_ranks).map(|_| R::default()).collect();
        let mut heartbeats: Vec<bool> = vec![false; self.n_ranks];
        if tel_on {
            self.wall_scratch.clear();
            self.wall_scratch.resize(self.n_ranks, 0);
        }

        {
            struct Slots<S, R, M> {
                states: *mut S,
                results: *mut R,
                outboxes: *mut Outbox<M>,
                heartbeats: *mut bool,
                walls: *mut u64,
            }
            // SAFETY: each index is claimed by exactly one pool worker
            // (WorkPool::run_indexed guarantees single execution per index),
            // so each rank's state/result/outbox/heartbeat/wall slot has a
            // unique writer.
            unsafe impl<S, R, M> Sync for Slots<S, R, M> {}
            let slots = Slots {
                states: states.as_mut_ptr(),
                results: results.as_mut_ptr(),
                outboxes: self.outboxes.as_mut_ptr(),
                heartbeats: heartbeats.as_mut_ptr(),
                // Dangling when telemetry is off (scratch stays empty); the
                // closure only dereferences it under `tel_on`.
                walls: self.wall_scratch.as_mut_ptr(),
            };
            let inboxes = self.mail.front();
            let f = &f;
            let killed = &killed;
            let tel = &tel;
            let ss_id = ss_open.id;
            // Bind a reference so the closure captures the whole `Slots`
            // (which is `Sync`) rather than its raw-pointer fields.
            let slots = &slots;
            pool.run_indexed(self.n_ranks, |rank| {
                if killed.binary_search(&rank).is_ok() {
                    // Injected death: the rank vanishes before computing,
                    // leaving its heartbeat slot cold for the barrier check.
                    return;
                }
                // Open the rank's compute span and publish it as the track
                // parent so device-level kernel phases nest under it. Track
                // `rank + 1` has this rank as its unique writer.
                let compute = tel.open();
                if tel_on {
                    tel.set_track_parent(rank + 1, compute.id);
                }
                // SAFETY: see Slots above — `rank` is unique per invocation.
                let (state, result, outbox) = unsafe {
                    (
                        &mut *slots.states.add(rank),
                        &mut *slots.results.add(rank),
                        &mut *slots.outboxes.add(rank),
                    )
                };
                *result = f(rank, state, &inboxes[rank], outbox);
                // SAFETY: unique writer per rank, as above.
                unsafe { *slots.heartbeats.add(rank) = true };
                if tel_on {
                    // SAFETY: unique writer per rank, as above.
                    unsafe {
                        *slots.walls.add(rank) = tel.now_ns().saturating_sub(compute.start_ns)
                    };
                    tel.close(
                        rank + 1,
                        "compute",
                        SpanKind::RankPhase,
                        ss_id,
                        compute,
                        rank as u64,
                        0,
                    );
                }
            });
        }

        // Workers have quiesced: the coordinator is now the unique writer on
        // every track. Fold injected stalls into the sampled walls (a
        // metered stall is wall time the real rank would have burned) and
        // mark them on the rank's timeline.
        if tel_on {
            for &(rank, stall_ns) in &stalls {
                if let Some(w) = self.wall_scratch.get_mut(rank) {
                    *w += stall_ns;
                }
                tel.instant(rank + 1, "stall", ss_open.id, rank as u64, stall_ns);
            }
        }

        // Barrier, part 1 — heartbeat scan: any rank that did not check in
        // is structurally detected as dead, however it was lost.
        let mut dead_ranks: Vec<usize> = heartbeats
            .iter()
            .enumerate()
            .filter(|(_, alive)| !**alive)
            .map(|(rank, _)| rank)
            .collect();

        // Barrier, part 2 — exchange. Duplicated outboxes are delivered
        // once by the exactly-once layer with the copies metered; dropped
        // outboxes are lost in flight and fail the superstep below. The
        // mailbox layer assembles the next superstep's inboxes in parallel
        // and swaps the double buffers.
        for &src in &dups {
            if !drops.contains(&src) {
                self.counters.duplicates_suppressed += self.outboxes[src].len() as u64;
            }
        }
        let exchange = tel.open();
        // With a process transport attached the staged batches round-trip
        // through the worker processes first: what the logical exchange
        // below delivers is exactly what came back over the wire, so a
        // frame lost or garbled past the retry budget has real effect.
        // Batches bound for a dead peer keep their staged originals, which
        // keeps the volume metering transport-invariant. A scheduled rank
        // death is a *real* crash there: the transport SIGKILLs the rank's
        // worker, so the wire discovers the same dead set the heartbeat
        // scan does.
        let wire = match self.transport.as_mut() {
            Some(t) => {
                let outcome = t.round_trip(step_index, &mut self.outboxes, due);
                self.wire_counters = t.counters();
                outcome
            }
            None => WireOutcome::default(),
        };
        if !wire.dead_peers.is_empty() {
            dead_ranks.extend(wire.dead_peers.iter().copied());
            dead_ranks.sort_unstable();
            dead_ranks.dedup();
        }
        let vol = self.mail.exchange_faulted(
            pool,
            &mut self.outboxes,
            &ExchangeFaults {
                drops: &drops,
                shuffles: &shuffles,
                corruptions: &corruptions,
                verify: self.verify_batches || !corruptions.is_empty(),
                retransmit_budget: self.retransmit_budget,
            },
        );
        self.counters.supersteps += 1;
        self.counters.messages += vol.msgs;
        self.counters.bytes += vol.bytes;
        self.counters.bulk_messages += vol.bulk_msgs;
        self.counters.bulk_bytes += vol.bulk_bytes;
        self.counters.batches += vol.batches;
        self.counters.batch_bytes += vol.batch_bytes;
        self.counters.max_rank_messages = self.counters.max_rank_messages.max(vol.max_rank_msgs);
        self.counters.max_rank_bytes = self.counters.max_rank_bytes.max(vol.max_rank_bytes);
        self.counters.dropped_messages += vol.dropped;
        self.counters.shuffled_inboxes += shuffles.len() as u64;
        self.counters.integrity_bytes += vol.integrity_bytes;
        self.counters.corruptions_landed += vol.corruptions_landed;
        self.counters.corrupt_batches += vol.corrupt_batches;
        self.counters.retransmits += vol.retransmits;
        for _ in 0..vol.retransmits {
            self.integrity_records.push(IntegrityRecord {
                step: 0,          // stamped by the driver when drained
                injected_step: 0, // likewise
                superstep: step_index,
                injected_superstep: step_index,
                kind: CorruptionKind::Payload,
                detector: IntegrityDetector::BatchCrc,
                action: IntegrityAction::Retransmit,
            });
        }
        if tel_on {
            tel.close(
                0,
                "exchange",
                SpanKind::RankPhase,
                ss_open.id,
                exchange,
                vol.msgs + vol.bulk_msgs,
                vol.bytes + vol.bulk_bytes,
            );
            if let Some(h) = &self.superstep_hist {
                h.observe(tel.now_ns().saturating_sub(ss_open.start_ns));
            }
            tel.close(
                0,
                "superstep",
                SpanKind::Superstep,
                tel.step_parent(),
                ss_open,
                step_index,
                vol.bytes + vol.bulk_bytes,
            );
            self.rank_walls.push(RankWalls {
                superstep: step_index,
                walls: self.wall_scratch.clone(),
            });
            if self.transport.is_some() {
                if let Some(reg) = tel.registry() {
                    for s in &self.wire_counters.per_peer {
                        s.publish(reg);
                    }
                }
            }
        }
        if !dead_ranks.is_empty() || vol.dropped > 0 {
            return Err(SuperstepError::Failure(SuperstepFailure {
                superstep: step_index,
                dead_ranks,
                dropped_messages: vol.dropped,
            }));
        }
        if vol.unhealed > 0 {
            return Err(SuperstepError::Integrity(IntegrityFailure {
                superstep: step_index,
                corrupt_batches: vol.corrupt_batches,
                healed: vol.retransmits,
                unhealed: vol.unhealed,
            }));
        }
        if !wire.unhealed_garbled.is_empty() {
            // Wire garbage past the retry budget is an integrity failure of
            // its own, metered on the transport — CommCounters stay exactly
            // what the logical exchange produced.
            return Err(SuperstepError::Integrity(IntegrityFailure {
                superstep: step_index,
                corrupt_batches: wire.unhealed_garbled.len() as u64,
                healed: 0,
                unhealed: wire.unhealed_garbled.len() as u64,
            }));
        }
        Ok(results)
    }
}

impl<M: Send + Sync + WireSize + Payload + WireCodec + 'static> Bsp<M> {
    /// Attach a process transport: spawn one worker process per rank and
    /// round-trip every subsequent barrier exchange through them. Requires
    /// `M: WireCodec` — messages must actually cross a process boundary.
    pub fn attach_process_transport(&mut self, cfg: ProcessTransportConfig) -> std::io::Result<()> {
        let t = ProcessTransport::<M>::spawn(self.n_ranks, cfg)?;
        self.wire_counters = t.counters();
        self.transport = Some(Box::new(t));
        Ok(())
    }
}

impl<M> Bsp<M> {
    /// Is a process transport currently attached (false after degradation)?
    pub fn has_transport(&self) -> bool {
        self.transport.is_some()
    }

    /// Wire-side counters from the attached (or degraded) transport.
    pub fn transport_counters(&self) -> &TransportCounters {
        &self.wire_counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_arrive_next_superstep_in_order() {
        let pool = WorkPool::new(2);
        let mut bsp: Bsp<u64> = Bsp::new(4);
        let mut states = vec![0u64; 4];

        // Superstep 1: every rank sends (rank*10 + k) for k in 0..3 to rank 0.
        bsp.superstep(&pool, &mut states, |rank, _s, inbox, out| {
            assert!(inbox.is_empty());
            for k in 0..3u64 {
                out.send(0, rank as u64 * 10 + k);
            }
        });

        // Superstep 2: rank 0 sees all 12 messages, ordered by source rank.
        let results = bsp.superstep(&pool, &mut states, |rank, _s, inbox, _out| {
            if rank == 0 {
                let expect: Vec<u64> = (0..4u64)
                    .flat_map(|r| (0..3).map(move |k| r * 10 + k))
                    .collect();
                assert_eq!(inbox, expect.as_slice());
                inbox.len() as u64
            } else {
                assert!(inbox.is_empty());
                0
            }
        });
        assert_eq!(results[0], 12);
        assert_eq!(bsp.counters.supersteps, 2);
        assert_eq!(bsp.counters.messages, 12);
        assert_eq!(bsp.counters.bytes, 12 * 8);
        assert_eq!(bsp.counters.max_rank_messages, 3);
        // Coalescing: the 12 messages ship as 4 (src, dst=0) batches, each
        // paying the framing header once with payloads counted once.
        assert_eq!(bsp.counters.batches, 4);
        assert_eq!(
            bsp.counters.batch_bytes,
            4 * crate::mailbox::BATCH_HEADER_BYTES + 12 * 8
        );
    }

    #[test]
    fn delivery_shuffle_permutes_but_preserves_content() {
        use crate::fault::FaultPlan;
        let pool = WorkPool::new(0);
        let mut bsp: Bsp<u64> = Bsp::new(4);
        bsp.inject_faults(FaultPlan::shuffled(0xC0FFEE, 4, 8));
        let mut states = vec![Vec::<u64>::new(); 4];
        bsp.superstep(&pool, &mut states, |rank, _s, _i, out| {
            for k in 0..4u64 {
                out.send(0, rank as u64 * 10 + k);
            }
        });
        bsp.superstep(&pool, &mut states, |_rank, s, inbox, _out| {
            *s = inbox.to_vec();
        });
        let canonical: Vec<u64> = (0..4u64)
            .flat_map(|r| (0..4).map(move |k| r * 10 + k))
            .collect();
        assert_ne!(states[0], canonical, "16 messages: shuffle must reorder");
        let mut sorted = states[0].clone();
        sorted.sort_unstable();
        assert_eq!(sorted, canonical, "every message delivered exactly once");
        assert_eq!(bsp.counters.shuffled_inboxes, 8, "4 ranks x 2 supersteps");
        assert_eq!(bsp.counters.messages, 16, "shuffles never change volume");
    }

    #[test]
    fn states_are_mutated_per_rank() {
        let pool = WorkPool::new(0);
        let mut bsp: Bsp<()> = Bsp::new(8);
        let mut states: Vec<u64> = (0..8).collect();
        bsp.superstep(&pool, &mut states, |rank, s, _inbox, _out| {
            *s += rank as u64;
        });
        for (rank, s) in states.iter().enumerate() {
            assert_eq!(*s, 2 * rank as u64);
        }
    }

    #[test]
    fn determinism_under_parallelism() {
        // Run the same two-superstep exchange with different pool sizes and
        // compare the full delivered inbox contents.
        let run_safe = |threads: usize| -> Vec<Vec<u32>> {
            let pool = WorkPool::new(threads);
            let mut bsp: Bsp<u32> = Bsp::new(6);
            let mut states = vec![Vec::<u32>::new(); 6];
            bsp.superstep(&pool, &mut states, |rank, _s, _i, out| {
                for d in 0..6 {
                    if d != rank {
                        out.send(d, (rank * 100 + d) as u32);
                    }
                }
            });
            bsp.superstep(&pool, &mut states, |_rank, s, inbox, _out| {
                *s = inbox.to_vec();
            });
            states
        };
        let a = run_safe(0);
        let b = run_safe(3);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn send_to_invalid_rank_panics() {
        let pool = WorkPool::new(0);
        let mut bsp: Bsp<u8> = Bsp::new(2);
        let mut states = vec![(); 2];
        bsp.superstep(&pool, &mut states, |_r, _s, _i, out| out.send(5, 1));
    }

    #[test]
    fn injected_rank_death_is_detected_at_barrier() {
        use crate::fault::{FaultEvent, FaultKind, FaultPlan};
        let pool = WorkPool::new(2);
        let mut bsp: Bsp<u32> = Bsp::new(4);
        bsp.inject_faults(FaultPlan::from_events(vec![FaultEvent {
            superstep: 1,
            rank: 2,
            kind: FaultKind::RankDeath,
        }]));
        let mut states = vec![0u32; 4];
        // Superstep 0: clean.
        bsp.try_superstep(&pool, &mut states, |_r, s, _i, _o| {
            *s += 1;
        })
        .expect("no fault due yet");
        // Superstep 1: rank 2 dies — its state is untouched and the barrier
        // reports exactly that rank missing.
        let err = bsp
            .try_superstep(&pool, &mut states, |_r, s, _i, _o| {
                *s += 1;
            })
            .expect_err("rank death must fail the superstep");
        let SuperstepError::Failure(err) = err else {
            panic!("expected a structural failure, got {err}");
        };
        assert_eq!(err.superstep, 1);
        assert_eq!(err.dead_ranks, vec![2]);
        assert_eq!(err.dropped_messages, 0);
        assert_eq!(states, vec![2, 2, 1, 2]);
        assert_eq!(bsp.counters.supersteps, 2, "failed supersteps still count");
    }

    #[test]
    fn dropped_outbox_fails_the_superstep() {
        use crate::fault::{FaultEvent, FaultKind, FaultPlan};
        let pool = WorkPool::new(0);
        let mut bsp: Bsp<u64> = Bsp::new(3);
        bsp.inject_faults(FaultPlan::from_events(vec![FaultEvent {
            superstep: 0,
            rank: 1,
            kind: FaultKind::MessageDrop,
        }]));
        let mut states = vec![(); 3];
        let err = bsp
            .try_superstep(&pool, &mut states, |rank, _s, _i, out| {
                out.send((rank + 1) % 3, rank as u64);
            })
            .expect_err("message loss must fail the superstep");
        let SuperstepError::Failure(err) = err else {
            panic!("expected a structural failure, got {err}");
        };
        assert!(err.dead_ranks.is_empty());
        assert_eq!(err.dropped_messages, 1);
        assert_eq!(bsp.counters.dropped_messages, 1);
        // Rank 1's message never arrived; the other two were delivered.
        assert_eq!(bsp.pending(0), 1);
        assert_eq!(bsp.pending(1), 1);
        assert_eq!(bsp.pending(2), 0);
    }

    #[test]
    fn duplicates_are_suppressed_not_failures() {
        use crate::fault::{FaultEvent, FaultKind, FaultPlan};
        let pool = WorkPool::new(0);
        let mut bsp: Bsp<u64> = Bsp::new(2);
        bsp.inject_faults(FaultPlan::from_events(vec![FaultEvent {
            superstep: 0,
            rank: 0,
            kind: FaultKind::MessageDuplicate,
        }]));
        let mut states = vec![(); 2];
        bsp.try_superstep(&pool, &mut states, |rank, _s, _i, out| {
            out.send(1 - rank, 7u64);
            out.send(1 - rank, 8u64);
        })
        .expect("duplication is not a failure");
        // Exactly-once delivery: each inbox still holds one copy of each.
        assert_eq!(bsp.pending(0), 2);
        assert_eq!(bsp.pending(1), 2);
        assert_eq!(bsp.counters.duplicates_suppressed, 2);
        assert_eq!(bsp.counters.messages, 4, "suppressed copies not metered");
    }

    #[test]
    fn stalls_are_metered_only() {
        use crate::fault::{FaultEvent, FaultKind, FaultPlan};
        let pool = WorkPool::new(0);
        let mut bsp: Bsp<()> = Bsp::new(2);
        bsp.inject_faults(FaultPlan::from_events(vec![FaultEvent {
            superstep: 0,
            rank: 1,
            kind: FaultKind::SlowRank { stall_ns: 12_345 },
        }]));
        let mut states = vec![0u32; 2];
        bsp.try_superstep(&pool, &mut states, |_r, s, _i, _o| *s += 1)
            .expect("a stall is not a failure");
        assert_eq!(states, vec![1, 1]);
        assert_eq!(bsp.counters.stalls, 1);
        assert_eq!(bsp.counters.stall_ns, 12_345);
    }

    #[test]
    fn rebuilt_shrinks_and_carries_counters() {
        let pool = WorkPool::new(0);
        let mut bsp: Bsp<u64> = Bsp::new(4);
        let mut states = vec![(); 4];
        bsp.superstep(&pool, &mut states, |rank, _s, _i, out| {
            out.send((rank + 1) % 4, 1u64);
        });
        assert_eq!(bsp.counters.messages, 4);
        let bsp = bsp.rebuilt(3);
        assert_eq!(bsp.n_ranks(), 3);
        // Counters carried, stale in-flight messages discarded.
        assert_eq!(bsp.counters.messages, 4);
        for r in 0..3 {
            assert_eq!(bsp.pending(r), 0);
        }
    }

    #[test]
    fn plan_ranks_wrap_after_shrink() {
        use crate::fault::{FaultEvent, FaultKind, FaultPlan};
        let pool = WorkPool::new(0);
        let mut bsp: Bsp<()> = Bsp::new(4);
        // Rank 3 will not exist once the domain shrinks to 2 ranks; the
        // event must still fire (on rank 3 % 2 == 1).
        bsp.inject_faults(FaultPlan::from_events(vec![FaultEvent {
            superstep: 0,
            rank: 3,
            kind: FaultKind::RankDeath,
        }]));
        let mut bsp = bsp.rebuilt(2);
        let mut states = vec![(); 2];
        let err = bsp
            .try_superstep(&pool, &mut states, |_r, _s, _i, _o| {})
            .expect_err("wrapped rank death");
        let SuperstepError::Failure(err) = err else {
            panic!("expected a structural failure, got {err}");
        };
        assert_eq!(err.dead_ranks, vec![1]);
    }

    /// A corruptible test message: one u64 whose bits are fully covered by
    /// the digest (the blanket no-op `Payload` impl applies to `u64` itself,
    /// so a newtype carries the real impl).
    #[derive(Clone, Debug, PartialEq, Default)]
    struct Word(u64);

    impl WireSize for Word {
        fn wire_size(&self) -> usize {
            8
        }
    }

    impl crate::crc::Payload for Word {
        fn digest(&self, crc: &mut crate::crc::Crc64) {
            crc.write_u64(self.0);
        }
        fn corrupt(&mut self, seed: u64) {
            self.0 ^= 1 << (seed % 64);
        }
        fn corruptible(&self) -> bool {
            true
        }
    }

    #[test]
    fn payload_corruption_is_healed_within_the_barrier() {
        use crate::fault::{FaultEvent, FaultPlan};
        let pool = WorkPool::new(0);
        let run = |plan: FaultPlan| -> (Vec<Vec<u64>>, CommCounters) {
            let mut bsp: Bsp<Word> = Bsp::new(3);
            bsp.inject_faults(plan);
            let mut states = vec![Vec::<u64>::new(); 3];
            bsp.superstep(&pool, &mut states, |rank, _s, _i, out| {
                for d in 0..3 {
                    if d != rank {
                        out.send(d, Word((rank * 100 + d) as u64));
                    }
                }
            });
            bsp.superstep(&pool, &mut states, |_rank, s, inbox, _o| {
                *s = inbox.iter().map(|w| w.0).collect();
            });
            (states, bsp.counters)
        };
        let (clean, clean_counters) = run(FaultPlan::none());
        let (healed, counters) = run(FaultPlan::from_events(vec![FaultEvent {
            superstep: 0,
            rank: 1,
            kind: FaultKind::PayloadCorruption { seed: 0xFEED },
        }]));
        assert_eq!(clean, healed, "healed delivery must be pristine");
        assert_eq!(counters.corruptions_landed, 1);
        assert_eq!(counters.corrupt_batches, 1, "the flip was detected");
        assert_eq!(counters.retransmits, 1, "and healed in-barrier");
        assert_eq!(clean_counters.corrupt_batches, 0);
        assert_eq!(clean_counters.integrity_bytes, 0, "defense off when clean");
        assert!(counters.integrity_bytes > 0, "verified batches ship CRCs");
    }

    #[test]
    fn exhausted_retransmit_budget_surfaces_integrity_failure() {
        use crate::fault::{FaultEvent, FaultPlan};
        let pool = WorkPool::new(0);
        let mut bsp: Bsp<Word> = Bsp::new(2);
        bsp.set_retransmit_budget(0);
        bsp.inject_faults(FaultPlan::from_events(vec![FaultEvent {
            superstep: 0,
            rank: 0,
            kind: FaultKind::PayloadCorruption { seed: 7 },
        }]));
        let mut states = vec![(); 2];
        let err = bsp
            .try_superstep(&pool, &mut states, |rank, _s, _i, out| {
                out.send(1 - rank, Word(rank as u64));
            })
            .expect_err("zero budget must fail the superstep");
        let SuperstepError::Integrity(err) = err else {
            panic!("expected an integrity failure, got {err}");
        };
        assert_eq!(err.superstep, 0);
        assert_eq!(err.corrupt_batches, 1);
        assert_eq!(err.healed, 0);
        assert_eq!(err.unhealed, 1);
        assert_eq!(bsp.counters.supersteps, 1, "failed supersteps still count");
    }

    #[test]
    fn state_corruption_is_collected_for_the_executor() {
        use crate::fault::{FaultEvent, FaultPlan};
        let pool = WorkPool::new(0);
        let mut bsp: Bsp<Word> = Bsp::new(4);
        bsp.inject_faults(FaultPlan::from_events(vec![FaultEvent {
            superstep: 1,
            rank: 6, // wraps to rank 2 on a 4-rank domain
            kind: FaultKind::StateCorruption { seed: 0xAB },
        }]));
        assert!(bsp.verify_batches, "corruption plan engages integrity");
        let mut states = vec![(); 4];
        for _ in 0..3 {
            bsp.try_superstep(&pool, &mut states, |_r, _s, _i, _o| {})
                .expect("state corruption alone never fails a superstep");
        }
        let pending = bsp.take_pending_state_corruptions();
        assert_eq!(
            pending,
            vec![PendingStateCorruption {
                superstep: 1,
                rank: 2,
                seed: 0xAB
            }]
        );
        assert!(bsp.take_pending_state_corruptions().is_empty(), "drained");
    }

    use crate::fault::FaultEvent;
    use crate::transport::ProcessTransportConfig;

    fn fast_transport() -> ProcessTransportConfig {
        ProcessTransportConfig::forked()
            .with_deadlines(500_000_000, 500_000_000)
            .with_retry(3, 100_000)
    }

    /// Run a fixed all-to-all workload; every rank accumulates everything it
    /// has ever received. Returns (per-rank sums, final counters).
    fn ring_workload(bsp: &mut Bsp<u64>, supersteps: u64) -> (Vec<u64>, CommCounters) {
        let pool = WorkPool::new(2);
        let n = bsp.n_ranks();
        let mut states = vec![0u64; n];
        for step in 0..supersteps {
            bsp.superstep(&pool, &mut states, |rank, s, inbox, out| {
                for m in inbox {
                    *s += m;
                }
                for dst in 0..n {
                    if dst != rank {
                        out.send(dst, (rank as u64) * 100 + step);
                    }
                }
            });
        }
        (states, bsp.counters)
    }

    #[test]
    fn process_transport_is_bitwise_identical_to_in_process() {
        let mut inproc: Bsp<u64> = Bsp::new(4);
        let (ref_states, ref_counters) = ring_workload(&mut inproc, 5);

        let mut wired: Bsp<u64> = Bsp::new(4);
        wired
            .attach_process_transport(fast_transport())
            .expect("spawn workers");
        let (states, counters) = ring_workload(&mut wired, 5);

        assert_eq!(states, ref_states, "delivered content diverged");
        assert_eq!(counters, ref_counters, "comm metering diverged");
        let wc = wired.transport_counters();
        assert!(wc.frames_sent > 0, "traffic actually crossed the wire");
        assert_eq!(wc.frames_received, wc.frames_sent);
    }

    #[test]
    fn rank_death_under_transport_is_a_real_worker_crash() {
        let pool = WorkPool::new(2);
        let mut bsp: Bsp<u64> = Bsp::new(3);
        bsp.attach_process_transport(fast_transport())
            .expect("spawn workers");
        bsp.inject_faults(FaultPlan::from_events(vec![FaultEvent {
            superstep: 1,
            rank: 1,
            kind: FaultKind::RankDeath,
        }]));
        let mut states = vec![0u64; 3];
        bsp.try_superstep(&pool, &mut states, |rank, _s, _i, out| {
            out.send((rank + 1) % 3, rank as u64);
        })
        .expect("superstep 0 healthy");
        let err = bsp
            .try_superstep(&pool, &mut states, |rank, _s, _i, out| {
                out.send((rank + 1) % 3, rank as u64);
            })
            .expect_err("rank 1 died");
        let SuperstepError::Failure(err) = err else {
            panic!("expected structural failure, got {err}");
        };
        assert_eq!(err.dead_ranks, vec![1], "wire and heartbeat agree");
        assert!(
            bsp.transport_counters().peers_closed >= 1,
            "the socket saw the crash"
        );

        // The recovery path: rebuild over the survivors respawns workers
        // and the domain keeps exchanging over the wire.
        let mut bsp = bsp.rebuilt(2);
        assert!(bsp.has_transport(), "respawned, not degraded");
        let mut states = vec![0u64; 2];
        bsp.superstep(&pool, &mut states, |rank, _s, _i, out| {
            out.send(1 - rank, 7);
        });
        let got = bsp.superstep(&pool, &mut states, |_r, _s, inbox, _o| inbox.to_vec());
        assert_eq!(got, vec![vec![7], vec![7]]);
        assert!(bsp.transport_counters().workers_respawned >= 2);
    }

    #[test]
    fn unhealed_wire_garble_is_a_typed_integrity_failure() {
        let pool = WorkPool::new(0);
        let mut bsp: Bsp<u64> = Bsp::new(2);
        bsp.attach_process_transport(fast_transport().with_retry(2, 50_000))
            .expect("spawn workers");
        bsp.inject_faults(FaultPlan::from_events(vec![FaultEvent {
            superstep: 0,
            rank: 1,
            kind: FaultKind::InboxGarble {
                seed: 0xBAD,
                sticky: true,
            },
        }]));
        let mut states = vec![0u64; 2];
        let err = bsp
            .try_superstep(&pool, &mut states, |rank, _s, _i, out| {
                out.send(1 - rank, rank as u64);
            })
            .expect_err("sticky garble exhausts the retry budget");
        let SuperstepError::Integrity(err) = err else {
            panic!("expected integrity failure, got {err}");
        };
        assert_eq!(err.unhealed, 1);
        assert_eq!(err.healed, 0);
        // The logical comm counters never saw the wire corruption.
        assert_eq!(bsp.counters.corrupt_batches, 0);
        assert_eq!(bsp.counters.retransmits, 0);
        assert!(bsp.transport_counters().wire_retransmits >= 1);
    }
}
