//! Double-buffered mailboxes and coalesced exchange batches — the exchange
//! layer the paper's UPC++ runtime models:
//!
//! - **Sparse outboxes** — an [`Outbox`] holds one `(dst, batch)` pair per
//!   destination it wrote this superstep, in ascending `dst` order;
//!   [`Outbox::send`] appends to its destination's batch, so everything one
//!   rank sends to another is one contiguous run by the barrier.
//! - **Coalesced batches** — each non-empty batch ships as one
//!   length-prefixed buffer: [`BATCH_HEADER_BYTES`] of framing per batch plus
//!   every payload counted exactly once. [`ExchangeVolume`] reports both the
//!   legacy per-logical-message totals and the coalesced batch totals.
//! - **Route lists drive delivery** — one serial pass over the sources, in
//!   ascending order, meters every batch and appends `(src, batch, CRC)` to
//!   its destination's route list. One pool worker assembles destination
//!   `d`'s inbox from route list `d`, the only list a batch sits on, so the
//!   fan-in runs in parallel without a lock or atomic on the data path.
//!   Ranks read the *front* inboxes during compute, the barrier fills the
//!   *back*, the two swap in O(1), and every buffer is reused.
//! - **Batch integrity** — when verification is engaged (any plan scheduling
//!   [`PayloadCorruption`]), every batch carries a CRC64 taken send-side over
//!   the pristine content and re-verified by the assembling worker. Up to a
//!   deterministic per-superstep budget, a mismatching batch is healed by an
//!   in-barrier retransmit; the rest are reported so the caller can fail the
//!   superstep.
//!
//! A superstep costs O(ranks + batches + messages): no pass visits a
//! (src, dst) pair that carries no traffic. Delivery stays canonical — an
//! inbox is ordered by (source rank, emission order within the source). The
//! [`DeliveryShuffle`](crate::fault::FaultKind::DeliveryShuffle) fault hook
//! permutes an assembled inbox with a seeded shuffle, which the
//! schedule-adversarial tests use to prove the model does not depend on
//! that order.
//!
//! [`PayloadCorruption`]: crate::fault::FaultKind::PayloadCorruption

use crate::counters::WireSize;
use crate::crc::{Crc64, Payload};
use crate::fault::SplitMix64;
use crate::pool::WorkPool;
use crate::wire::WireWrite;

pub mod frame;

/// Framing overhead of one coalesced (src, dst) batch: an 8-byte message
/// count plus an 8-byte payload length, paid once per batch — never per
/// logical message. The CRC64 trailer added when integrity verification is
/// engaged is metered separately in [`ExchangeVolume::integrity_bytes`].
pub const BATCH_HEADER_BYTES: u64 = 16;

/// On-wire bytes of the CRC64 trailer each verified batch carries.
pub const BATCH_CRC_BYTES: u64 = 8;

/// Per-rank message staging for one superstep: only the destinations written.
pub struct Outbox<M> {
    n_ranks: usize,
    /// `(dst, batch)` pairs in ascending `dst` order.
    pub(crate) batches: Vec<(usize, Vec<M>)>,
    /// Buffers of cleared batches, reused by later first sends.
    spare: Vec<Vec<M>>,
    /// Index of the batch the last send went to.
    last: usize,
}

impl<M> Outbox<M> {
    /// An empty outbox that may send to ranks `0..n_ranks`.
    pub fn for_ranks(n_ranks: usize) -> Self {
        Outbox {
            n_ranks,
            batches: Vec::new(),
            spare: Vec::new(),
            last: 0,
        }
    }

    /// Queue `msg` for delivery to `dest` at the next superstep boundary
    /// (the RPC analogue).
    #[inline]
    pub fn send(&mut self, dest: usize, msg: M) {
        assert!(dest < self.n_ranks, "message to nonexistent rank {dest}");
        self.batch_mut(dest).push(msg);
    }

    /// Messages staged and not yet delivered, across all destinations.
    pub fn len(&self) -> usize {
        self.batches.iter().map(|(_, b)| b.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every batch, keeping their buffers for reuse.
    pub fn clear(&mut self) {
        for (_, mut b) in self.batches.drain(..) {
            b.clear();
            self.spare.push(b);
        }
    }

    /// The staged batch for `dest` (empty when nothing was sent there).
    pub(crate) fn bucket(&self, dest: usize) -> &[M] {
        let found = self.batches.iter().find(|&&(d, _)| d == dest);
        found.map_or(&[], |(_, b)| b)
    }

    /// Replace the staged batch for `dest` with what actually came back
    /// over the wire. On a healthy exchange the replacement is
    /// bit-identical to the original; the swap is what makes a garbled or
    /// retransmitted frame *matter*.
    pub(crate) fn replace_bucket(&mut self, dest: usize, msgs: Vec<M>) {
        *self.batch_mut(dest) = msgs;
    }

    /// The batch for `dest`, inserted in `dst` order on first use.
    #[inline]
    fn batch_mut(&mut self, dest: usize) -> &mut Vec<M> {
        if self.batches.get(self.last).is_none_or(|&(d, _)| d != dest) {
            let i = self.batches.partition_point(|&(d, _)| d < dest);
            if self.batches.get(i).is_none_or(|&(d, _)| d != dest) {
                self.batches
                    .insert(i, (dest, self.spare.pop().unwrap_or_default()));
            }
            self.last = i;
        }
        &mut self.batches[self.last].1
    }
}

/// Exact communication volume of one barrier exchange.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeVolume {
    /// Per-event point-to-point messages delivered.
    pub msgs: u64,
    /// Their payload bytes.
    pub bytes: u64,
    /// Bulk puts delivered.
    pub bulk_msgs: u64,
    /// Their payload bytes.
    pub bulk_bytes: u64,
    /// Coalesced (src, dst) batches shipped (one per pair with traffic).
    pub batches: u64,
    /// On-wire batch bytes: one header per batch + each payload once.
    pub batch_bytes: u64,
    /// Largest per-event message count sent by any single rank.
    pub max_rank_msgs: u64,
    /// Largest per-event byte count sent by any single rank.
    pub max_rank_bytes: u64,
    /// Messages lost to an injected drop fault.
    pub dropped: u64,
    /// CRC64 trailer bytes shipped (8 per verified batch; 0 when integrity
    /// verification is off).
    pub integrity_bytes: u64,
    /// Batches whose in-flight corruption actually changed their content
    /// (a flip that cancels itself out is vacuous and not counted).
    pub corruptions_landed: u64,
    /// Batches whose delivery-side CRC64 mismatched.
    pub corrupt_batches: u64,
    /// Corrupt batches healed by an in-barrier retransmit.
    pub retransmits: u64,
    /// Corrupt batches left unhealed (retransmit budget exhausted) — the
    /// caller must fail the superstep.
    pub unhealed: u64,
}

/// Everything the fault layer can do to one barrier exchange. Split out so
/// the healthy call sites stay terse ([`ExchangeFaults::default`] injects
/// nothing and verifies nothing).
pub struct ExchangeFaults<'a> {
    /// Source ranks whose entire outbox is lost in flight.
    pub drops: &'a [usize],
    /// `(dest, seed)` pairs whose assembled inbox is permuted.
    pub shuffles: &'a [(usize, u64)],
    /// `(src, seed)` payload-corruption events: one seeded bit flip lands in
    /// one of `src`'s in-flight batches, after the send-side CRC is taken.
    pub corruptions: &'a [(usize, u64)],
    /// Compute and verify per-batch CRC64 checksums.
    pub verify: bool,
    /// Corrupt batches healed in-barrier before the superstep is failed.
    pub retransmit_budget: u64,
}

impl Default for ExchangeFaults<'static> {
    fn default() -> Self {
        ExchangeFaults {
            drops: &[],
            shuffles: &[],
            corruptions: &[],
            verify: false,
            retransmit_budget: u64::MAX,
        }
    }
}

/// One in-flight bit flip: message `idx` of batch (src, dst) was
/// XOR-corrupted with `seed`.
struct Flip {
    src: usize,
    dst: usize,
    idx: usize,
    seed: u64,
}

/// One batch bound for a destination: its source rank, its index among the
/// source's staged batches, and its send-side CRC64 (0 when not tracked).
struct Route {
    src: usize,
    batch: usize,
    crc: u64,
}

/// Double-buffered per-rank inboxes: `front` is read during compute, `back`
/// is assembled at the barrier, then the two swap.
pub struct Mailboxes<M> {
    front: Vec<Vec<M>>,
    back: Vec<Vec<M>>,
    /// Per destination, the batches routed to it in ascending source order;
    /// rebuilt at every exchange into the same allocations.
    routes: Vec<Vec<Route>>,
}

impl<M> Mailboxes<M> {
    /// Empty front/back inbox pairs for `n_ranks` ranks.
    pub fn new(n_ranks: usize) -> Self {
        Mailboxes {
            front: (0..n_ranks).map(|_| Vec::new()).collect(),
            back: (0..n_ranks).map(|_| Vec::new()).collect(),
            routes: (0..n_ranks).map(|_| Vec::new()).collect(),
        }
    }

    /// The readable (front) inboxes for the current superstep.
    pub fn front(&self) -> &[Vec<M>] {
        &self.front
    }

    pub fn pending(&self, rank: usize) -> usize {
        self.front[rank].len()
    }
}

/// Send-side/delivery-side digest of one coalesced batch: message count
/// first (so truncation is detectable), then every payload's wire content.
fn batch_crc<M: Payload>(bucket: &[M]) -> u64 {
    let mut c = Crc64::new();
    c.put_u64(bucket.len() as u64);
    for m in bucket {
        m.digest(&mut c);
    }
    c.finish()
}

impl<M: Send + WireSize + Payload> Mailboxes<M> {
    /// Run one barrier exchange with no faults and no verification — the
    /// healthy hot path benchmarked by the perf gate. Equivalent to
    /// [`Mailboxes::exchange_faulted`] with `drops`/`shuffles` and default
    /// integrity settings.
    pub fn exchange(
        &mut self,
        pool: &WorkPool,
        outboxes: &mut [Outbox<M>],
        drops: &[usize],
        shuffles: &[(usize, u64)],
    ) -> ExchangeVolume {
        self.exchange_faulted(
            pool,
            outboxes,
            &ExchangeFaults {
                drops,
                shuffles,
                ..ExchangeFaults::default()
            },
        )
    }

    /// Run one barrier exchange: meter and route every staged batch,
    /// assemble the back inboxes in parallel (lock-free — see the module
    /// docs), apply any due faults, and swap the buffers.
    ///
    /// When `faults.verify` is set, the metering pass also digests every
    /// batch (CRC64 over the pristine content), scheduled corruption bit
    /// flips are applied "in flight" *after* the digests are taken, and each
    /// assembling worker re-verifies its batches at delivery. Corrupt
    /// batches are healed by an in-barrier retransmit up to
    /// `faults.retransmit_budget`; [`ExchangeVolume::unhealed`] reports
    /// anything beyond it.
    pub fn exchange_faulted(
        &mut self,
        pool: &WorkPool,
        outboxes: &mut [Outbox<M>],
        faults: &ExchangeFaults<'_>,
    ) -> ExchangeVolume {
        let n = self.front.len();
        debug_assert_eq!(outboxes.len(), n, "one outbox per rank");
        let drops = faults.drops;
        let shuffles = faults.shuffles;
        let verify = faults.verify;
        // Injecting corruption needs the pristine digests even when delivery
        // verification is off (to tell a landed flip from a cancelled one),
        // but only `verify` ships CRC trailers or detects anything.
        let track = verify || !faults.corruptions.is_empty();

        // Metering and routing pass, sources ascending: exact legacy
        // per-logical-message totals plus the coalesced batch totals (a
        // header plus each payload once per non-empty batch), each batch
        // routed to its destination with the send-side CRC of its pristine
        // content when tracking.
        let mut vol = ExchangeVolume::default();
        for routes in &mut self.routes {
            routes.clear();
        }
        for (src, ob) in outboxes.iter().enumerate() {
            if drops.contains(&src) {
                vol.dropped += ob.len() as u64;
                continue;
            }
            let (mut rank_msgs, mut rank_bytes) = (0u64, 0u64);
            for (batch, (dst, bucket)) in ob.batches.iter().enumerate() {
                if bucket.is_empty() {
                    continue;
                }
                let mut payload = 0u64;
                for msg in bucket {
                    let sz = msg.wire_size() as u64;
                    payload += sz;
                    if msg.is_bulk() {
                        vol.bulk_msgs += 1;
                        vol.bulk_bytes += sz;
                    } else {
                        rank_msgs += 1;
                        rank_bytes += sz;
                    }
                }
                vol.batches += 1;
                vol.batch_bytes += BATCH_HEADER_BYTES + payload;
                if verify {
                    vol.integrity_bytes += BATCH_CRC_BYTES;
                }
                let crc = if track { batch_crc(bucket) } else { 0 };
                self.routes[*dst].push(Route { src, batch, crc });
            }
            vol.msgs += rank_msgs;
            vol.bytes += rank_bytes;
            vol.max_rank_msgs = vol.max_rank_msgs.max(rank_msgs);
            vol.max_rank_bytes = vol.max_rank_bytes.max(rank_bytes);
        }

        // Corruption strikes in flight — after the send-side digests, before
        // delivery. Each event picks one of the source's corruptible batches
        // (in ascending `dst` order) and one message within it, all derived
        // from the event seed.
        let mut flips: Vec<Flip> = Vec::new();
        for &(src, seed) in faults.corruptions {
            if src >= n || drops.contains(&src) {
                continue; // a dropped outbox has nothing left to corrupt
            }
            let mut rng = SplitMix64::new(seed);
            let batches = &mut outboxes[src].batches;
            let candidates: Vec<usize> = (0..batches.len())
                .filter(|&b| batches[b].1.iter().any(|m| m.corruptible()))
                .collect();
            if candidates.is_empty() {
                continue; // nothing in flight with flippable bits: vacuous
            }
            let pick = candidates[(rng.next_u64() % candidates.len() as u64) as usize];
            let (dst, bucket) = &mut batches[pick];
            let targets: Vec<usize> = (0..bucket.len())
                .filter(|&i| bucket[i].corruptible())
                .collect();
            let idx = targets[(rng.next_u64() % targets.len() as u64) as usize];
            let flip_seed = rng.next_u64();
            bucket[idx].corrupt(flip_seed);
            flips.push(Flip {
                src,
                dst: *dst,
                idx,
                seed: flip_seed,
            });
        }
        // The batches whose content changed, in flight order (two flips can
        // cancel out bit-for-bit; such a batch is vacuously clean and must
        // not be promised as "detectable"). The retransmit budget heals the
        // first of them — deterministic, no races with assembly.
        let mut landed: Vec<(usize, usize)> = Vec::new();
        for f in &flips {
            let sent = self.routes[f.dst].iter().find(|r| r.src == f.src);
            let changed = batch_crc(outboxes[f.src].bucket(f.dst)) != sent.expect("routed").crc;
            if changed && !landed.contains(&(f.src, f.dst)) {
                landed.push((f.src, f.dst));
            }
        }
        vol.corruptions_landed = landed.len() as u64;
        let healed = &landed[..faults.retransmit_budget.min(landed.len() as u64) as usize];

        // Assembly: worker `d` owns back[d] and drains route list `d`,
        // sources ascending — the canonical inbox order. `Vec::append` moves
        // whole batches (a memcpy), leaving their capacity behind. When
        // verifying, it re-digests each batch before the append, heals
        // budgeted flips (XOR is self-inverse, so re-applying a flip restores
        // the pristine bytes — the retransmit model), and tallies into
        // `islots[d]`.
        let mut islots: Vec<[u64; 3]> = vec![[0u64; 3]; if verify { n } else { 0 }];
        {
            let batch_bases: Vec<_> = outboxes
                .iter_mut()
                .map(|ob| ob.batches.as_mut_ptr())
                .collect();
            struct Grid<M> {
                batches: *const *mut (usize, Vec<M>),
                back: *mut Vec<M>,
                islots: *mut [u64; 3],
            }
            // SAFETY: WorkPool::run_indexed claims each index exactly once,
            // so back[d] and islots[d] have a unique writer, and a batch
            // (src, d) sits on route list `d` only, so it has a unique
            // reader; no two workers touch the same slot.
            unsafe impl<M> Sync for Grid<M> {}
            let grid = Grid {
                batches: batch_bases.as_ptr(),
                back: self.back.as_mut_ptr(),
                islots: islots.as_mut_ptr(),
            };
            let grid = &grid;
            let routes = &self.routes;
            let flips = &flips;
            pool.run_indexed(n, |d| {
                // SAFETY: see Grid above — `d` is unique per invocation.
                let back = unsafe { &mut *grid.back.add(d) };
                back.clear();
                for r in &routes[d] {
                    // SAFETY: batch (r.src, d) is touched only by worker `d`.
                    let bucket = unsafe { &mut (*(*grid.batches.add(r.src)).add(r.batch)).1 };
                    if verify && batch_crc(bucket) != r.crc {
                        // SAFETY: islots[d] is written only by worker `d`.
                        let slot = unsafe { &mut *grid.islots.add(d) };
                        slot[0] += 1; // corrupt batch detected
                        if healed.contains(&(r.src, d)) {
                            for f in flips.iter().filter(|f| (f.src, f.dst) == (r.src, d)) {
                                bucket[f.idx].corrupt(f.seed);
                            }
                            debug_assert_eq!(batch_crc(bucket), r.crc);
                            slot[1] += 1; // healed by retransmit
                        } else {
                            slot[2] += 1; // budget exhausted
                        }
                    }
                    back.append(bucket);
                }
                if let Some(&(_, seed)) = shuffles.iter().find(|&&(rank, _)| rank == d) {
                    shuffle(back, seed);
                }
            });
        }
        for slot in &islots {
            vol.corrupt_batches += slot[0];
            vol.retransmits += slot[1];
            vol.unhealed += slot[2];
        }

        std::mem::swap(&mut self.front, &mut self.back);
        vol
    }
}

/// Seeded Fisher–Yates permutation (the delivery-shuffle fault).
fn shuffle<M>(v: &mut [M], seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for i in (1..v.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A non-`Copy` bulk message so the blanket `WireSize`/`Payload` impls
    /// do not apply: models a halo buffer with a 16-byte per-message
    /// envelope and real digest/corrupt coverage of every content bit.
    struct Blob(Vec<u8>);

    impl WireSize for Blob {
        fn wire_size(&self) -> usize {
            16 + self.0.len()
        }
        fn is_bulk(&self) -> bool {
            true
        }
    }

    impl Payload for Blob {
        fn digest(&self, crc: &mut Crc64) {
            crc.put_u64(self.0.len() as u64);
            crc.update(&self.0);
        }
        fn corrupt(&mut self, seed: u64) {
            if self.0.is_empty() {
                return;
            }
            let bit = seed % (self.0.len() as u64 * 8);
            self.0[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        fn corruptible(&self) -> bool {
            !self.0.is_empty()
        }
    }

    /// Satellite fix pin: batch byte accounting counts the coalesced buffer
    /// payload once plus one 16-byte framing header per (src, dst) batch —
    /// never a header per logical message.
    #[test]
    fn batch_bytes_count_payload_once_per_batch() {
        let pool = WorkPool::new(0);
        let mut mail: Mailboxes<Blob> = Mailboxes::new(3);
        let mut obs: Vec<Outbox<Blob>> = (0..3).map(|_| Outbox::for_ranks(3)).collect();
        // Rank 0 sends two blobs to rank 1 (one batch) and one to rank 2;
        // rank 1 sends one blob to rank 2.
        obs[0].send(1, Blob(vec![0; 10]));
        obs[0].send(1, Blob(vec![0; 20]));
        obs[0].send(2, Blob(vec![0; 5]));
        obs[1].send(2, Blob(vec![0; 7]));
        let vol = mail.exchange(&pool, &mut obs, &[], &[]);

        // Legacy accounting: every logical bulk message with its own
        // 16-byte envelope, exactly as before coalescing.
        assert_eq!(vol.bulk_msgs, 4);
        assert_eq!(vol.bulk_bytes, (16 + 10) + (16 + 20) + (16 + 5) + (16 + 7));
        assert_eq!(vol.msgs, 0, "bulk traffic is not per-event");

        // Coalesced accounting: three non-empty (src, dst) pairs → three
        // batches; each pays BATCH_HEADER_BYTES once, payloads once.
        assert_eq!(vol.batches, 3);
        let payload = (16 + 10) + (16 + 20) + (16 + 5) + (16 + 7);
        assert_eq!(vol.batch_bytes, 3 * BATCH_HEADER_BYTES + payload);
        assert_eq!(vol.integrity_bytes, 0, "no CRC trailers when not verifying");

        assert_eq!(mail.pending(0), 0);
        assert_eq!(mail.pending(1), 2);
        assert_eq!(mail.pending(2), 2);
    }

    #[test]
    fn per_event_messages_meter_like_before() {
        let pool = WorkPool::new(0);
        let mut mail: Mailboxes<u64> = Mailboxes::new(2);
        let mut obs: Vec<Outbox<u64>> = (0..2).map(|_| Outbox::for_ranks(2)).collect();
        obs[0].send(1, 7);
        obs[0].send(1, 8);
        obs[1].send(0, 9);
        let vol = mail.exchange(&pool, &mut obs, &[], &[]);
        assert_eq!(vol.msgs, 3);
        assert_eq!(vol.bytes, 3 * 8);
        assert_eq!(vol.max_rank_msgs, 2);
        assert_eq!(vol.max_rank_bytes, 16);
        assert_eq!(vol.batches, 2);
        assert_eq!(vol.batch_bytes, 2 * BATCH_HEADER_BYTES + 3 * 8);
    }

    /// Double buffering reuses allocations: after two exchanges the front
    /// and back vectors have swapped twice and nothing leaks across
    /// supersteps.
    #[test]
    fn buffers_swap_and_clear_between_supersteps() {
        let pool = WorkPool::new(0);
        let mut mail: Mailboxes<u32> = Mailboxes::new(2);
        let mut obs: Vec<Outbox<u32>> = (0..2).map(|_| Outbox::for_ranks(2)).collect();
        obs[0].send(1, 1);
        mail.exchange(&pool, &mut obs, &[], &[]);
        assert_eq!(mail.front()[1], vec![1]);

        for ob in &mut obs {
            ob.clear();
        }
        obs[1].send(0, 2);
        mail.exchange(&pool, &mut obs, &[], &[]);
        assert_eq!(mail.front()[0], vec![2]);
        assert!(mail.front()[1].is_empty(), "old front was recycled clean");
    }

    #[test]
    fn shuffle_is_seeded_and_permutes() {
        let pool = WorkPool::new(0);
        let run = |seed: u64| -> Vec<u32> {
            let mut mail: Mailboxes<u32> = Mailboxes::new(2);
            let mut obs: Vec<Outbox<u32>> = (0..2).map(|_| Outbox::for_ranks(2)).collect();
            for v in 0..16 {
                obs[0].send(1, v);
            }
            mail.exchange(&pool, &mut obs, &[], &[(1, seed)]);
            mail.front()[1].clone()
        };
        let a = run(0xBEEF);
        let b = run(0xBEEF);
        let c = run(0xF00D);
        assert_eq!(a, b, "same seed, same permutation");
        assert_ne!(a, c, "different seed, different permutation");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>(), "a permutation");
    }

    fn staged(n: usize) -> (Mailboxes<Blob>, Vec<Outbox<Blob>>) {
        let mail: Mailboxes<Blob> = Mailboxes::new(n);
        let mut obs: Vec<Outbox<Blob>> = (0..n).map(|_| Outbox::for_ranks(n)).collect();
        for (src, ob) in obs.iter_mut().enumerate() {
            for dst in 0..n {
                if src != dst {
                    ob.send(dst, Blob(vec![(src * n + dst) as u8; 24]));
                }
            }
        }
        (mail, obs)
    }

    /// An in-flight bit flip is detected by the delivery-side CRC, healed by
    /// the in-barrier retransmit, and the delivered inboxes are bit-for-bit
    /// the inboxes a clean exchange delivers.
    #[test]
    fn corruption_is_detected_and_healed_in_barrier() {
        let pool = WorkPool::new(0);
        let (mut clean_mail, mut clean_obs) = staged(3);
        clean_mail.exchange(&pool, &mut clean_obs, &[], &[]);

        let (mut mail, mut obs) = staged(3);
        let vol = mail.exchange_faulted(
            &pool,
            &mut obs,
            &ExchangeFaults {
                corruptions: &[(0, 0xC0FFEE), (2, 0xD00D)],
                verify: true,
                ..ExchangeFaults::default()
            },
        );
        assert_eq!(vol.corruptions_landed, 2);
        assert_eq!(vol.corrupt_batches, 2, "every landed flip detected");
        assert_eq!(vol.retransmits, 2, "and healed within the barrier");
        assert_eq!(vol.unhealed, 0);
        assert_eq!(vol.integrity_bytes, vol.batches * BATCH_CRC_BYTES);
        for d in 0..3 {
            let a: Vec<&[u8]> = clean_mail.front()[d]
                .iter()
                .map(|b| b.0.as_slice())
                .collect();
            let b: Vec<&[u8]> = mail.front()[d].iter().map(|b| b.0.as_slice()).collect();
            assert_eq!(a, b, "healed delivery must be pristine at dest {d}");
        }
    }

    /// With a zero retransmit budget the corruption is still detected but
    /// left unhealed — the caller must fail the superstep and roll back.
    #[test]
    fn exhausted_retransmit_budget_reports_unhealed() {
        let pool = WorkPool::new(0);
        let (mut mail, mut obs) = staged(3);
        let vol = mail.exchange_faulted(
            &pool,
            &mut obs,
            &ExchangeFaults {
                corruptions: &[(1, 0xBAD)],
                verify: true,
                retransmit_budget: 0,
                ..ExchangeFaults::default()
            },
        );
        assert_eq!(vol.corruptions_landed, 1);
        assert_eq!(vol.corrupt_batches, 1);
        assert_eq!(vol.retransmits, 0);
        assert_eq!(vol.unhealed, 1);
    }

    /// A clean verified exchange reports no corruption: the detector has no
    /// false positives, and verification does not perturb delivery.
    #[test]
    fn verification_has_no_false_positives() {
        let pool = WorkPool::new(0);
        let (mut clean_mail, mut clean_obs) = staged(4);
        clean_mail.exchange(&pool, &mut clean_obs, &[], &[]);
        let (mut mail, mut obs) = staged(4);
        let vol = mail.exchange_faulted(
            &pool,
            &mut obs,
            &ExchangeFaults {
                verify: true,
                ..ExchangeFaults::default()
            },
        );
        assert_eq!(vol.corrupt_batches, 0);
        assert_eq!(vol.retransmits, 0);
        assert_eq!(vol.unhealed, 0);
        assert!(vol.integrity_bytes > 0);
        for d in 0..4 {
            let a: Vec<&[u8]> = clean_mail.front()[d]
                .iter()
                .map(|b| b.0.as_slice())
                .collect();
            let b: Vec<&[u8]> = mail.front()[d].iter().map(|b| b.0.as_slice()).collect();
            assert_eq!(a, b);
        }
    }

    /// Corruption aimed at a rank with nothing corruptible in flight (or a
    /// dropped outbox) is vacuous — nothing lands, nothing is reported.
    #[test]
    fn vacuous_corruption_does_not_land() {
        let pool = WorkPool::new(0);
        let mut mail: Mailboxes<Blob> = Mailboxes::new(2);
        let mut obs: Vec<Outbox<Blob>> = (0..2).map(|_| Outbox::for_ranks(2)).collect();
        obs[0].send(1, Blob(vec![7; 8]));
        // Rank 1 sends nothing; rank 0's outbox is dropped in flight.
        let vol = mail.exchange_faulted(
            &pool,
            &mut obs,
            &ExchangeFaults {
                drops: &[0],
                corruptions: &[(0, 0x1), (1, 0x2)],
                verify: true,
                ..ExchangeFaults::default()
            },
        );
        assert_eq!(vol.corruptions_landed, 0);
        assert_eq!(vol.corrupt_batches, 0);
        assert_eq!(vol.dropped, 1);
    }
}
