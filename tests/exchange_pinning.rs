//! Pins one seeded barrier exchange bit for bit: every delivered inbox and
//! the whole `ExchangeVolume`, over nine ranks whose sends are interleaved
//! and out of destination order (2–4 destinations per source), with one
//! dropped outbox, one shuffled inbox and three payload corruptions under
//! batch verification. A second superstep on the same outboxes and
//! mailboxes pins that nothing staged in the first one leaks into it.
//!
//! The literals were captured from the dense per-rank-bucket exchange, so
//! any outbox representation must reproduce the canonical inbox order
//! (source ascending, emission order within a source) and the order in
//! which a corruption event picks its batch (ascending destination among
//! the source's batches holding a corruptible message).

use simcov_repro::pgas::counters::WireSize;
use simcov_repro::pgas::{
    crc64, Crc64, ExchangeFaults, ExchangeVolume, Mailboxes, Outbox, Payload, SplitMix64,
    WireWrite, WorkPool,
};

const N: usize = 9;

/// A message whose body may be empty (then nothing in it can be flipped)
/// and which meters as bulk when its body is longer than 4 bytes.
#[derive(Debug, Clone, PartialEq)]
struct Msg {
    id: u32,
    body: Vec<u8>,
}

impl WireSize for Msg {
    fn wire_size(&self) -> usize {
        4 + self.body.len()
    }
    fn is_bulk(&self) -> bool {
        self.body.len() > 4
    }
}

impl Payload for Msg {
    fn digest(&self, crc: &mut Crc64) {
        crc.put_u64(u64::from(self.id));
        crc.put_u64(self.body.len() as u64);
        crc.update(&self.body);
    }
    fn corrupt(&mut self, seed: u64) {
        if !self.body.is_empty() {
            let bit = seed % (self.body.len() as u64 * 8);
            self.body[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
    }
    fn corruptible(&self) -> bool {
        !self.body.is_empty()
    }
}

/// Stage one superstep of seeded traffic: each source picks 2–4 distinct
/// destinations in a shuffled order and emits its messages round-robin over
/// them, so no source sends in destination order or one destination at a
/// time. Ids are `1000 * src + emission index`.
fn stage(outboxes: &mut [Outbox<Msg>], seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for (src, ob) in outboxes.iter_mut().enumerate() {
        ob.clear();
        let mut dsts: Vec<usize> = Vec::new();
        let want = 2 + (rng.next_u64() % 3) as usize;
        while dsts.len() < want {
            let d = (rng.next_u64() % N as u64) as usize;
            if !dsts.contains(&d) {
                dsts.push(d);
            }
        }
        let per_dst: Vec<usize> = dsts
            .iter()
            .map(|_| 1 + (rng.next_u64() % 3) as usize)
            .collect();
        let mut emitted = 0u32;
        for round in 0..3 {
            for (i, &d) in dsts.iter().enumerate() {
                if round < per_dst[i] {
                    let len = (rng.next_u64() % 4) as usize * 3; // 0, 3, 6 or 9 bytes
                    let id = 1000 * src as u32 + emitted;
                    let body = (0..len)
                        .map(|k| (id as u8).wrapping_mul(31) ^ k as u8)
                        .collect();
                    ob.send(d, Msg { id, body });
                    emitted += 1;
                }
            }
        }
    }
}

/// Each inbox as `(id, low 32 bits of the body's CRC64)`, so a flipped bit
/// that reaches delivery changes the literal.
fn delivered(mail: &Mailboxes<Msg>) -> Vec<Vec<(u32, u32)>> {
    mail.front()
        .iter()
        .map(|inbox| {
            inbox
                .iter()
                .map(|m| (m.id, crc64(&m.body) as u32))
                .collect()
        })
        .collect()
}

const VOLUME_1: ExchangeVolume = ExchangeVolume {
    msgs: 17,
    bytes: 83,
    bulk_msgs: 31,
    bulk_bytes: 358,
    batches: 25,
    batch_bytes: 841,
    max_rank_msgs: 4,
    max_rank_bytes: 18,
    dropped: 7,
    integrity_bytes: 200,
    corruptions_landed: 3,
    corrupt_batches: 3,
    retransmits: 1,
    unhealed: 2,
};

const INBOXES_1: [&[(u32, u32)]; N] = [
    &[
        (2000, 1485922686),
        (2004, 2783751146),
        (7000, 3011124320),
        (7003, 742357527),
        (7005, 385667032),
    ],
    &[
        (1001, 0),
        (1003, 0),
        (5001, 3516197774),
        (5004, 1834464620),
        (6003, 3906466501),
        (6006, 2257918357),
    ],
    &[
        (2001, 1500668755),
        (4, 761585649),
        (6002, 0),
        (2005, 4196015358),
        (1, 457028903),
        (2006, 0),
        (7, 4140097107),
        (5000, 2549080309),
        (5005, 4052434472),
        (5003, 0),
    ],
    &[
        (0, 1353898344),
        (3, 2040647625),
        (6, 1078289161),
        (2002, 0),
        (3001, 0),
    ],
    &[
        (2, 712214608),
        (5, 3799962820),
        (8, 2870924378),
        (1002, 0),
        (6001, 2320205867),
        (6005, 3766313842),
        (6008, 1128739716),
        (8000, 3744606133),
        (8003, 2428799536),
        (8004, 3659378720),
    ],
    &[
        (6000, 0),
        (6004, 3309123631),
        (6007, 2434647888),
        (7001, 0),
        (7004, 0),
        (8001, 310812532),
    ],
    &[(8002, 3533258976)],
    &[(2003, 470815213), (7002, 1300503030)],
    &[(1000, 0), (3000, 3435646297), (5002, 265015170)],
];

const VOLUME_2: ExchangeVolume = ExchangeVolume {
    msgs: 39,
    bytes: 207,
    bulk_msgs: 31,
    bulk_bytes: 358,
    batches: 33,
    batch_bytes: 1093,
    max_rank_msgs: 8,
    max_rank_bytes: 44,
    dropped: 0,
    integrity_bytes: 264,
    corruptions_landed: 0,
    corrupt_batches: 0,
    retransmits: 0,
    unhealed: 0,
};

const INBOXES_2: [&[(u32, u32)]; N] = [
    &[
        (5002, 0),
        (5006, 2891002913),
        (8000, 3744606133),
        (8004, 0),
        (8008, 0),
    ],
    &[(2002, 0)],
    &[
        (3, 2040647625),
        (6, 3215253197),
        (8, 2870924378),
        (1003, 0),
        (1007, 2997931946),
        (1010, 911746126),
        (5003, 1545177115),
        (5007, 0),
        (5008, 1530496937),
        (6002, 3462724669),
    ],
    &[
        (0, 1353898344),
        (4, 1223684798),
        (3000, 1661374007),
        (3003, 373824667),
        (4000, 0),
        (7001, 2093622401),
        (7003, 0),
        (8001, 0),
        (8005, 2827748468),
        (8009, 4195191029),
    ],
    &[
        (1001, 3122290205),
        (1005, 1850519769),
        (1008, 3001768493),
        (4003, 0),
        (4005, 226376230),
        (4006, 0),
        (6003, 4043774140),
        (6006, 2257918357),
        (7002, 3237553566),
        (7004, 1225743410),
    ],
    &[(1, 1678040943), (4002, 0), (4004, 0)],
    &[
        (3002, 0),
        (3004, 0),
        (5000, 3303306575),
        (5004, 0),
        (6001, 0),
        (6005, 2242366919),
        (8003, 3595292022),
        (8007, 381583771),
        (8010, 0),
    ],
    &[
        (2, 712214608),
        (5, 3799962820),
        (7, 328672400),
        (1000, 2117942641),
        (1004, 0),
        (2001, 4165330919),
        (2003, 2493683357),
        (2004, 2783751146),
        (4001, 1732825471),
        (7000, 0),
    ],
    &[
        (1002, 3425473327),
        (1006, 3066351523),
        (1009, 0),
        (2000, 1485922686),
        (3001, 4166355049),
        (5001, 0),
        (5005, 4052434472),
        (6000, 3562583373),
        (6004, 787799778),
        (6007, 1867576161),
        (8002, 982356735),
        (8006, 807673872),
    ],
];

/// Outbox staging seeds of the two pinned supersteps.
const SEEDS: [u64; 2] = [0x5EED_0051, 0x5EED_0052];

#[test]
fn seeded_sparse_exchange_delivers_the_pinned_inboxes() {
    let pool = WorkPool::new(2);
    let mut mail: Mailboxes<Msg> = Mailboxes::new(N);
    let mut obs: Vec<Outbox<Msg>> = (0..N).map(|_| Outbox::for_ranks(N)).collect();

    // Rank 4's outbox is lost, rank 2's inbox is permuted, and three flips
    // land on three batches (rank 3 has one corruptible batch, ranks 8 and
    // 2 several); the budget heals the first in flight order only, so the
    // other two reach delivery and show in the body digests.
    stage(&mut obs, SEEDS[0]);
    let vol = mail.exchange_faulted(
        &pool,
        &mut obs,
        &ExchangeFaults {
            drops: &[4],
            shuffles: &[(2, 0xD1CE)],
            corruptions: &[(3, 0xF11F), (8, 0xC0FFEE), (2, 0xBAD5EED)],
            verify: true,
            retransmit_budget: 1,
        },
    );
    assert_eq!(vol, VOLUME_1);
    assert_eq!(delivered(&mail), INBOXES_1);

    stage(&mut obs, SEEDS[1]);
    let vol = mail.exchange_faulted(
        &pool,
        &mut obs,
        &ExchangeFaults {
            verify: true,
            ..ExchangeFaults::default()
        },
    );
    assert_eq!(vol, VOLUME_2);
    assert_eq!(delivered(&mail), INBOXES_2);
}
