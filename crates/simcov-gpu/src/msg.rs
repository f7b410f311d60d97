//! Inter-device messages of the GPU executor.
//!
//! Unlike the CPU baseline's many small RPCs, SIMCoV-GPU communicates in two
//! bulk halo copies per step (Fig. 2): the bid wave after T-cell planning,
//! and the boundary-state wave at the end of the step. Each message is one
//! packed buffer per (device, neighbor) pair — the GPU-to-GPU copy pattern
//! UPC++ performs.

use pgas::counters::WireSize;
use pgas::crc::{Crc64, Payload};
use pgas::fault::SplitMix64;
use pgas::wire::{encode_seq, WireCodec, WireReader, WireWrite};
use pgas::wire_cell;
use simcov_core::tcell::TCellSlot;

wire_cell! {
    /// One voxel's bid contributions (only non-empty entries travel).
    pub struct BidCell {
        pub gid: u64,
        pub move_bid: u128,
        pub bind_bid: u128,
    }
}

wire_cell! {
    /// One boundary voxel's full end-of-step state. Epithelial timers are
    /// included (unlike the CPU baseline) because neighbor devices recompute
    /// ghost FSM/production locally instead of receiving mid-step values.
    pub struct HaloCell {
        pub gid: u64,
        pub epi_state: u8,
        pub epi_timer: u32,
        pub tcell: TCellSlot,
        pub virions: f32,
        pub chem: f32,
    }
}

/// A bulk device-to-device copy.
#[derive(Debug, Clone, PartialEq)]
pub enum GpuMsg {
    /// The bid wave (§3.1): this device's bid contributions for voxels the
    /// receiver also holds (as core or ghost). Receivers max-merge.
    Bids(Vec<BidCell>),
    /// The end-of-step boundary state wave.
    Halo(Vec<HaloCell>),
}

impl GpuMsg {
    /// Payload cells in the message.
    pub fn n_cells(&self) -> usize {
        match self {
            GpuMsg::Bids(v) => v.len(),
            GpuMsg::Halo(v) => v.len(),
        }
    }
}

impl WireSize for GpuMsg {
    fn wire_size(&self) -> usize {
        // Packed on-wire sizes, not Rust in-memory sizes.
        match self {
            GpuMsg::Bids(v) => 16 + v.len() * BidCell::ENCODED_LEN,
            GpuMsg::Halo(v) => 16 + v.len() * HaloCell::ENCODED_LEN,
        }
    }

    fn is_bulk(&self) -> bool {
        // All GPU communication is bulk device-to-device copies.
        true
    }
}

impl Payload for GpuMsg {
    /// Digesting is encoding into the checksum ([`WireCodec::encode`] is
    /// the one field walk), so the digest covers exactly the wire bytes.
    fn digest(&self, crc: &mut Crc64) {
        self.encode(crc);
    }

    fn corrupt(&mut self, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        let n = self.n_cells() as u64;
        if n == 0 {
            return;
        }
        let i = (rng.next_u64() % n) as usize;
        match self {
            GpuMsg::Bids(cells) => cells[i].flip(&mut rng),
            GpuMsg::Halo(cells) => cells[i].flip(&mut rng),
        }
    }

    fn corruptible(&self) -> bool {
        self.n_cells() > 0
    }
}

/// Process-boundary codec; [`Payload::digest`] is this encoding fed to the
/// CRC, so the serialized form and the integrity digest are the same bytes.
impl WireCodec for GpuMsg {
    fn encode<W: WireWrite>(&self, out: &mut W) {
        match self {
            GpuMsg::Bids(cells) => {
                out.put_u8(0);
                encode_seq(cells, out);
            }
            GpuMsg::Halo(cells) => {
                out.put_u8(1);
                encode_seq(cells, out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(match r.read_u8()? {
            0 => GpuMsg::Bids(r.read_seq(BidCell::ENCODED_LEN)?),
            1 => GpuMsg::Halo(r.read_seq(HaloCell::ENCODED_LEN)?),
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corruption_is_a_self_inverse_and_never_silent() {
        let msgs = vec![
            GpuMsg::Bids(vec![
                BidCell {
                    gid: 9,
                    move_bid: 0xABCD,
                    bind_bid: 0x1234,
                };
                5
            ]),
            GpuMsg::Halo(vec![
                HaloCell {
                    gid: 3,
                    epi_state: 2,
                    epi_timer: 17,
                    tcell: TCellSlot::EMPTY,
                    virions: 0.75,
                    chem: 0.125,
                };
                4
            ]),
        ];
        let digest = |m: &GpuMsg| {
            let mut c = Crc64::new();
            m.digest(&mut c);
            c.finish()
        };
        // The generated cell codecs: the declared length is the encoded
        // length, and every (field, bit) `flip` can draw shows on the wire.
        macro_rules! every_flip_shows {
            ($cell:expr, $ty:ident) => {
                let wire = pgas::wire::encode_bucket(&[$cell]);
                assert_eq!(wire.len(), $ty::ENCODED_LEN);
                for (field, &bits) in $ty::FIELD_BITS.iter().enumerate() {
                    for bit in 0..bits {
                        let mut c = $cell;
                        c.flip_at(field, bit);
                        let flipped = pgas::wire::encode_bucket(&[c]);
                        assert_ne!(flipped, wire, "{} field {field} bit {bit}", stringify!($ty));
                    }
                }
            };
        }
        for msg in msgs {
            match &msg {
                GpuMsg::Bids(cells) => {
                    every_flip_shows!(cells[0], BidCell);
                }
                GpuMsg::Halo(cells) => {
                    every_flip_shows!(cells[0], HaloCell);
                }
            }
            assert!(msg.corruptible());
            for seed in 0..64u64 {
                let mut m = msg.clone();
                m.corrupt(seed);
                assert_ne!(digest(&m), digest(&msg), "flip changed the digest");
                m.corrupt(seed);
                assert_eq!(m, msg, "second application restores the original");
            }
        }
        assert!(!GpuMsg::Bids(vec![]).corruptible());
        assert!(!GpuMsg::Halo(vec![]).corruptible());
    }

    #[test]
    fn wire_sizes() {
        let b = GpuMsg::Bids(vec![
            BidCell {
                gid: 1,
                move_bid: 2,
                bind_bid: 3,
            };
            10
        ]);
        assert_eq!(b.wire_size(), 16 + 400);
        assert_eq!(b.n_cells(), 10);
        let h = GpuMsg::Halo(vec![]);
        assert_eq!(h.wire_size(), 16);
        assert_eq!(h.n_cells(), 0);
    }

    #[test]
    fn wire_codec_roundtrips_every_variant() {
        let msgs = vec![
            GpuMsg::Bids(vec![BidCell {
                gid: u64::MAX,
                move_bid: u128::MAX,
                bind_bid: 1,
            }]),
            GpuMsg::Bids(vec![]),
            GpuMsg::Halo(vec![HaloCell {
                gid: 3,
                epi_state: 2,
                epi_timer: 17,
                tcell: TCellSlot::EMPTY,
                virions: f32::from_bits(1), // denormal survives bit-exactly
                chem: -0.0,
            }]),
        ];
        let payload = pgas::wire::encode_bucket(&msgs);
        let back: Vec<GpuMsg> =
            pgas::wire::decode_bucket(msgs.len() as u64, &payload).expect("clean payload");
        assert_eq!(back, msgs);
        // One field walk: the digest is the CRC of exactly the wire bytes.
        for m in &msgs {
            let mut c = Crc64::new();
            m.digest(&mut c);
            let wire = pgas::wire::encode_bucket(std::slice::from_ref(m));
            assert_eq!(c.finish(), pgas::crc64(&wire), "{m:?}");
        }
        assert!(pgas::wire::decode_bucket::<GpuMsg>(
            msgs.len() as u64,
            &payload[..payload.len() - 1]
        )
        .is_none());
        let mut bad = payload.clone();
        bad[0] = 7; // unknown variant tag
        assert!(pgas::wire::decode_bucket::<GpuMsg>(msgs.len() as u64, &bad).is_none());
    }
}
