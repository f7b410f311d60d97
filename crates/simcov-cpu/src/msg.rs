//! RPC message types of the CPU baseline.
//!
//! These model the UPC++ communication SIMCoV-CPU issues: per-event RPCs
//! for T-cell intents crossing a process boundary and their results (the
//! second communication wave the GPU version eliminates), plus *aggregated*
//! boundary-strip updates that keep neighbor ghost copies current —
//! SIMCoV-CPU batches boundary state into bulk puts rather than issuing one
//! RPC per voxel. The `pgas` runtime meters wire sizes via [`WireSize`].

use pgas::counters::WireSize;
use pgas::crc::{Crc64, Payload};
use pgas::fault::SplitMix64;
use pgas::wire::{encode_seq, WireCodec, WireReader, WireWrite};
use pgas::wire_cell;
use simcov_core::tcell::TCellSlot;

wire_cell! {
    /// An aggregated boundary-concentration cell (gid, virions, chemokine).
    pub struct ConcCell {
        pub gid: u64,
        pub virions: f32,
        pub chem: f32,
    }
}

wire_cell! {
    /// An aggregated boundary-agent cell. `active` carries the activity
    /// predicate so the receiver can extend its active list across the process
    /// boundary (§3.2: "that RPC can add the affected voxels to the
    /// active-list").
    pub struct AgentCell {
        pub gid: u64,
        pub epi_state: u8,
        pub tcell: TCellSlot,
        pub active: bool,
    }
}

/// One RPC / bulk-put payload.
#[derive(Debug, Clone, PartialEq)]
pub enum CpuMsg {
    /// A T cell at `src` (global voxel id) wants to move to `target`
    /// (owned by the receiving rank). Carries the bid and the cell's
    /// remaining tissue lifetime so the owner can instantiate the moved
    /// cell without another round trip.
    MoveIntent {
        src: u64,
        target: u64,
        bid: u128,
        tissue_steps: u32,
    },
    /// A T cell at `src` wants to bind the expressing epithelial cell at
    /// `target` (owned by the receiving rank).
    BindIntent { src: u64, target: u64, bid: u128 },
    /// Owner's verdict on a cross-boundary move intent.
    MoveResult { src: u64, won: bool },
    /// Owner's verdict on a cross-boundary bind intent.
    BindResult { src: u64, won: bool },
    /// Post-production (pre-diffusion) concentrations of the active
    /// boundary voxels a neighbor's diffusion stencil needs this step
    /// (one aggregated put per neighbor per step).
    GhostConc(Vec<ConcCell>),
    /// End-of-step state of the active boundary voxels, needed by the
    /// neighbor's planning next step (one aggregated put per neighbor per
    /// step; concentrations ride along for ghost extravasation checks).
    GhostState {
        agents: Vec<AgentCell>,
        conc: Vec<ConcCell>,
    },
}

impl WireSize for CpuMsg {
    fn wire_size(&self) -> usize {
        match self {
            CpuMsg::MoveIntent { .. } => 36,
            CpuMsg::BindIntent { .. } => 32,
            CpuMsg::MoveResult { .. } | CpuMsg::BindResult { .. } => 9,
            CpuMsg::GhostConc(cells) => 16 + cells.len() * ConcCell::ENCODED_LEN,
            CpuMsg::GhostState { agents, conc } => {
                16 + agents.len() * AgentCell::ENCODED_LEN + conc.len() * ConcCell::ENCODED_LEN
            }
        }
    }

    fn is_bulk(&self) -> bool {
        matches!(self, CpuMsg::GhostConc(_) | CpuMsg::GhostState { .. })
    }
}

impl Payload for CpuMsg {
    /// Digesting is encoding into the checksum ([`WireCodec::encode`] is
    /// the one field walk), so the digest covers exactly the wire bytes.
    fn digest(&self, crc: &mut Crc64) {
        self.encode(crc);
    }

    fn corrupt(&mut self, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        match self {
            CpuMsg::MoveIntent {
                src,
                target,
                bid,
                tissue_steps,
            } => match rng.next_u64() % 4 {
                0 => *src ^= 1 << (rng.next_u64() % 64),
                1 => *target ^= 1 << (rng.next_u64() % 64),
                2 => *bid ^= 1 << (rng.next_u64() % 128),
                _ => *tissue_steps ^= 1 << (rng.next_u64() % 32),
            },
            CpuMsg::BindIntent { src, target, bid } => match rng.next_u64() % 3 {
                0 => *src ^= 1 << (rng.next_u64() % 64),
                1 => *target ^= 1 << (rng.next_u64() % 64),
                _ => *bid ^= 1 << (rng.next_u64() % 128),
            },
            CpuMsg::MoveResult { src, won } | CpuMsg::BindResult { src, won } => {
                if rng.next_u64().is_multiple_of(2) {
                    *src ^= 1 << (rng.next_u64() % 64);
                } else {
                    *won = !*won;
                }
            }
            CpuMsg::GhostConc(conc) => flip_one(&mut [], conc, &mut rng),
            CpuMsg::GhostState { agents, conc } => flip_one(agents, conc, &mut rng),
        }
    }

    fn corruptible(&self) -> bool {
        match self {
            CpuMsg::GhostConc(cells) => !cells.is_empty(),
            CpuMsg::GhostState { agents, conc } => !agents.is_empty() || !conc.is_empty(),
            _ => true,
        }
    }
}

/// One seeded flip in one cell of an aggregate, drawn over agents then conc.
fn flip_one(agents: &mut [AgentCell], conc: &mut [ConcCell], rng: &mut SplitMix64) {
    let n = agents.len() + conc.len();
    if n == 0 {
        return;
    }
    let i = (rng.next_u64() % n as u64) as usize;
    match agents.get_mut(i) {
        Some(a) => a.flip(rng),
        None => conc[i - agents.len()].flip(rng),
    }
}

/// Process-boundary codec; [`Payload::digest`] is this encoding fed to the
/// CRC, so the serialized form and the integrity digest are the same bytes.
impl WireCodec for CpuMsg {
    fn encode<W: WireWrite>(&self, out: &mut W) {
        match self {
            CpuMsg::MoveIntent {
                src,
                target,
                bid,
                tissue_steps,
            } => {
                out.put_u8(0);
                out.put_u64(*src);
                out.put_u64(*target);
                out.put_u128(*bid);
                out.put_u32(*tissue_steps);
            }
            CpuMsg::BindIntent { src, target, bid } => {
                out.put_u8(1);
                out.put_u64(*src);
                out.put_u64(*target);
                out.put_u128(*bid);
            }
            CpuMsg::MoveResult { src, won } => {
                out.put_u8(2);
                out.put_u64(*src);
                out.put_bool(*won);
            }
            CpuMsg::BindResult { src, won } => {
                out.put_u8(3);
                out.put_u64(*src);
                out.put_bool(*won);
            }
            CpuMsg::GhostConc(cells) => {
                out.put_u8(4);
                encode_seq(cells, out);
            }
            CpuMsg::GhostState { agents, conc } => {
                out.put_u8(5);
                encode_seq(agents, out);
                encode_seq(conc, out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(match r.read_u8()? {
            0 => CpuMsg::MoveIntent {
                src: r.read_u64()?,
                target: r.read_u64()?,
                bid: r.read_u128()?,
                tissue_steps: r.read_u32()?,
            },
            1 => CpuMsg::BindIntent {
                src: r.read_u64()?,
                target: r.read_u64()?,
                bid: r.read_u128()?,
            },
            2 => CpuMsg::MoveResult {
                src: r.read_u64()?,
                won: r.read_bool()?,
            },
            3 => CpuMsg::BindResult {
                src: r.read_u64()?,
                won: r.read_bool()?,
            },
            4 => CpuMsg::GhostConc(r.read_seq(ConcCell::ENCODED_LEN)?),
            5 => CpuMsg::GhostState {
                agents: r.read_seq(AgentCell::ENCODED_LEN)?,
                conc: r.read_seq(ConcCell::ENCODED_LEN)?,
            },
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
            CpuMsg::MoveIntent {
                src: 7,
                target: 9,
                bid: 0xDEAD_BEEF,
                tissue_steps: 40,
            },
            CpuMsg::BindIntent {
                src: 3,
                target: 4,
                bid: 11,
            },
            CpuMsg::MoveResult { src: 5, won: true },
            CpuMsg::BindResult { src: 6, won: false },
            CpuMsg::GhostConc(vec![
                ConcCell {
                    gid: 1,
                    virions: 0.25,
                    chem: 0.5
                };
                4
            ]),
            CpuMsg::GhostState {
                agents: vec![
                    AgentCell {
                        gid: 2,
                        epi_state: 1,
                        tcell: TCellSlot::EMPTY,
                        active: true
                    };
                    3
                ],
                conc: vec![
                    ConcCell {
                        gid: 3,
                        virions: 1.0,
                        chem: 0.0
                    };
                    2
                ],
            },
        ];
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
                CpuMsg::GhostConc(cells) => {
                    every_flip_shows!(cells[0], ConcCell);
                }
                CpuMsg::GhostState { agents, conc } => {
                    every_flip_shows!(agents[0], AgentCell);
                    every_flip_shows!(conc[0], ConcCell);
                }
                _ => {}
            }
            assert!(msg.corruptible());
            for seed in 0..64u64 {
                let mut m = msg.clone();
                m.corrupt(seed);
                let digest = |m: &CpuMsg| {
                    let mut c = Crc64::new();
                    m.digest(&mut c);
                    c.finish()
                };
                assert_ne!(digest(&m), digest(&msg), "flip changed the digest");
                m.corrupt(seed);
                assert_eq!(m, msg, "second application restores the original");
            }
        }
        // Empty aggregates expose no bits to flip.
        assert!(!CpuMsg::GhostConc(vec![]).corruptible());
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(
            CpuMsg::MoveResult { src: 1, won: true }.wire_size(),
            9,
            "results are tiny RPCs"
        );
        let batch = CpuMsg::GhostConc(vec![
            ConcCell {
                gid: 0,
                virions: 0.0,
                chem: 0.0
            };
            10
        ]);
        assert_eq!(batch.wire_size(), 16 + 160);
        let state = CpuMsg::GhostState {
            agents: vec![
                AgentCell {
                    gid: 0,
                    epi_state: 1,
                    tcell: TCellSlot::EMPTY,
                    active: false
                };
                3
            ],
            conc: vec![],
        };
        assert_eq!(state.wire_size(), 16 + 42);
    }

    #[test]
    fn wire_codec_roundtrips_every_variant() {
        let msgs = vec![
            CpuMsg::MoveIntent {
                src: u64::MAX,
                target: 9,
                bid: u128::MAX - 1,
                tissue_steps: 40,
            },
            CpuMsg::BindIntent {
                src: 3,
                target: 4,
                bid: 11,
            },
            CpuMsg::MoveResult { src: 5, won: true },
            CpuMsg::BindResult { src: 6, won: false },
            CpuMsg::GhostConc(vec![ConcCell {
                gid: 1,
                virions: f32::from_bits(1), // denormal survives bit-exactly
                chem: -0.0,
            }]),
            CpuMsg::GhostConc(vec![]),
            CpuMsg::GhostState {
                agents: vec![AgentCell {
                    gid: 2,
                    epi_state: 1,
                    tcell: TCellSlot::EMPTY,
                    active: true,
                }],
                conc: vec![ConcCell {
                    gid: 3,
                    virions: 1.0,
                    chem: 0.0,
                }],
            },
        ];
        let payload = pgas::wire::encode_bucket(&msgs);
        let back: Vec<CpuMsg> =
            pgas::wire::decode_bucket(msgs.len() as u64, &payload).expect("clean payload");
        assert_eq!(back, msgs);
        // One field walk: the digest is the CRC of exactly the wire bytes.
        for m in &msgs {
            let mut c = Crc64::new();
            m.digest(&mut c);
            let wire = pgas::wire::encode_bucket(std::slice::from_ref(m));
            assert_eq!(c.finish(), pgas::crc64(&wire), "{m:?}");
        }
        // A clipped payload or a flipped tag must fail decode, not panic.
        assert!(pgas::wire::decode_bucket::<CpuMsg>(
            msgs.len() as u64,
            &payload[..payload.len() - 1]
        )
        .is_none());
        let mut bad = payload.clone();
        bad[0] = 9; // unknown variant tag
        assert!(pgas::wire::decode_bucket::<CpuMsg>(msgs.len() as u64, &bad).is_none());
    }
}
