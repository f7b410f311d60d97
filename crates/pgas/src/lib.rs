//! # pgas — a BSP-style PGAS runtime (UPC++ stand-in)
//!
//! SIMCoV's original parallelization uses UPC++ [Bachan et al., IPDPS'19]:
//! SPMD ranks, asynchronous remote procedure calls (RPCs), reductions and
//! GPU-to-GPU copies. This crate substitutes that runtime for a
//! single-process setting (see DESIGN.md): **logical ranks** execute
//! *supersteps* on a shared thread pool, RPCs become typed messages delivered
//! at superstep boundaries, and a tree allreduce combines per-rank
//! contributions.
//!
//! SIMCoV's communication is bulk-synchronous per timestep (compute →
//! exchange → apply), so the BSP restriction loses nothing while making
//! execution deterministic: inboxes are canonicalized by source rank, and
//! every rank's compute is a pure function of its state plus its inbox.
//!
//! Communication volumes (messages, bytes) are metered in [`CommCounters`];
//! the `gpusim` cost model converts them into simulated network time.
//!
//! Silent-data-corruption defense lives alongside the fail-stop fault model:
//! [`crc`] provides the zero-dependency CRC64 and the [`Payload`] integrity
//! trait, the mailbox layer checksums every coalesced batch when corruption
//! can strike, and [`fault`] schedules the corruption itself
//! ([`FaultKind::PayloadCorruption`] / [`FaultKind::StateCorruption`]).

pub mod bsp;
pub mod counters;
pub mod crc;
pub mod fault;
pub mod mailbox;
pub mod pool;
pub mod reduce;
pub mod transport;
pub mod wire;

pub use bsp::{Bsp, DEFAULT_RETRANSMIT_BUDGET};
pub use counters::CommCounters;
pub use crc::{crc64, Crc64, Payload};
pub use fault::{
    CorruptionKind, FaultEvent, FaultKind, FaultPlan, FaultRates, IntegrityAction,
    IntegrityDetector, IntegrityFailure, IntegrityRecord, PendingStateCorruption, RecoveryRecord,
    SplitMix64, SuperstepError, SuperstepFailure,
};
pub use mailbox::{ExchangeFaults, ExchangeVolume, Mailboxes, Outbox, BATCH_HEADER_BYTES};
pub use pool::WorkPool;
pub use reduce::{allreduce, tree_depth};
pub use transport::{
    ExchangeTransport, ProcessTransport, ProcessTransportConfig, TransportCounters, TransportMode,
    WireOutcome,
};
pub use wire::{decode_bucket, encode_bucket, WireCodec, WireField, WireReader, WireWrite};
