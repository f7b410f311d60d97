//! Checkpoint/restore: snapshot a running simulation to a compact binary
//! blob and resume it later — bitwise-exactly, thanks to the counter-based
//! RNG (no hidden generator state to capture).
//!
//! Long SIMCoV campaigns (33,120+ steps) need restartability on shared
//! clusters. There is one blob version: [`encode_run`] writes a driver-run
//! [`RunCheckpoint`] (resumable state plus the statistics history) and
//! [`restore_run`] reads it back; the durable crash-restart files persist
//! exactly this blob. Its layout, little-endian throughout:
//!
//! ```text
//! [magic "SIMCOVCK"][version u32 = 2][parameter fingerprint u64][step u64]
//! [write_state: dims 3×u32, epi state n×u8, epi timer n×u32, T-cell slots
//!  n×u32, virions n×f32, chemokine n×f32, carry f64, total u64,
//!  cohorts u64 + (expiry u64, count u64)*]
//! [history u64 + StepStats (11 × 8 bytes)*]
//! ```
//!
//! Every byte goes through `pgas::wire`. The state after the step counter
//! is one [`write_state`] walk over a [`WireWrite`] sink, and the integrity
//! seal [`crc_state`](crate::integrity::crc_state) is the CRC-64 of that
//! same walk, so the seal cannot drift from what the blob holds.
//!
//! Every parse failure is a typed [`CheckpointError`]; hostile input is
//! bounds-checked before any allocation.

use crate::epithelial::{EpiCells, EpiState};
use crate::fields::Field;
use crate::grid::GridDims;
use crate::integrity::crc_run;
use crate::params::SimParams;
use crate::stats::{StepStats, TimeSeries};
use crate::tcell::{Cohort, TCellSlot, VascularPool};
use crate::world::World;
use pgas::wire::{encode_seq, WireReader, WireWrite};
use pgas::SplitMix64;
use std::collections::VecDeque;

const MAGIC: &[u8; 8] = b"SIMCOVCK";
/// The one blob version [`encode_run`] writes and [`restore_run`] reads.
/// Version 1, a serial-only layout without the history trailer, is
/// rejected like any other unknown version.
const RUN_VERSION: u32 = 2;

/// Why a checkpoint blob failed to restore. `Display` strings are part of
/// the diagnostic surface (tests pin their phrasing).
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The blob does not start with the SIMCoV checkpoint magic.
    BadMagic,
    /// A blob version this build does not write.
    UnsupportedVersion(u32),
    /// The blob was written under different simulation parameters.
    FingerprintMismatch,
    /// The blob ends before a declared field, or claims more cohorts or
    /// history records than its remaining bytes could hold. `offset` is
    /// where the read that failed began.
    Truncated { offset: usize },
    /// Grid dims in the blob disagree with the resuming parameters.
    DimsMismatch { got: GridDims, expected: GridDims },
    /// An epithelial state byte outside the enum's range — corrupt payload.
    BadEpiState(u8),
    /// Cohort counts overflow u64 when summed.
    CohortCountsOverflow,
    /// Cohort counts disagree with the pool's cached total.
    CohortSumMismatch { claimed: u64, total: u64 },
    /// The vascular carry is NaN or infinite.
    NonFiniteCarry,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a SIMCoV checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::FingerprintMismatch => write!(
                f,
                "parameter fingerprint mismatch: resuming with different parameters"
            ),
            CheckpointError::Truncated { offset } => {
                write!(f, "truncated checkpoint at byte {offset}")
            }
            CheckpointError::DimsMismatch { got, expected } => {
                write!(f, "dims mismatch: {got:?} vs {expected:?}")
            }
            CheckpointError::BadEpiState(b) => write!(f, "corrupt epithelial state byte {b}"),
            CheckpointError::CohortCountsOverflow => {
                write!(f, "corrupt checkpoint: cohort counts overflow")
            }
            CheckpointError::CohortSumMismatch { claimed, total } => write!(
                f,
                "corrupt checkpoint: cohorts sum to {claimed}, total says {total}"
            ),
            CheckpointError::NonFiniteCarry => {
                write!(f, "corrupt checkpoint: non-finite vascular carry")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Write the resumable state that follows a blob's step counter: dims,
/// the world's per-voxel fields, then the vascular pool. The blob
/// ([`encode_run`]) and the seal ([`crc_state`](crate::integrity::crc_state))
/// are this one walk over two sinks.
pub fn write_state<W: WireWrite>(out: &mut W, world: &World, pool: &VascularPool) {
    out.put_u32s([world.dims.x, world.dims.y, world.dims.z]);
    out.put_bytes(&world.epi.state);
    out.put_u32s(world.epi.timer.iter().copied());
    out.put_u32s(world.tcells.iter().map(|t| t.0));
    out.put_u32s(world.virions.data.iter().map(|v| v.to_bits()));
    out.put_u32s(world.chemokine.data.iter().map(|c| c.to_bits()));
    let (cohorts, carry, total) = pool.snapshot();
    out.put_f64(carry);
    out.put_u64(total);
    encode_seq(&cohorts, out);
}

/// A reader's `None`: the blob ran out (or a count overran it) at the
/// reader's position.
fn need<T>(v: Option<T>, r: &WireReader) -> Result<T, CheckpointError> {
    v.ok_or(CheckpointError::Truncated {
        offset: r.position(),
    })
}

/// Read `n` little-endian words — one per-voxel field — in a single
/// bounds check.
fn read_words<T>(
    r: &mut WireReader,
    n: usize,
    from_word: impl Fn(u32) -> T,
) -> Result<Vec<T>, CheckpointError> {
    let bytes = need(n.checked_mul(4).and_then(|len| r.read_bytes(len)), r)?;
    Ok(bytes
        .chunks_exact(4)
        .map(|w| from_word(u32::from_le_bytes(w.try_into().expect("4-byte chunk"))))
        .collect())
}

/// Parse what [`write_state`] wrote, validating every claim.
fn read_state(
    r: &mut WireReader,
    params: &SimParams,
) -> Result<(World, VascularPool), CheckpointError> {
    let dims = GridDims::new3d(
        need(r.read_u32(), r)?,
        need(r.read_u32(), r)?,
        need(r.read_u32(), r)?,
    );
    if dims != params.dims {
        return Err(CheckpointError::DimsMismatch {
            got: dims,
            expected: params.dims,
        });
    }
    let n = dims.nvoxels();
    let epi_state = need(r.read_bytes(n), r)?.to_vec();
    if let Some(&b) = epi_state.iter().find(|&&b| b > EpiState::Dead as u8) {
        return Err(CheckpointError::BadEpiState(b));
    }
    let epi_timer = read_words(r, n, |w| w)?;
    let tcells = read_words(r, n, TCellSlot)?;
    let virions = read_words(r, n, f32::from_bits)?;
    let chemokine = read_words(r, n, f32::from_bits)?;
    let carry = need(r.read_f64(), r)?;
    let total = need(r.read_u64(), r)?;
    let cohorts: Vec<Cohort> = need(r.read_seq(Cohort::ENCODED_LEN), r)?;
    // The pool's own invariants hold for every blob `encode_run` writes; a
    // blob that violates them is corrupt and must be rejected here rather
    // than trip assertions (or overflow) inside `from_snapshot`.
    let claimed = cohorts
        .iter()
        .try_fold(0u64, |acc, c| acc.checked_add(c.count))
        .ok_or(CheckpointError::CohortCountsOverflow)?;
    if claimed != total {
        return Err(CheckpointError::CohortSumMismatch { claimed, total });
    }
    if !carry.is_finite() {
        return Err(CheckpointError::NonFiniteCarry);
    }
    let world = World {
        dims,
        epi: EpiCells {
            state: epi_state,
            timer: epi_timer,
        },
        tcells,
        virions: Field { data: virions },
        chemokine: Field { data: chemokine },
    };
    Ok((world, VascularPool::from_snapshot(cohorts, carry, total)))
}

/// Serialize a [`RunCheckpoint`]: the resumable state plus the statistics
/// history, so a crash restart reproduces the full time series, not just
/// the final state. Parameters are *not* embedded — resuming requires the
/// same `SimParams`, which is checked via a fingerprint.
pub fn encode_run(params: &SimParams, cp: &RunCheckpoint) -> Vec<u8> {
    let mut out = Vec::new();
    out.put_bytes(MAGIC);
    out.put_u32(RUN_VERSION);
    out.put_u64(params_fingerprint(params));
    out.put_u64(cp.step);
    write_state(&mut out, &cp.world, &cp.pool);
    encode_seq(&cp.history.steps, &mut out);
    out
}

/// Restore a [`RunCheckpoint`] from [`encode_run`] output.
pub fn restore_run(params: &SimParams, blob: &[u8]) -> Result<RunCheckpoint, CheckpointError> {
    let r = &mut WireReader::new(blob);
    if need(r.read_bytes(MAGIC.len()), r)? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = need(r.read_u32(), r)?;
    if version != RUN_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    if need(r.read_u64(), r)? != params_fingerprint(params) {
        return Err(CheckpointError::FingerprintMismatch);
    }
    let step = need(r.read_u64(), r)?;
    let (world, pool) = read_state(r, params)?;
    let steps = need(r.read_seq(StepStats::ENCODED_LEN), r)?;
    Ok(RunCheckpoint {
        step,
        world,
        pool,
        history: TimeSeries { steps },
    })
}

// ---------------------------------------------------------------------------
// In-memory incremental checkpoints (recovery support)
// ---------------------------------------------------------------------------
//
// The binary blob format above serves cold restarts between processes. The
// fault-recovery loop in the driver crate needs something different: a
// *cheap, frequent, in-process* snapshot it can roll a run back to after a
// rank failure. Checkpoints here stay as live structures (no encoding), and
// successive saves pay only for the voxels that changed — SIMCoV's activity
// is spatially sparse, so a delta is typically a small fraction of the grid.
// The `*_bytes` accounting mirrors what an encoded incremental checkpoint
// would cost, which the fault-sweep bench plots as checkpoint overhead.
//
// Against *silent* corruption a single rollback target is not enough: if the
// newest checkpoint itself absorbed a flipped bit, rolling back to it just
// replays the corruption. The store therefore keeps a short chain of sealed
// generations; `latest_verified` re-derives each generation's CRC seal and
// quarantines any that no longer match, falling back to the newest clean one.

pgas::wire_cell! {
    /// One voxel's complete state, the unit of incremental checkpoint
    /// deltas: the bytes a voxel adds to a dense blob.
    pub struct VoxelState {
        pub epi_state: u8,
        pub epi_timer: u32,
        pub tcell: TCellSlot,
        pub virions: f32,
        pub chemokine: f32,
    }
}

impl VoxelState {
    fn capture(w: &World, i: usize) -> VoxelState {
        VoxelState {
            epi_state: w.epi.state[i],
            epi_timer: w.epi.timer[i],
            tcell: w.tcells[i],
            virions: w.virions.get(i),
            chemokine: w.chemokine.get(i),
        }
    }

    fn differs(&self, w: &World, i: usize) -> bool {
        self.epi_state != w.epi.state[i]
            || self.epi_timer != w.epi.timer[i]
            || self.tcell != w.tcells[i]
            || self.virions.to_bits() != w.virions.get(i).to_bits()
            || self.chemokine.to_bits() != w.chemokine.get(i).to_bits()
    }

    fn apply(self, w: &mut World, i: usize) {
        w.epi.state[i] = self.epi_state;
        w.epi.timer[i] = self.epi_timer;
        w.tcells[i] = self.tcell;
        w.virions.set(i, self.virions);
        w.chemokine.set(i, self.chemokine);
    }
}

/// A sparse world-to-world diff: every voxel whose state changed, with its
/// new value. Comparison is bitwise (float payloads compared as bits), so
/// `apply` reproduces the target world exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorldDelta {
    pub changed: Vec<(u32, VoxelState)>,
}

impl WorldDelta {
    /// Diff two same-shaped worlds.
    pub fn diff(prev: &World, next: &World) -> WorldDelta {
        assert_eq!(prev.dims, next.dims, "delta across different grids");
        let mut changed = Vec::new();
        for i in 0..next.nvoxels() {
            let v = VoxelState::capture(next, i);
            if v.differs(prev, i) {
                changed.push((i as u32, v));
            }
        }
        WorldDelta { changed }
    }

    /// Apply in place: `apply(diff(a, b), a) == b`, bitwise.
    pub fn apply(&self, w: &mut World) {
        for &(i, v) in &self.changed {
            v.apply(w, i as usize);
        }
    }

    pub fn len(&self) -> usize {
        self.changed.len()
    }

    pub fn is_empty(&self) -> bool {
        self.changed.is_empty()
    }

    /// What this delta would cost encoded (u32 index + voxel per entry).
    pub fn encoded_bytes(&self) -> usize {
        self.changed.len() * (4 + VoxelState::ENCODED_LEN)
    }
}

/// A resumable snapshot of a driver-level run: the canonical world, the
/// replicated vascular pool, the statistics history, at step `step`.
/// Live structures, not encoded — rollback is a clone, not a parse.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCheckpoint {
    pub step: u64,
    pub world: World,
    pub pool: VascularPool,
    pub history: TimeSeries,
}

/// Accounting for one [`CheckpointStore::save`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    pub step: u64,
    /// Cost of a dense (full-world) checkpoint at this step.
    pub full_bytes: u64,
    /// Cost actually paid: dense for the first save, delta afterwards.
    pub delta_bytes: u64,
    /// Voxels that changed since the previous checkpoint.
    pub changed_voxels: u64,
}

/// How many sealed generations the store retains. One guards
/// against fail-stop loss; the extra depth guards against a *corrupt*
/// newest generation (quarantine falls back to an older clean one).
pub const DEFAULT_GENERATIONS: usize = 3;

/// A retained checkpoint generation with its CRC seal, taken from the live
/// state at save time. A generation whose re-derived CRC disagrees with
/// its seal was corrupted at rest and must not be restored.
#[derive(Debug, Clone, PartialEq)]
struct Generation {
    cp: RunCheckpoint,
    seal: u64,
}

/// An in-memory incremental checkpoint store holding a short chain of
/// sealed [`RunCheckpoint`] generations (newest last). The first save is a
/// full clone; every later save diffs against the newest generation and
/// pays only for changed voxels. Cumulative byte counters feed the
/// fault-sweep bench's checkpoint-overhead curves.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckpointStore {
    generations: VecDeque<Generation>,
    /// Number of saves performed.
    pub saves: u64,
    /// Cumulative dense cost (what non-incremental checkpointing would pay).
    pub full_bytes: u64,
    /// Cumulative incremental cost actually paid.
    pub delta_bytes: u64,
    /// Generations discarded because their seal no longer verified.
    pub quarantined: u64,
}

impl CheckpointStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Retained generation count.
    pub fn generations(&self) -> usize {
        self.generations.len()
    }

    /// Record a checkpoint of the run at `step`.
    pub fn save(
        &mut self,
        step: u64,
        world: &World,
        pool: &VascularPool,
        history: &TimeSeries,
    ) -> CheckpointStats {
        // What a dense encoding of this world would occupy (the blob's
        // per-voxel payload; headers excluded).
        let full = (world.nvoxels() * VoxelState::ENCODED_LEN) as u64;
        let seal = crc_run(step, world, pool);
        let (world, delta_bytes, changed_voxels) = match self.generations.back() {
            None => (world.clone(), full, world.nvoxels() as u64),
            Some(prev) => {
                let delta = WorldDelta::diff(&prev.cp.world, world);
                // Materialize the new generation by patching a clone of the
                // previous one — the same work an encoded incremental store
                // would do, and it keeps the patch path honest.
                let mut next_world = prev.cp.world.clone();
                delta.apply(&mut next_world);
                debug_assert_eq!(&next_world, world, "incremental patch must reproduce");
                // When nearly every voxel changed, the per-entry index
                // overhead makes the delta dearer than a dense dump; a real
                // store would write dense, so account that way.
                let bytes = (delta.encoded_bytes() as u64).min(full);
                (next_world, bytes, delta.len() as u64)
            }
        };
        self.generations.push_back(Generation {
            cp: RunCheckpoint {
                step,
                world,
                pool: pool.clone(),
                history: history.clone(),
            },
            seal,
        });
        if self.generations.len() > DEFAULT_GENERATIONS {
            self.generations.pop_front();
        }
        self.saves += 1;
        self.full_bytes += full;
        self.delta_bytes += delta_bytes;
        CheckpointStats {
            step,
            full_bytes: full,
            delta_bytes,
            changed_voxels,
        }
    }

    /// The most recent checkpoint, if any save has happened. Does *not*
    /// verify seals — fail-stop recovery can trust it; silent-corruption
    /// recovery must go through [`latest_verified`](Self::latest_verified).
    pub fn latest(&self) -> Option<&RunCheckpoint> {
        self.generations.back().map(|g| &g.cp)
    }

    /// The newest generation whose CRC seal still verifies. Generations
    /// that fail verification are quarantined (dropped and counted); if
    /// every generation is corrupt the store ends up empty and the caller
    /// must treat the run as unrecoverable from memory.
    pub fn latest_verified(&mut self) -> Option<&RunCheckpoint> {
        while let Some(g) = self.generations.back() {
            if crc_run(g.cp.step, &g.cp.world, &g.cp.pool) == g.seal {
                break;
            }
            self.generations.pop_back();
            self.quarantined += 1;
        }
        self.generations.back().map(|g| &g.cp)
    }

    /// Test/injection hook: flip one seeded bit in the *newest* generation's
    /// world, modeling corruption of a checkpoint at rest. Returns false if
    /// the store is empty.
    pub fn inject_corruption(&mut self, seed: u64) -> bool {
        let Some(g) = self.generations.back_mut() else {
            return false;
        };
        let mut rng = SplitMix64::new(seed);
        let n = g.cp.world.nvoxels() as u64;
        let i = (rng.next_u64() % n) as usize;
        let w = &mut g.cp.world;
        match rng.next_u64() % 3 {
            0 => {
                let bit = 1u32 << (rng.next_u64() % 32);
                let v = w.virions.get(i);
                w.virions.set(i, f32::from_bits(v.to_bits() ^ bit));
            }
            1 => {
                let bit = 1u32 << (rng.next_u64() % 32);
                let c = w.chemokine.get(i);
                w.chemokine.set(i, f32::from_bits(c.to_bits() ^ bit));
            }
            _ => {
                w.epi.timer[i] ^= 1 << (rng.next_u64() % 32);
            }
        }
        true
    }
}

/// A cheap structural fingerprint of the parameters (hash of the debug
/// formatting — parameters are plain data, so this is stable within a
/// build and catches accidental mismatches).
pub(crate) fn params_fingerprint(p: &SimParams) -> u64 {
    let s = format!("{p:?}");
    let mut h = 0xcbf29ce484222325u64; // FNV-1a
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrity::crc_state;
    use crate::serial::SerialSim;

    fn sim() -> SerialSim {
        let p = SimParams::test_config(GridDims::new2d(24, 24), 160, 3, 13);
        SerialSim::new(p)
    }

    fn checkpoint(s: &SerialSim) -> RunCheckpoint {
        RunCheckpoint {
            step: s.step,
            world: s.world.clone(),
            pool: s.pool.clone(),
            history: s.history.clone(),
        }
    }

    fn blob_after(steps: u64) -> (SerialSim, Vec<u8>) {
        let mut a = sim();
        for _ in 0..steps {
            a.advance_step();
        }
        let blob = encode_run(&a.params, &checkpoint(&a));
        (a, blob)
    }

    #[test]
    fn resume_equals_uninterrupted_run() {
        let mut full = sim();
        full.run();

        let (first_half, blob) = blob_after(80);
        let cp = restore_run(&first_half.params, &blob).unwrap();
        assert_eq!(cp.step, 80);
        let mut resumed = SerialSim::from_world(first_half.params.clone(), cp.world);
        resumed.pool = cp.pool;
        resumed.step = cp.step;
        resumed.history = cp.history;
        for _ in 80..160 {
            resumed.advance_step();
        }
        assert!(
            full.world.first_difference(&resumed.world).is_none(),
            "resumed run diverged from uninterrupted run"
        );
        assert_eq!(full.pool, resumed.pool);
        assert_eq!(full.history, resumed.history);
    }

    #[test]
    fn rejects_wrong_parameters() {
        let (a, blob) = blob_after(1);
        let mut other = a.params.clone();
        other.infectivity *= 2.0;
        let e = restore_run(&other, &blob).unwrap_err();
        assert_eq!(e, CheckpointError::FingerprintMismatch);
        assert!(e.to_string().contains("fingerprint"), "{e}");
    }

    #[test]
    fn rejects_corrupt_blobs() {
        let (a, mut blob) = blob_after(1);
        // Truncation.
        let short = &blob[..blob.len() / 2];
        assert!(matches!(
            restore_run(&a.params, short),
            Err(CheckpointError::Truncated { .. })
        ));
        // Bad magic.
        blob[0] ^= 0xff;
        assert_eq!(
            restore_run(&a.params, &blob).unwrap_err(),
            CheckpointError::BadMagic
        );
    }

    #[test]
    fn rejects_corrupt_state_bytes() {
        let (a, mut blob) = blob_after(1);
        // Corrupt an epithelial state byte (header is 8+4+8+8+12 = 40).
        blob[45] = 99;
        let e = restore_run(&a.params, &blob).unwrap_err();
        assert_eq!(e, CheckpointError::BadEpiState(99));
        assert!(e.to_string().contains("epithelial"), "{e}");
    }

    #[test]
    fn rejects_every_other_version() {
        let (a, blob) = blob_after(1);
        // Version 1 (the retired serial-only layout) and an unknown future
        // version are both rejected at the header.
        for v in [1u32, 9] {
            let mut other = blob.clone();
            other[8..12].copy_from_slice(&v.to_le_bytes());
            assert_eq!(
                restore_run(&a.params, &other).unwrap_err(),
                CheckpointError::UnsupportedVersion(v)
            );
        }
    }

    #[test]
    fn run_blob_roundtrips_with_history() {
        let (a, blob) = blob_after(30);
        assert!(!a.history.is_empty(), "serial sim logs history");
        let cp = checkpoint(&a);
        let back = restore_run(&a.params, &blob).unwrap();
        assert_eq!(back, cp, "run checkpoint roundtrips bitwise");

        // A hostile history count must be rejected without allocation.
        let mut hostile = blob.clone();
        let hist_at = blob.len() - 8 - cp.history.steps.len() * StepStats::ENCODED_LEN;
        hostile[hist_at..hist_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            restore_run(&a.params, &hostile).unwrap_err(),
            CheckpointError::Truncated { offset: hist_at }
        );
    }

    /// Fuzz `restore_run` against hostile input: truncations at every
    /// length, random byte flips in valid blobs, and fully random blobs.
    /// Restoring must return `Err` (or a valid checkpoint) — never panic,
    /// never misallocate. Catches a `pos + n` bounds-check overflow and an
    /// unchecked cohort- or history-count pre-allocation.
    #[test]
    fn fuzz_restore_never_panics() {
        use crate::rng::{CounterRng, Stream};

        let (a, blob) = blob_after(20);

        // Every truncation of a valid blob must be rejected cleanly.
        for len in 0..blob.len() {
            assert!(
                restore_run(&a.params, &blob[..len]).is_err(),
                "truncation to {len} bytes accepted"
            );
        }

        // Byte flips anywhere in a valid blob: Err or a structurally valid
        // checkpoint (a flipped float payload can still restore), never a
        // panic.
        for case in 0..400u64 {
            let mut rng = CounterRng::new(0xC0FFEE, Stream::ExtravVoxel, case, 0);
            let mut mutated = blob.clone();
            for _ in 0..1 + rng.below(8) {
                let at = rng.below(mutated.len() as u64) as usize;
                mutated[at] ^= rng.next_u64() as u8;
            }
            let _ = restore_run(&a.params, &mutated);
        }

        // Fully random blobs of random lengths, plus adversarial giant
        // little-endian length words sprayed through them.
        for case in 0..400u64 {
            let mut rng = CounterRng::new(0xFEED, Stream::ExtravProb, case, 0);
            let len = rng.below(512) as usize;
            let mut junk: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            if junk.len() >= 8 && rng.chance(0.5) {
                // Start with valid magic so parsing reaches the length
                // fields, then plant u64::MAX somewhere after the header.
                junk[..8].copy_from_slice(MAGIC);
                if junk.len() > 28 {
                    let at = 12 + rng.below((junk.len() - 20) as u64) as usize;
                    junk[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
                }
            }
            assert!(
                restore_run(&a.params, &junk).is_err(),
                "random blob (case {case}) accepted"
            );
        }
    }

    /// The seal digests exactly the state bytes of the blob, and the blob
    /// is pinned, on a ragged 3D world with an odd voxel count: a walk that
    /// folds per-voxel words in pairs has one word over in every field.
    #[test]
    fn seal_is_the_crc_of_the_blob_state_and_the_blob_is_pinned() {
        let dims = GridDims::new3d(3, 1, 5);
        let mut world = World::healthy(dims);
        for i in 0..world.nvoxels() {
            let k = i as u32;
            world.epi.state[i] = (i % 5) as u8;
            world.epi.timer[i] = k.wrapping_mul(0x9E37_79B9);
            world.tcells[i] = TCellSlot((k << 20) | k);
            world.virions.data[i] = k as f32 * 1.5e3 - 7.0;
            world.chemokine.data[i] = f32::from_bits(0x3F00_0000 ^ (k * 977));
        }
        let cohorts = (0..2).map(|k| Cohort {
            expiry_step: 40 + k,
            count: 3 - k,
        });
        let pool = VascularPool::from_snapshot(cohorts.collect(), 0.25, 5);
        let cp = RunCheckpoint {
            step: 7,
            world,
            pool,
            history: TimeSeries::default(),
        };
        let blob = encode_run(&SimParams::test_config(dims, 10, 1, 5), &cp);
        // After the 28-byte header, before the empty history's length word.
        let state = &blob[28..blob.len() - 8];
        assert_eq!(crc_state(&cp.world, &cp.pool), pgas::crc64(state));
        let hex: String = blob.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, PINNED_BLOB);
    }

    /// The blob of the test above, captured before the word-run walk.
    const PINNED_BLOB: &str = concat!(
        "53494d434f56434b02000000cdf07536fd10818a070000000000000003000000010000000500000000010203",
        "040001020304000102030400000000b979379e72f36e3c2b6da6dae4e6dd789d60151756da4cb50f548453c8",
        "cdbbf18147f38f3ac12a2ef33a62ccacb4996a652ed1081ea808a70000000001001000020020000300300004",
        "00400005005000060060000700700008008000090090000a00a0000b00b0000c00c0000d00d0000e00e00000",
        "00e0c000a0ba4400103b4500688c450048bb450028ea4500840c4600f4234600643b4600d4524600446a4600",
        "da804600928c46004a98460002a4460000003fd103003fa207003f730b003f440f003f1513003fe616003fb7",
        "1a003f881e003f5922003f2a26003ffb29003fcc2d003f9d31003f6e35003f000000000000d03f0500000000",
        "0000000200000000000000280000000000000003000000000000002900000000000000020000000000000000",
        "00000000000000",
    );

    #[test]
    fn world_delta_roundtrips_bitwise() {
        let mut a = sim();
        for _ in 0..10 {
            a.advance_step();
        }
        let before = a.world.clone();
        for _ in 0..5 {
            a.advance_step();
        }
        let delta = WorldDelta::diff(&before, &a.world);
        assert!(!delta.is_empty(), "an active run must change voxels");
        assert!(
            delta.len() < a.world.nvoxels(),
            "activity is sparse: {} of {} voxels",
            delta.len(),
            a.world.nvoxels()
        );
        let mut patched = before;
        delta.apply(&mut patched);
        assert_eq!(patched, a.world);
        assert_eq!(
            delta.encoded_bytes(),
            delta.len() * (4 + VoxelState::ENCODED_LEN)
        );
        // Self-diff is empty.
        assert!(WorldDelta::diff(&a.world, &a.world).is_empty());
    }

    #[test]
    fn checkpoint_store_is_incremental() {
        let mut a = sim();
        let mut store = CheckpointStore::new();
        let first = store.save(0, &a.world, &a.pool, &a.history);
        assert_eq!(first.delta_bytes, first.full_bytes, "first save is dense");
        let mut last_world = a.world.clone();
        for k in 1..=3u64 {
            // Early steps: activity is still localized around the foci, so
            // the incremental save must beat a dense one.
            for _ in 0..2 {
                a.advance_step();
            }
            let s = store.save(a.step, &a.world, &a.pool, &a.history);
            assert_eq!(s.step, a.step);
            assert!(
                s.delta_bytes < s.full_bytes,
                "incremental save must be cheaper than dense ({} voxels changed of {})",
                s.changed_voxels,
                a.world.nvoxels()
            );
            let cp = store.latest().expect("saved");
            assert_eq!(cp.step, a.step);
            assert_eq!(cp.world, a.world, "stored world tracks the run");
            assert_eq!(cp.pool, a.pool);
            assert_eq!(cp.history, a.history);
            assert_ne!(cp.world, last_world, "run actually advanced (k={k})");
            last_world = a.world.clone();
        }
        assert_eq!(store.saves, 4);
        assert!(store.delta_bytes < store.full_bytes);
        // Four saves into a default (3-generation) store: the oldest was
        // evicted, the newest is still `latest`.
        assert_eq!(store.generations(), DEFAULT_GENERATIONS);
    }

    #[test]
    fn quarantine_falls_back_to_the_newest_clean_generation() {
        let mut a = sim();
        let mut store = CheckpointStore::new();
        let mut steps = Vec::new();
        for _ in 0..3 {
            for _ in 0..2 {
                a.advance_step();
            }
            store.save(a.step, &a.world, &a.pool, &a.history);
            steps.push(a.step);
        }
        assert_eq!(store.generations(), 3);
        // Clean store: latest_verified is simply latest.
        assert_eq!(store.latest_verified().unwrap().step, steps[2]);
        assert_eq!(store.quarantined, 0);

        // Corrupt the newest generation: verification must skip it.
        assert!(store.inject_corruption(0xBAD_5EED));
        assert_eq!(store.latest().unwrap().step, steps[2], "latest is blind");
        let verified = store.latest_verified().unwrap();
        assert_eq!(verified.step, steps[1], "fell back one generation");
        assert_eq!(store.quarantined, 1);
        assert_eq!(store.generations(), 2);

        // Corrupt every remaining generation: the store runs dry.
        assert!(store.inject_corruption(0xBAD_5EED + 1));
        store.latest_verified();
        assert!(store.inject_corruption(0xBAD_5EED + 2));
        assert!(store.latest_verified().is_none());
        assert_eq!(store.quarantined, 3);
        assert_eq!(store.generations(), 0);

        // The store still works after running dry.
        a.advance_step();
        store.save(a.step, &a.world, &a.pool, &a.history);
        assert_eq!(store.latest_verified().unwrap().step, a.step);
    }

    #[test]
    fn checkpoint_size_is_compact() {
        let (_, blob) = blob_after(0);
        // 24×24 voxels × 17 B/voxel + header ≈ 10 KB.
        assert!(blob.len() < 16 * 1024, "blob {} bytes", blob.len());
    }
}
