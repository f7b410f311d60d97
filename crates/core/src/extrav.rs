//! Shared extravasation trial table.
//!
//! All circulating T cells make one extravasation attempt per step at a
//! uniformly random voxel (§2.2). The trial sequence is a pure function of
//! `(seed, step, trial index)`, so every rank can reconstruct it; this table
//! computes it once per step, on the step's worker pool, and groups it by
//! voxel so a rank can extract the trials landing in a row of its region
//! with two offset lookups instead of a full scan (the *modeled* system
//! distributes trial generation across ranks — see DESIGN.md; the cost model
//! charges each rank `ntrials / n_ranks`).
//!
//! **What order is guaranteed, and why it is enough.** Entries are ascending
//! by `(voxel, trial index)`. Trials only ever interact *within* a voxel — the
//! first successful trial claims it and every later one sees it occupied — so
//! the per-voxel ascending trial order is the one thing the model's outcome
//! depends on; the voxel-major order on top of it is what makes a contiguous
//! range of global indices a contiguous slice.
//!
//! **Which trials are listed.** A trial can change something only where a T
//! cell can land ([`extrav_possible`]) or is blocked by one already there;
//! anywhere else it finds a free voxel and fails. So
//! [`TrialTable::rebuild_listed`] places only trials on voxels the units
//! mark ([`mark_listed`], from the step-start state) and only counts the rest
//! per voxel, for [`TrialTable::unlisted_in`] to answer a row range in O(1).
//! This is exact: trials are evaluated against the state the mark was taken
//! from (a ghost copy holds its owner's), and a voxel gains a T cell within
//! the step only through one of its own trials, which requires it listed.
//! [`TrialTable::rebuild`] and [`TrialTable::build`] list every voxel.
//!
//! **How it is built.** Placing `n` trials into `V` voxels with dense integer
//! keys needs no comparisons: an RNG pass keeps each listed trial in trial
//! order (and counts each unlisted one at its voxel), a histogram + prefix
//! sum over the buckets gives every bucket its slice, and one scatter *in
//! trial order* fills the slices — stable, so each voxel's trials are
//! ascending by construction. A bucket is `voxel >> shift` with the smallest
//! `shift` that keeps the bucket count at or below `2n`: one voxel per bucket
//! (`shift = 0`) whenever `V ≤ 2n`, which is all steady-state traffic
//! (`n ≈ 5·V` under `SimParams::scaled_to`). When `V ≫ n` a bucket spans
//! `2^shift` voxels but holds under one trial on average, a comparison sort
//! of each such sub-slice finishes the order, and every trial is listed.
//!
//! **The RNG pass runs on the step's pool.** It is cut into chunks of
//! [`CHUNK_TRIALS`] consecutive trial indices (one chunk on an inline pool)
//! that the pool's threads claim. A trial's voxel is a pure function of
//! `(seed, step, trial)`, so each chunk's listed trials are in trial order
//! and the histogram and scatter read the chunks in chunk order: the same
//! sequence one thread would produce. Unlisted counts go to one `V + 1`
//! slot per thread that can hold a chunk at once (the pool's workers and
//! the coordinator); they are integer sums, so which thread counted a trial
//! cannot show, and the prefix sum adds the slots up. The table is bitwise
//! the same on every pool. Every buffer is sized on the coordinator and
//! kept from step to step. Memory is `O(n)` per thread, never `O(V)`: the
//! per-voxel mask and count slots exist only when `V ≤ 2n`.
//!
//! **What a trial costs.** [`extrav_voxels`] folds the step's RNG key once,
//! so a trial is two mixes and one widening multiply, then a mask test and a
//! count or push into the chunk's buffers. Read from the `trial-table` span
//! of traced `cpu_arc`-shaped runs (160², 518 steps, 48.6 M trials, 0.9 %
//! listed) on a shared 2-vCPU Xeon host, the whole table costs 5.4–8.6
//! ns/trial on one thread and 3.7–5.1 ns/trial with one pool worker beside
//! the coordinator.

use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};

use pgas::WorkPool;

use crate::params::SimParams;
use crate::rules::{extrav_possible, extrav_voxels};
use crate::soa::VoxelSoA;

/// Trials per chunk of the RNG pass on a pool with workers: `cpu_arc`'s
/// steady-state table (≈ 128 k trials) splits into eight. Measured there,
/// 8 k–24 k ran alike; 4 k and 32 k were slower.
pub const CHUNK_TRIALS: usize = 16_384;

/// One extravasation trial: the global voxel index it lands on and its index
/// in the step's trial sequence. Ordered by `(voxel, trial)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Trial {
    pub voxel: u32,
    pub trial: u32,
}

/// The extravasation trials of one step, ascending by `(voxel, trial index)`.
/// Per-voxel trial order is what resolves same-voxel conflicts (first
/// successful trial claims the voxel).
#[derive(Debug, Default)]
pub struct TrialTable {
    /// The listed trials.
    entries: Vec<Trial>,
    /// `entries[starts[b]..starts[b + 1]]` are the trials whose
    /// `voxel >> shift` is `b`.
    starts: Vec<u32>,
    shift: u32,
    /// `unlisted[g]` counts the unlisted trials on voxels below `g`; empty
    /// under coarse buckets, which list every trial.
    unlisted: Vec<u32>,
    /// Rebuild scratch: chunk `c`'s listed trials in trial order.
    chunks: Vec<Mutex<Vec<Trial>>>,
    /// Rebuild scratch: per-voxel unlisted counts, one slot per thread that
    /// can run a chunk at once; slot 0 holds `unlisted` during the pass.
    slots: Vec<Mutex<Vec<u32>>>,
    /// Rebuild scratch: one bit per voxel, set where trials are listed.
    mask: Vec<u64>,
}

/// Lock a scratch buffer, ignoring poison: a panicking chunk re-raises on
/// the coordinator, and the next rebuild clears every buffer it uses.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock`] for the coordinator, which holds the table exclusively.
fn get_mut<T>(m: &mut Mutex<T>) -> &mut T {
    m.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// The first free slot from `from` on, cycling. At most `slots.len()`
/// threads run chunks at once, so one is always free or about to be.
fn claim<T>(slots: &[Mutex<T>], from: usize) -> MutexGuard<'_, T> {
    (from..)
        .find_map(|i| match slots[i % slots.len()].try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        })
        .expect("an unbounded range")
}

impl TrialTable {
    /// Build the complete table for `step` given the circulating pool size.
    pub fn build(p: &SimParams, step: u64, ntrials: u64) -> Self {
        let mut table = TrialTable::default();
        table.rebuild(p, step, ntrials);
        table
    }

    /// Replace the contents with the complete table for `step`, reusing the
    /// buffers: every voxel is listed.
    pub fn rebuild(&mut self, p: &SimParams, step: u64, ntrials: u64) {
        let inline = WorkPool::new(0);
        self.rebuild_listed(&inline, p, step, ntrials, |mask| mask.fill(u64::MAX));
    }

    /// Replace the contents with the table for `step`, listing only the
    /// trials on voxels whose bit `mark` sets in a zeroed mask (bit `g % 64`
    /// of word `g / 64` for voxel `g`) and counting the rest per voxel.
    /// `mark` runs only under per-voxel buckets; coarse ones list every trial.
    /// The RNG pass runs as [`CHUNK_TRIALS`]-trial chunks on `pool` (one
    /// chunk on an inline pool); the table is the same on every pool.
    ///
    /// # Panics
    /// If `ntrials` or the grid's voxel count does not fit the 32-bit entry
    /// fields (`SimParams::validate` rejects such grids up front).
    pub fn rebuild_listed(
        &mut self,
        pool: &WorkPool,
        p: &SimParams,
        step: u64,
        ntrials: u64,
        mark: impl FnOnce(&mut [u64]),
    ) {
        let n = u32::try_from(ntrials)
            .expect("extravasation trial count exceeds the table's 32-bit trial index");
        let nvoxels = p.dims.nvoxels();
        assert!(
            u32::try_from(nvoxels).is_ok(),
            "grid of {nvoxels} voxels exceeds the table's 32-bit voxel index"
        );
        self.starts.clear();
        self.unlisted.clear();
        self.shift = 0;
        if n == 0 {
            self.entries.clear();
            return;
        }
        let last_voxel = nvoxels.saturating_sub(1);
        while (last_voxel >> self.shift) >= 2 * n as usize {
            self.shift += 1;
        }
        let shift = self.shift;

        // Every buffer the pass writes is sized here, on the coordinator, so
        // a chunk's pushes land in memory the coordinator's allocator arena
        // owns: a chunk reserves its expected listed share plus a quarter
        // and 64 (all of it under coarse buckets), and one that outgrows
        // that grows in place like any `Vec`. Buffers are kept when a step
        // needs fewer, so steady-state steps allocate nothing.
        let n = n as usize;
        let listed_voxels = if shift == 0 {
            self.mask.clear();
            self.mask.resize(nvoxels.div_ceil(64), 0);
            mark(&mut self.mask);
            self.mask.iter().map(|w| w.count_ones() as u64).sum()
        } else {
            nvoxels as u64
        };
        let chunk_len = if pool.n_threads() == 0 {
            n
        } else {
            CHUNK_TRIALS
        };
        let nchunks = n.div_ceil(chunk_len);
        if self.chunks.len() < nchunks {
            self.chunks.resize_with(nchunks, Mutex::default);
        }
        for (c, chunk) in self.chunks[..nchunks].iter_mut().enumerate() {
            let len = chunk_len.min(n - c * chunk_len);
            let expect = (len as u64 * listed_voxels / nvoxels as u64) as usize;
            let chunk = get_mut(chunk);
            chunk.clear();
            chunk.reserve((expect + expect / 4 + 64).min(len));
        }
        let nslots = if shift == 0 {
            (pool.n_threads() + 1).min(nchunks)
        } else {
            0
        };
        if self.slots.len() < nslots {
            self.slots.resize_with(nslots, Mutex::default);
        }
        if nslots > 0 {
            *get_mut(&mut self.slots[0]) = std::mem::take(&mut self.unlisted);
            for slot in &mut self.slots[..nslots] {
                let slot = get_mut(slot);
                slot.clear();
                slot.resize(nvoxels + 1, 0);
            }
        }

        // The RNG pass. A trial's voxel is a pure function of its index, so
        // each chunk holds its listed trials in trial order and the chunks
        // in chunk order are the whole sequence. An unlisted trial only
        // counts at slot `voxel + 1` of the slot its thread holds; the sum
        // over slots is the same whichever thread counted it.
        let draw = extrav_voxels(p, step);
        let (chunks, slots, mask) = (&self.chunks[..], &self.slots[..nslots], &self.mask[..]);
        pool.run_indexed(nchunks, |c| {
            let lo = c * chunk_len;
            let trials = (lo..n.min(lo + chunk_len)).map(|i| Trial {
                voxel: draw(i as u64) as u32,
                trial: i as u32,
            });
            let mut chunk = lock(&chunks[c]);
            let listed: &mut Vec<Trial> = &mut chunk;
            if slots.is_empty() {
                // Coarse buckets: every trial is listed.
                listed.extend(trials);
                return;
            }
            let mut slot = claim(slots, c);
            let unlisted: &mut [u32] = &mut slot;
            for t in trials {
                let v = t.voxel as usize;
                if mask[v / 64] >> (v % 64) & 1 != 0 {
                    listed.push(t);
                } else {
                    unlisted[v + 1] += 1;
                }
            }
        });
        if nslots > 0 {
            let mut slots = self.slots[..nslots].iter_mut().map(get_mut);
            self.unlisted = slots.next().map(std::mem::take).unwrap_or_default();
            for slot in slots {
                for (u, c) in self.unlisted.iter_mut().zip(slot.iter()) {
                    *u += c;
                }
            }
            let mut below = 0;
            for c in &mut self.unlisted {
                below += *c;
                *c = below;
            }
        }

        let listed = &mut self.chunks[..nchunks];
        // No clear first: the scatter below overwrites every slot, so
        // entries kept from the last step need no re-zeroing.
        let nlisted = listed.iter_mut().map(|c| get_mut(c).len()).sum();
        self.entries.resize(nlisted, Trial { voxel: 0, trial: 0 });
        // Count bucket `b` at slot `b + 2`; after the prefix sum slot `b + 1`
        // is bucket `b`'s start, and the scatter advances it to the bucket's
        // end — the next bucket's start. Slots `0..=nbuckets` are then the
        // final offsets and the spare last slot goes.
        let nbuckets = (last_voxel >> shift) + 1;
        self.starts.resize(nbuckets + 2, 0);
        for t in listed.iter_mut().flat_map(|c| get_mut(c).iter()) {
            self.starts[(t.voxel >> shift) as usize + 2] += 1;
        }
        let mut end = 0u32;
        for s in &mut self.starts[2..] {
            end += *s;
            *s = end;
        }
        for &t in listed.iter_mut().flat_map(|c| get_mut(c).iter()) {
            let cursor = &mut self.starts[(t.voxel >> shift) as usize + 1];
            self.entries[*cursor as usize] = t;
            *cursor += 1;
        }
        self.starts.pop();

        if shift > 0 {
            for w in self.starts.windows(2) {
                self.entries[w[0] as usize..w[1] as usize].sort_unstable();
            }
        }
    }

    /// How many trials landed on unlisted voxels in `[gid_lo, gid_hi)`.
    pub fn unlisted_in(&self, gid_lo: usize, gid_hi: usize) -> u64 {
        if self.unlisted.is_empty() {
            return 0;
        }
        u64::from(self.unlisted[gid_hi] - self.unlisted[gid_lo])
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Index of the first entry whose voxel is `>= gid`.
    fn lower_bound(&self, gid: usize) -> usize {
        let b = gid >> self.shift;
        if b + 1 >= self.starts.len() {
            return self.entries.len();
        }
        let (lo, hi) = (self.starts[b] as usize, self.starts[b + 1] as usize);
        lo + self.entries[lo..hi].partition_point(|e| (e.voxel as usize) < gid)
    }

    /// All trials landing on voxels in the global-index range
    /// `[gid_lo, gid_hi)`, in `(voxel, trial)` order.
    pub fn in_gid_range(&self, gid_lo: usize, gid_hi: usize) -> &[Trial] {
        &self.entries[self.lower_bound(gid_lo)..self.lower_bound(gid_hi)]
    }

    /// All trials in `(voxel, trial)` order.
    pub fn all(&self) -> &[Trial] {
        &self.entries
    }
}

/// Set the mask bit of every voxel of one contiguous row of a unit's storage
/// where a trial can change something: a T cell blocks it, or
/// [`extrav_possible`] holds. `soa[li..li + len]` hold the voxels of global
/// indices `gi..gi + len`.
pub fn mark_listed(
    p: &SimParams,
    mask: &mut [u64],
    gi: usize,
    soa: &VoxelSoA,
    li: usize,
    len: usize,
) {
    for d in 0..len {
        if soa.tcells[li + d].occupied() || extrav_possible(p, soa.chem.get(li + d)) {
            let g = gi + d;
            mask[g / 64] |= 1 << (g % 64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridDims;
    use crate::rng::{CounterRng, Stream};
    use crate::rules::extrav_voxel;

    /// The table as a comparison sort builds it — the definition the bucket
    /// placement is checked against, entry for entry.
    fn sorted_oracle(p: &SimParams, step: u64, ntrials: u64) -> Vec<(usize, u64)> {
        let mut entries: Vec<(usize, u64)> = (0..ntrials)
            .map(|i| (extrav_voxel(p, step, i), i))
            .collect();
        entries.sort_unstable();
        entries
    }

    fn params_for(dims: GridDims) -> SimParams {
        SimParams {
            dims,
            ..SimParams::default()
        }
    }

    fn params() -> SimParams {
        params_for(GridDims::new2d(32, 32))
    }

    fn widened(entries: &[Trial]) -> Vec<(usize, u64)> {
        entries
            .iter()
            .map(|e| (e.voxel as usize, u64::from(e.trial)))
            .collect()
    }

    /// `in_gid_range` must return exactly the entries a filter over the whole
    /// table keeps.
    #[track_caller]
    fn assert_ranges_match_filter(t: &TrialTable, ranges: &[(usize, usize)]) {
        for &(lo, hi) in ranges {
            let expect: Vec<Trial> = t
                .all()
                .iter()
                .copied()
                .filter(|e| (lo..hi).contains(&(e.voxel as usize)))
                .collect();
            assert_eq!(t.in_gid_range(lo, hi), expect.as_slice(), "[{lo}, {hi})");
        }
    }

    #[track_caller]
    fn assert_matches_oracle(t: &TrialTable, p: &SimParams, step: u64, n: u64) {
        assert_eq!(t.len() as u64, n);
        assert_eq!(t.is_empty(), n == 0);
        assert_eq!(
            widened(t.all()),
            sorted_oracle(p, step, n),
            "dims {:?} step {step} n {n} shift {}",
            p.dims,
            t.shift
        );
    }

    #[test]
    fn equals_the_comparison_sort_at_the_size_edges() {
        let p = params();
        for n in [0, 1, 2, 255, 256, 257, 70_000] {
            assert_matches_oracle(&TrialTable::build(&p, 5, n), &p, 5, n);
        }
    }

    #[test]
    fn equals_the_comparison_sort_across_grid_shapes() {
        // One voxel; fewer voxels than trials; a 3D grid.
        for (dims, n) in [
            (GridDims::new2d(1, 1), 300),
            (GridDims::new2d(7, 3), 5_000),
            (GridDims::new3d(9, 5, 4), 2_000),
        ] {
            let p = params_for(dims);
            let t = TrialTable::build(&p, 11, n);
            assert_eq!(t.shift, 0, "V <= 2n keeps one voxel per bucket");
            assert_matches_oracle(&t, &p, 11, n);
        }
    }

    #[test]
    fn sparse_trials_use_coarse_buckets_and_memory_linear_in_trials() {
        let p = params_for(GridDims::new2d(2048, 2048));
        let t = TrialTable::build(&p, 3, 100);
        assert!(t.shift > 0);
        assert!(t.starts.len() <= 2 * 100 + 1);
        assert_matches_oracle(&t, &p, 3, 100);
        // Coarse buckets still answer arbitrary ranges exactly.
        assert_ranges_match_filter(
            &t,
            &[
                (0, 1),
                (1000, 3_000_000),
                (4_194_303, 4_194_304),
                (0, 4_194_304),
            ],
        );
    }

    /// Sixty seeded `(params, step, trial count)` cases: 2D and 3D grids
    /// from one voxel to 40,000, under both per-voxel and coarse buckets.
    fn seeded_shapes(rng: &mut CounterRng) -> Vec<(SimParams, u64, u64)> {
        (0..60)
            .map(|case| {
                let dims = if case % 3 == 0 {
                    GridDims::new3d(
                        1 + rng.below(12) as u32,
                        1 + rng.below(12) as u32,
                        1 + rng.below(12) as u32,
                    )
                } else {
                    GridDims::new2d(1 + rng.below(200) as u32, 1 + rng.below(200) as u32)
                };
                let p = SimParams {
                    seed: rng.next_u64(),
                    ..params_for(dims)
                };
                (p, rng.below(1_000), rng.below(3_000))
            })
            .collect()
    }

    #[test]
    fn equals_the_comparison_sort_over_a_seeded_shape_sweep() {
        let mut rng = CounterRng::new(2024, Stream::ExtravVoxel, 0, 0);
        for (p, step, n) in seeded_shapes(&mut rng) {
            assert_matches_oracle(&TrialTable::build(&p, step, n), &p, step, n);
        }
    }

    /// A seeded mask listing about one voxel in `1 << sparsity`.
    fn seeded_mask(rng: &mut CounterRng, nvoxels: usize, sparsity: u32) -> Vec<u64> {
        (0..nvoxels.div_ceil(64))
            .map(|_| (0..sparsity).fold(u64::MAX, |m, _| m & rng.next_u64()))
            .collect()
    }

    fn is_listed(mask: &[u64], voxel: u32) -> bool {
        mask[voxel as usize / 64] >> (voxel % 64) & 1 != 0
    }

    /// Rebuild `t` on `pool` listing by `mask`; the mask if the table asked
    /// for it, `None` when coarse buckets listed everything without asking.
    fn rebuild_with<'m>(
        t: &mut TrialTable,
        pool: &WorkPool,
        p: &SimParams,
        step: u64,
        n: u64,
        mask: &'m [u64],
    ) -> Option<&'m [u64]> {
        let mut asked = false;
        t.rebuild_listed(pool, p, step, n, |m| {
            m.copy_from_slice(mask);
            asked = true;
        });
        asked.then_some(mask)
    }

    /// `t` must hold exactly the trials of `complete` the mask lists (all of
    /// them when it is `None`), and count the rest over every row of `p`'s
    /// grid and over seeded ranges.
    #[track_caller]
    fn assert_listing(
        t: &TrialTable,
        complete: &TrialTable,
        p: &SimParams,
        mask: Option<&[u64]>,
        rng: &mut CounterRng,
    ) {
        let listed = |e: &Trial| mask.is_none_or(|m| is_listed(m, e.voxel));
        let expect: Vec<Trial> = complete.all().iter().copied().filter(listed).collect();
        assert_eq!(t.all(), expect.as_slice());
        let nvoxels = p.dims.nvoxels();
        let row = p.dims.x as usize;
        let mut ranges: Vec<(usize, usize)> =
            (0..nvoxels).step_by(row).map(|lo| (lo, lo + row)).collect();
        for _ in 0..32 {
            let a = rng.below(nvoxels as u64 + 1) as usize;
            let b = rng.below(nvoxels as u64 + 1) as usize;
            ranges.push((a.min(b), a.max(b)));
        }
        for &(lo, hi) in &ranges {
            let in_range = complete.in_gid_range(lo, hi).iter();
            let unlisted = in_range.filter(|e| !listed(e)).count() as u64;
            assert_eq!(t.unlisted_in(lo, hi), unlisted, "[{lo}, {hi})");
        }
        assert_ranges_match_filter(t, &ranges);
    }

    #[test]
    fn listed_table_is_the_complete_table_filtered_by_the_mask() {
        let mut rng = CounterRng::new(7, Stream::ExtravVoxel, 0, 0);
        let (mut listed_cases, mut coarse_cases) = (0, 0);
        for (p, step, n) in seeded_shapes(&mut rng) {
            let complete = TrialTable::build(&p, step, n);
            for sparsity in [0, 1, 3, 64] {
                let mask = seeded_mask(&mut rng, p.dims.nvoxels(), sparsity);
                let mut t = TrialTable::default();
                let used = rebuild_with(&mut t, &WorkPool::new(0), &p, step, n, &mask);
                assert_eq!(used.is_some(), complete.shift == 0 && n > 0);
                if used.is_some() {
                    listed_cases += 1;
                } else if n > 0 {
                    coarse_cases += 1;
                }
                assert_listing(&t, &complete, &p, used, &mut rng);
            }
        }
        assert!(
            listed_cases > 40 && coarse_cases > 40,
            "{listed_cases} listed, {coarse_cases} coarse"
        );
    }

    #[test]
    fn an_all_listed_mask_is_the_complete_table() {
        let mut rng = CounterRng::new(9, Stream::ExtravVoxel, 0, 0);
        for (p, step, n) in seeded_shapes(&mut rng) {
            let complete = TrialTable::build(&p, step, n);
            let mut t = TrialTable::default();
            t.rebuild_listed(&WorkPool::new(0), &p, step, n, |m| m.fill(u64::MAX));
            assert_eq!(t.all(), complete.all());
            assert_eq!((&t.starts, t.shift), (&complete.starts, complete.shift));
            assert_eq!(t.unlisted_in(0, p.dims.nvoxels()), 0);
        }
    }

    #[test]
    fn gid_range_extraction() {
        let p = params(); // 32 x 32: rows are 32 voxels
        let t = TrialTable::build(&p, 2, 300);
        assert_ranges_match_filter(
            &t,
            &[
                (0, 0),       // empty at the origin
                (500, 500),   // empty mid-grid
                (1024, 1024), // empty at the end
                (64, 96),     // exactly one row
                (100, 200),   // straddles rows
                (0, 1024),    // the whole grid
            ],
        );
        // Union over disjoint ranges covers everything.
        let total = t.in_gid_range(0, 512).len() + t.in_gid_range(512, 1024).len();
        assert_eq!(total, 300);
    }

    #[test]
    fn empty_table() {
        let p = params();
        let t = TrialTable::build(&p, 0, 0);
        assert!(t.is_empty());
        assert!(t.in_gid_range(0, 1024).is_empty());
    }

    /// Every field a rebuild writes must be equal, not only the entries.
    #[track_caller]
    fn assert_same_table(t: &TrialTable, expect: &TrialTable, what: &str) {
        assert_eq!(t.entries, expect.entries, "{what}: entries");
        assert_eq!(t.starts, expect.starts, "{what}: starts");
        assert_eq!(t.shift, expect.shift, "{what}: shift");
        assert_eq!(t.unlisted, expect.unlisted, "{what}: unlisted");
    }

    /// Inline dispatch and pools of one to three workers.
    fn pools() -> Vec<WorkPool> {
        (0..=3).map(WorkPool::new).collect()
    }

    #[test]
    fn pooled_table_equals_the_inline_one() {
        let pools = pools();
        let mut rng = CounterRng::new(13, Stream::ExtravVoxel, 0, 0);
        let mut cases = seeded_shapes(&mut rng);
        // Chunk edges: under one chunk, exactly one, and k chunks plus one
        // trial, under per-voxel buckets (96² ≤ 2n) and coarse ones.
        let chunk = CHUNK_TRIALS as u64;
        for dims in [GridDims::new2d(96, 96), GridDims::new2d(2048, 2048)] {
            for n in [chunk - 1, chunk, 3 * chunk + 1] {
                cases.push((params_for(dims), 17, n));
            }
        }
        let mut split = 0;
        for (p, step, n) in cases {
            split += usize::from(n > chunk);
            for sparsity in [0, 3] {
                let mask = seeded_mask(&mut rng, p.dims.nvoxels(), sparsity);
                let mut inline = TrialTable::default();
                rebuild_with(&mut inline, &pools[0], &p, step, n, &mask);
                for pool in &pools[1..] {
                    let mut t = TrialTable::default();
                    rebuild_with(&mut t, pool, &p, step, n, &mask);
                    let what = format!("{} workers, n {n}, dims {:?}", pool.n_threads(), p.dims);
                    assert_same_table(&t, &inline, &what);
                }
            }
        }
        assert_eq!(split, 2, "both bucket modes split into chunks");
    }

    #[test]
    fn rebuild_in_place_leaves_no_stale_entry() {
        let pools = pools();
        let big = params();
        let sparse = params_for(GridDims::new2d(2048, 2048));
        let mut rng = CounterRng::new(5, Stream::ExtravVoxel, 0, 0);
        let mut t = TrialTable::default();
        // Listed, complete and coarse rebuilds in turn, growing and shrinking,
        // on pools that grow and shrink too.
        for (p, step, n, sparsity, workers) in [
            (&big, 1, 50_000, Some(2), 2),
            (&big, 2, 40_000, None, 3),
            (&sparse, 3, 3, Some(0), 1), // shrinks, and switches to coarse buckets
            (&sparse, 9, 40_000, Some(0), 3), // coarse, in three chunks
            (&big, 4, 60_000, Some(5), 0),
            (&big, 5, 0, Some(1), 2),
            (&big, 6, 30_000, Some(0), 1),
            (&sparse, 7, 9, None, 2),
            (&big, 8, 45_000, Some(3), 3),
            (&big, 10, 16_385, Some(1), 1),
        ] {
            let pool = &pools[workers];
            let complete = TrialTable::build(p, step, n);
            let mut fresh = TrialTable::default();
            let used = match sparsity {
                Some(s) => {
                    let mask = seeded_mask(&mut rng, p.dims.nvoxels(), s);
                    let used = rebuild_with(&mut t, pool, p, step, n, &mask).is_some();
                    rebuild_with(&mut fresh, &pools[0], p, step, n, &mask);
                    used.then_some(mask)
                }
                None => {
                    t.rebuild_listed(pool, p, step, n, |m| m.fill(u64::MAX));
                    fresh.rebuild(p, step, n);
                    assert_matches_oracle(&t, p, step, n);
                    None
                }
            };
            assert_listing(&t, &complete, p, used.as_deref(), &mut rng);
            assert_same_table(&t, &fresh, &format!("step {step} on {workers} workers"));
        }
    }

    #[test]
    #[should_panic(expected = "32-bit trial index")]
    fn trial_count_beyond_32_bits_is_refused_not_truncated() {
        TrialTable::build(&params(), 0, u64::from(u32::MAX) + 1);
    }

    #[test]
    #[should_panic(expected = "32-bit voxel index")]
    fn grid_beyond_32_bits_is_refused_not_truncated() {
        TrialTable::build(&params_for(GridDims::new2d(65_536, 65_536)), 0, 1);
    }
}
