//! Shared extravasation trial table.
//!
//! All circulating T cells make one extravasation attempt per step at a
//! uniformly random voxel (§2.2). The trial sequence is a pure function of
//! `(seed, step, trial index)`, so every rank can reconstruct it; this table
//! computes it once per step and groups it by voxel so a rank can extract the
//! trials landing in a row of its region with two offset lookups instead of a
//! full scan (the *modeled* system distributes trial generation across ranks —
//! see DESIGN.md; the cost model charges each rank `ntrials / n_ranks`).
//!
//! **What order is guaranteed, and why it is enough.** Entries are ascending
//! by `(voxel, trial index)`. Trials only ever interact *within* a voxel — the
//! first successful trial claims it and every later one sees it occupied — so
//! the per-voxel ascending trial order is the one thing the model's outcome
//! depends on; the voxel-major order on top of it is what makes a contiguous
//! range of global indices a contiguous slice.
//!
//! **How it is built.** Placing `n` trials into `V` voxels with dense integer
//! keys needs no comparisons: one RNG pass records each trial's voxel, a
//! histogram + prefix sum over the buckets gives every bucket its slice, and
//! one scatter *in trial order* fills the slices — stable, so each voxel's
//! trials are ascending by construction. A bucket is `voxel >> shift` with the
//! smallest `shift` that keeps the bucket count at or below `2n`: one voxel
//! per bucket (`shift = 0`) whenever `V ≤ 2n`, which is all steady-state
//! traffic (`n ≈ 5·V` under `SimParams::scaled_to`). When `V ≫ n` a bucket
//! spans `2^shift` voxels but holds under one trial on average, and a
//! comparison sort of each such sub-slice finishes the order; memory is
//! `O(n)`, never `O(V)`.

use crate::params::SimParams;
use crate::rules::extrav_voxel;

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
#[derive(Debug, Clone, Default)]
pub struct TrialTable {
    entries: Vec<Trial>,
    /// `entries[starts[b]..starts[b + 1]]` are the trials whose
    /// `voxel >> shift` is `b`.
    starts: Vec<u32>,
    shift: u32,
    /// Rebuild scratch: the voxel of every trial, in trial order.
    voxels: Vec<u32>,
}

impl TrialTable {
    /// Build the table for `step` given the circulating pool size.
    pub fn build(p: &SimParams, step: u64, ntrials: u64) -> Self {
        let mut table = TrialTable::default();
        table.rebuild(p, step, ntrials);
        table
    }

    /// Replace the contents with the table for `step`, reusing the buffers.
    ///
    /// # Panics
    /// If `ntrials` or the grid's voxel count does not fit the 32-bit entry
    /// fields (`SimParams::validate` rejects such grids up front).
    pub fn rebuild(&mut self, p: &SimParams, step: u64, ntrials: u64) {
        let n = u32::try_from(ntrials)
            .expect("extravasation trial count exceeds the table's 32-bit trial index");
        let nvoxels = p.dims.nvoxels();
        assert!(
            u32::try_from(nvoxels).is_ok(),
            "grid of {nvoxels} voxels exceeds the table's 32-bit voxel index"
        );
        // No clear first: the scatter below overwrites every one of the `n`
        // slots, so entries kept from the last step need no re-zeroing.
        self.entries
            .resize(n as usize, Trial { voxel: 0, trial: 0 });
        self.starts.clear();
        self.voxels.clear();
        self.shift = 0;
        if n == 0 {
            return;
        }
        let last_voxel = nvoxels.saturating_sub(1);
        let mut shift = 0;
        while (last_voxel >> shift) >= 2 * n as usize {
            shift += 1;
        }
        self.shift = shift;
        let nbuckets = (last_voxel >> shift) + 1;

        self.voxels
            .extend((0..n).map(|i| extrav_voxel(p, step, u64::from(i)) as u32));

        // Count bucket `b` at slot `b + 2`; after the prefix sum slot `b + 1`
        // is bucket `b`'s start, and the scatter advances it to the bucket's
        // end — the next bucket's start. Slots `0..=nbuckets` are then the
        // final offsets and the spare last slot goes.
        self.starts.resize(nbuckets + 2, 0);
        for &v in &self.voxels {
            self.starts[(v >> shift) as usize + 2] += 1;
        }
        let mut end = 0u32;
        for s in &mut self.starts[2..] {
            end += *s;
            *s = end;
        }
        for (trial, &voxel) in (0..n).zip(&self.voxels) {
            let cursor = &mut self.starts[(voxel >> shift) as usize + 1];
            self.entries[*cursor as usize] = Trial { voxel, trial };
            *cursor += 1;
        }
        self.starts.pop();

        if shift > 0 {
            for w in self.starts.windows(2) {
                self.entries[w[0] as usize..w[1] as usize].sort_unstable();
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridDims;
    use crate::rng::{CounterRng, Stream};

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

    #[test]
    fn equals_the_comparison_sort_over_a_seeded_shape_sweep() {
        let mut rng = CounterRng::new(2024, Stream::ExtravVoxel, 0, 0);
        for case in 0..60 {
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
            let n = rng.below(3_000);
            let step = rng.below(1_000);
            assert_matches_oracle(&TrialTable::build(&p, step, n), &p, step, n);
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

    #[test]
    fn rebuild_in_place_leaves_no_stale_entry() {
        let big = params();
        let sparse = params_for(GridDims::new2d(2048, 2048));
        let mut t = TrialTable::default();
        for (p, step, n) in [
            (&big, 1, 50_000),
            (&sparse, 2, 3), // shrinks, and switches to coarse buckets
            (&big, 3, 0),
            (&big, 4, 60_000),
        ] {
            t.rebuild(p, step, n);
            assert_matches_oracle(&t, p, step, n);
            let fresh = TrialTable::build(p, step, n);
            assert_eq!(t.all(), fresh.all());
            assert_eq!((&t.starts, t.shift), (&fresh.starts, fresh.shift));
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
