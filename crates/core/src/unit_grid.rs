//! The voxel substrate every distributed unit stands on: one subdomain's
//! halo box of state, stored row-major ([`HaloBox::local`]).
//!
//! SIMCoV-CPU ranks and SIMCoV-GPU devices keep the same storage; a device's
//! memory tiles (§3.2) are a logical index over it (`simcov_gpu::TileLayout`),
//! not a second storage order. Over that storage, [`UnitGrid`] does once
//! what both executors do alike: load a [`World`], answer the rules through
//! [`RuleView`], run extravasation over the halo reach, flip a seeded SDC
//! bit, mark the trial table's listed voxels, write the owned region back
//! and bucket traffic by the neighbours that hold a voxel. The three ways
//! the paper keeps the two codes apart — traversal (active list against
//! memory tiles), movement (RPC intents against the one-wave bid) and
//! reduction (atomics against the tree) — stay in the executor crates.

use crate::decomp::{Partition, Subdomain};
use crate::diffusion::{produce_chemokine, produce_virions};
use crate::epithelial::EpiState;
use crate::exact::BinnedSum;
use crate::extrav::{self, Trial, TrialTable};
use crate::grid::{Coord, GridDims};
use crate::halo::HaloBox;
use crate::params::SimParams;
use crate::rng::StepKey;
use crate::rules::{
    apoptosis_timer, epi_update, extrav_lifetime, extrav_succeeds, EpiUpdate, RuleView, TCellAction,
};
use crate::soa::VoxelSoA;
use crate::stats::StatsPartial;
use crate::tcell::TCellSlot;
use crate::world::World;
use pgas::SplitMix64;

/// A global axis-aligned box `[lo, hi)`.
pub type GridBox = (Coord, Coord);

/// The whole grid as a box.
pub fn grid_box(dims: GridDims) -> GridBox {
    (
        Coord::new(0, 0, 0),
        Coord::new(dims.x as i64, dims.y as i64, dims.z as i64),
    )
}

/// Call `row(start, index, len)` for every x-row segment of the part of `b`
/// inside the halo box, in storage order: `len` contiguous row-major cells
/// from `index`, holding the voxels from global `start` along x.
fn box_rows(hb: &HaloBox, (lo, hi): GridBox, mut row: impl FnMut(Coord, usize, usize)) {
    let (x0, x1) = (lo.x.max(hb.lo.x), hi.x.min(hb.hi.x));
    if x0 >= x1 {
        return;
    }
    for z in lo.z.max(hb.lo.z)..hi.z.min(hb.hi.z) {
        for y in lo.y.max(hb.lo.y)..hi.y.min(hb.hi.y) {
            let start = Coord::new(x0, y, z);
            row(start, hb.local(start), (x1 - x0) as usize);
        }
    }
}

/// One unit's voxel state over its halo box, stored row-major.
#[derive(Debug, Clone)]
pub struct UnitGrid {
    pub dims: GridDims,
    pub hb: HaloBox,
    pub soa: VoxelSoA,
    /// Neighbouring units and their subdomains; bit `i` of a
    /// [`UnitGrid::reach_mask`] stands for `neighbors[i]`.
    pub neighbors: Vec<(usize, Subdomain)>,
    /// Storage indices of this step's core extravasation placements.
    pub fresh: Vec<u32>,
}

impl UnitGrid {
    /// Unit `unit` of `partition`, its halo box loaded from `world` (cells
    /// outside the grid stay inert airway, their concentrations +0.0).
    pub fn new(partition: &Partition, unit: usize, world: &World) -> Self {
        let dims = partition.dims;
        let hb = HaloBox::new(dims, *partition.sub(unit));
        let mut soa = VoxelSoA::airway(hb.len());
        box_rows(&hb, grid_box(dims), |start, li, len| {
            let gi = dims.index(start);
            soa.epi.state[li..li + len].copy_from_slice(&world.epi.state[gi..gi + len]);
            soa.epi.timer[li..li + len].copy_from_slice(&world.epi.timer[gi..gi + len]);
            soa.tcells[li..li + len].copy_from_slice(&world.tcells[gi..gi + len]);
            soa.virions.data[li..li + len].copy_from_slice(&world.virions.data[gi..gi + len]);
            soa.chem.data[li..li + len].copy_from_slice(&world.chemokine.data[gi..gi + len]);
        });
        let neighbors: Vec<(usize, Subdomain)> = partition
            .neighbor_ranks(unit)
            .into_iter()
            .map(|r| (r, *partition.sub(r)))
            .collect();
        assert!(neighbors.len() <= 32, "neighbour mask is 32 bits");
        UnitGrid {
            dims,
            hb,
            soa,
            neighbors,
            fresh: Vec::new(),
        }
    }

    /// The owned region as a box.
    #[inline]
    pub fn core_box(&self) -> GridBox {
        let core = self.hb.core;
        (core.lo, core.hi)
    }

    /// Storage index of a covered global voxel id.
    #[inline]
    pub fn local_gid(&self, gid: u64) -> usize {
        self.hb.local(self.dims.coord(gid as usize))
    }

    /// Bit `i` set iff `neighbors[i]` holds `c` in its halo reach.
    pub fn reach_mask(&self, c: Coord) -> u32 {
        self.neighbors
            .iter()
            .enumerate()
            .filter(|(_, (_, sub))| sub.in_halo_reach(c))
            .fold(0, |m, (i, _)| m | 1 << i)
    }

    /// Extravasation over the halo reach: every trial of `trials` on a voxel
    /// of the halo box that is free when its turn comes places a fresh T
    /// cell if [`extrav_succeeds`]. Ghost trials are evaluated exactly as
    /// their owner evaluates them, so fresh ghost cells block this unit's
    /// movers; core placements are listed in `fresh` until the next call.
    /// Returns the trials that found their voxel free, unlisted ones
    /// included (they fail without a draw).
    pub fn extravasate(&mut self, p: &SimParams, t: u64, trials: &TrialTable) -> u64 {
        self.fresh.clear();
        let (dims, hb) = (self.dims, self.hb);
        let (lo, hi) = grid_box(dims);
        let (x0, x1) = (hb.lo.x.max(lo.x), hb.hi.x.min(hi.x));
        if x0 >= x1 {
            return 0;
        }
        let mut evaluated = 0u64;
        for z in hb.lo.z.max(lo.z)..hb.hi.z.min(hi.z) {
            for y in hb.lo.y.max(lo.y)..hb.hi.y.min(hi.y) {
                // Global indices run contiguously along x.
                let row = Coord::new(x0, y, z);
                let g0 = dims.index(row);
                let g1 = g0 + (x1 - x0) as usize;
                evaluated += trials.unlisted_in(g0, g1);
                for &Trial { voxel, trial } in trials.in_gid_range(g0, g1) {
                    let c = row.offset((voxel as usize - g0) as i64, 0, 0);
                    let li = self.hb.local(c);
                    if self.soa.tcells[li].occupied() {
                        continue;
                    }
                    let trial = u64::from(trial);
                    if extrav_succeeds(p, t, trial, self.soa.chem.get(li)) {
                        self.soa.tcells[li] = TCellSlot::fresh(extrav_lifetime(p, t, trial));
                        if hb.is_core(c) {
                            self.fresh.push(li as u32);
                        }
                    }
                    evaluated += 1;
                }
            }
        }
        evaluated
    }

    /// Apply the resolved `action` of the T cell at `li`; `won` says whether
    /// its bid won the target (actions without a bid ignore it). Every
    /// action ages the cell one tissue step; a winning mover leaves `li`
    /// empty and, if the target is owned here, lands there (a ghost target's
    /// owner instantiates it — the deterministic tiebreak guarantees no
    /// duplication, §3.1). Returns the new slot at `li`.
    pub fn apply_action(
        &mut self,
        p: &SimParams,
        li: usize,
        action: TCellAction,
        won: bool,
    ) -> TCellSlot {
        let slot = self.soa.tcells[li];
        let ts = slot.tissue_steps();
        let next = match action {
            TCellAction::Die => TCellSlot::EMPTY,
            TCellAction::StayBound => TCellSlot::established(ts - 1, slot.bind_steps() - 1),
            TCellAction::TryBind { .. } if won => {
                TCellSlot::established(ts - 1, p.tcell_binding_period)
            }
            TCellAction::TryMove { target, .. } if won => {
                if self.hb.is_core(target) {
                    let tl = self.hb.local(target);
                    self.soa.tcells[tl] = TCellSlot::established(ts - 1, 0);
                }
                TCellSlot::EMPTY
            }
            _ => TCellSlot::established(ts - 1, 0),
        };
        self.soa.tcells[li] = next;
        next
    }

    /// A won bind: the expressing cell at `c` turns apoptotic. Returns its
    /// storage index.
    pub fn bind(&mut self, p: &SimParams, t: u64, c: Coord) -> usize {
        let li = self.hb.local(c);
        debug_assert_eq!(self.soa.epi.get(li), EpiState::Expressing);
        let timer = apoptosis_timer(p, t, self.dims.index(c) as u64);
        self.soa.epi.set(li, EpiState::Apoptotic, timer);
        li
    }

    /// Settle this step's fresh T cells; returns how many there were.
    pub fn settle_fresh(&mut self) -> u64 {
        for &li in &self.fresh {
            self.soa.tcells[li as usize] = self.soa.tcells[li as usize].settled();
        }
        self.fresh.len() as u64
    }

    /// One voxel's epithelial FSM step and production at storage index `li`
    /// (global id `gid`; `infection` as in [`epi_update`]); `None` for airway
    /// and dead cells, which never change.
    #[inline]
    pub fn epi_step(
        &mut self,
        li: usize,
        p: &SimParams,
        t: u64,
        infection: StepKey,
        gid: u64,
    ) -> Option<EpiUpdate> {
        let soa = &mut self.soa;
        let s = soa.epi.get(li);
        if s == EpiState::Airway || s == EpiState::Dead {
            return None;
        }
        let u = epi_update(
            s,
            soa.epi.timer[li],
            soa.virions.get(li),
            p,
            t,
            infection,
            gid,
        );
        soa.epi.set(li, u.state, u.timer);
        if u.state.produces_virions() {
            let v = &mut soa.virions.data[li];
            *v = produce_virions(*v, p.virion_production);
        }
        if u.state.produces_chemokine() {
            let c = &mut soa.chem.data[li];
            *c = produce_chemokine(*c, p.chemokine_production);
        }
        Some(u)
    }

    /// Zero the concentrations of every ghost cell (the halo ring, cells
    /// outside the grid included), touching only the ring: a row inside the
    /// core's y and z range clears its two ends, any other row all of it.
    pub fn clear_ghost_concentrations(&mut self) {
        let hb = self.hb;
        let core = hb.core;
        let soa = &mut self.soa;
        box_rows(&hb, (hb.lo, hb.hi), |s, li, len| {
            let core_row =
                (core.lo.y..core.hi.y).contains(&s.y) && (core.lo.z..core.hi.z).contains(&s.z);
            let at = |x: i64| li + (x - s.x).clamp(0, len as i64) as usize;
            let (a, b) = if core_row {
                (at(core.lo.x), at(core.hi.x))
            } else {
                (li + len, li + len)
            };
            for r in [li..a, b..li + len] {
                soa.virions.data[r.clone()].fill(0.0);
                soa.chem.data[r].fill(0.0);
            }
        });
    }

    /// The owned region's statistics: concentrations summed exactly
    /// (exponent-binned, so any order is bitwise the same), tissue T cells
    /// and epithelial states counted. `step` and `extravasated` are left 0.
    pub fn core_stats(&self) -> StatsPartial {
        let (mut virions, mut chem) = (BinnedSum::new(), BinnedSum::new());
        let (mut tcells, mut epi) = (0u64, [0u64; 6]);
        let soa = &self.soa;
        box_rows(&self.hb, self.core_box(), |_, row, len| {
            for li in row..row + len {
                virions.add(soa.virions.data[li]);
                chem.add(soa.chem.data[li]);
                tcells += u64::from(soa.tcells[li].occupied());
                epi[soa.epi.state[li] as usize] += 1;
            }
        });
        StatsPartial {
            virions: virions.sum(),
            chemokine: chem.sum(),
            tcells_tissue: tcells,
            epi_healthy: epi[EpiState::Healthy as usize],
            epi_incubating: epi[EpiState::Incubating as usize],
            epi_expressing: epi[EpiState::Expressing as usize],
            epi_apoptotic: epi[EpiState::Apoptotic as usize],
            epi_dead: epi[EpiState::Dead as usize],
            ..StatsPartial::default()
        }
    }

    /// Flip one seeded bit in this unit's *owned* (core) state — the
    /// DRAM/HBM-style silent corruption modeled by
    /// `FaultKind::StateCorruption`. Targets the same field family as
    /// `CheckpointStore::inject_corruption` (virion bits, chemokine bits,
    /// or an epithelial timer), so every injection site stresses the same
    /// invariants the integrity scrub/audit checks. XOR semantics: the
    /// same seed applied twice restores the original state.
    pub fn corrupt_bit(&mut self, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        let core = self.hb.core;
        let n = core.nvoxels() as u64;
        if n == 0 {
            return;
        }
        let pick = (rng.next_u64() % n) as usize;
        let c = core.iter_coords().nth(pick).expect("pick < nvoxels");
        let li = self.hb.local(c);
        match rng.next_u64() % 3 {
            0 => {
                let bit = 1u32 << (rng.next_u64() % 32);
                let v = self.soa.virions.get(li);
                self.soa.virions.set(li, f32::from_bits(v.to_bits() ^ bit));
            }
            1 => {
                let bit = 1u32 << (rng.next_u64() % 32);
                let v = self.soa.chem.get(li);
                self.soa.chem.set(li, f32::from_bits(v.to_bits() ^ bit));
            }
            _ => {
                self.soa.epi.timer[li] ^= 1 << (rng.next_u64() % 32);
            }
        }
    }

    /// Set the trial-table mask bit of every owned voxel a trial can change.
    pub fn mark_listed(&self, p: &SimParams, mask: &mut [u64]) {
        box_rows(&self.hb, self.core_box(), |start, li, len| {
            extrav::mark_listed(p, mask, self.dims.index(start), &self.soa, li, len);
        });
    }

    /// Copy the owned region into a global world.
    pub fn write_into(&self, world: &mut World) {
        let soa = &self.soa;
        box_rows(&self.hb, self.core_box(), |start, li, len| {
            let gi = self.dims.index(start);
            world.epi.state[gi..gi + len].copy_from_slice(&soa.epi.state[li..li + len]);
            world.epi.timer[gi..gi + len].copy_from_slice(&soa.epi.timer[li..li + len]);
            world.tcells[gi..gi + len].copy_from_slice(&soa.tcells[li..li + len]);
            world.virions.data[gi..gi + len].copy_from_slice(&soa.virions.data[li..li + len]);
            world.chemokine.data[gi..gi + len].copy_from_slice(&soa.chem.data[li..li + len]);
        });
    }
}

/// Push `item` onto `buckets[i]` for every set bit `i` of `mask`.
#[inline]
pub fn bucket<T: Copy>(mask: u32, item: T, buckets: &mut [Vec<T>]) {
    let mut m = mask;
    while m != 0 {
        buckets[m.trailing_zeros() as usize].push(item);
        m &= m - 1;
    }
}

impl RuleView for UnitGrid {
    #[inline]
    fn dims(&self) -> GridDims {
        self.dims
    }
    #[inline]
    fn epi_state(&self, c: Coord) -> EpiState {
        self.soa.epi.get(self.hb.local(c))
    }
    #[inline]
    fn tcell(&self, c: Coord) -> TCellSlot {
        self.soa.tcells[self.hb.local(c)]
    }
    #[inline]
    fn virions(&self, c: Coord) -> f32 {
        self.soa.virions.get(self.hb.local(c))
    }
    #[inline]
    fn chemokine(&self, c: Coord) -> f32 {
        self.soa.chem.get(self.hb.local(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::Strategy;
    use crate::foi::FoiPattern;

    fn cases() -> Vec<(SimParams, Partition)> {
        [
            (GridDims::new2d(13, 11), 4),
            (GridDims::new2d(20, 9), 3),
            (GridDims::new3d(7, 9, 5), 8),
        ]
        .into_iter()
        .map(|(dims, units)| {
            let p = SimParams::test_config(dims, 8, 3, 5);
            (p, Partition::new(dims, units, Strategy::Blocks))
        })
        .collect()
    }

    #[test]
    fn halo_box_rows_walk_storage_in_order() {
        for (_, partition) in cases() {
            let hb = HaloBox::new(partition.dims, *partition.sub(0));
            let mut next = 0;
            box_rows(&hb, (hb.lo, hb.hi), |start, li, len| {
                assert_eq!((li, hb.local(start)), (next, next));
                next += len;
            });
            assert_eq!(next, hb.len());
        }
    }

    #[test]
    fn units_load_and_write_back_the_world() {
        for (p, partition) in cases() {
            let world = World::seeded(&p, FoiPattern::UniformLattice);
            let mut back = World::healthy(p.dims);
            for unit in 0..partition.n_ranks() {
                let grid = UnitGrid::new(&partition, unit, &world);
                for c in grid.hb.core.iter_coords() {
                    assert_eq!(grid.virions(c), world.virions.get(p.dims.index(c)));
                }
                grid.write_into(&mut back);
            }
            assert!(world.first_difference(&back).is_none());
        }
    }

    #[test]
    fn clearing_ghosts_touches_exactly_the_ring() {
        for (p, partition) in cases() {
            let world = World::healthy(p.dims);
            for unit in 0..partition.n_ranks() {
                let mut grid = UnitGrid::new(&partition, unit, &world);
                let hb = grid.hb;
                grid.soa.virions.data.fill(1.0);
                grid.soa.chem.data.fill(2.0);
                grid.clear_ghost_concentrations();
                for li in 0..hb.len() {
                    let core = hb.is_core(hb.global(li));
                    assert_eq!(grid.soa.virions.get(li), if core { 1.0 } else { 0.0 });
                    assert_eq!(grid.soa.chem.get(li), if core { 2.0 } else { 0.0 });
                }
            }
        }
    }

    #[test]
    fn reach_mask_names_the_neighbours_holding_a_voxel() {
        for (p, partition) in cases() {
            let world = World::healthy(p.dims);
            let grid = UnitGrid::new(&partition, 0, &world);
            for c in grid.hb.core.iter_coords() {
                let mask = grid.reach_mask(c);
                for (i, (_, sub)) in grid.neighbors.iter().enumerate() {
                    assert_eq!(mask >> i & 1 == 1, sub.in_halo_reach(c));
                }
                let mut buckets = vec![Vec::new(); grid.neighbors.len()];
                bucket(mask, c, &mut buckets);
                let held: usize = buckets.iter().map(Vec::len).sum();
                assert_eq!(held, mask.count_ones() as usize);
            }
        }
    }
}
