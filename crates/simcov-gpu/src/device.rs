//! Per-device state and the two per-step phases of SIMCoV-GPU.
//!
//! Each timestep is two BSP supersteps (two communication waves, Fig. 2):
//!
//! 1. **plan + bid** — refresh ghosts, periodic tile check, extravasation
//!    over the halo reach, T-cell planning; every intent stores a bid at its
//!    target voxel; bid contributions are copied to every device holding the
//!    target.
//! 2. **resolve + update** — merge bids (max); every holder of a voxel
//!    independently determines the winner (deterministic tiebreak, §3.1):
//!    sources erase moved cells, owners instantiate them, bind winners
//!    trigger apoptosis. Then epithelial FSM + production run over owned
//!    *and ghost* voxels (ghost recomputation is exact because the FSM is
//!    voxel-local and all draws are counter-based), diffusion updates owned
//!    voxels, statistics are reduced by the variant's strategy, and the
//!    boundary state is pushed to neighbors.

use gpusim::device::LinkTraffic;
use gpusim::kernel::LaunchConfig;
use gpusim::reduce::{atomic_reduce, tree_reduce};
use gpusim::{DeviceCounters, KernelCategory};
use pgas::fault::SplitMix64;
use pgas::Outbox;
use simcov_core::decomp::{Partition, Subdomain};
use simcov_core::epithelial::EpiState;
use simcov_core::extrav::{Trial, TrialTable};
use simcov_core::grid::{Coord, GridDims};
use simcov_core::halo::HaloBox;
use simcov_core::lanes::{self, KernelMode};
use simcov_core::params::SimParams;
use simcov_core::rules::{
    self, epi_update, extrav_lifetime, extrav_succeeds, plan_tcell, voxel_active, Bid, RuleView,
    TCellAction,
};
use simcov_core::soa::{StencilDeltas, VoxelSoA};
use simcov_core::stats::StatsPartial;
use simcov_core::tcell::TCellSlot;
use simcov_core::world::World;

use simcov_telemetry::Telemetry;

use crate::msg::{BidCell, GpuMsg, HaloCell};
use crate::tiles::{TileLayout, TileTracker};
use crate::variants::GpuVariant;

/// Statistic lanes reduced per step (virions, chemokine, tissue T cells,
/// five epithelial state counts).
const STAT_LANES: u64 = 8;
/// Bytes read per voxel by the statistics sweep: the tiled layout reads
/// tile-contiguous lines; the untiled layout wastes part of each cache line.
const REDUCE_BYTES_TILED: u64 = 20;
const REDUCE_BYTES_UNTILED: u64 = 28;
/// Approximate bytes of state touched per voxel by an update kernel: the
/// tile-contiguous layout (§3.2, Fig. 3) coalesces accesses; the untiled
/// row-major layout wastes part of each cache line on strided SoA sweeps.
const UPDATE_BYTES_TILED: u64 = 32;
const UPDATE_BYTES_UNTILED: u64 = 52;

/// One simulated device and its subdomain state (tile-ordered storage).
pub struct GpuDevice {
    pub id: usize,
    pub layout: TileLayout,
    dims: GridDims,
    neighbors: Vec<(usize, Subdomain)>,
    pub variant: GpuVariant,
    devices_per_node: usize,

    /// SoA voxel state in tile-major padded storage.
    soa: VoxelSoA,
    /// Constant stencil deltas for within-tile strides `(1, tile, tile²)`.
    stencil: StencilDeltas,
    /// Which diffusion kernel this device runs (bitwise identical either
    /// way; `Scalar` is the differential oracle).
    kernel: KernelMode,
    move_bid: Vec<Bid>,
    bind_bid: Vec<Bid>,
    touched_bids: Vec<u32>,
    tracker: TileTracker,

    actions: Vec<(u32, TCellAction)>,
    fresh_placed: Vec<u32>,
    extravasated: u64,
    diffuse_out: Vec<(u32, f32, f32)>,

    pub counters: DeviceCounters,
    pub link: LinkTraffic,
    /// Telemetry handle for kernel-phase spans (disabled unless attached;
    /// spans land on this device's rank track, parented to its compute span).
    tel: Telemetry,
}

struct DeviceView<'a> {
    dims: GridDims,
    layout: &'a TileLayout,
    soa: &'a VoxelSoA,
}

impl RuleView for DeviceView<'_> {
    #[inline]
    fn dims(&self) -> GridDims {
        self.dims
    }
    #[inline]
    fn epi_state(&self, c: Coord) -> EpiState {
        self.soa.epi.get(self.layout.local(c))
    }
    #[inline]
    fn tcell(&self, c: Coord) -> TCellSlot {
        self.soa.tcells[self.layout.local(c)]
    }
    #[inline]
    fn virions(&self, c: Coord) -> f32 {
        self.soa.virions.get(self.layout.local(c))
    }
    #[inline]
    fn chemokine(&self, c: Coord) -> f32 {
        self.soa.chem.get(self.layout.local(c))
    }
}

impl GpuDevice {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: usize,
        partition: &Partition,
        world: &World,
        variant: GpuVariant,
        tile_side: usize,
        check_period: u64,
        devices_per_node: usize,
        kernel: KernelMode,
    ) -> Self {
        let dims = partition.dims;
        let hb = HaloBox::new(dims, *partition.sub(id));
        let layout = TileLayout::new(hb, tile_side);
        let n = layout.len();
        let mut soa = VoxelSoA::airway(n);
        let stencil = StencilDeltas::for_strides(dims, tile_side, tile_side);
        for t in 0..layout.n_tiles() {
            for (li, c) in layout.tile_coords(t) {
                if !dims.in_bounds(c) {
                    continue;
                }
                let gi = dims.index(c);
                soa.epi.state[li] = world.epi.state[gi];
                soa.epi.timer[li] = world.epi.timer[gi];
                soa.tcells[li] = world.tcells[gi];
                soa.virions.set(li, world.virions.get(gi));
                soa.chem.set(li, world.chemokine.get(gi));
            }
        }
        let mut tracker = TileTracker::new(&layout, check_period);
        if variant.tiling() {
            // Seed the active set from the actual state instead of waiting
            // for the next phase-aligned check: a device built mid-run (a
            // rollback or durable resume landing between checks) must not
            // freeze interior tiles until the schedule comes around.
            let found = scan_tile_activity(&layout, &soa);
            tracker.apply_check(&layout, &found);
        }
        let neighbors = partition
            .neighbor_ranks(id)
            .into_iter()
            .map(|r| (r, *partition.sub(r)))
            .collect();
        GpuDevice {
            id,
            dims,
            neighbors,
            variant,
            devices_per_node,
            soa,
            stencil,
            kernel,
            move_bid: vec![Bid::EMPTY; n],
            bind_bid: vec![Bid::EMPTY; n],
            touched_bids: Vec::new(),
            tracker,
            actions: Vec::new(),
            fresh_placed: Vec::new(),
            extravasated: 0,
            diffuse_out: Vec::new(),
            counters: DeviceCounters::new(),
            link: LinkTraffic::default(),
            tel: Telemetry::disabled(),
            layout,
        }
    }

    /// Attach the run's telemetry handle: kernel phases record spans on
    /// track `id + 1` from the next superstep on. Pure observation — never
    /// changes the trajectory.
    pub fn attach_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    #[inline]
    fn view(&self) -> DeviceView<'_> {
        DeviceView {
            dims: self.dims,
            layout: &self.layout,
            soa: &self.soa,
        }
    }

    /// Tiles the update kernels visit this step (all tiles when tiling is
    /// disabled).
    fn work_tiles(&self) -> Vec<usize> {
        if self.variant.tiling() {
            self.tracker.active_tiles().collect()
        } else {
            (0..self.layout.n_tiles()).collect()
        }
    }

    fn same_node(&self, peer: usize) -> bool {
        self.id / self.devices_per_node == peer / self.devices_per_node
    }

    /// Superstep 1: ghosts, tile check, extravasation, planning, bid wave.
    pub fn plan_and_bid(
        &mut self,
        p: &SimParams,
        t: u64,
        trials: &TrialTable,
        inbox: &[GpuMsg],
        out: &mut Outbox<GpuMsg>,
    ) -> u64 {
        // Ghost refresh from the previous step's halo wave.
        let sp = self.tel.open();
        let mut unpacked = 0u64;
        for msg in inbox {
            if let GpuMsg::Halo(cells) = msg {
                for cell in cells {
                    let c = self.dims.coord(cell.gid as usize);
                    debug_assert!(self.layout.hb.covers(c) && !self.layout.hb.is_core(c));
                    let li = self.layout.local(c);
                    self.soa.epi.state[li] = cell.epi_state;
                    self.soa.epi.timer[li] = cell.epi_timer;
                    self.soa.tcells[li] = cell.tcell;
                    self.soa.virions.set(li, cell.virions);
                    self.soa.chem.set(li, cell.chem);
                }
                unpacked += cells.len() as u64;
            } else {
                unreachable!("unexpected message in plan superstep");
            }
        }
        if unpacked > 0 {
            let h = self.counters.category_mut(KernelCategory::Halo);
            h.launches += 1; // unpack kernel
            h.elements += unpacked;
            h.bytes += unpacked * 25;
        }
        self.tel.kernel_span(
            self.id + 1,
            "kernel:halo-unpack",
            sp,
            unpacked,
            unpacked * 25,
        );

        // Periodic tile-activity check (§3.2).
        if self.variant.tiling() && self.tracker.check_due(t) {
            let sp = self.tel.open();
            let found = scan_tile_activity(&self.layout, &self.soa);
            // The real kernel cannot early-exit a warp-parallel scan; charge
            // the full sweep.
            let tc = self.counters.category_mut(KernelCategory::TileCheck);
            tc.launches += 1;
            tc.elements += self.layout.len() as u64;
            tc.bytes += self.layout.len() as u64 * 13;
            self.tracker.apply_check(&self.layout, &found);
            let n = self.layout.len() as u64;
            self.tel
                .kernel_span(self.id + 1, "kernel:tile-check", sp, n, n * 13);
        }

        // Extravasation over the halo reach (ghost trials are evaluated
        // identically to their owner so fresh ghost cells block our movers).
        let sp = self.tel.open();
        self.extravasated = 0;
        self.fresh_placed.clear();
        let hb = self.layout.hb;
        let (lo, hi) = (hb.lo, hb.hi);
        let mut evaluated = 0u64;
        for z in lo.z.max(0)..hi.z.min(self.dims.z as i64) {
            for y in lo.y.max(0)..hi.y.min(self.dims.y as i64) {
                let x0 = lo.x.max(0);
                let x1 = hi.x.min(self.dims.x as i64);
                if x0 >= x1 {
                    continue;
                }
                let row = Coord::new(x0, y, z);
                let g0 = self.dims.index(row);
                let g1 = g0 + (x1 - x0) as usize;
                for &Trial { voxel, trial } in trials.in_gid_range(g0, g1) {
                    // Global indices run contiguously along x.
                    let c = row.offset((voxel as usize - g0) as i64, 0, 0);
                    let li = self.layout.local(c);
                    if self.soa.tcells[li].occupied() {
                        continue;
                    }
                    let trial = u64::from(trial);
                    if extrav_succeeds(p, t, trial, self.soa.chem.get(li)) {
                        let life = extrav_lifetime(p, t, trial);
                        self.soa.tcells[li] = TCellSlot::fresh(life);
                        if hb.is_core(c) {
                            self.extravasated += 1;
                            self.fresh_placed.push(li as u32);
                        }
                    }
                    evaluated += 1;
                }
            }
        }
        {
            let u = self.counters.category_mut(KernelCategory::UpdateAgents);
            u.launches += 1; // extravasation kernel
            u.elements += evaluated;
        }
        self.tel
            .kernel_span(self.id + 1, "kernel:extravasate", sp, evaluated, 0);

        // T-cell planning kernel ("Choose Direction" + bid store, Fig. 2).
        let sp = self.tel.open();
        self.actions.clear();
        debug_assert!(self.touched_bids.is_empty());
        let tiles = self.work_tiles();
        let mut scanned = 0u64;
        let mut bids_written = 0u64;
        for tile in &tiles {
            let span = self.layout.tile_span(*tile);
            for oz in 0..span.nz {
                for oy in 0..span.ny {
                    let row = span.base + oz * span.sz_stride + oy * span.sy_stride;
                    for ox in 0..span.nx {
                        let li = row + ox;
                        scanned += 1;
                        let slot = self.soa.tcells[li];
                        if !slot.occupied() || slot.is_fresh() {
                            continue;
                        }
                        let c = span.origin.offset(ox as i64, oy as i64, oz as i64);
                        if !hb.is_core(c) {
                            continue;
                        }
                        let action = plan_tcell(&self.view(), p, t, c);
                        match action {
                            TCellAction::TryMove { target, bid } => {
                                let tl = self.layout.local(target);
                                self.move_bid[tl] = self.move_bid[tl].merge(bid);
                                self.touched_bids.push(tl as u32);
                                bids_written += 1;
                            }
                            TCellAction::TryBind { target, bid } => {
                                let tl = self.layout.local(target);
                                self.bind_bid[tl] = self.bind_bid[tl].merge(bid);
                                self.touched_bids.push(tl as u32);
                                bids_written += 1;
                            }
                            _ => {}
                        }
                        self.actions.push((li as u32, action));
                    }
                }
            }
        }
        {
            let u = self.counters.category_mut(KernelCategory::UpdateAgents);
            u.launches += 1;
            u.elements += scanned;
            u.bytes += scanned * 8;
            // Bid stores are global atomicMax operations (§3.1).
            u.atomics += bids_written;
        }
        self.tel
            .kernel_span(self.id + 1, "kernel:plan", sp, scanned, bids_written);

        // Bid wave: send our contributions for every voxel a neighbor also
        // holds. All holders converge by max-merge, so each device can
        // resolve winners without a second wave (§3.1).
        let sp = self.tel.open();
        let mut bid_cells_sent = 0u64;
        self.touched_bids.sort_unstable();
        self.touched_bids.dedup();
        let mut per_neighbor: Vec<Vec<BidCell>> = vec![Vec::new(); self.neighbors.len()];
        for &tl in &self.touched_bids {
            let c = self.layout.coord_of(tl as usize);
            let cell = BidCell {
                gid: self.dims.index(c) as u64,
                move_bid: self.move_bid[tl as usize].0,
                bind_bid: self.bind_bid[tl as usize].0,
            };
            for (i, (_, nsub)) in self.neighbors.iter().enumerate() {
                if nsub.in_halo_reach(c) {
                    per_neighbor[i].push(cell);
                }
            }
        }
        for (i, cells) in per_neighbor.into_iter().enumerate() {
            let (nr, _) = self.neighbors[i];
            let n_cells = cells.len() as u64;
            let msg = GpuMsg::Bids(cells);
            let bytes = pgas::counters::WireSize::wire_size(&msg) as u64;
            self.link.record(bytes, self.same_node(nr));
            let h = self.counters.category_mut(KernelCategory::Halo);
            h.elements += n_cells;
            h.bytes += n_cells * 40;
            bid_cells_sent += n_cells;
            out.send(nr, msg);
        }
        self.counters.category_mut(KernelCategory::Halo).launches += 1; // pack kernel
        self.tel.kernel_span(
            self.id + 1,
            "kernel:bid-pack",
            sp,
            bid_cells_sent,
            bid_cells_sent * 40,
        );

        self.extravasated
    }

    /// Superstep 2: merge bids, resolve and apply, FSM + production
    /// (including ghost recomputation), diffusion, statistics reduction,
    /// boundary push. Returns this device's statistics partial.
    ///
    /// The reduction accumulates concentrations into [`ExactSum`]
    /// superaccumulators ([`StatsPartial`]), so the global result is
    /// independent of device count and reduction shape — recovery can
    /// re-partition without perturbing the trajectory's statistics.
    ///
    /// [`ExactSum`]: simcov_core::exact::ExactSum
    pub fn resolve_and_update(
        &mut self,
        p: &SimParams,
        t: u64,
        inbox: &[GpuMsg],
        out: &mut Outbox<GpuMsg>,
    ) -> StatsPartial {
        let hb = self.layout.hb;

        // Merge incoming bid contributions (commutative max — order-free).
        let sp = self.tel.open();
        let mut merged = 0u64;
        for msg in inbox {
            if let GpuMsg::Bids(cells) = msg {
                for cell in cells {
                    let c = self.dims.coord(cell.gid as usize);
                    debug_assert!(hb.covers(c));
                    let li = self.layout.local(c);
                    self.move_bid[li] = self.move_bid[li].merge(Bid(cell.move_bid));
                    self.bind_bid[li] = self.bind_bid[li].merge(Bid(cell.bind_bid));
                    self.touched_bids.push(li as u32);
                }
                merged += cells.len() as u64;
            } else {
                unreachable!("unexpected message in resolve superstep");
            }
        }
        if merged > 0 {
            let h = self.counters.category_mut(KernelCategory::Halo);
            h.launches += 1;
            h.elements += merged;
            h.atomics += merged * 2; // atomicMax merges into the bid fields
        }
        self.touched_bids.sort_unstable();
        self.touched_bids.dedup();
        self.tel
            .kernel_span(self.id + 1, "kernel:bid-merge", sp, merged, merged * 2);

        // "Assign Winners" + "Set Flips" + "Move Agents" (Fig. 2) — three
        // kernels over the action/bid sets.
        let sp = self.tel.open();
        let actions = std::mem::take(&mut self.actions);
        let n_actions = actions.len() as u64;
        for &(li, action) in &actions {
            let li = li as usize;
            let slot = self.soa.tcells[li];
            let ts = slot.tissue_steps();
            match action {
                TCellAction::Die => {
                    self.soa.tcells[li] = TCellSlot::EMPTY;
                }
                TCellAction::StayBound => {
                    self.soa.tcells[li] = TCellSlot::established(ts - 1, slot.bind_steps() - 1);
                }
                TCellAction::Stay => {
                    self.soa.tcells[li] = TCellSlot::established(ts - 1, 0);
                }
                TCellAction::TryBind { target, bid } => {
                    let tl = self.layout.local(target);
                    let bind = if self.bind_bid[tl] == bid {
                        p.tcell_binding_period
                    } else {
                        0
                    };
                    self.soa.tcells[li] = TCellSlot::established(ts - 1, bind);
                }
                TCellAction::TryMove { target, bid } => {
                    let tl = self.layout.local(target);
                    if self.move_bid[tl] == bid {
                        // Winner: materialize at the target if we own it
                        // (ghost targets are instantiated by their owner),
                        // and erase here either way — the deterministic
                        // tiebreak guarantees no duplication (§3.1).
                        if hb.is_core(target) {
                            self.soa.tcells[tl] = TCellSlot::established(ts - 1, 0);
                        }
                        self.soa.tcells[li] = TCellSlot::EMPTY;
                    } else {
                        self.soa.tcells[li] = TCellSlot::established(ts - 1, 0);
                    }
                }
            }
        }
        self.actions = actions;
        self.actions.clear();

        // Winning movers materialize at their targets; winning binds
        // trigger apoptosis — including on ghost copies, which keeps the
        // local FSM/production recomputation exact.
        let touched = std::mem::take(&mut self.touched_bids);
        for &tl in &touched {
            let tl = tl as usize;
            let c = self.layout.coord_of(tl);
            let mb = self.move_bid[tl];
            if !mb.is_empty() && hb.is_core(c) {
                let src = self.dims.coord(mb.src() as usize);
                debug_assert!(hb.covers(src));
                if !hb.is_core(src) {
                    // Remote winner: instantiate from the ghost copy
                    // ("a T cell that has moved into the memory space of a
                    // GPU can safely be instantiated without fear of
                    // duplication", §3.1). Local winners were materialized
                    // in the action loop above.
                    let slot = self.soa.tcells[self.layout.local(src)];
                    debug_assert!(slot.occupied() && !slot.is_fresh());
                    self.soa.tcells[tl] = TCellSlot::established(slot.tissue_steps() - 1, 0);
                }
            }
            let bb = self.bind_bid[tl];
            if !bb.is_empty() && self.soa.epi.get(tl) == EpiState::Expressing {
                let gid = self.dims.index(c) as u64;
                self.soa
                    .epi
                    .set(tl, EpiState::Apoptotic, rules::apoptosis_timer(p, t, gid));
            }
            self.move_bid[tl] = Bid::EMPTY;
            self.bind_bid[tl] = Bid::EMPTY;
        }
        self.touched_bids = touched;
        self.touched_bids.clear();

        // Settle fresh T cells.
        let fresh = std::mem::take(&mut self.fresh_placed);
        let n_fresh = fresh.len() as u64;
        for &li in &fresh {
            self.soa.tcells[li as usize] = self.soa.tcells[li as usize].settled();
        }
        self.tel
            .kernel_span(self.id + 1, "kernel:resolve", sp, n_actions, n_fresh);

        // FSM + production over core AND ghost voxels of the work tiles.
        let sp = self.tel.open();
        let tiles = self.work_tiles();
        let mut fsm_elems = 0u64;
        for tile in &tiles {
            let span = self.layout.tile_span(*tile);
            for oz in 0..span.nz {
                for oy in 0..span.ny {
                    let row = span.base + oz * span.sz_stride + oy * span.sy_stride;
                    for ox in 0..span.nx {
                        let li = row + ox;
                        let c = span.origin.offset(ox as i64, oy as i64, oz as i64);
                        if !self.dims.in_bounds(c) {
                            continue;
                        }
                        fsm_elems += 1;
                        let s = self.soa.epi.get(li);
                        if s == EpiState::Airway || s == EpiState::Dead {
                            continue;
                        }
                        let gid = self.dims.index(c) as u64;
                        let u = epi_update(
                            s,
                            self.soa.epi.timer[li],
                            self.soa.virions.get(li),
                            p,
                            t,
                            gid,
                        );
                        self.soa.epi.set(li, u.state, u.timer);
                        if u.state.produces_virions() {
                            self.soa.virions.set(
                                li,
                                simcov_core::diffusion::produce_virions(
                                    self.soa.virions.get(li),
                                    p.virion_production,
                                ),
                            );
                        }
                        if u.state.produces_chemokine() {
                            self.soa.chem.set(
                                li,
                                simcov_core::diffusion::produce_chemokine(
                                    self.soa.chem.get(li),
                                    p.chemokine_production,
                                ),
                            );
                        }
                    }
                }
            }
        }
        {
            let ub = if self.variant.tiling() {
                UPDATE_BYTES_TILED
            } else {
                UPDATE_BYTES_UNTILED
            };
            let u = self.counters.category_mut(KernelCategory::UpdateAgents);
            u.launches += 4; // assign winners, set flips, move agents, FSM
            u.elements += fsm_elems;
            u.bytes += fsm_elems * ub;
        }
        self.tel
            .kernel_span(self.id + 1, "kernel:fsm", sp, fsm_elems, 0);

        // Diffusion over core voxels of the work tiles (staged write-back).
        let sp = self.tel.open();
        self.diffuse_out.clear();
        let mut diff_elems = 0u64;
        let is_2d = self.dims.is_2d();
        let vc = p.virion_coeffs();
        let cc = p.chemokine_coeffs();
        for tile in &tiles {
            let span = self.layout.tile_span(*tile);
            for oz in 0..span.nz {
                let z_inner = is_2d || (oz >= 1 && oz + 1 < span.nz);
                for oy in 0..span.ny {
                    let y_inner = oy >= 1 && oy + 1 < span.ny;
                    let row = span.base + oz * span.sz_stride + oy * span.sy_stride;
                    let mut ox = 0usize;
                    while ox < span.nx {
                        let li = row + ox;
                        let c = span.origin.offset(ox as i64, oy as i64, oz as i64);
                        if !hb.is_core(c) {
                            ox += 1;
                            continue;
                        }
                        // Fast path: the whole Moore neighborhood lies inside
                        // this tile (tile-interior voxel) and inside the
                        // global grid, so the gather is a constant-stride
                        // sweep over the tile's contiguous storage — same
                        // values in the same offset order as the checked
                        // path, hence bitwise identical. In `Wide` mode,
                        // maximal x-runs of such voxels go through the
                        // chunked lane kernel (per-lane accumulation, same
                        // per-voxel order — see `simcov_core::lanes`).
                        let tile_inner = z_inner && y_inner && ox >= 1 && ox + 1 < span.nx;
                        if tile_inner && self.stencil.is_interior(c) {
                            let mut len = 1usize;
                            if self.kernel == KernelMode::Wide {
                                while ox + len + 1 < span.nx {
                                    let q =
                                        span.origin.offset((ox + len) as i64, oy as i64, oz as i64);
                                    if hb.is_core(q) && self.stencil.is_interior(q) {
                                        len += 1;
                                    } else {
                                        break;
                                    }
                                }
                            }
                            diff_elems += len as u64;
                            let out = &mut self.diffuse_out;
                            lanes::diffuse_interior_run(
                                &self.stencil,
                                li,
                                len,
                                &self.soa.virions,
                                &self.soa.chem,
                                vc,
                                cc,
                                |i, nv, nc| out.push((i as u32, nv, nc)),
                            );
                            ox += len;
                        } else {
                            diff_elems += 1;
                            let mut vs = 0.0f32;
                            let mut cs = 0.0f32;
                            let mut nv = 0usize;
                            for &(dx, dy, dz) in self.dims.neighbor_offsets() {
                                let q = c.offset(dx, dy, dz);
                                if self.dims.in_bounds(q) {
                                    let ql = self.layout.local(q);
                                    vs += self.soa.virions.get(ql);
                                    cs += self.soa.chem.get(ql);
                                    nv += 1;
                                }
                            }
                            self.diffuse_out.push((
                                li as u32,
                                vc.apply(self.soa.virions.get(li), vs, nv),
                                cc.apply(self.soa.chem.get(li), cs, nv),
                            ));
                            ox += 1;
                        }
                    }
                }
            }
        }
        let diffused = std::mem::take(&mut self.diffuse_out);
        for &(li, nv, nc) in &diffused {
            self.soa.virions.set(li as usize, nv);
            self.soa.chem.set(li as usize, nc);
        }
        self.diffuse_out = diffused;
        self.diffuse_out.clear();
        {
            let db = if self.variant.tiling() { 24 } else { 36 };
            let u = self.counters.category_mut(KernelCategory::UpdateAgents);
            u.launches += 2; // virion + chemokine stencil kernels
            u.elements += diff_elems * 2;
            u.bytes += diff_elems * 2 * db;
        }
        self.tel
            .kernel_span(self.id + 1, "kernel:diffuse", sp, diff_elems * 2, 0);

        // Statistics reduction over every owned voxel (§3.3): the sweep
        // covers the full core regardless of tiling (dead/healthy counts
        // live in inactive regions too); tiling only improves its locality.
        let sp = self.tel.open();
        let core_cells: Vec<u32> = self.core_indices();
        let n = core_cells.len();
        let bytes_per_elem = if self.variant.tiling() {
            REDUCE_BYTES_TILED
        } else {
            REDUCE_BYTES_UNTILED
        };
        let (virions, chem, tcells, epi) = (
            &self.soa.virions,
            &self.soa.chem,
            &self.soa.tcells,
            &self.soa.epi,
        );
        let map = |i: usize| -> StatsPartial {
            let li = core_cells[i] as usize;
            let mut s = StatsPartial::default();
            s.add_virions(virions.get(li));
            s.add_chemokine(chem.get(li));
            if tcells[li].occupied() {
                s.tcells_tissue = 1;
            }
            match epi.get(li) {
                EpiState::Healthy => s.epi_healthy = 1,
                EpiState::Incubating => s.epi_incubating = 1,
                EpiState::Expressing => s.epi_expressing = 1,
                EpiState::Apoptotic => s.epi_apoptotic = 1,
                EpiState::Dead => s.epi_dead = 1,
                EpiState::Airway => {}
            }
            s
        };
        let combine = |a: &mut StatsPartial, b: &StatsPartial| {
            *a += *b;
        };
        let mut stats = if self.variant.tree_reduce() {
            tree_reduce(
                &mut self.counters,
                LaunchConfig::cover(n, 256),
                n,
                STAT_LANES,
                bytes_per_elem,
                StatsPartial::default(),
                map,
                combine,
            )
        } else {
            // Unoptimized: a sweep whose per-element accumulation uses
            // global atomics.
            let r = atomic_reduce(
                &mut self.counters,
                n,
                STAT_LANES,
                StatsPartial::default(),
                map,
                combine,
            );
            let c = self.counters.category_mut(KernelCategory::ReduceStats);
            c.launches += 1;
            c.elements += n as u64;
            c.bytes += n as u64 * bytes_per_elem;
            r
        };
        stats.step = t;
        stats.extravasated = self.extravasated;
        self.tel.kernel_span(
            self.id + 1,
            "kernel:reduce",
            sp,
            n as u64,
            n as u64 * bytes_per_elem,
        );

        // End-of-step halo wave: full boundary state to every neighbor.
        let sp = self.tel.open();
        let mut halo_cells_sent = 0u64;
        let mut per_neighbor: Vec<Vec<HaloCell>> = vec![Vec::new(); self.neighbors.len()];
        for &li in &core_cells {
            let c = self.layout.coord_of(li as usize);
            if !hb.is_boundary(c) {
                continue;
            }
            let li = li as usize;
            let cell = HaloCell {
                gid: self.dims.index(c) as u64,
                epi_state: self.soa.epi.state[li],
                epi_timer: self.soa.epi.timer[li],
                tcell: self.soa.tcells[li],
                virions: self.soa.virions.get(li),
                chem: self.soa.chem.get(li),
            };
            for (i, (_, nsub)) in self.neighbors.iter().enumerate() {
                if nsub.in_halo_reach(c) {
                    per_neighbor[i].push(cell);
                }
            }
        }
        for (i, cells) in per_neighbor.into_iter().enumerate() {
            let (nr, _) = self.neighbors[i];
            let n_cells = cells.len() as u64;
            let msg = GpuMsg::Halo(cells);
            let bytes = pgas::counters::WireSize::wire_size(&msg) as u64;
            self.link.record(bytes, self.same_node(nr));
            let h = self.counters.category_mut(KernelCategory::Halo);
            h.elements += n_cells;
            h.bytes += n_cells * 25;
            halo_cells_sent += n_cells;
            out.send(nr, msg);
        }
        self.counters.category_mut(KernelCategory::Halo).launches += 1; // pack
        self.tel.kernel_span(
            self.id + 1,
            "kernel:halo-pack",
            sp,
            halo_cells_sent,
            halo_cells_sent * 25,
        );

        stats
    }

    /// Local storage indices of all core voxels, in tile order.
    fn core_indices(&self) -> Vec<u32> {
        let hb = self.layout.hb;
        let mut out = Vec::with_capacity(hb.core.nvoxels());
        for t in 0..self.layout.n_tiles() {
            let span = self.layout.tile_span(t);
            for oz in 0..span.nz {
                for oy in 0..span.ny {
                    let row = span.base + oz * span.sz_stride + oy * span.sy_stride;
                    for ox in 0..span.nx {
                        if hb.is_core(span.origin.offset(ox as i64, oy as i64, oz as i64)) {
                            out.push((row + ox) as u32);
                        }
                    }
                }
            }
        }
        out
    }

    /// Flip one seeded bit in this device's *owned* (core) state — the
    /// HBM-style silent corruption modeled by
    /// `FaultKind::StateCorruption`. Targets the same field family as
    /// `CheckpointStore::inject_corruption` (virion bits, chemokine bits,
    /// or an epithelial timer), so every injection site stresses the same
    /// invariants the integrity scrub/audit checks. XOR semantics: the
    /// same seed applied twice restores the original state.
    pub fn corrupt_bit(&mut self, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        let n = self.layout.hb.core.nvoxels() as u64;
        if n == 0 {
            return;
        }
        let pick = (rng.next_u64() % n) as usize;
        let c = self
            .layout
            .hb
            .core
            .iter_coords()
            .nth(pick)
            .expect("pick < nvoxels");
        let li = self.layout.local(c);
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

    /// Copy this device's core region into a global world (verification).
    pub fn write_into(&self, world: &mut World) {
        for t in 0..self.layout.n_tiles() {
            for (li, c) in self.layout.tile_coords(t) {
                if !self.layout.hb.is_core(c) {
                    continue;
                }
                let gi = self.dims.index(c);
                world.epi.state[gi] = self.soa.epi.state[li];
                world.epi.timer[gi] = self.soa.epi.timer[li];
                world.tcells[gi] = self.soa.tcells[li];
                world.virions.set(gi, self.soa.virions.get(li));
                world.chemokine.set(gi, self.soa.chem.get(li));
            }
        }
    }

    /// Number of tiles currently active on this device.
    pub fn n_active_tiles(&self) -> usize {
        self.tracker.n_active()
    }

    /// Fraction of tiles currently active (diagnostics / tests).
    pub fn active_tile_fraction(&self) -> f64 {
        self.tracker.n_active() as f64 / self.layout.n_tiles().max(1) as f64
    }
}

/// Per-tile activity scan: `found[t]` iff tile `t` holds an active voxel.
/// Shared by the periodic check kernel and device construction (the latter
/// so a device rebuilt mid-run starts with the true active set).
fn scan_tile_activity(layout: &TileLayout, soa: &VoxelSoA) -> Vec<bool> {
    let mut found = vec![false; layout.n_tiles()];
    #[allow(clippy::needless_range_loop)] // `tile` also drives tile_span
    for tile in 0..layout.n_tiles() {
        let span = layout.tile_span(tile);
        'scan: for oz in 0..span.nz {
            for oy in 0..span.ny {
                let row = span.base + oz * span.sz_stride + oy * span.sy_stride;
                for li in row..row + span.nx {
                    if voxel_active(
                        soa.epi.get(li),
                        soa.tcells[li],
                        soa.virions.get(li),
                        soa.chem.get(li),
                    ) {
                        found[tile] = true;
                        break 'scan;
                    }
                }
            }
        }
    }
    found
}
