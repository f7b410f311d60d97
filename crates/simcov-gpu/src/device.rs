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
use gpusim::reduce::{meter_atomic_reduce, meter_tree_reduce};
use gpusim::{DeviceCounters, KernelCategory};
use pgas::counters::WireSize;
use pgas::Outbox;
use simcov_core::decomp::Partition;
use simcov_core::extrav::TrialTable;
use simcov_core::lanes::{self, KernelMode};
use simcov_core::rng::{StepKey, Stream};
use simcov_core::rules::{plan_tcell, voxel_active, Bid, TCellAction};
use simcov_core::unit_grid::bucket;
use simcov_core::{EpiState, SimParams, StatsPartial, StencilDeltas, TCellSlot};
use simcov_core::{UnitGrid, VoxelSoA, World};

use simcov_telemetry::{OpenSpan, Telemetry};

use crate::msg::{BidCell, GpuMsg, HaloCell};
use crate::tiles::{SweepBoxes, TileLayout, TileTracker};
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

/// One simulated device and its subdomain state.
pub struct GpuDevice {
    pub id: usize,
    /// Voxel state over the halo box, row-major.
    pub grid: UnitGrid,
    /// The memory tiles (§3.2): a logical index over `grid`'s storage.
    layout: TileLayout,
    pub variant: GpuVariant,
    devices_per_node: usize,

    boxes: SweepBoxes,
    /// Core cells on the core's faces with the neighbors that hold a ghost
    /// copy of each, tile by tile — the halo wave's pack list.
    boundary: Vec<BoundaryCell>,
    /// Boundary cells per neighbor (the halo wave's bucket sizes).
    halo_caps: Vec<usize>,

    /// Constant stencil deltas for the halo box's row-major strides.
    stencil: StencilDeltas,
    /// Diffusion destination fields (same indexing as `soa`), copied back
    /// run by run once no later run reads the old values.
    next_v: Vec<f32>,
    next_c: Vec<f32>,
    /// Diffusion runs `(z, y, (index, len))` not yet copied back.
    pending: Vec<(i64, i64, (usize, usize))>,
    /// Which diffusion kernel this device runs (bitwise identical either
    /// way; `Scalar` is the differential oracle).
    kernel: KernelMode,
    move_bid: Vec<Bid>,
    bind_bid: Vec<Bid>,
    touched_bids: Vec<u32>,
    tracker: TileTracker,

    actions: Vec<(u32, TCellAction)>,

    pub counters: DeviceCounters,
    pub link: LinkTraffic,
    /// Telemetry handle for kernel-phase spans (disabled unless attached;
    /// spans land on this device's rank track, parented to its compute span).
    tel: Telemetry,
}

/// One entry of the halo wave's pack list.
struct BoundaryCell {
    li: u32,
    gid: u64,
    /// Bit `i` set iff `neighbors[i]` holds this cell in its halo reach.
    mask: u32,
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
        let grid = UnitGrid::new(partition, id, world);
        let layout = TileLayout::new(grid.hb, tile_side);
        let n = grid.hb.len();
        let (sx, sy, _) = grid.hb.size();
        let stencil = StencilDeltas::for_strides(dims, sx, sy);
        let boxes = SweepBoxes::new(dims, &layout);
        let mut tracker = TileTracker::new(&layout, boxes.grid, check_period);
        if variant.tiling() {
            // Seed the active set from the actual state instead of waiting
            // for the next phase-aligned check: a device built mid-run (a
            // rollback or durable resume landing between checks) must not
            // freeze interior tiles until the schedule comes around.
            let found = scan_tile_activity(&layout, &grid.soa);
            tracker.apply_check(&layout, &found);
        }
        let boundary: Vec<BoundaryCell> = layout
            .boundary_cells()
            .into_iter()
            .map(|(li, c)| BoundaryCell {
                li: li as u32,
                gid: dims.index(c) as u64,
                mask: grid.reach_mask(c),
            })
            .collect();
        let halo_caps = (0..grid.neighbors.len())
            .map(|i| boundary.iter().filter(|b| b.mask >> i & 1 == 1).count())
            .collect();
        GpuDevice {
            id,
            variant,
            devices_per_node,
            boxes,
            boundary,
            halo_caps,
            stencil,
            next_v: vec![0.0; n],
            next_c: vec![0.0; n],
            pending: Vec::new(),
            kernel,
            move_bid: vec![Bid::EMPTY; n],
            bind_bid: vec![Bid::EMPTY; n],
            touched_bids: Vec::new(),
            tracker,
            actions: Vec::new(),
            counters: DeviceCounters::new(),
            link: LinkTraffic::default(),
            tel: Telemetry::disabled(),
            grid,
            layout,
        }
    }

    /// Attach the run's telemetry handle: kernel phases record spans on
    /// track `id + 1` from the next superstep on. Pure observation — never
    /// changes the trajectory.
    pub fn attach_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    fn same_node(&self, peer: usize) -> bool {
        self.id / self.devices_per_node == peer / self.devices_per_node
    }

    /// Send one packed buffer per neighbor (`msgs[i]` to `neighbors[i]`) and
    /// meter the wave's pack kernel; a cell packs to `cell_bytes` on the wire.
    fn send_wave(
        &mut self,
        out: &mut Outbox<GpuMsg>,
        msgs: Vec<GpuMsg>,
        cell_bytes: u64,
        label: &'static str,
        sp: OpenSpan,
    ) {
        let mut sent = 0u64;
        for (i, msg) in msgs.into_iter().enumerate() {
            let nr = self.grid.neighbors[i].0;
            self.link.record(msg.wire_size() as u64, self.same_node(nr));
            sent += msg.n_cells() as u64;
            out.send(nr, msg);
        }
        let h = self.counters.category_mut(KernelCategory::Halo);
        h.launches += 1;
        h.elements += sent;
        h.bytes += sent * cell_bytes;
        self.tel
            .kernel_span(self.id + 1, label, sp, sent, sent * cell_bytes);
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
                    let li = self.grid.local_gid(cell.gid);
                    self.grid.soa.epi.state[li] = cell.epi_state;
                    self.grid.soa.epi.timer[li] = cell.epi_timer;
                    self.grid.soa.tcells[li] = cell.tcell;
                    self.grid.soa.virions.set(li, cell.virions);
                    self.grid.soa.chem.set(li, cell.chem);
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
            let found = scan_tile_activity(&self.layout, &self.grid.soa);
            // The real kernel cannot early-exit a warp-parallel scan; charge
            // the full sweep, edge tiles at full tile volume.
            let n = (self.layout.n_tiles() * self.layout.tile_volume()) as u64;
            let tc = self.counters.category_mut(KernelCategory::TileCheck);
            tc.launches += 1;
            tc.elements += n;
            tc.bytes += n * 13;
            self.tracker.apply_check(&self.layout, &found);
            self.tel
                .kernel_span(self.id + 1, "kernel:tile-check", sp, n, n * 13);
        }

        // Extravasation over the halo reach (ghost trials are evaluated
        // identically to their owner so fresh ghost cells block our movers).
        let sp = self.tel.open();
        let evaluated = self.grid.extravasate(p, t, trials);
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
        let work = self.tracker.work(self.variant.tiling());
        // The kernel scans whole work tiles; only core cells plan.
        let scanned: u64 = (0..self.layout.n_tiles())
            .filter(|&tile| work(tile))
            .map(|tile| self.layout.tile_span(tile).volume() as u64)
            .sum();
        let mut bids_written = 0u64;
        self.layout
            .work_rows(&work, self.boxes.core, |start, row, len| {
                for k in 0..len {
                    let li = row + k;
                    let slot = self.grid.soa.tcells[li];
                    if !slot.occupied() || slot.is_fresh() {
                        continue;
                    }
                    let action = plan_tcell(&self.grid, p, t, start.offset(k as i64, 0, 0));
                    if let Some((target, bid, is_bind)) = action.bid() {
                        let tl = self.grid.hb.local(target);
                        let bids = if is_bind {
                            &mut self.bind_bid
                        } else {
                            &mut self.move_bid
                        };
                        bids[tl] = bids[tl].merge(bid);
                        self.touched_bids.push(tl as u32);
                        bids_written += 1;
                    }
                    self.actions.push((li as u32, action));
                }
            });
        drop(work);
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
        self.touched_bids.sort_unstable();
        self.touched_bids.dedup();
        // A bucket holds at most the touched cells, and rarely more than the
        // neighbor's share of the boundary.
        let mut per_neighbor: Vec<Vec<BidCell>> = self
            .halo_caps
            .iter()
            .map(|&cap| Vec::with_capacity(cap.min(self.touched_bids.len())))
            .collect();
        for &tl in &self.touched_bids {
            let c = self.grid.hb.global(tl as usize);
            let cell = BidCell {
                gid: self.grid.dims.index(c) as u64,
                move_bid: self.move_bid[tl as usize].0,
                bind_bid: self.bind_bid[tl as usize].0,
            };
            bucket(self.grid.reach_mask(c), cell, &mut per_neighbor);
        }
        let msgs = per_neighbor.into_iter().map(GpuMsg::Bids).collect();
        self.send_wave(out, msgs, 40, "kernel:bid-pack", sp);

        self.grid.fresh.len() as u64
    }

    /// Superstep 2: merge bids, resolve and apply, FSM + production
    /// (including ghost recomputation), diffusion, statistics reduction,
    /// boundary push. Returns this device's statistics partial.
    ///
    /// The reduction accumulates concentrations exactly ([`BinnedSum`]s
    /// folded into the [`ExactSum`]s of a [`StatsPartial`]), so the global
    /// result is independent of device count and reduction shape — recovery
    /// can re-partition without perturbing the trajectory's statistics.
    ///
    /// [`BinnedSum`]: simcov_core::exact::BinnedSum
    /// [`ExactSum`]: simcov_core::exact::ExactSum
    pub fn resolve_and_update(
        &mut self,
        p: &SimParams,
        t: u64,
        inbox: &[GpuMsg],
        out: &mut Outbox<GpuMsg>,
    ) -> StatsPartial {
        let hb = self.grid.hb;

        // Merge incoming bid contributions (commutative max — order-free).
        let sp = self.tel.open();
        let mut merged = 0u64;
        for msg in inbox {
            if let GpuMsg::Bids(cells) = msg {
                for cell in cells {
                    let li = self.grid.local_gid(cell.gid);
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
            let won = action.bid().is_some_and(|(target, bid, is_bind)| {
                let bids = if is_bind {
                    &self.bind_bid
                } else {
                    &self.move_bid
                };
                bids[hb.local(target)] == bid
            });
            self.grid.apply_action(p, li as usize, action, won);
        }
        self.actions = actions;
        self.actions.clear();

        // Winning movers materialize at their targets; winning binds
        // trigger apoptosis — including on ghost copies, which keeps the
        // local FSM/production recomputation exact.
        let touched = std::mem::take(&mut self.touched_bids);
        for &tl in &touched {
            let tl = tl as usize;
            let c = hb.global(tl);
            let mb = self.move_bid[tl];
            if !mb.is_empty() && hb.is_core(c) {
                let src = self.grid.dims.coord(mb.src() as usize);
                debug_assert!(hb.covers(src));
                if !hb.is_core(src) {
                    // Remote winner: instantiate from the ghost copy
                    // ("a T cell that has moved into the memory space of a
                    // GPU can safely be instantiated without fear of
                    // duplication", §3.1). Local winners were materialized
                    // in the action loop above.
                    let slot = self.grid.soa.tcells[hb.local(src)];
                    debug_assert!(slot.occupied() && !slot.is_fresh());
                    self.grid.soa.tcells[tl] = TCellSlot::established(slot.tissue_steps() - 1, 0);
                }
            }
            let bb = self.bind_bid[tl];
            if !bb.is_empty() && self.grid.soa.epi.get(tl) == EpiState::Expressing {
                self.grid.bind(p, t, c);
            }
            self.move_bid[tl] = Bid::EMPTY;
            self.bind_bid[tl] = Bid::EMPTY;
        }
        self.touched_bids = touched;
        self.touched_bids.clear();

        let n_fresh = self.grid.settle_fresh();
        self.tel
            .kernel_span(self.id + 1, "kernel:resolve", sp, n_actions, n_fresh);

        // FSM + production over core AND ghost voxels of the work tiles:
        // their in-bounds runs, global index running along x.
        let sp = self.tel.open();
        let work = self.tracker.work(self.variant.tiling());
        let mut fsm_elems = 0u64;
        let infection = StepKey::new(p.seed, Stream::Infection, t);
        self.layout
            .work_rows(&work, self.boxes.grid, |start, row, len| {
                fsm_elems += len as u64;
                let gid = self.grid.dims.index(start) as u64;
                for k in 0..len {
                    self.grid.epi_step(row + k, p, t, infection, gid + k as u64);
                }
            });
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

        // Diffusion over the core runs of the work tiles, straight from the
        // fields: the part of a run inside the global interior goes through
        // the lane kernel in `Wide` mode, every other voxel (all of them in
        // `Scalar` mode) through `sum2`. Halo cells outside the grid hold
        // +0.0, which leaves a sum that started from +0.0 bitwise unchanged,
        // so a surface voxel adds the same values in the same offset order
        // as a bounds-checked gather and divides by its geometric in-bounds
        // neighbor count.
        let sp = self.tel.open();
        let mut diff_elems = 0u64;
        let vc = p.virion_coeffs();
        let cc = p.chemokine_coeffs();
        let (gx, gy, gz) = (
            self.grid.dims.x as i64,
            self.grid.dims.y as i64,
            self.grid.dims.z as i64,
        );
        // In-bounds cells among `g - 1, g, g + 1` along an axis of extent `d`.
        let in_axis = |g: i64, d: i64| 1 + usize::from(g > 0) + usize::from(g + 1 < d);
        let (ilo, ihi) = self.boxes.interior;
        let wide = self.kernel == KernelMode::Wide;
        // A row's old values are read by the rows up to one after it along y
        // and, in 3D, one plane after it along z: once the walk is past
        // those, the row's new values are copied back while still in cache.
        let dz = i64::from(gz > 1);
        let (soa, st) = (&mut self.grid.soa, &self.stencil);
        let (next_v, next_c) = (&mut self.next_v, &mut self.next_c);
        let pending = &mut self.pending;
        pending.clear();
        let mut written = 0;
        self.layout
            .work_rows(&work, self.boxes.core, |start, row, len| {
                diff_elems += len as u64;
                // The run's interior part `a..b`, empty off the interior rows.
                let (a, b) = if wide
                    && (ilo.y..ihi.y).contains(&start.y)
                    && (ilo.z..ihi.z).contains(&start.z)
                {
                    let a = (ilo.x - start.x).clamp(0, len as i64);
                    (a as usize, (ihi.x - start.x).clamp(a, len as i64) as usize)
                } else {
                    (len, len)
                };
                let n_yz = in_axis(start.y, gy) * if gz == 1 { 1 } else { in_axis(start.z, gz) };
                let (v, c) = (&soa.virions, &soa.chem);
                for k in (0..a).chain(b..len) {
                    let li = row + k;
                    let n_valid = in_axis(start.x + k as i64, gx) * n_yz - 1;
                    let (vs, cs) = st.sum2(li, v, c);
                    next_v[li] = vc.apply(v.get(li), vs, n_valid);
                    next_c[li] = cc.apply(c.get(li), cs, n_valid);
                }
                let emit = |i: usize, nv: f32, nc: f32| {
                    next_v[i] = nv;
                    next_c[i] = nc;
                };
                lanes::diffuse_interior_run(st, row + a, b - a, v, c, vc, cc, emit);
                while let Some(&(z, y, run)) = pending.get(written) {
                    if (z + dz, y + 1) >= (start.z, start.y) {
                        break;
                    }
                    write_back(soa, next_v, next_c, run);
                    written += 1;
                }
                pending.push((start.z, start.y, (row, len)));
            });
        for &(_, _, run) in &pending[written..] {
            write_back(soa, next_v, next_c, run);
        }
        drop(work);
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
        // The host accumulates field-wise — exponent-binned exact sums folded
        // once into the partial's `ExactSum`s, integer counts — so any order
        // is bitwise the same, while the modelled kernel (tree or per-element
        // atomics) is metered by the variant's strategy.
        let sp = self.tel.open();
        let n = hb.core.nvoxels();
        let bytes_per_elem = if self.variant.tiling() {
            REDUCE_BYTES_TILED
        } else {
            REDUCE_BYTES_UNTILED
        };
        let mut stats = self.grid.core_stats();
        if self.variant.tree_reduce() {
            meter_tree_reduce(
                &mut self.counters,
                LaunchConfig::cover(n, 256),
                n,
                STAT_LANES,
                bytes_per_elem,
            );
        } else {
            // Unoptimized: a sweep whose per-element accumulation uses
            // global atomics.
            meter_atomic_reduce(&mut self.counters, n, STAT_LANES);
            let c = self.counters.category_mut(KernelCategory::ReduceStats);
            c.launches += 1;
            c.elements += n as u64;
            c.bytes += n as u64 * bytes_per_elem;
        }
        stats.step = t;
        stats.extravasated = self.grid.fresh.len() as u64;
        self.tel.kernel_span(
            self.id + 1,
            "kernel:reduce",
            sp,
            n as u64,
            n as u64 * bytes_per_elem,
        );

        // End-of-step halo wave: full boundary state to every neighbor.
        let sp = self.tel.open();
        let mut per_neighbor: Vec<Vec<HaloCell>> = self
            .halo_caps
            .iter()
            .map(|&cap| Vec::with_capacity(cap))
            .collect();
        for b in &self.boundary {
            let li = b.li as usize;
            let cell = HaloCell {
                gid: b.gid,
                epi_state: self.grid.soa.epi.state[li],
                epi_timer: self.grid.soa.epi.timer[li],
                tcell: self.grid.soa.tcells[li],
                virions: self.grid.soa.virions.get(li),
                chem: self.grid.soa.chem.get(li),
            };
            bucket(b.mask, cell, &mut per_neighbor);
        }
        let msgs = per_neighbor.into_iter().map(GpuMsg::Halo).collect();
        self.send_wave(out, msgs, 25, "kernel:halo-pack", sp);

        stats
    }

    /// Flip one seeded bit in this device's owned state (see
    /// [`UnitGrid::corrupt_bit`]).
    pub fn corrupt_bit(&mut self, seed: u64) {
        self.grid.corrupt_bit(seed)
    }

    /// Copy this device's core region into a global world (verification).
    pub fn write_into(&self, world: &mut World) {
        self.grid.write_into(world)
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

/// Copy the diffused run `row..row + len` back into the fields.
fn write_back(soa: &mut VoxelSoA, next_v: &[f32], next_c: &[f32], (row, len): (usize, usize)) {
    soa.virions.data[row..row + len].copy_from_slice(&next_v[row..row + len]);
    soa.chem.data[row..row + len].copy_from_slice(&next_c[row..row + len]);
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
