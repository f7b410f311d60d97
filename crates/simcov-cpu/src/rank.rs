//! Per-rank state and the three per-step supersteps of the CPU baseline.

use std::collections::HashMap;

use gpusim::DeviceCounters;
use pgas::fault::SplitMix64;
use pgas::Outbox;
use simcov_core::decomp::{Partition, Subdomain};
use simcov_core::epithelial::EpiState;
use simcov_core::exact::BinnedSum;
use simcov_core::extrav::{self, Trial, TrialTable};
use simcov_core::grid::{Coord, GridDims};
use simcov_core::halo::HaloBox;
use simcov_core::lanes::{self, KernelMode};
use simcov_core::params::SimParams;
use simcov_core::rules::{
    self, epi_update, extrav_lifetime, extrav_succeeds, plan_tcell, voxel_active, Bid,
    EpiTransition, RuleView, TCellAction,
};
use simcov_core::soa::{StencilDeltas, VoxelSoA};
use simcov_core::stats::StatsPartial;
use simcov_core::tcell::TCellSlot;
use simcov_core::world::World;

use crate::active::ActiveSet;
use crate::msg::CpuMsg;

/// One CPU rank: a subdomain plus ghost ring, an active list, and the
/// step-scoped plan/resolve bookkeeping.
pub struct CpuRank {
    pub rank: usize,
    pub hb: HaloBox,
    dims: GridDims,
    /// Neighbor ranks and their subdomains, for ghost routing.
    neighbors: Vec<(usize, Subdomain)>,

    /// Local SoA voxel state over the halo box.
    pub soa: VoxelSoA,
    /// Constant stencil deltas for the halo box's row-major strides.
    stencil: StencilDeltas,
    /// Which diffusion kernel this rank runs (bitwise identical either way).
    kernel: KernelMode,

    /// Voxels processed this step (core, local indices).
    processed: ActiveSet,
    /// Activity found this step → seeds next step's processed set.
    marks: ActiveSet,

    // Step-scoped plan data.
    local_actions: Vec<(u32, TCellAction)>,
    pending_remote: Vec<(u32, bool)>, // (src local idx, is_bind)
    fresh_placed: Vec<u32>,
    move_bids: HashMap<u32, Bid>,
    bind_bids: HashMap<u32, Bid>,
    remote_intents: Vec<(usize, CpuMsg)>, // (sender rank, intent)
    extravasated: u64,
    /// Diffusion write-back staging: (local idx, new virions, new chem).
    diffuse_out: Vec<(u32, f32, f32)>,

    // Persistent per-rank statistics (core region only).
    stat_healthy: u64,
    stat_incubating: u64,
    stat_expressing: u64,
    stat_apoptotic: u64,
    stat_dead: u64,
    stat_tcells: u64,

    pub counters: DeviceCounters,
}

/// Read view over the rank's halo box implementing the shared rule trait.
struct LocalView<'a> {
    dims: GridDims,
    hb: &'a HaloBox,
    soa: &'a VoxelSoA,
}

impl RuleView for LocalView<'_> {
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

impl CpuRank {
    /// Build rank-local state from the initial world.
    pub fn new(rank: usize, partition: &Partition, world: &World, kernel: KernelMode) -> Self {
        let dims = partition.dims;
        let sub = *partition.sub(rank);
        let hb = HaloBox::new(dims, sub);
        let n = hb.len();
        let mut soa = VoxelSoA::airway(n);
        let (sx, sy, _) = hb.size();
        let stencil = StencilDeltas::for_strides(dims, sx, sy);

        let mut marks = ActiveSet::new(n);
        let (mut h, mut inc, mut exp, mut apo, mut dead, mut tct) = (0, 0, 0, 0, 0, 0);
        for li in 0..n {
            let c = hb.global(li);
            if !dims.in_bounds(c) {
                continue;
            }
            let gi = dims.index(c);
            soa.epi.state[li] = world.epi.state[gi];
            soa.epi.timer[li] = world.epi.timer[gi];
            soa.tcells[li] = world.tcells[gi];
            soa.virions.set(li, world.virions.get(gi));
            soa.chem.set(li, world.chemokine.get(gi));
            let active = voxel_active(
                soa.epi.get(li),
                soa.tcells[li],
                soa.virions.get(li),
                soa.chem.get(li),
            );
            if hb.is_core(c) {
                match soa.epi.get(li) {
                    EpiState::Healthy => h += 1,
                    EpiState::Incubating => inc += 1,
                    EpiState::Expressing => exp += 1,
                    EpiState::Apoptotic => apo += 1,
                    EpiState::Dead => dead += 1,
                    EpiState::Airway => {}
                }
                if soa.tcells[li].occupied() {
                    tct += 1;
                }
                if active {
                    marks.insert(li as u32);
                }
            } else if active {
                // Active ghost: its core neighbors must be processed.
                for &(dx, dy, dz) in dims.neighbor_offsets() {
                    let q = c.offset(dx, dy, dz);
                    if dims.in_bounds(q) && hb.is_core(q) {
                        marks.insert(hb.local(q) as u32);
                    }
                }
            }
        }

        let neighbors = partition
            .neighbor_ranks(rank)
            .into_iter()
            .map(|r| (r, *partition.sub(r)))
            .collect();

        CpuRank {
            rank,
            hb,
            dims,
            neighbors,
            soa,
            stencil,
            kernel,
            processed: ActiveSet::new(n),
            marks,
            local_actions: Vec::new(),
            pending_remote: Vec::new(),
            fresh_placed: Vec::new(),
            move_bids: HashMap::new(),
            bind_bids: HashMap::new(),
            remote_intents: Vec::new(),
            extravasated: 0,
            diffuse_out: Vec::new(),
            stat_healthy: h,
            stat_incubating: inc,
            stat_expressing: exp,
            stat_apoptotic: apo,
            stat_dead: dead,
            stat_tcells: tct,
            counters: DeviceCounters::new(),
        }
    }

    #[inline]
    fn view(&self) -> LocalView<'_> {
        LocalView {
            dims: self.dims,
            hb: &self.hb,
            soa: &self.soa,
        }
    }

    /// Voxels on this rank's active list for the current step (the
    /// processed set rebuilt in `plan`).
    pub fn n_active(&self) -> usize {
        self.processed.len()
    }

    /// Mark a core coordinate (by local index) as active now → processed
    /// next step.
    #[inline]
    fn mark(&mut self, li: usize) {
        self.marks.insert(li as u32);
    }

    /// Insert a core voxel and its in-core neighbors into the processed set.
    fn dilate_into_processed(&mut self, c: Coord) {
        if self.hb.is_core(c) {
            let li = self.hb.local(c) as u32;
            self.processed.insert(li);
        }
        for &(dx, dy, dz) in self.dims.neighbor_offsets() {
            let q = c.offset(dx, dy, dz);
            if self.dims.in_bounds(q) && self.hb.is_core(q) {
                self.processed.insert(self.hb.local(q) as u32);
            }
        }
    }

    /// Superstep 1: refresh ghosts, rebuild the active list, apply
    /// extravasation trials, plan T-cell actions and RPC cross-boundary
    /// intents. Returns this rank's extravasation count.
    pub fn plan(
        &mut self,
        p: &SimParams,
        t: u64,
        trials: &TrialTable,
        partition: &Partition,
        inbox: &[CpuMsg],
        out: &mut Outbox<CpuMsg>,
    ) -> u64 {
        // Rebuild the processed set from last step's activity marks.
        // (The sets are taken out of `self` while iterated, here and below,
        // so the loop bodies can borrow `self` mutably without copying the
        // member list; nothing in a loop touches the set it iterates.)
        self.processed.clear();
        let mut marks = std::mem::take(&mut self.marks);
        for &m in marks.sorted() {
            let c = self.hb.global(m as usize);
            self.dilate_into_processed(c);
        }
        marks.clear();
        self.marks = marks;
        // Drain ghost state updates (sent at the end of the previous step).
        for msg in inbox {
            if let CpuMsg::GhostState { agents, conc } = msg {
                for cell in agents {
                    let c = self.dims.coord(cell.gid as usize);
                    debug_assert!(self.hb.covers(c) && !self.hb.is_core(c));
                    let li = self.hb.local(c);
                    self.soa.epi.state[li] = cell.epi_state;
                    self.soa.tcells[li] = cell.tcell;
                    if cell.active {
                        self.dilate_into_processed(c);
                    }
                }
                for cell in conc {
                    // End-of-step concentration refresh for ghost cells
                    // (used by extravasation checks and as step-start state).
                    let c = self.dims.coord(cell.gid as usize);
                    let li = self.hb.local(c);
                    self.soa.virions.set(li, cell.virions);
                    self.soa.chem.set(li, cell.chem);
                }
            } else {
                unreachable!("unexpected message in plan superstep: {msg:?}");
            }
        }

        // Extravasation over the halo reach: core trials apply fully; ghost
        // trials are evaluated (identically to their owner) so fresh ghost
        // cells block this rank's movers.
        self.extravasated = 0;
        self.fresh_placed.clear();
        let (lo, hi) = (self.hb.lo, self.hb.hi);
        let mut core_trials = 0u64;
        for z in lo.z.max(0)..hi.z.min(self.dims.z as i64) {
            for y in lo.y.max(0)..hi.y.min(self.dims.y as i64) {
                let x0 = lo.x.max(0);
                let x1 = hi.x.min(self.dims.x as i64);
                if x0 >= x1 {
                    continue;
                }
                // Global and local indices both run contiguously along x.
                let row = Coord::new(x0, y, z);
                let g0 = self.dims.index(row);
                let g1 = g0 + (x1 - x0) as usize;
                let row_base = self.hb.local(row);
                for &Trial { voxel, trial } in trials.in_gid_range(g0, g1) {
                    let dx = voxel as usize - g0;
                    let li = row_base + dx;
                    if self.soa.tcells[li].occupied() {
                        continue;
                    }
                    let trial = u64::from(trial);
                    if extrav_succeeds(p, t, trial, self.soa.chem.get(li)) {
                        let life = extrav_lifetime(p, t, trial);
                        self.soa.tcells[li] = TCellSlot::fresh(life);
                        if self.hb.is_core(row.offset(dx as i64, 0, 0)) {
                            self.extravasated += 1;
                            self.stat_tcells += 1;
                            self.fresh_placed.push(li as u32);
                            self.mark(li);
                            core_trials += 1;
                        }
                    }
                }
            }
        }
        self.counters.update.elements += core_trials;

        // Plan established T cells over the processed set.
        self.local_actions.clear();
        self.pending_remote.clear();
        self.move_bids.clear();
        self.bind_bids.clear();
        self.remote_intents.clear();
        let mut processed_set = std::mem::take(&mut self.processed);
        for &li in processed_set.sorted() {
            let slot = self.soa.tcells[li as usize];
            if !slot.occupied() || slot.is_fresh() {
                continue;
            }
            let c = self.hb.global(li as usize);
            let action = plan_tcell(&self.view(), p, t, c);
            match action {
                TCellAction::TryMove { target, bid } | TCellAction::TryBind { target, bid } => {
                    let is_bind = matches!(action, TCellAction::TryBind { .. });
                    if self.hb.is_core(target) {
                        let tl = self.hb.local(target) as u32;
                        let map = if is_bind {
                            &mut self.bind_bids
                        } else {
                            &mut self.move_bids
                        };
                        let e = map.entry(tl).or_insert(Bid::EMPTY);
                        *e = e.merge(bid);
                        self.local_actions.push((li, action));
                    } else {
                        let owner = partition.owner(target);
                        let src = self.dims.index(c) as u64;
                        let tgt = self.dims.index(target) as u64;
                        let msg = if is_bind {
                            CpuMsg::BindIntent {
                                src,
                                target: tgt,
                                bid: bid.0,
                            }
                        } else {
                            CpuMsg::MoveIntent {
                                src,
                                target: tgt,
                                bid: bid.0,
                                tissue_steps: slot.tissue_steps(),
                            }
                        };
                        out.send(owner, msg);
                        self.pending_remote.push((li, is_bind));
                    }
                }
                _ => self.local_actions.push((li, action)),
            }
        }
        self.processed = processed_set;
        self.extravasated
    }

    /// Superstep 2: resolve contested targets, apply local and target-side
    /// effects, RPC results back, run the epithelial FSM + production, and
    /// push boundary concentrations to neighbors.
    pub fn resolve(&mut self, p: &SimParams, t: u64, inbox: &[CpuMsg], out: &mut Outbox<CpuMsg>) {
        // Merge remote intents into the bid maps.
        for (sender_idx, msg) in inbox.iter().enumerate() {
            match msg {
                CpuMsg::MoveIntent { target, bid, .. } => {
                    let c = self.dims.coord(*target as usize);
                    let tl = self.hb.local(c) as u32;
                    let e = self.move_bids.entry(tl).or_insert(Bid::EMPTY);
                    *e = e.merge(Bid(*bid));
                    self.remote_intents.push((sender_idx, msg.clone()));
                }
                CpuMsg::BindIntent { target, bid, .. } => {
                    let c = self.dims.coord(*target as usize);
                    let tl = self.hb.local(c) as u32;
                    let e = self.bind_bids.entry(tl).or_insert(Bid::EMPTY);
                    *e = e.merge(Bid(*bid));
                    self.remote_intents.push((sender_idx, msg.clone()));
                }
                _ => unreachable!("unexpected message in resolve superstep: {msg:?}"),
            }
        }

        // Apply local actions.
        let actions = std::mem::take(&mut self.local_actions);
        for &(li, action) in &actions {
            let li = li as usize;
            let slot = self.soa.tcells[li];
            let ts = slot.tissue_steps();
            match action {
                TCellAction::Die => {
                    self.soa.tcells[li] = TCellSlot::EMPTY;
                    self.stat_tcells -= 1;
                }
                TCellAction::StayBound => {
                    self.soa.tcells[li] = TCellSlot::established(ts - 1, slot.bind_steps() - 1);
                    self.mark(li);
                }
                TCellAction::Stay => {
                    self.soa.tcells[li] = TCellSlot::established(ts - 1, 0);
                    self.mark(li);
                }
                TCellAction::TryBind { target, bid } => {
                    let tl = self.hb.local(target);
                    if self.bind_bids[&(tl as u32)] == bid {
                        self.apply_bind(p, t, target);
                        self.soa.tcells[li] =
                            TCellSlot::established(ts - 1, p.tcell_binding_period);
                    } else {
                        self.soa.tcells[li] = TCellSlot::established(ts - 1, 0);
                    }
                    self.mark(li);
                }
                TCellAction::TryMove { target, bid } => {
                    let tl = self.hb.local(target);
                    if self.move_bids[&(tl as u32)] == bid {
                        self.soa.tcells[tl] = TCellSlot::established(ts - 1, 0);
                        self.soa.tcells[li] = TCellSlot::EMPTY;
                        self.mark(tl);
                    } else {
                        self.soa.tcells[li] = TCellSlot::established(ts - 1, 0);
                        self.mark(li);
                    }
                }
            }
        }
        self.local_actions = actions;
        self.local_actions.clear();

        // Target-side effects of remote intents + result RPCs.
        let intents = std::mem::take(&mut self.remote_intents);
        for (_, msg) in &intents {
            match *msg {
                CpuMsg::MoveIntent {
                    src,
                    target,
                    bid,
                    tissue_steps,
                } => {
                    let c = self.dims.coord(target as usize);
                    let tl = self.hb.local(c);
                    let won = self.move_bids[&(tl as u32)] == Bid(bid);
                    if won {
                        self.soa.tcells[tl] = TCellSlot::established(tissue_steps - 1, 0);
                        self.stat_tcells += 1;
                        self.mark(tl);
                    }
                    let src_owner = self.owner_of_gid(src);
                    out.send(src_owner, CpuMsg::MoveResult { src, won });
                }
                CpuMsg::BindIntent { src, target, bid } => {
                    let c = self.dims.coord(target as usize);
                    let tl = self.hb.local(c);
                    let won = self.bind_bids[&(tl as u32)] == Bid(bid);
                    if won {
                        self.apply_bind(p, t, c);
                    }
                    let src_owner = self.owner_of_gid(src);
                    out.send(src_owner, CpuMsg::BindResult { src, won });
                }
                _ => unreachable!(),
            }
        }

        // Epithelial FSM + production over the processed set.
        let mut processed_set = std::mem::take(&mut self.processed);
        let processed = processed_set.sorted();
        for &li in processed {
            let li = li as usize;
            let s = self.soa.epi.get(li);
            if s == EpiState::Airway || s == EpiState::Dead {
                continue;
            }
            let c = self.hb.global(li);
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
            match u.transition {
                EpiTransition::Infected => {
                    self.stat_healthy -= 1;
                    self.stat_incubating += 1;
                }
                EpiTransition::StartedExpressing => {
                    self.stat_incubating -= 1;
                    self.stat_expressing += 1;
                }
                EpiTransition::Died => {
                    if s == EpiState::Expressing {
                        self.stat_expressing -= 1;
                    } else {
                        self.stat_apoptotic -= 1;
                    }
                    self.stat_dead += 1;
                }
                EpiTransition::None => {}
            }
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
            if u.state.is_transient() {
                self.mark(li);
            }
        }

        // Push post-production boundary concentrations to neighbors whose
        // diffusion stencils need them this step (one aggregated put per
        // neighbor).
        let mut per_neighbor: Vec<Vec<crate::msg::ConcCell>> =
            vec![Vec::new(); self.neighbors.len()];
        for &li in processed {
            let c = self.hb.global(li as usize);
            if self.hb.is_boundary(c) {
                let cell = crate::msg::ConcCell {
                    gid: self.dims.index(c) as u64,
                    virions: self.soa.virions.get(li as usize),
                    chem: self.soa.chem.get(li as usize),
                };
                for (i, (_, nsub)) in self.neighbors.iter().enumerate() {
                    if nsub.in_halo_reach(c) {
                        per_neighbor[i].push(cell);
                    }
                }
            }
        }
        self.processed = processed_set;
        for (i, cells) in per_neighbor.into_iter().enumerate() {
            if !cells.is_empty() {
                out.send(self.neighbors[i].0, CpuMsg::GhostConc(cells));
            }
        }
    }

    fn apply_bind(&mut self, p: &SimParams, t: u64, target: Coord) {
        let tl = self.hb.local(target);
        debug_assert_eq!(self.soa.epi.get(tl), EpiState::Expressing);
        let gid = self.dims.index(target) as u64;
        self.soa
            .epi
            .set(tl, EpiState::Apoptotic, rules::apoptosis_timer(p, t, gid));
        self.stat_expressing -= 1;
        self.stat_apoptotic += 1;
        self.mark(tl);
    }

    fn owner_of_gid(&self, gid: u64) -> usize {
        // The source of a cross-boundary intent is always a neighbor.
        let c = self.dims.coord(gid as usize);
        for (nr, nsub) in &self.neighbors {
            if nsub.contains(c) {
                return *nr;
            }
        }
        panic!(
            "intent source {c:?} not owned by any neighbor of rank {}",
            self.rank
        );
    }

    /// Superstep 3: apply cross-boundary results, diffuse, produce the
    /// statistics partial, and push end-of-step boundary state.
    ///
    /// Concentration sums are accumulated exactly ([`BinnedSum`]s folded
    /// into [`ExactSum`]s) so the global reduction is independent of the
    /// partition — a recovery that shrinks the rank count reproduces the
    /// failure-free statistics bitwise.
    ///
    /// [`ExactSum`]: simcov_core::exact::ExactSum
    pub fn finish(
        &mut self,
        p: &SimParams,
        t: u64,
        inbox: &[CpuMsg],
        out: &mut Outbox<CpuMsg>,
    ) -> StatsPartial {
        // Ghost concentrations for the stencil: anything not refreshed below
        // was not processed by its owner this step, which (activity
        // exactness) implies its post-production value is zero.
        let n = self.hb.len();
        for li in 0..n {
            let c = self.hb.global(li);
            if !self.hb.is_core(c) {
                self.soa.virions.set(li, 0.0);
                self.soa.chem.set(li, 0.0);
            }
        }
        for msg in inbox {
            match *msg {
                CpuMsg::GhostConc(ref cells) => {
                    for cell in cells {
                        let c = self.dims.coord(cell.gid as usize);
                        let li = self.hb.local(c);
                        self.soa.virions.set(li, cell.virions);
                        self.soa.chem.set(li, cell.chem);
                    }
                }
                CpuMsg::MoveResult { src, won } => {
                    let c = self.dims.coord(src as usize);
                    let li = self.hb.local(c);
                    let slot = self.soa.tcells[li];
                    let ts = slot.tissue_steps();
                    if won {
                        self.soa.tcells[li] = TCellSlot::EMPTY;
                        self.stat_tcells -= 1;
                    } else {
                        self.soa.tcells[li] = TCellSlot::established(ts - 1, 0);
                        self.mark(li);
                    }
                }
                CpuMsg::BindResult { src, won } => {
                    let c = self.dims.coord(src as usize);
                    let li = self.hb.local(c);
                    let slot = self.soa.tcells[li];
                    let ts = slot.tissue_steps();
                    let bind = if won { p.tcell_binding_period } else { 0 };
                    self.soa.tcells[li] = TCellSlot::established(ts - 1, bind);
                    self.mark(li);
                }
                _ => unreachable!("unexpected message in finish superstep: {msg:?}"),
            }
        }
        self.pending_remote.clear();

        // Settle fresh T cells.
        let fresh = std::mem::take(&mut self.fresh_placed);
        for &li in &fresh {
            self.soa.tcells[li as usize] = self.soa.tcells[li as usize].settled();
        }

        // Diffusion over the processed set (staged write-back).
        let mut processed_set = std::mem::take(&mut self.processed);
        let processed = processed_set.sorted();
        self.diffuse_out.clear();
        let mut virions_sum = BinnedSum::new();
        let mut chem_sum = BinnedSum::new();
        let vc = p.virion_coeffs();
        let cc = p.chemokine_coeffs();
        // Interior voxels (full Moore neighborhood inside the global grid)
        // gather by constant halo-box stride deltas — same values in the
        // same offset-table order, so the f32 sums are bitwise identical to
        // the checked path. In `Wide` mode, maximal runs of *consecutive*
        // interior local indices on the active list additionally go through
        // the chunked lane kernel (per-lane accumulation, never mixed —
        // still the same order per voxel); surface voxels and singletons
        // fall back to the scalar gather either way.
        let mut j = 0usize;
        while j < processed.len() {
            let li = processed[j] as usize;
            let c = self.hb.global(li);
            if self.stencil.is_interior(c) {
                let mut len = 1usize;
                if self.kernel == KernelMode::Wide {
                    while j + len < processed.len()
                        && processed[j + len] as usize == li + len
                        && self.stencil.is_interior(self.hb.global(li + len))
                    {
                        len += 1;
                    }
                }
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
                j += len;
            } else {
                let mut vs = 0.0f32;
                let mut cs = 0.0f32;
                let mut nv = 0usize;
                for &(dx, dy, dz) in self.dims.neighbor_offsets() {
                    let q = c.offset(dx, dy, dz);
                    if self.dims.in_bounds(q) {
                        let ql = self.hb.local(q);
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
                j += 1;
            }
        }
        let diffused = std::mem::take(&mut self.diffuse_out);
        for &(li, nv, nc) in &diffused {
            self.soa.virions.set(li as usize, nv);
            self.soa.chem.set(li as usize, nc);
            virions_sum.add(nv);
            chem_sum.add(nc);
            if nv > 0.0 || nc > 0.0 {
                self.mark(li as usize);
            }
        }
        self.diffuse_out = diffused;
        self.diffuse_out.clear();

        // Re-mark voxels that still hold agents/transient state.
        for &li in processed {
            let li = li as usize;
            if self.soa.tcells[li].occupied() || self.soa.epi.get(li).is_transient() {
                self.mark(li);
            }
        }

        self.counters.update.elements += processed.len() as u64;

        // Push end-of-step boundary state to neighbors (one aggregated put
        // per neighbor).
        let mut agent_batches: Vec<Vec<crate::msg::AgentCell>> =
            vec![Vec::new(); self.neighbors.len()];
        let mut conc_batches: Vec<Vec<crate::msg::ConcCell>> =
            vec![Vec::new(); self.neighbors.len()];
        for &li in processed {
            let c = self.hb.global(li as usize);
            if self.hb.is_boundary(c) {
                let li = li as usize;
                let gid = self.dims.index(c) as u64;
                let active = voxel_active(
                    self.soa.epi.get(li),
                    self.soa.tcells[li],
                    self.soa.virions.get(li),
                    self.soa.chem.get(li),
                );
                let agent = crate::msg::AgentCell {
                    gid,
                    epi_state: self.soa.epi.state[li],
                    tcell: self.soa.tcells[li],
                    active,
                };
                let conc = crate::msg::ConcCell {
                    gid,
                    virions: self.soa.virions.get(li),
                    chem: self.soa.chem.get(li),
                };
                for (i, (_, nsub)) in self.neighbors.iter().enumerate() {
                    if nsub.in_halo_reach(c) {
                        agent_batches[i].push(agent);
                        conc_batches[i].push(conc);
                    }
                }
            }
        }
        self.processed = processed_set;
        for i in 0..self.neighbors.len() {
            if !agent_batches[i].is_empty() {
                out.send(
                    self.neighbors[i].0,
                    CpuMsg::GhostState {
                        agents: std::mem::take(&mut agent_batches[i]),
                        conc: std::mem::take(&mut conc_batches[i]),
                    },
                );
            }
        }

        StatsPartial {
            step: t,
            virions: virions_sum.sum(),
            chemokine: chem_sum.sum(),
            tcells_vasculature: 0, // filled by the driver from the pool
            tcells_tissue: self.stat_tcells,
            epi_healthy: self.stat_healthy,
            epi_incubating: self.stat_incubating,
            epi_expressing: self.stat_expressing,
            epi_apoptotic: self.stat_apoptotic,
            epi_dead: self.stat_dead,
            extravasated: self.extravasated,
        }
    }

    /// Flip one seeded bit in this rank's *owned* (core) state — the
    /// DRAM-style silent corruption modeled by
    /// `FaultKind::StateCorruption`. Targets the same field family as
    /// `CheckpointStore::inject_corruption` (virion bits, chemokine bits,
    /// or an epithelial timer), so both injection sites stress the same
    /// invariants the integrity scrub/audit checks. XOR semantics: the
    /// same seed applied twice restores the original state.
    pub fn corrupt_bit(&mut self, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        let n = self.hb.core.nvoxels() as u64;
        if n == 0 {
            return;
        }
        let pick = (rng.next_u64() % n) as usize;
        let c = self
            .hb
            .core
            .iter_coords()
            .nth(pick)
            .expect("pick < nvoxels");
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
        let core = self.hb.core;
        let len = (core.hi.x - core.lo.x) as usize;
        for z in core.lo.z..core.hi.z {
            for y in core.lo.y..core.hi.y {
                let row = Coord::new(core.lo.x, y, z);
                let (gi, li) = (self.dims.index(row), self.hb.local(row));
                extrav::mark_listed(p, mask, gi, &self.soa, li, len);
            }
        }
    }

    /// Copy this rank's core region into a global world (for verification).
    pub fn write_into(&self, world: &mut World) {
        for c in self.hb.core.iter_coords() {
            let li = self.hb.local(c);
            let gi = self.dims.index(c);
            world.epi.state[gi] = self.soa.epi.state[li];
            world.epi.timer[gi] = self.soa.epi.timer[li];
            world.tcells[gi] = self.soa.tcells[li];
            world.virions.set(gi, self.soa.virions.get(li));
            world.chemokine.set(gi, self.soa.chem.get(li));
        }
    }
}
