//! Per-rank state and the three per-step supersteps of the CPU baseline.

use std::collections::HashMap;

use gpusim::DeviceCounters;
use pgas::Outbox;
use simcov_core::decomp::Partition;
use simcov_core::exact::BinnedSum;
use simcov_core::extrav::TrialTable;
use simcov_core::lanes::{self, KernelMode};
use simcov_core::rng::{StepKey, Stream};
use simcov_core::rules::{plan_tcell, voxel_active, Bid, EpiTransition, TCellAction};
use simcov_core::unit_grid::bucket;
use simcov_core::{Coord, EpiState, SimParams, StatsPartial, StencilDeltas, TCellSlot};
use simcov_core::{UnitGrid, World};

use crate::active::ActiveSet;
use crate::msg::{AgentCell, ConcCell, CpuMsg};

/// One CPU rank: a subdomain plus ghost ring, an active list, and the
/// step-scoped plan/resolve bookkeeping.
pub struct CpuRank {
    pub rank: usize,
    /// Voxel state over the halo box, row-major.
    pub grid: UnitGrid,
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
    move_bids: HashMap<u32, Bid>,
    bind_bids: HashMap<u32, Bid>,
    remote_intents: Vec<CpuMsg>,
    /// Diffusion write-back staging: (local idx, new virions, new chem).
    diffuse_out: Vec<(u32, f32, f32)>,

    /// Running counts of the core region (tissue T cells and epithelial
    /// states), kept incrementally; the concentration sums are made per step.
    stats: StatsPartial,

    pub counters: DeviceCounters,
}

impl CpuRank {
    /// Build rank-local state from the initial world.
    pub fn new(rank: usize, partition: &Partition, world: &World, kernel: KernelMode) -> Self {
        let dims = partition.dims;
        let grid = UnitGrid::new(partition, rank, world);
        let hb = grid.hb;
        let n = hb.len();
        let (sx, sy, _) = hb.size();
        let stencil = StencilDeltas::for_strides(dims, sx, sy);

        let soa = &grid.soa;
        let mut marks = ActiveSet::new(n);
        for li in 0..n {
            let c = hb.global(li);
            let active = voxel_active(
                soa.epi.get(li),
                soa.tcells[li],
                soa.virions.get(li),
                soa.chem.get(li),
            );
            if !active || !dims.in_bounds(c) {
                continue;
            }
            if hb.is_core(c) {
                marks.insert(li as u32);
            } else {
                // Active ghost: its core neighbors must be processed.
                for &(dx, dy, dz) in dims.neighbor_offsets() {
                    let q = c.offset(dx, dy, dz);
                    if dims.in_bounds(q) && hb.is_core(q) {
                        marks.insert(hb.local(q) as u32);
                    }
                }
            }
        }
        let stats = grid.core_stats();

        CpuRank {
            rank,
            grid,
            stencil,
            kernel,
            processed: ActiveSet::new(n),
            marks,
            local_actions: Vec::new(),
            move_bids: HashMap::new(),
            bind_bids: HashMap::new(),
            remote_intents: Vec::new(),
            diffuse_out: Vec::new(),
            stats,
            counters: DeviceCounters::new(),
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
        if self.grid.hb.is_core(c) {
            let li = self.grid.hb.local(c) as u32;
            self.processed.insert(li);
        }
        for &(dx, dy, dz) in self.grid.dims.neighbor_offsets() {
            let q = c.offset(dx, dy, dz);
            if self.grid.dims.in_bounds(q) && self.grid.hb.is_core(q) {
                self.processed.insert(self.grid.hb.local(q) as u32);
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
            let c = self.grid.hb.global(m as usize);
            self.dilate_into_processed(c);
        }
        marks.clear();
        self.marks = marks;
        // Drain ghost state updates (sent at the end of the previous step).
        for msg in inbox {
            if let CpuMsg::GhostState { agents, conc } = msg {
                for cell in agents {
                    let c = self.grid.dims.coord(cell.gid as usize);
                    debug_assert!(self.grid.hb.covers(c) && !self.grid.hb.is_core(c));
                    let li = self.grid.hb.local(c);
                    self.grid.soa.epi.state[li] = cell.epi_state;
                    self.grid.soa.tcells[li] = cell.tcell;
                    if cell.active {
                        self.dilate_into_processed(c);
                    }
                }
                // End-of-step concentration refresh for ghost cells (used
                // by extravasation checks and as step-start state).
                conc.iter().for_each(|cell| self.put_conc(cell));
            } else {
                unreachable!("unexpected message in plan superstep: {msg:?}");
            }
        }

        // Extravasation over the halo reach: core trials apply fully; ghost
        // trials are evaluated (identically to their owner) so fresh ghost
        // cells block this rank's movers.
        self.grid.extravasate(p, t, trials);
        let placed = self.grid.fresh.len() as u64;
        self.stats.tcells_tissue += placed;
        self.counters.update.elements += placed;
        for &li in &self.grid.fresh {
            self.marks.insert(li);
        }

        // Plan established T cells over the processed set.
        self.local_actions.clear();
        self.move_bids.clear();
        self.bind_bids.clear();
        self.remote_intents.clear();
        let mut processed_set = std::mem::take(&mut self.processed);
        for &li in processed_set.sorted() {
            let slot = self.grid.soa.tcells[li as usize];
            if !slot.occupied() || slot.is_fresh() {
                continue;
            }
            let c = self.grid.hb.global(li as usize);
            let action = plan_tcell(&self.grid, p, t, c);
            match action.bid() {
                Some((target, bid, is_bind)) if !self.grid.hb.is_core(target) => {
                    let src = self.grid.dims.index(c) as u64;
                    let tgt = self.grid.dims.index(target) as u64;
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
                    out.send(partition.owner(target), msg);
                }
                bidding => {
                    if let Some((target, bid, is_bind)) = bidding {
                        let tl = self.grid.hb.local(target) as u32;
                        let map = if is_bind {
                            &mut self.bind_bids
                        } else {
                            &mut self.move_bids
                        };
                        let e = map.entry(tl).or_insert(Bid::EMPTY);
                        *e = e.merge(bid);
                    }
                    self.local_actions.push((li, action));
                }
            }
        }
        self.processed = processed_set;
        placed
    }

    /// Superstep 2: resolve contested targets, apply local and target-side
    /// effects, RPC results back, run the epithelial FSM + production, and
    /// push boundary concentrations to neighbors.
    pub fn resolve(&mut self, p: &SimParams, t: u64, inbox: &[CpuMsg], out: &mut Outbox<CpuMsg>) {
        // Merge remote intents into the bid maps.
        for msg in inbox {
            match msg {
                CpuMsg::MoveIntent { target, bid, .. } => {
                    let tl = self.grid.local_gid(*target) as u32;
                    let e = self.move_bids.entry(tl).or_insert(Bid::EMPTY);
                    *e = e.merge(Bid(*bid));
                    self.remote_intents.push(msg.clone());
                }
                CpuMsg::BindIntent { target, bid, .. } => {
                    let tl = self.grid.local_gid(*target) as u32;
                    let e = self.bind_bids.entry(tl).or_insert(Bid::EMPTY);
                    *e = e.merge(Bid(*bid));
                    self.remote_intents.push(msg.clone());
                }
                _ => unreachable!("unexpected message in resolve superstep: {msg:?}"),
            }
        }

        // Apply local actions.
        let actions = std::mem::take(&mut self.local_actions);
        for &(li, action) in &actions {
            let won = action.bid().is_some_and(|(target, bid, is_bind)| {
                let bids = if is_bind {
                    &self.bind_bids
                } else {
                    &self.move_bids
                };
                bids[&(self.grid.hb.local(target) as u32)] == bid
            });
            let next = self.grid.apply_action(p, li as usize, action, won);
            match action {
                TCellAction::Die => self.stats.tcells_tissue -= 1,
                TCellAction::TryBind { target, .. } if won => self.apply_bind(p, t, target),
                TCellAction::TryMove { target, .. } if won => self.mark(self.grid.hb.local(target)),
                _ => {}
            }
            if next.occupied() {
                self.mark(li as usize);
            }
        }
        self.local_actions = actions;
        self.local_actions.clear();

        // Target-side effects of remote intents + result RPCs.
        let intents = std::mem::take(&mut self.remote_intents);
        for msg in &intents {
            match *msg {
                CpuMsg::MoveIntent {
                    src,
                    target,
                    bid,
                    tissue_steps,
                } => {
                    let tl = self.grid.local_gid(target);
                    let won = self.move_bids[&(tl as u32)] == Bid(bid);
                    if won {
                        self.grid.soa.tcells[tl] = TCellSlot::established(tissue_steps - 1, 0);
                        self.stats.tcells_tissue += 1;
                        self.mark(tl);
                    }
                    let src_owner = self.owner_of_gid(src);
                    out.send(src_owner, CpuMsg::MoveResult { src, won });
                }
                CpuMsg::BindIntent { src, target, bid } => {
                    let c = self.grid.dims.coord(target as usize);
                    let tl = self.grid.hb.local(c);
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
        let infection = StepKey::new(p.seed, Stream::Infection, t);
        let mut processed_set = std::mem::take(&mut self.processed);
        let processed = processed_set.sorted();
        for &li in processed {
            let li = li as usize;
            let s = self.grid.soa.epi.get(li);
            let gid = self.grid.dims.index(self.grid.hb.global(li)) as u64;
            let Some(u) = self.grid.epi_step(li, p, t, infection, gid) else {
                continue;
            };
            match u.transition {
                EpiTransition::Infected => {
                    self.stats.epi_healthy -= 1;
                    self.stats.epi_incubating += 1;
                }
                EpiTransition::StartedExpressing => {
                    self.stats.epi_incubating -= 1;
                    self.stats.epi_expressing += 1;
                }
                EpiTransition::Died => {
                    if s == EpiState::Expressing {
                        self.stats.epi_expressing -= 1;
                    } else {
                        self.stats.epi_apoptotic -= 1;
                    }
                    self.stats.epi_dead += 1;
                }
                EpiTransition::None => {}
            }
            if u.state.is_transient() {
                self.mark(li);
            }
        }

        // Push post-production boundary concentrations to neighbors whose
        // diffusion stencils need them this step (one aggregated put per
        // neighbor).
        let mut per_neighbor: Vec<Vec<ConcCell>> = vec![Vec::new(); self.grid.neighbors.len()];
        for &li in processed {
            let c = self.grid.hb.global(li as usize);
            if self.grid.hb.is_boundary(c) {
                let cell = self.conc_cell(self.grid.dims.index(c) as u64, li as usize);
                bucket(self.grid.reach_mask(c), cell, &mut per_neighbor);
            }
        }
        self.processed = processed_set;
        for (i, cells) in per_neighbor.into_iter().enumerate() {
            if !cells.is_empty() {
                out.send(self.grid.neighbors[i].0, CpuMsg::GhostConc(cells));
            }
        }
    }

    /// A boundary voxel's concentrations, as a neighbour's stencil reads them.
    fn conc_cell(&self, gid: u64, li: usize) -> ConcCell {
        let soa = &self.grid.soa;
        ConcCell {
            gid,
            virions: soa.virions.get(li),
            chem: soa.chem.get(li),
        }
    }

    /// Refresh a ghost's concentrations from its owner's [`ConcCell`].
    fn put_conc(&mut self, cell: &ConcCell) {
        let li = self.grid.local_gid(cell.gid);
        self.grid.soa.virions.set(li, cell.virions);
        self.grid.soa.chem.set(li, cell.chem);
    }

    fn apply_bind(&mut self, p: &SimParams, t: u64, target: Coord) {
        let tl = self.grid.bind(p, t, target);
        self.stats.epi_expressing -= 1;
        self.stats.epi_apoptotic += 1;
        self.mark(tl);
    }

    fn owner_of_gid(&self, gid: u64) -> usize {
        // The source of a cross-boundary intent is always a neighbor.
        let c = self.grid.dims.coord(gid as usize);
        for (nr, nsub) in &self.grid.neighbors {
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
        self.grid.clear_ghost_concentrations();
        for msg in inbox {
            match *msg {
                CpuMsg::GhostConc(ref cells) => cells.iter().for_each(|cell| self.put_conc(cell)),
                CpuMsg::MoveResult { src, won } => {
                    let li = self.grid.local_gid(src);
                    let ts = self.grid.soa.tcells[li].tissue_steps();
                    if won {
                        self.grid.soa.tcells[li] = TCellSlot::EMPTY;
                        self.stats.tcells_tissue -= 1;
                    } else {
                        self.grid.soa.tcells[li] = TCellSlot::established(ts - 1, 0);
                        self.mark(li);
                    }
                }
                CpuMsg::BindResult { src, won } => {
                    let li = self.grid.local_gid(src);
                    let ts = self.grid.soa.tcells[li].tissue_steps();
                    let bind = if won { p.tcell_binding_period } else { 0 };
                    self.grid.soa.tcells[li] = TCellSlot::established(ts - 1, bind);
                    self.mark(li);
                }
                _ => unreachable!("unexpected message in finish superstep: {msg:?}"),
            }
        }

        self.grid.settle_fresh();

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
            let c = self.grid.hb.global(li);
            if self.stencil.is_interior(c) {
                let mut len = 1usize;
                if self.kernel == KernelMode::Wide {
                    while j + len < processed.len()
                        && processed[j + len] as usize == li + len
                        && self.stencil.is_interior(self.grid.hb.global(li + len))
                    {
                        len += 1;
                    }
                }
                let out = &mut self.diffuse_out;
                lanes::diffuse_interior_run(
                    &self.stencil,
                    li,
                    len,
                    &self.grid.soa.virions,
                    &self.grid.soa.chem,
                    vc,
                    cc,
                    |i, nv, nc| out.push((i as u32, nv, nc)),
                );
                j += len;
            } else {
                let mut vs = 0.0f32;
                let mut cs = 0.0f32;
                let mut nv = 0usize;
                for &(dx, dy, dz) in self.grid.dims.neighbor_offsets() {
                    let q = c.offset(dx, dy, dz);
                    if self.grid.dims.in_bounds(q) {
                        let ql = self.grid.hb.local(q);
                        vs += self.grid.soa.virions.get(ql);
                        cs += self.grid.soa.chem.get(ql);
                        nv += 1;
                    }
                }
                self.diffuse_out.push((
                    li as u32,
                    vc.apply(self.grid.soa.virions.get(li), vs, nv),
                    cc.apply(self.grid.soa.chem.get(li), cs, nv),
                ));
                j += 1;
            }
        }
        let diffused = std::mem::take(&mut self.diffuse_out);
        for &(li, nv, nc) in &diffused {
            self.grid.soa.virions.set(li as usize, nv);
            self.grid.soa.chem.set(li as usize, nc);
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
            if self.grid.soa.tcells[li].occupied() || self.grid.soa.epi.get(li).is_transient() {
                self.mark(li);
            }
        }

        self.counters.update.elements += processed.len() as u64;

        // Push end-of-step boundary state to neighbors (one aggregated put
        // per neighbor).
        let mut agent_batches: Vec<Vec<AgentCell>> = vec![Vec::new(); self.grid.neighbors.len()];
        let mut conc_batches: Vec<Vec<ConcCell>> = vec![Vec::new(); self.grid.neighbors.len()];
        for &li in processed {
            let c = self.grid.hb.global(li as usize);
            if self.grid.hb.is_boundary(c) {
                let (li, soa) = (li as usize, &self.grid.soa);
                let gid = self.grid.dims.index(c) as u64;
                let agent = AgentCell {
                    gid,
                    epi_state: soa.epi.state[li],
                    tcell: soa.tcells[li],
                    active: voxel_active(
                        soa.epi.get(li),
                        soa.tcells[li],
                        soa.virions.get(li),
                        soa.chem.get(li),
                    ),
                };
                let conc = self.conc_cell(gid, li);
                let mask = self.grid.reach_mask(c);
                bucket(mask, agent, &mut agent_batches);
                bucket(mask, conc, &mut conc_batches);
            }
        }
        self.processed = processed_set;
        for i in 0..self.grid.neighbors.len() {
            if !agent_batches[i].is_empty() {
                out.send(
                    self.grid.neighbors[i].0,
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
            extravasated: self.grid.fresh.len() as u64,
            ..self.stats
        }
    }

    /// Copy this rank's core region into a global world (for verification).
    pub fn write_into(&self, world: &mut World) {
        self.grid.write_into(world)
    }
}
