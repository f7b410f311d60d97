//! The serial reference executor.
//!
//! This is the ground truth for the staged per-step semantics described in
//! [`crate::rules`]; the `simcov-cpu` and `simcov-gpu` executors must produce
//! **bitwise identical** trajectories (verified by the workspace integration
//! tests). It is deliberately simple — full sweeps, no activity tracking —
//! so its correctness is auditable.
//!
//! Its one shortcut keeps that: extravasation looks only at trials landing
//! where [`rules::extrav_possible`] holds, the same rule
//! [`rules::extrav_succeeds`] applies first. A unit test keeps the
//! every-trial loop as its oracle.

use crate::diffusion::{produce_chemokine, produce_virions, DiffuseCoeffs};
use crate::epithelial::EpiState;
use crate::exact::BinnedSum;
use crate::fields::Field;
use crate::foi::FoiPattern;
use crate::grid::GridDims;
use crate::lanes::{self, KernelMode};
use crate::params::SimParams;
use crate::rng::{StepKey, Stream};
use crate::rules::{
    self, epi_update, extrav_lifetime, extrav_possible, extrav_succeeds, extrav_voxels, plan_tcell,
    Bid, TCellAction,
};
use crate::soa::StencilDeltas;
use crate::stats::{StatsPartial, StepStats, TimeSeries};
use crate::tcell::{TCellSlot, VascularPool};
use crate::world::World;

/// Serial SIMCoV simulation.
#[derive(Debug)]
pub struct SerialSim {
    pub params: SimParams,
    pub world: World,
    pub pool: VascularPool,
    pub step: u64,
    pub history: TimeSeries,
    scratch_virions: Field,
    scratch_chem: Field,
    stencil: StencilDeltas,
    kernel: KernelMode,
    /// Phase-1 scratch: one bit per voxel, set where a T cell can land.
    landable: Vec<u64>,
}

impl SerialSim {
    /// Build a simulation with the default uniform-lattice FOI seeding.
    pub fn new(params: SimParams) -> Self {
        Self::with_pattern(params, FoiPattern::UniformLattice)
    }

    pub fn with_pattern(params: SimParams, pattern: FoiPattern) -> Self {
        params.validate().expect("invalid parameters");
        let world = World::seeded(&params, pattern);
        let n = world.nvoxels();
        let stencil = StencilDeltas::for_grid(params.dims);
        SerialSim {
            params,
            world,
            pool: VascularPool::new(),
            step: 0,
            history: TimeSeries::default(),
            scratch_virions: Field::zeros(n),
            scratch_chem: Field::zeros(n),
            stencil,
            kernel: KernelMode::default(),
            landable: Vec::new(),
        }
    }

    /// Build from an explicit initial world (e.g. carved airways, CT
    /// lesions).
    pub fn from_world(params: SimParams, world: World) -> Self {
        params.validate().expect("invalid parameters");
        assert_eq!(params.dims, world.dims);
        let n = world.nvoxels();
        let stencil = StencilDeltas::for_grid(params.dims);
        SerialSim {
            params,
            world,
            pool: VascularPool::new(),
            step: 0,
            history: TimeSeries::default(),
            scratch_virions: Field::zeros(n),
            scratch_chem: Field::zeros(n),
            stencil,
            kernel: KernelMode::default(),
            landable: Vec::new(),
        }
    }

    /// Select the diffusion kernel (default [`KernelMode::Wide`]). The
    /// trajectory is bitwise identical either way; `Scalar` is the
    /// differential oracle.
    pub fn with_kernel(mut self, kernel: KernelMode) -> Self {
        self.kernel = kernel;
        self
    }

    /// The active diffusion kernel.
    pub fn kernel(&self) -> KernelMode {
        self.kernel
    }

    /// Run all configured steps.
    pub fn run(&mut self) {
        while self.step < self.params.steps {
            self.advance_step();
        }
    }

    /// Advance one timestep (the canonical phase order).
    pub fn advance_step(&mut self) {
        let t = self.step;
        let p = self.params.clone();
        let dims = p.dims;
        let n = dims.nvoxels();

        // --- Phase 1: extravasation ----------------------------------
        let extravasated = self.extravasate(&p, t, self.pool.circulating());

        // --- Phase 2: plan established T cells ------------------------
        let mut actions: Vec<(usize, TCellAction)> = Vec::new();
        for v in 0..n {
            let slot = self.world.tcells[v];
            if slot.occupied() && !slot.is_fresh() {
                actions.push((v, plan_tcell(&self.world, &p, t, dims.coord(v))));
            }
        }

        // --- Phase 3: resolve contested targets -----------------------
        // Winner per target = max Bid; separate arenas for movement (the
        // T-cell slot resource) and binding (the epithelial-cell resource).
        let mut move_bids: std::collections::HashMap<usize, Bid> = std::collections::HashMap::new();
        let mut bind_bids: std::collections::HashMap<usize, Bid> = std::collections::HashMap::new();
        for (_, a) in &actions {
            match *a {
                TCellAction::TryMove { target, bid } => {
                    let e = move_bids.entry(dims.index(target)).or_insert(Bid::EMPTY);
                    *e = e.merge(bid);
                }
                TCellAction::TryBind { target, bid } => {
                    let e = bind_bids.entry(dims.index(target)).or_insert(Bid::EMPTY);
                    *e = e.merge(bid);
                }
                _ => {}
            }
        }

        // --- Phase 4: apply T-cell actions ----------------------------
        for (v, a) in &actions {
            let v = *v;
            let slot = self.world.tcells[v];
            let ts = slot.tissue_steps();
            match *a {
                TCellAction::Die => {
                    self.world.tcells[v] = TCellSlot::EMPTY;
                }
                TCellAction::StayBound => {
                    self.world.tcells[v] = TCellSlot::established(ts - 1, slot.bind_steps() - 1);
                }
                TCellAction::Stay => {
                    self.world.tcells[v] = TCellSlot::established(ts - 1, 0);
                }
                TCellAction::TryBind { target, bid } => {
                    let ti = dims.index(target);
                    if bind_bids[&ti] == bid {
                        // Winner: trigger apoptosis, stay bound.
                        self.world.epi.set(
                            ti,
                            EpiState::Apoptotic,
                            rules::apoptosis_timer(&p, t, ti as u64),
                        );
                        self.world.tcells[v] =
                            TCellSlot::established(ts - 1, p.tcell_binding_period);
                    } else {
                        self.world.tcells[v] = TCellSlot::established(ts - 1, 0);
                    }
                }
                TCellAction::TryMove { target, bid } => {
                    let ti = dims.index(target);
                    if move_bids[&ti] == bid {
                        self.world.tcells[ti] = TCellSlot::established(ts - 1, 0);
                        self.world.tcells[v] = TCellSlot::EMPTY;
                    } else {
                        self.world.tcells[v] = TCellSlot::established(ts - 1, 0);
                    }
                }
            }
        }
        // Settle fresh cells.
        for v in 0..n {
            let slot = self.world.tcells[v];
            if slot.is_fresh() {
                self.world.tcells[v] = slot.settled();
            }
        }

        // --- Phase 5: epithelial FSM (post-binding state) --------------
        let infection = StepKey::new(p.seed, Stream::Infection, t);
        for v in 0..n {
            let s = self.world.epi.get(v);
            if s == EpiState::Airway || s == EpiState::Dead {
                continue;
            }
            let u = epi_update(
                s,
                self.world.epi.timer[v],
                self.world.virions.get(v),
                &p,
                t,
                infection,
                v as u64,
            );
            self.world.epi.set(v, u.state, u.timer);
        }

        // --- Phase 6: production + diffusion ---------------------------
        for v in 0..n {
            let s = self.world.epi.get(v);
            if s.produces_virions() {
                self.world.virions.set(
                    v,
                    produce_virions(self.world.virions.get(v), p.virion_production),
                );
            }
            if s.produces_chemokine() {
                self.world.chemokine.set(
                    v,
                    produce_chemokine(self.world.chemokine.get(v), p.chemokine_production),
                );
            }
        }
        let vc = p.virion_coeffs();
        let cc = p.chemokine_coeffs();
        match self.kernel {
            // Reference path: per-voxel gather. Interior voxels use constant
            // stride deltas (same values in the same offset-table order —
            // bitwise identical to the checked path); only the grid surface
            // pays per-neighbor checks.
            KernelMode::Scalar => {
                for v in 0..n {
                    let c = dims.coord(v);
                    if self.stencil.is_interior(c) {
                        let (vs, cs) =
                            self.stencil
                                .sum2(v, &self.world.virions, &self.world.chemokine);
                        let nvalid = self.stencil.len();
                        self.scratch_virions
                            .set(v, vc.apply(self.world.virions.get(v), vs, nvalid));
                        self.scratch_chem
                            .set(v, cc.apply(self.world.chemokine.get(v), cs, nvalid));
                    } else {
                        diffuse_surface_voxel(
                            dims,
                            &self.world,
                            vc,
                            cc,
                            v,
                            &mut self.scratch_virions,
                            &mut self.scratch_chem,
                        );
                    }
                }
            }
            // Wide path: each inner row's interior span runs through the
            // chunked lane kernel (per-lane accumulation in the same
            // offset-table order — structurally bit-identical to `sum2`);
            // the two row ends and all surface rows take the checked path.
            KernelMode::Wide => {
                let (nx, ny, nz) = (dims.x as usize, dims.y as usize, dims.z as usize);
                for z in 0..nz {
                    let z_inner = dims.is_2d() || (z >= 1 && z + 1 < nz);
                    for y in 0..ny {
                        let row = (z * ny + y) * nx;
                        if z_inner && y >= 1 && y + 1 < ny && nx >= 3 {
                            diffuse_surface_voxel(
                                dims,
                                &self.world,
                                vc,
                                cc,
                                row,
                                &mut self.scratch_virions,
                                &mut self.scratch_chem,
                            );
                            let (sv, sc) = (&mut self.scratch_virions, &mut self.scratch_chem);
                            lanes::diffuse_interior_run(
                                &self.stencil,
                                row + 1,
                                nx - 2,
                                &self.world.virions,
                                &self.world.chemokine,
                                vc,
                                cc,
                                |v, nvv, ncc| {
                                    sv.set(v, nvv);
                                    sc.set(v, ncc);
                                },
                            );
                            diffuse_surface_voxel(
                                dims,
                                &self.world,
                                vc,
                                cc,
                                row + nx - 1,
                                &mut self.scratch_virions,
                                &mut self.scratch_chem,
                            );
                        } else {
                            for x in 0..nx {
                                diffuse_surface_voxel(
                                    dims,
                                    &self.world,
                                    vc,
                                    cc,
                                    row + x,
                                    &mut self.scratch_virions,
                                    &mut self.scratch_chem,
                                );
                            }
                        }
                    }
                }
            }
        }
        std::mem::swap(&mut self.world.virions, &mut self.scratch_virions);
        std::mem::swap(&mut self.world.chemokine, &mut self.scratch_chem);

        // --- Phase 7: statistics + pool advance -------------------------
        self.pool.advance(
            t,
            p.tcell_generation_rate,
            p.tcell_initial_delay,
            p.tcell_vascular_period,
            extravasated,
        );
        // Exact accumulation (see `exact::BinnedSum`) so the serial totals
        // are bit-identical to any partitioned executor's reduction.
        let mut stats = StatsPartial {
            step: t,
            extravasated,
            tcells_vasculature: self.pool.circulating(),
            ..Default::default()
        };
        let (mut virions, mut chemokine) = (BinnedSum::new(), BinnedSum::new());
        for v in 0..n {
            virions.add(self.world.virions.get(v));
            chemokine.add(self.world.chemokine.get(v));
            if self.world.tcells[v].occupied() {
                stats.tcells_tissue += 1;
            }
            match self.world.epi.get(v) {
                EpiState::Healthy => stats.epi_healthy += 1,
                EpiState::Incubating => stats.epi_incubating += 1,
                EpiState::Expressing => stats.epi_expressing += 1,
                EpiState::Apoptotic => stats.epi_apoptotic += 1,
                EpiState::Dead => stats.epi_dead += 1,
                EpiState::Airway => {}
            }
        }
        stats.virions = virions.sum();
        stats.chemokine = chemokine.sum();
        self.history.push(stats.finalize());
        self.step += 1;
    }

    /// Phase 1: every circulating T cell gets one trial; trials are resolved
    /// in trial order (first trial landing on a voxel wins it), and cells are
    /// placed immediately (fresh) so they block later trials and this step's
    /// movers. Returns how many entered. Chemokine is constant through the
    /// phase, so a trial on a voxel failing [`extrav_possible`] always fails.
    ///
    /// Every trial is drawn even when no voxel is landable: skipping those
    /// steps would make a run's step costs depend on when its chemokine
    /// clears, and its median step flip between a fast and a slow cluster
    /// from seed to seed.
    fn extravasate(&mut self, p: &SimParams, t: u64, ntrials: u64) -> u64 {
        if ntrials == 0 {
            return 0;
        }
        self.landable.clear();
        self.landable
            .extend(self.world.chemokine.data.chunks(64).map(|chunk| {
                chunk.iter().enumerate().fold(0u64, |word, (b, &chem)| {
                    word | u64::from(extrav_possible(p, chem)) << b
                })
            }));
        let draw = extrav_voxels(p, t);
        let mut extravasated = 0;
        for i in 0..ntrials {
            let v = draw(i);
            if self.landable[v / 64] >> (v % 64) & 1 == 0 || self.world.tcells[v].occupied() {
                continue;
            }
            if extrav_succeeds(p, t, i, self.world.chemokine.get(v)) {
                self.world.tcells[v] = TCellSlot::fresh(extrav_lifetime(p, t, i));
                extravasated += 1;
            }
        }
        extravasated
    }

    /// Latest step statistics, if any step has run.
    pub fn last_stats(&self) -> Option<&StepStats> {
        self.history.steps.last()
    }
}

/// Bounds-checked diffusion of one voxel (grid-surface or short-row case):
/// gather the in-bounds Moore neighbors in offset-table order with a
/// per-neighbor check, then stage the update. Shared by both kernel modes so
/// the surface arithmetic is literally the same code path.
fn diffuse_surface_voxel(
    dims: GridDims,
    world: &World,
    vc: DiffuseCoeffs,
    cc: DiffuseCoeffs,
    v: usize,
    scratch_virions: &mut Field,
    scratch_chem: &mut Field,
) {
    let c = dims.coord(v);
    let mut vs = 0.0f32;
    let mut cs = 0.0f32;
    let mut nv = 0usize;
    for &(dx, dy, dz) in dims.neighbor_offsets() {
        if let Some(u) = dims.checked_index(c.offset(dx, dy, dz)) {
            vs += world.virions.get(u);
            cs += world.chemokine.get(u);
            nv += 1;
        }
    }
    scratch_virions.set(v, vc.apply(world.virions.get(v), vs, nv));
    scratch_chem.set(v, cc.apply(world.chemokine.get(v), cs, nv));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridDims;

    fn small(steps: u64, foi: u32, seed: u64) -> SerialSim {
        let p = SimParams::test_config(GridDims::new2d(24, 24), steps, foi, seed);
        SerialSim::new(p)
    }

    #[test]
    fn infection_spreads_and_kills_cells() {
        let mut sim = small(200, 2, 1);
        sim.run();
        let last = *sim.last_stats().unwrap();
        assert!(last.virions > 0.0, "virions should persist/grow");
        assert!(
            last.epi_dead + last.epi_expressing + last.epi_incubating + last.epi_apoptotic > 0,
            "infection should progress"
        );
        // The infection must have spread beyond the initial foci.
        let infected_area = (24 * 24) as u64 - last.epi_healthy;
        assert!(
            infected_area > 2,
            "spread beyond the 2 seeds: {infected_area}"
        );
    }

    #[test]
    fn tcells_eventually_enter_tissue() {
        let mut sim = small(300, 4, 2);
        sim.run();
        let max_tissue = sim
            .history
            .steps
            .iter()
            .map(|s| s.tcells_tissue)
            .max()
            .unwrap();
        assert!(max_tissue > 0, "T cells should extravasate");
        let max_vasc = sim
            .history
            .steps
            .iter()
            .map(|s| s.tcells_vasculature)
            .max()
            .unwrap();
        assert!(max_vasc > 0, "pool should fill");
    }

    #[test]
    fn tcells_bind_and_trigger_apoptosis() {
        let mut sim = small(400, 4, 3);
        sim.run();
        let max_apop = sim
            .history
            .steps
            .iter()
            .map(|s| s.epi_apoptotic)
            .max()
            .unwrap();
        assert!(max_apop > 0, "T cells should trigger apoptosis");
    }

    #[test]
    fn determinism_same_seed() {
        let mut a = small(120, 2, 7);
        let mut b = small(120, 2, 7);
        a.run();
        b.run();
        assert!(a.world.first_difference(&b.world).is_none());
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = small(150, 2, 7);
        let mut b = small(150, 2, 8);
        a.run();
        b.run();
        assert!(a.world.first_difference(&b.world).is_some());
    }

    #[test]
    fn tcell_count_conserved_by_movement() {
        // With extravasation and death disabled after a warm start, the
        // tissue T-cell count must be exactly conserved by movement.
        let mut p = SimParams::test_config(GridDims::new2d(16, 16), 50, 1, 5);
        p.tcell_generation_rate = 0.0;
        p.num_foi = 0;
        let mut sim = SerialSim::new(p);
        // Place some long-lived T cells by hand.
        for v in [0usize, 5, 40, 100, 200, 255] {
            sim.world.tcells[v] = TCellSlot::established(1000, 0);
        }
        let before = sim.world.count_tcells();
        for _ in 0..50 {
            sim.advance_step();
        }
        assert_eq!(sim.world.count_tcells(), before);
    }

    #[test]
    fn one_tcell_per_voxel_invariant() {
        let mut sim = small(200, 4, 11);
        for _ in 0..200 {
            sim.advance_step();
            // TCellSlot is one-per-voxel by construction; verify no slot is
            // simultaneously fresh at end of step (all settled).
            for s in &sim.world.tcells {
                assert!(!s.is_fresh(), "fresh flag must be cleared at step end");
            }
        }
    }

    #[test]
    fn concentrations_bounded_and_nonnegative() {
        let mut sim = small(150, 4, 13);
        for _ in 0..150 {
            sim.advance_step();
            for v in 0..sim.world.nvoxels() {
                assert!(sim.world.virions.get(v) >= 0.0);
                let c = sim.world.chemokine.get(v);
                assert!((0.0..=1.0).contains(&c), "chemokine {c} out of [0,1]");
            }
        }
    }

    #[test]
    fn stats_counts_sum_to_grid() {
        let mut sim = small(100, 2, 17);
        sim.run();
        for s in &sim.history.steps {
            assert_eq!(
                s.epi_healthy + s.epi_incubating + s.epi_expressing + s.epi_apoptotic + s.epi_dead,
                24 * 24
            );
        }
    }

    #[test]
    fn airway_voxels_stay_inert() {
        let p = SimParams::test_config(GridDims::new2d(16, 16), 100, 1, 19);
        let mut w = World::seeded(&p, FoiPattern::UniformLattice);
        w.carve_airways(&[0, 1, 2, 3]);
        let mut sim = SerialSim::from_world(p, w);
        sim.run();
        for v in 0..4usize {
            assert_eq!(sim.world.epi.get(v), EpiState::Airway);
        }
    }

    /// The every-trial definition of phase 1: each trial checks its voxel's
    /// T-cell slot, then `extrav_succeeds`, whatever the chemokine.
    fn every_trial_phase1(sim: &mut SerialSim, t: u64, ntrials: u64) -> u64 {
        let p = sim.params.clone();
        let mut extravasated = 0u64;
        for i in 0..ntrials {
            let v = rules::extrav_voxel(&p, t, i);
            if sim.world.tcells[v].occupied() {
                continue;
            }
            if extrav_succeeds(&p, t, i, sim.world.chemokine.get(v)) {
                let life = extrav_lifetime(&p, t, i);
                sim.world.tcells[v] = TCellSlot::fresh(life);
                extravasated += 1;
            }
        }
        extravasated
    }

    #[test]
    fn listed_phase1_places_what_every_trial_phase1_places() {
        let mut rng = crate::rng::CounterRng::new(31, crate::rng::Stream::TCellLife, 0, 0);
        let (mut placed, mut barren) = (0, 0);
        for case in 0..48u64 {
            let dims = match case % 3 {
                0 => GridDims::new2d(24, 24),
                1 => GridDims::new2d(13, 7),
                _ => GridDims::new3d(5, 6, 3),
            };
            let mut p = SimParams::test_config(dims, 10, 0, case);
            // A threshold high enough that trials at exactly it often land.
            if case % 2 == 1 {
                p.min_chemokine = 0.25;
            }
            let min = p.min_chemokine;
            let landable = [f32::NAN, f32::INFINITY, min, 0.5, 1.0];
            let unlandable = [
                -0.0,
                0.0,
                f32::NEG_INFINITY,
                f32::from_bits(1),
                min.next_down(),
            ];
            let mut sim = SerialSim::new(p);
            // One case in four has no landable voxel, one in four just one.
            let pool: &[f32] = if case % 2 == 0 {
                &unlandable
            } else {
                &[landable.as_slice(), unlandable.as_slice()].concat()
            };
            let n = sim.world.nvoxels();
            for v in 0..n {
                let chem = pool[rng.below(pool.len() as u64) as usize];
                sim.world.chemokine.set(v, chem);
                if rng.below(4) == 0 {
                    sim.world.tcells[v] = TCellSlot::established(5, 0);
                }
            }
            if case % 4 == 2 {
                let v = rng.below(n as u64) as usize;
                sim.world.chemokine.set(v, 1.0);
                sim.world.tcells[v] = TCellSlot::EMPTY;
            }
            let ntrials = match case % 8 {
                0 => 0,
                1 => 1,
                _ => 3 * n as u64,
            };
            let mut oracle = SerialSim::from_world(sim.params.clone(), sim.world.clone());
            let expect = every_trial_phase1(&mut oracle, case, ntrials);
            let p = sim.params.clone();
            assert_eq!(sim.extravasate(&p, case, ntrials), expect, "case {case}");
            assert_eq!(sim.world.tcells, oracle.world.tcells, "case {case}");
            placed += expect;
            barren += u64::from(sim.landable.iter().all(|&w| w == 0) && ntrials > 0);
        }
        assert!(
            placed > 100 && barren > 0,
            "{placed} placed, {barren} with no landable voxel"
        );
    }

    #[test]
    fn zero_foi_stays_quiescent() {
        let mut p = SimParams::test_config(GridDims::new2d(16, 16), 50, 0, 23);
        p.tcell_generation_rate = 0.0;
        let mut sim = SerialSim::new(p);
        sim.run();
        let last = *sim.last_stats().unwrap();
        assert_eq!(last.virions, 0.0);
        assert_eq!(last.tcells_tissue, 0);
        assert_eq!(last.epi_healthy, 16 * 16);
    }
}
