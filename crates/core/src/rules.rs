//! The staged per-timestep model rules shared by every executor.
//!
//! These functions are *pure*: given read access to the step-start state (a
//! [`RuleView`]) plus `(seed, step)`, they return intents/transitions. All
//! randomness is counter-based on **global** voxel ids, so any executor that
//! can see a voxel's neighborhood computes exactly the same result — the
//! property behind the paper's one-communication-wave tiebreak (§3.1): two
//! devices sharing a boundary independently agree on every contest.
//!
//! ## Phase order within a step (fixed across executors)
//!
//! 1. extravasation trials (oldest state wins a voxel: a trial blocks movers)
//! 2. T-cell planning ([`plan_tcell`]) on the step-start state
//! 3. conflict resolution: per-target max [`Bid`]
//! 4. apply: deaths, binds (epi → apoptotic), moves
//! 5. epithelial FSM ([`epi_update`]) on the post-bind state
//! 6. production + diffusion ([`crate::diffusion`])
//! 7. settle fresh T cells, statistics
//!
//! ## Exactness of activity tracking
//!
//! [`voxel_active`] defines the activity predicate used by both the CPU
//! active list and the GPU active tiles. Processing only the 1-dilation of
//! active voxels is *exact* (not an approximation): an inactive voxel with
//! inactive neighbors has no virions/chemokine in range, no T cells in
//! range, and a steady epithelial state, so every phase above is a no-op
//! there. Nothing in SIMCoV moves faster than one voxel per step (§3.2).

use crate::epithelial::EpiState;
use crate::grid::{Coord, GridDims};
use crate::params::SimParams;
use crate::rng::{CounterRng, StepKey, Stream};
use crate::tcell::TCellSlot;

/// Read access to the step-start simulation state around a voxel. Parallel
/// executors implement this over subdomain-plus-ghost storage; callers only
/// evaluate coordinates within Chebyshev distance 1 of voxels they own.
pub trait RuleView {
    fn dims(&self) -> GridDims;
    fn epi_state(&self, c: Coord) -> EpiState;
    fn tcell(&self, c: Coord) -> TCellSlot;
    fn virions(&self, c: Coord) -> f32;
    fn chemokine(&self, c: Coord) -> f32;
}

/// A movement/binding bid: `(64-bit random value, source voxel id)` packed so
/// larger is better and `0` means "no bid". Ties on the random value (already
/// ~2⁻⁶⁴ unlikely, §3.1) are broken by the source id, making resolution a
/// total order — resolution is a pure `max`, commutative and associative, so
/// ghost-region combining is order-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bid(pub u128);

impl Bid {
    pub const EMPTY: Bid = Bid(0);

    /// Construct from a bid value and the bidder's global voxel id.
    #[inline]
    pub fn new(value: u64, src: u64) -> Bid {
        Bid(((value as u128) << 64) | (src as u128 + 1))
    }

    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The bidder's global voxel id. Panics on `EMPTY`.
    #[inline]
    pub fn src(self) -> u64 {
        debug_assert!(!self.is_empty());
        (self.0 as u64) - 1
    }

    /// Max-combine (the halo-merge operation).
    #[inline]
    pub fn merge(self, other: Bid) -> Bid {
        self.max(other)
    }
}

/// The action a tissue T cell takes this step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TCellAction {
    /// Tissue lifetime exhausted; the cell is removed.
    Die,
    /// Still bound to an epithelial cell; the bind counter decrements.
    StayBound,
    /// No action (hit a wall, ran into another T cell, or failed the binding
    /// probability draw). T cells do not retry within a step (§3.1).
    Stay,
    /// Attempt to bind the expressing epithelial cell at `target`.
    TryBind { target: Coord, bid: Bid },
    /// Attempt to move to the unoccupied voxel at `target`.
    TryMove { target: Coord, bid: Bid },
}

impl TCellAction {
    /// The target and bid of an action that bids, and whether it binds.
    #[inline]
    pub fn bid(self) -> Option<(Coord, Bid, bool)> {
        match self {
            TCellAction::TryBind { target, bid } => Some((target, bid, true)),
            TCellAction::TryMove { target, bid } => Some((target, bid, false)),
            _ => None,
        }
    }
}

/// The bid value a T cell at global voxel `gid` generates this step.
#[inline]
pub fn tcell_bid_value(seed: u64, step: u64, gid: u64) -> u64 {
    CounterRng::new(seed, Stream::TCellBid, step, gid).next_u64()
}

/// Plan the action of the T cell at `c` (which must hold an established,
/// non-fresh T cell) from the step-start state.
pub fn plan_tcell<V: RuleView>(view: &V, p: &SimParams, step: u64, c: Coord) -> TCellAction {
    let dims = view.dims();
    let slot = view.tcell(c);
    debug_assert!(slot.occupied() && !slot.is_fresh());
    let gid = dims.index(c) as u64;

    if slot.tissue_steps() <= 1 {
        return TCellAction::Die;
    }
    if slot.bind_steps() > 0 {
        return TCellAction::StayBound;
    }

    // Binding scan: own voxel first, then neighbors in offset-table order.
    // Bounded candidate buffer: 1 + 26 neighbors max.
    let mut candidates = [Coord::new(0, 0, 0); 27];
    let mut n_cand = 0usize;
    if view.epi_state(c).bindable() {
        candidates[n_cand] = c;
        n_cand += 1;
    }
    for &(dx, dy, dz) in dims.neighbor_offsets() {
        let t = c.offset(dx, dy, dz);
        if dims.in_bounds(t) && view.epi_state(t).bindable() {
            candidates[n_cand] = t;
            n_cand += 1;
        }
    }
    if n_cand > 0 {
        let mut action_rng = CounterRng::new(p.seed, Stream::TCellAction, step, gid);
        let target = candidates[action_rng.below(n_cand as u64) as usize];
        let mut bind_rng = CounterRng::new(p.seed, Stream::BindProb, step, gid);
        if bind_rng.chance(p.max_binding_prob) {
            let bid = Bid::new(tcell_bid_value(p.seed, step, gid), gid);
            return TCellAction::TryBind { target, bid };
        }
        return TCellAction::Stay;
    }

    // Movement: pick a uniformly random direction from the full offset
    // table; walls and occupied voxels make the cell stay ("T cells can and
    // do run into each other", §3.1).
    let offs = dims.neighbor_offsets();
    let mut action_rng = CounterRng::new(p.seed, Stream::TCellAction, step, gid);
    let (dx, dy, dz) = offs[action_rng.below(offs.len() as u64) as usize];
    let target = c.offset(dx, dy, dz);
    if !dims.in_bounds(target) {
        return TCellAction::Stay;
    }
    if view.tcell(target).occupied() {
        return TCellAction::Stay;
    }
    let bid = Bid::new(tcell_bid_value(p.seed, step, gid), gid);
    TCellAction::TryMove { target, bid }
}

/// Result of one epithelial FSM update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpiUpdate {
    pub state: EpiState,
    pub timer: u32,
    /// The transition that happened, for incremental statistics.
    pub transition: EpiTransition,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpiTransition {
    None,
    /// Healthy → incubating.
    Infected,
    /// Incubating → expressing.
    StartedExpressing,
    /// Expressing/apoptotic timer ran out → dead.
    Died,
}

/// Poisson-drawn period helpers, keyed on the voxel so all executors agree.
#[inline]
pub fn incubation_timer(p: &SimParams, step: u64, gid: u64) -> u32 {
    CounterRng::new(p.seed, Stream::IncubationPeriod, step, gid).poisson(p.incubation_period)
}

#[inline]
pub fn expressing_timer(p: &SimParams, step: u64, gid: u64) -> u32 {
    CounterRng::new(p.seed, Stream::ExpressingPeriod, step, gid).poisson(p.expressing_period)
}

/// The apoptosis countdown assigned when a T cell binds the epithelial cell
/// at global voxel `gid` on `step`.
#[inline]
pub fn apoptosis_timer(p: &SimParams, step: u64, gid: u64) -> u32 {
    CounterRng::new(p.seed, Stream::ApoptosisPeriod, step, gid).poisson(p.apoptosis_period)
}

/// One voxel's epithelial FSM step. `virions` is the step-start virion
/// concentration at the voxel (infection probability `min(1, infectivity ·
/// virions)`). Runs *after* binding has been applied, so a cell bound this
/// step enters here as `Apoptotic` with a fresh timer (which then decrements
/// once this step — consistent in every executor). `infection` is the
/// step's infection key, `StepKey::new(p.seed, Stream::Infection, step)`,
/// which a sweep folds once rather than once per voxel.
#[inline]
pub fn epi_update(
    state: EpiState,
    timer: u32,
    virions: f32,
    p: &SimParams,
    step: u64,
    infection: StepKey,
    gid: u64,
) -> EpiUpdate {
    match state {
        EpiState::Airway | EpiState::Dead => EpiUpdate {
            state,
            timer,
            transition: EpiTransition::None,
        },
        EpiState::Healthy => {
            if virions > 0.0 {
                let prob = (p.infectivity * virions as f64).min(1.0);
                let mut rng = infection.rng(gid);
                if rng.chance(prob) {
                    return EpiUpdate {
                        state: EpiState::Incubating,
                        timer: incubation_timer(p, step, gid),
                        transition: EpiTransition::Infected,
                    };
                }
            }
            EpiUpdate {
                state,
                timer,
                transition: EpiTransition::None,
            }
        }
        EpiState::Incubating => {
            let t = timer.saturating_sub(1);
            if t == 0 {
                EpiUpdate {
                    state: EpiState::Expressing,
                    timer: expressing_timer(p, step, gid),
                    transition: EpiTransition::StartedExpressing,
                }
            } else {
                EpiUpdate {
                    state,
                    timer: t,
                    transition: EpiTransition::None,
                }
            }
        }
        EpiState::Expressing | EpiState::Apoptotic => {
            let t = timer.saturating_sub(1);
            if t == 0 {
                EpiUpdate {
                    state: EpiState::Dead,
                    timer: 0,
                    transition: EpiTransition::Died,
                }
            } else {
                EpiUpdate {
                    state,
                    timer: t,
                    transition: EpiTransition::None,
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Extravasation
// ---------------------------------------------------------------------------

/// The voxel draw of `step`'s extravasation trials, with the step key and
/// the grid size taken out of the trial loop: trial `i` lands on `draw(i)`,
/// uniform over the whole grid (§2.2).
#[inline]
pub fn extrav_voxels(p: &SimParams, step: u64) -> impl Fn(u64) -> usize + Copy {
    let key = StepKey::new(p.seed, Stream::ExtravVoxel, step);
    let nvoxels = p.dims.nvoxels() as u64;
    move |trial| key.rng(trial).below(nvoxels) as usize
}

/// The voxel extravasation trial `i` of `step` lands on.
#[inline]
pub fn extrav_voxel(p: &SimParams, step: u64, trial: u64) -> usize {
    extrav_voxels(p, step)(trial)
}

/// Whether any trial can succeed at a voxel holding `chem`: false only below
/// the detection threshold, so NaN counts as possible and corrupted state is
/// evaluated, never skipped.
#[inline]
pub fn extrav_possible(p: &SimParams, chem: f32) -> bool {
    chem.partial_cmp(&p.min_chemokine) != Some(std::cmp::Ordering::Less)
}

/// Whether trial `i` succeeds given the chemokine level at its voxel: the
/// signal must exceed the detection threshold and the entry probability is
/// proportional to (equal to, capped at 1) the concentration.
#[inline]
pub fn extrav_succeeds(p: &SimParams, step: u64, trial: u64, chem: f32) -> bool {
    if !extrav_possible(p, chem) {
        return false;
    }
    let mut rng = CounterRng::new(p.seed, Stream::ExtravProb, step, trial);
    rng.chance((chem as f64).clamp(0.0, 1.0))
}

/// The tissue lifetime (steps) of the T cell entering via trial `i`.
#[inline]
pub fn extrav_lifetime(p: &SimParams, step: u64, trial: u64) -> u32 {
    CounterRng::new(p.seed, Stream::TCellLife, step, trial).poisson(p.tcell_tissue_period)
}

// ---------------------------------------------------------------------------
// Activity predicate
// ---------------------------------------------------------------------------

/// Is there any activity at a voxel? Used (after 1-dilation) by the CPU
/// active list and the GPU active tiles; see the module docs for the
/// exactness argument.
#[inline]
pub fn voxel_active(epi: EpiState, tcell: TCellSlot, virions: f32, chem: f32) -> bool {
    tcell.occupied() || virions > 0.0 || chem > 0.0 || epi.is_transient()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridDims;

    /// A tiny hand-rolled view for rule unit tests.
    struct TestView {
        dims: GridDims,
        epi: Vec<EpiState>,
        tcell: Vec<TCellSlot>,
        vir: Vec<f32>,
        chem: Vec<f32>,
    }

    impl TestView {
        fn new(dims: GridDims) -> Self {
            let n = dims.nvoxels();
            TestView {
                dims,
                epi: vec![EpiState::Healthy; n],
                tcell: vec![TCellSlot::EMPTY; n],
                vir: vec![0.0; n],
                chem: vec![0.0; n],
            }
        }
    }

    impl RuleView for TestView {
        fn dims(&self) -> GridDims {
            self.dims
        }
        fn epi_state(&self, c: Coord) -> EpiState {
            self.epi[self.dims.index(c)]
        }
        fn tcell(&self, c: Coord) -> TCellSlot {
            self.tcell[self.dims.index(c)]
        }
        fn virions(&self, c: Coord) -> f32 {
            self.vir[self.dims.index(c)]
        }
        fn chemokine(&self, c: Coord) -> f32 {
            self.chem[self.dims.index(c)]
        }
    }

    fn params(dims: GridDims) -> SimParams {
        SimParams {
            dims,
            ..SimParams::default()
        }
    }

    #[test]
    fn bid_ordering_and_merge() {
        let a = Bid::new(10, 3);
        let b = Bid::new(10, 4);
        let c = Bid::new(11, 0);
        assert!(b > a, "equal values break ties by source id");
        assert!(c > b, "higher value wins");
        assert_eq!(a.merge(c), c);
        assert_eq!(Bid::EMPTY.merge(a), a);
        assert!(Bid::EMPTY < Bid::new(0, 0));
        assert_eq!(Bid::new(0, 0).src(), 0);
        assert_eq!(b.src(), 4);
    }

    #[test]
    fn dying_tcell_plans_death() {
        let dims = GridDims::new2d(5, 5);
        let mut v = TestView::new(dims);
        let c = Coord::new(2, 2, 0);
        v.tcell[dims.index(c)] = TCellSlot::established(1, 0);
        let p = params(dims);
        assert_eq!(plan_tcell(&v, &p, 0, c), TCellAction::Die);
    }

    #[test]
    fn bound_tcell_stays_bound() {
        let dims = GridDims::new2d(5, 5);
        let mut v = TestView::new(dims);
        let c = Coord::new(2, 2, 0);
        v.tcell[dims.index(c)] = TCellSlot::established(50, 3);
        let p = params(dims);
        assert_eq!(plan_tcell(&v, &p, 0, c), TCellAction::StayBound);
    }

    #[test]
    fn tcell_binds_expressing_neighbor() {
        let dims = GridDims::new2d(5, 5);
        let mut v = TestView::new(dims);
        let c = Coord::new(2, 2, 0);
        let e = Coord::new(3, 2, 0);
        v.tcell[dims.index(c)] = TCellSlot::established(50, 0);
        v.epi[dims.index(e)] = EpiState::Expressing;
        let p = params(dims); // max_binding_prob = 1.0
        match plan_tcell(&v, &p, 0, c) {
            TCellAction::TryBind { target, bid } => {
                assert_eq!(target, e);
                assert_eq!(bid.src(), dims.index(c) as u64);
            }
            other => panic!("expected bind, got {other:?}"),
        }
    }

    #[test]
    fn tcell_prefers_own_voxel_epi_when_only_candidate() {
        let dims = GridDims::new2d(5, 5);
        let mut v = TestView::new(dims);
        let c = Coord::new(2, 2, 0);
        v.tcell[dims.index(c)] = TCellSlot::established(50, 0);
        v.epi[dims.index(c)] = EpiState::Expressing;
        let p = params(dims);
        match plan_tcell(&v, &p, 0, c) {
            TCellAction::TryBind { target, .. } => assert_eq!(target, c),
            other => panic!("expected bind, got {other:?}"),
        }
    }

    #[test]
    fn zero_binding_prob_makes_tcell_stay() {
        let dims = GridDims::new2d(5, 5);
        let mut v = TestView::new(dims);
        let c = Coord::new(2, 2, 0);
        v.tcell[dims.index(c)] = TCellSlot::established(50, 0);
        v.epi[dims.index(Coord::new(3, 2, 0))] = EpiState::Expressing;
        let mut p = params(dims);
        p.max_binding_prob = 0.0;
        assert_eq!(plan_tcell(&v, &p, 0, c), TCellAction::Stay);
    }

    #[test]
    fn tcell_moves_when_nothing_to_bind() {
        let dims = GridDims::new2d(9, 9);
        let mut v = TestView::new(dims);
        let c = Coord::new(4, 4, 0);
        v.tcell[dims.index(c)] = TCellSlot::established(50, 0);
        let p = params(dims);
        // Interior voxel, empty neighbors: must produce a move.
        match plan_tcell(&v, &p, 0, c) {
            TCellAction::TryMove { target, bid } => {
                assert_eq!(target.chebyshev(c), 1);
                assert_eq!(bid.src(), dims.index(c) as u64);
            }
            other => panic!("expected move, got {other:?}"),
        }
    }

    #[test]
    fn tcell_blocked_by_occupied_target_stays() {
        let dims = GridDims::new2d(9, 9);
        let mut v = TestView::new(dims);
        let c = Coord::new(4, 4, 0);
        v.tcell[dims.index(c)] = TCellSlot::established(50, 0);
        // Occupy every neighbor: whatever direction is drawn, the move fails.
        for n in dims.neighbors(c).collect::<Vec<_>>() {
            v.tcell[n] = TCellSlot::established(50, 0);
        }
        let p = params(dims);
        assert_eq!(plan_tcell(&v, &p, 0, c), TCellAction::Stay);
    }

    #[test]
    fn plan_is_deterministic() {
        let dims = GridDims::new2d(9, 9);
        let mut v = TestView::new(dims);
        let c = Coord::new(4, 4, 0);
        v.tcell[dims.index(c)] = TCellSlot::established(50, 0);
        let p = params(dims);
        assert_eq!(plan_tcell(&v, &p, 3, c), plan_tcell(&v, &p, 3, c));
        // Different steps generally give different directions — just check
        // both are moves.
        assert!(matches!(
            plan_tcell(&v, &p, 4, c),
            TCellAction::TryMove { .. }
        ));
    }

    #[test]
    fn epi_fsm_progression() {
        let dims = GridDims::new2d(3, 3);
        let p = params(dims);
        let fsm = |s, timer, virions, step| {
            let key = StepKey::new(p.seed, Stream::Infection, step);
            epi_update(s, timer, virions, &p, step, key, 0)
        };
        // Healthy with no virions: no-op.
        let u = fsm(EpiState::Healthy, 0, 0.0, 0);
        assert_eq!(u.state, EpiState::Healthy);
        assert_eq!(u.transition, EpiTransition::None);

        // Healthy with overwhelming virions: infects (prob 1).
        let u = fsm(EpiState::Healthy, 0, 1e9, 0);
        assert_eq!(u.state, EpiState::Incubating);
        assert_eq!(u.transition, EpiTransition::Infected);
        assert!(u.timer >= 1);

        // Incubating counts down then expresses.
        let u = fsm(EpiState::Incubating, 2, 0.0, 1);
        assert_eq!(u.state, EpiState::Incubating);
        assert_eq!(u.timer, 1);
        let u = fsm(EpiState::Incubating, 1, 0.0, 2);
        assert_eq!(u.state, EpiState::Expressing);
        assert_eq!(u.transition, EpiTransition::StartedExpressing);

        // Expressing dies at timer exhaustion.
        let u = fsm(EpiState::Expressing, 1, 0.0, 3);
        assert_eq!(u.state, EpiState::Dead);
        assert_eq!(u.transition, EpiTransition::Died);

        // Apoptotic dies at timer exhaustion.
        let u = fsm(EpiState::Apoptotic, 1, 0.0, 3);
        assert_eq!(u.state, EpiState::Dead);

        // Dead and airway are inert.
        for s in [EpiState::Dead, EpiState::Airway] {
            let u = fsm(s, 0, 1e9, 5);
            assert_eq!(u.state, s);
            assert_eq!(u.transition, EpiTransition::None);
        }
    }

    #[test]
    fn extravasation_trial_determinism_and_threshold() {
        let dims = GridDims::new2d(16, 16);
        let p = params(dims);
        assert_eq!(extrav_voxel(&p, 3, 7), extrav_voxel(&p, 3, 7));
        assert!(extrav_voxel(&p, 3, 7) < dims.nvoxels());
        // Below threshold never succeeds.
        assert!(!extrav_succeeds(&p, 3, 7, 0.0));
        assert!(!extrav_succeeds(&p, 3, 7, p.min_chemokine / 2.0));
        // Saturated signal always succeeds.
        assert!(extrav_succeeds(&p, 3, 7, 1.0));
        assert!(extrav_lifetime(&p, 3, 7) >= 1);
    }

    #[test]
    fn a_trial_the_listing_skips_could_never_succeed() {
        let p = SimParams::default();
        assert!(p.min_chemokine > 0.0);
        let below = p.min_chemokine.next_down();
        for chem in [f32::NEG_INFINITY, -0.0, 0.0, f32::from_bits(1), below] {
            assert!(
                !extrav_possible(&p, chem),
                "{chem:e} is below the threshold"
            );
            for trial in 0..10_000 {
                assert!(!extrav_succeeds(&p, 3, trial, chem), "{chem:e}");
            }
        }
        for chem in [p.min_chemokine, 1.0, f32::INFINITY, f32::NAN] {
            assert!(extrav_possible(&p, chem), "{chem:e} must be listed");
        }
    }

    #[test]
    fn activity_predicate() {
        assert!(!voxel_active(EpiState::Healthy, TCellSlot::EMPTY, 0.0, 0.0));
        assert!(!voxel_active(EpiState::Dead, TCellSlot::EMPTY, 0.0, 0.0));
        assert!(voxel_active(
            EpiState::Healthy,
            TCellSlot::established(5, 0),
            0.0,
            0.0
        ));
        assert!(voxel_active(EpiState::Healthy, TCellSlot::EMPTY, 0.1, 0.0));
        assert!(voxel_active(EpiState::Healthy, TCellSlot::EMPTY, 0.0, 0.1));
        assert!(voxel_active(
            EpiState::Incubating,
            TCellSlot::EMPTY,
            0.0,
            0.0
        ));
    }
}
