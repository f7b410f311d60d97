//! The executor-identity claim (paper §4.1, made strict), stated once:
//! whatever the executor, units, threads, kernel, tile side, delivery order
//! or fault schedule, the history and world equal the scalar `SerialSim`'s
//! bitwise. [`check`] runs [`Case`]s (one oracle run per model), world by
//! world where a case locks; [`generate`] draws adversarial cases. A failing
//! case is shrunk and printed as a `Case` literal for `use equivalence::*`.
#![allow(dead_code, unused_imports, unused_macros)]

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use simcov_repro::pgas::{FaultEvent, FaultKind, FaultPlan, FaultRates};
use simcov_repro::simcov_core::airways::{airway_voxels, AirwayTree};
use simcov_repro::simcov_core::decomp::{Partition, Strategy};
pub use simcov_repro::simcov_core::foi::FoiPattern::{self, *};
use simcov_repro::simcov_core::grid::GridDims;
pub use simcov_repro::simcov_core::lanes::KernelMode::{self, *};
use simcov_repro::simcov_core::lanes::LANES;
use simcov_repro::simcov_core::params::SimParams;
use simcov_repro::simcov_core::serial::SerialSim;
use simcov_repro::simcov_core::stats::TimeSeries;
use simcov_repro::simcov_core::world::World;
use simcov_repro::simcov_cpu::CpuRank;
use simcov_repro::simcov_driver::{
    BspSim, RecoveryPolicy, RunConfig, SerialDriver, Simulation, Unit,
};
pub use simcov_repro::simcov_gpu::GpuVariant::{self, *};
use simcov_repro::simcov_gpu::{GpuDevice, GpuKnobs};
use simcov_repro::simcov_sweep::{ExecutorKind, FaultSpec, RunSpec};
use simcov_repro::simcov_telemetry::{SpanKind, Telemetry};
pub use {Delivery::*, Edit::*, Exec::*, Fault::*, Shape::*};

/// One `#[test]` per `name: cases;` entry, checking those cases.
macro_rules! equivalence_tests {
    ($($name:ident: $cases:expr;)*) => {
        $(#[test]
        fn $name() {
            check($cases);
        })*
    };
}
pub(crate) use equivalence_tests;

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum Exec {
    /// `SerialDriver`, the wide kernel against the scalar; reads the model,
    /// `lock` and `edit` only.
    Serial,
    #[default]
    Cpu,
    Gpu(GpuVariant),
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum Delivery {
    #[default]
    InOrder,
    /// Every inbox permuted at every superstep (`FaultPlan::shuffled`).
    Shuffled(u64),
    /// A rotating inbox shuffled per superstep, a batch duplicated per three.
    Storm,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// `Death(superstep, rank)`: one recovery, onto the survivors.
    Death(u64, usize),
    /// `Stall(rank, first superstep, ns)` for ten supersteps: no recovery.
    Stall(usize, u64, u64),
    /// Seeded deaths and corruptions that must strike; a `RunSpec` twin too.
    Spec(u64),
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Edit {
    /// Flush thresholds off; magnitudes from 1e7 down to true denormals.
    Denormals,
    /// `Spot(x, y, virions)` added at one voxel.
    Spot(u32, u32, f32),
    /// Sign- and exponent-flipped virions on the x ≤ 1, y < 9 band, where
    /// units add out-of-grid +0.0 halo cells that the oracle skips.
    Surface,
}

/// One run to hold against the oracle; start from [`Case::test`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Case {
    pub exec: Exec,
    pub units: usize,
    /// Pinned workers (`Some(0)`: inline; `None`: the default pool).
    pub threads: Option<usize>,
    pub kernel: KernelMode,
    /// `Strategy::Linear` strips, not `Strategy::Blocks`.
    pub linear: bool,
    pub dims: [u32; 3],
    pub steps: u64,
    pub foi: u32,
    pub seed: u64,
    /// `SimParams::scaled_to` for an arc this many steps long, not
    /// `test_config`; the case may stop it early.
    pub arc: Option<u64>,
    pub pattern: FoiPattern,
    pub airways: Option<u32>,
    pub tile_side: Option<usize>,
    pub check_period: Option<u64>,
    pub delivery: Delivery,
    pub faults: Option<Fault>,
    pub audit: Option<u64>,
    pub edit: Option<Edit>,
    /// Compare the world after every step, not only after the last.
    pub lock: bool,
    /// Rebuild onto this many units halfway, with telemetry attached.
    pub rebuild: Option<usize>,
    /// Seeds `0..flips` whose `corrupt_bit` must show once and undo itself.
    pub flips: u64,
}

impl Case {
    /// The test calibration on `dims`, on four CPU ranks.
    pub fn test(dims: [u32; 3], steps: u64, foi: u32, seed: u64) -> Case {
        let mut c = Case::default();
        (c.units, c.dims, c.steps, c.foi, c.seed) = (4, dims, steps, foi, seed);
        c
    }

    pub fn on(&self, exec: Exec, units: usize) -> Case {
        self.with(|c| (c.exec, c.units) = (exec, units))
    }

    pub fn with(&self, f: impl FnOnce(&mut Case)) -> Case {
        let mut c = self.clone();
        f(&mut c);
        c
    }

    /// What the oracle depends on: equal models share one oracle run.
    fn model(&self) -> impl PartialEq {
        let run = (self.dims, self.steps, self.foi, self.seed);
        (run, self.arc, self.pattern, self.airways, self.edit)
    }

    fn grid(&self) -> GridDims {
        GridDims::new3d(self.dims[0], self.dims[1], self.dims[2])
    }

    fn strategy(&self) -> Strategy {
        [Strategy::Blocks, Strategy::Linear][self.linear as usize]
    }

    /// The model parameters and the edited initial world.
    fn start(&self) -> (SimParams, World) {
        let (d, steps, foi, seed) = (self.grid(), self.steps, self.foi, self.seed);
        let mut p = match self.arc {
            Some(length) => SimParams::scaled_to(d, length, foi, seed),
            None => SimParams::test_config(d, steps, foi, seed),
        };
        if self.edit == Some(Denormals) {
            (p.min_virions, p.min_chemokine) = (0.0, 0.0);
        }
        let mut w = World::seeded(&p, self.pattern);
        if let Some(generations) = self.airways {
            let tree = AirwayTree {
                generations,
                ..Default::default()
            };
            w.carve_airways(&airway_voxels(d, &tree));
        }
        for g in 0..w.nvoxels() {
            let (c, v, chem) = (d.coord(g), w.virions.get(g), w.chemokine.get(g));
            let tiny = f32::from_bits(1 + g as u32 % 7);
            let (v, chem) = match self.edit {
                Some(Denormals) => {
                    let add = [1.0e7, tiny, 1.0e-38, 1.0, 1.0e-30][g % 5];
                    (v + add, chem + add * 0.5)
                }
                Some(Spot(x, y, add)) if (c.x, c.y) == (x.into(), y.into()) => (v + add, chem),
                Some(Surface) if c.x <= 1 && c.y < 9 => {
                    let u = 0.25 + 0.01 * c.y as f32;
                    ([-u, f32::from_bits(u.to_bits() ^ 1 << 30)][g % 2], 0.5 * u)
                }
                _ => continue,
            };
            w.virions.set(g, v);
            w.chemokine.set(g, chem);
        }
        (p, w)
    }

    fn gpu_knobs(&self) -> GpuKnobs {
        let mut k = GpuKnobs::default();
        (k.tile_side, k.check_period) = (self.tile_side.unwrap_or(8), self.check_period);
        k.variant = if let Gpu(v) = self.exec { v } else { Combined };
        k
    }

    /// The `RunSpec` twin of a [`Fault::Spec`] case.
    fn spec(&self, seed: u64) -> RunSpec {
        let kind = [ExecutorKind::Cpu, ExecutorKind::Gpu][matches!(self.exec, Gpu(_)) as usize];
        let rates = FaultRates {
            death: 0.004,
            payload_corruption: 0.01,
            state_corruption: 0.01,
            ..Default::default()
        };
        let mut s = RunSpec::test(kind, self.grid(), self.steps, self.foi, self.seed);
        (s.units, s.strategy, s.gpu) = (self.units, self.strategy(), self.gpu_knobs());
        (s.fault, s.audit_period) = (Some(FaultSpec { seed, rates }), self.audit);
        let policy = RecoveryPolicy {
            checkpoint_period: 8,
            ..Default::default()
        };
        (s.recovery, s.retransmit_budget) = (Some(policy), Some(2));
        s
    }

    /// The hand-built run configuration.
    fn config<X: Default>(&self, p: SimParams, exec: X) -> RunConfig<X> {
        let n = self.units;
        let mut cfg = RunConfig::new(p, n).with_exec(exec);
        (cfg.kernel, cfg.strategy, cfg.threads) = (self.kernel, self.strategy(), self.threads);
        cfg.audit_period = self.audit;
        if let Some(Spec(seed)) = self.faults {
            let s = self.spec(seed);
            (cfg.fault_plan, cfg.recovery) = (s.fault_plan(), s.recovery);
            cfg.retransmit_budget = s.retransmit_budget;
            return cfg;
        }
        // Three supersteps a step on the CPU, two on the GPU.
        let horizon = self.steps * 3;
        let ev = |superstep, rank, kind| FaultEvent {
            superstep,
            rank,
            kind,
        };
        let mut events = match self.delivery {
            Shuffled(seed) => FaultPlan::shuffled(seed, n, horizon).events().to_vec(),
            _ => Vec::new(),
        };
        for s in (0..horizon).filter(|_| self.delivery == Storm) {
            let seed = 0xC0FF_EE00 ^ s;
            events.push(ev(s, s as usize % n, FaultKind::DeliveryShuffle { seed }));
            if s % 3 == 0 {
                events.push(ev(s, (s / 3 + 1) as usize % n, FaultKind::MessageDuplicate));
            }
        }
        match self.faults {
            Some(Death(at, rank)) => events.push(ev(at, rank, FaultKind::RankDeath)),
            Some(Stall(rank, from, stall_ns)) => {
                let stall = FaultKind::SlowRank { stall_ns };
                events.extend((from..from + 10).map(|s| ev(s, rank, stall)));
            }
            _ => {}
        }
        cfg.fault_plan = FaultPlan::from_events(events);
        cfg
    }
}

/// Why a case failed: the first step found wrong (`None`: the case could
/// not be built), what failed (a shrunk case must fail the same), and how.
struct Fail(Option<u64>, &'static str, String);

const DIVERGES: &str = "diverges: ";

fn ensure(ok: bool, at: u64, what: &'static str, how: impl Into<String>) -> Result<(), Fail> {
    ok.then_some(())
        .ok_or_else(|| Fail(Some(at), what, how.into()))
}

/// The scalar oracle's worlds (after every step when kept, else after the
/// last) and history.
struct Trace(Vec<World>, TimeSeries);

fn oracle(case: &Case, keep: bool) -> Trace {
    let (p, w) = case.start();
    let mut sim = SerialSim::from_world(p, w).with_kernel(Scalar);
    let mut worlds = Vec::new();
    for t in 0..case.steps {
        sim.advance_step();
        if keep || t + 1 == case.steps {
            worlds.push(sim.world.clone());
        }
    }
    Trace(worlds, sim.history)
}

/// Step `sim` through `steps`, comparing the world after each where the
/// case locks; at the end of the run, the history (naming its first wrong
/// step) and the final world.
fn follow(case: &Case, o: &Trace, sim: &mut dyn Simulation, steps: Range<u64>) -> Result<(), Fail> {
    let last = case.steps - 1;
    for t in steps {
        let stepped = sim.advance_step();
        stepped.map_err(|e| Fail(Some(t), "step failed: ", e.to_string()))?;
        if t == last {
            let pairs = o.1.steps.iter().zip(&sim.history().steps);
            if let Some((t, (a, b))) = (0..).zip(pairs).find(|(_, (a, b))| a != b) {
                return Err(Fail(Some(t), DIVERGES, format!("stats {a:?} vs {b:?}")));
            }
            ensure(o.1 == *sim.history(), t, DIVERGES, "histories")?;
        }
        if case.lock || t == last {
            let world = &o.0[(t as usize).min(o.0.len() - 1)];
            if let Some((idx, why)) = world.first_difference(&sim.gather_world()) {
                let how = format!("world at voxel {idx}: {why}");
                return Err(Fail(Some(t), DIVERGES, how));
            }
        }
    }
    Ok(())
}

/// The step-locked check of one unit type, then the case's rebuild, fault
/// expectations, corruption flips and `RunSpec` twin.
fn check_units<U: Unit>(case: &Case, o: &Trace, knobs: U::Knobs) -> Result<(), Fail> {
    let (p, w) = case.start();
    let built = BspSim::<U>::from_world(case.config(p, knobs), w);
    let mut sim = built.map_err(|e| Fail(None, "build failed: ", e.to_string()))?;
    let end = case.steps;
    let half = case.rebuild.map_or(end, |_| end / 2);
    let tel = case
        .rebuild
        .map_or_else(Telemetry::disabled, |_| Telemetry::enabled(5, 1 << 15));
    sim.enable_telemetry(tel.clone());
    // Kernel-level spans a unit recorded itself (the GPU phases; none on cpu).
    let unit_spans = || {
        let events = tel.events();
        events.iter().filter(|e| e.kind == SpanKind::Kernel).count()
    };
    follow(case, o, &mut sim, 0..half)?;
    if let Some(n) = case.rebuild {
        let (spans, kernel_spans) = (tel.recorded(), unit_spans());
        let world = sim.assemble_world();
        let rebuilt = sim.rebuild(&world, n).is_ok() && sim.n_units() == n;
        let rebuilt = rebuilt && sim.partition().n_ranks() == n;
        let rebuilt = rebuilt && world.first_difference(&sim.assemble_world()).is_none();
        ensure(rebuilt, half, "rebuild failed", "")?;
        follow(case, o, &mut sim, half..end)?;
        let more = tel.recorded() > spans && (unit_spans() > kernel_spans) == (kernel_spans > 0);
        ensure(more, end - 1, "spans stop after a rebuild", "")?;
    }
    let (cc, log, sdc) = (sim.comm_counters(), sim.recovery_log(), sim.integrity_log());
    let quiet = sdc.is_empty() && cc.corrupt_batches == 0 && cc.retransmits == 0;
    let struck = match case.faults {
        None => log.is_empty() && (case.audit.is_none() || quiet),
        Some(Death(_, rank)) => {
            log.len() == 1 && log[0].dead_ranks == [rank] && sim.n_units() + 1 == case.units
        }
        Some(Stall(..)) => log.is_empty() && cc.stalls > 0,
        Some(Spec(_)) => !log.is_empty() || !sdc.is_empty(),
    };
    let delivered = match case.delivery {
        InOrder => true,
        Shuffled(_) => cc.shuffled_inboxes > 0,
        Storm => cc.shuffled_inboxes > 0 && cc.duplicates_suppressed > 0,
    };
    let faults = format!("recoveries {log:?}, integrity {sdc:?}, {cc:?}");
    ensure(struck && delivered, end - 1, "faults: ", faults)?;
    let clean = sim.assemble_world();
    for seed in 0..case.flips {
        let unit = seed as usize % sim.units.len();
        sim.units[unit].corrupt_bit(seed);
        let seen = clean.first_difference(&sim.assemble_world()).is_some();
        sim.units[unit].corrupt_bit(seed);
        let undone = seen && clean.first_difference(&sim.assemble_world()).is_none();
        ensure(undone, end - 1, "corrupt_bit seed ", seed.to_string())?;
    }
    if let Some(Spec(seed)) = case.faults {
        let twin = case.spec(seed).build().map(|mut twin| (twin.run(), twin));
        let (ran, twin) = twin.map_err(|e| Fail(None, "build failed: ", e.to_string()))?;
        let sums = |s: &dyn Simulation| (s.name(), s.history().clone(), s.comm_counters());
        let logs = |s: &dyn Simulation| (s.recovery_log().to_vec(), s.integrity_log().to_vec());
        let same = ran.is_ok() && (sums(&*twin), logs(&*twin)) == (sums(&sim), logs(&sim));
        ensure(same, end - 1, "the RunSpec twin differs", "")?;
    }
    Ok(())
}

fn run(case: &Case, o: &Trace) -> Result<(), Fail> {
    match case.exec {
        Serial => {
            let (p, w) = case.start();
            let sim = SerialDriver::from_world(p, w);
            let mut sim = sim.map_err(|e| Fail(None, "build failed: ", e.to_string()))?;
            follow(case, o, &mut sim, 0..case.steps)
        }
        Cpu => check_units::<CpuRank>(case, o, ()),
        Gpu(_) => check_units::<GpuDevice>(case, o, case.gpu_knobs()),
    }
}

/// Check every case against the scalar serial oracle; a failing case is
/// shrunk and printed. Returns the last oracle's history.
pub fn check(cases: impl IntoIterator<Item = Case>) -> TimeSeries {
    let cases: Vec<Case> = cases.into_iter().collect();
    let mut trace = None;
    for (i, case) in cases.iter().enumerate() {
        if i == 0 || cases[i - 1].model() != case.model() {
            let keep = cases.iter().any(|c| c.lock && c.model() == case.model());
            trace = Some(oracle(case, keep));
        }
        if let Err(fail) = run(case, trace.as_ref().expect("oracle")) {
            let found = format!("{}{} at step {:?}", fail.1, fail.2, fail.0);
            let (small, Fail(at, what, how), tries) = shrink(case.clone(), fail);
            panic!(
                "{found}\n{case:?}\nshrunk in {tries} runs to \
                 ({what}{how} at step {at:?}):\n{small:?}"
            );
        }
    }
    trace.map(|o| o.1).unwrap_or_default()
}

/// Greedy: take the first smaller case that fails the same way as `last`
/// (a panic does not count), until none does or 64 runs are spent.
fn shrink(mut case: Case, mut last: Fail) -> (Case, Fail, usize) {
    let (what, mut tries) = (last.1, 0);
    let fails_alike = |c: &Case| {
        let outcome = catch_unwind(AssertUnwindSafe(|| run(c, &oracle(c, c.lock))));
        outcome.ok()?.err().filter(|f| f.1 == what)
    };
    'smaller: while tries < 64 {
        let at = last.0.unwrap_or(case.steps);
        let edits: [&dyn Fn(&mut Case); 10] = [
            &|c| c.steps = c.steps.min(at + 1),
            &|c| (c.faults, c.delivery, c.audit) = (None, InOrder, None),
            &|c| (c.edit, c.threads, c.rebuild, c.flips) = (None, None, None, 0),
            &|c| c.units = (c.units - 1).max(1),
            &|c| c.foi /= 2,
            &|c| c.dims[0] = (c.dims[0] / 2).max(1),
            &|c| c.dims[0] = (c.dims[0] - 1).max(1),
            &|c| c.dims[1] = (c.dims[1] / 2).max(1),
            &|c| c.dims[1] = (c.dims[1] - 1).max(1),
            &|c| c.dims[2] = (c.dims[2] - 1).max(1),
        ];
        for next in edits.map(|e| case.with(e)) {
            let rank = match next.faults {
                Some(Death(_, rank) | Stall(rank, ..)) => rank.max(1),
                _ => 0,
            };
            if next != case && next.units > rank && tries < 64 {
                tries += 1;
                if let Some(f) = fails_alike(&next) {
                    (case, last) = (next, f);
                    continue 'smaller;
                }
            }
        }
        break;
    }
    (case, last, tries)
}

/// The shape families [`generate`] draws; see its match for each one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    Lanes,
    Thin,
    NoInterior,
    Denormal,
    Boundary,
    Small,
}

pub const SHAPES: [Shape; 6] = [Lanes, Thin, NoInterior, Denormal, Boundary, Small];

/// Case `seed` of one of `shapes`, step-locked, with its executor, units,
/// threads, kernel, strategy, tile side, check period, delivery order,
/// model seed and length drawn too (SplitMix64 draws).
pub fn generate(seed: u64, shapes: &[Shape]) -> Case {
    let mut state = seed;
    let mut pick = |n: usize| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    };
    let (shape, l, x, y) = (shapes[pick(shapes.len())], LANES as u32, pick(24), pick(24));
    let (x, y, steps, foi) = (x as u32, y as u32, 8 + pick(17) as u64, pick(4) as u32);
    let mut c = Case::test([1, 1, 1], steps, foi, pick(1 << 16) as u64);
    let (gpu, tile) = (Gpu(GpuVariant::ALL[pick(4)]), [1, 2, 3, 4, 8, 16][pick(6)]);
    (c.exec, c.units, c.lock) = ([Serial, Cpu, gpu][pick(3)], 1 + pick(3), true);
    c.threads = [None, Some(0), Some(1), Some(3)][pick(4)];
    (c.kernel, c.linear, c.tile_side) = ([Wide, Scalar][pick(2)], pick(2) == 1, Some(tile));
    c.check_period = [None, Some(1 + pick(tile) as u64)][pick(2)];
    c.delivery = [InOrder, InOrder, Shuffled(seed)][pick(3)];
    let run = [l - 1, l + 1, l + 2, l + 3, 2 * l + 5][pick(5)];
    c.dims = match shape {
        // Interior runs a lane short of, at, and past a lane multiple.
        Lanes if x % 3 == 0 => [l + 3, 3 + y % 3, 3 + x % 2],
        Lanes => [run, 3 + y % 6, 1],
        Thin if x % 2 == 0 => [2 + 2 * y, 1, 1],
        Thin => [1, 2 + 2 * y, 1],
        NoInterior if x % 3 == 0 => [2, 2, 2],
        NoInterior => [2 + x % 2 * y, 2 + (1 - x % 2) * y, 1],
        Denormal => [l + 1 + x, 3 + y % 8, 1],
        Small => [1 + x, 1 + y % 18, 1],
        // Linear GPU strips of `h` rows on a healthy grid, `h` a multiple of
        // the tile side: a strip's halo box is `h + 2` rows, so its last tile
        // row holds one core row and the ghosts. Virions one row across the
        // boundary arrive through the halo and cross that core row between
        // two tile checks.
        Boundary => {
            let (t, d) = ([2, 3, 4, 8][pick(4)], 2 + pick(2) as u32);
            let (h, nx) = (t * (1 + pick(3) as u32), 4 + y % 12);
            let edge = h * (1 + pick(d as usize - 1) as u32);
            c.exec = [Gpu(MemoryTiling), Gpu(Combined)][pick(2)];
            (c.units, c.linear) = (d as usize, true);
            (c.tile_side, c.check_period, c.threads, c.foi) = (Some(t as usize), None, None, 0);
            c.edit = Some(Spot(x % nx, edge + 1, 1000.0));
            [nx, d * h, 1]
        }
    };
    if shape == Denormal {
        c.edit = Some(Denormals);
    }
    if c.exec == Serial {
        // Drop the unit knobs drawn for it, which `SerialDriver` never reads.
        let (lock, edit) = (true, c.edit);
        let serial = Case::test(c.dims, c.steps, c.foi, c.seed).on(Serial, 1);
        c = serial.with(|c| (c.lock, c.edit) = (lock, edit));
    }
    c.foi = c.foi.min(c.dims.iter().product());
    while c.units > 1 && Partition::try_new(c.grid(), c.units, c.strategy()).is_err() {
        c.units -= 1;
    }
    c
}
