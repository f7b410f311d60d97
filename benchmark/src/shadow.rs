//! The traced runs: step loops rebuilt from the layers' public functions,
//! with a harness span around each call.
//!
//! A shadow loop does not call `Simulation::advance_step`. It performs the
//! same sequence the driver does — `TrialTable::build`, the executor's
//! supersteps through `Bsp::try_superstep`, `pgas::allreduce`,
//! `StatsPartial::finalize` + `VascularPool::advance` — on an inline pool,
//! so every call is a span boundary seen from outside. Its history and final
//! state must equal the untraced run's bitwise, or the trace is worthless
//! and the run counts as failed.

use std::time::Instant;

use gpusim::DeviceCounters;
use pgas::{
    allreduce, Bsp, CommCounters, ProcessTransportConfig, SuperstepError, TransportCounters,
    WorkPool,
};
use simcov_core::decomp::Partition;
use simcov_core::extrav::TrialTable;
use simcov_core::foi::FoiPattern;
use simcov_core::integrity::crc_run;
use simcov_core::lanes::KernelMode;
use simcov_core::params::SimParams;
use simcov_core::serial::SerialSim;
use simcov_core::stats::{StatsPartial, TimeSeries};
use simcov_core::tcell::VascularPool;
use simcov_core::world::World;
use simcov_cpu::{CpuMsg, CpuRank};
use simcov_gpu::variants::GpuVariant;
use simcov_gpu::{GpuDevice, GpuMsg};

use crate::spans::{Recorder, Span};
use crate::workloads::{Exec, SimPlan};

/// What a shadow run produced, besides its spans.
pub struct ShadowRun {
    pub history: TimeSeries,
    /// `crc_run` over the final step counter, world and vascular pool.
    pub state_crc: u64,
    pub wall_s: f64,
    /// Seconds spent constructing the ranks or devices.
    pub build_s: f64,
    pub spans: Vec<Span>,
    pub comm: CommCounters,
    pub wire: Option<TransportCounters>,
    /// Work counters merged over ranks or devices.
    pub work: DeviceCounters,
    pub units: usize,
    /// Extravasation trials generated over the run.
    pub trial_entries: u64,
    /// Active voxels (cpu) or tiles (gpu), summed over units and steps.
    pub active_unit_steps: u64,
    /// Mean over steps of the busiest unit's active count over the mean.
    pub active_imbalance: f64,
    /// Mean over steps and devices of the active share of tiles (gpu only).
    pub active_tile_fraction_mean: f64,
}

/// The parts of a step every executor shares, with their spans.
struct StepLoop<'a> {
    rec: &'a Recorder,
    p: SimParams,
    vascular: VascularPool,
    history: TimeSeries,
    trial_entries: u64,
    active_unit_steps: u64,
    imbalance_sum: f64,
}

impl<'a> StepLoop<'a> {
    fn new(rec: &'a Recorder, p: &SimParams) -> Self {
        StepLoop {
            rec,
            p: p.clone(),
            vascular: VascularPool::new(),
            history: TimeSeries::default(),
            trial_entries: 0,
            active_unit_steps: 0,
            imbalance_sum: 0.0,
        }
    }

    fn trials(&mut self, t: u64, step: usize) -> TrialTable {
        let n = self.vascular.circulating();
        self.trial_entries += n;
        self.rec.time("core.trial_table", Some(step), 0, || {
            TrialTable::build(&self.p, t, n)
        })
    }

    /// The driver's `finish_step`: round the exact totals, advance the
    /// vascular pool, append the history row.
    fn finish(&mut self, t: u64, partial: StatsPartial, step: usize) {
        let id = self.rec.open("driver.finish_step", Some(step), 0);
        let mut stats = partial.finalize();
        self.vascular.advance(
            t,
            self.p.tcell_generation_rate,
            self.p.tcell_initial_delay,
            self.p.tcell_vascular_period,
            stats.extravasated,
        );
        stats.tcells_vasculature = self.vascular.circulating();
        stats.step = t;
        self.history.push(stats);
        self.rec.close(id);
    }

    fn observe_active(&mut self, per_unit: impl Iterator<Item = usize>) {
        let (mut sum, mut max, mut n) = (0usize, 0usize, 0usize);
        for a in per_unit {
            sum += a;
            max = max.max(a);
            n += 1;
        }
        self.active_unit_steps += sum as u64;
        if sum > 0 {
            self.imbalance_sum += max as f64 * n as f64 / sum as f64;
        } else {
            self.imbalance_sum += 1.0;
        }
    }
}

fn add(mut a: StatsPartial, b: StatsPartial) -> StatsPartial {
    a += b;
    a
}

fn merged(counters: impl Iterator<Item = DeviceCounters>) -> DeviceCounters {
    counters.fold(DeviceCounters::new(), |mut acc, c| {
        acc.merge(&c);
        acc
    })
}

/// Run `plan` as a traced shadow loop on an inline pool.
pub fn run(plan: &SimPlan) -> Result<ShadowRun, SuperstepError> {
    assert!(plan.faults.is_none(), "recovery lives in the driver");
    match plan.exec {
        Exec::Serial => Ok(serial(plan)),
        Exec::Cpu => cpu(plan),
        Exec::Gpu => gpu(plan),
    }
}

fn serial(plan: &SimPlan) -> ShadowRun {
    let t_build = Instant::now();
    let mut sim = SerialSim::new(plan.params.clone());
    let build_s = t_build.elapsed().as_secs_f64();
    let rec = Recorder::default();
    let t0 = Instant::now();
    let root = rec.open("harness.run", None, 0);
    for _ in 0..plan.run_steps {
        rec.time("core.serial_step", Some(root), 0, || sim.advance_step());
    }
    rec.close(root);
    ShadowRun {
        wall_s: t0.elapsed().as_secs_f64(),
        state_crc: crc_run(sim.step, &sim.world, &sim.pool),
        history: sim.history,
        build_s,
        spans: rec.into_spans(),
        comm: CommCounters::new(),
        wire: None,
        work: DeviceCounters::new(),
        units: 1,
        trial_entries: 0,
        active_unit_steps: 0,
        active_imbalance: 0.0,
        active_tile_fraction_mean: 0.0,
    }
}

fn cpu(plan: &SimPlan) -> Result<ShadowRun, SuperstepError> {
    let p = &plan.params;
    let partition = Partition::new(p.dims, plan.units, plan.strategy);
    let world = World::seeded(p, FoiPattern::UniformLattice);
    let t_build = Instant::now();
    let mut ranks: Vec<CpuRank> = (0..plan.units)
        .map(|r| CpuRank::new(r, &partition, &world, KernelMode::default()))
        .collect();
    let build_s = t_build.elapsed().as_secs_f64();
    let mut bsp: Bsp<CpuMsg> = Bsp::new(plan.units);
    if plan.process_transport {
        bsp.attach_process_transport(ProcessTransportConfig::forked())
            .expect("worker processes spawn");
    }
    let pool = WorkPool::new(0);
    let rec = Recorder::default();
    let mut lp = StepLoop::new(&rec, p);

    let t0 = Instant::now();
    let root = rec.open("harness.run", None, 0);
    for t in 0..plan.run_steps {
        let step = rec.open("harness.step", Some(root), 0);
        let trials = lp.trials(t, step);

        let ss = rec.open("pgas.superstep", Some(step), 0);
        let _extravasated: Vec<u64> =
            bsp.try_superstep(&pool, &mut ranks, |r, s, inbox, out| {
                rec.time("simcov-cpu.plan", Some(ss), r as u32 + 1, || {
                    s.plan(p, t, &trials, &partition, inbox, out)
                })
            })?;
        rec.close(ss);
        lp.observe_active(ranks.iter().map(CpuRank::n_active));

        let ss = rec.open("pgas.superstep", Some(step), 0);
        bsp.try_superstep(&pool, &mut ranks, |r, s, inbox, out| {
            rec.time("simcov-cpu.resolve", Some(ss), r as u32 + 1, || {
                s.resolve(p, t, inbox, out)
            })
        })?;
        rec.close(ss);

        let ss = rec.open("pgas.superstep", Some(step), 0);
        let partials: Vec<StatsPartial> =
            bsp.try_superstep(&pool, &mut ranks, |r, s, inbox, out| {
                rec.time("simcov-cpu.finish", Some(ss), r as u32 + 1, || {
                    s.finish(p, t, inbox, out)
                })
            })?;
        rec.close(ss);

        let partial = rec.time("pgas.allreduce", Some(step), 0, || {
            allreduce(
                &partials,
                add,
                std::mem::size_of::<StatsPartial>(),
                &mut bsp.counters,
            )
        });
        lp.finish(t, partial, step);
        rec.close(step);
    }
    rec.close(root);
    let wall_s = t0.elapsed().as_secs_f64();

    let mut final_world = World::healthy(p.dims);
    for r in &ranks {
        r.write_into(&mut final_world);
    }
    let steps = plan.run_steps.max(1) as f64;
    Ok(ShadowRun {
        state_crc: crc_run(plan.run_steps, &final_world, &lp.vascular),
        wall_s,
        build_s,
        comm: bsp.counters,
        wire: bsp
            .has_transport()
            .then(|| bsp.transport_counters().clone()),
        work: merged(ranks.iter().map(|r| r.counters)),
        units: plan.units,
        trial_entries: lp.trial_entries,
        active_unit_steps: lp.active_unit_steps,
        active_imbalance: lp.imbalance_sum / steps,
        active_tile_fraction_mean: 0.0,
        history: lp.history,
        spans: rec.into_spans(),
    })
}

fn gpu(plan: &SimPlan) -> Result<ShadowRun, SuperstepError> {
    let p = &plan.params;
    let partition = Partition::new(p.dims, plan.units, plan.strategy);
    let world = World::seeded(p, FoiPattern::UniformLattice);
    // The defaults of `GpuSimConfig::new`, which the untraced run uses.
    const TILE_SIDE: usize = 8;
    const DEVICES_PER_NODE: usize = 4;
    let t_build = Instant::now();
    let mut devices: Vec<GpuDevice> = (0..plan.units)
        .map(|d| {
            GpuDevice::new(
                d,
                &partition,
                &world,
                GpuVariant::Combined,
                TILE_SIDE,
                TILE_SIDE as u64,
                DEVICES_PER_NODE,
                KernelMode::default(),
            )
        })
        .collect();
    let build_s = t_build.elapsed().as_secs_f64();
    let mut bsp: Bsp<GpuMsg> = Bsp::new(plan.units);
    let pool = WorkPool::new(0);
    let rec = Recorder::default();
    let mut lp = StepLoop::new(&rec, p);
    let mut tile_fraction_sum = 0.0;

    let t0 = Instant::now();
    let root = rec.open("harness.run", None, 0);
    for t in 0..plan.run_steps {
        let step = rec.open("harness.step", Some(root), 0);
        let trials = lp.trials(t, step);

        let ss = rec.open("pgas.superstep", Some(step), 0);
        let _extravasated: Vec<u64> =
            bsp.try_superstep(&pool, &mut devices, |d, dev, inbox, out| {
                rec.time("simcov-gpu.plan_bid", Some(ss), d as u32 + 1, || {
                    dev.plan_and_bid(p, t, &trials, inbox, out)
                })
            })?;
        rec.close(ss);
        lp.observe_active(devices.iter().map(GpuDevice::n_active_tiles));
        tile_fraction_sum += devices
            .iter()
            .map(GpuDevice::active_tile_fraction)
            .sum::<f64>()
            / plan.units as f64;

        let ss = rec.open("pgas.superstep", Some(step), 0);
        let partials: Vec<StatsPartial> =
            bsp.try_superstep(&pool, &mut devices, |d, dev, inbox, out| {
                rec.time("simcov-gpu.resolve_update", Some(ss), d as u32 + 1, || {
                    dev.resolve_and_update(p, t, inbox, out)
                })
            })?;
        rec.close(ss);

        let partial = rec.time("pgas.allreduce", Some(step), 0, || {
            allreduce(
                &partials,
                add,
                std::mem::size_of::<StatsPartial>(),
                &mut bsp.counters,
            )
        });
        lp.finish(t, partial, step);
        rec.close(step);
    }
    rec.close(root);
    let wall_s = t0.elapsed().as_secs_f64();

    let mut final_world = World::healthy(p.dims);
    for d in &devices {
        d.write_into(&mut final_world);
    }
    let steps = plan.run_steps.max(1) as f64;
    Ok(ShadowRun {
        state_crc: crc_run(plan.run_steps, &final_world, &lp.vascular),
        wall_s,
        build_s,
        comm: bsp.counters,
        wire: None,
        work: merged(devices.iter().map(|d| d.counters)),
        units: plan.units,
        trial_entries: lp.trial_entries,
        active_unit_steps: lp.active_unit_steps,
        active_imbalance: lp.imbalance_sum / steps,
        active_tile_fraction_mean: tile_fraction_sum / steps,
        history: lp.history,
        spans: rec.into_spans(),
    })
}
