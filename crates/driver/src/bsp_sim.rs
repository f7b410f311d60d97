//! [`BspSim`]: the one executor shell, generic over the [`Unit`] that updates
//! a subdomain — the *effect shell* over the pure control-plane core in
//! [`crate::state`].
//!
//! SIMCoV-CPU and SIMCoV-GPU are the same model on the same runtime; they
//! differ only in how one process updates its subdomain (three supersteps
//! over an active list vs two bulk waves over memory tiles). That difference
//! is the [`Unit`] trait. Everything else — construction, re-partitioning,
//! world assembly, the statistics allreduce, the step loop, checkpointing,
//! recovery, metrics — lives here once and is monomorphised per unit type.
//!
//! The step loop owns only the impure world — clocks, pool dispatch,
//! telemetry emission, the checkpoint store's actual generations — and
//! reduces every observation to an [`Event`] fed to [`DriverState::apply`];
//! the returned [`Effect`]s are executed in order by `dispatch`. No recovery,
//! retry, quarantine or checkpoint-scheduling *decision* is made in this
//! file.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use gpusim::metrics::StepRecord;
use gpusim::{CostModel, DeviceCounters, HwProfile};
use pgas::counters::WireSize;
use pgas::fault::{IntegrityDetector, IntegrityRecord, RecoveryRecord, SuperstepError};
use pgas::{allreduce, Bsp, CommCounters, Payload, TransportMode, WireCodec, WorkPool};
use simcov_core::checkpoint::{CheckpointStore, RunCheckpoint};
use simcov_core::decomp::Partition;
use simcov_core::extrav::TrialTable;
use simcov_core::lanes::KernelMode;
use simcov_core::params::SimParams;
use simcov_core::stats::{StatsPartial, StepStats, TimeSeries};
use simcov_core::world::World;
use simcov_telemetry::{
    HealthConfig, HealthMonitor, HealthRecord, MetricsSink, SpanKind, Telemetry,
};

use crate::config::RunConfig;
use crate::core::DriverCore;
use crate::error::{ConfigError, SimError};
use crate::simulation::{CheckpointStats, IntegrityStats, Simulation};
use crate::state::{DriverState, Effect, Event, ScrubVerdict, StopCause};

/// One execution unit of a BSP run — a CPU rank or a simulated device — and
/// the only thing an executor has to supply. Adding an executor (or porting
/// another ABM) is implementing this trait; `impl Unit for CpuRank` in
/// `simcov-cpu` is the worked example.
pub trait Unit: Sized + Send {
    /// The message type the units exchange at superstep boundaries.
    type Msg: Send + Sync + WireSize + Payload + WireCodec + 'static;
    /// Executor-specific configuration ([`RunConfig::exec`]).
    type Knobs: Default;

    /// Stable executor name (`"cpu"`, `"gpu"`), used in structured output.
    const NAME: &'static str;

    /// Validate the executor-specific knobs (the shared ones are checked by
    /// [`DriverCore::new`]).
    fn validate(_knobs: &Self::Knobs) -> Result<(), ConfigError> {
        Ok(())
    }

    /// Build unit `id` of `partition` over its subdomain of `world`.
    fn build(
        id: usize,
        partition: &Partition,
        world: &World,
        kernel: KernelMode,
        knobs: &Self::Knobs,
    ) -> Self;

    /// Compute step `t`: run the executor's supersteps and return every
    /// unit's statistics partial, in unit order. On `Err` the unit states
    /// are not trustworthy; the driver rolls back and rebuilds. The error
    /// distinguishes fail-stop failures from unhealed in-flight corruption
    /// ([`SuperstepError::Integrity`]); both take the rollback tier.
    fn step(
        bsp: &mut Bsp<Self::Msg>,
        pool: &WorkPool,
        units: &mut [Self],
        params: &SimParams,
        partition: &Partition,
        t: u64,
        trials: &TrialTable,
    ) -> Result<Vec<StatsPartial>, SuperstepError>;

    /// Set the bit of every owned voxel where an extravasation trial can
    /// change something ([`simcov_core::extrav::mark_listed`]) in the trial
    /// table's per-voxel mask.
    fn mark_listed(&self, params: &SimParams, mask: &mut [u64]);

    /// Active work items right now: active-list voxels (CPU) or active
    /// tiles (GPU).
    fn n_active(&self) -> usize;

    /// Cumulative work counters of this unit.
    fn counters(&self) -> DeviceCounters;

    /// Flip one seeded bit in the resident model state (the SDC injection
    /// the driver performs on behalf of the fault plan). XOR semantics: the
    /// same seed twice restores the state.
    fn corrupt_bit(&mut self, seed: u64);

    /// Write this unit's owned voxels into the assembled global `world`.
    fn write_into(&self, world: &mut World);

    /// Receive the telemetry handle (units that record their own spans —
    /// the GPU kernel phases — keep a clone).
    fn attach_telemetry(&mut self, _tel: &Telemetry) {}

    /// The hardware profile this executor is costed under.
    fn hw_profile(model: &CostModel) -> &HwProfile;
}

/// A running BSP simulation over units of type `U`. `CpuSim` and `GpuSim`
/// are the two instantiations; program against either through the
/// [`Simulation`] trait.
pub struct BspSim<U: Unit> {
    core: DriverCore,
    bsp: Bsp<U::Msg>,
    /// The live execution units, in partition order (shrinks after a
    /// recovery from rank death).
    pub units: Vec<U>,
    /// The step's extravasation trials, rebuilt in place every step (pure in
    /// `(params, step, pool size)`, so it is never checkpointed).
    trials: TrialTable,
    kernel: KernelMode,
    knobs: U::Knobs,
}

impl<U: Unit> BspSim<U> {
    pub fn new(cfg: RunConfig<U::Knobs>) -> Result<Self, ConfigError> {
        cfg.params.validate().map_err(ConfigError::InvalidParams)?;
        let world = World::seeded(&cfg.params, cfg.pattern);
        Self::from_world(cfg, world)
    }

    /// Build from an explicit initial world (carved airways, CT lesions...).
    pub fn from_world(cfg: RunConfig<U::Knobs>, world: World) -> Result<Self, ConfigError> {
        U::validate(&cfg.exec)?;
        let mut core = DriverCore::new(
            cfg.params,
            cfg.units,
            cfg.strategy,
            &cfg.fault_plan,
            cfg.recovery,
        )?;
        if let Some(period) = cfg.audit_period {
            core.enable_integrity(period);
        }
        core.check_world(&world)?;
        if let Some(n) = cfg.threads {
            // Pin the worker count: unit superstep bodies run truly
            // concurrently on `n` workers (0 = inline). The pool only
            // schedules — reduction order is fixed by `allreduce`/`ExactSum`
            // — so every thread count yields the same bits.
            core.share_pool(Arc::new(WorkPool::new(n)));
        }
        let units = build_units(&core.partition, &world, cfg.kernel, &cfg.exec);
        let mut bsp = Bsp::new(cfg.units);
        bsp.inject_faults(cfg.fault_plan);
        if let Some(budget) = cfg.retransmit_budget {
            bsp.set_retransmit_budget(budget);
        }
        if let TransportMode::Process(tcfg) = cfg.transport {
            bsp.attach_process_transport(tcfg)
                .map_err(|e| ConfigError::Transport(e.to_string()))?;
        }
        Ok(BspSim {
            core,
            bsp,
            units,
            trials: TrialTable::default(),
            kernel: cfg.kernel,
            knobs: cfg.exec,
        })
    }

    /// The current domain decomposition (re-partitioned after recovery).
    pub fn partition(&self) -> &Partition {
        &self.core.partition
    }

    /// The busiest unit's work counters (the compute critical path).
    pub fn max_unit_counters(&self) -> DeviceCounters {
        self.units
            .iter()
            .fold(DeviceCounters::new(), |acc, u| acc.max(&u.counters()))
    }

    /// Aggregate work counters of the live units (excludes generations
    /// retired by recovery — see [`DriverCore::retired_counters`]).
    fn live_counters(&self) -> DeviceCounters {
        self.units.iter().fold(DeviceCounters::new(), |mut acc, u| {
            acc.merge(&u.counters());
            acc
        })
    }

    /// Assemble the full world from the distributed subdomains.
    pub fn assemble_world(&self) -> World {
        let mut world = World::healthy(self.core.params.dims);
        for u in &self.units {
            u.write_into(&mut world);
        }
        world
    }

    /// Tear down the unit collection and rebuild it over `n_units` units
    /// from `world` (re-partitioning the grid — the elastic shrink after a
    /// rank death). The BSP runtime is carried forward via
    /// [`Bsp::rebuilt`] so cumulative counters and the remaining fault plan
    /// survive, and telemetry is re-attached to the brand-new units.
    pub fn rebuild(&mut self, world: &World, n_units: usize) -> Result<(), ConfigError> {
        let partition = Partition::try_new(self.core.params.dims, n_units, self.core.strategy)
            .map_err(ConfigError::Partition)?;
        self.units = build_units(&partition, world, self.kernel, &self.knobs);
        let bsp = std::mem::replace(&mut self.bsp, Bsp::new(1));
        self.bsp = bsp.rebuilt(n_units);
        if self.core.telemetry.is_enabled() {
            self.attach_telemetry();
        }
        self.core.partition = partition;
        Ok(())
    }

    /// Hand the core's telemetry handle to the BSP runtime and every unit
    /// so supersteps, rank phases and kernel phases record spans.
    fn attach_telemetry(&mut self) {
        self.bsp.attach_telemetry(self.core.telemetry.clone());
        for u in &mut self.units {
            u.attach_telemetry(&self.core.telemetry);
        }
    }

    /// One timestep = the shared trial table + the unit's supersteps + the
    /// statistics allreduce (the per-step UPC++ reduction of §3.3). Exact
    /// summation makes the result independent of the unit count.
    fn compute_step(&mut self, t: u64) -> Result<StatsPartial, SuperstepError> {
        let (params, units, tel) = (&self.core.params, &self.units, &self.core.telemetry);
        let ntrials = self.core.vascular.circulating();
        let table_open = tel.open();
        self.trials
            .rebuild_listed(&self.core.pool, params, t, ntrials, |mask| {
                for u in units {
                    u.mark_listed(params, mask);
                }
            });
        let listed = self.trials.len() as u64;
        tel.close(
            0,
            "trial-table",
            SpanKind::Superstep,
            tel.step_parent(),
            table_open,
            ntrials,
            listed,
        );
        let partials = U::step(
            &mut self.bsp,
            &self.core.pool,
            &mut self.units,
            &self.core.params,
            &self.core.partition,
            t,
            &self.trials,
        )?;
        Ok(allreduce(
            &partials,
            |mut a, b| {
                a += b;
                a
            },
            std::mem::size_of::<StatsPartial>(),
            &mut self.bsp.counters,
        ))
    }

    /// Post-step health observation: drain the BSP layer's per-superstep
    /// rank walls (always, so the buffer never grows unboundedly), then —
    /// when a monitor is engaged — feed walls, per-unit active counts and
    /// the step's comm-byte delta through it, and stamp any fresh finding
    /// onto the trace timeline as an instant marker under the current step
    /// span.
    fn observe_health(&mut self, t: u64, tel: &Telemetry) {
        let walls = self.bsp.take_rank_walls();
        if self.core.health.is_none() {
            return;
        }
        let active: Vec<u64> = self.units.iter().map(|u| u.n_active() as u64).collect();
        let comm = self.bsp.counters;
        let now = tel.now_ns();
        let step_span = tel.step_parent();
        let core = &mut self.core;
        let delta_bytes = (comm.bytes + comm.bulk_bytes)
            .saturating_sub(core.health_prev_comm.bytes + core.health_prev_comm.bulk_bytes);
        core.health_prev_comm = comm;
        let mon = core.health.as_mut().expect("checked above");
        let mut fresh = Vec::new();
        for w in &walls {
            fresh.extend(mon.observe_superstep(t, w.superstep, now, &w.walls));
        }
        fresh.extend(mon.observe_step(t, now, &active, delta_bytes));
        for r in &fresh {
            tel.instant(0, r.kind.label(), step_span, r.superstep, 0);
        }
    }

    /// Fold a completed step into the shared state and emit its record.
    fn finish_step(&mut self, t: u64, partial: StatsPartial, start: Option<Instant>) {
        let mut stats = partial.finalize();
        let core = &mut self.core;
        core.vascular.advance(
            t,
            core.params.tcell_generation_rate,
            core.params.tcell_initial_delay,
            core.params.tcell_vascular_period,
            stats.extravasated,
        );
        stats.tcells_vasculature = core.vascular.circulating();
        stats.step = t;
        core.history.push(stats);
        core.step = t + 1;
        if core.metrics.is_some() {
            self.emit_step_record(t, stats, start);
        }
    }

    /// Publish one [`StepRecord`]. Replayed steps (after a rollback) emit
    /// again under the same step number — replay cost is visible in the
    /// stream, and the recoveries that triggered it ride on the first record
    /// emitted after them.
    fn emit_step_record(&mut self, step: u64, stats: StepStats, start: Option<Instant>) {
        let comm = self.bsp.counters;
        let active_units = self.active_units();
        let units = self.units.len().max(1) as f64;
        let model = CostModel::default();
        let total = self.total_counters();
        let core = &mut self.core;
        let snap = core
            .snapshots
            .take(step, &total, &model, U::hw_profile(&model));
        let prev = core.prev_comm;
        let rec = StepRecord {
            step,
            agents: stats.tcells_tissue,
            virions: stats.virions,
            chemokine: stats.chemokine,
            active_units,
            comm_messages: (comm.messages + comm.bulk_messages)
                - (prev.messages + prev.bulk_messages),
            comm_bytes: (comm.bytes + comm.bulk_bytes) - (prev.bytes + prev.bulk_bytes),
            sim_seconds: snap.cost.total() / units,
            real_seconds: start.map(|s| s.elapsed().as_secs_f64()).unwrap_or(0.0),
            phases: snap,
            recoveries: std::mem::take(&mut core.pending_recoveries),
            integrity: std::mem::take(&mut core.pending_integrity),
        };
        core.prev_comm = comm;
        if let Some(sink) = core.metrics.as_mut() {
            sink.record(rec);
        }
    }

    /// Feed one observation into the pure core and execute every effect it
    /// requests, in order. The store's answer to a rollback query is itself
    /// an observation, so [`Effect::FetchRollbackTarget`] enqueues a
    /// follow-up [`Event::RollbackTargetFetched`] — the queue drains until
    /// the core is quiescent. When event recording is on, every applied
    /// event (including the store answers) lands in the log, so a replay
    /// needs no store.
    fn dispatch(&mut self, event: Event) -> Result<(), SimError> {
        let mut queue = VecDeque::new();
        queue.push_back(event);
        while let Some(ev) = queue.pop_front() {
            if let Some(log) = self.core.event_log.as_mut() {
                log.push(ev.clone());
            }
            let state = std::mem::take(&mut self.core.state);
            let (next, effects) = state.apply(ev);
            self.core.state = next;
            for eff in effects {
                match eff {
                    Effect::EmitIntegrity(rec) => self.core.push_integrity(rec),
                    Effect::EmitRecovery(rec) => {
                        if let Some(rm) = self.core.recovery.as_mut() {
                            rm.log.push(rec.clone());
                        }
                        self.core.pending_recoveries.push(rec);
                    }
                    Effect::FetchRollbackTarget { verified_only } => {
                        let rm = self
                            .core
                            .recovery
                            .as_mut()
                            .expect("a rollback query implies a recovery manager");
                        let (cp, quarantined) = if verified_only {
                            let before = rm.store.quarantined;
                            let cp = rm.store.latest_verified().cloned();
                            (cp, rm.store.quarantined - before)
                        } else {
                            (rm.store.latest().cloned(), 0)
                        };
                        let step = cp.as_ref().map(|c| c.step);
                        self.core.staged_rollback = cp;
                        queue.push_back(Event::RollbackTargetFetched { step, quarantined });
                    }
                    Effect::Rollback { survivors } => self.perform_rollback(survivors)?,
                    Effect::Halt(cause) => return Err(cause_to_error(cause)),
                }
            }
        }
        Ok(())
    }

    /// Prologue observation while the SDC defense is engaged: scrub the
    /// canonical state against last step's seal, and run the invariant audit
    /// when due. Pure detection only — what happens on a violation is the
    /// core's decision. The `integrity:scrub` span (a top-level driver
    /// phase, since the step's span opens after it) times the world
    /// assembly and the scrub.
    fn scrub_verdict(&mut self) -> Option<ScrubVerdict> {
        let step = self.core.step;
        let open = self.core.telemetry.open();
        let world = self.assemble_world();
        let core = &mut self.core;
        let mon = core.integrity.as_mut()?;
        let audit_due = mon.audit_due(step);
        let scrubbed = mon.scrub(&world, &core.vascular);
        let tel = &core.telemetry;
        tel.close(0, "integrity:scrub", SpanKind::Superstep, 0, open, step, 0);
        match scrubbed {
            Err(v) => Some(ScrubVerdict {
                violation: v,
                detector: IntegrityDetector::SealScrub,
            }),
            Ok(()) if audit_due => mon
                .audit(&world, &core.vascular)
                .err()
                .map(|v| ScrubVerdict {
                    violation: v,
                    detector: IntegrityDetector::InvariantAudit,
                }),
            Ok(()) => None,
        }
    }

    /// Execute a decided rollback: retire the live work counters before the
    /// unit collection is torn down (so totals never lose the failed
    /// epoch's work), re-partition over the staged checkpoint's world, swap
    /// in its pool/history/step, and reseal.
    fn perform_rollback(&mut self, survivors: usize) -> Result<(), SimError> {
        let cp = self
            .core
            .staged_rollback
            .take()
            .expect("a Rollback effect follows a successful target fetch");
        let live = self.live_counters();
        self.core.retired_counters.merge(&live);
        self.rebuild(&cp.world, survivors)
            .map_err(SimError::Config)?;
        let core = &mut self.core;
        core.vascular = cp.pool;
        core.history = cp.history;
        core.step = cp.step;
        if let Some(mon) = core.integrity.as_mut() {
            mon.reseal(&cp.world, &core.vascular);
        }
        Ok(())
    }

    /// Epilogue of every completed step: report the BSP layer's in-barrier
    /// heal records to the core, reseal the post-step state, then apply any
    /// scheduled state corruption *after* the seal — so the flip lands on
    /// sealed state and the next prologue scrub is guaranteed to catch it.
    fn epilogue_integrity(&mut self, t: u64) -> Result<(), SimError> {
        let heals = self.bsp.take_integrity_records();
        if !heals.is_empty() {
            self.dispatch(Event::BarrierHeals {
                step: t,
                records: heals,
            })?;
        }
        if self.core.integrity.is_some() {
            let open = self.core.telemetry.open();
            let world = self.assemble_world();
            let core = &mut self.core;
            if let Some(mon) = core.integrity.as_mut() {
                mon.reseal(&world, &core.vascular);
            }
            let tel = &core.telemetry;
            let step_span = tel.step_parent();
            tel.close(
                0,
                "integrity:reseal",
                SpanKind::Superstep,
                step_span,
                open,
                t,
                0,
            );
        }
        for p in self.bsp.take_pending_state_corruptions() {
            let n = self.units.len();
            self.units[p.rank % n].corrupt_bit(p.seed);
            self.dispatch(Event::CorruptionApplied {
                step: t,
                superstep: p.superstep,
            })?;
        }
        Ok(())
    }
}

fn build_units<U: Unit>(
    partition: &Partition,
    world: &World,
    kernel: KernelMode,
    knobs: &U::Knobs,
) -> Vec<U> {
    (0..partition.n_ranks())
        .map(|id| U::build(id, partition, world, kernel, knobs))
        .collect()
}

/// Map a terminal [`StopCause`] onto the public error surface.
fn cause_to_error(cause: StopCause) -> SimError {
    match cause {
        StopCause::Unrecoverable(e) => SimError::Unrecoverable(e),
        StopCause::RetriesExhausted { last, attempts } => {
            SimError::RetriesExhausted { last, attempts }
        }
        StopCause::Integrity { step, violation } => SimError::Integrity { step, violation },
    }
}

impl<U: Unit> Simulation for BspSim<U> {
    fn name(&self) -> &'static str {
        U::NAME
    }

    fn params(&self) -> &SimParams {
        &self.core.params
    }

    fn step(&self) -> u64 {
        self.core.step
    }

    fn advance_step(&mut self) -> Result<(), SimError> {
        let target = self.core.step + 1;
        let tel = self.core.telemetry.clone();
        self.dispatch(Event::AdvanceRequested)?;
        // After a rollback `core.step` drops below `target`; the loop
        // replays the intermediate steps until the trajectory is one step
        // further than when we were called.
        while self.core.step < target {
            // Prologue: verify the canonical state *before* compute consumes
            // it and before a checkpoint could capture it. On a violation
            // the core rolls the run back to the newest verified generation.
            if self.core.integrity.is_some() {
                let verdict = self.scrub_verdict();
                self.dispatch(Event::Scrubbed { verdict })?;
            }
            if self.core.state.checkpoint_due() {
                let world = self.assemble_world();
                let core = &mut self.core;
                let step = core.step;
                let rm = core
                    .recovery
                    .as_mut()
                    .expect("checkpoint_due implies a recovery manager");
                rm.store.save(step, &world, &core.vascular, &core.history);
                self.dispatch(Event::CheckpointSaved { step })?;
            }
            let t = self.core.step;
            // Root of this step's span tree: supersteps parent to it via the
            // published step-parent slot.
            let step_open = tel.open();
            if tel.is_enabled() {
                tel.set_step_parent(step_open.id);
            }
            let start = self.core.metrics.as_ref().map(|_| Instant::now());
            match self.compute_step(t) {
                Ok(partial) => {
                    self.dispatch(Event::StepComputed { step: t })?;
                    self.finish_step(t, partial, start);
                    self.epilogue_integrity(t)?;
                    if tel.is_enabled() {
                        self.observe_health(t, &tel);
                        tel.close(0, "step", SpanKind::Step, 0, step_open, t, 0);
                        if let Some(h) = self.core.step_hist.as_ref() {
                            h.observe(tel.now_ns().saturating_sub(step_open.start_ns));
                        }
                    }
                }
                Err(failure) => {
                    let attempt = self.core.state.attempt + 1;
                    if tel.is_enabled() {
                        tel.instant(0, "recovery", step_open.id, t, attempt as u64);
                        tel.close(0, "step", SpanKind::Step, 0, step_open, t, attempt as u64);
                    }
                    self.dispatch(Event::ComputeFailed { error: failure })?;
                }
            }
        }
        Ok(())
    }

    fn history(&self) -> &TimeSeries {
        &self.core.history
    }

    fn gather_world(&self) -> World {
        self.assemble_world()
    }

    fn n_units(&self) -> usize {
        self.units.len()
    }

    fn active_units(&self) -> u64 {
        self.units.iter().map(|u| u.n_active() as u64).sum()
    }

    fn set_metrics_sink(&mut self, sink: Box<dyn MetricsSink<StepRecord>>) {
        self.core.metrics = Some(sink);
    }

    fn enable_telemetry(&mut self, tel: Telemetry) {
        self.core.step_hist = tel.registry().map(|r| {
            r.histogram(
                "simcov_step_wall_ns",
                "Wall-clock nanoseconds per whole driver step",
            )
        });
        self.core.telemetry = tel;
        self.attach_telemetry();
    }

    fn telemetry_handle(&self) -> Telemetry {
        self.core.telemetry.clone()
    }

    fn enable_health(&mut self, cfg: HealthConfig) {
        self.core.health = Some(HealthMonitor::with_config(cfg));
        self.core.health_prev_comm = CommCounters::default();
    }

    fn health_records(&self) -> &[HealthRecord] {
        self.core
            .health
            .as_ref()
            .map(|m| m.records())
            .unwrap_or(&[])
    }

    fn comm_counters(&self) -> CommCounters {
        self.bsp.counters
    }

    fn transport_counters(&self) -> Option<pgas::TransportCounters> {
        self.bsp
            .has_transport()
            .then(|| self.bsp.transport_counters().clone())
    }

    fn total_counters(&self) -> DeviceCounters {
        let mut total = self.core.retired_counters;
        total.merge(&self.live_counters());
        total
    }

    fn checkpoint(&self) -> RunCheckpoint {
        RunCheckpoint {
            step: self.core.step,
            world: self.assemble_world(),
            pool: self.core.vascular.clone(),
            history: self.core.history.clone(),
        }
    }

    fn restore(&mut self, cp: &RunCheckpoint) -> Result<(), SimError> {
        if cp.world.dims != self.core.params.dims {
            return Err(SimError::Restore(format!(
                "checkpoint dims {:?} do not match configured {:?}",
                cp.world.dims, self.core.params.dims
            )));
        }
        let n = self.units.len();
        self.rebuild(&cp.world, n).map_err(SimError::Config)?;
        let core = &mut self.core;
        core.vascular = cp.pool.clone();
        core.history = cp.history.clone();
        core.step = cp.step;
        // The restored state starts a new timeline: recovery must never
        // roll back across it to a checkpoint from the old one.
        if let Some(rm) = core.recovery.as_mut() {
            rm.store = CheckpointStore::new();
        }
        // Likewise the seal: the old one described the replaced state.
        if let Some(mon) = core.integrity.as_mut() {
            mon.reseal(&cp.world, &cp.pool);
        }
        self.dispatch(Event::ExternalRestore { step: cp.step })
    }

    fn recovery_log(&self) -> &[RecoveryRecord] {
        self.core
            .recovery
            .as_ref()
            .map(|rm| rm.log.as_slice())
            .unwrap_or(&[])
    }

    fn integrity_log(&self) -> &[IntegrityRecord] {
        &self.core.integrity_log
    }

    fn checkpoint_stats(&self) -> CheckpointStats {
        self.core
            .recovery
            .as_ref()
            .map(|rm| CheckpointStats {
                saves: rm.store.saves,
                full_bytes: rm.store.full_bytes,
                delta_bytes: rm.store.delta_bytes,
                quarantined: rm.store.quarantined,
            })
            .unwrap_or_default()
    }

    fn integrity_stats(&self) -> IntegrityStats {
        self.core
            .integrity
            .as_ref()
            .map(|mon| IntegrityStats {
                scrubs_run: mon.scrubs_run,
                audits_run: mon.audits_run,
                violations: mon.violations,
            })
            .unwrap_or_default()
    }

    fn share_pool(&mut self, pool: Arc<WorkPool>) {
        self.core.share_pool(pool);
    }

    fn enable_event_recording(&mut self) {
        self.core.enable_event_recording();
    }

    fn event_log(&self) -> &[Event] {
        self.core.event_log.as_deref().unwrap_or(&[])
    }

    fn control_state(&self) -> Option<&DriverState> {
        Some(&self.core.state)
    }

    fn replay_initial_state(&self) -> Option<&DriverState> {
        Some(&self.core.initial_state)
    }
}
