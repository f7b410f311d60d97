//! The unified [`Simulation`] driver API — the object-safe surface embedders
//! program against (`Box<dyn Simulation>` in the CLI and benches) — and the
//! [`SerialDriver`] reference executor behind it. The CPU and GPU executors
//! implement it through [`BspSim`](crate::BspSim).

use std::time::Instant;

use gpusim::metrics::StepRecord;
use gpusim::DeviceCounters;
use pgas::fault::{IntegrityRecord, RecoveryRecord};
use pgas::CommCounters;
use simcov_core::checkpoint::RunCheckpoint;
use simcov_core::foi::FoiPattern;
use simcov_core::params::SimParams;
use simcov_core::serial::SerialSim;
use simcov_core::stats::{StepStats, TimeSeries};
use simcov_core::world::World;
use simcov_telemetry::{HealthConfig, HealthRecord, MetricsSink, SpanKind, Telemetry};

use crate::error::{ConfigError, SimError};
use crate::state::{DriverState, Event};

/// Aggregate counters of the in-memory incremental checkpoint store, for
/// structured reporting through `dyn Simulation` (the sweep server and the
/// fault/SDC sweeps read these without downcasting to an executor).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Checkpoints taken this run.
    pub saves: u64,
    /// Bytes a dense (full-world) encoding of every save would have cost.
    pub full_bytes: u64,
    /// Bytes the incremental (delta) encoding actually cost.
    pub delta_bytes: u64,
    /// Generations quarantined by verified-rollback queries.
    pub quarantined: u64,
}

/// Aggregate counters of the SDC defense, for structured reporting through
/// `dyn Simulation`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityStats {
    /// Prologue seal scrubs performed.
    pub scrubs_run: u64,
    /// Invariant audits performed.
    pub audits_run: u64,
    /// Violations those scrubs and audits reported.
    pub violations: u64,
}

/// The unified driver API: one object-safe surface over the serial, CPU and
/// GPU executors. Obtain one from `CpuSim`, `GpuSim` (both
/// [`BspSim`](crate::BspSim)) or [`SerialDriver`];
/// everything downstream (CLI, benches, tests) programs against
/// `&mut dyn Simulation`.
pub trait Simulation {
    /// Stable executor name (`"serial"`, `"cpu"`, `"gpu"`).
    fn name(&self) -> &'static str;

    fn params(&self) -> &SimParams;

    /// Next step to compute (= steps completed so far).
    fn step(&self) -> u64;

    /// Advance one timestep. With recovery engaged, detected failures roll
    /// back to the last checkpoint, re-partition across survivors and
    /// replay — so one call may compute several steps, and `Ok` means the
    /// trajectory has advanced by exactly one step beyond where it was.
    fn advance_step(&mut self) -> Result<(), SimError>;

    /// Run all configured steps.
    fn run(&mut self) -> Result<(), SimError> {
        while self.step() < self.params().steps {
            self.advance_step()?;
        }
        Ok(())
    }

    fn history(&self) -> &TimeSeries;

    fn last_stats(&self) -> Option<StepStats> {
        self.history().steps.last().copied()
    }

    /// Assemble the full world (gathered from subdomains where distributed).
    fn gather_world(&self) -> World;

    /// Number of execution units (1 for serial, ranks for CPU, devices for
    /// GPU). May shrink after a recovery from rank death.
    fn n_units(&self) -> usize;

    /// Active work units right now (executor-specific granularity).
    fn active_units(&self) -> u64;

    /// Install a per-step metrics consumer; records flow from the next step.
    fn set_metrics_sink(&mut self, sink: Box<dyn MetricsSink<StepRecord>>);

    /// Attach a telemetry handle: driver steps, BSP supersteps, rank phases
    /// and (on the GPU executor) kernel phases record spans on it from the
    /// next step. Telemetry is pure observation — an attached handle never
    /// changes the trajectory.
    fn enable_telemetry(&mut self, tel: Telemetry);

    /// The attached telemetry handle (disabled handle when none was attached).
    fn telemetry_handle(&self) -> Telemetry;

    /// Engage online health monitoring (stragglers, load imbalance, comm
    /// spikes). Straggler detection needs per-rank walls, so attach
    /// telemetry first; no-op on the serial executor.
    fn enable_health(&mut self, cfg: HealthConfig);

    /// Every health finding so far, in detection order.
    fn health_records(&self) -> &[HealthRecord];

    /// Cumulative communication counters (zeros for serial).
    fn comm_counters(&self) -> CommCounters;

    /// Wire-side counters of the socket transport (`None` on the in-process
    /// mailbox path and on the serial executor).
    fn transport_counters(&self) -> Option<pgas::TransportCounters> {
        None
    }

    /// Cumulative work counters, including generations retired by recovery.
    fn total_counters(&self) -> DeviceCounters;

    /// Snapshot the full model state for later [`Simulation::restore`].
    fn checkpoint(&self) -> RunCheckpoint;

    /// Restore a [`Simulation::checkpoint`] — the world, vascular pool,
    /// history and step counter are replaced wholesale.
    fn restore(&mut self, cp: &RunCheckpoint) -> Result<(), SimError>;

    /// Every fault recovery performed so far, in order.
    fn recovery_log(&self) -> &[RecoveryRecord];

    /// Every integrity event detected so far, in order (empty on executors
    /// without an SDC defense).
    fn integrity_log(&self) -> &[IntegrityRecord] {
        &[]
    }

    /// Counters of the in-memory checkpoint store (zeros when recovery is
    /// not engaged).
    fn checkpoint_stats(&self) -> CheckpointStats {
        CheckpointStats::default()
    }

    /// Counters of the SDC defense (zeros when it is not engaged).
    fn integrity_stats(&self) -> IntegrityStats {
        IntegrityStats::default()
    }

    /// Point this simulation's intra-step parallelism at a shared pool (a
    /// batch scheduler running many simulations at once shares one). No-op
    /// on the serial executor. Never changes results — only which threads
    /// run the work.
    fn share_pool(&mut self, _pool: std::sync::Arc<pgas::WorkPool>) {}

    /// Start recording control-plane events for deterministic replay. The
    /// current control state becomes the replay starting point. No-op on
    /// executors without a control plane.
    fn enable_event_recording(&mut self) {}

    /// The recorded control-plane event log (empty when recording is off).
    fn event_log(&self) -> &[Event] {
        &[]
    }

    /// The live pure control-plane state (`None` where no state machine
    /// drives the executor).
    fn control_state(&self) -> Option<&DriverState> {
        None
    }

    /// The control-state snapshot event recording started from.
    fn replay_initial_state(&self) -> Option<&DriverState> {
        None
    }
}

/// The serial reference executor behind the unified driver API.
///
/// [`SerialSim`] has no runtime (no ranks, no mailboxes, no fault surface),
/// so it implements [`Simulation`] directly rather than as a
/// [`BspSim`](crate::BspSim): communication counters are empty, recovery
/// is unavailable, and checkpoint/restore operate on the whole world.
pub struct SerialDriver {
    sim: SerialSim,
    metrics: Option<Box<dyn MetricsSink<StepRecord>>>,
    /// Attached telemetry: serial steps record flat `step` spans (no
    /// supersteps or ranks exist to nest under them).
    telemetry: Telemetry,
    /// Pure control state: the serial executor has no fault surface, so
    /// this only tracks the step counter — but it keeps the replay
    /// machinery uniform across all three executors.
    state: DriverState,
    /// Snapshot the event log replays from (see `enable_event_recording`).
    initial_state: DriverState,
    event_log: Option<Vec<Event>>,
}

impl SerialDriver {
    pub fn new(params: SimParams) -> Result<Self, ConfigError> {
        Self::with_pattern(params, FoiPattern::UniformLattice)
    }

    pub fn with_pattern(params: SimParams, pattern: FoiPattern) -> Result<Self, ConfigError> {
        params.validate().map_err(ConfigError::InvalidParams)?;
        Ok(SerialDriver {
            sim: SerialSim::with_pattern(params, pattern),
            metrics: None,
            telemetry: Telemetry::disabled(),
            state: DriverState::initial(1, None, false),
            initial_state: DriverState::initial(1, None, false),
            event_log: None,
        })
    }

    pub fn from_world(params: SimParams, world: World) -> Result<Self, ConfigError> {
        params.validate().map_err(ConfigError::InvalidParams)?;
        if world.dims != params.dims {
            return Err(ConfigError::DimsMismatch {
                expected: params.dims,
                got: world.dims,
            });
        }
        Ok(SerialDriver {
            sim: SerialSim::from_world(params, world),
            metrics: None,
            telemetry: Telemetry::disabled(),
            state: DriverState::initial(1, None, false),
            initial_state: DriverState::initial(1, None, false),
            event_log: None,
        })
    }

    pub fn inner(&self) -> &SerialSim {
        &self.sim
    }

    pub fn inner_mut(&mut self) -> &mut SerialSim {
        &mut self.sim
    }

    /// Apply one control event to the serial executor's pure state. The
    /// serial core never requests effects (no recovery, no integrity),
    /// which the debug assertion pins down.
    fn record(&mut self, ev: Event) {
        if let Some(log) = self.event_log.as_mut() {
            log.push(ev.clone());
        }
        let state = std::mem::take(&mut self.state);
        let (next, effects) = state.apply(ev);
        debug_assert!(effects.is_empty(), "serial control plane is effect-free");
        self.state = next;
    }
}

impl Simulation for SerialDriver {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn params(&self) -> &SimParams {
        &self.sim.params
    }

    fn step(&self) -> u64 {
        self.sim.step
    }

    fn advance_step(&mut self) -> Result<(), SimError> {
        let start = self.metrics.as_ref().map(|_| Instant::now());
        let t = self.sim.step;
        self.record(Event::AdvanceRequested);
        let step_open = self.telemetry.open();
        self.sim.advance_step();
        self.record(Event::StepComputed { step: t });
        self.telemetry
            .close(0, "step", SpanKind::Step, 0, step_open, t, 0);
        if let Some(sink) = self.metrics.as_mut() {
            let s = self.sim.last_stats().copied().unwrap_or_default();
            sink.record(StepRecord {
                step: t,
                agents: s.tcells_tissue,
                virions: s.virions,
                chemokine: s.chemokine,
                active_units: self.sim.world.nvoxels() as u64,
                real_seconds: start.map(|i| i.elapsed().as_secs_f64()).unwrap_or(0.0),
                ..Default::default()
            });
        }
        Ok(())
    }

    fn history(&self) -> &TimeSeries {
        &self.sim.history
    }

    fn gather_world(&self) -> World {
        self.sim.world.clone()
    }

    fn n_units(&self) -> usize {
        1
    }

    /// The serial executor sweeps every voxel every step.
    fn active_units(&self) -> u64 {
        self.sim.world.nvoxels() as u64
    }

    fn set_metrics_sink(&mut self, sink: Box<dyn MetricsSink<StepRecord>>) {
        self.metrics = Some(sink);
    }

    fn enable_telemetry(&mut self, tel: Telemetry) {
        self.telemetry = tel;
    }

    fn telemetry_handle(&self) -> Telemetry {
        self.telemetry.clone()
    }

    /// No ranks, no supersteps: there is nothing for the monitor to watch.
    fn enable_health(&mut self, _cfg: HealthConfig) {}

    fn health_records(&self) -> &[HealthRecord] {
        &[]
    }

    fn comm_counters(&self) -> CommCounters {
        CommCounters::new()
    }

    fn total_counters(&self) -> DeviceCounters {
        DeviceCounters::new()
    }

    fn checkpoint(&self) -> RunCheckpoint {
        RunCheckpoint {
            step: self.sim.step,
            world: self.sim.world.clone(),
            pool: self.sim.pool.clone(),
            history: self.sim.history.clone(),
        }
    }

    fn restore(&mut self, cp: &RunCheckpoint) -> Result<(), SimError> {
        if cp.world.dims != self.sim.params.dims {
            return Err(SimError::Restore(format!(
                "checkpoint dims {:?} do not match configured {:?}",
                cp.world.dims, self.sim.params.dims
            )));
        }
        self.sim.world = cp.world.clone();
        self.sim.pool = cp.pool.clone();
        self.sim.history = cp.history.clone();
        self.sim.step = cp.step;
        self.record(Event::ExternalRestore { step: cp.step });
        Ok(())
    }

    fn recovery_log(&self) -> &[RecoveryRecord] {
        &[]
    }

    fn enable_event_recording(&mut self) {
        self.initial_state = self.state.clone();
        self.event_log = Some(Vec::new());
    }

    fn event_log(&self) -> &[Event] {
        self.event_log.as_deref().unwrap_or(&[])
    }

    fn control_state(&self) -> Option<&DriverState> {
        Some(&self.state)
    }

    fn replay_initial_state(&self) -> Option<&DriverState> {
        Some(&self.initial_state)
    }
}
