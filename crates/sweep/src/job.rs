//! Job types of the sweep server: the submitted [`JobSpec`], the completed
//! [`JobReport`], and the [`DeadLetter`] a terminally failed job leaves
//! behind.

use gpusim::metrics::StepRecord;
use pgas::fault::{IntegrityRecord, RecoveryRecord};
use pgas::CommCounters;
use simcov_core::json::Json;
use simcov_core::stats::TimeSeries;
use simcov_core::world::World;
use simcov_driver::{
    replay, CheckpointStats, DriverState, Event, IntegrityStats, Replay, SimError,
};

use crate::spec::{int_field, RunSpec};

/// One unit of work submitted to the sweep server.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Unique name within the sweep; keys the job's artifacts
    /// (`<name>.jsonl`, `<name>.csv`, checkpoint, DLQ entry).
    pub name: String,
    /// The run to execute.
    pub run: RunSpec,
    /// Steps between durable checkpoints (0: no durable persistence, the
    /// job cannot resume after a server crash).
    pub persist_every: u64,
    /// Capture the final assembled world in the report (sweeps comparing
    /// per-voxel state set this; large grids should leave it off).
    pub capture_world: bool,
    /// Simulated mid-run crash: stop before computing this step and report
    /// [`JobStatus::Interrupted`], leaving only the durable checkpoints
    /// behind — exactly what a killed server leaves. Ignored when the job
    /// starts from a resume (the second run must finish).
    pub halt_after: Option<u64>,
}

impl JobSpec {
    pub fn new(name: impl Into<String>, run: RunSpec) -> Self {
        JobSpec {
            name: name.into(),
            run,
            persist_every: 0,
            capture_world: false,
            halt_after: None,
        }
    }

    pub fn with_persist_every(mut self, steps: u64) -> Self {
        self.persist_every = steps;
        self
    }

    pub fn with_halt_after(mut self, step: u64) -> Self {
        self.halt_after = Some(step);
        self
    }

    /// Serialize to the submission schema (the `jobs` array of a sweep
    /// file). Round-trips through [`JobSpec::from_json`].
    pub fn to_json(&self) -> Json {
        let mut doc = Json::Obj(Vec::new());
        doc.push("name", self.name.as_str());
        doc.push("run", self.run.to_json());
        if self.persist_every > 0 {
            doc.push("persist_every", self.persist_every);
        }
        if self.capture_world {
            doc.push("capture_world", true);
        }
        if let Some(h) = self.halt_after {
            doc.push("halt_after", h);
        }
        doc
    }

    /// Parse one job of a sweep file; errors are typed via
    /// [`RunSpec::from_json`].
    pub fn from_json(doc: &Json) -> Result<Self, simcov_driver::ConfigError> {
        let name = doc
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| {
                simcov_driver::ConfigError::InvalidParams(
                    "JobSpec: missing required string field \"name\"".into(),
                )
            })?
            .to_string();
        let run = match doc.get("run") {
            Some(r) => RunSpec::from_json(r)?,
            None => RunSpec::from_json(doc)?,
        };
        let mut spec = JobSpec::new(name, run);
        spec.persist_every = int_field(doc, "", "persist_every")?.unwrap_or(0);
        if doc
            .get("capture_world")
            .is_some_and(|v| matches!(v, Json::Bool(true)))
        {
            spec.capture_world = true;
        }
        spec.halt_after = int_field(doc, "", "halt_after")?;
        Ok(spec)
    }
}

/// Everything a finished job reports back, read without downcasting.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Per-step model statistics (the full trajectory, including steps
    /// computed before a resume — restored from the durable checkpoint).
    pub history: TimeSeries,
    /// Final assembled world (only with [`JobSpec::capture_world`]).
    pub world: Option<World>,
    /// Every fault recovery performed, in order.
    pub recoveries: Vec<RecoveryRecord>,
    /// Every integrity event detected, in order.
    pub integrity: Vec<IntegrityRecord>,
    /// Per-step records streamed by the driver.
    pub steps: Vec<StepRecord>,
    /// Cumulative communication counters.
    pub comm: CommCounters,
    /// Execution units still alive at the end (shrinks on rank death).
    pub survivors: usize,
    /// In-memory checkpoint store counters.
    pub checkpoints: CheckpointStats,
    /// SDC defense counters.
    pub integrity_stats: IntegrityStats,
    /// Step the job resumed from (None: ran start-to-finish).
    pub resumed_from: Option<u64>,
    /// Wall-clock seconds this server spent on the job (excludes any
    /// pre-crash run).
    pub wall_seconds: f64,
}

/// A job that terminally failed — the recovery ladder was exhausted, an
/// integrity violation could not be healed, or the failure hit before any
/// checkpoint existed. Carries the recorded control-plane event log so the
/// failure can be re-derived offline, without the executor or filesystem.
#[derive(Debug, Clone)]
pub struct DeadLetter {
    /// The submitted job.
    pub spec: JobSpec,
    /// Human-readable rendering of the terminal [`SimError`].
    pub error: String,
    /// Control state recording started from (the replay starting point).
    pub initial_state: DriverState,
    /// Every control-plane event up to and including the fatal decision.
    pub events: Vec<Event>,
}

impl DeadLetter {
    pub fn new(
        spec: JobSpec,
        error: &SimError,
        initial_state: DriverState,
        events: Vec<Event>,
    ) -> Self {
        DeadLetter {
            spec,
            error: error.to_string(),
            initial_state,
            events,
        }
    }

    /// Re-derive the failure from the recorded log through the pure core —
    /// no executor, no filesystem. `Replay::halt` holds the terminal stop
    /// cause; the trajectory shows every control decision leading to it.
    pub fn replay(&self) -> Replay {
        replay(self.initial_state.clone(), &self.events)
    }

    /// The DLQ file entry: enough to identify, triage, and re-submit the
    /// job. The typed event log stays in memory (it is not meaningfully
    /// JSON-stable); the entry records its size and the replayed verdict.
    pub fn to_json(&self) -> Json {
        let rep = self.replay();
        let mut doc = Json::Obj(Vec::new());
        doc.push("record", "dead_letter");
        doc.push("job", self.spec.name.as_str());
        doc.push("error", self.error.as_str());
        doc.push("events", self.events.len() as u64);
        doc.push(
            "replay_halt",
            rep.halt.map(|c| format!("{c:?}")).unwrap_or_default(),
        );
        doc.push("spec", self.spec.to_json());
        doc
    }
}

/// Terminal status of one submitted job.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// Ran to the configured step count.
    Completed(Box<JobReport>),
    /// Stopped at a simulated crash point ([`JobSpec::halt_after`]); durable
    /// checkpoints (if configured) are on disk for a later resume.
    Interrupted {
        /// The step the job stopped before computing.
        at_step: u64,
    },
    /// A completed artifact from a previous run was found on disk and the
    /// job was not re-run (the resume path for jobs that finished before a
    /// server crash).
    Skipped,
    /// Terminally failed; the full context is in the dead-letter queue.
    Dead(Box<DeadLetter>),
}

impl JobStatus {
    pub fn is_completed(&self) -> bool {
        matches!(self, JobStatus::Completed(_))
    }

    pub fn is_dead(&self) -> bool {
        matches!(self, JobStatus::Dead(_))
    }

    /// The report of a completed job.
    pub fn report(&self) -> Option<&JobReport> {
        match self {
            JobStatus::Completed(r) => Some(r),
            _ => None,
        }
    }
}
