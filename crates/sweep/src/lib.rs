//! `simcov-sweep` — scenario-sweep job server over the unified simulation
//! driver.
//!
//! The crate turns the single-run [`Simulation`](simcov_driver::Simulation)
//! driver into a batch service:
//!
//! - [`RunSpec`] is the one validated, JSON-round-trippable description of a
//!   run — executor choice, model parameters, decomposition, fault plan and
//!   recovery policy — replacing per-executor builder chains at submission
//!   boundaries.
//! - [`JobSpec`] wraps a [`RunSpec`] with a name and durability knobs and is
//!   what a sweep submits.
//! - [`SweepServer`] schedules jobs across a work-stealing worker pool,
//!   streams each job's step/recovery/integrity records as JSON lines,
//!   persists durable checkpoints, resumes interrupted jobs bit-identically,
//!   and parks terminally failed jobs in a dead-letter queue with their
//!   recorded control-plane event log ([`DeadLetter::replay`] re-derives the
//!   failure offline).
//!
//! See the [`server`] module docs for the artifact layout, resume protocol
//! and DLQ semantics.

pub mod job;
pub mod server;
pub mod spec;

pub use job::{DeadLetter, JobReport, JobSpec, JobStatus};
pub use server::{job_paths, SweepConfig, SweepServer};
pub use spec::{ExecutorKind, FaultSpec, ParamPreset, RunSpec};
