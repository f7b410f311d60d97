//! `simcov-driver`: the unified driver layer over the SIMCoV executors.
//!
//! This crate owns everything the serial, CPU and GPU executors used to
//! duplicate or lack:
//!
//! - [`Simulation`] — the object-safe driver API (`Box<dyn Simulation>`)
//!   the CLI, benches and tests program against;
//! - [`RunConfig`] — the one description of a run: every shared knob
//!   declared once, plus the executor's own `exec` tail;
//! - [`Unit`] — what genuinely differs per executor (how one rank or device
//!   updates its subdomain), and [`BspSim`] — the one executor shell over
//!   it: construction, re-partitioning, the step loop, checkpointing,
//!   recovery and metrics emission, implemented once;
//! - [`DriverCore`] — the shared per-run state the shell owns;
//! - [`RecoveryPolicy`] / [`RecoveryManager`] — checkpoint-based rollback
//!   and elastic re-partitioning around injected or detected faults;
//! - [`ConfigError`] / [`SimError`] — typed errors replacing the panicking
//!   construction paths;
//! - [`state`] — the pure control-plane core: every recovery, retry,
//!   quarantine and checkpoint-scheduling decision as a total function
//!   `(DriverState, Event) -> (DriverState, Vec<Effect>)`, deterministically
//!   replayable from a recorded event log with zero I/O;
//! - [`durable`] — CRC-guarded on-disk checkpoint persistence for crash
//!   restart (`--resume` in the CLI).

pub mod bsp_sim;
pub mod config;
pub mod core;
pub mod durable;
pub mod error;
pub mod simulation;
pub mod state;

pub use crate::core::{DriverCore, RecoveryManager, RecoveryPolicy};
pub use bsp_sim::{BspSim, Unit};
pub use config::RunConfig;
pub use durable::{load_checkpoint, persist_checkpoint, sweep_stale_stages};
pub use error::{ConfigError, SimError};
pub use simulation::{CheckpointStats, IntegrityStats, SerialDriver, Simulation};
pub use state::{replay, DriverState, Effect, Event, Replay, StopCause};
