//! Deterministic replay of a recorded control-plane event log.
//!
//! Folding the log through [`DriverState::apply`] reproduces the live
//! run's state trajectory, effect sequence, and recovery/integrity record
//! streams exactly — with zero filesystem, checkpoint-store, or executor
//! access. The live-run replay tests and the cascade property suite in
//! `tests/driver_state.rs` are built on this.

use super::{DriverState, Effect, Event, StopCause};

/// The result of folding an event log through the pure core.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// State after each event, in order (`trajectory.len() == events.len()`).
    pub trajectory: Vec<DriverState>,
    /// The state after the final event (initial state for an empty log).
    pub final_state: DriverState,
    /// Every effect the core requested, in execution order.
    pub effects: Vec<Effect>,
    /// The halt cause, if the core stopped the run.
    pub halt: Option<StopCause>,
}

/// Fold `events` through the pure transition function from `initial`.
pub fn replay(initial: DriverState, events: &[Event]) -> Replay {
    let mut state = initial;
    let mut trajectory = Vec::with_capacity(events.len());
    let mut all_effects = Vec::new();
    for ev in events {
        let (next, effects) = state.apply(ev.clone());
        all_effects.extend(effects);
        trajectory.push(next.clone());
        state = next;
    }
    let halt = state.halted.clone();
    Replay {
        trajectory,
        final_state: state,
        effects: all_effects,
        halt,
    }
}
