//! The shared driver core: state and bookkeeping common to every executor.
//!
//! Everything a [`BspSim`](crate::BspSim) owns that is not the unit
//! collection or the typed BSP mailboxes: parameters, partition, vascular
//! pool, history, metrics plumbing, comm-delta bookkeeping, recovery state.

use gpusim::metrics::{SnapshotTaker, StepRecord};
use gpusim::DeviceCounters;
use pgas::fault::{FaultPlan, IntegrityRecord, RecoveryRecord};
use pgas::{CommCounters, WorkPool};
use simcov_core::checkpoint::CheckpointStore;
use simcov_core::checkpoint::RunCheckpoint;
use simcov_core::decomp::{Partition, Strategy};
use simcov_core::integrity::{IntegrityMonitor, DEFAULT_AUDIT_PERIOD};
use simcov_core::params::SimParams;
use simcov_core::stats::TimeSeries;
use simcov_core::tcell::VascularPool;
use simcov_core::world::World;
use simcov_telemetry::{HealthMonitor, Histogram, MetricsSink, Telemetry};
use std::sync::Arc;

use crate::error::ConfigError;
use crate::state::{DriverState, Event};

/// How the driver checkpoints and retries around injected/detected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Steps between in-memory incremental checkpoints. A checkpoint is
    /// always taken before the first step; shorter periods bound replay
    /// cost at the price of more frequent snapshots.
    pub checkpoint_period: u64,
    /// Consecutive failed attempts at one step before giving up.
    pub max_retries: u32,
    /// Simulated exponential backoff base before retry `k`
    /// (`base << (k-1)` ns) — metered, never slept.
    pub backoff_base_ns: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            checkpoint_period: 16,
            max_retries: 8,
            backoff_base_ns: 1_000_000,
        }
    }
}

impl RecoveryPolicy {
    /// Simulated backoff before retry `attempt` (1-based): `base << (attempt-1)`,
    /// saturating at `u64::MAX` instead of overflowing once the shift would
    /// push bits off the top — a hostile or runaway retry count must not
    /// wrap the meter back to small values.
    ///
    /// Saturation is decided by round-tripping the shift (`checked_shl`
    /// then shift back) rather than comparing against `leading_zeros`, so
    /// the result is provably exact for every base, including multi-bit
    /// bases sitting right at the boundary.
    pub fn backoff_ns(&self, attempt: u32) -> u64 {
        if self.backoff_base_ns == 0 {
            return 0;
        }
        let shift = attempt.saturating_sub(1);
        match self.backoff_base_ns.checked_shl(shift) {
            Some(v) if v >> shift == self.backoff_base_ns => v,
            _ => u64::MAX,
        }
    }
}

/// Recovery state for one run: the policy, the incremental checkpoint
/// store, and the log of every recovery performed.
#[derive(Debug, Clone, Default)]
pub struct RecoveryManager {
    pub policy: RecoveryPolicy,
    pub store: CheckpointStore,
    pub log: Vec<RecoveryRecord>,
}

impl RecoveryManager {
    pub fn new(policy: RecoveryPolicy) -> Self {
        RecoveryManager {
            policy,
            store: CheckpointStore::new(),
            log: Vec::new(),
        }
    }
}

/// State shared by every executor: everything a driver owns that is not the
/// rank/device collection or the typed BSP mailboxes.
pub struct DriverCore {
    pub params: SimParams,
    pub strategy: Strategy,
    pub partition: Partition,
    /// Thread pool for intra-step parallelism. Shared (`Arc`) so a batch
    /// scheduler can point many concurrent simulations at one pool instead
    /// of oversubscribing the host with a per-job pool each.
    pub pool: Arc<WorkPool>,
    pub vascular: VascularPool,
    pub step: u64,
    pub history: TimeSeries,
    /// Installed per-step metrics consumer (None: metrics are off and the
    /// step loop takes no clock readings).
    pub metrics: Option<Box<dyn MetricsSink<StepRecord>>>,
    pub snapshots: SnapshotTaker,
    pub prev_comm: CommCounters,
    /// Cross-layer telemetry handle (disabled by default: every span site
    /// reduces to one branch and no clock reads).
    pub telemetry: Telemetry,
    /// Wall-clock histogram of whole driver steps, registered on the
    /// telemetry registry when telemetry is attached.
    pub step_hist: Option<Histogram>,
    /// Online health monitor (None: no straggler / imbalance / comm-spike
    /// detection). Requires telemetry for per-rank superstep walls.
    pub health: Option<HealthMonitor>,
    /// Comm counters at the last health observation, for per-step deltas
    /// (independent of the metrics sink's own `prev_comm` bookkeeping).
    pub health_prev_comm: CommCounters,
    /// Work counters of unit generations destroyed by recovery rebuilds;
    /// totals are `retired + live` so recovered work is never lost.
    pub retired_counters: DeviceCounters,
    /// Engaged recovery machinery (None: failures are fatal).
    pub recovery: Option<RecoveryManager>,
    /// Recoveries completed since the last emitted step record.
    pub pending_recoveries: Vec<RecoveryRecord>,
    /// Engaged SDC defense (None: no scrubbing or auditing).
    pub integrity: Option<IntegrityMonitor>,
    /// Integrity events detected since the last emitted step record.
    pub pending_integrity: Vec<IntegrityRecord>,
    /// Every integrity event of the run, in detection order (the SDC sweep
    /// reads this even when no metrics sink is installed).
    pub integrity_log: Vec<IntegrityRecord>,
    /// The pure control-plane state; every recovery/checkpoint/quarantine
    /// decision is made by `state.apply(event)` — the shell only executes
    /// the returned effects.
    pub state: DriverState,
    /// Snapshot of `state` taken when event recording was enabled — the
    /// starting point a recorded log replays from.
    pub initial_state: DriverState,
    /// Recorded control-plane events (`None`: recording off).
    pub event_log: Option<Vec<Event>>,
    /// Rollback checkpoint staged by a `FetchRollbackTarget` effect,
    /// consumed by the following `Rollback` effect.
    pub staged_rollback: Option<RunCheckpoint>,
}

impl DriverCore {
    /// Validate shared configuration and build the core. `fault_plan`
    /// non-empty or an explicit `policy` engages recovery.
    pub fn new(
        params: SimParams,
        n_units: usize,
        strategy: Strategy,
        fault_plan: &FaultPlan,
        policy: Option<RecoveryPolicy>,
    ) -> Result<Self, ConfigError> {
        params.validate().map_err(ConfigError::InvalidParams)?;
        if n_units == 0 {
            return Err(ConfigError::ZeroUnits);
        }
        let partition =
            Partition::try_new(params.dims, n_units, strategy).map_err(ConfigError::Partition)?;
        let recovery = match (policy, fault_plan.is_exhausted()) {
            (Some(p), _) => Some(RecoveryManager::new(p)),
            (None, false) => Some(RecoveryManager::new(RecoveryPolicy::default())),
            (None, true) => None,
        };
        // A plan that can corrupt silently engages the SDC defense at the
        // default audit cadence; executors can tighten it via their configs.
        let integrity = fault_plan
            .has_corruption()
            .then(|| IntegrityMonitor::new(DEFAULT_AUDIT_PERIOD));
        let state = DriverState::initial(
            n_units,
            recovery.as_ref().map(|rm| rm.policy),
            integrity.is_some(),
        );
        Ok(DriverCore {
            params,
            strategy,
            partition,
            pool: Arc::new(WorkPool::host_sized()),
            vascular: VascularPool::new(),
            step: 0,
            history: TimeSeries::default(),
            metrics: None,
            snapshots: SnapshotTaker::new(),
            prev_comm: CommCounters::default(),
            telemetry: Telemetry::disabled(),
            step_hist: None,
            health: None,
            health_prev_comm: CommCounters::default(),
            retired_counters: DeviceCounters::new(),
            recovery,
            pending_recoveries: Vec::new(),
            integrity,
            pending_integrity: Vec::new(),
            integrity_log: Vec::new(),
            initial_state: state.clone(),
            state,
            event_log: None,
            staged_rollback: None,
        })
    }

    /// Replace the private host-sized pool with a shared one. Scheduling is
    /// dynamic self-claiming, so swapping pools never changes results —
    /// only which threads execute the work items.
    pub fn share_pool(&mut self, pool: Arc<WorkPool>) {
        self.pool = pool;
    }

    /// Check an explicit initial world against the configured grid.
    pub fn check_world(&self, world: &World) -> Result<(), ConfigError> {
        if world.dims != self.params.dims {
            return Err(ConfigError::DimsMismatch {
                expected: self.params.dims,
                got: world.dims,
            });
        }
        Ok(())
    }

    /// Engage (or retune) the SDC defense: scrub every step, audit every
    /// `audit_period` steps (0 = scrub only).
    pub fn enable_integrity(&mut self, audit_period: u64) {
        match self.integrity.as_mut() {
            Some(mon) => mon.audit_period = audit_period,
            None => self.integrity = Some(IntegrityMonitor::new(audit_period)),
        }
        // Configuration-time change: both the live control state and the
        // replay starting point see the defense engaged.
        self.state.integrity_on = true;
        self.initial_state.integrity_on = true;
    }

    /// Start recording control-plane events for deterministic replay. The
    /// current control state becomes the replay starting point.
    pub fn enable_event_recording(&mut self) {
        self.initial_state = self.state.clone();
        self.event_log = Some(Vec::new());
    }

    /// Record one integrity event on the log and (when a metrics sink is
    /// installed) the pending stream the next step record drains.
    pub fn push_integrity(&mut self, rec: IntegrityRecord) {
        if self.metrics.is_some() {
            self.pending_integrity.push(rec.clone());
        }
        self.integrity_log.push(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_saturates_instead_of_wrapping() {
        let policy = RecoveryPolicy::default();
        assert_eq!(policy.backoff_ns(0), policy.backoff_base_ns);
        assert_eq!(policy.backoff_ns(1), policy.backoff_base_ns);
        assert_eq!(policy.backoff_ns(2), policy.backoff_base_ns * 2);
        assert_eq!(policy.backoff_ns(5), policy.backoff_base_ns * 16);
        // 1_000_000 ≈ 2^20: shift 44 is the last that fits, 45 saturates.
        assert_eq!(policy.backoff_ns(45), 1_000_000u64 << 44);
        assert_eq!(policy.backoff_ns(46), u64::MAX);
        assert_eq!(policy.backoff_ns(u32::MAX), u64::MAX);
        // Exactly at the boundary: the largest shift that still fits.
        let p1 = RecoveryPolicy {
            backoff_base_ns: 1,
            ..policy
        };
        assert_eq!(p1.backoff_ns(64), 1u64 << 63);
        assert_eq!(p1.backoff_ns(65), u64::MAX);
        let p0 = RecoveryPolicy {
            backoff_base_ns: 0,
            ..policy
        };
        assert_eq!(p0.backoff_ns(u32::MAX), 0);
    }

    /// Regression: multi-bit bases at the shift boundary. A base with more
    /// than one significant bit (3 = 0b11) still fits when its top bit
    /// lands exactly on bit 63 and must saturate one attempt later — the
    /// round-trip check cannot silently drop high bits the way a mistuned
    /// `leading_zeros` comparison could.
    #[test]
    fn backoff_multi_bit_base_boundary_is_exact() {
        let base = |b: u64| RecoveryPolicy {
            backoff_base_ns: b,
            ..RecoveryPolicy::default()
        };
        // base 3: top bit at 1, so shift 62 (attempt 63) is the last exact
        // value and shift 63 (attempt 64) saturates.
        assert_eq!(base(3).backoff_ns(63), 3u64 << 62);
        assert_eq!(base(3).backoff_ns(64), u64::MAX);
        // base 5 (0b101): same boundary, different low bits.
        assert_eq!(base(5).backoff_ns(62), 5u64 << 61);
        assert_eq!(base(5).backoff_ns(63), u64::MAX);
        // All-ones base: any shift at all drops bits.
        assert_eq!(base(u64::MAX).backoff_ns(1), u64::MAX);
        assert_eq!(base(u64::MAX).backoff_ns(2), u64::MAX);
        // Exactness everywhere below the boundary, for every bit position.
        for top in 0..64u32 {
            let b = 1u64 << top;
            let last_exact = 64 - top; // attempt whose shift puts the top bit at 63
            assert_eq!(base(b).backoff_ns(last_exact), b << (last_exact - 1));
            assert_eq!(base(b).backoff_ns(last_exact + 1), u64::MAX);
        }
        // Monotone non-decreasing in attempt for a handful of bases.
        for b in [1u64, 2, 3, 5, 7, 1_000_000, u64::MAX / 3] {
            let p = base(b);
            let mut prev = 0;
            for attempt in 0..200 {
                let v = p.backoff_ns(attempt);
                assert!(
                    v >= prev,
                    "backoff regressed at attempt {attempt} (base {b})"
                );
                prev = v;
            }
        }
    }
}
