//! [`RunConfig`]: the one description of a BSP run.
//!
//! Every knob the executors share is declared, documented and given its
//! `with_*` builder here, once. What differs per executor rides in the
//! `exec` tail ([`Unit::Knobs`](crate::Unit::Knobs)): `()` for the CPU
//! ranks, `GpuKnobs` for the simulated devices.

use pgas::fault::FaultPlan;
use pgas::TransportMode;
use simcov_core::decomp::Strategy;
use simcov_core::foi::FoiPattern;
use simcov_core::lanes::KernelMode;
use simcov_core::params::SimParams;

use crate::core::RecoveryPolicy;

/// Configuration of one run on a [`BspSim`](crate::BspSim).
#[derive(Debug, Clone)]
pub struct RunConfig<X = ()> {
    pub params: SimParams,
    /// Number of execution units: logical CPU ranks (cores in the paper's
    /// terms) or simulated devices.
    pub units: usize,
    pub strategy: Strategy,
    pub pattern: FoiPattern,
    /// Fault schedule to arm on the BSP runtime (empty: healthy run).
    pub fault_plan: FaultPlan,
    /// Explicit recovery policy. `None` engages the default policy when a
    /// fault plan is armed, and no recovery otherwise.
    pub recovery: Option<RecoveryPolicy>,
    /// Integrity audit period override. `None` keeps the default behavior
    /// (audits engage automatically when the fault plan injects
    /// corruption); `Some(p)` engages the monitor explicitly with period
    /// `p` (0 = scrub-only, no periodic invariant audit).
    pub audit_period: Option<u64>,
    /// In-barrier retransmit budget override for corrupt batches.
    pub retransmit_budget: Option<u64>,
    /// Diffusion kernel selection (default [`KernelMode::Wide`]; `Scalar`
    /// keeps the reference path alive as the differential oracle). Bitwise
    /// identical either way.
    pub kernel: KernelMode,
    /// Worker-thread count for the [`WorkPool`](pgas::WorkPool) running unit
    /// superstep bodies concurrently. `None` keeps the host-sized default
    /// pool; `Some(0)` forces inline (serial) execution; `Some(n)` pins `n`
    /// workers. Trajectories are bitwise identical for every value.
    pub threads: Option<usize>,
    /// Exchange transport. [`TransportMode::InProcess`] (default) uses the
    /// double-buffered mailboxes; [`TransportMode::Process`] runs one worker
    /// process per unit over local sockets. Bitwise identical either way.
    pub transport: TransportMode,
    /// The executor's own knobs; set with struct-update syntax through
    /// [`RunConfig::with_exec`].
    pub exec: X,
}

impl<X: Default> RunConfig<X> {
    pub fn new(params: SimParams, units: usize) -> Self {
        RunConfig {
            params,
            units,
            strategy: Strategy::Blocks,
            pattern: FoiPattern::UniformLattice,
            fault_plan: FaultPlan::none(),
            recovery: None,
            audit_period: None,
            retransmit_budget: None,
            kernel: KernelMode::default(),
            threads: None,
            transport: TransportMode::InProcess,
            exec: X::default(),
        }
    }
}

impl<X> RunConfig<X> {
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    pub fn with_pattern(mut self, pattern: FoiPattern) -> Self {
        self.pattern = pattern;
        self
    }

    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    pub fn with_audit_period(mut self, period: u64) -> Self {
        self.audit_period = Some(period);
        self
    }

    pub fn with_retransmit_budget(mut self, budget: u64) -> Self {
        self.retransmit_budget = Some(budget);
        self
    }

    pub fn with_kernel(mut self, kernel: KernelMode) -> Self {
        self.kernel = kernel;
        self
    }

    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    pub fn with_transport(mut self, transport: TransportMode) -> Self {
        self.transport = transport;
        self
    }

    pub fn with_exec(mut self, exec: X) -> Self {
        self.exec = exec;
        self
    }
}
