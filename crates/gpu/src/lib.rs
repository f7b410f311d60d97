//! # gpusim — a simulated CUDA-like device substrate
//!
//! This environment has no physical GPU, so this crate substitutes one (see
//! DESIGN.md): the *algorithms* of SIMCoV-GPU execute for real on the host —
//! producing the true simulation state — while the *device-specific work* is
//! metered: voxels touched per kernel category, global-memory traffic,
//! device atomics, shared-memory reduction operations, kernel launches, halo
//! packing, and tile-check sweeps.
//!
//! A calibrated analytic cost model ([`cost`]) then converts those counters
//! into simulated seconds for the paper's hardware (A100-class GPU nodes and
//! the corresponding CPU nodes; the paper's own §6 throughput figures are
//! the anchor). Scaled-down runs are extrapolated to paper-scale work via
//! the scale-similarity argument in DESIGN.md
//! ([`counters::DeviceCounters::extrapolate`]).
//!
//! The block/thread structure of real kernels is preserved where it affects
//! results or cost: the tree reduction ([`reduce::tree_reduce`]) mirrors the
//! shared-memory halving reduction of Harris \[17\] with one global atomic per
//! block, versus the per-element atomic accumulation of the unoptimized
//! variant ([`reduce::atomic_reduce`]).

pub mod cost;
pub mod counters;
pub mod device;
pub mod kernel;
pub mod metrics;
pub mod reduce;

pub use cost::{
    CostBreakdown, CostModel, HwProfile, NetProfile, CPU_CORE, GPU_A100, NIC_SLINGSHOT,
};
pub use counters::{DeviceCounters, KernelCategory};
pub use kernel::LaunchConfig;
pub use metrics::{PhaseSnapshot, SharedSink, SnapshotTaker, StepRecord};
