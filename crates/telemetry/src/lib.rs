//! Unified, zero-dependency telemetry for the SIMCoV-GPU reproduction.
//!
//! Every layer of the stack — driver steps, BSP supersteps, per-rank
//! compute/exchange phases, simulated GPU kernel phases — records into the
//! same subsystem:
//!
//! - [`Registry`]: named counters, gauges, and log₂-bucketed histograms;
//!   lock-free updates through `Arc`'d atomic handles.
//! - [`Telemetry`] + [`SpanEvent`]: hierarchical spans with parent ids over
//!   bounded per-track [`EventRing`]s — fixed capacity, explicit drop
//!   counters, no allocation on the hot path.
//! - [`MonotonicClock`]: the one timestamp source shared by spans and the
//!   bench harness.
//! - Exporters: [`chrome`] (trace-event JSON for `chrome://tracing` /
//!   Perfetto) and [`prometheus`] (text exposition).
//! - [`HealthMonitor`]: online straggler / load-imbalance / comm-spike
//!   detection over the same stream.
//! - [`StepRecord`] / [`MetricsSink`] / [`SharedSink`]: the generic per-step
//!   record stream shared by both executors.
//!
//! The cardinal invariant, inherited from the PR-2 observability layer and
//! enforced by the verify gates: telemetry is *pure observation*. A run with
//! every instrument enabled is bitwise identical to a run with none.

pub mod chrome;
pub mod clock;
pub mod health;
pub mod prometheus;
pub mod registry;
pub mod ring;
pub mod sink;
pub mod span;
pub mod wire;

pub use clock::MonotonicClock;
pub use health::{HealthConfig, HealthKind, HealthMonitor, HealthRecord, RankWalls};
pub use registry::{
    Counter, Gauge, Histogram, MetricSnapshot, MetricValue, Registry, ScopedRegistry,
    HISTOGRAM_BUCKETS,
};
pub use ring::EventRing;
pub use sink::{MetricsSink, SharedSink, StepRecord};
pub use span::{OpenSpan, SpanEvent, SpanKind, Telemetry};
pub use wire::WireStats;
