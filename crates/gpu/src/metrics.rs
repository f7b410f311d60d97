//! Structured per-step metrics: phase snapshots and the record type the
//! executors emit into a [`simcov_telemetry::MetricsSink`].
//!
//! The counters in [`crate::counters`] are cumulative totals; observability
//! needs *per-step* deltas tied to named kernel phases (update / reduce /
//! tile / halo) so that a regression in one phase is visible the step it
//! happens. [`SnapshotTaker`] diffs cumulative [`DeviceCounters`] into
//! per-step [`PhaseSnapshot`]s, and the simulation drivers publish one
//! [`StepRecord`] per step through whatever `MetricsSink` the embedder
//! installs (an in-memory [`SharedSink`] for tests and benches, a JSON
//! writer in the bench harness, ...).

use crate::cost::{CostBreakdown, CostModel, HwProfile};
use crate::counters::{CategoryCounters, DeviceCounters, KernelCategory};
use pgas::fault::{IntegrityRecord, RecoveryRecord};

impl KernelCategory {
    /// Stable lowercase phase name, used as the key in structured output.
    pub const fn name(self) -> &'static str {
        match self {
            KernelCategory::UpdateAgents => "update",
            KernelCategory::ReduceStats => "reduce",
            KernelCategory::TileCheck => "tile",
            KernelCategory::Halo => "halo",
        }
    }

    pub const ALL: [KernelCategory; 4] = [
        KernelCategory::UpdateAgents,
        KernelCategory::ReduceStats,
        KernelCategory::TileCheck,
        KernelCategory::Halo,
    ];
}

impl CategoryCounters {
    /// Per-field saturating difference (`self - earlier`): the work done
    /// between two cumulative observations.
    pub fn since(&self, earlier: &CategoryCounters) -> CategoryCounters {
        CategoryCounters {
            elements: self.elements.saturating_sub(earlier.elements),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            atomics: self.atomics.saturating_sub(earlier.atomics),
            smem_ops: self.smem_ops.saturating_sub(earlier.smem_ops),
            launches: self.launches.saturating_sub(earlier.launches),
        }
    }
}

impl DeviceCounters {
    /// Per-category saturating difference (`self - earlier`).
    pub fn since(&self, earlier: &DeviceCounters) -> DeviceCounters {
        DeviceCounters {
            update: self.update.since(&earlier.update),
            reduce: self.reduce.since(&earlier.reduce),
            tile_check: self.tile_check.since(&earlier.tile_check),
            halo: self.halo.since(&earlier.halo),
        }
    }
}

impl CostBreakdown {
    /// The breakdown as `(phase name, seconds)` pairs, in the fixed
    /// update / reduce / tile / halo order.
    pub fn phases(&self) -> [(&'static str, f64); 4] {
        [
            (KernelCategory::UpdateAgents.name(), self.update_s),
            (KernelCategory::ReduceStats.name(), self.reduce_s),
            (KernelCategory::TileCheck.name(), self.tile_s),
            (KernelCategory::Halo.name(), self.halo_s),
        ]
    }
}

/// One step's work, as a counter delta plus its simulated cost per phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseSnapshot {
    pub step: u64,
    /// Work performed during this step (cumulative-counter delta).
    pub work: DeviceCounters,
    /// Simulated seconds per phase under the snapshot's hardware profile.
    pub cost: CostBreakdown,
}

/// Diffs cumulative counters into per-step [`PhaseSnapshot`]s.
#[derive(Debug, Default)]
pub struct SnapshotTaker {
    prev: DeviceCounters,
}

impl SnapshotTaker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot the work between the previous call and `current`, costed
    /// under `hw`.
    pub fn take(
        &mut self,
        step: u64,
        current: &DeviceCounters,
        model: &CostModel,
        hw: &HwProfile,
    ) -> PhaseSnapshot {
        let work = current.since(&self.prev);
        self.prev = *current;
        PhaseSnapshot {
            step,
            work,
            cost: model.device_breakdown(hw, &work),
        }
    }
}

/// One structured record per simulation step, emitted by both executors.
///
/// The executor-independent shape lives in the shared telemetry crate
/// ([`simcov_telemetry::StepRecord`]); this alias pins its layer-specific
/// payloads — per-phase device work, completed recoveries, integrity events
/// — and is the concrete record type the whole workspace exchanges. (Not
/// `Copy`: a record owns the recovery events that completed during the
/// step, which is almost always an empty `Vec`.)
pub type StepRecord = simcov_telemetry::StepRecord<PhaseSnapshot, RecoveryRecord, IntegrityRecord>;

/// A cloneable, thread-safe in-memory sink over the workspace's concrete
/// [`StepRecord`]: hand one clone to the simulation and keep another to
/// read the records afterwards.
pub type SharedSink = simcov_telemetry::SharedSink<StepRecord>;

#[cfg(test)]
mod tests {
    use super::*;
    use simcov_telemetry::MetricsSink;

    #[test]
    fn category_names_are_stable() {
        let names: Vec<&str> = KernelCategory::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names, ["update", "reduce", "tile", "halo"]);
    }

    #[test]
    fn since_is_a_saturating_delta() {
        let mut a = DeviceCounters::new();
        a.update.elements = 100;
        a.reduce.atomics = 7;
        let mut b = a;
        b.update.elements = 150;
        b.halo.bytes = 32;
        let d = b.since(&a);
        assert_eq!(d.update.elements, 50);
        assert_eq!(d.reduce.atomics, 0);
        assert_eq!(d.halo.bytes, 32);
        // Saturation instead of wrap on (impossible) counter regression.
        assert_eq!(a.since(&b).update.elements, 0);
    }

    #[test]
    fn snapshot_taker_diffs_consecutive_steps() {
        let model = CostModel::default();
        let mut taker = SnapshotTaker::new();
        let mut c = DeviceCounters::new();
        c.update.elements = 1000;
        let s0 = taker.take(0, &c, &model, &model.gpu);
        assert_eq!(s0.work.update.elements, 1000);
        assert!(s0.cost.update_s > 0.0);
        c.update.elements = 1800;
        c.reduce.launches = 2;
        let s1 = taker.take(1, &c, &model, &model.gpu);
        assert_eq!(s1.step, 1);
        assert_eq!(s1.work.update.elements, 800);
        assert_eq!(s1.work.reduce.launches, 2);
    }

    #[test]
    fn phases_expose_breakdown_in_order() {
        let b = CostBreakdown {
            update_s: 1.0,
            reduce_s: 2.0,
            tile_s: 3.0,
            halo_s: 4.0,
        };
        let p = b.phases();
        assert_eq!(p[0], ("update", 1.0));
        assert_eq!(p[3], ("halo", 4.0));
    }

    #[test]
    fn shared_sink_accumulates_across_clones() {
        let sink = SharedSink::new();
        let mut writer = sink.clone();
        for step in 0..3 {
            writer.record(StepRecord {
                step,
                ..Default::default()
            });
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.records()[2].step, 2);
    }
}
