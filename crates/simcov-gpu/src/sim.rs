//! The SIMCoV-GPU executor: [`GpuDevice`] as a [`Unit`] of the shared
//! [`BspSim`] shell.
//!
//! Everything but the two-wave superstep body and the GPU's own knobs —
//! shared configuration, construction, re-partitioning, the step loop,
//! statistics, checkpointing, fault recovery, metrics — is the shell's
//! ([`simcov_driver::BspSim`]); every recovery/retry/quarantine *decision*
//! along the way is made by the pure control-plane core
//! ([`simcov_driver::DriverState`]).

use gpusim::device::LinkTraffic;
use gpusim::{CostModel, DeviceCounters, HwProfile};
use pgas::fault::SuperstepError;
use pgas::{Bsp, WorkPool};
use simcov_core::decomp::Partition;
use simcov_core::extrav::TrialTable;
use simcov_core::lanes::KernelMode;
use simcov_core::params::SimParams;
use simcov_core::stats::StatsPartial;
use simcov_core::world::World;
use simcov_driver::{BspSim, ConfigError, RunConfig, Unit};
use simcov_telemetry::Telemetry;

use crate::device::GpuDevice;
use crate::msg::GpuMsg;
use crate::variants::GpuVariant;

/// A running multi-device SIMCoV-GPU simulation. Program against it through
/// the [`Simulation`](simcov_driver::Simulation) trait.
pub type GpuSim = BspSim<GpuDevice>;

/// Configuration of a multi-device GPU run: the shared knobs plus
/// [`GpuKnobs`], set with struct-update syntax —
/// `cfg.with_exec(GpuKnobs { tile_side: 4, ..GpuKnobs::default() })`.
pub type GpuSimConfig = RunConfig<GpuKnobs>;

/// The GPU executor's own knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuKnobs {
    pub variant: GpuVariant,
    /// Memory-tile side in voxels (§3.2).
    pub tile_side: usize,
    /// Steps between active-tile checks; defaults to the tile side (the
    /// paper's maximum safe period). Must be ≤ `tile_side`.
    pub check_period: Option<u64>,
    /// Devices per node (NVLink domain). Perlmutter: 4.
    pub devices_per_node: usize,
}

impl Default for GpuKnobs {
    fn default() -> Self {
        GpuKnobs {
            variant: GpuVariant::Combined,
            tile_side: 8,
            check_period: None,
            devices_per_node: 4,
        }
    }
}

impl GpuKnobs {
    /// The resolved active-tile check period.
    fn period(&self) -> u64 {
        self.check_period.unwrap_or(self.tile_side as u64)
    }

    /// Validate the knobs. Public so spec layers (the sweep server's
    /// `RunSpec`) can pre-validate a submission without building devices.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.tile_side == 0 {
            return Err(ConfigError::ZeroTileSide);
        }
        if self.devices_per_node == 0 {
            return Err(ConfigError::ZeroDevicesPerNode);
        }
        // An active tile's halo buffer absorbs one voxel of spread per
        // step; after `tile_side` unchecked steps it can be outrun, so any
        // longer period risks missing activity (paper §3.2).
        if self.period() == 0 || self.period() > self.tile_side as u64 {
            return Err(ConfigError::CheckPeriodOutOfRange {
                check_period: self.period(),
                tile_side: self.tile_side,
            });
        }
        Ok(())
    }
}

/// The busiest device's link traffic fields, taken independently.
pub fn max_device_link(devices: &[GpuDevice]) -> LinkTraffic {
    devices
        .iter()
        .fold(LinkTraffic::default(), |a, d| LinkTraffic {
            intra_msgs: a.intra_msgs.max(d.link.intra_msgs),
            intra_bytes: a.intra_bytes.max(d.link.intra_bytes),
            inter_msgs: a.inter_msgs.max(d.link.inter_msgs),
            inter_bytes: a.inter_bytes.max(d.link.inter_bytes),
        })
}

impl Unit for GpuDevice {
    type Msg = GpuMsg;
    type Knobs = GpuKnobs;
    const NAME: &'static str = "gpu";

    fn validate(knobs: &GpuKnobs) -> Result<(), ConfigError> {
        knobs.validate()
    }

    fn build(
        id: usize,
        partition: &Partition,
        world: &World,
        kernel: KernelMode,
        k: &GpuKnobs,
    ) -> Self {
        GpuDevice::new(
            id,
            partition,
            world,
            k.variant,
            k.tile_side,
            k.period(),
            k.devices_per_node,
            kernel,
        )
    }

    /// One timestep = two supersteps (the two communication waves of
    /// Fig. 2).
    fn step(
        bsp: &mut Bsp<GpuMsg>,
        pool: &WorkPool,
        devices: &mut [Self],
        p: &SimParams,
        _partition: &Partition,
        t: u64,
        trials: &TrialTable,
    ) -> Result<Vec<StatsPartial>, SuperstepError> {
        let _extrav: Vec<u64> = bsp.try_superstep(pool, devices, |_d, dev, inbox, out| {
            dev.plan_and_bid(p, t, trials, inbox, out)
        })?;

        bsp.try_superstep(pool, devices, |_d, dev, inbox, out| {
            dev.resolve_and_update(p, t, inbox, out)
        })
    }

    fn mark_listed(&self, params: &SimParams, mask: &mut [u64]) {
        self.grid.mark_listed(params, mask)
    }

    fn n_active(&self) -> usize {
        self.n_active_tiles()
    }

    fn counters(&self) -> DeviceCounters {
        self.counters
    }

    fn corrupt_bit(&mut self, seed: u64) {
        GpuDevice::corrupt_bit(self, seed)
    }

    fn write_into(&self, world: &mut World) {
        GpuDevice::write_into(self, world)
    }

    fn attach_telemetry(&mut self, tel: &Telemetry) {
        GpuDevice::attach_telemetry(self, tel.clone())
    }

    fn hw_profile(model: &CostModel) -> &HwProfile {
        &model.gpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcov_core::grid::GridDims;
    use simcov_core::serial::SerialSim;
    use simcov_driver::Simulation;

    fn knobs(variant: GpuVariant) -> GpuKnobs {
        GpuKnobs {
            variant,
            ..GpuKnobs::default()
        }
    }

    fn test_params(steps: u64) -> SimParams {
        SimParams::test_config(GridDims::new2d(24, 24), steps, 2, 42)
    }

    fn assert_matches_serial(n_devices: usize, variant: GpuVariant, steps: u64) {
        let p = test_params(steps);
        let mut serial = SerialSim::new(p.clone());
        serial.run();

        let cfg = GpuSimConfig::new(p, n_devices).with_exec(knobs(variant));
        let mut gpu = GpuSim::new(cfg).expect("valid config");
        gpu.run().expect("healthy run");

        let world = gpu.gather_world();
        if let Some((idx, why)) = serial.world.first_difference(&world) {
            panic!(
                "state diverged at voxel {idx} after {steps} steps ({n_devices} devices, {variant:?}): {why}"
            );
        }
        // Exact statistics reduction: serial and GPU histories are bitwise
        // identical, not just close.
        assert_eq!(
            serial.history,
            *gpu.history(),
            "stats must be bitwise identical across executors"
        );
    }

    #[test]
    fn combined_matches_serial_4_devices() {
        assert_matches_serial(4, GpuVariant::Combined, 150);
    }

    #[test]
    fn unoptimized_matches_serial_4_devices() {
        assert_matches_serial(4, GpuVariant::Unoptimized, 100);
    }

    #[test]
    fn fast_reduction_matches_serial_2_devices() {
        assert_matches_serial(2, GpuVariant::FastReduction, 100);
    }

    #[test]
    fn memory_tiling_matches_serial_9_devices() {
        assert_matches_serial(9, GpuVariant::MemoryTiling, 100);
    }

    #[test]
    fn single_device_matches_serial() {
        assert_matches_serial(1, GpuVariant::Combined, 100);
    }

    #[test]
    fn variants_agree_with_each_other_bitwise() {
        let p = test_params(120);
        let mut worlds = Vec::new();
        for v in GpuVariant::ALL {
            let mut sim = GpuSim::new(GpuSimConfig::new(p.clone(), 4).with_exec(knobs(v))).unwrap();
            sim.run().unwrap();
            worlds.push((v, sim.gather_world()));
        }
        for w in &worlds[1..] {
            assert!(
                worlds[0].1.first_difference(&w.1).is_none(),
                "variant {:?} diverged from {:?}",
                w.0,
                worlds[0].0
            );
        }
    }

    #[test]
    fn tiling_reduces_update_work() {
        // Needs a grid large enough to contain inactive interior tiles.
        let mut p = SimParams::test_config(GridDims::new2d(64, 64), 60, 1, 7);
        p.tcell_generation_rate = 0.0; // keep activity localized to the focus
        let cfg = GpuSimConfig::new(p.clone(), 4).with_exec(GpuKnobs {
            tile_side: 4,
            ..GpuKnobs::default()
        });
        let mut tiled = GpuSim::new(cfg).unwrap();
        tiled.run().unwrap();
        let mut full =
            GpuSim::new(GpuSimConfig::new(p, 4).with_exec(knobs(GpuVariant::FastReduction)))
                .unwrap();
        full.run().unwrap();
        let tiled_work = tiled.total_counters().update.elements;
        let full_work = full.total_counters().update.elements;
        assert!(
            tiled_work < full_work,
            "tiling should skip inactive tiles: {tiled_work} >= {full_work}"
        );
    }

    #[test]
    fn reduce_strategy_changes_atomic_counts() {
        let p = test_params(60);
        let mut tree = GpuSim::new(
            GpuSimConfig::new(p.clone(), 4).with_exec(knobs(GpuVariant::FastReduction)),
        )
        .unwrap();
        tree.run().unwrap();
        let mut atomic =
            GpuSim::new(GpuSimConfig::new(p, 4).with_exec(knobs(GpuVariant::Unoptimized))).unwrap();
        atomic.run().unwrap();
        assert!(
            tree.total_counters().reduce.atomics * 10 < atomic.total_counters().reduce.atomics,
            "tree reduction should slash atomics"
        );
        assert!(tree.total_counters().reduce.smem_ops > 0);
    }

    #[test]
    fn check_period_does_not_change_results_but_changes_cost() {
        let p = test_params(120);
        let run = |period: u64| {
            let cfg = GpuSimConfig::new(p.clone(), 4).with_exec(GpuKnobs {
                check_period: Some(period),
                ..GpuKnobs::default()
            });
            let mut sim = GpuSim::new(cfg).unwrap();
            sim.run().unwrap();
            (sim.gather_world(), sim.total_counters().tile_check.launches)
        };
        let (w1, checks1) = run(1);
        let (w8, checks8) = run(8);
        assert!(w1.first_difference(&w8).is_none(), "period changed results");
        assert!(
            checks1 > checks8 * 4,
            "shorter period must sweep more often: {checks1} vs {checks8}"
        );
    }

    #[test]
    fn check_period_beyond_tile_side_rejected() {
        let p = test_params(10);
        let cfg = GpuSimConfig::new(p, 4).with_exec(GpuKnobs {
            tile_side: 4,
            check_period: Some(5), // unsafe: buffer can be outrun
            ..GpuKnobs::default()
        });
        match GpuSim::new(cfg) {
            Err(ConfigError::CheckPeriodOutOfRange {
                check_period: 5,
                tile_side: 4,
            }) => {}
            other => panic!("expected CheckPeriodOutOfRange, got {:?}", other.err()),
        }
    }

    #[test]
    fn halo_traffic_recorded_with_locality() {
        let p = test_params(60);
        // 8 devices with 4 per node: both intra- and inter-node links exist.
        let mut sim = GpuSim::new(GpuSimConfig::new(p, 8)).unwrap();
        sim.run().unwrap();
        let total: LinkTraffic = sim.units.iter().fold(LinkTraffic::default(), |mut a, d| {
            a.merge(&d.link);
            a
        });
        assert!(total.intra_msgs > 0);
        assert!(total.inter_msgs > 0);
        assert!(total.intra_bytes + total.inter_bytes > 0);
    }
}
