//! The SIMCoV-CPU executor: [`CpuRank`] as a [`Unit`] of the shared
//! [`BspSim`] shell.
//!
//! Everything but the three-superstep body — configuration, construction,
//! re-partitioning, the step loop, statistics, checkpointing, fault
//! recovery, metrics — is the shell's ([`simcov_driver::BspSim`]); every
//! recovery/retry/quarantine *decision* along the way is made by the pure
//! control-plane core ([`simcov_driver::DriverState`]). This impl is the
//! worked example of adding an executor.

use gpusim::{CostModel, DeviceCounters, HwProfile};
use pgas::fault::SuperstepError;
use pgas::{Bsp, WorkPool};
use simcov_core::decomp::Partition;
use simcov_core::extrav::TrialTable;
use simcov_core::lanes::KernelMode;
use simcov_core::params::SimParams;
use simcov_core::stats::StatsPartial;
use simcov_core::world::World;
use simcov_driver::{BspSim, RunConfig, Unit};

use crate::msg::CpuMsg;
use crate::rank::CpuRank;

/// A running CPU-baseline simulation. Program against it through the
/// [`Simulation`](simcov_driver::Simulation) trait.
pub type CpuSim = BspSim<CpuRank>;

/// Configuration of a CPU-baseline run: the shared knobs, no tail.
pub type CpuSimConfig = RunConfig;

impl Unit for CpuRank {
    type Msg = CpuMsg;
    type Knobs = ();
    const NAME: &'static str = "cpu";

    fn build(id: usize, partition: &Partition, world: &World, kernel: KernelMode, _: &()) -> Self {
        CpuRank::new(id, partition, world, kernel)
    }

    /// One timestep = three supersteps.
    fn step(
        bsp: &mut Bsp<CpuMsg>,
        pool: &WorkPool,
        ranks: &mut [Self],
        p: &SimParams,
        partition: &Partition,
        t: u64,
        trials: &TrialTable,
    ) -> Result<Vec<StatsPartial>, SuperstepError> {
        // Superstep 1: plan.
        let _extrav: Vec<u64> = bsp.try_superstep(pool, ranks, |rank, s, inbox, out| {
            debug_assert_eq!(rank, s.rank);
            s.plan(p, t, trials, partition, inbox, out)
        })?;

        // Superstep 2: resolve + FSM + production.
        bsp.try_superstep(pool, ranks, |_r, s, inbox, out| {
            s.resolve(p, t, inbox, out);
        })?;

        // Superstep 3: finish + stats partial.
        bsp.try_superstep(pool, ranks, |_r, s, inbox, out| s.finish(p, t, inbox, out))
    }

    fn mark_listed(&self, params: &SimParams, mask: &mut [u64]) {
        self.grid.mark_listed(params, mask)
    }

    fn n_active(&self) -> usize {
        CpuRank::n_active(self)
    }

    fn counters(&self) -> DeviceCounters {
        self.counters
    }

    fn corrupt_bit(&mut self, seed: u64) {
        self.grid.corrupt_bit(seed)
    }

    fn write_into(&self, world: &mut World) {
        CpuRank::write_into(self, world)
    }

    fn hw_profile(model: &CostModel) -> &HwProfile {
        &model.cpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcov_core::decomp::Strategy;
    use simcov_core::grid::GridDims;
    use simcov_core::serial::SerialSim;
    use simcov_driver::{ConfigError, Simulation};

    fn test_params(steps: u64) -> SimParams {
        SimParams::test_config(GridDims::new2d(24, 24), steps, 2, 42)
    }

    fn assert_matches_serial(n_ranks: usize, strategy: Strategy, steps: u64) {
        let p = test_params(steps);
        let mut serial = SerialSim::new(p.clone());
        serial.run();

        let cfg = CpuSimConfig::new(p, n_ranks).with_strategy(strategy);
        let mut cpu = CpuSim::new(cfg).expect("valid config");
        cpu.run().expect("healthy run");

        let world = cpu.gather_world();
        if let Some((idx, why)) = serial.world.first_difference(&world) {
            panic!("state diverged at voxel {idx} after {steps} steps ({n_ranks} ranks): {why}");
        }
        // Exact statistics reduction: serial and distributed histories are
        // bitwise identical, not just close.
        assert_eq!(
            serial.history,
            *cpu.history(),
            "stats must be bitwise identical across executors"
        );
    }

    #[test]
    fn matches_serial_2_ranks_linear() {
        assert_matches_serial(2, Strategy::Linear, 150);
    }

    #[test]
    fn matches_serial_4_ranks_blocks() {
        assert_matches_serial(4, Strategy::Blocks, 150);
    }

    #[test]
    fn matches_serial_9_ranks_blocks() {
        assert_matches_serial(9, Strategy::Blocks, 100);
    }

    #[test]
    fn matches_serial_single_rank() {
        assert_matches_serial(1, Strategy::Blocks, 100);
    }

    #[test]
    fn comm_counters_accumulate() {
        let p = test_params(60);
        let mut cpu = CpuSim::new(CpuSimConfig::new(p, 4)).unwrap();
        cpu.run().unwrap();
        let cc = cpu.comm_counters();
        assert_eq!(cc.supersteps, 60 * 3);
        assert_eq!(cc.allreduces, 60);
        assert!(cc.messages > 0, "boundary traffic expected");
    }

    #[test]
    fn work_counters_track_active_voxels() {
        let p = test_params(60);
        let mut cpu = CpuSim::new(CpuSimConfig::new(p, 4)).unwrap();
        cpu.run().unwrap();
        let total = cpu.total_counters();
        assert!(total.update.elements > 0);
        // Active-list processing must touch far fewer voxel-steps than a
        // full sweep would.
        let full_sweep = 24 * 24 * 60;
        assert!(
            total.update.elements < full_sweep,
            "active list should skip inactive regions: {} >= {full_sweep}",
            total.update.elements
        );
    }

    #[test]
    fn zero_ranks_is_a_config_error() {
        let p = test_params(10);
        match CpuSim::new(CpuSimConfig::new(p, 0)) {
            Err(ConfigError::ZeroUnits) => {}
            other => panic!("expected ZeroUnits, got {:?}", other.err()),
        }
    }
}
