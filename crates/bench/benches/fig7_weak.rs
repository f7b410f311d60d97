//! Wall-clock microbench for Fig 7 (weak scaling): problem size grows with
//! the device count — per-device wall-clock should stay roughly flat.

use simcov_bench::microbench::Bench;
use simcov_core::grid::GridDims;
use simcov_core::params::SimParams;
use simcov_driver::Simulation;
use simcov_gpu::{GpuSim, GpuSimConfig};

fn main() {
    let mut b = Bench::from_args();
    for (devices, side, foi) in [(1usize, 32u32, 4u32), (4, 64, 16), (16, 128, 64)] {
        b.bench(&format!("fig7_weak_scaling/{devices}dev_{side}sq"), || {
            let p = SimParams::test_config(GridDims::new2d(side, side), 30, foi, 1);
            let mut sim = GpuSim::new(GpuSimConfig::new(p, devices)).expect("valid config");
            sim.run().expect("healthy run");
            sim.max_unit_counters().update.elements
        });
    }
    b.finish();
}
