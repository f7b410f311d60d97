//! Wall-clock microbench for Fig 6 (strong scaling): fixed problem,
//! growing device count — wall-clock of the host implementation (the
//! simulated-time reproduction lives in the `fig6_strong` binary).

use simcov_bench::microbench::Bench;
use simcov_core::grid::GridDims;
use simcov_core::params::SimParams;
use simcov_driver::Simulation;
use simcov_gpu::{GpuSim, GpuSimConfig};

fn main() {
    let mut b = Bench::from_args();
    for devices in [1usize, 4, 16] {
        b.bench(&format!("fig6_strong_scaling/{devices}"), || {
            let p = SimParams::test_config(GridDims::new2d(64, 64), 40, 16, 1);
            let mut sim = GpuSim::new(GpuSimConfig::new(p, devices)).expect("valid config");
            sim.run().expect("healthy run");
            sim.max_unit_counters().update.elements
        });
    }
    b.finish();
}
