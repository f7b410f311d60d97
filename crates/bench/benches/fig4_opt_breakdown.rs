//! Wall-clock microbench for Fig 4: the four optimization variants on a
//! dense-activity miniature (the simulated-time reproduction lives in the
//! `fig4_breakdown` binary).

use simcov_bench::microbench::Bench;
use simcov_core::grid::GridDims;
use simcov_core::params::SimParams;
use simcov_driver::Simulation;
use simcov_gpu::{GpuKnobs, GpuSim, GpuSimConfig, GpuVariant};

fn main() {
    let mut b = Bench::from_args();
    for v in GpuVariant::ALL {
        b.bench(&format!("fig4_variants/{}", v.name()), || {
            // Dense activity: 32 FOI on 64².
            let p = SimParams::test_config(GridDims::new2d(64, 64), 40, 32, 3);
            let mut sim = GpuSim::new(GpuSimConfig::new(p, 4).with_exec(GpuKnobs {
                variant: v,
                ..GpuKnobs::default()
            }))
            .expect("valid config");
            sim.run().expect("healthy run");
            sim.last_stats().unwrap().virions
        });
    }
    b.finish();
}
