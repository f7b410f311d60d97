//! A patient-scale scenario (scaled): a 2D slice of lung tissue with the
//! paper's 16-FOI seeding, run on the GPU executor, logging the aggregate
//! statistics SIMCoV reports (paper Fig. 5) plus ASCII snapshots of the
//! spreading infection and immune response.
//!
//! ```sh
//! cargo run --release --example lung_slice_infection
//! ```

use simcov_repro::simcov_core::epithelial::EpiState;
use simcov_repro::simcov_core::grid::{Coord, GridDims};
use simcov_repro::simcov_core::params::SimParams;
use simcov_repro::simcov_core::stats::Metric;
use simcov_repro::simcov_driver::Simulation;
use simcov_repro::simcov_gpu::{GpuSim, GpuSimConfig};

/// Render the world as ASCII: infection states and T cells.
fn snapshot(sim: &GpuSim, rows: usize, cols: usize) -> String {
    let world = sim.gather_world();
    let dims = world.dims;
    let mut out = String::new();
    for r in 0..rows {
        for c in 0..cols {
            let x = (c as i64 * dims.x as i64) / cols as i64;
            let y = (r as i64 * dims.y as i64) / rows as i64;
            let i = dims.index(Coord::new(x, y, 0));
            let ch = if world.tcells[i].occupied() {
                'T'
            } else {
                match world.epi.get(i) {
                    EpiState::Healthy => {
                        if world.virions.get(i) > 0.0 {
                            '~' // virions present
                        } else {
                            '.'
                        }
                    }
                    EpiState::Incubating => 'i',
                    EpiState::Expressing => 'E',
                    EpiState::Apoptotic => 'a',
                    EpiState::Dead => '#',
                    EpiState::Airway => ' ',
                }
            };
            out.push(ch);
        }
        out.push('\n');
    }
    out
}

fn main() {
    // 1/64-scale version of the paper's correctness configuration:
    // 10,000^2 -> 156^2, 33,120 steps -> 518, 16 FOI.
    let params = SimParams::scaled_to(GridDims::new2d(156, 156), 518, 16, 7);
    let steps = params.steps;
    let mut sim = GpuSim::new(GpuSimConfig::new(params, 4)).expect("valid config");

    println!("legend: . healthy | ~ virions | i incubating | E expressing | a apoptotic | # dead | T T cell\n");
    let snaps = [steps / 4, steps / 2, 3 * steps / 4, steps - 1];
    let mut next = 0usize;
    while sim.step() < steps {
        sim.advance_step().expect("healthy step");
        if next < snaps.len() && sim.step() - 1 == snaps[next] {
            let s = sim.last_stats().unwrap();
            println!(
                "--- step {} | virions {:.2e} | tissue T cells {} | dead {} ---",
                s.step, s.virions, s.tcells_tissue, s.epi_dead
            );
            println!("{}", snapshot(&sim, 32, 64));
            next += 1;
        }
    }

    println!(
        "peak viral load:        {:.3e}",
        sim.history().peak(Metric::Virions)
    );
    println!(
        "peak tissue T cells:    {}",
        sim.history().peak(Metric::TCellsTissue)
    );
    println!(
        "peak apoptotic cells:   {}",
        sim.history().peak(Metric::EpiApoptotic)
    );
    println!(
        "epithelium killed:      {} of {}",
        sim.history().steps.last().unwrap().epi_dead,
        sim.params().dims.nvoxels()
    );
    println!(
        "active tiles at end:    {:.1}% (memory tiling, §3.2)",
        100.0
            * sim
                .units
                .iter()
                .map(|d| d.active_tile_fraction())
                .sum::<f64>()
            / sim.units.len() as f64
    );
}
