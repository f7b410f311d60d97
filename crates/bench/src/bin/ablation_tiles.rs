//! Ablation: memory-tile side and activity-check period (§3.2).
//!
//! The paper fixes one tiling configuration; this sweep shows the
//! trade-off it balances: small tiles track the active region tightly but
//! spend more on tile checks and ghost-tile overhead; large tiles waste
//! update work on mostly-inactive tiles. The check period is bounded by
//! the tile side (safety of the one-tile activation buffer).
//!
//! `--json <path>` additionally writes the sweep rows as JSON.

use gpusim::{CostModel, GPU_A100};
use simcov_bench::cli::CommonFlags;
use simcov_bench::configs::{paper, scale_from_env, Experiment, ScaledExperiment};
use simcov_bench::json::write_json;
use simcov_bench::report::{banner, fmt_secs, Table};
use simcov_core::json::Json;
use simcov_driver::Simulation;
use simcov_gpu::{GpuKnobs, GpuSim, GpuSimConfig};

fn main() {
    let flags = CommonFlags::parse("usage: ablation_tiles [--json PATH]");
    let scale = scale_from_env().max(64); // keep the sweep cheap
    println!(
        "{}",
        banner(
            "Ablation: tile side & check period (Combined variant)",
            scale
        )
    );
    let e = Experiment {
        name: "ablation",
        grid_side: paper::STRONG_GRID,
        num_foi: paper::STRONG_FOI,
        steps: paper::STEPS,
        machine: paper::STRONG_MACHINES[0],
    };
    let model = CostModel::default();
    let mut table = Table::new(&[
        "tile side",
        "check period",
        "update (s)",
        "tile checks (s)",
        "total compute (s)",
        "voxel updates",
    ]);
    let mut rows = Vec::new();
    for (tile, period) in [(2usize, 2u64), (4, 4), (8, 8), (16, 16), (8, 2), (16, 4)] {
        let se = ScaledExperiment::new(e, scale, 1);
        let cfg = GpuSimConfig::new(se.params, 4).with_exec(GpuKnobs {
            tile_side: tile,
            check_period: Some(period),
            ..GpuKnobs::default()
        });
        let mut sim = GpuSim::new(cfg).expect("valid config");
        sim.run().expect("healthy run");
        let c = sim.max_unit_counters().extrapolate(scale as f64);
        let b = model.device_breakdown(&GPU_A100, &c);
        table.row(vec![
            tile.to_string(),
            period.to_string(),
            fmt_secs(b.update_s),
            fmt_secs(b.tile_s),
            fmt_secs(b.total()),
            c.update.elements.to_string(),
        ]);
        rows.push(Json::obj([
            ("tile_side", Json::from(tile)),
            ("check_period", Json::from(period)),
            ("update_s", Json::from(b.update_s)),
            ("tile_checks_s", Json::from(b.tile_s)),
            ("total_compute_s", Json::from(b.total())),
            ("voxel_updates", Json::from(c.update.elements)),
        ]));
    }
    println!("{}", table.render());
    println!(
        "Expected: update work shrinks with tile side down to the activity granularity,\n\
         while tile-check cost grows as the period (≤ tile side) shortens."
    );
    if let Some(path) = flags.json {
        write_json(&path, &Json::obj([("rows", Json::Arr(rows))]));
    }
}
