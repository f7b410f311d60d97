//! Ablation: linear vs block domain decomposition (§2.2, Fig. 1B).
//!
//! "The simulation is distributed to processes via either block or linear
//! domain decomposition, which has impacts on communication overhead."
//! This sweep quantifies that impact on the CPU baseline: strips minimize
//! the neighbor count (2) but maximize boundary length; blocks minimize
//! boundary length but talk to up to 8 neighbors.
//!
//! `--json <path>` additionally writes the sweep rows as JSON.

use simcov_bench::cli::CommonFlags;
use simcov_bench::configs::{paper, scale_from_env, Experiment, ScaledExperiment};
use simcov_bench::json::write_json;
use simcov_bench::report::{banner, Table};
use simcov_core::decomp::Strategy;
use simcov_core::json::Json;
use simcov_cpu::{CpuSim, CpuSimConfig};
use simcov_driver::Simulation;

fn main() {
    let flags = CommonFlags::parse("usage: ablation_decomp [--json PATH]");
    let scale = scale_from_env().max(64);
    println!(
        "{}",
        banner(
            "Ablation: linear vs block decomposition (CPU baseline)",
            scale
        )
    );
    let e = Experiment {
        name: "decomp",
        grid_side: paper::STRONG_GRID,
        num_foi: paper::STRONG_FOI,
        steps: paper::STEPS,
        machine: paper::STRONG_MACHINES[1], // {8, 256}
    };
    let mut table = Table::new(&[
        "decomposition",
        "ranks",
        "p2p RPCs",
        "bulk puts",
        "boundary bytes",
        "max-rank voxel updates",
    ]);
    let mut rows = Vec::new();
    for (strategy, name) in [
        (Strategy::Blocks, "blocks"),
        (Strategy::Linear, "linear strips"),
    ] {
        for ranks in [64usize, 128] {
            let se = ScaledExperiment::new(e, scale, 1);
            let cfg = CpuSimConfig::new(se.params, ranks).with_strategy(strategy);
            let mut sim = CpuSim::new(cfg).expect("valid config");
            sim.run().expect("healthy run");
            let cc = sim.comm_counters();
            let max_updates = sim.max_unit_counters().update.elements;
            table.row(vec![
                name.to_string(),
                ranks.to_string(),
                cc.messages.to_string(),
                cc.bulk_messages.to_string(),
                (cc.bytes + cc.bulk_bytes).to_string(),
                max_updates.to_string(),
            ]);
            rows.push(Json::obj([
                ("decomposition", Json::from(name)),
                ("ranks", Json::from(ranks)),
                ("p2p_rpcs", Json::from(cc.messages)),
                ("bulk_puts", Json::from(cc.bulk_messages)),
                ("boundary_bytes", Json::from(cc.bytes + cc.bulk_bytes)),
                ("max_rank_voxel_updates", Json::from(max_updates)),
            ]));
        }
    }
    println!("{}", table.render());
    println!(
        "Expected: strips move more boundary bytes (longer cut) but in fewer, larger\n\
         puts; blocks cut total boundary length at the cost of 8-neighbor exchanges.\n\
         Both produce bitwise-identical simulations (tests/cross_executor.rs)."
    );
    if let Some(path) = flags.json {
        write_json(&path, &Json::obj([("rows", Json::Arr(rows))]));
    }
}
