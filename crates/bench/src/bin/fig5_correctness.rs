//! Fig. 5 — correctness: CPU-vs-GPU aggregate statistics as time series
//! over a simulated infection, across several seeds (the paper's 5 trials),
//! with min/mean/max envelopes for virus count, tissue T cells and
//! apoptotic epithelial cells.
//!
//! `--json <path>` additionally writes the per-panel envelopes as JSON.

use simcov_bench::cli::CommonFlags;
use simcov_bench::configs::{scale_from_env, trials_from_env};
use simcov_bench::experiments::{correctness_trials, fig5_panels, fig5_to_json, render_fig5};
use simcov_bench::json::write_json;
use simcov_core::json::Json;

fn main() {
    let flags = CommonFlags::parse("usage: fig5_correctness [--json PATH]");
    let scale = scale_from_env();
    let trials = trials_from_env();
    let t = correctness_trials(scale, trials, 1000);
    let panels = fig5_panels(&t);
    println!("{}", render_fig5(scale, &panels));
    if let Some(path) = flags.json {
        let doc = Json::obj([
            ("trials", Json::from(trials)),
            ("panels", fig5_to_json(&panels)),
        ]);
        write_json(&path, &doc);
    }
}
