//! Table 2 — correctness: percent agreement of peak statistics between
//! SIMCoV-CPU and SIMCoV-GPU, and their standard deviations across trials.
//!
//! `--json <path>` additionally writes the agreement rows as JSON.

use simcov_bench::cli::CommonFlags;
use simcov_bench::configs::{scale_from_env, trials_from_env};
use simcov_bench::experiments::{correctness_trials, render_table2, table2_rows, table2_to_json};
use simcov_bench::json::write_json;
use simcov_core::json::Json;

fn main() {
    let flags = CommonFlags::parse("usage: table2_agreement [--json PATH]");
    let scale = scale_from_env();
    let trials = trials_from_env();
    let t = correctness_trials(scale, trials, 2000);
    let rows = table2_rows(&t);
    println!("{}", render_table2(scale, &rows));
    if let Some(path) = flags.json {
        let doc = Json::obj([
            ("trials", Json::from(trials)),
            ("rows", table2_to_json(&rows)),
        ]);
        write_json(&path, &doc);
    }
}
