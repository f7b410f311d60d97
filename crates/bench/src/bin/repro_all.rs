//! Run the complete reproduction suite (every table and figure) in order,
//! in-process, and write the composite machine-readable artifact
//! `BENCH_results.json` (override the path with `--json <path>`).
//! `SIMCOV_SCALE` / `SIMCOV_TRIALS` control fidelity vs. runtime.
//! `--metrics-out <path>` additionally writes the per-section wall-clock
//! gauges (and anything the experiments put in the global registry) as
//! Prometheus text exposition, so suite runtime can be scraped/plotted
//! alongside the runtime telemetry.
//!
//! The artifact carries every Fig 4/6/7/8 and Table 1/2 number the text
//! report prints, plus the measured wall-clock seconds of each section —
//! simulated (cost-model) seconds and real seconds are deliberately both
//! present so a regression in either is visible.

use simcov_bench::cli::CommonFlags;
use simcov_bench::configs::{scale_from_env, trials_from_env};
use simcov_bench::experiments::{
    correctness_trials, fig4, fig5_panels, fig5_to_json, fig6, fig7, fig8, render_fig5,
    render_table2, table1_to_json, table2_rows, table2_to_json,
};
use simcov_bench::json::write_json;
use simcov_core::json::Json;
use simcov_telemetry::{prometheus, Registry};
use std::time::Instant;

/// Run one section, printing its banner-separated report and returning its
/// JSON record alongside the wall-clock seconds it took. The wall time is
/// also published to the global metrics registry so `--metrics-out` can
/// export it.
fn section(name: &str, run: impl FnOnce() -> (String, Json)) -> (Json, f64) {
    println!("\n################ {name} ################\n");
    let t0 = Instant::now();
    let (report, json) = run();
    let wall = t0.elapsed().as_secs_f64();
    println!("{report}");
    Registry::global()
        .gauge_with(
            "repro_section_wall_seconds",
            "wall-clock seconds spent in one repro_all section",
            &[("section", name)],
        )
        .set(wall);
    let mut record = Json::obj([("wall_seconds", Json::from(wall))]);
    record.push("results", json);
    (record, wall)
}

fn main() {
    let scale = scale_from_env();
    let trials = trials_from_env();
    let flags = CommonFlags::parse("usage: repro_all [--json PATH] [--metrics-out PATH]");
    let path = flags
        .json
        .unwrap_or_else(|| "BENCH_results.json".to_string());
    let metrics_path = flags.metrics_out;
    let suite_t0 = Instant::now();

    let mut doc = Json::obj([
        ("suite", Json::from("simcov-gpu-repro")),
        ("scale", Json::from(scale)),
        ("trials", Json::from(trials)),
    ]);

    let (table1, _) = section("table1_configs", || {
        (
            "(configuration matrix; see JSON)".to_string(),
            table1_to_json(),
        )
    });
    let (fig4_j, _) = section("fig4_breakdown", || {
        let r = fig4(scale);
        (r.render(), r.to_json())
    });
    // Fig 5 and Table 2 are two views of the same §4.1 trials; run them
    // once (Fig 5's seed convention) and report both.
    let (fig5_j, _) = section("fig5_correctness", || {
        let t = correctness_trials(scale, trials, 1000);
        let panels = fig5_panels(&t);
        let rows = table2_rows(&t);
        let mut report = render_fig5(scale, &panels);
        report.push('\n');
        report.push_str(&render_table2(scale, &rows));
        let json = Json::obj([
            ("fig5_panels", fig5_to_json(&panels)),
            ("table2_rows", table2_to_json(&rows)),
        ]);
        (report, json)
    });
    let (fig6_j, _) = section("fig6_strong", || {
        let r = fig6(scale);
        (r.render_strong(), r.to_json())
    });
    let (fig7_j, _) = section("fig7_weak", || {
        let r = fig7(scale);
        (r.render_weak(), r.to_json())
    });
    let (fig8_j, _) = section("fig8_foi", || {
        let r = fig8(scale);
        (r.render(), r.to_json())
    });

    doc.push("table1", table1);
    doc.push("fig4", fig4_j);
    doc.push("fig5_and_table2", fig5_j);
    doc.push("fig6", fig6_j);
    doc.push("fig7", fig7_j);
    doc.push("fig8", fig8_j);
    let total = suite_t0.elapsed().as_secs_f64();
    doc.push("total_wall_seconds", total);
    write_json(&path, &doc);

    if let Some(mpath) = metrics_path {
        let reg = Registry::global();
        reg.gauge(
            "repro_total_wall_seconds",
            "wall-clock seconds for the whole repro_all suite",
        )
        .set(total);
        reg.gauge("repro_scale", "SIMCOV_SCALE fidelity knob for this run")
            .set(scale as f64);
        match std::fs::write(&mpath, prometheus::render(reg)) {
            Ok(()) => eprintln!("prometheus metrics -> {mpath}"),
            Err(e) => {
                eprintln!("cannot write {mpath}: {e}");
                std::process::exit(2);
            }
        }
    }
}
