//! The reproduction suite: every table and figure of the paper's evaluation,
//! or the sections named on the command line.
//!
//! `repro_all` runs the paper suite in order (Fig 5 and Table 2 as two views
//! of one set of §4.1 trials) and writes the composite artifact
//! `BENCH_results.json`; `repro_all fig6` (any of [`SECTIONS`]) prints that
//! one report and writes JSON only where `--json <path>` points. Four
//! sections run only when named: `fault_sweep`, `sdc_sweep`,
//! `ablation_tiles` and `ablation_decomp` (`simcov_bench::sweeps`).
//! `SIMCOV_SCALE` / `SIMCOV_TRIALS` control fidelity vs. runtime of the
//! paper sections. `--metrics-out <path>` additionally writes the
//! per-section wall-clock gauges (and anything the experiments put in the
//! global registry) as Prometheus text exposition.
//!
//! The artifact carries every number the text report prints, plus the measured
//! wall-clock seconds of each section — simulated (cost-model) seconds and
//! real seconds are deliberately both present so a regression in either is
//! visible.

use simcov_bench::cli::{die_unknown, expect_value, write_or_die};
use simcov_bench::configs::{scale_from_env, trials_from_env};
use simcov_bench::experiments::{
    correctness_trials, fig4, fig5_panels, fig5_to_json, fig6, fig7, fig8, render_fig5,
    render_table1, render_table2, table1_to_json, table2_rows, table2_to_json,
};
use simcov_bench::json::write_json;
use simcov_bench::sweeps::{ablation_decomp, ablation_tiles, fault_sweep, sdc_sweep};
use simcov_core::json::Json;
use simcov_telemetry::{prometheus, Registry};
use std::time::Instant;

const SECTIONS: [&str; 11] = [
    "table1",
    "fig4",
    "fig5",
    "table2",
    "fig6",
    "fig7",
    "fig8",
    "fault_sweep",
    "sdc_sweep",
    "ablation_tiles",
    "ablation_decomp",
];
/// What no argument runs.
const SUITE: [&str; 6] = ["table1", "fig4", "fig5_and_table2", "fig6", "fig7", "fig8"];
const USAGE: &str = "usage: repro_all [SECTION]... [--json PATH] [--metrics-out PATH]\n\
                     sections: table1 fig4 fig5 table2 fig6 fig7 fig8 \
                     fault_sweep sdc_sweep ablation_tiles ablation_decomp";

/// One section's text report and JSON record. Fig 5 and Table 2 read the
/// same trials (seed base 1000), whether run alone or together.
fn run_section(name: &str, scale: u32, trials: usize) -> (String, Json) {
    match name {
        "table1" => (render_table1(scale), table1_to_json()),
        "fig4" => {
            let r = fig4(scale);
            (r.render(), r.to_json())
        }
        "fig5" => {
            let panels = fig5_panels(&correctness_trials(scale, trials));
            (render_fig5(scale, &panels), fig5_to_json(&panels))
        }
        "table2" => {
            let rows = table2_rows(&correctness_trials(scale, trials));
            (render_table2(scale, &rows), table2_to_json(&rows))
        }
        "fig5_and_table2" => {
            let t = correctness_trials(scale, trials);
            let (panels, rows) = (fig5_panels(&t), table2_rows(&t));
            let report = render_fig5(scale, &panels) + "\n" + &render_table2(scale, &rows);
            let json = Json::obj([
                ("fig5_panels", fig5_to_json(&panels)),
                ("table2_rows", table2_to_json(&rows)),
            ]);
            (report, json)
        }
        "fig6" => {
            let r = fig6(scale);
            (r.render_strong(), r.to_json())
        }
        "fig7" => {
            let r = fig7(scale);
            (r.render_weak(), r.to_json())
        }
        "fig8" => {
            let r = fig8(scale);
            (r.render(), r.to_json())
        }
        "fault_sweep" => fault_sweep(),
        "sdc_sweep" => sdc_sweep(),
        "ablation_tiles" => ablation_tiles(),
        "ablation_decomp" => ablation_decomp(),
        other => unreachable!("main admits only SECTIONS and SUITE names, not {other}"),
    }
}

fn main() {
    let scale = scale_from_env();
    let trials = trials_from_env();
    let (mut json_path, mut metrics_out, mut named) = (None, None, Vec::new());
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json_path = Some(expect_value(&a, args.next())),
            "--metrics-out" => metrics_out = Some(expect_value(&a, args.next())),
            s if SECTIONS.contains(&s) => named.push(a),
            _ => die_unknown(&a, USAGE),
        }
    }
    let sections: Vec<&str> = if named.is_empty() {
        json_path.get_or_insert_with(|| "BENCH_results.json".into());
        SUITE.to_vec()
    } else {
        named.iter().map(String::as_str).collect()
    };
    let suite_t0 = Instant::now();

    let mut doc = Json::obj([
        ("suite", Json::from("simcov-gpu-repro")),
        ("scale", Json::from(scale)),
        ("trials", Json::from(trials)),
    ]);
    for &name in &sections {
        if sections.len() > 1 {
            println!("\n################ {name} ################\n");
        }
        let t0 = Instant::now();
        let (report, json) = run_section(name, scale, trials);
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
        doc.push(name, record);
    }
    let total = suite_t0.elapsed().as_secs_f64();
    doc.push("total_wall_seconds", total);
    if let Some(path) = json_path {
        write_json(&path, &doc);
    }

    if let Some(mpath) = metrics_out {
        let reg = Registry::global();
        reg.gauge(
            "repro_total_wall_seconds",
            "wall-clock seconds for the whole repro_all suite",
        )
        .set(total);
        reg.gauge("repro_scale", "SIMCOV_SCALE fidelity knob for this run")
            .set(scale as f64);
        write_or_die(&mpath, prometheus::render(reg));
        eprintln!("prometheus metrics -> {mpath}");
    }
}
