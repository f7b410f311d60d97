//! Smoke test of the whole harness in `--quick` mode (64², 32 steps, 4
//! jobs): every workload runs in child processes, every shadow loop passes
//! its bitwise check, and both output schemas hold — in well under 30 s.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use simcov_core::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn declared(section: &str) -> Vec<(String, String)> {
    Json::parse(BENCHMARK_JSON)
        .unwrap()
        .get(section)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (
                s("name"),
                m.get("unit").map_or(String::new(), |_| s("unit")),
            )
        })
        .collect()
}

/// The bench binary, run from the repository root as `run.sh` runs it.
fn bench() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_benchmark"));
    cmd.current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(".."));
    cmd
}

#[test]
fn quick_set_exercises_every_workload_and_the_results_schema() {
    let out = format!("benchmark/out/smoke-{}.json", std::process::id());
    let t0 = Instant::now();
    let status = bench()
        .args(["all", "--quick", "--seconds", "2", "--seed", "11"])
        .args(["--out", &out])
        .status()
        .expect("bench binary runs");
    assert!(status.success(), "quick set failed: {status}");
    assert!(
        t0.elapsed().as_secs() < 30,
        "quick set took {:?}",
        t0.elapsed()
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let text = std::fs::read_to_string(root.join(&out)).expect("results file written");
    let _ = std::fs::remove_file(root.join(&out));
    let doc = Json::parse(&text).expect("results file is JSON");
    assert_eq!(doc.get("claim"), Some(&Json::Null), "no gain is claimed");
    assert_eq!(doc.get("quick"), Some(&Json::Bool(true)));
    for key in [
        "nproc",
        "cpu_model",
        "caches",
        "copy_gb_per_s",
        "triad_gb_per_s",
    ] {
        assert!(
            doc.get("machine").unwrap().get(key).is_some(),
            "machine.{key}"
        );
    }
    for (workload, _) in declared("workloads") {
        let w = doc
            .get("workloads")
            .and_then(|ws| ws.get(&workload))
            .unwrap_or_else(|| panic!("{workload} missing from the results"));
        let e2e = w.get("end_to_end").unwrap();
        for (metric, unit) in declared("end_to_end") {
            // Results files hold a workload's own metrics only.
            let own = match metric.as_str() {
                "jobs_per_s" => workload == "sweep_64",
                "step_ms_p50" | "step_ms_p95" => workload != "sweep_64",
                _ => true,
            };
            if !own {
                assert!(e2e.get(&metric).is_none(), "{workload}: {metric} listed");
                continue;
            }
            let entry = e2e
                .get(&metric)
                .unwrap_or_else(|| panic!("{workload}: {metric} missing"));
            let value = entry.get("value").and_then(Json::as_f64).unwrap();
            assert!(value > 0.0, "{workload}: {metric} = {value}");
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(unit.as_str())
            );
            for key in ["median", "q1", "q3", "n"] {
                assert!(entry.get(key).is_some(), "{workload}: {metric}.{key}");
            }
        }
        let failed_share = e2e.get("failed_share").and_then(|e| e.get("value"));
        assert_eq!(failed_share.and_then(Json::as_f64), Some(0.0), "{workload}");
        let checks = w.get("checks").unwrap();
        assert!(checks.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        // The traced run's ledger must account for the traced wall.
        let share = w
            .get("per_layer")
            .and_then(|l| l.get("harness.attributed_share"))
            .and_then(|e| e.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{workload}: no attributed share"));
        assert!(share >= 0.95, "{workload}: attributed share {share}");
    }
}

#[test]
fn contract_lines_carry_every_declared_metric() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = bench()
            .args(["run", "--quick", "--workload", "cpu_wire16", "--seed", "3"])
            .args(["--seconds", "0.05", "--trace", trace])
            .output()
            .expect("bench binary runs");
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).unwrap();
        let doc = Json::parse(stdout.lines().last().unwrap()).expect("result line is JSON");
        let Json::Obj(fields) = &doc else {
            panic!("result line is an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("metrics is an object")
        };
        let got: Vec<(String, String)> = metrics
            .iter()
            .map(|(k, v)| {
                assert!(v.get("value").and_then(Json::as_f64).is_some(), "{k}");
                let unit = v.get("unit").and_then(Json::as_str).unwrap();
                (k.clone(), unit.to_string())
            })
            .collect();
        assert_eq!(got, declared(section), "--trace {trace}");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["run", "--workload", "no_such", "--seed", "1"][..],
        &["run", "--seed", "1"],
        &["run", "--workload", "cpu_arc", "--trace", "2"],
        &["frobnicate"],
        &[],
    ] {
        let out = bench().args(args).output().expect("bench binary runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
