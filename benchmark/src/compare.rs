//! Comparing two results files: each end-to-end metric's bound and
//! direction applied per workload, and the exact repetition of counts.

use simcov_core::json::Json;

use crate::bench_json::{self, MetricDecl};

/// How a metric moved from the first results file to the second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run quartile spread of either side is wider than the
    /// bound, so a change of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `failed_share` is reported in every results file but is not a declared
/// end-to-end metric (the benchmark contract wants metrics that are never 0
/// and carries failures in `failed`/`attempted` instead). Its bound is 0:
/// any increase is worse.
pub fn failed_share_decl() -> MetricDecl {
    MetricDecl {
        name: "failed_share".to_string(),
        unit: "ratio".to_string(),
        lower_is_better: true,
        bound: Some(0.0),
        gated: true,
    }
}

/// Change from `a` to `b` as a share of `a`.
fn change(a: f64, b: f64) -> f64 {
    if a != 0.0 {
        (b - a) / a.abs()
    } else if b == a {
        0.0
    } else {
        // A zero baseline has no share to take; any move off it is total.
        f64::INFINITY.copysign(b - a)
    }
}

/// Share by which `b` is worse than `a` (negative: better).
fn worsening(decl: &MetricDecl, a: f64, b: f64) -> f64 {
    if decl.lower_is_better {
        change(a, b)
    } else {
        -change(a, b)
    }
}

/// Set-up times closer together than this are the same, whatever share of
/// each other they are: most workloads construct in 0.1–4 ms, where thread
/// spawn and first-touch allocation alone move the time by a third.
const SETUP_FLOOR_S: f64 = 0.005;

/// Judge one metric given both values and the wider of the two spreads.
pub fn judge(decl: &MetricDecl, a: f64, b: f64, spread: f64) -> Verdict {
    let bound = decl.bound.expect("only bounded metrics are judged");
    if decl.name == "setup_s" && (b - a).abs() < SETUP_FLOOR_S {
        return Verdict::Same;
    }
    if spread > bound {
        return Verdict::Unresolved;
    }
    let w = worsening(decl, a, b);
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn num(entry: &Json, key: &str) -> Option<f64> {
    entry.get(key).and_then(Json::as_f64)
}

/// (value, spread) of one `{value, median, q1, q3, n, unit}` results entry:
/// the spread is the quartile distance of the repetitions' raw values as a
/// share of their median.
fn value_and_spread(entry: &Json) -> Option<(f64, f64)> {
    let value = num(entry, "value")?;
    let spread = match (num(entry, "median"), num(entry, "q1"), num(entry, "q3")) {
        (Some(median), Some(q1), Some(q3)) if median != 0.0 => (q3 - q1).abs() / median.abs(),
        _ => 0.0,
    };
    Some((value, spread))
}

/// Two results files can be compared only when they ran the same inputs for
/// the same time: a reported value is the best of its repetitions, which
/// reads lower the more repetitions there are.
fn same_settings(a: &Json, b: &Json) -> Result<(), String> {
    for key in ["seed", "seconds", "quick"] {
        if a.get(key) != b.get(key) {
            let show = |doc: &Json| {
                doc.get(key)
                    .map_or("none".to_string(), Json::render_compact)
            };
            return Err(format!(
                "the two files differ in {key:?} ({} vs {}): not comparable",
                show(a),
                show(b)
            ));
        }
    }
    Ok(())
}

/// What a comparison found.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    pub worse: usize,
    pub unresolved: usize,
    /// Count metrics that did not repeat exactly (checked when `exact`).
    pub count_mismatches: usize,
}

/// Compare results file `b` against baseline `a`, printing one row per
/// (workload, end-to-end metric). With `exact`, every count metric of the
/// per-layer ledger must also be identical (two runs of the same code).
/// Files that ran different seeds, measuring times or sizes are refused.
pub fn compare(a: &Json, b: &Json, exact: bool) -> Result<Outcome, String> {
    same_settings(a, b)?;
    let mut outcome = Outcome::default();
    let mut decls = bench_json::end_to_end();
    decls.push(failed_share_decl());
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "spread", "bound"
    );
    for workload in bench_json::workload_names() {
        let section = |doc: &Json, part: &str| -> Option<Json> {
            doc.get("workloads")?.get(&workload)?.get(part).cloned()
        };
        let (Some(ea), Some(eb)) = (section(a, "end_to_end"), section(b, "end_to_end")) else {
            println!("{workload:<12} (not in both files)");
            continue;
        };
        for decl in &decls {
            let (Some((va, sa)), Some((vb, sb))) = (
                ea.get(&decl.name).and_then(value_and_spread),
                eb.get(&decl.name).and_then(value_and_spread),
            ) else {
                continue;
            };
            let spread = sa.max(sb);
            let verdict = judge(decl, va, vb, spread);
            // An ungated metric, and an ungated workload's timings, are
            // shown, not counted; failed checks count on every workload.
            let counted = decl.name == "failed_share"
                || (decl.gated && !crate::workloads::UNGATED.contains(&workload.as_str()));
            match verdict {
                Verdict::Worse if counted => outcome.worse += 1,
                Verdict::Unresolved if counted => outcome.unresolved += 1,
                _ => {}
            }
            println!(
                "{:<12} {:<14} {:>14.6} {:>14.6} {:>+8.2}% {:>7.2}% {:>6.0}%  {}{}",
                workload,
                decl.name,
                va,
                vb,
                change(va, vb) * 100.0,
                spread * 100.0,
                decl.bound.unwrap_or(0.0) * 100.0,
                verdict.label(),
                if counted { "" } else { " (not gated)" }
            );
        }
        if exact {
            let (la, lb) = (section(a, "per_layer"), section(b, "per_layer"));
            for decl in bench_json::per_layer().iter().filter(|d| d.is_exact()) {
                let value = |l: &Option<Json>| {
                    l.as_ref()
                        .and_then(|l| l.get(&decl.name))
                        .and_then(|e| num(e, "value"))
                };
                let (va, vb) = (value(&la), value(&lb));
                if va != vb {
                    outcome.count_mismatches += 1;
                    println!(
                        "{workload:<12} {:<32} did not repeat: {va:?} vs {vb:?}",
                        decl.name
                    );
                }
            }
        }
    }
    println!(
        "{} worse, {} unresolved{}",
        outcome.worse,
        outcome.unresolved,
        if exact {
            format!(", {} count(s) not repeated", outcome.count_mismatches)
        } else {
            String::new()
        }
    );
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(lower: bool, bound: f64) -> MetricDecl {
        MetricDecl {
            name: "m".into(),
            unit: "s".into(),
            lower_is_better: lower,
            bound: Some(bound),
            gated: true,
        }
    }

    #[test]
    fn lower_is_better_metrics_worsen_upwards() {
        let d = decl(true, 0.10);
        assert_eq!(judge(&d, 10.0, 10.9, 0.02), Verdict::Same);
        assert_eq!(judge(&d, 10.0, 11.1, 0.02), Verdict::Worse);
        assert_eq!(judge(&d, 10.0, 8.9, 0.02), Verdict::Better);
    }

    #[test]
    fn higher_is_better_metrics_worsen_downwards() {
        let d = decl(false, 0.10);
        assert_eq!(judge(&d, 10.0, 8.9, 0.0), Verdict::Worse);
        assert_eq!(judge(&d, 10.0, 11.1, 0.0), Verdict::Better);
        assert_eq!(judge(&d, 10.0, 9.5, 0.0), Verdict::Same);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let d = decl(true, 0.10);
        assert_eq!(judge(&d, 10.0, 10.0, 0.11), Verdict::Unresolved);
        assert_eq!(judge(&d, 10.0, 20.0, 0.11), Verdict::Unresolved);
        assert_eq!(judge(&d, 10.0, 10.0, 0.10), Verdict::Same);
    }

    #[test]
    fn zero_bound_flags_any_increase() {
        let d = failed_share_decl();
        assert_eq!(judge(&d, 0.0, 0.0, 0.0), Verdict::Same);
        assert_eq!(judge(&d, 0.0, 0.001, 0.0), Verdict::Worse);
        assert_eq!(judge(&d, 0.01, 0.0, 0.0), Verdict::Better);
    }

    fn results(wall: f64, entries: f64) -> Json {
        let metric = |v: f64| {
            Json::obj([
                ("value", v),
                ("median", v * 1.05),
                ("q1", v * 1.04),
                ("q3", v * 1.06),
            ])
        };
        let mut workloads = Json::Obj(Vec::new());
        for w in bench_json::workload_names() {
            workloads.push(
                w,
                Json::obj([
                    ("end_to_end", Json::obj([("run_wall_s", metric(wall))])),
                    (
                        "per_layer",
                        Json::obj([("core.trial_table_entries", Json::obj([("value", entries)]))]),
                    ),
                ]),
            );
        }
        let mut doc = Json::obj([("seed", 2024.0), ("seconds", 10.0)]);
        doc.push("quick", false);
        doc.push("workloads", workloads);
        doc
    }

    #[test]
    fn compare_counts_worse_rows_and_unrepeated_counts() {
        let n = bench_json::workload_names().len();
        let base = results(10.0, 100.0);
        assert_eq!(compare(&base, &base, true), Ok(Outcome::default()));
        // Timings of ungated workloads are shown but not counted ...
        let slower = compare(&base, &results(20.0, 100.0), true).unwrap();
        let gated = bench_json::gated_workloads().len();
        assert_eq!((slower.worse, slower.count_mismatches), (gated, 0));
        // ... their counts must still repeat.
        let drifted = compare(&base, &results(10.0, 101.0), true).unwrap();
        assert_eq!((drifted.worse, drifted.count_mismatches), (0, n));
        let unchecked = compare(&base, &results(10.0, 101.0), false).unwrap();
        assert_eq!(unchecked.count_mismatches, 0);
    }

    #[test]
    fn files_of_different_seed_time_or_size_are_refused() {
        let base = results(10.0, 100.0);
        for (key, other) in [
            ("seed", Json::from(7.0)),
            ("seconds", Json::from(6.0)),
            ("quick", Json::Bool(true)),
        ] {
            let Json::Obj(mut fields) = base.clone() else {
                panic!("object")
            };
            fields.iter_mut().find(|(k, _)| k == key).unwrap().1 = other;
            let err = compare(&base, &Json::Obj(fields), false).unwrap_err();
            assert!(err.contains(key), "{err}");
        }
    }

    #[test]
    fn setup_times_within_the_floor_are_the_same() {
        let d = MetricDecl {
            name: "setup_s".into(),
            ..decl(true, 0.25)
        };
        // +100 % of 0.3 ms and a spread wider than the bound: still the same.
        assert_eq!(judge(&d, 0.0003, 0.0006, 0.4), Verdict::Same);
        assert_eq!(judge(&d, 0.040, 0.044, 0.05), Verdict::Same);
        assert_eq!(judge(&d, 0.040, 0.052, 0.05), Verdict::Worse);
        assert_eq!(
            judge(&decl(true, 0.25), 0.0003, 0.0006, 0.05),
            Verdict::Worse
        );
    }
}
