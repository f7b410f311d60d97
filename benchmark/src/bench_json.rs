//! The declarations in the repository's `BENCHMARK.json`, compiled in: the
//! one place workload names, metric names, units, directions and bounds are
//! written down. Everything the harness prints or compares reads them here.

use std::sync::OnceLock;

use simcov_core::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric. `bound` is the share of the baseline median by which
/// the metric may worsen (end-to-end metrics only).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: Option<f64>,
    /// Declared in `BENCHMARK.json`, so a change is gated on it: `compare`
    /// counts its verdicts and the contract's result line carries it.
    pub gated: bool,
}

impl MetricDecl {
    /// A count or a byte total: computed by the program, so two runs of the
    /// same code on the same seed must report it exactly equal.
    pub fn is_exact(&self) -> bool {
        self.unit == "count" || self.unit == "B"
    }
}

fn doc() -> &'static Json {
    static DOC: OnceLock<Json> = OnceLock::new();
    DOC.get_or_init(|| Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON"))
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: entry without string {key:?}"))
}

fn metrics(section: &str) -> Vec<MetricDecl> {
    doc()
        .get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no {section:?} array"))
        .iter()
        .map(|m| MetricDecl {
            name: field(m, "name").to_string(),
            unit: field(m, "unit").to_string(),
            lower_is_better: field(m, "better") == "lower",
            bound: m.get("bound").and_then(Json::as_f64),
            gated: true,
        })
        .collect()
}

/// The end-to-end metrics of a full run: the gated ones `BENCHMARK.json`
/// declares, plus `step_ms_p95`, which every results file reports and
/// `compare` judges without counting the verdict. A tail percentile is the
/// first thing a noisy neighbour moves: on the shared host this was written
/// on it swung by up to 25 % between two quarter-minutes of the same code,
/// where the wall swung by 20 % and the median step by 8 % (README, "How
/// steady the numbers are"), and the contract allows no bound above 0.25.
pub fn end_to_end() -> Vec<MetricDecl> {
    let mut decls = metrics("end_to_end");
    let p50 = decls.iter().position(|d| d.name == "step_ms_p50");
    let p95 = MetricDecl {
        name: "step_ms_p95".to_string(),
        gated: false,
        ..decls[p50.expect("step_ms_p50 is declared")].clone()
    };
    decls.insert(p50.expect("checked above") + 1, p95);
    decls
}

pub fn per_layer() -> Vec<MetricDecl> {
    metrics("per_layer")
}

/// The workloads `BENCHMARK.json` lists: the ones a change is gated on.
pub fn gated_workloads() -> Vec<String> {
    doc()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json: no \"workloads\" array")
        .iter()
        .map(|w| field(w, "name").to_string())
        .collect()
}

/// Every workload a full run measures, in order: the gated ones, then the
/// ones reported without a gate (`workloads::UNGATED`).
pub fn workload_names() -> Vec<String> {
    let mut names = gated_workloads();
    names.extend(crate::workloads::UNGATED.map(str::to_string));
    names
}

/// Seconds one contract run measures for (`run_seconds`).
pub fn run_seconds() -> f64 {
    doc()
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("BENCHMARK.json: no \"run_seconds\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// The limits of the benchmark contract that a typo could break.
    #[test]
    fn declarations_meet_the_contract() {
        let names = gated_workloads();
        assert!((2..=8).contains(&names.len()));
        for w in crate::workloads::UNGATED {
            assert!(!names.iter().any(|n| n == w), "{w} is listed and ungated");
            assert!(crate::workloads::plan(w, 1, true).is_ok(), "{w}");
        }
        for w in doc().get("workloads").and_then(Json::as_arr).unwrap() {
            assert!(valid_name(field(w, "name")));
            let why = field(w, "why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        let (e2e, layers) = (end_to_end(), per_layer());
        assert!((1..=16).contains(&e2e.len()) && (1..=128).contains(&layers.len()));
        let mut seen = std::collections::BTreeSet::new();
        for m in e2e.iter().chain(&layers) {
            assert!(valid_name(&m.name), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "{} declared twice", m.name);
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in &e2e {
            let b = m.bound.expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: {b}", m.name);
        }
        assert!(layers.iter().all(|m| m.bound.is_none()));
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(setup.unit == "s" && setup.lower_is_better);
        assert!((1.0..=60.0).contains(&run_seconds()));
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }
}
