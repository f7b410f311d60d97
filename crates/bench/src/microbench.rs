//! A minimal wall-clock microbenchmark harness (the workspace's stand-in
//! for criterion, which an offline build cannot fetch).
//!
//! Each `benches/*.rs` target builds a [`Bench`], registers closures, and
//! calls [`Bench::finish`]. Timing is batched: the harness calibrates a
//! batch size whose run lasts ≥ 1 ms (so per-call overhead and clock
//! granularity wash out, even for nanosecond-scale kernels), then samples a
//! fixed number of batches and reports per-iteration min / median / mean.
//!
//! CLI (after `cargo bench -- ...`): a bare token filters benchmarks by
//! substring; `--json <path>` writes the results as JSON; other `--flags`
//! (e.g. cargo's own `--bench`) are ignored.

use crate::json::write_json;
use crate::report::Table;
use simcov_core::json::Json;
use simcov_telemetry::MonotonicClock;
use std::hint::black_box;

const TARGET_BATCH_NS: u128 = 1_000_000; // 1 ms
const MAX_BATCH: u64 = 1 << 22;
const SAMPLES: usize = 20;
const WARMUP_BATCHES: usize = 2;

#[derive(Debug, Clone)]
pub struct BenchResult {
    pub name: String,
    pub batch: u64,
    pub min_ns: f64,
    pub median_ns: f64,
    pub mean_ns: f64,
}

impl BenchResult {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("min_ns", Json::from(self.min_ns)),
            ("median_ns", Json::from(self.median_ns)),
            ("mean_ns", Json::from(self.mean_ns)),
            ("batch", Json::from(self.batch)),
        ])
    }
}

pub struct Bench {
    filter: Option<String>,
    json: Option<String>,
    samples: usize,
    results: Vec<BenchResult>,
}

impl Bench {
    /// An empty harness with no filter, no JSON sink, default sample count.
    pub fn new() -> Self {
        Bench {
            filter: None,
            json: None,
            samples: SAMPLES,
            results: Vec::new(),
        }
    }

    /// Build from the process arguments (see module docs for the CLI).
    pub fn from_args() -> Self {
        let mut b = Bench::new();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            if a == "--json" {
                b.json = it.next();
            } else if !a.starts_with('-') {
                b.filter = Some(a);
            }
        }
        b
    }

    /// Override the per-benchmark sample count (minimum 1). Smoke/CI modes
    /// use a small count: batch calibration still targets ≥ 1 ms per batch,
    /// so medians stay comparable to full runs, just noisier.
    pub fn with_samples(mut self, samples: usize) -> Self {
        self.samples = samples.max(1);
        self
    }

    fn admits(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// The batch size whose run of `f` lasts ≥ 1 ms.
    fn calibrate<R>(f: &mut impl FnMut() -> R) -> u64 {
        let mut batch = 1u64;
        loop {
            let t = Self::time_batch(batch, f);
            if t >= TARGET_BATCH_NS || batch >= MAX_BATCH {
                return batch;
            }
            // Jump close to the target, at least doubling.
            let projected = (TARGET_BATCH_NS as f64 / t.max(1) as f64).ceil() as u64;
            batch = (batch * projected.max(2)).min(MAX_BATCH);
        }
    }

    fn sample<R>(batch: u64, f: &mut impl FnMut() -> R) -> f64 {
        Self::time_batch(batch, f) as f64 / batch as f64
    }

    /// Record one benchmark's samples; returns its min.
    fn record(&mut self, name: &str, batch: u64, mut per_iter: Vec<f64>) -> f64 {
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let result = BenchResult {
            name: name.to_string(),
            batch,
            min_ns: per_iter[0],
            median_ns: per_iter[per_iter.len() / 2],
            mean_ns: per_iter.iter().sum::<f64>() / per_iter.len() as f64,
        };
        eprintln!(
            "{:<32} {:>12} min  {:>12} median",
            result.name,
            fmt_ns(result.min_ns),
            fmt_ns(result.median_ns)
        );
        self.results.push(result);
        per_iter[0]
    }

    /// Register and immediately run one benchmark.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        if !self.admits(name) {
            return;
        }
        let batch = Self::calibrate(&mut f);
        for _ in 0..WARMUP_BATCHES {
            Self::time_batch(batch, &mut f);
        }
        let per_iter = (0..self.samples)
            .map(|_| Self::sample(batch, &mut f))
            .collect();
        self.record(name, batch, per_iter);
    }

    /// Register and run two benchmarks as an interleaved A/B pair, returning
    /// the `min(b)/min(a)` time ratio over the paired samples.
    ///
    /// Sampling alternates a-batch, b-batch, a-batch, b-batch, … so each
    /// side's best sample comes from whatever quiet moment the window
    /// catches — a background burst on a shared machine inflates adjacent
    /// samples of *both* sides, never all of one side and none of the
    /// other. Sequential `bench` calls put all of `a`'s window before all
    /// of `b`'s, which turns any such burst into a spurious ratio shift —
    /// exactly what an overhead gate must not be sensitive to. Both closures
    /// must run the same nominal workload; the batch size is calibrated on
    /// `a` and shared. Returns `None` when a filter excludes either name.
    pub fn bench_pair<R, S>(
        &mut self,
        name_a: &str,
        mut f_a: impl FnMut() -> R,
        name_b: &str,
        mut f_b: impl FnMut() -> S,
    ) -> Option<f64> {
        if !self.admits(name_a) || !self.admits(name_b) {
            return None;
        }
        let batch = Self::calibrate(&mut f_a);
        for _ in 0..WARMUP_BATCHES {
            Self::time_batch(batch, &mut f_a);
            Self::time_batch(batch, &mut f_b);
        }
        let mut per_a = Vec::with_capacity(self.samples);
        let mut per_b = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            per_a.push(Self::sample(batch, &mut f_a));
            per_b.push(Self::sample(batch, &mut f_b));
        }
        let min_a = self.record(name_a, batch, per_a);
        Some(self.record(name_b, batch, per_b) / min_a)
    }

    // Same monotonic clock helper the runtime trace records with
    // (`simcov_telemetry::MonotonicClock`), so bench timings and trace span
    // durations share one time source and are directly comparable.
    fn time_batch<R>(batch: u64, f: &mut impl FnMut() -> R) -> u128 {
        let clock = MonotonicClock::new();
        for _ in 0..batch {
            black_box(f());
        }
        clock.now_ns() as u128
    }

    /// Print the summary table (and the JSON artifact, if requested) and hand
    /// the results to callers that gate on them.
    pub fn finish(self) -> Vec<BenchResult> {
        let mut table = Table::new(&["benchmark", "min", "median", "mean", "batch"]);
        for r in &self.results {
            table.row(vec![
                r.name.clone(),
                fmt_ns(r.min_ns),
                fmt_ns(r.median_ns),
                fmt_ns(r.mean_ns),
                r.batch.to_string(),
            ]);
        }
        println!("\n{}", table.render());
        if let Some(path) = &self.json {
            let doc = Json::Arr(self.results.iter().map(BenchResult::to_json).collect());
            write_json(path, &doc);
        }
        self.results
    }
}

impl Default for Bench {
    fn default() -> Self {
        Bench::new()
    }
}

/// Human-readable nanoseconds.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_trivial_closure() {
        let mut b = Bench::new().with_samples(5);
        let mut x = 0u64;
        b.bench("noop_add", || {
            x = x.wrapping_add(1);
            x
        });
        assert_eq!(b.results.len(), 1);
        let r = &b.results[0];
        assert!(r.min_ns > 0.0 && r.min_ns <= r.median_ns && r.batch >= 2);
    }

    /// The pairing mechanics only: a wall-clock range would make this test
    /// fail on a loaded machine, and `perf_gate`'s speedup floors already
    /// check that real pairs track relative cost.
    #[test]
    fn paired_ratio_is_the_min_time_ratio() {
        let mut b = Bench::new().with_samples(5);
        let work = |n: u64| {
            let mut x = 0u64;
            for i in 0..n {
                x = x.wrapping_mul(31).wrapping_add(black_box(i));
            }
            x
        };
        let ratio = b
            .bench_pair("pair/base", || work(200), "pair/double", || work(400))
            .expect("no filter set");
        assert_eq!(b.results.len(), 2);
        assert_eq!(b.results[0].batch, b.results[1].batch);
        assert_eq!(ratio, b.results[1].min_ns / b.results[0].min_ns);
        assert!(ratio.is_finite() && ratio > 0.0, "ratio {ratio}");
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut b = Bench::new().with_samples(2);
        b.filter = Some("match_me".into());
        b.bench("other", || 1u64);
        b.bench("match_me_exactly", || 1u64);
        assert_eq!(b.results.len(), 1);
        assert_eq!(b.results[0].name, "match_me_exactly");
    }

    #[test]
    fn formats_scales() {
        assert_eq!(fmt_ns(12.3), "12.3 ns");
        assert_eq!(fmt_ns(4_500.0), "4.500 us");
        assert_eq!(fmt_ns(7_800_000.0), "7.800 ms");
        assert_eq!(fmt_ns(2.5e9), "2.500 s");
    }
}
