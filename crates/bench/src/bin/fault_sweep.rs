//! Fault sweep: failure rate × checkpoint period on the recovering BSP
//! runtime.
//!
//! For every (death rate, checkpoint period) cell the sweep runs the CPU
//! executor under a seeded fault plan, verifies the recovered trajectory is
//! bitwise identical to the failure-free baseline, and meters what fault
//! tolerance costs: checkpoint overhead (incremental vs dense bytes) and
//! recovery cost (replayed steps + simulated backoff — the offline MTTR
//! proxy). A GPU row checks the same machinery on the second executor.
//!
//! The cells run as [`JobSpec`]s on the sweep job server — the baselines
//! and every cell are scheduled across its work-stealing worker pool and
//! read back as [`JobReport`]s; per-job streamed records land under
//! `target/sweep/fault_sweep/`.
//!
//! `--json <path>` writes the curves (`BENCH_fault_sweep.json` by
//! convention); `--seed N` overrides the fault-plan seed.

use simcov_bench::cli::CommonFlags;
use simcov_bench::json::write_json;
use simcov_bench::report::Table;
use simcov_core::grid::GridDims;
use simcov_core::json::Json;
use simcov_driver::RecoveryPolicy;
use simcov_sweep::{
    ExecutorKind, FaultSpec, JobReport, JobSpec, RunSpec, SweepConfig, SweepServer,
};
use std::collections::HashMap;

const RANKS: usize = 4;
const DEFAULT_SEED: u64 = 0xFA17;

fn run_spec(executor: ExecutorKind) -> RunSpec {
    RunSpec::test(executor, GridDims::new2d(48, 48), 120, 8, 7).with_units(RANKS)
}

/// The sweep cell for `executor` at one (death rate, checkpoint period)
/// point, as a job submission.
fn cell_job(executor: ExecutorKind, seed: u64, rate: f64, period: u64) -> JobSpec {
    let run = run_spec(executor)
        .with_fault(FaultSpec {
            seed,
            rates: pgas::FaultRates {
                death: rate,
                ..pgas::FaultRates::default()
            },
        })
        .with_recovery(RecoveryPolicy {
            checkpoint_period: period,
            ..RecoveryPolicy::default()
        });
    JobSpec::new(cell_name(executor, rate, period), run)
}

fn cell_name(executor: ExecutorKind, rate: f64, period: u64) -> String {
    format!("{}_d{rate}_p{period}", executor.name())
}

/// What one sweep cell measured.
struct Cell {
    executor: &'static str,
    death_rate: f64,
    checkpoint_period: u64,
    recoveries: usize,
    replayed_steps: u64,
    backoff_ns: u64,
    survivors: usize,
    checkpoint_saves: u64,
    checkpoint_full_bytes: u64,
    checkpoint_delta_bytes: u64,
    identical: bool,
}

impl Cell {
    /// Mean simulated time-to-repair per failure: replay + backoff, using
    /// the superstep wall-clock as the replay unit is overkill here — the
    /// curves report steps and nanoseconds separately and this scalar just
    /// orders the cells.
    fn mean_replayed(&self) -> f64 {
        if self.recoveries == 0 {
            0.0
        } else {
            self.replayed_steps as f64 / self.recoveries as f64
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("executor", Json::from(self.executor)),
            ("death_rate", Json::from(self.death_rate)),
            ("checkpoint_period", Json::from(self.checkpoint_period)),
            ("recoveries", Json::from(self.recoveries)),
            ("replayed_steps", Json::from(self.replayed_steps)),
            ("mean_replayed_steps", Json::from(self.mean_replayed())),
            ("backoff_ns", Json::from(self.backoff_ns)),
            ("survivors", Json::from(self.survivors)),
            ("checkpoint_saves", Json::from(self.checkpoint_saves)),
            (
                "checkpoint_full_bytes",
                Json::from(self.checkpoint_full_bytes),
            ),
            (
                "checkpoint_delta_bytes",
                Json::from(self.checkpoint_delta_bytes),
            ),
            ("identical_to_failure_free", Json::from(self.identical)),
        ])
    }
}

fn collect(
    executor: ExecutorKind,
    death_rate: f64,
    period: u64,
    report: &JobReport,
    baseline: &JobReport,
) -> Cell {
    let identical = baseline.history == report.history;
    assert!(
        identical,
        "{} rate {death_rate} period {period}: recovered run diverged",
        executor.name()
    );
    Cell {
        executor: executor.name(),
        death_rate,
        checkpoint_period: period,
        recoveries: report.recoveries.len(),
        replayed_steps: report.recoveries.iter().map(|r| r.replayed_steps).sum(),
        backoff_ns: report.recoveries.iter().map(|r| r.backoff_ns).sum(),
        survivors: report.survivors,
        checkpoint_saves: report.checkpoints.saves,
        checkpoint_full_bytes: report.checkpoints.full_bytes,
        checkpoint_delta_bytes: report.checkpoints.delta_bytes,
        identical,
    }
}

fn main() {
    let flags = CommonFlags::parse("usage: fault_sweep [--json PATH] [--seed N]");
    let seed = flags.seed.unwrap_or(DEFAULT_SEED);
    let p = run_spec(ExecutorKind::Cpu).params();
    println!(
        "Fault sweep: {}x{} voxels, {} steps, {RANKS} ranks, seed {seed:#x}",
        p.dims.x, p.dims.y, p.steps
    );

    let out_dir = std::path::Path::new("target/sweep/fault_sweep");
    let _ = std::fs::remove_dir_all(out_dir); // one-shot: never resume old cells
    let server =
        SweepServer::start(SweepConfig::new(out_dir).with_workers(2)).expect("start sweep server");

    const CPU_RATES: [f64; 3] = [0.0, 0.0005, 0.002];
    const PERIODS: [u64; 3] = [4, 16, 64];

    server.submit(JobSpec::new("baseline_cpu", run_spec(ExecutorKind::Cpu)));
    server.submit(JobSpec::new("baseline_gpu", run_spec(ExecutorKind::Gpu)));
    for rate in CPU_RATES {
        for period in PERIODS {
            server.submit(cell_job(ExecutorKind::Cpu, seed, rate, period));
        }
    }
    server.submit(cell_job(ExecutorKind::Gpu, seed, 0.002, 8));

    let reports: HashMap<String, JobReport> = server
        .join()
        .into_iter()
        .map(|(name, status)| {
            let report = status
                .report()
                .unwrap_or_else(|| panic!("job {name:?} must complete, got {status:?}"))
                .clone();
            (name, report)
        })
        .collect();
    let cpu_baseline = &reports["baseline_cpu"];
    let gpu_baseline = &reports["baseline_gpu"];
    assert_eq!(
        cpu_baseline.history, gpu_baseline.history,
        "executors must agree before the sweep means anything"
    );

    let mut table = Table::new(&[
        "executor",
        "death rate",
        "ckpt period",
        "recoveries",
        "replayed",
        "backoff (ms)",
        "survivors",
        "ckpt bytes (delta/full)",
        "identical",
    ]);
    let mut cells = Vec::new();
    for rate in CPU_RATES {
        for period in PERIODS {
            let name = cell_name(ExecutorKind::Cpu, rate, period);
            cells.push(collect(
                ExecutorKind::Cpu,
                rate,
                period,
                &reports[&name],
                cpu_baseline,
            ));
        }
    }
    let gpu_name = cell_name(ExecutorKind::Gpu, 0.002, 8);
    cells.push(collect(
        ExecutorKind::Gpu,
        0.002,
        8,
        &reports[&gpu_name],
        gpu_baseline,
    ));

    for c in &cells {
        table.row(vec![
            c.executor.to_string(),
            format!("{:.4}", c.death_rate),
            c.checkpoint_period.to_string(),
            c.recoveries.to_string(),
            c.replayed_steps.to_string(),
            format!("{:.3}", c.backoff_ns as f64 / 1e6),
            c.survivors.to_string(),
            format!("{}/{}", c.checkpoint_delta_bytes, c.checkpoint_full_bytes),
            c.identical.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Every recovered run is bitwise identical to its failure-free baseline;\n\
         shorter checkpoint periods trade snapshot bytes for shorter replays."
    );

    if let Some(path) = flags.json {
        write_json(
            &path,
            &Json::obj([
                ("suite", Json::from("fault_sweep")),
                ("ranks", Json::from(RANKS)),
                ("seed", Json::from(seed)),
                ("rows", Json::Arr(cells.iter().map(Cell::to_json).collect())),
            ]),
        );
    }
}
