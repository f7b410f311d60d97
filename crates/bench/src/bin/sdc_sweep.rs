//! SDC sweep: silent-data-corruption rate × integrity audit period on the
//! self-healing runtime.
//!
//! For every (corruption rate, audit period) cell the sweep runs the CPU
//! executor under a seeded fault plan that flips bits both in in-flight
//! coalesced batches (payload corruption) and in rank-resident state
//! between steps (state corruption), then verifies the healed trajectory is
//! bitwise identical to the corruption-free baseline — per statistic *and*
//! per voxel. GPU rows check the same machinery on the second executor.
//!
//! The cells chart the detection lattice:
//!   - batch CRC64 heals payload flips in-barrier (detection latency 0);
//!   - the end-of-step seal scrub catches state flips one step later and
//!     takes the rollback tier (latency 1 on the curves);
//!   - the ABFT invariant audit runs every `audit_period` steps as the
//!     semantic backstop, and its cost is metered via `audits_run`.
//!
//! Corruption-free cells double as the false-positive gate: at every audit
//! period they must produce zero integrity records, zero retransmits and
//! zero rollbacks.
//!
//! The cells run as [`JobSpec`]s on the sweep job server (worlds captured
//! for the per-voxel comparison); per-job streamed records land under
//! `target/sweep/sdc_sweep/`.
//!
//! `--json <path>` writes the curves (`BENCH_sdc_sweep.json` by
//! convention); `--smoke` shrinks the grid for CI; `--seed N` overrides
//! the fault-plan seed.

use pgas::fault::CorruptionKind;
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
const DEFAULT_SEED: u64 = 0x5DC0;

fn run_spec(executor: ExecutorKind, smoke: bool) -> RunSpec {
    let (dims, steps) = if smoke {
        (GridDims::new2d(32, 32), 60)
    } else {
        (GridDims::new2d(48, 48), 120)
    };
    RunSpec::test(executor, dims, steps, 8, 7).with_units(RANKS)
}

/// The sweep cell for `executor` at one (corruption rate, audit period)
/// point, as a job submission. Worlds are captured: the healed run must
/// match the baseline per voxel, not just per statistic.
fn cell_job(executor: ExecutorKind, smoke: bool, seed: u64, rate: f64, period: u64) -> JobSpec {
    let mut run = run_spec(executor, smoke)
        .with_fault(FaultSpec {
            seed,
            rates: pgas::FaultRates {
                payload_corruption: rate,
                state_corruption: rate,
                ..pgas::FaultRates::default()
            },
        })
        .with_recovery(RecoveryPolicy {
            checkpoint_period: 8,
            ..RecoveryPolicy::default()
        });
    run.audit_period = Some(period);
    JobSpec::new(cell_name(executor, rate, period), run).with_capture_world()
}

fn cell_name(executor: ExecutorKind, rate: f64, period: u64) -> String {
    format!("{}_c{rate}_a{period}", executor.name())
}

/// What one sweep cell measured.
struct Cell {
    executor: &'static str,
    corruption_rate: f64,
    audit_period: u64,
    corrupt_batches: u64,
    corruptions_landed: u64,
    retransmits: u64,
    integrity_bytes: u64,
    payload_heals: usize,
    state_detections: usize,
    checkpoint_quarantines: usize,
    detection_latency_mean: f64,
    detection_latency_max: u64,
    rollbacks: usize,
    replayed_steps: u64,
    backoff_ns: u64,
    scrubs_run: u64,
    audits_run: u64,
    identical: bool,
}

impl Cell {
    fn to_json(&self) -> Json {
        Json::obj([
            ("executor", Json::from(self.executor)),
            ("corruption_rate", Json::from(self.corruption_rate)),
            ("audit_period", Json::from(self.audit_period)),
            ("corrupt_batches", Json::from(self.corrupt_batches)),
            ("corruptions_landed", Json::from(self.corruptions_landed)),
            ("retransmits", Json::from(self.retransmits)),
            ("integrity_bytes", Json::from(self.integrity_bytes)),
            ("payload_heals", Json::from(self.payload_heals)),
            ("state_detections", Json::from(self.state_detections)),
            (
                "checkpoint_quarantines",
                Json::from(self.checkpoint_quarantines),
            ),
            (
                "detection_latency_mean",
                Json::from(self.detection_latency_mean),
            ),
            (
                "detection_latency_max",
                Json::from(self.detection_latency_max),
            ),
            ("rollbacks", Json::from(self.rollbacks)),
            ("replayed_steps", Json::from(self.replayed_steps)),
            ("backoff_ns", Json::from(self.backoff_ns)),
            ("scrubs_run", Json::from(self.scrubs_run)),
            ("audits_run", Json::from(self.audits_run)),
            ("identical_to_corruption_free", Json::from(self.identical)),
        ])
    }
}

fn collect(
    executor: ExecutorKind,
    rate: f64,
    audit_period: u64,
    report: &JobReport,
    baseline: &JobReport,
) -> Cell {
    let name = executor.name();
    let cc = &report.comm;
    let log = &report.integrity;
    let recoveries = &report.recoveries;

    let latencies: Vec<u64> = log.iter().map(|r| r.step - r.injected_step).collect();
    let latency_mean = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
    };
    let count = |k: CorruptionKind| log.iter().filter(|r| r.kind == k).count();

    let identical = baseline.history == report.history;
    assert!(
        identical,
        "{name} rate {rate} period {audit_period}: healed statistics diverged"
    );
    let base_world = baseline
        .world
        .as_ref()
        .expect("baseline captures its world");
    let cell_world = report.world.as_ref().expect("cell captures its world");
    if let Some((idx, why)) = base_world.first_difference(cell_world) {
        panic!(
            "{name} rate {rate} period {audit_period}: healed state diverged at voxel {idx}: {why}"
        );
    }
    if rate == 0.0 {
        // The false-positive gate: a clean run must stay silent at every
        // audit period.
        assert!(
            log.is_empty() && recoveries.is_empty() && cc.retransmits == 0,
            "{name} period {audit_period}: false positive on a clean run \
             ({} records, {} rollbacks, {} retransmits)",
            log.len(),
            recoveries.len(),
            cc.retransmits
        );
    }

    Cell {
        executor: name,
        corruption_rate: rate,
        audit_period,
        corrupt_batches: cc.corrupt_batches,
        corruptions_landed: cc.corruptions_landed,
        retransmits: cc.retransmits,
        integrity_bytes: cc.integrity_bytes,
        payload_heals: count(CorruptionKind::Payload),
        state_detections: count(CorruptionKind::State),
        checkpoint_quarantines: count(CorruptionKind::Checkpoint),
        detection_latency_mean: latency_mean,
        detection_latency_max: latencies.iter().copied().max().unwrap_or(0),
        rollbacks: recoveries.len(),
        replayed_steps: recoveries.iter().map(|r| r.replayed_steps).sum(),
        backoff_ns: recoveries.iter().map(|r| r.backoff_ns).sum(),
        scrubs_run: report.integrity_stats.scrubs_run,
        audits_run: report.integrity_stats.audits_run,
        identical,
    }
}

fn main() {
    let flags = CommonFlags::parse("usage: sdc_sweep [--json PATH] [--smoke] [--seed N]");
    let smoke = flags.smoke;
    let seed = flags.seed.unwrap_or(DEFAULT_SEED);
    let p = run_spec(ExecutorKind::Cpu, smoke).params();
    println!(
        "SDC sweep{}: {}x{} voxels, {} steps, {RANKS} ranks, seed {seed:#x}",
        if smoke { " (smoke)" } else { "" },
        p.dims.x,
        p.dims.y,
        p.steps
    );

    let out_dir = std::path::Path::new("target/sweep/sdc_sweep");
    let _ = std::fs::remove_dir_all(out_dir); // one-shot: never resume old cells
    let server =
        SweepServer::start(SweepConfig::new(out_dir).with_workers(2)).expect("start sweep server");

    let (rates, periods): (&[f64], &[u64]) = if smoke {
        (&[0.0, 0.004], &[1, 8])
    } else {
        (&[0.0, 0.002, 0.008], &[1, 4, 16])
    };
    // The GPU rows: one clean (false-positive gate) and one corrupted.
    let gpu_cells = [
        (0.0, periods[0]),
        (rates[rates.len() - 1], periods[periods.len() - 1]),
    ];

    server.submit(
        JobSpec::new("baseline_cpu", run_spec(ExecutorKind::Cpu, smoke)).with_capture_world(),
    );
    server.submit(
        JobSpec::new("baseline_gpu", run_spec(ExecutorKind::Gpu, smoke)).with_capture_world(),
    );
    for &rate in rates {
        for &period in periods {
            server.submit(cell_job(ExecutorKind::Cpu, smoke, seed, rate, period));
        }
    }
    for (rate, period) in gpu_cells {
        server.submit(cell_job(ExecutorKind::Gpu, smoke, seed, rate, period));
    }

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

    let mut cells = Vec::new();
    for &rate in rates {
        for &period in periods {
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
    for (rate, period) in gpu_cells {
        let name = cell_name(ExecutorKind::Gpu, rate, period);
        cells.push(collect(
            ExecutorKind::Gpu,
            rate,
            period,
            &reports[&name],
            gpu_baseline,
        ));
    }

    let mut table = Table::new(&[
        "executor",
        "rate",
        "audit period",
        "batches hit",
        "landed",
        "retransmits",
        "state hits",
        "latency (mean/max)",
        "rollbacks",
        "replayed",
        "audits",
        "identical",
    ]);
    for c in &cells {
        table.row(vec![
            c.executor.to_string(),
            format!("{:.4}", c.corruption_rate),
            c.audit_period.to_string(),
            c.corrupt_batches.to_string(),
            c.corruptions_landed.to_string(),
            c.retransmits.to_string(),
            c.state_detections.to_string(),
            format!(
                "{:.2}/{}",
                c.detection_latency_mean, c.detection_latency_max
            ),
            c.rollbacks.to_string(),
            c.replayed_steps.to_string(),
            c.audits_run.to_string(),
            c.identical.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Every healed run is bitwise identical to its corruption-free baseline\n\
         (statistics and per-voxel state); clean cells produced zero integrity\n\
         events at every audit period."
    );

    if let Some(path) = flags.json {
        write_json(
            &path,
            &Json::obj([
                ("suite", Json::from("sdc_sweep")),
                ("smoke", Json::from(smoke)),
                ("ranks", Json::from(RANKS)),
                ("seed", Json::from(seed)),
                ("rows", Json::Arr(cells.iter().map(Cell::to_json).collect())),
            ]),
        );
    }
}
