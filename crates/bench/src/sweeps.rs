//! The sweeps beside the paper's figures, run as `repro_all` sections.
//!
//! - `fault_sweep`: rank-death rate × checkpoint period on the recovering
//!   BSP runtime. Every recovered run must be bitwise identical to its
//!   failure-free baseline; the rows meter checkpoint overhead (incremental
//!   vs dense bytes) and recovery cost (replayed steps and simulated
//!   backoff, the offline MTTR proxy).
//! - `sdc_sweep`: silent-data-corruption rate × integrity audit period on
//!   the self-healing runtime. Payload flips hit in-flight batches, state
//!   flips hit rank-resident state between steps, and every healed run
//!   must match its corruption-free baseline per statistic and per voxel.
//!   The rows chart the detection lattice: the batch CRC64 heals payload
//!   flips in-barrier (latency 0), the end-of-step seal scrub catches state
//!   flips one step later and rolls back (latency 1), and the invariant
//!   audit runs every `audit_period` steps as the semantic backstop.
//!   Corruption-free cells are the false-positive gate: zero integrity
//!   records, retransmits and rollbacks at every audit period.
//! - `ablation_tiles`: memory-tile side × activity-check period (§3.2).
//!   Small tiles track the active region tightly but pay for more tile
//!   checks; large tiles waste updates on mostly-inactive tiles. The check
//!   period is bounded by the tile side (the one-tile activation buffer).
//! - `ablation_decomp`: linear vs block decomposition on the CPU baseline
//!   (§2.2, Fig 1B). Strips have 2 neighbours but the longest cut; blocks
//!   the shortest cut but up to 8 neighbours.
//!
//! Both fault sweeps run their cells as [`JobSpec`]s on the sweep job
//! server, whose per-job streamed records land under
//! `target/sweep/<section>/`. Both ablations run at [`ABLATION_SCALE`]
//! whatever `SIMCOV_SCALE` says.

use crate::configs::{paper, Experiment, ScaledExperiment};
use crate::report::{banner, fmt_secs, Table};
use gpusim::{CostModel, GPU_A100};
use pgas::fault::CorruptionKind;
use pgas::FaultRates;
use simcov_core::decomp::Strategy;
use simcov_core::grid::GridDims;
use simcov_core::json::Json;
use simcov_cpu::{CpuSim, CpuSimConfig};
use simcov_driver::{RecoveryPolicy, Simulation};
use simcov_gpu::{GpuKnobs, GpuSim, GpuSimConfig};
use simcov_sweep::{
    ExecutorKind, FaultSpec, JobReport, JobSpec, RunSpec, SweepConfig, SweepServer,
};
use std::collections::HashMap;

/// Ranks of every fault-sweep run.
const RANKS: usize = 4;

/// The linear scale both ablations run at: 128 linear strips need at least
/// 128 rows, which the strong-scaling grid keeps only up to scale 78.
pub const ABLATION_SCALE: u32 = 64;

/// A sweep's rows, built one cell at a time: each cell gives its JSON
/// record and its table cells together.
struct Rows {
    table: Table,
    json: Vec<Json>,
}

impl Rows {
    fn new(header: &[&str]) -> Self {
        Rows {
            table: Table::new(header),
            json: Vec::new(),
        }
    }

    fn push<const N: usize>(&mut self, record: [(&str, Json); N], cells: Vec<String>) {
        self.json.push(Json::obj(record));
        self.table.row(cells);
    }
}

/// One fault-sweep cell: executor, fault rate, and the period swept.
type Cell = (ExecutorKind, f64, u64);

/// The failure-free run every fault-sweep cell perturbs.
fn sweep_spec(executor: ExecutorKind) -> RunSpec {
    RunSpec::test(executor, GridDims::new2d(48, 48), 120, 8, 7).with_units(RANKS)
}

/// Run both failure-free baselines and every cell on a sweep server under
/// `target/sweep/<section>`, check the two executors agree, and return
/// each cell's report beside its executor's baseline, in `cells` order.
fn run_cells(
    section: &str,
    cells: &[Cell],
    capture_world: bool,
    spec: impl Fn(Cell) -> RunSpec,
) -> Vec<(JobReport, JobReport)> {
    let out_dir = std::path::Path::new("target/sweep").join(section);
    let _ = std::fs::remove_dir_all(&out_dir); // one-shot: never resume old cells
    let server =
        SweepServer::start(SweepConfig::new(out_dir).with_workers(2)).expect("start sweep server");
    let job = |name: String, run: RunSpec| JobSpec {
        capture_world,
        ..JobSpec::new(name, run)
    };
    let baseline = |executor: ExecutorKind| format!("baseline_{}", executor.name());
    let cell_name =
        |(executor, rate, period): Cell| format!("{}_r{rate}_p{period}", executor.name());
    for executor in [ExecutorKind::Cpu, ExecutorKind::Gpu] {
        server.submit(job(baseline(executor), sweep_spec(executor)));
    }
    for &cell in cells {
        server.submit(job(cell_name(cell), spec(cell)));
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
    assert_eq!(
        reports[&baseline(ExecutorKind::Cpu)].history,
        reports[&baseline(ExecutorKind::Gpu)].history,
        "executors must agree before the sweep means anything"
    );
    cells
        .iter()
        .map(|&cell| {
            let base = &reports[&baseline(cell.0)];
            (reports[&cell_name(cell)].clone(), base.clone())
        })
        .collect()
}

/// The `fault_sweep` section.
pub fn fault_sweep() -> (String, Json) {
    const SEED: u64 = 0xFA17;
    let mut cells: Vec<Cell> = Vec::new();
    for rate in [0.0, 0.0005, 0.002] {
        for period in [4, 16, 64] {
            cells.push((ExecutorKind::Cpu, rate, period));
        }
    }
    cells.push((ExecutorKind::Gpu, 0.002, 8));
    let runs = run_cells("fault_sweep", &cells, false, |(executor, rate, period)| {
        sweep_spec(executor)
            .with_fault(FaultSpec {
                seed: SEED,
                rates: FaultRates {
                    death: rate,
                    ..FaultRates::default()
                },
            })
            .with_recovery(RecoveryPolicy {
                checkpoint_period: period,
                ..RecoveryPolicy::default()
            })
    });

    let mut rows = Rows::new(&[
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
    for (&(executor, rate, period), (report, baseline)) in cells.iter().zip(&runs) {
        let identical = baseline.history == report.history;
        assert!(
            identical,
            "{} rate {rate} period {period}: recovered run diverged",
            executor.name()
        );
        let recoveries = report.recoveries.len();
        let replayed: u64 = report.recoveries.iter().map(|r| r.replayed_steps).sum();
        let backoff_ns: u64 = report.recoveries.iter().map(|r| r.backoff_ns).sum();
        let mean_replayed = if recoveries == 0 {
            0.0
        } else {
            replayed as f64 / recoveries as f64
        };
        let ck = &report.checkpoints;
        rows.push(
            [
                ("executor", Json::from(executor.name())),
                ("death_rate", Json::from(rate)),
                ("checkpoint_period", Json::from(period)),
                ("recoveries", Json::from(recoveries)),
                ("replayed_steps", Json::from(replayed)),
                ("mean_replayed_steps", Json::from(mean_replayed)),
                ("backoff_ns", Json::from(backoff_ns)),
                ("survivors", Json::from(report.survivors)),
                ("checkpoint_saves", Json::from(ck.saves)),
                ("checkpoint_full_bytes", Json::from(ck.full_bytes)),
                ("checkpoint_delta_bytes", Json::from(ck.delta_bytes)),
                ("identical_to_failure_free", Json::from(identical)),
            ],
            vec![
                executor.name().to_string(),
                format!("{rate:.4}"),
                period.to_string(),
                recoveries.to_string(),
                replayed.to_string(),
                format!("{:.3}", backoff_ns as f64 / 1e6),
                report.survivors.to_string(),
                format!("{}/{}", ck.delta_bytes, ck.full_bytes),
                identical.to_string(),
            ],
        );
    }

    let p = sweep_spec(ExecutorKind::Cpu).params();
    let report = format!(
        "Fault sweep: {}x{} voxels, {} steps, {RANKS} ranks, seed {SEED:#x}\n{}\n\
         Every recovered run is bitwise identical to its failure-free baseline;\n\
         shorter checkpoint periods trade snapshot bytes for shorter replays.",
        p.dims.x,
        p.dims.y,
        p.steps,
        rows.table.render()
    );
    let json = Json::obj([
        ("suite", Json::from("fault_sweep")),
        ("ranks", Json::from(RANKS)),
        ("seed", Json::from(SEED)),
        ("rows", Json::Arr(rows.json)),
    ]);
    (report, json)
}

/// The `sdc_sweep` section.
pub fn sdc_sweep() -> (String, Json) {
    const SEED: u64 = 0x5DC0;
    let mut cells: Vec<Cell> = Vec::new();
    for rate in [0.0, 0.002, 0.008] {
        for period in [1, 4, 16] {
            cells.push((ExecutorKind::Cpu, rate, period));
        }
    }
    // The GPU rows: one clean (false-positive gate) and one corrupted.
    cells.extend([(ExecutorKind::Gpu, 0.0, 1), (ExecutorKind::Gpu, 0.008, 16)]);
    // Worlds are captured: a healed run must match its baseline per voxel,
    // not just per statistic.
    let runs = run_cells("sdc_sweep", &cells, true, |(executor, rate, period)| {
        let mut run = sweep_spec(executor)
            .with_fault(FaultSpec {
                seed: SEED,
                rates: FaultRates {
                    payload_corruption: rate,
                    state_corruption: rate,
                    ..FaultRates::default()
                },
            })
            .with_recovery(RecoveryPolicy {
                checkpoint_period: 8,
                ..RecoveryPolicy::default()
            });
        run.audit_period = Some(period);
        run
    });

    let mut rows = Rows::new(&[
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
    for (&(executor, rate, period), (report, baseline)) in cells.iter().zip(&runs) {
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
        let latency_max = latencies.iter().copied().max().unwrap_or(0);
        let count = |k: CorruptionKind| log.iter().filter(|r| r.kind == k).count();

        let identical = baseline.history == report.history;
        assert!(
            identical,
            "{name} rate {rate} period {period}: healed statistics diverged"
        );
        let base_world = baseline
            .world
            .as_ref()
            .expect("baseline captures its world");
        let cell_world = report.world.as_ref().expect("cell captures its world");
        if let Some((idx, why)) = base_world.first_difference(cell_world) {
            panic!(
                "{name} rate {rate} period {period}: healed state diverged at voxel {idx}: {why}"
            );
        }
        if rate == 0.0 {
            // The false-positive gate: a clean run must stay silent at every
            // audit period.
            assert!(
                log.is_empty() && recoveries.is_empty() && cc.retransmits == 0,
                "{name} period {period}: false positive on a clean run \
                 ({} records, {} rollbacks, {} retransmits)",
                log.len(),
                recoveries.len(),
                cc.retransmits
            );
        }

        let replayed: u64 = recoveries.iter().map(|r| r.replayed_steps).sum();
        let stats = &report.integrity_stats;
        rows.push(
            [
                ("executor", Json::from(name)),
                ("corruption_rate", Json::from(rate)),
                ("audit_period", Json::from(period)),
                ("corrupt_batches", Json::from(cc.corrupt_batches)),
                ("corruptions_landed", Json::from(cc.corruptions_landed)),
                ("retransmits", Json::from(cc.retransmits)),
                ("integrity_bytes", Json::from(cc.integrity_bytes)),
                ("payload_heals", Json::from(count(CorruptionKind::Payload))),
                ("state_detections", Json::from(count(CorruptionKind::State))),
                (
                    "checkpoint_quarantines",
                    Json::from(count(CorruptionKind::Checkpoint)),
                ),
                ("detection_latency_mean", Json::from(latency_mean)),
                ("detection_latency_max", Json::from(latency_max)),
                ("rollbacks", Json::from(recoveries.len())),
                ("replayed_steps", Json::from(replayed)),
                (
                    "backoff_ns",
                    Json::from(recoveries.iter().map(|r| r.backoff_ns).sum::<u64>()),
                ),
                ("scrubs_run", Json::from(stats.scrubs_run)),
                ("audits_run", Json::from(stats.audits_run)),
                ("identical_to_corruption_free", Json::from(identical)),
            ],
            vec![
                name.to_string(),
                format!("{rate:.4}"),
                period.to_string(),
                cc.corrupt_batches.to_string(),
                cc.corruptions_landed.to_string(),
                cc.retransmits.to_string(),
                count(CorruptionKind::State).to_string(),
                format!("{latency_mean:.2}/{latency_max}"),
                recoveries.len().to_string(),
                replayed.to_string(),
                stats.audits_run.to_string(),
                identical.to_string(),
            ],
        );
    }

    let p = sweep_spec(ExecutorKind::Cpu).params();
    let report = format!(
        "SDC sweep: {}x{} voxels, {} steps, {RANKS} ranks, seed {SEED:#x}\n{}\n\
         Every healed run is bitwise identical to its corruption-free baseline\n\
         (statistics and per-voxel state); clean cells produced zero integrity\n\
         events at every audit period.",
        p.dims.x,
        p.dims.y,
        p.steps,
        rows.table.render()
    );
    let json = Json::obj([
        ("suite", Json::from("sdc_sweep")),
        ("ranks", Json::from(RANKS)),
        ("seed", Json::from(SEED)),
        ("rows", Json::Arr(rows.json)),
    ]);
    (report, json)
}

/// The strong-scaling problem both ablations run, on `machine`.
fn ablation_experiment(name: &'static str, machine: usize) -> ScaledExperiment {
    let e = Experiment {
        name,
        grid_side: paper::STRONG_GRID,
        num_foi: paper::STRONG_FOI,
        steps: paper::STEPS,
        machine: paper::STRONG_MACHINES[machine],
    };
    ScaledExperiment::new(e, ABLATION_SCALE, 1)
}

/// The `ablation_tiles` section (Combined variant).
pub fn ablation_tiles() -> (String, Json) {
    let se = ablation_experiment("ablation", 0);
    let model = CostModel::default();
    let mut rows = Rows::new(&[
        "tile side",
        "check period",
        "update (s)",
        "tile checks (s)",
        "total compute (s)",
        "voxel updates",
    ]);
    for (tile, period) in [(2usize, 2u64), (4, 4), (8, 8), (16, 16), (8, 2), (16, 4)] {
        let cfg = GpuSimConfig::new(se.params.clone(), 4).with_exec(GpuKnobs {
            tile_side: tile,
            check_period: Some(period),
            ..GpuKnobs::default()
        });
        let mut sim = GpuSim::new(cfg).expect("valid config");
        sim.run().expect("healthy run");
        let c = sim.max_unit_counters().extrapolate(ABLATION_SCALE as f64);
        let b = model.device_breakdown(&GPU_A100, &c);
        rows.push(
            [
                ("tile_side", Json::from(tile)),
                ("check_period", Json::from(period)),
                ("update_s", Json::from(b.update_s)),
                ("tile_checks_s", Json::from(b.tile_s)),
                ("total_compute_s", Json::from(b.total())),
                ("voxel_updates", Json::from(c.update.elements)),
            ],
            vec![
                tile.to_string(),
                period.to_string(),
                fmt_secs(b.update_s),
                fmt_secs(b.tile_s),
                fmt_secs(b.total()),
                c.update.elements.to_string(),
            ],
        );
    }
    let report = format!(
        "{}\n{}\n\
         Expected: update work shrinks with tile side down to the activity granularity,\n\
         while tile-check cost grows as the period (≤ tile side) shortens.",
        banner(
            "Ablation: tile side & check period (Combined variant)",
            ABLATION_SCALE
        ),
        rows.table.render()
    );
    (report, Json::obj([("rows", Json::Arr(rows.json))]))
}

/// The `ablation_decomp` section, on the {8 nodes, 256 ranks} machine.
pub fn ablation_decomp() -> (String, Json) {
    let se = ablation_experiment("decomp", 1);
    let mut rows = Rows::new(&[
        "decomposition",
        "ranks",
        "p2p RPCs",
        "bulk puts",
        "boundary bytes",
        "max-rank voxel updates",
    ]);
    for (strategy, name) in [
        (Strategy::Blocks, "blocks"),
        (Strategy::Linear, "linear strips"),
    ] {
        for ranks in [64usize, 128] {
            let cfg = CpuSimConfig::new(se.params.clone(), ranks).with_strategy(strategy);
            let mut sim = CpuSim::new(cfg).expect("valid config");
            sim.run().expect("healthy run");
            let cc = sim.comm_counters();
            let boundary_bytes = cc.bytes + cc.bulk_bytes;
            let max_updates = sim.max_unit_counters().update.elements;
            rows.push(
                [
                    ("decomposition", Json::from(name)),
                    ("ranks", Json::from(ranks)),
                    ("p2p_rpcs", Json::from(cc.messages)),
                    ("bulk_puts", Json::from(cc.bulk_messages)),
                    ("boundary_bytes", Json::from(boundary_bytes)),
                    ("max_rank_voxel_updates", Json::from(max_updates)),
                ],
                vec![
                    name.to_string(),
                    ranks.to_string(),
                    cc.messages.to_string(),
                    cc.bulk_messages.to_string(),
                    boundary_bytes.to_string(),
                    max_updates.to_string(),
                ],
            );
        }
    }
    let report = format!(
        "{}\n{}\n\
         Expected: strips move more boundary bytes (longer cut) but in fewer, larger\n\
         puts; blocks cut total boundary length at the cost of 8-neighbor exchanges.\n\
         Both produce bitwise-identical simulations (tests/cross_executor.rs).",
        banner(
            "Ablation: linear vs block decomposition (CPU baseline)",
            ABLATION_SCALE
        ),
        rows.table.render()
    );
    (report, Json::obj([("rows", Json::Arr(rows.json))]))
}
