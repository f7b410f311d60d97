//! Sweep job-server integration gates: kill-and-resume bitwise identity,
//! dead-lettering with replayable event logs, multi-tenant isolation on a
//! shared work pool, and the 100-job work-stealing sweep.

use std::fs;
use std::path::PathBuf;

use simcov_repro::pgas::fault::FaultRates;
use simcov_repro::simcov_core::foi::FoiPattern;
use simcov_repro::simcov_core::grid::GridDims;
use simcov_repro::simcov_core::json::Json;
use simcov_repro::simcov_driver::{ConfigError, RecoveryPolicy};
use simcov_repro::simcov_sweep::{
    job_paths, ExecutorKind, FaultSpec, JobSpec, JobStatus, RunSpec, SweepConfig, SweepServer,
};

/// A process-unique scratch root, wiped on entry so re-runs start clean.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simcov_sweep_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn small_run(executor: ExecutorKind, seed: u64) -> RunSpec {
    RunSpec::test(executor, GridDims::new2d(24, 24), 30, 2, seed).with_units(3)
}

/// A killed-mid-run job, resubmitted, resumes from its durable checkpoint
/// and produces a CSV byte-identical to a never-interrupted run.
#[test]
fn interrupted_job_resumes_bitwise_identical() {
    // Reference: the same job start-to-finish in its own root.
    let ref_dir = scratch("resume_ref");
    let results = {
        let srv = SweepServer::start(SweepConfig::new(&ref_dir)).expect("start");
        srv.submit(JobSpec::new("cell", small_run(ExecutorKind::Cpu, 42)).with_persist_every(7));
        srv.join()
    };
    assert!(results[0].1.is_completed(), "reference run completes");
    let (ref_csv, _, _) = job_paths(&ref_dir, "cell");
    let want = fs::read(&ref_csv).expect("reference CSV");

    // Crash: same job, killed before step 13; only checkpoints survive.
    let dir = scratch("resume");
    let job = JobSpec::new("cell", small_run(ExecutorKind::Cpu, 42))
        .with_persist_every(7)
        .with_halt_after(13);
    {
        let srv = SweepServer::start(SweepConfig::new(&dir)).expect("start");
        srv.submit(job.clone());
        let results = srv.join();
        match &results[0].1 {
            JobStatus::Interrupted { at_step } => assert_eq!(*at_step, 13),
            other => panic!("expected Interrupted, got {other:?}"),
        }
    }
    let (csv, _, _) = job_paths(&dir, "cell");
    assert!(!csv.exists(), "no CSV before completion");

    // Resume: resubmit the identical job to a fresh server on the same
    // roots. The halt is ignored on resume; the job runs to completion.
    let resumed = {
        let srv = SweepServer::start(SweepConfig::new(&dir)).expect("start");
        srv.submit(job);
        srv.join()
    };
    let report = resumed[0].1.report().expect("resumed job completes");
    let from = report.resumed_from.expect("job actually resumed");
    assert!(
        (7..13).contains(&from),
        "resumed from a persisted step, got {from}"
    );
    assert_eq!(
        fs::read(&csv).expect("resumed CSV"),
        want,
        "resumed trajectory must be byte-identical to the uninterrupted run"
    );

    // Idempotence: resubmitting a finished job is skipped via its marker.
    let again = {
        let srv = SweepServer::start(SweepConfig::new(&dir)).expect("start");
        srv.submit(JobSpec::new("cell", small_run(ExecutorKind::Cpu, 42)));
        srv.join()
    };
    assert!(matches!(again[0].1, JobStatus::Skipped));
}

/// A job whose recovery ladder is exhausted lands in the DLQ with its
/// recorded event log; replaying the log re-derives the terminal halt.
#[test]
fn ladder_exhaustion_dead_letters_with_replayable_log() {
    let dir = scratch("dlq");
    let run = small_run(ExecutorKind::Cpu, 5)
        .with_fault(FaultSpec {
            seed: 0xDEAD,
            rates: FaultRates {
                death: 1.0, // every rank dies every superstep: unrecoverable
                ..FaultRates::default()
            },
        })
        .with_recovery(RecoveryPolicy {
            checkpoint_period: 4,
            max_retries: 2,
            backoff_base_ns: 1_000,
        });
    let srv = SweepServer::start(SweepConfig::new(&dir)).expect("start");
    srv.submit(JobSpec::new("doomed", run));
    srv.wait_idle();
    let letters = srv.dead_letters();
    let results = srv.join();

    assert!(results[0].1.is_dead(), "job must dead-letter");
    assert_eq!(letters.len(), 1);
    let letter = &letters[0];
    assert!(!letter.error.is_empty());
    assert!(!letter.events.is_empty(), "event log was recorded");
    let replayed = letter.replay();
    assert!(
        replayed.halt.is_some(),
        "replaying the recorded log re-derives the terminal halt"
    );

    let (_, _, dlq) = job_paths(&dir, "doomed");
    let entry = fs::read_to_string(&dlq).expect("DLQ file written");
    assert!(entry.contains("\"dead_letter\""));
    assert!(entry.contains("\"doomed\""));
}

/// Two concurrent jobs interleaving on one shared work pool produce exactly
/// the trajectories each produces alone: no cross-contamination.
#[test]
fn concurrent_jobs_on_shared_pool_do_not_cross_contaminate() {
    // Baselines, one job at a time.
    let solo_dir = scratch("iso_solo");
    {
        let srv = SweepServer::start(SweepConfig::new(&solo_dir).with_workers(1)).expect("start");
        srv.submit(JobSpec::new("a", small_run(ExecutorKind::Cpu, 1)));
        srv.submit(JobSpec::new("b", small_run(ExecutorKind::Gpu, 2)));
        srv.join();
    }

    // The same two jobs concurrently, sharing a threaded pool.
    let dir = scratch("iso");
    {
        let cfg = SweepConfig::new(&dir).with_workers(2).with_pool_threads(2);
        let srv = SweepServer::start(cfg).expect("start");
        srv.submit(JobSpec::new("a", small_run(ExecutorKind::Cpu, 1)));
        srv.submit(JobSpec::new("b", small_run(ExecutorKind::Gpu, 2)));
        let results = srv.join();
        assert!(results.iter().all(|(_, s)| s.is_completed()));
    }

    for name in ["a", "b"] {
        let (solo_csv, _, _) = job_paths(&solo_dir, name);
        let (conc_csv, _, _) = job_paths(&dir, name);
        assert_eq!(
            fs::read(&solo_csv).unwrap(),
            fs::read(&conc_csv).unwrap(),
            "job {name:?} must be unaffected by its concurrent neighbor"
        );
    }
}

/// A 100-job seeded sweep drains across the work-stealing pool, streaming
/// per-job JSON records, every job completing.
#[test]
fn hundred_job_sweep_completes_with_streamed_records() {
    let dir = scratch("hundred");
    let cfg = SweepConfig::new(&dir).with_workers(4);
    let srv = SweepServer::start(cfg).expect("start");
    for i in 0..100u64 {
        let run = RunSpec::test(ExecutorKind::Cpu, GridDims::new2d(16, 16), 8, 1, i).with_units(2);
        srv.submit(JobSpec::new(format!("job{i:03}"), run));
    }
    let results = srv.join();
    assert_eq!(results.len(), 100);
    assert!(results.iter().all(|(_, s)| s.is_completed()));

    for i in [0u64, 57, 99] {
        let (csv, jsonl, _) = job_paths(&dir, &format!("job{i:03}"));
        assert!(csv.exists());
        let stream = fs::read_to_string(&jsonl).unwrap();
        let lines: Vec<&str> = stream.lines().collect();
        assert!(
            lines[0].contains("\"record\":\"job\""),
            "header line first: {:?}",
            lines[0]
        );
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains("\"record\":\"step\""))
                .count(),
            8,
            "one streamed record per step"
        );
    }
}

/// The value at `path` inside `doc` (object keys; decimal segments index
/// arrays).
fn slot<'a>(doc: &'a mut Json, path: &[&str]) -> &'a mut Json {
    path.iter().fold(doc, |at, seg| match at {
        Json::Obj(pairs) => pairs
            .iter_mut()
            .find(|(k, _)| k == seg)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no field {seg:?}")),
        Json::Arr(items) => &mut items[seg.parse::<usize>().expect("array index")],
        other => panic!("cannot descend into {other:?}"),
    })
}

/// Hostile numbers in a submission are typed errors naming the field —
/// never a panic, a hang, or a silently clamped value. Before the integer
/// fields were read through `Json::as_u64`, `"steps": -5` became 0,
/// `"units": 2.7` became 2, `"units": 1e30` became `usize::MAX`, and a seed
/// above 2^53 changed value.
#[test]
fn hostile_integers_are_typed_errors_in_every_field() {
    let mut run = RunSpec::test(ExecutorKind::Gpu, GridDims::new2d(24, 24), 30, 2, 7)
        .with_units(3)
        .with_fault(FaultSpec {
            seed: 9,
            rates: FaultRates {
                stall: 0.001,
                stall_ns: 5,
                ..FaultRates::default()
            },
        })
        .with_recovery(RecoveryPolicy::default());
    run.pattern = FoiPattern::CtLesions {
        clusters: 2,
        radius: 3,
    };
    run.gpu.check_period = Some(4);
    run.audit_period = Some(8);
    run.retransmit_budget = Some(2);
    let job = JobSpec::new("hostile", run)
        .with_persist_every(4)
        .with_halt_after(9);
    let doc = job.to_json();
    assert_eq!(JobSpec::from_json(&doc).expect("the clean document"), job);

    // Every integer field of both parsers.
    let fields: [&[&str]; 21] = [
        &["persist_every"],
        &["halt_after"],
        &["run", "units"],
        &["run", "dims", "0"],
        &["run", "dims", "1"],
        &["run", "dims", "2"],
        &["run", "steps"],
        &["run", "num_foi"],
        &["run", "seed"],
        &["run", "ct_lesions", "clusters"],
        &["run", "ct_lesions", "radius"],
        &["run", "tile_side"],
        &["run", "check_period"],
        &["run", "devices_per_node"],
        &["run", "fault", "seed"],
        &["run", "fault", "stall_ns"],
        &["run", "recovery", "checkpoint_period"],
        &["run", "recovery", "max_retries"],
        &["run", "recovery", "backoff_base_ns"],
        &["run", "audit_period"],
        &["run", "retransmit_budget"],
    ];
    for path in fields {
        // Negative, fractional, astronomically large, and just past the
        // last integer an f64 holds exactly (2^53 + 2).
        for hostile in [-5.0, 2.7, 1e30, 9_007_199_254_740_994.0] {
            let mut bad = doc.clone();
            *slot(&mut bad, path) = Json::Num(hostile);
            let name = path.iter().rfind(|s| s.parse::<usize>().is_err()).unwrap();
            match JobSpec::from_json(&bad) {
                Err(ConfigError::InvalidParams(msg)) => {
                    assert!(msg.contains(name), "{path:?} = {hostile}: {msg:?}")
                }
                other => panic!("{path:?} = {hostile}: expected a typed error, got {other:?}"),
            }
        }
    }
    // The largest exactly-representable integer still parses to itself.
    let mut edge = doc.clone();
    *slot(&mut edge, &["run", "seed"]) = Json::Num(9_007_199_254_740_992.0);
    assert_eq!(JobSpec::from_json(&edge).expect("2^53").run.seed, 1 << 53);
}
