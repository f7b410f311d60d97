//! `sweep_server` — run a batch of simulation jobs on the sweep job server.
//!
//! ```text
//! usage: sweep_server (--jobs FILE | --demo N) [--out-dir DIR]
//!        [--workers N] [--pool-threads N] [--persist-every K]
//!        [--halt-after S] [--seed N] [--json PATH]
//! ```
//!
//! `--jobs FILE` submits a JSON sweep file: either a top-level array of job
//! objects or `{"jobs": [...]}`, each job a `{"name": ..., "run": {...}}`
//! document in the [`RunSpec`] schema (see DESIGN.md for the field table).
//! `--demo N` instead generates N small seeded CPU jobs (seeds `--seed`,
//! `--seed + 1`, ...) — the self-contained way to exercise the server.
//!
//! Per job the server writes `<name>.jsonl` (streamed step/recovery/
//! integrity records), `<name>.csv` (final trajectory), a `.done` marker,
//! durable checkpoints every `--persist-every` steps, and DLQ entries under
//! `dlq/` for terminally failed jobs.
//!
//! `--halt-after S` simulates a server crash: every *freshly started* job
//! halts before computing step S and the process exits 3. Re-running the
//! same command line resumes each interrupted job from its durable
//! checkpoint (completed jobs are skipped via their `.done` markers) and
//! the final CSVs are byte-identical to an uninterrupted run.
//!
//! Exit code: 0 when every job completed (or was skipped), 3 when any job
//! was interrupted by `--halt-after`. Dead-lettered jobs do NOT fail the
//! process — the DLQ is the failure channel of a batch server; the summary
//! (and `--json`) reports their count.

use simcov_bench::cli;
use simcov_bench::json::write_json;
use simcov_core::grid::GridDims;
use simcov_core::json::Json;
use simcov_sweep::{ExecutorKind, JobSpec, JobStatus, RunSpec, SweepConfig, SweepServer};

const USAGE: &str = "usage: sweep_server (--jobs FILE | --demo N) [--out-dir DIR]\n\
                     \t[--workers N] [--pool-threads N] [--persist-every K]\n\
                     \t[--halt-after S] [--seed N] [--json PATH]";

struct Cli {
    jobs_file: Option<String>,
    demo: Option<u64>,
    out_dir: String,
    workers: usize,
    pool_threads: usize,
    persist_every: u64,
    halt_after: Option<u64>,
    seed: u64,
    json: Option<String>,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        jobs_file: None,
        demo: None,
        out_dir: "target/sweep/server".to_string(),
        workers: 2,
        pool_threads: 0,
        persist_every: 10,
        halt_after: None,
        seed: 1,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => cli.jobs_file = Some(cli::expect_value(&a, it.next())),
            "--demo" => cli.demo = Some(cli::parse_value(&a, it.next())),
            "--out-dir" => cli.out_dir = cli::expect_value(&a, it.next()),
            "--workers" => cli.workers = cli::parse_value(&a, it.next()),
            "--pool-threads" => cli.pool_threads = cli::parse_value(&a, it.next()),
            "--persist-every" => cli.persist_every = cli::parse_value(&a, it.next()),
            "--halt-after" => cli.halt_after = Some(cli::parse_value(&a, it.next())),
            "--seed" => cli.seed = cli::parse_value(&a, it.next()),
            "--json" => cli.json = Some(cli::expect_value(&a, it.next())),
            other => cli::die_unknown(other, USAGE),
        }
    }
    if cli.jobs_file.is_some() == cli.demo.is_some() {
        cli::die(format_args!(
            "exactly one of --jobs and --demo is required\n{USAGE}"
        ));
    }
    cli
}

/// Parse a sweep file: a top-level array of jobs or `{"jobs": [...]}`.
fn load_jobs(path: &str) -> Vec<JobSpec> {
    let text = cli::or_die(std::fs::read_to_string(path), format_args!("read {path}"));
    let doc = cli::or_die(Json::parse(&text), path);
    let jobs = doc
        .as_arr()
        .or_else(|| doc.get("jobs").and_then(|j| j.as_arr()))
        .ok_or("expected a job array or an object with a \"jobs\" array");
    cli::or_die(jobs, path)
        .iter()
        .enumerate()
        .map(|(i, j)| cli::or_die(JobSpec::from_json(j), format_args!("{path}: job {i}")))
        .collect()
}

/// N small seeded CPU jobs — the self-contained demo sweep.
fn demo_jobs(n: u64, base_seed: u64) -> Vec<JobSpec> {
    (0..n)
        .map(|i| {
            let run = RunSpec::test(
                ExecutorKind::Cpu,
                GridDims::new2d(16, 16),
                8,
                1,
                base_seed + i,
            )
            .with_units(2);
            JobSpec::new(format!("demo{i:04}"), run)
        })
        .collect()
}

fn main() {
    let cli = parse_cli();
    let mut jobs = match (&cli.jobs_file, cli.demo) {
        (Some(path), _) => load_jobs(path),
        (None, Some(n)) => demo_jobs(n, cli.seed),
        _ => unreachable!(),
    };
    for j in &mut jobs {
        if j.persist_every == 0 {
            j.persist_every = cli.persist_every;
        }
        if let Some(h) = cli.halt_after {
            j.halt_after = Some(h);
        }
    }
    let n_jobs = jobs.len();
    println!(
        "sweep_server: {n_jobs} jobs, {} workers, out-dir {}",
        cli.workers, cli.out_dir
    );

    let cfg = SweepConfig::new(&cli.out_dir)
        .with_workers(cli.workers)
        .with_pool_threads(cli.pool_threads);
    let server = cli::or_die(SweepServer::start(cfg), "start server");
    server.submit_all(jobs);
    let results = server.join();

    let mut completed = 0u64;
    let mut skipped = 0u64;
    let mut interrupted = 0u64;
    let mut dead = 0u64;
    for (name, status) in &results {
        match status {
            JobStatus::Completed(r) => {
                completed += 1;
                println!(
                    "  done {name}: {} steps{} ({:.3}s)",
                    r.history.steps.len(),
                    r.resumed_from
                        .map(|s| format!(", resumed from step {s}"))
                        .unwrap_or_default(),
                    r.wall_seconds
                );
            }
            JobStatus::Skipped => {
                skipped += 1;
                println!("  skip {name}: already complete");
            }
            JobStatus::Interrupted { at_step } => {
                interrupted += 1;
                println!("  halt {name}: interrupted before step {at_step}");
            }
            JobStatus::Dead(dl) => {
                dead += 1;
                println!("  DEAD {name}: {}", dl.error);
            }
        }
    }
    println!(
        "sweep_server: {completed} completed, {skipped} skipped, \
         {interrupted} interrupted, {dead} dead-lettered"
    );

    if let Some(path) = cli.json {
        write_json(
            &path,
            &Json::obj([
                ("suite", Json::from("sweep_server")),
                ("jobs", Json::from(n_jobs)),
                ("completed", Json::from(completed)),
                ("skipped", Json::from(skipped)),
                ("interrupted", Json::from(interrupted)),
                ("dead", Json::from(dead)),
            ]),
        );
    }
    if interrupted > 0 {
        std::process::exit(3);
    }
}
