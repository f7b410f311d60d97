//! What one child process of the bench binary does: one timed repetition,
//! one untimed check run, or one traced run of a workload. A child starts
//! with a clean allocator and its own `VmHWM`, does its one job, and prints a
//! single JSON object on its last line; the parent only aggregates.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pgas::Crc64;
use simcov_core::checkpoint::RunCheckpoint;
use simcov_core::integrity::crc_run;
use simcov_core::json::Json;
use simcov_core::stats::TimeSeries;
use simcov_driver::Simulation;
use simcov_sweep::{JobReport, JobSpec, JobStatus, SweepConfig, SweepServer};
use simcov_telemetry::Telemetry;

use crate::micro;
use crate::shadow;
use crate::spans::{self, Recorder, Span};
use crate::stats::{percentile, sorted};
use crate::workloads::{Exec, Plan, SimPlan, SweepPlan};

/// Everything the benchmark writes lands here (relative to the checkout
/// root, which `run.sh` makes the working directory).
pub const OUT_DIR: &str = "benchmark/out";

/// Constructions timed per repetition: as many as fit 150 ms, at least 5
/// and at most 101. `setup_s` is the fastest of them: a fresh process's
/// first handful run several times slower while the allocator settles, and
/// sub-millisecond constructions (thread spawn, first-touch allocation)
/// scatter by tens of percent with the host's mood, so the cheap ones are
/// sampled by the hundred and the floor is what is reported.
const SETUP_BUDGET: Duration = Duration::from_millis(150);
const SETUP_SAMPLES: std::ops::RangeInclusive<usize> = 5..=101;

/// Time `build` repeatedly, keeping only the last value alive (so the peak
/// RSS stays a single run's). Returns the samples and the last value built.
fn timed_setups<T>(mut build: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut samples = Vec::new();
    let mut last = None;
    let t0 = Instant::now();
    while samples.len() < *SETUP_SAMPLES.start()
        || (samples.len() < *SETUP_SAMPLES.end() && t0.elapsed() < SETUP_BUDGET)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        samples.push(t.elapsed().as_secs_f64());
    }
    (samples, last.expect("at least one construction is timed"))
}

/// Machine-wide (busy, stolen) CPU ticks so far, from the first line of
/// `/proc/stat` (`cpu user nice system idle iowait irq softirq steal ...`).
fn parse_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let f: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (f.len() >= 8).then(|| (f[0] + f[1] + f[2] + f[5] + f[6], f[7]))
}

fn cpu_ticks() -> Option<(u64, u64)> {
    parse_cpu_ticks(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Busy ticks over busy + stolen ticks between two readings; 1 when nothing
/// was stolen, nothing ran, or the readings are missing.
fn cpu_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((busy0, stolen0)), Some((busy1, stolen1))) if busy1 > busy0 => {
            let (busy, stolen) = (busy1 - busy0, stolen1.saturating_sub(stolen0));
            busy as f64 / (busy + stolen) as f64
        }
        _ => 1.0,
    }
}

/// Run `f` and return, beside its value, the share of the CPU time the
/// machine asked for meanwhile that the hypervisor let it have (the
/// benchmark is the machine's only load). It is exactly 1 unless the host
/// took CPU time away, which on a shared virtual machine it does in episodes
/// of minutes: walls then read two to four times their value, and the
/// timed run is scaled by this share to what it cost on the CPU it was
/// given (README, "How steady the numbers are").
fn with_cpu_share<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = cpu_ticks();
    let value = f();
    (value, cpu_share(before, cpu_ticks()))
}

fn hex(v: u64) -> String {
    format!("{v:016x}")
}

/// One CRC-64 per history row over the exact bits of every field, so the
/// parent can count the steps on which two runs differ.
fn row_crcs(history: &TimeSeries) -> Vec<String> {
    history
        .steps
        .iter()
        .map(|s| {
            let mut crc = Crc64::new();
            crc.write_u64(s.step);
            crc.write_f64(s.virions);
            crc.write_f64(s.chemokine);
            for v in [
                s.tcells_vasculature,
                s.tcells_tissue,
                s.epi_healthy,
                s.epi_incubating,
                s.epi_expressing,
                s.epi_apoptotic,
                s.epi_dead,
                s.extravasated,
            ] {
                crc.write_u64(v);
            }
            hex(crc.finish())
        })
        .collect()
}

/// CRC-64 over the gathered world, vascular pool and step counter.
fn state_crc(cp: &RunCheckpoint) -> String {
    hex(crc_run(cp.step, &cp.world, &cp.pool))
}

/// A run's output as the children print it: one CRC per history row plus
/// the CRC of the final state.
fn output(history: &TimeSeries, state: String) -> Json {
    let mut doc = Json::Obj(Vec::new());
    doc.push("rows", row_crcs(history));
    doc.push("state", state);
    doc
}

/// History rows on which two outputs differ, the final state counting as one
/// more row.
pub fn output_mismatches(got: &Json, want: &Json) -> u64 {
    let rows = |doc: &Json| {
        doc.get("rows")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .to_vec()
    };
    let (got_rows, want_rows) = (rows(got), rows(want));
    let differing = got_rows
        .iter()
        .zip(&want_rows)
        .filter(|(a, b)| a != b)
        .count()
        + got_rows.len().abs_diff(want_rows.len());
    differing as u64 + u64::from(got.get("state") != want.get("state"))
}

/// Output rows a child's document holds (its history rows plus the state).
pub fn output_rows(doc: &Json) -> u64 {
    doc.get("rows")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len) as u64
        + 1
}

/// This process's peak resident set (`VmHWM`) in MiB.
fn vm_hwm_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn scratch_dir(tag: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!("{tag}-{}", std::process::id()))
}

/// Advance `sim` by `steps`, returning each step's latency in seconds.
fn timed_steps(sim: &mut dyn Simulation, steps: u64) -> Vec<f64> {
    (0..steps)
        .map(|_| {
            let t = Instant::now();
            sim.advance_step()
                .expect("benchmark workloads contain no failing step");
            t.elapsed().as_secs_f64()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// rep: one timed repetition, tracing off
// ---------------------------------------------------------------------------

pub fn rep(plan: &Plan) -> Json {
    match plan {
        Plan::Sim(p) => rep_sim(p),
        Plan::Sweep(p) => rep_sweep(p),
    }
}

fn rep_sim(plan: &SimPlan) -> Json {
    let (setup_s, mut sim) = timed_setups(|| plan.build());

    let ((latency, run_wall_s), run_share) = with_cpu_share(|| {
        let t0 = Instant::now();
        let latency = timed_steps(sim.as_mut(), plan.run_steps);
        (latency, t0.elapsed().as_secs_f64())
    });
    let peak = vm_hwm_mib();

    let mut doc = output(sim.history(), state_crc(&sim.checkpoint()));
    push_run_wall(&mut doc, run_wall_s, run_share);
    doc.push("setup_s", setup_s);
    doc.push(
        "latency_ms",
        latency
            .iter()
            .map(|s| s * run_share * 1e3)
            .collect::<Vec<_>>(),
    );
    doc.push("peak_rss_mib", peak);
    doc.push("jobs_done", 1u64);
    doc.push("steps_done", plan.run_steps);
    doc.push("comm", format!("{:?}", sim.comm_counters()));
    // The wire must have carried every frame both ways without losing a peer.
    let wire_ok = sim.transport_counters().is_none_or(|w| {
        w.frames_received == w.frames_sent
            && w.peers_closed == 0
            && w.peers_timed_out == 0
            && w.degraded == 0
    });
    doc.push(
        "wire_ok",
        wire_ok && sim.transport_counters().is_some() == plan.process_transport,
    );
    doc
}

/// The timed run's wall, scaled by the share of the CPU time it was given,
/// and that share. (The set-up samples stay raw: their 150 ms hold too few
/// 10 ms ticks to measure a share.)
fn push_run_wall(doc: &mut Json, run_wall_s: f64, run_share: f64) {
    doc.push("run_wall_s", run_wall_s * run_share);
    doc.push("cpu_share", run_share);
}

/// Run the whole batch on a fresh server; returns (wall seconds from
/// `submit_all` to `join`, terminal statuses in submission order).
fn run_sweep(plan: &SweepPlan, server: SweepServer) -> (f64, Vec<JobStatus>) {
    let t0 = Instant::now();
    server.submit_all(plan.jobs.iter().cloned());
    let mut results = server.join();
    let wall = t0.elapsed().as_secs_f64();
    let statuses = plan
        .jobs
        .iter()
        .map(|job| {
            let at = results
                .iter()
                .position(|(name, _)| *name == job.name)
                .expect("every submitted job reaches a terminal status");
            results.swap_remove(at).1
        })
        .collect();
    (wall, statuses)
}

fn sweep_config(plan: &SweepPlan, dir: &Path) -> SweepConfig {
    SweepConfig::new(dir)
        .with_workers(plan.workers)
        .with_pool_threads(plan.pool_threads)
}

/// Jobs whose output is wrong: not `Completed`, or a history that differs
/// from the first (serial) job of its group.
fn failed_jobs(plan: &SweepPlan, statuses: &[JobStatus]) -> u64 {
    let mut failed = 0;
    for group in statuses.chunks(plan.group) {
        let reference = group[0].report().map(|r| &r.history);
        for status in group {
            let ok = matches!((status.report(), reference), (Some(r), Some(h)) if r.history == *h);
            failed += u64::from(!ok);
        }
    }
    failed
}

fn reports(statuses: &[JobStatus]) -> impl Iterator<Item = &JobReport> {
    statuses.iter().filter_map(JobStatus::report)
}

fn rep_sweep(plan: &SweepPlan) -> Json {
    let dir = scratch_dir("sweep");
    // Set-up is the submission path: the sweep file's jobs parsed and
    // validated, then the server (directories, worker threads) started. All
    // constructions share one directory, so only the first creates it: a
    // burst of fresh directories slows itself down in the file system's
    // journal (0.3 ms became 1–2 ms for minutes), and that is not the
    // server's time.
    let sweep_file: Vec<String> = plan
        .jobs
        .iter()
        .map(|j| j.to_json().render_compact())
        .collect();
    let (setup_s, server) = timed_setups(|| {
        for text in &sweep_file {
            let doc = Json::parse(text).expect("rendered spec parses");
            let job = JobSpec::from_json(&doc).expect("rendered spec is valid");
            job.run.validate().expect("generated specs are valid");
        }
        SweepServer::start(sweep_config(plan, &dir)).expect("sweep server starts")
    });
    let ((run_wall_s, statuses), run_share) = with_cpu_share(|| run_sweep(plan, server));
    let peak = vm_hwm_mib();
    let _ = std::fs::remove_dir_all(&dir);

    let mut doc = Json::Obj(Vec::new());
    push_run_wall(&mut doc, run_wall_s, run_share);
    doc.push("setup_s", setup_s);
    doc.push("peak_rss_mib", peak);
    doc.push("jobs_done", reports(&statuses).count());
    doc.push(
        "steps_done",
        reports(&statuses).map(|r| r.steps.len()).sum::<usize>(),
    );
    doc.push("attempted", statuses.len());
    doc.push("failed", failed_jobs(plan, &statuses));
    // One digest over every job's history, in submission order.
    let mut crc = Crc64::new();
    for report in reports(&statuses) {
        for row in row_crcs(&report.history) {
            crc.update(row.as_bytes());
        }
    }
    doc.push("state", hex(crc.finish()));
    doc
}

// ---------------------------------------------------------------------------
// check: the untimed oracle run a repetition's output must equal
// ---------------------------------------------------------------------------

pub fn check(plan: &SimPlan) -> Json {
    // The process-transport workload is checked against its in-process twin
    // (whose logical comm counters must also match); everything else against
    // the serial oracle.
    let mut oracle = if plan.process_transport {
        plan.twin().build()
    } else {
        plan.oracle()
    };
    for _ in 0..plan.run_steps {
        oracle.advance_step().expect("the oracle run is fault-free");
    }
    let mut doc = output(oracle.history(), state_crc(&oracle.checkpoint()));
    if plan.process_transport {
        doc.push("comm", format!("{:?}", oracle.comm_counters()));
    }
    doc
}

// ---------------------------------------------------------------------------
// trace: the per-layer ledger
// ---------------------------------------------------------------------------

/// The per-layer metrics one traced run measured, by declared name.
#[derive(Default)]
struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }
}

/// Span totals as `<name>_s` metrics; a superstep's *self* time (its wall
/// minus the rank closures inside it) is the exchange.
fn span_metrics(m: &mut Metrics, spans: &[Span]) {
    for (name, totals) in spans::by_name(spans) {
        if name == "pgas.superstep" {
            m.set("pgas.exchange_s", totals.self_ns as f64 / 1e9);
        } else if !name.starts_with("harness.") {
            m.set(&format!("{name}_s"), totals.total_ns as f64 / 1e9);
        }
    }
    m.set("harness.attributed_share", spans::attributed_share(spans));
}

fn comm_metrics(m: &mut Metrics, comm: &pgas::CommCounters) {
    m.set("pgas.supersteps", comm.supersteps as f64);
    m.set("pgas.batches", comm.batches as f64);
    m.set("pgas.batch_bytes", comm.batch_bytes as f64);
    m.set("pgas.messages", (comm.messages + comm.bulk_messages) as f64);
}

fn write_trace(tag: &str, spans: &[Span]) {
    let path = Path::new(OUT_DIR).join(format!("{tag}.trace.json"));
    if let Err(e) = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, spans::chrome_trace(spans)))
    {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// The result a trace child prints: the measured per-layer metrics plus how
/// many output rows of the traced run were compared with the untraced run's
/// and how many differed.
fn trace_doc(m: Metrics, attempted: u64, failed: u64) -> Json {
    let mut doc = Json::Obj(Vec::new());
    doc.push("metrics", Json::obj(m.0));
    doc.push("attempted", attempted);
    doc.push("failed", failed);
    doc
}

pub fn trace(workload: &str, plan: &Plan, seed: u64) -> Json {
    let tag = format!("{workload}-seed{seed}");
    match plan {
        Plan::Sweep(p) => trace_sweep(&tag, p),
        Plan::Sim(p) if p.faults.is_some() => trace_faulted(&tag, p),
        Plan::Sim(p) => trace_shadow(workload, &tag, p, seed),
    }
}

fn trace_shadow(workload: &str, tag: &str, plan: &SimPlan, seed: u64) -> Json {
    let mut m = Metrics::default();

    // The untraced run on the same inline pool: the output the shadow loop
    // must reproduce and the wall its tracing overhead is measured against.
    // On `cpu_arc` a telemetry-on twin advances in lockstep with it, step by
    // step, so both sides of `telemetry.overhead_ratio` see the same load.
    let mut untraced = plan.build_with_threads(0);
    let tel = Telemetry::enabled(plan.units + 1, 1 << 16);
    let mut instrumented = (workload == "cpu_arc").then(|| {
        let mut sim = plan.build_with_threads(0);
        sim.enable_telemetry(tel.clone());
        sim
    });
    let (mut untraced_s, mut instrumented_s) = (0.0, 0.0);
    for _ in 0..plan.run_steps {
        untraced_s += timed_steps(untraced.as_mut(), 1)[0];
        if let Some(sim) = instrumented.as_mut() {
            instrumented_s += timed_steps(sim.as_mut(), 1)[0];
        }
    }
    if instrumented.is_some() {
        m.set("telemetry.overhead_ratio", instrumented_s / untraced_s);
        m.set("telemetry.spans_recorded", tel.recorded() as f64);
        m.set("telemetry.spans_dropped", tel.dropped() as f64);
    }
    drop(instrumented);
    let want = output(untraced.history(), state_crc(&untraced.checkpoint()));
    drop(untraced);

    let run = shadow::run(plan).expect("benchmark workloads contain no failing superstep");
    write_trace(tag, &run.spans);
    span_metrics(&mut m, &run.spans);
    m.set("harness.trace_overhead_ratio", run.wall_s / untraced_s);
    let failed = output_mismatches(&output(&run.history, hex(run.state_crc)), &want);

    comm_metrics(&mut m, &run.comm);
    m.set("core.trial_table_entries", run.trial_entries as f64);
    match plan.exec {
        Exec::Serial => {}
        Exec::Cpu => {
            m.set("simcov-cpu.build_s", run.build_s);
            m.set(
                "simcov-cpu.active_voxel_steps",
                run.active_unit_steps as f64,
            );
            m.set("simcov-cpu.active_imbalance", run.active_imbalance);
        }
        Exec::Gpu => {
            m.set("simcov-gpu.build_s", run.build_s);
            m.set("simcov-gpu.active_tile_steps", run.active_unit_steps as f64);
            m.set(
                "simcov-gpu.active_tile_fraction_mean",
                run.active_tile_fraction_mean,
            );
            let w = &run.work;
            m.set("gpusim.update_elements", w.update.elements as f64);
            m.set("gpusim.reduce_elements", w.reduce.elements as f64);
            m.set("gpusim.tile_check_elements", w.tile_check.elements as f64);
            m.set("gpusim.halo_bytes", w.halo.bytes as f64);
            m.set(
                "gpusim.kernel_launches",
                (w.update.launches + w.reduce.launches + w.tile_check.launches + w.halo.launches)
                    as f64,
            );
            // The paper-figure quantity: cost-model seconds per device.
            let model = gpusim::CostModel::default();
            m.set(
                "gpusim.model_sim_s",
                model.device_breakdown(&model.gpu, w).total() / run.units as f64,
            );
        }
    }
    if let Some(w) = &run.wire {
        m.set("pgas.wire_frames", w.frames_sent as f64);
        m.set("pgas.wire_bytes", w.bytes_sent as f64);
        m.set("pgas.wire_retransmits", w.wire_retransmits as f64);
        m.set("pgas.deadline_retries", w.deadline_retries as f64);
        // The same run over the in-process mailboxes, for the wire's cost.
        let inproc = shadow::run(&plan.twin()).expect("the in-process twin is fault-free");
        let mut twin = Metrics::default();
        span_metrics(&mut twin, &inproc.spans);
        m.set("pgas.exchange_inproc_s", twin.0["pgas.exchange_s"]);
        m.set("pgas.crc64_gb_per_s", micro::crc64_gb_per_s());
        m.set("pgas.codec_gb_per_s", micro::codec_gb_per_s(seed));
    }
    if workload == "gpu_dense" {
        let (ns_per_voxel, gb_per_s) = micro::diffuse(plan.params.dims.x);
        m.set("core.diffuse_ns_per_voxel", ns_per_voxel);
        m.set("core.diffuse_computed_gb_per_s", gb_per_s);
        m.set(
            "gpusim.tree_reduce_ns_per_elem",
            micro::tree_reduce_ns_per_elem(),
        );
    }
    trace_doc(m, output_rows(&want), failed)
}

/// `cpu_faulted`: recovery lives in the driver, so the traced run times each
/// `advance_step` and classifies it from public counter deltas — a step that
/// recovered, a step that saved a checkpoint, or a clean step.
fn trace_faulted(tag: &str, plan: &SimPlan) -> Json {
    let mut m = Metrics::default();

    let mut untraced = plan.build_with_threads(0);
    let untraced_s: f64 = timed_steps(untraced.as_mut(), plan.run_steps).iter().sum();
    let want = output(untraced.history(), state_crc(&untraced.checkpoint()));
    drop(untraced);

    let mut sim = plan.build_with_threads(0);
    let rec = Recorder::default();
    let t0 = Instant::now();
    let root = rec.open("harness.run", None, 0);
    for _ in 0..plan.run_steps {
        let before = (
            sim.recovery_log().len() + sim.integrity_log().len(),
            sim.checkpoint_stats().saves,
        );
        let id = rec.open("driver.clean_steps", Some(root), 0);
        sim.advance_step()
            .expect("benchmark workloads contain no failing step");
        rec.close(id);
        let after = (
            sim.recovery_log().len() + sim.integrity_log().len(),
            sim.checkpoint_stats().saves,
        );
        if after.0 != before.0 {
            rec.rename(id, "driver.recovery_steps");
        } else if after.1 != before.1 {
            rec.rename(id, "driver.checkpoint_steps");
        }
    }
    rec.close(root);
    let traced_s = t0.elapsed().as_secs_f64();
    let spans = rec.into_spans();
    write_trace(tag, &spans);
    span_metrics(&mut m, &spans);
    m.set("harness.trace_overhead_ratio", traced_s / untraced_s);
    let got = output(sim.history(), state_crc(&sim.checkpoint()));
    let failed = output_mismatches(&got, &want);

    comm_metrics(&mut m, &sim.comm_counters());
    let log = sim.recovery_log();
    m.set("driver.recoveries", log.len() as f64);
    m.set(
        "driver.replayed_steps",
        log.iter().map(|r| r.replayed_steps).sum::<u64>() as f64,
    );
    m.set("driver.integrity_events", sim.integrity_log().len() as f64);
    let ck = sim.checkpoint_stats();
    m.set("core.checkpoint_dense_bytes", ck.full_bytes as f64);
    m.set("core.checkpoint_delta_bytes", ck.delta_bytes as f64);
    drop(sim);

    // The fault-free twin: the cost base of the faulted run, and the source
    // of two mid-run snapshots one checkpoint period apart.
    let period = plan
        .faults
        .as_ref()
        .map_or(16, |f| f.recovery.checkpoint_period);
    let later_at = (plan.run_steps / 2).max(period);
    let mut twin = plan.twin().build_with_threads(0);
    let mut clean_s = 0.0;
    let mut earlier = None;
    let mut later = None;
    for t in 0..plan.run_steps {
        if t == later_at - period {
            earlier = Some(twin.checkpoint());
        }
        if t == later_at {
            later = Some(twin.checkpoint());
        }
        clean_s += timed_steps(twin.as_mut(), 1)[0];
    }
    m.set("driver.faulted_over_clean_ratio", untraced_s / clean_s);
    if let (Some(earlier), Some(later)) = (earlier, later) {
        let costs = micro::resilience(&earlier, &later);
        m.set("core.checkpoint_save_s", costs.checkpoint_save_s);
        m.set("core.crc_state_s", costs.crc_state_s);
        m.set("core.audit_s", costs.audit_s);
    }
    trace_doc(m, output_rows(&want), failed)
}

fn trace_sweep(tag: &str, plan: &SweepPlan) -> Json {
    let mut m = Metrics::default();
    let dir = scratch_dir("sweep-trace");
    let start = |sub: &str| {
        SweepServer::start(sweep_config(plan, &dir.join(sub))).expect("sweep server starts")
    };

    let (untraced_s, untraced) = run_sweep(plan, start("untraced"));

    let server = start("traced");
    let rec = Recorder::default();
    let root = rec.open("harness.run", None, 0);
    let id = rec.open("sweep.submit_all", Some(root), 0);
    server.submit_all(plan.jobs.iter().cloned());
    rec.close(id);
    let id = rec.open("sweep.join", Some(root), 0);
    let traced = server.join();
    rec.close(id);
    rec.close(root);
    let spans = rec.into_spans();
    let run_wall_s = spans[0].dur_ns() as f64 / 1e9;
    write_trace(tag, &spans);
    m.set("harness.attributed_share", spans::attributed_share(&spans));
    m.set("harness.trace_overhead_ratio", run_wall_s / untraced_s);

    // Same jobs, same model seeds: both runs must produce the same outputs.
    let history_of = |name: &str| {
        traced
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, s)| s.report())
            .map(|r| &r.history)
    };
    let failed = plan
        .jobs
        .iter()
        .zip(&untraced)
        .filter(|(job, status)| {
            let a = status.report().map(|r| &r.history);
            a.is_none() || a != history_of(&job.name)
        })
        .count() as u64;

    let walls: Vec<f64> = traced
        .iter()
        .filter_map(|(_, s)| s.report())
        .map(|r| r.wall_seconds)
        .collect();
    m.set("sweep.jobs_completed", walls.len() as f64);
    if !walls.is_empty() {
        m.set("sweep.job_wall_s_p50", percentile(&sorted(&walls), 50.0));
    }
    m.set(
        "sweep.overhead_s",
        run_wall_s - walls.iter().sum::<f64>() / plan.workers as f64,
    );
    m.set(
        "sweep.spec_roundtrip_us",
        micro::spec_roundtrip_us(&plan.jobs),
    );

    // Durable checkpoint cost on a mid-run snapshot of the first job's model.
    let spec = &plan.jobs[0].run;
    let mut sim = spec.build().expect("generated specs are valid");
    for _ in 0..spec.steps / 2 {
        sim.advance_step().expect("the job's model runs fault-free");
    }
    let (persist_s, load_s, bytes) =
        micro::durable(&dir.join("probe.ck"), &spec.params(), &sim.checkpoint());
    m.set("driver.durable_persist_s", persist_s);
    m.set("driver.durable_load_s", load_s);
    m.set("driver.durable_bytes", bytes as f64);
    let _ = std::fs::remove_dir_all(&dir);

    trace_doc(m, plan.jobs.len() as u64, failed)
}

/// The JSON number array `key` of a child's output.
pub fn numbers(doc: &Json, key: &str) -> Vec<f64> {
    doc.get(key)
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_share_is_busy_over_busy_plus_stolen() {
        let stat = "cpu  100 5 20 900 3 1 2 40 0 0\ncpu0 50 2 10 450 1 0 1 20 0 0\n";
        assert_eq!(parse_cpu_ticks(stat), Some((128, 40)));
        assert_eq!(parse_cpu_ticks("cpu 1 2 3"), None);
        // 300 ticks ran, 100 were stolen meanwhile.
        assert_eq!(cpu_share(Some((128, 40)), Some((428, 140))), 0.75);
        // Nothing stolen, nothing run, or no reading: the times stay raw.
        assert_eq!(cpu_share(Some((128, 40)), Some((428, 40))), 1.0);
        assert_eq!(cpu_share(Some((128, 40)), Some((128, 90))), 1.0);
        assert_eq!(cpu_share(None, Some((428, 140))), 1.0);
    }
}
