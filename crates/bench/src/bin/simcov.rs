//! The `simcov` command-line tool: run a simulation from a SIMCoV-style
//! config file on the executor of your choice, writing a CSV time series
//! and optional PPM visualization frames — the workflow of the original
//! open-source SIMCoV.
//!
//! ```text
//! simcov <config-file> [--executor serial|cpu|gpu] [--units N]
//!        [--out-csv FILE] [--frames DIR --n-frames K] [--variant NAME]
//!        [--json FILE] [--persist FILE] [--persist-every K]
//!        [--resume FILE] [--halt-after N]
//!        [--trace-out FILE] [--metrics-out FILE]
//!        [--transport inproc|process] [--wire-kill SUPERSTEP:RANK]
//! ```
//!
//! `--transport process` runs the exchange over the socket transport: one
//! forked worker process per rank, CRC64-sealed frames, read/write
//! deadlines with bounded retry. Results are bitwise identical to `inproc`.
//! `--wire-kill SUPERSTEP:RANK` schedules one rank death at that BSP
//! superstep (cpu/gpu executors); the run engages the default recovery
//! ladder and rides it out. Under `--transport process` the death is a real
//! SIGKILL of the rank's worker.
//!
//! `--json` writes a structured run summary; on the cpu/gpu executors it
//! includes the per-step [`StepRecord`]s of the metrics layer (agents,
//! active work units, communication volume, simulated and real seconds).
//!
//! `--trace-out` records the unified telemetry span stream (driver steps →
//! BSP supersteps → per-rank compute/exchange → GPU kernel phases) and
//! writes it as Chrome trace-event JSON (open in `chrome://tracing` or
//! Perfetto). `--metrics-out` writes the run's metric registry in
//! Prometheus text exposition. Either flag engages telemetry and the online
//! health monitor; both are pure observation — results are bitwise
//! identical with and without them.
//!
//! `--persist` writes a durable CRC-guarded checkpoint file every
//! `--persist-every` steps (atomic staged rename), `--resume` restarts a
//! run from such a file, and `--halt-after N` aborts the process right
//! after step `N` without any final persist — a SIGKILL stand-in for
//! crash-restart testing (exit code 3).

use gpusim::{KernelCategory, SharedSink, StepRecord};
use pgas::{FaultEvent, FaultKind, FaultPlan, ProcessTransportConfig, TransportMode};
use simcov_bench::cli::{die, die_unknown, expect_value, or_die, parse_value, write_or_die};
use simcov_bench::json::write_json;
use simcov_core::config::parse_config;
use simcov_core::json::Json;
use simcov_core::render::render_slice;
use simcov_core::stats::TimeSeries;
use simcov_cpu::CpuSim;
use simcov_driver::{RunConfig, SerialDriver, Simulation};
use simcov_gpu::{GpuKnobs, GpuSim, GpuVariant};
use simcov_telemetry::{chrome, prometheus, HealthConfig, Telemetry};
use std::fs;

struct Args {
    config: String,
    executor: String,
    units: usize,
    out_csv: Option<String>,
    frames: Option<String>,
    n_frames: u64,
    variant: GpuVariant,
    json: Option<String>,
    persist: Option<String>,
    persist_every: u64,
    resume: Option<String>,
    halt_after: Option<u64>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    transport: String,
    wire_kill: Option<(u64, usize)>,
}

const USAGE: &str = "usage: simcov <config-file> [--executor serial|cpu|gpu] [--units N]\n\
                     \t[--out-csv FILE] [--frames DIR] [--n-frames K]\n\
                     \t[--variant unoptimized|fast-reduction|memory-tiling|combined]\n\
                     \t[--json FILE] [--persist FILE] [--persist-every K]\n\
                     \t[--resume FILE] [--halt-after N]\n\
                     \t[--trace-out FILE] [--metrics-out FILE]\n\
                     \t[--transport inproc|process] [--wire-kill SUPERSTEP:RANK]";

fn usage() -> ! {
    die(USAGE)
}

fn parse_args() -> Args {
    let mut args = Args {
        config: String::new(),
        executor: "gpu".into(),
        units: 4,
        out_csv: None,
        frames: None,
        n_frames: 8,
        variant: GpuVariant::Combined,
        json: None,
        persist: None,
        persist_every: 10,
        resume: None,
        halt_after: None,
        trace_out: None,
        metrics_out: None,
        transport: "inproc".into(),
        wire_kill: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--executor" => args.executor = expect_value(&a, it.next()),
            "--units" => args.units = parse_value(&a, it.next()),
            "--out-csv" => args.out_csv = Some(expect_value(&a, it.next())),
            "--frames" => args.frames = Some(expect_value(&a, it.next())),
            "--n-frames" => args.n_frames = parse_value(&a, it.next()),
            "--variant" => {
                args.variant = match it.next().as_deref() {
                    Some("unoptimized") => GpuVariant::Unoptimized,
                    Some("fast-reduction") => GpuVariant::FastReduction,
                    Some("memory-tiling") => GpuVariant::MemoryTiling,
                    Some("combined") => GpuVariant::Combined,
                    _ => usage(),
                }
            }
            "--persist" => args.persist = Some(expect_value(&a, it.next())),
            "--persist-every" => {
                args.persist_every = parse_value(&a, it.next());
                if args.persist_every == 0 {
                    die("--persist-every requires a period of at least 1");
                }
            }
            "--resume" => args.resume = Some(expect_value(&a, it.next())),
            "--transport" => args.transport = expect_value(&a, it.next()),
            "--wire-kill" => {
                // SUPERSTEP:RANK — that rank dies at that BSP superstep.
                let v = expect_value(&a, it.next());
                let parsed = v
                    .split_once(':')
                    .and_then(|(s, r)| Some((s.parse().ok()?, r.parse().ok()?)));
                args.wire_kill = parsed.or_else(|| usage())
            }
            "--halt-after" => args.halt_after = Some(parse_value(&a, it.next())),
            "--json" => args.json = Some(expect_value(&a, it.next())),
            "--trace-out" => args.trace_out = Some(expect_value(&a, it.next())),
            "--metrics-out" => args.metrics_out = Some(expect_value(&a, it.next())),
            "--help" | "-h" => usage(),
            other if args.config.is_empty() && !other.starts_with('-') => {
                args.config = other.to_string()
            }
            _ => die_unknown(&a, USAGE),
        }
    }
    if args.config.is_empty() {
        usage();
    }
    args
}

/// The executor config the flags describe: every shared knob is set here,
/// once, whichever executor `exec` belongs to. A `--wire-kill` death makes
/// the plan non-empty, which engages the default recovery ladder.
fn run_config<X: Default>(
    params: simcov_core::params::SimParams,
    args: &Args,
    transport: TransportMode,
    exec: X,
) -> RunConfig<X> {
    let deaths = args.wire_kill.map(|(superstep, rank)| FaultEvent {
        superstep,
        rank,
        kind: FaultKind::RankDeath,
    });
    RunConfig::new(params, args.units)
        .with_transport(transport)
        .with_fault_plan(FaultPlan::from_events(deaths.into_iter().collect()))
        .with_exec(exec)
}

fn write_csv(path: &str, h: &TimeSeries) {
    let mut out = String::from(
        "step,virions,chemokine,tcells_vasculature,tcells_tissue,\
         epi_healthy,epi_incubating,epi_expressing,epi_apoptotic,epi_dead,extravasated\n",
    );
    for s in &h.steps {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{}\n",
            s.step,
            s.virions,
            s.chemokine,
            s.tcells_vasculature,
            s.tcells_tissue,
            s.epi_healthy,
            s.epi_incubating,
            s.epi_expressing,
            s.epi_apoptotic,
            s.epi_dead,
            s.extravasated
        ));
    }
    write_or_die(path, out);
}

fn main() {
    let args = parse_args();
    let text = or_die(
        fs::read_to_string(&args.config),
        format_args!("cannot read {}", args.config),
    );
    let params = or_die(
        parse_config(&text),
        format_args!("bad config {}", args.config),
    );
    eprintln!(
        "simcov: {}x{}x{} voxels, {} steps, {} FOI, executor {} (x{})",
        params.dims.x,
        params.dims.y,
        params.dims.z,
        params.steps,
        params.num_foi,
        args.executor,
        args.units
    );

    let steps = params.steps;
    let frame_every = (steps / args.n_frames.max(1)).max(1);
    if let Some(dir) = &args.frames {
        or_die(fs::create_dir_all(dir), format_args!("cannot create {dir}"));
    }

    let dims = params.dims;
    let num_foi = params.num_foi;
    let ck_params = params.clone();
    // The per-step metrics sink backing --json.
    let sink = SharedSink::new();
    let transport = match args.transport.as_str() {
        "inproc" => TransportMode::InProcess,
        "process" => TransportMode::Process(ProcessTransportConfig::forked()),
        _ => usage(),
    };
    let process = matches!(transport, TransportMode::Process(_));
    if args.executor == "serial" && (process || args.wire_kill.is_some()) {
        die("--transport process and --wire-kill require --executor cpu or gpu");
    }
    // One object-safe driver API over all three executors.
    const REJECTED: &str = "run configuration rejected";
    let mut driver: Box<dyn Simulation> = match args.executor.as_str() {
        "serial" => Box::new(or_die(SerialDriver::new(params), REJECTED)),
        "cpu" => Box::new(or_die(
            CpuSim::new(run_config(params, &args, transport, ())),
            REJECTED,
        )),
        "gpu" => {
            let knobs = GpuKnobs {
                variant: args.variant,
                ..GpuKnobs::default()
            };
            Box::new(or_die(
                GpuSim::new(run_config(params, &args, transport, knobs)),
                REJECTED,
            ))
        }
        _ => usage(),
    };
    if args.json.is_some() {
        driver.set_metrics_sink(Box::new(sink.clone()));
    }
    // Either exporter flag engages telemetry (track 0 for the driver and
    // runtime, one per unit) and the online health monitor.
    let telemetry = if args.trace_out.is_some() || args.metrics_out.is_some() {
        let tel = Telemetry::enabled(args.units + 1, 1 << 16);
        driver.enable_telemetry(tel.clone());
        driver.enable_health(HealthConfig::default());
        Some(tel)
    } else {
        None
    };
    if let Some(path) = &args.resume {
        // A crash mid-persist can leave a `.tmp` stage orphaned next to the
        // sealed checkpoint. Stages are never sealed generations, so sweep
        // them before restoring — otherwise they accumulate forever.
        let swept = simcov_driver::sweep_stale_stages(std::path::Path::new(path));
        if swept > 0 {
            eprintln!("swept {swept} orphaned checkpoint stage file(s)");
        }
        let cp = or_die(
            simcov_driver::load_checkpoint(std::path::Path::new(path), &ck_params),
            format_args!("cannot resume from {path}"),
        );
        let at = cp.step;
        or_die(driver.restore(&cp), format_args!("cannot restore {path}"));
        eprintln!("resumed from {path} at step {at}");
    }

    while driver.step() < steps {
        let step = driver.step() + 1;
        if let Err(e) = driver.advance_step() {
            // The run itself failed, not its input: status 1.
            eprintln!("step {step} failed: {e}");
            std::process::exit(1);
        }
        if let Some(dir) = &args.frames {
            if step.is_multiple_of(frame_every) || step == steps {
                let img = render_slice(&driver.gather_world(), 0, 512);
                let path = format!("{dir}/step_{step:06}.ppm");
                write_or_die(&path, img.to_ppm());
                eprintln!("frame {path}");
            }
        }
        if let Some(path) = &args.persist {
            if step.is_multiple_of(args.persist_every) || step == steps {
                let cp = driver.checkpoint();
                or_die(
                    simcov_driver::persist_checkpoint(std::path::Path::new(path), &ck_params, &cp),
                    format_args!("cannot persist {path}"),
                );
            }
        }
        if args.halt_after == Some(step) {
            // Simulated SIGKILL: stop dead with no final persist, CSV or
            // JSON. Only checkpoints already persisted survive.
            eprintln!("halting after step {step} (simulated crash)");
            std::process::exit(3);
        }
    }

    if let Some(tel) = &telemetry {
        publish_final_metrics(tel, driver.as_ref());
        if let Some(path) = &args.trace_out {
            write_or_die(path, chrome::render(tel, driver.health_records()));
            eprintln!(
                "chrome trace -> {path} ({} events, {} dropped, {} health findings)",
                tel.recorded(),
                tel.dropped(),
                driver.health_records().len()
            );
        }
        if let Some(path) = &args.metrics_out {
            let reg = tel.registry().expect("enabled telemetry has a registry");
            write_or_die(path, prometheus::render(reg));
            eprintln!("prometheus metrics -> {path}");
        }
    }

    let history = driver.history();
    if let Some(path) = &args.out_csv {
        write_csv(path, history);
        eprintln!("time series -> {path} ({} rows)", history.len());
    }
    if let Some(wire) = driver.transport_counters() {
        eprintln!(
            "wire: {} frames / {} bytes sent, {} retransmits, {} deadline retries, \
             {} peers closed, {} timed out, {} workers spawned (+{} respawned)",
            wire.frames_sent,
            wire.bytes_sent,
            wire.wire_retransmits,
            wire.deadline_retries,
            wire.peers_closed,
            wire.peers_timed_out,
            wire.workers_spawned,
            wire.workers_respawned,
        );
    }
    let Some(last) = history.steps.last() else {
        die("the run recorded no step");
    };
    if let Some(path) = &args.json {
        let mut doc = Json::obj([
            ("executor", Json::from(args.executor.as_str())),
            ("units", Json::from(args.units)),
            (
                "dims",
                Json::Arr(vec![
                    Json::from(dims.x),
                    Json::from(dims.y),
                    Json::from(dims.z),
                ]),
            ),
            ("steps", Json::from(steps)),
            ("num_foi", Json::from(num_foi)),
        ]);
        doc.push(
            "final",
            Json::obj([
                ("virions", Json::from(last.virions)),
                ("tcells_tissue", Json::from(last.tcells_tissue)),
                ("epi_healthy", Json::from(last.epi_healthy)),
                ("epi_dead", Json::from(last.epi_dead)),
            ]),
        );
        doc.push("step_records", step_records_json(&sink.records()));
        write_json(path, &doc);
    }
    println!(
        "final: virions {:.4e}, tissue T cells {}, healthy {}, dead {}",
        last.virions, last.tcells_tissue, last.epi_healthy, last.epi_dead
    );
}

/// Fold the run's cumulative counters, health totals and telemetry
/// self-diagnostics into the registry before the Prometheus export.
fn publish_final_metrics(tel: &Telemetry, driver: &dyn Simulation) {
    let Some(reg) = tel.registry() else { return };
    let comm = driver.comm_counters();
    reg.counter(
        "simcov_comm_messages_total",
        "Point-to-point and bulk messages delivered",
    )
    .add(comm.messages + comm.bulk_messages);
    reg.counter(
        "simcov_comm_bytes_total",
        "Point-to-point and bulk payload bytes delivered",
    )
    .add(comm.bytes + comm.bulk_bytes);
    reg.counter("simcov_supersteps_total", "BSP supersteps executed")
        .add(comm.supersteps);
    reg.counter("simcov_allreduces_total", "Statistics allreduces executed")
        .add(comm.allreduces);
    let work = driver.total_counters();
    for (cat, cc) in [
        (KernelCategory::UpdateAgents, work.update),
        (KernelCategory::ReduceStats, work.reduce),
        (KernelCategory::TileCheck, work.tile_check),
        (KernelCategory::Halo, work.halo),
    ] {
        let labels = [("phase", cat.name())];
        reg.counter_with(
            "simcov_kernel_elements_total",
            "Elements processed per kernel phase",
            &labels,
        )
        .add(cc.elements);
        reg.counter_with(
            "simcov_kernel_bytes_total",
            "Bytes touched per kernel phase",
            &labels,
        )
        .add(cc.bytes);
        reg.counter_with(
            "simcov_kernel_launches_total",
            "Kernel launches per phase",
            &labels,
        )
        .add(cc.launches);
    }
    reg.gauge("simcov_active_units", "Active work units at run end")
        .set(driver.active_units() as f64);
    for (label, count) in [
        (
            "straggler",
            driver
                .health_records()
                .iter()
                .filter(|r| r.kind.label() == "health:straggler")
                .count(),
        ),
        (
            "load-imbalance",
            driver
                .health_records()
                .iter()
                .filter(|r| r.kind.label() == "health:load-imbalance")
                .count(),
        ),
        (
            "comm-spike",
            driver
                .health_records()
                .iter()
                .filter(|r| r.kind.label() == "health:comm-spike")
                .count(),
        ),
    ] {
        reg.counter_with(
            "simcov_health_findings_total",
            "Health findings by kind",
            &[("kind", label)],
        )
        .add(count as u64);
    }
    if let Some(wire) = driver.transport_counters() {
        for (name, help, value) in [
            (
                "simcov_wire_frames_sent_total",
                "Sealed frames shipped over the socket transport",
                wire.frames_sent,
            ),
            (
                "simcov_wire_bytes_sent_total",
                "Frame bytes shipped over the socket transport",
                wire.bytes_sent,
            ),
            (
                "simcov_wire_retransmits_total",
                "Inbox deliveries re-requested after garble or drop",
                wire.wire_retransmits,
            ),
            (
                "simcov_wire_deadline_retries_total",
                "Read-deadline expiries that were retried",
                wire.deadline_retries,
            ),
            (
                "simcov_wire_workers_respawned_total",
                "Workers respawned by elastic rebuilds",
                wire.workers_respawned,
            ),
        ] {
            reg.counter(name, help).add(value);
        }
    }
    reg.counter(
        "simcov_telemetry_events_total",
        "Span events recorded across all tracks",
    )
    .add(tel.recorded());
    reg.counter(
        "simcov_telemetry_dropped_total",
        "Span events dropped to ring wraparound",
    )
    .add(tel.dropped());
}

fn step_records_json(records: &[StepRecord]) -> Json {
    Json::Arr(
        records
            .iter()
            .map(|r| {
                let mut rec = Json::obj([
                    ("step", Json::from(r.step)),
                    ("agents", Json::from(r.agents)),
                    ("virions", Json::from(r.virions)),
                    ("chemokine", Json::from(r.chemokine)),
                    ("active_units", Json::from(r.active_units)),
                    ("comm_messages", Json::from(r.comm_messages)),
                    ("comm_bytes", Json::from(r.comm_bytes)),
                    ("sim_seconds", Json::from(r.sim_seconds)),
                    ("real_seconds", Json::from(r.real_seconds)),
                ]);
                rec.push(
                    "phase_seconds",
                    Json::obj(
                        r.phases
                            .cost
                            .phases()
                            .iter()
                            .map(|&(name, secs)| (name, Json::from(secs)))
                            .collect::<Vec<_>>(),
                    ),
                );
                if !r.recoveries.is_empty() {
                    rec.push(
                        "recoveries",
                        Json::Arr(
                            r.recoveries
                                .iter()
                                .map(|rv| {
                                    Json::obj([
                                        ("failed_step", Json::from(rv.failed_step)),
                                        ("rollback_step", Json::from(rv.rollback_step)),
                                        ("replayed_steps", Json::from(rv.replayed_steps)),
                                        ("survivors", Json::from(rv.survivors)),
                                        ("attempt", Json::from(rv.attempt as u64)),
                                    ])
                                })
                                .collect(),
                        ),
                    );
                }
                rec
            })
            .collect(),
    )
}
