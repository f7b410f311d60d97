//! Benchmark-regression gate over the hot kernels.
//!
//! Runs the in-house microbench harness over the paths this codebase
//! optimizes — the diffusion stencil (naive per-neighbor indexing vs the
//! SoA [`StencilDeltas`] fast path vs the wide-lane chunked kernel), the
//! halo exchange (per-message delivery vs the coalesced [`Mailboxes`]
//! barrier), exact summation, a small end-to-end serial step, and a
//! truly-concurrent 4-rank CPU run on a pinned worker pool (`--threads`,
//! default 2), and a dense `GpuDevice` step against the bare stencil kernel
//! on the same grid — then:
//!
//! 1. writes the results as a JSON artifact (`--json`, default
//!    `BENCH_perf.json`),
//! 2. checks the *in-run* speedups: the wide-lane diffusion kernel must
//!    beat the naive sweep by [`MIN_DIFFUSION_SPEEDUP`] and the coalesced
//!    exchange must beat per-message delivery by [`MIN_HALO_SPEEDUP`]
//!    (machine-independent — both sides measured in the same process), and
//!    the dense GPU device step may cost at most
//!    [`MAX_GPU_STEP_OVER_STENCIL`] times the bare stencil per voxel,
//! 3. compares each kernel's best (min) time against the committed
//!    baseline (`--baseline`, default `BENCH_baseline.json`) and fails on
//!    regressions beyond the tolerance band (`--tolerance`, default 0.25).
//!    A failing pass is re-measured up to [`MAX_NOISE_RETRIES`] times with
//!    the per-kernel min merged across passes: background load can only
//!    inflate a min-based timing, so a kernel that stays over the limit on
//!    every pass is a real regression, not a noise burst.
//!
//! Every fast path is asserted bitwise identical to its naive counterpart
//! in-run before it is timed, so the gate can never trade correctness for
//! speed silently.
//!
//! `--update-baseline` rewrites the baseline from this run and skips the
//! comparison; `--smoke` cuts the sample count for CI (batch calibration
//! still targets ≥ 1 ms per batch, so minima stay comparable). Kernels
//! present in the run but absent from the baseline warn and pass, so adding
//! a benchmark does not require regenerating the baseline in the same
//! commit.
//!
//! The gate also measures the telemetry subsystem's own cost: the same
//! deterministic CPU e2e run is timed with spans/health off and on as an
//! interleaved pair (`Bench::bench_pair`), and the min/min ratio must stay
//! within [`MAX_TELEMETRY_OVERHEAD`] (the ≤15% instrumentation budget).
//! Interleaving keeps the ratio honest on shared machines, where
//! a background burst inside one side's sampling window would otherwise
//! read as instrumentation cost. `--metrics-out PATH` writes the gate's numbers
//! (plus the instrumented run's own registry) as Prometheus text
//! exposition.

use pgas::{Mailboxes, Outbox, WorkPool};
use simcov_bench::cli::{self, CommonFlags};
use simcov_bench::json::write_json;
use simcov_bench::microbench::{Bench, BenchResult};
use simcov_core::decomp::{Partition, Strategy};
use simcov_core::diffusion::{diffuse_voxel, DiffuseCoeffs};
use simcov_core::exact::ExactSum;
use simcov_core::extrav::TrialTable;
use simcov_core::fields::Field;
use simcov_core::foi::FoiPattern;
use simcov_core::grid::GridDims;
use simcov_core::json::Json;
use simcov_core::lanes::{self, KernelMode};
use simcov_core::params::SimParams;
use simcov_core::rules::extrav_voxel;
use simcov_core::serial::SerialSim;
use simcov_core::soa::StencilDeltas;
use simcov_core::world::World;
use simcov_cpu::{CpuSim, CpuSimConfig};
use simcov_driver::Simulation;
use simcov_gpu::{GpuDevice, GpuMsg, GpuVariant};
use simcov_telemetry::{prometheus, Telemetry};

/// The wide-lane diffusion kernel must hold this speedup over the naive
/// per-neighbor sweep (raised from the 1.5x floor the scalar stencil path
/// cleared; the chunked lane kernel measures well above it).
const MIN_DIFFUSION_SPEEDUP: f64 = 1.8;

/// The coalesced halo exchange must hold this speedup over per-message
/// delivery (measured ~3.5x; the floor leaves noise headroom).
const MIN_HALO_SPEEDUP: f64 = 2.0;

/// The bucket-placed extravasation trial table must hold this speedup over
/// the comparison sort it replaced (measured ~3.6x at steady-state size).
const MIN_TRIAL_TABLE_SPEEDUP: f64 = 2.0;

/// A dense `GpuDevice` step (every tile active: plan, FSM, diffusion,
/// reduction, halo pack) may cost at most this many times the bare
/// `diffuse_interior_run` stencil per voxel on the same grid. The ratio, not a
/// time, is gated: both sides run interleaved in this process. Measured ~5x;
/// it was ~17x while the step staged tuples and tested geometry per voxel.
const MAX_GPU_STEP_OVER_STENCIL: f64 = 8.0;
/// Grid side of that pair.
const GPU_STEP_SIDE: u32 = 256;

/// Instrumentation budget: a telemetry-on e2e run may cost at most 15% more
/// wall clock than the identical telemetry-off run. The measured ratio sits
/// near 1.05x when the machine is idle, so the band leaves ~10 points of
/// headroom for shared-machine cache/bandwidth contention (which taxes the
/// instrumented side harder) while still catching real regressions — a span
/// accidentally opened per voxel or per message costs multiples, not
/// percent.
const MAX_TELEMETRY_OVERHEAD: f64 = 1.15;

struct Cli {
    json: String,
    baseline: String,
    tolerance: f64,
    update_baseline: bool,
    smoke: bool,
    metrics_out: Option<String>,
    /// Worker count for the parallel-rank e2e kernel (0 = inline). CI pins
    /// this so the gate measures a reproducible concurrent configuration.
    threads: usize,
}

const USAGE: &str = "usage: perf_gate [--json PATH] [--baseline PATH] \
                     [--tolerance FRAC] [--update-baseline] [--smoke] \
                     [--threads N] [--metrics-out PATH]";

fn parse_cli() -> Cli {
    let (common, rest) = CommonFlags::parse_with_rest();
    let mut cli = Cli {
        json: common.json.unwrap_or_else(|| "BENCH_perf.json".to_string()),
        baseline: "BENCH_baseline.json".to_string(),
        tolerance: 0.25,
        update_baseline: false,
        smoke: common.smoke,
        metrics_out: common.metrics_out,
        threads: common.threads.unwrap_or(2),
    };
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => cli.baseline = cli::expect_value(&a, it.next()),
            "--tolerance" => cli.tolerance = cli::parse_value(&a, it.next()),
            "--update-baseline" => cli.update_baseline = true,
            other => cli::die_unknown(other, USAGE),
        }
    }
    cli
}

/// Two 64×64 fields with mixed magnitudes, the diffusion workload.
fn diffusion_inputs(dims: GridDims) -> (Field, Field) {
    let n = dims.nvoxels();
    let mut a = Field::zeros(n);
    let mut b = Field::zeros(n);
    for i in 0..n {
        a.set(i, ((i % 13) as f32) * 0.37 + 0.01);
        b.set(i, ((i % 7) as f32) * 1.21);
    }
    (a, b)
}

/// Pre-PR diffusion shape: every voxel walks its Moore neighborhood through
/// the bounds-checked coordinate iterator.
fn diffusion_naive(dims: GridDims, a: &Field, b: &Field, out: &mut [f32]) -> f32 {
    for (v, o) in out.iter_mut().enumerate() {
        let c = dims.coord(v);
        let mut vs = 0.0f32;
        let mut cs = 0.0f32;
        let mut nvalid = 0usize;
        for u in dims.neighbors(c) {
            vs += a.get(u);
            cs += b.get(u);
            nvalid += 1;
        }
        *o = diffuse_voxel(a.get(v), vs, nvalid, 0.15, 0.004, 1e-10)
            + diffuse_voxel(b.get(v), cs, nvalid, 0.1, 0.01, 1e-10);
    }
    out[0]
}

/// SoA/tiled diffusion shape: interior voxels gather through the
/// precomputed stride table, boundary voxels keep the checked path.
fn diffusion_stencil(
    dims: GridDims,
    st: &StencilDeltas,
    a: &Field,
    b: &Field,
    out: &mut [f32],
) -> f32 {
    for (v, o) in out.iter_mut().enumerate() {
        let c = dims.coord(v);
        let (vs, cs, nvalid) = if st.is_interior(c) {
            let (vs, cs) = st.sum2(v, a, b);
            (vs, cs, st.len())
        } else {
            let mut vs = 0.0f32;
            let mut cs = 0.0f32;
            let mut nvalid = 0usize;
            for u in dims.neighbors(c) {
                vs += a.get(u);
                cs += b.get(u);
                nvalid += 1;
            }
            (vs, cs, nvalid)
        };
        *o = diffuse_voxel(a.get(v), vs, nvalid, 0.15, 0.004, 1e-10)
            + diffuse_voxel(b.get(v), cs, nvalid, 0.1, 0.01, 1e-10);
    }
    out[0]
}

/// One boundary voxel through the bounds-checked gather — shared by the
/// wide sweep for the cells its interior runs cannot cover.
fn diffusion_checked_voxel(dims: GridDims, a: &Field, b: &Field, v: usize, out: &mut [f32]) {
    let c = dims.coord(v);
    let mut vs = 0.0f32;
    let mut cs = 0.0f32;
    let mut nvalid = 0usize;
    for u in dims.neighbors(c) {
        vs += a.get(u);
        cs += b.get(u);
        nvalid += 1;
    }
    out[v] = diffuse_voxel(a.get(v), vs, nvalid, 0.15, 0.004, 1e-10)
        + diffuse_voxel(b.get(v), cs, nvalid, 0.1, 0.01, 1e-10);
}

/// Wide-lane diffusion shape: each interior row span runs through the
/// chunked [`lanes::diffuse_interior_run`] kernel ([`lanes::LANES`]-wide
/// slice gathers, one accumulator per lane, scalar tail); boundary voxels
/// keep the checked path. Bitwise identical to the naive sweep by
/// construction — asserted before timing.
fn diffusion_wide(
    dims: GridDims,
    st: &StencilDeltas,
    a: &Field,
    b: &Field,
    out: &mut [f32],
) -> f32 {
    let vc = DiffuseCoeffs {
        d: 0.15,
        decay: 0.004,
        min: 1e-10,
    };
    let cc = DiffuseCoeffs {
        d: 0.1,
        decay: 0.01,
        min: 1e-10,
    };
    let (nx, ny) = (dims.x as usize, dims.y as usize);
    for y in 0..ny {
        let row = y * nx;
        if y >= 1 && y + 1 < ny && nx >= 3 {
            diffusion_checked_voxel(dims, a, b, row, out);
            lanes::diffuse_interior_run(st, row + 1, nx - 2, a, b, vc, cc, |v, nv, nc| {
                out[v] = nv + nc
            });
            diffusion_checked_voxel(dims, a, b, row + nx - 1, out);
        } else {
            for x in 0..nx {
                diffusion_checked_voxel(dims, a, b, row + x, out);
            }
        }
    }
    out[0]
}

/// Halo-exchange message stand-in: a 32-byte POD payload (metered through
/// the blanket `WireSize` impl), typical of a packed boundary record.
type HaloMsg = [u64; 4];

const HALO_RANKS: usize = 8;
const HALO_MSGS_PER_PAIR: usize = 64;

fn fill_outboxes(obs: &mut [Outbox<HaloMsg>]) {
    for (src, ob) in obs.iter_mut().enumerate() {
        for dst in 0..HALO_RANKS {
            if dst == src {
                continue;
            }
            for k in 0..HALO_MSGS_PER_PAIR {
                ob.send(dst, [src as u64, dst as u64, k as u64, 0]);
            }
        }
    }
}

/// Pre-PR exchange shape: fresh inbox allocations every superstep, one push
/// and one metering update per logical message, single-threaded.
fn halo_per_message() -> usize {
    let mut staged: Vec<Vec<(usize, HaloMsg)>> = (0..HALO_RANKS).map(|_| Vec::new()).collect();
    for (src, out) in staged.iter_mut().enumerate() {
        for dst in 0..HALO_RANKS {
            if dst == src {
                continue;
            }
            for k in 0..HALO_MSGS_PER_PAIR {
                out.push((dst, [src as u64, dst as u64, k as u64, 0]));
            }
        }
    }
    let mut inboxes: Vec<Vec<HaloMsg>> = (0..HALO_RANKS).map(|_| Vec::new()).collect();
    let mut msgs = 0u64;
    let mut bytes = 0u64;
    for out in &staged {
        for &(dst, msg) in out {
            msgs += 1;
            bytes += std::mem::size_of::<HaloMsg>() as u64;
            inboxes[dst].push(msg);
        }
    }
    std::hint::black_box((msgs, bytes));
    inboxes.iter().map(Vec::len).sum()
}

/// One deterministic 8-step CPU-executor run, the telemetry-overhead
/// workload. The sim is rebuilt from scratch each call so both sides of the
/// comparison run the identical stationary workload; `tel` is attached when
/// measuring the instrumented side.
fn e2e_cpu_run(p: &SimParams, tel: Option<&Telemetry>) -> u64 {
    let mut sim = CpuSim::new(CpuSimConfig::new(p.clone(), 2)).expect("valid bench config");
    if let Some(t) = tel {
        sim.enable_telemetry(t.clone());
    }
    for _ in 0..8 {
        sim.advance_step().expect("healthy bench run");
    }
    sim.comm_counters().messages
}

fn run_benches(smoke: bool, threads: usize, tel: &Telemetry) -> (Vec<BenchResult>, f64) {
    let mut b = if smoke {
        Bench::new().with_samples(5)
    } else {
        Bench::new()
    };

    // --- Diffusion: naive vs SoA stencil vs wide-lane chunks (identical
    // numerical work; both fast paths asserted bitwise first). ---
    let dims = GridDims::new2d(64, 64);
    let st = StencilDeltas::for_grid(dims);
    let (fa, fb) = diffusion_inputs(dims);
    let mut out_naive = vec![0.0f32; dims.nvoxels()];
    let mut out_stencil = vec![0.0f32; dims.nvoxels()];
    let mut out_wide = vec![0.0f32; dims.nvoxels()];
    diffusion_naive(dims, &fa, &fb, &mut out_naive);
    diffusion_stencil(dims, &st, &fa, &fb, &mut out_stencil);
    diffusion_wide(dims, &st, &fa, &fb, &mut out_wide);
    assert!(
        out_naive
            .iter()
            .zip(&out_stencil)
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "stencil fast path must be bitwise identical to the naive sweep"
    );
    assert!(
        out_naive
            .iter()
            .zip(&out_wide)
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "wide-lane fast path must be bitwise identical to the naive sweep"
    );
    b.bench("diffusion/naive_64sq", || {
        diffusion_naive(dims, &fa, &fb, &mut out_naive)
    });
    b.bench("diffusion/stencil_64sq", || {
        diffusion_stencil(dims, &st, &fa, &fb, &mut out_stencil)
    });
    b.bench("diffusion/wide_64sq", || {
        diffusion_wide(dims, &st, &fa, &fb, &mut out_wide)
    });

    // --- Halo exchange: per-message delivery vs coalesced mailboxes. ---
    b.bench("halo_exchange/per_message", halo_per_message);
    let pool = WorkPool::new(0);
    let mut mail: Mailboxes<HaloMsg> = Mailboxes::new(HALO_RANKS);
    let mut obs: Vec<Outbox<HaloMsg>> = (0..HALO_RANKS)
        .map(|_| Outbox::for_ranks(HALO_RANKS))
        .collect();
    b.bench("halo_exchange/coalesced", || {
        for ob in &mut obs {
            ob.clear();
        }
        fill_outboxes(&mut obs);
        let vol = mail.exchange(&pool, &mut obs, &[], &[]);
        vol.batch_bytes
    });

    // --- Exact summation (the reproducible-reduction primitive). ---
    let values: Vec<f32> = (0..1024)
        .map(|i| ((i as f32) - 512.0) * 1.7e-3 + if i % 2 == 0 { 1e4 } else { -1e4 })
        .collect();
    b.bench("exact_sum/1k", || {
        let mut s = ExactSum::default();
        for &v in &values {
            s.add_f32(v);
        }
        s.to_f64()
    });

    // --- Extravasation trial table at cpu_arc's steady-state size: the
    // comparison sort that defines the order vs the in-place bucket
    // placement (asserted entry-for-entry equal first), as an interleaved
    // pair so the ratio survives a loaded host. ---
    let trial_p = SimParams {
        dims: GridDims::new2d(160, 160),
        seed: 2024,
        ..SimParams::default()
    };
    const TRIALS: u64 = 130_000;
    let sorted_trials = || {
        let mut v: Vec<(usize, u64)> = (0..TRIALS)
            .map(|i| (extrav_voxel(&trial_p, 200, i), i))
            .collect();
        v.sort_unstable();
        v
    };
    let mut table = TrialTable::default();
    table.rebuild(&trial_p, 200, TRIALS);
    assert!(
        table
            .all()
            .iter()
            .map(|e| (e.voxel as usize, u64::from(e.trial)))
            .eq(sorted_trials()),
        "bucket-placed trial table must equal the comparison sort entry for entry"
    );
    b.bench_pair(
        "extrav/trial_sort_160sq",
        || sorted_trials().len(),
        "extrav/trial_table_160sq",
        || {
            table.rebuild(&trial_p, 200, TRIALS);
            table.len()
        },
    );

    // --- Dense GPU device step vs the bare stencil on the same grid, as an
    // interleaved pair: the `gpu_dense` benchmark workload's focus density
    // (one per 1024 voxels) warmed up until every tile is active, and kept
    // before T cells enter (no trials, no bids), so the step is diffusion,
    // FSM, reduction and their sweep overhead — the part that should cost a
    // small multiple of the stencil. ---
    let gpu_dims = GridDims::new2d(GPU_STEP_SIDE, GPU_STEP_SIDE);
    let gpu_p = SimParams::scaled_to(gpu_dims, 518, 64, 2024);
    let mut dev = GpuDevice::new(
        0,
        &Partition::new(gpu_dims, 1, Strategy::Blocks),
        &World::seeded(&gpu_p, FoiPattern::UniformLattice),
        GpuVariant::Combined,
        8,
        8,
        4,
        KernelMode::Wide,
    );
    let no_trials = TrialTable::default();
    let mut gpu_out: Outbox<GpuMsg> = Outbox::for_ranks(1);
    let mut gpu_t = 0u64;
    let mut gpu_step = |dev: &mut GpuDevice| {
        assert!(gpu_t < gpu_p.tcell_initial_delay, "T cells would enter");
        dev.plan_and_bid(&gpu_p, gpu_t, &no_trials, &[], &mut gpu_out);
        let stats = dev.resolve_and_update(&gpu_p, gpu_t, &[], &mut gpu_out);
        gpu_t += 1;
        stats.epi_healthy
    };
    while dev.active_tile_fraction() < 1.0 {
        gpu_step(&mut dev);
    }
    let gpu_st = StencilDeltas::for_grid(gpu_dims);
    let (ga, gb) = diffusion_inputs(gpu_dims);
    let mut g_out = vec![0.0f32; gpu_dims.nvoxels()];
    let (vc, cc) = (gpu_p.virion_coeffs(), gpu_p.chemokine_coeffs());
    b.bench_pair(
        "gpu_step/stencil_256sq",
        || {
            let nx = gpu_dims.x as usize;
            for y in 1..gpu_dims.y as usize - 1 {
                lanes::diffuse_interior_run(
                    &gpu_st,
                    y * nx + 1,
                    nx - 2,
                    &ga,
                    &gb,
                    vc,
                    cc,
                    |v, nv, nc| g_out[v] = nv + nc,
                );
            }
            g_out[nx + 1]
        },
        "gpu_step/device_256sq",
        || gpu_step(&mut dev),
    );
    assert_eq!(
        dev.active_tile_fraction(),
        1.0,
        "the dense device step must keep every tile active"
    );

    // --- Small end-to-end run on the serial reference executor. Each
    // iteration runs the same deterministic 8-step simulation from scratch,
    // so the workload is stationary (a warmed sim that keeps advancing
    // during sampling would drift as the infection evolves).
    let p = SimParams::test_config(GridDims::new2d(32, 32), 1000, 4, 7);
    b.bench("e2e/serial_8steps_32", || {
        let mut sim = SerialSim::new(p.clone());
        for _ in 0..8 {
            sim.advance_step();
        }
        sim.step
    });

    // --- Truly concurrent ranks: a 4-rank CPU-executor run with the
    // superstep bodies dispatched across a pinned `WorkPool`. The threaded
    // trajectory is asserted bitwise identical to the inline (serial
    // dispatch) run before it is timed, so the gate exercises the
    // parallel-rank path every run and pins its determinism, not just its
    // speed. No speedup floor is attached: on a single-core CI host the
    // workers only interleave.
    let run_cpu_ranks = |workers: usize| {
        let cfg = CpuSimConfig::new(p.clone(), 4).with_threads(workers);
        let mut sim = CpuSim::new(cfg).expect("valid bench config");
        for _ in 0..8 {
            sim.advance_step().expect("healthy bench run");
        }
        sim
    };
    let inline_history = run_cpu_ranks(0).history().clone();
    assert_eq!(
        run_cpu_ranks(threads).history(),
        &inline_history,
        "threaded rank dispatch must be bitwise identical to inline dispatch"
    );
    b.bench("e2e/cpu_4ranks_threaded", || {
        run_cpu_ranks(threads).comm_counters().messages
    });

    // --- Telemetry overhead: the same deterministic CPU-executor run with
    // instrumentation off vs on, sampled as an interleaved pair so the
    // reported min/min ratio is insensitive to background load landing on
    // one side's window. The pair also gets a wider window than the smoke
    // default — one pair is only ~2 ms, and stretching the window past
    // typical burst durations lets each side's min catch a quiet moment.
    // The shared `tel` handle is attached on the "on" side only; its ring
    // simply wraps across iterations.
    b = b.with_samples(25);
    let overhead = b
        .bench_pair(
            "e2e/telemetry_off",
            || e2e_cpu_run(&p, None),
            "e2e/telemetry_on",
            || e2e_cpu_run(&p, Some(tel)),
        )
        .unwrap_or(0.0);

    let results = b.results().to_vec();
    b.finish();
    (results, overhead)
}

fn results_to_json(results: &[BenchResult], cli: &Cli, speedups: &[(String, f64)]) -> Json {
    let mut doc = Json::obj([("suite", Json::from("perf_gate"))]);
    doc.push("mode", if cli.smoke { "smoke" } else { "full" });
    doc.push("tolerance", cli.tolerance);
    doc.push(
        "kernels",
        Json::Arr(
            results
                .iter()
                .map(|r| {
                    Json::obj([
                        ("name", Json::from(r.name.as_str())),
                        ("min_ns", Json::from(r.min_ns)),
                        ("median_ns", Json::from(r.median_ns)),
                        ("mean_ns", Json::from(r.mean_ns)),
                        ("batch", Json::from(r.batch)),
                    ])
                })
                .collect(),
        ),
    );
    doc.push(
        "speedups",
        Json::Obj(
            speedups
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(*v)))
                .collect(),
        ),
    );
    doc
}

fn find_min(results: &[BenchResult], name: &str) -> Option<f64> {
    results.iter().find(|r| r.name == name).map(|r| r.min_ns)
}

/// Baseline min_ns per kernel from a committed perf_gate artifact.
fn baseline_mins(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = Json::parse(text)?;
    let kernels = doc
        .get("kernels")
        .and_then(Json::as_arr)
        .ok_or("baseline has no 'kernels' array")?;
    let mut out = Vec::new();
    for k in kernels {
        let name = k
            .get("name")
            .and_then(Json::as_str)
            .ok_or("kernel entry without 'name'")?;
        let min = k
            .get("min_ns")
            .and_then(Json::as_f64)
            .ok_or("kernel entry without 'min_ns'")?;
        out.push((name.to_string(), min));
    }
    Ok(out)
}

/// In-run speedup ratios: both sides timed in the same process, so the
/// checks are machine-independent. The telemetry overhead comes from the
/// interleaved pair measurement in `run_benches`, not a min/min ratio.
fn compute_speedups(results: &[BenchResult], tel_overhead: f64) -> Vec<(String, f64)> {
    let speedup = |num: &str, den: &str| -> f64 {
        match (find_min(results, num), find_min(results, den)) {
            (Some(a), Some(b)) if b > 0.0 => a / b,
            _ => 0.0,
        }
    };
    vec![
        (
            "diffusion".to_string(),
            speedup("diffusion/naive_64sq", "diffusion/stencil_64sq"),
        ),
        (
            "diffusion_wide".to_string(),
            speedup("diffusion/naive_64sq", "diffusion/wide_64sq"),
        ),
        (
            "halo_exchange".to_string(),
            speedup("halo_exchange/per_message", "halo_exchange/coalesced"),
        ),
        (
            "trial_table".to_string(),
            speedup("extrav/trial_sort_160sq", "extrav/trial_table_160sq"),
        ),
        (
            // Per voxel: the stencil side covers the interior voxels only.
            "gpu_step_over_stencil".to_string(),
            speedup("gpu_step/device_256sq", "gpu_step/stencil_256sq")
                * (f64::from(GPU_STEP_SIDE - 2) / f64::from(GPU_STEP_SIDE)).powi(2),
        ),
        ("telemetry_overhead".to_string(), tel_overhead),
    ]
}

fn speedup_of(speedups: &[(String, f64)], name: &str) -> f64 {
    speedups
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, v)| v)
        .unwrap_or(0.0)
}

/// One full gate evaluation: the in-run speedup floors, the telemetry
/// overhead budget, and the per-kernel regression check against the
/// baseline mins. Returns the failure list; per-kernel `ok` verdict lines
/// are printed only when `verbose` (the final pass).
fn evaluate_gate(
    results: &[BenchResult],
    speedups: &[(String, f64)],
    tel_overhead: f64,
    tolerance: f64,
    base: Option<&[(String, f64)]>,
    verbose: bool,
) -> Vec<String> {
    let mut failures = Vec::new();
    let sp_diffusion = speedup_of(speedups, "diffusion");
    let sp_diffusion_wide = speedup_of(speedups, "diffusion_wide");
    let sp_halo = speedup_of(speedups, "halo_exchange");
    if sp_diffusion_wide < MIN_DIFFUSION_SPEEDUP {
        failures.push(format!(
            "wide-lane diffusion speedup {sp_diffusion_wide:.2}x is below the \
             {MIN_DIFFUSION_SPEEDUP}x floor (scalar stencil path: {sp_diffusion:.2}x)"
        ));
    }
    if sp_halo < MIN_HALO_SPEEDUP {
        failures.push(format!(
            "coalesced halo speedup {sp_halo:.2}x is below the {MIN_HALO_SPEEDUP}x floor"
        ));
    }
    let sp_trial_table = speedup_of(speedups, "trial_table");
    if sp_trial_table < MIN_TRIAL_TABLE_SPEEDUP {
        failures.push(format!(
            "trial-table speedup {sp_trial_table:.2}x over the comparison sort is below \
             the {MIN_TRIAL_TABLE_SPEEDUP}x floor"
        ));
    }
    let gpu_ratio = speedup_of(speedups, "gpu_step_over_stencil");
    if gpu_ratio <= 0.0 {
        failures.push("GPU device step pair did not run".to_string());
    } else if gpu_ratio > MAX_GPU_STEP_OVER_STENCIL {
        failures.push(format!(
            "dense GPU device step costs {gpu_ratio:.2}x the bare stencil per voxel, over \
             the {MAX_GPU_STEP_OVER_STENCIL}x ceiling"
        ));
    }
    if tel_overhead <= 0.0 {
        failures.push("telemetry overhead pair did not run".to_string());
    } else if tel_overhead > MAX_TELEMETRY_OVERHEAD {
        failures.push(format!(
            "telemetry instrumentation overhead {tel_overhead:.3}x exceeds the \
             {MAX_TELEMETRY_OVERHEAD}x budget"
        ));
    }
    if let Some(base) = base {
        for r in results {
            match base.iter().find(|(n, _)| n == &r.name) {
                None => {
                    if verbose {
                        eprintln!("warning: kernel '{}' not in baseline (new?)", r.name);
                    }
                }
                Some(&(_, base_min)) => {
                    let limit = base_min * (1.0 + tolerance);
                    if r.min_ns > limit {
                        failures.push(format!(
                            "{}: {:.1} ns exceeds baseline {:.1} ns by more than {:.0}%",
                            r.name,
                            r.min_ns,
                            base_min,
                            tolerance * 100.0
                        ));
                    } else if verbose {
                        eprintln!(
                            "ok {:<28} {:>10.1} ns (baseline {:>10.1} ns, limit {:>10.1})",
                            r.name, r.min_ns, base_min, limit
                        );
                    }
                }
            }
        }
    }
    failures
}

/// How many times a failing measurement pass is repeated before the gate
/// reports the failure. Min-based timings are one-sided: background noise
/// can only inflate a kernel's best time, never deflate it, so merging the
/// per-kernel min across repeat passes rejects load bursts on shared CI
/// hosts while a genuinely regressed kernel stays over the limit on every
/// pass.
const MAX_NOISE_RETRIES: usize = 2;

fn main() {
    let cli = parse_cli();
    // One shared telemetry instance for the instrumented side of the
    // overhead pair; its registry also backs `--metrics-out`.
    let tel = Telemetry::enabled(3, 1 << 14);
    let (mut results, mut tel_overhead) = run_benches(cli.smoke, cli.threads, &tel);

    // The baseline is read once; a missing file downgrades the regression
    // check to a warning (first run on a fresh machine), while a malformed
    // one is a deterministic config failure no re-measurement can fix.
    let mut config_failure = None;
    let base: Option<Vec<(String, f64)>> = if cli.update_baseline {
        None
    } else {
        match std::fs::read_to_string(&cli.baseline) {
            Err(e) => {
                eprintln!(
                    "warning: no baseline at {} ({e}); regression check skipped",
                    cli.baseline
                );
                None
            }
            Ok(text) => match baseline_mins(&text) {
                Err(e) => {
                    config_failure = Some(format!("baseline {} is malformed: {e}", cli.baseline));
                    None
                }
                Ok(base) => Some(base),
            },
        }
    };

    if !cli.update_baseline && config_failure.is_none() {
        for retry in 1..=MAX_NOISE_RETRIES {
            let speedups = compute_speedups(&results, tel_overhead);
            let failures = evaluate_gate(
                &results,
                &speedups,
                tel_overhead,
                cli.tolerance,
                base.as_deref(),
                false,
            );
            if failures.is_empty() {
                break;
            }
            eprintln!(
                "perf gate: {} check(s) over limit; re-measuring to reject noise \
                 (retry {retry}/{MAX_NOISE_RETRIES})",
                failures.len()
            );
            let (fresh, fresh_overhead) = run_benches(cli.smoke, cli.threads, &tel);
            for f in fresh {
                match results.iter_mut().find(|r| r.name == f.name) {
                    Some(r) if f.min_ns < r.min_ns => *r = f,
                    Some(_) => {}
                    None => results.push(f),
                }
            }
            if fresh_overhead > 0.0 && (tel_overhead <= 0.0 || fresh_overhead < tel_overhead) {
                tel_overhead = fresh_overhead;
            }
        }
    }

    let speedups = compute_speedups(&results, tel_overhead);
    eprintln!(
        "speedup diffusion stencil/naive:    {:.2}x",
        speedup_of(&speedups, "diffusion")
    );
    eprintln!(
        "speedup diffusion wide/naive:       {:.2}x",
        speedup_of(&speedups, "diffusion_wide")
    );
    eprintln!(
        "speedup halo coalesced/per-message: {:.2}x",
        speedup_of(&speedups, "halo_exchange")
    );
    eprintln!(
        "speedup trial table bucket/sort:    {:.2}x",
        speedup_of(&speedups, "trial_table")
    );
    eprintln!(
        "GPU device step / bare stencil:     {:.2}x",
        speedup_of(&speedups, "gpu_step_over_stencil")
    );
    eprintln!("telemetry on/off overhead:          {tel_overhead:.3}x");

    let doc = results_to_json(&results, &cli, &speedups);
    write_json(&cli.json, &doc);

    if let Some(path) = &cli.metrics_out {
        let reg = tel.registry().expect("tel is enabled");
        for r in &results {
            reg.gauge_with(
                "perf_gate_min_ns",
                "best per-iteration wall time of a perf_gate kernel",
                &[("kernel", r.name.as_str())],
            )
            .set(r.min_ns);
        }
        for (name, v) in &speedups {
            reg.gauge_with(
                "perf_gate_speedup",
                "in-run speedup ratios measured by perf_gate",
                &[("pair", name.as_str())],
            )
            .set(*v);
        }
        std::fs::write(path, prometheus::render(reg)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("prometheus metrics -> {path}");
    }

    if cli.update_baseline {
        write_json(&cli.baseline, &doc);
        eprintln!("baseline updated; no comparison performed");
        return;
    }

    let mut failures = evaluate_gate(
        &results,
        &speedups,
        tel_overhead,
        cli.tolerance,
        base.as_deref(),
        true,
    );
    if let Some(e) = config_failure {
        failures.push(e);
    }

    if failures.is_empty() {
        eprintln!("perf gate: PASS");
    } else {
        eprintln!("perf gate: FAIL");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
