//! Ratio gate over the hot kernels.
//!
//! Every check is a ratio of two kernels timed in this process as an
//! interleaved pair ([`Bench::bench_pair`]), so a loaded host moves both sides
//! together and the verdict does not depend on the machine; absolute times are
//! the business of `benchmark/`. Each fast path is asserted bitwise identical
//! to its reference before it is timed, so the gate can never trade
//! correctness for speed silently. [`CHECKS`] is the whole policy: a pair of
//! kernel names and the bound their `min/min` ratio must hold.
//!
//! `--json PATH` writes the timings and ratios, `--metrics-out PATH` the same
//! numbers (plus the instrumented run's own registry) as Prometheus text
//! exposition, `--smoke` cuts the sample count of the pairs with headroom to
//! spare (batch calibration still targets ≥ 1 ms per batch). Exit 1 when a
//! bound is broken.

use pgas::crc::crc64_bytewise;
use pgas::{crc64, Mailboxes, Outbox, WorkPool};
use simcov_bench::cli::{die_unknown, expect_value, write_or_die};
use simcov_bench::json::write_json;
use simcov_bench::microbench::{Bench, BenchResult};
use simcov_core::decomp::{Partition, Strategy};
use simcov_core::diffusion::{diffuse_voxel, DiffuseCoeffs};
use simcov_core::exact::{BinnedSum, ExactSum};
use simcov_core::extrav::TrialTable;
use simcov_core::fields::Field;
use simcov_core::foi::FoiPattern;
use simcov_core::grid::GridDims;
use simcov_core::json::Json;
use simcov_core::lanes::{self, KernelMode};
use simcov_core::params::SimParams;
use simcov_core::rules::extrav_voxel;
use simcov_core::soa::StencilDeltas;
use simcov_core::world::World;
use simcov_cpu::{CpuSim, CpuSimConfig};
use simcov_driver::Simulation;
use simcov_gpu::{GpuDevice, GpuMsg, GpuVariant};
use simcov_telemetry::{prometheus, Telemetry};

/// What the `min/min` ratio of a pair must hold.
enum Bound {
    /// `reference / subject` at least this: the subject is the fast path.
    SpeedupAtLeast(f64),
    /// `subject / reference` at most this: the subject is the costlier side.
    CostAtMost(f64),
}

/// One gated pair: `reference` and `subject` are the kernel names the pair is
/// timed under.
struct Check {
    name: &'static str,
    reference: &'static str,
    subject: &'static str,
    bound: Bound,
}

const CHECKS: [Check; 8] = [
    // The chunked wide-lane kernel measures well above the 1.5x the scalar
    // stencil path cleared.
    Check {
        name: "diffusion_wide",
        reference: "diffusion/naive_64sq",
        subject: "diffusion/wide_64sq",
        bound: Bound::SpeedupAtLeast(1.8),
    },
    // Measured ~3.5x; the floor leaves noise headroom.
    Check {
        name: "halo_exchange",
        reference: "halo_exchange/per_message",
        subject: "halo_exchange/coalesced",
        bound: Bound::SpeedupAtLeast(2.0),
    },
    // One message per rank at 16x the ranks: linear work reads ~16x, and
    // an exchange that visited every (src, dst) pair read 454x. Measured
    // 16.3–22.5x (median 20.6x in smoke mode, 20.1x in full, 20 runs each);
    // the ceiling is 36 % over the larger median.
    Check {
        name: "exchange_ranks",
        reference: "exchange/128_ranks",
        subject: "exchange/2048_ranks",
        bound: Bound::CostAtMost(28.0),
    },
    // Bucket placement over the comparison sort it replaced, at `cpu_arc`'s
    // steady-state size (measured ~3.6x).
    Check {
        name: "trial_table",
        reference: "extrav/trial_sort_160sq",
        subject: "extrav/trial_table_160sq",
        bound: Bound::SpeedupAtLeast(2.0),
    },
    // Exponent-binned exact summation over the per-sample superaccumulator
    // loop it replaced in every per-voxel reduction (measured 2.3–3.8x).
    Check {
        name: "exact_sum_binned",
        reference: "exact_sum/add_f32_1m",
        subject: "exact_sum/binned_1m",
        bound: Bound::SpeedupAtLeast(1.5),
    },
    // Slicing-by-8 CRC-64 over the bytewise table loop it replaced, on a
    // buffer the size of a 112² state (the seal scrub's input). Measured
    // 3.67–4.01x (medians 3.98x smoke, 3.96x full, 20 runs each); the floor
    // is 1.5x below the lowest reading.
    Check {
        name: "crc64_sliced",
        reference: "crc64/bytewise_112sq",
        subject: "crc64/sliced_112sq",
        bound: Bound::SpeedupAtLeast(2.4),
    },
    // A dense `GpuDevice` step (every tile active: plan, FSM, diffusion,
    // reduction, halo pack) over the bare `diffuse_interior_run` stencil on the
    // same grid. Measured 3.6–5.5x (median 4.1x, 20 runs); 30 % over that
    // median (5.4x) would already have failed one of them, so the ceiling is
    // 30 % over the 4.4x median of 28 runs (3.4–5.7x) taken with 64-voxel
    // lane blocks. The device step walks row-major runs and got ~1.5x faster,
    // but the stencil got ~1.7x faster with it (the block-wise lane kernel),
    // so the ratio fell only from a median of 5.0x; it was ~17x while the
    // step staged tuples and tested geometry per voxel. At 120 pairs a run,
    // smoke and full mode read medians of 3.79x and 3.83x (20 runs each,
    // 3.3–4.9x) on a 2-vCPU host.
    Check {
        name: "gpu_step_over_stencil",
        reference: "gpu_step/stencil_256sq",
        subject: "gpu_step/device_256sq",
        bound: Bound::CostAtMost(5.7),
    },
    // The instrumentation budget. Near 1.05x on an idle machine; the band
    // leaves headroom for cache/bandwidth contention (which taxes the
    // instrumented side harder) and still catches a span opened per voxel or
    // per message, which costs multiples, not percent.
    Check {
        name: "telemetry_overhead",
        reference: "e2e/telemetry_off",
        subject: "e2e/telemetry_on",
        bound: Bound::CostAtMost(1.15),
    },
];

fn check(name: &str) -> &'static Check {
    CHECKS
        .iter()
        .find(|c| c.name == name)
        .expect("a name in CHECKS")
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

/// The reference sweep: every voxel walks its Moore neighborhood through the
/// bounds-checked coordinate iterator.
fn diffusion_naive(dims: GridDims, a: &Field, b: &Field, out: &mut [f32]) -> f32 {
    for v in 0..out.len() {
        diffusion_checked_voxel(dims, a, b, v, out);
    }
    out[0]
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

/// 2²⁰ samples shaped like a concentration field: rows of 1,024 zeros (the
/// uninfected region) alternate with rows of mixed magnitudes spread over
/// ~50 binades, subnormals included.
fn summation_field() -> Vec<f32> {
    (0..1u32 << 20)
        .map(|i| {
            if (i >> 10) % 2 == 0 {
                return 0.0;
            }
            let h = i.wrapping_mul(0x9E37_79B9) ^ (i >> 7);
            let exp = (h >> 26) * 3 / 4 + 80; // 80..=127
            f32::from_bits((if h % 64 == 0 { 0 } else { exp << 23 }) | (h & 0x7F_FFFF))
        })
        .collect()
}

fn sum_add_f32(vals: &[f32]) -> ExactSum {
    let mut s = ExactSum::zero();
    for &v in vals {
        s.add_f32(v);
    }
    s
}

fn sum_binned(vals: &[f32]) -> ExactSum {
    let mut b = BinnedSum::new();
    for &v in vals {
        b.add(v);
    }
    b.sum()
}

/// Halo-exchange message stand-in: a 32-byte POD payload (metered through
/// the blanket `WireSize` impl), typical of a packed boundary record.
type HaloMsg = [u64; 4];

const HALO_RANKS: usize = 8;
const HALO_MSGS_PER_PAIR: usize = 64;

/// One superstep's sends: every rank sends a run of records to every other.
fn for_each_send(mut send: impl FnMut(usize, usize, HaloMsg)) {
    for src in 0..HALO_RANKS {
        for dst in (0..HALO_RANKS).filter(|&dst| dst != src) {
            for k in 0..HALO_MSGS_PER_PAIR {
                send(src, dst, [src as u64, dst as u64, k as u64, 0]);
            }
        }
    }
}

/// Pre-PR exchange shape: fresh inbox allocations every superstep, one push
/// and one metering update per logical message, single-threaded.
fn halo_per_message() -> Vec<Vec<HaloMsg>> {
    let mut staged: Vec<Vec<(usize, HaloMsg)>> = vec![Vec::new(); HALO_RANKS];
    for_each_send(|src, dst, msg| staged[src].push((dst, msg)));
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
    inboxes
}

/// One superstep over `n` ranks in a ring, each rank sending one message to
/// the next: the exchange's fixed per-rank cost with no payload to speak of.
fn ring_exchange(pool: &WorkPool, n: usize) -> impl FnMut() -> u64 + '_ {
    let mut mail: Mailboxes<u64> = Mailboxes::new(n);
    let mut obs: Vec<Outbox<u64>> = (0..n).map(|_| Outbox::for_ranks(n)).collect();
    move || {
        for (src, ob) in obs.iter_mut().enumerate() {
            ob.clear();
            ob.send((src + 1) % n, src as u64);
        }
        mail.exchange(pool, &mut obs, &[], &[]).batches
    }
}

/// One deterministic 8-step CPU-executor run, the telemetry-overhead
/// workload. The sim is rebuilt from scratch each call so both sides of the
/// comparison run the identical stationary workload; `tel` is attached when
/// measuring the instrumented side. Ranks are dispatched inline: spawning and
/// waking a worker pool costs as much as this run and would turn the ratio
/// into scheduler noise.
fn e2e_cpu_run(p: &SimParams, tel: Option<&Telemetry>) -> u64 {
    let cfg = CpuSimConfig::new(p.clone(), 2).with_threads(0);
    let mut sim = CpuSim::new(cfg).expect("valid bench config");
    if let Some(t) = tel {
        sim.enable_telemetry(t.clone());
    }
    for _ in 0..8 {
        sim.advance_step().expect("healthy bench run");
    }
    sim.comm_counters().messages
}

/// The per-voxel bytes `write_state` walks for a 112² world, 17 a voxel.
const STATE_112SQ_BYTES: usize = 112 * 112 * 17;

/// Time the pair that `CHECKS` gates under `name`.
fn pair<R, S>(b: &mut Bench, name: &str, reference: impl FnMut() -> R, subject: impl FnMut() -> S) {
    let c = check(name);
    b.bench_pair(c.reference, reference, c.subject, subject);
}

fn run_benches(smoke: bool, tel: &Telemetry) -> Vec<BenchResult> {
    // The five speedups clear their floors by 1.5x or more; smoke mode
    // samples them lightly.
    let mut b = Bench::new().with_samples(if smoke { 5 } else { 20 });

    // --- Diffusion: naive vs wide-lane chunks (identical numerical work). ---
    let dims = GridDims::new2d(64, 64);
    let st = StencilDeltas::for_grid(dims);
    let (fa, fb) = diffusion_inputs(dims);
    let mut out_naive = vec![0.0f32; dims.nvoxels()];
    let mut out_wide = vec![0.0f32; dims.nvoxels()];
    diffusion_naive(dims, &fa, &fb, &mut out_naive);
    diffusion_wide(dims, &st, &fa, &fb, &mut out_wide);
    assert!(
        out_naive
            .iter()
            .zip(&out_wide)
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "wide-lane fast path must be bitwise identical to the naive sweep"
    );
    pair(
        &mut b,
        "diffusion_wide",
        || diffusion_naive(dims, &fa, &fb, &mut out_naive),
        || diffusion_wide(dims, &st, &fa, &fb, &mut out_wide),
    );

    // --- Halo exchange: per-message delivery vs coalesced mailboxes. ---
    let pool = WorkPool::new(0);
    let mut mail: Mailboxes<HaloMsg> = Mailboxes::new(HALO_RANKS);
    let mut obs: Vec<Outbox<HaloMsg>> = (0..HALO_RANKS)
        .map(|_| Outbox::for_ranks(HALO_RANKS))
        .collect();
    let coalesced = |mail: &mut Mailboxes<HaloMsg>, obs: &mut [Outbox<HaloMsg>]| {
        for ob in obs.iter_mut() {
            ob.clear();
        }
        for_each_send(|src, dst, msg| obs[src].send(dst, msg));
        mail.exchange(&pool, obs, &[], &[]).batch_bytes
    };
    coalesced(&mut mail, &mut obs);
    assert_eq!(
        mail.front(),
        halo_per_message(),
        "coalesced exchange must deliver what per-message delivery does"
    );
    pair(&mut b, "halo_exchange", halo_per_message, || {
        coalesced(&mut mail, &mut obs)
    });

    // --- Extravasation trial table: the comparison sort that defines the
    // order vs the in-place bucket placement. ---
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
    pair(
        &mut b,
        "trial_table",
        || sorted_trials().len(),
        || {
            table.rebuild(&trial_p, 200, TRIALS);
            table.len()
        },
    );

    // --- Exact summation: `ExactSum::add_f32` per sample vs the binned
    // accumulator (one add per sample, one fold per sum). ---
    let field = summation_field();
    assert_eq!(
        sum_add_f32(&field),
        sum_binned(&field),
        "binned summation must have the per-sample loop's limbs"
    );
    pair(
        &mut b,
        "exact_sum_binned",
        || sum_add_f32(&field),
        || sum_binned(&field),
    );

    // --- CRC-64/XZ: the bytewise loop vs slicing-by-8, same digest. ---
    let state_bytes: Vec<u8> = (0..STATE_112SQ_BYTES as u32)
        .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
        .collect();
    assert_eq!(
        crc64_bytewise(&state_bytes),
        crc64(&state_bytes),
        "the sliced CRC must give the bytewise loop's digest"
    );
    pair(
        &mut b,
        "crc64_sliced",
        || crc64_bytewise(&state_bytes),
        || crc64(&state_bytes),
    );

    // The three ceilings sit within 1.5x of what they measure, so in either
    // mode they sample until the subject's min has converged: 40 pairs
    // here, 120 for the GPU step and 200 for the telemetry pair.
    b = b.with_samples(40);

    // --- One superstep's exchange at 2,048 ranks vs 128, one message per
    // rank: linear work, plus the cache misses of 16x the state. ---
    let (mut ring_128, mut ring_2048) = (ring_exchange(&pool, 128), ring_exchange(&pool, 2048));
    assert_eq!((ring_128(), ring_2048()), (128, 2048), "one batch per rank");
    pair(&mut b, "exchange_ranks", ring_128, ring_2048);

    // --- Dense GPU device step vs the bare stencil on the same grid: one
    // focus per 256 voxels, warmed up until every tile is active, and kept
    // before T cells enter (no trials, no bids), so the step is diffusion,
    // FSM, reduction and their sweep overhead — the part that should cost a
    // small multiple of the stencil, which covers the interior (98.4 % of
    // the voxels). At the `gpu_dense` workload's density (one focus per 1024
    // voxels) the tiles along the grid edge, whose ghosts lie outside the
    // grid and are not forced active, only all become active at step 152 of
    // the 158 before T cells enter; at one per 256 every tile is active from
    // step 0. ---
    //
    // A co-running memory-bound process slows the device step more than the
    // stencil. The batch is sized on the stencil, so the pair can outlast
    // the steps before T cells enter; the device then starts over from step
    // 0, and the one sample that pays for the rebuild is not the min the
    // ratio reads.
    //
    // At 40 pairs a run the ratio's tail reached the ceiling (5.71x, once
    // in 40 runs): a run whose device side never caught a quiet moment.
    // 120 pairs give both sides three times the window.
    b = b.with_samples(120);
    let gpu_dims = GridDims::new2d(256, 256);
    let gpu_p = SimParams::scaled_to(gpu_dims, 518, 256, 2024);
    let gpu_partition = Partition::new(gpu_dims, 1, Strategy::Blocks);
    let gpu_world = World::seeded(&gpu_p, FoiPattern::UniformLattice);
    let fresh_device = || {
        GpuDevice::new(
            0,
            &gpu_partition,
            &gpu_world,
            GpuVariant::Combined,
            8,
            8,
            4,
            KernelMode::Wide,
        )
    };
    let mut dev = fresh_device();
    let no_trials = TrialTable::default();
    let mut gpu_out: Outbox<GpuMsg> = Outbox::for_ranks(1);
    let mut gpu_t = 0u64;
    let mut gpu_step = |dev: &mut GpuDevice| {
        if gpu_t == gpu_p.tcell_initial_delay {
            *dev = fresh_device();
            gpu_t = 0;
        }
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
    pair(
        &mut b,
        "gpu_step_over_stencil",
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
        || gpu_step(&mut dev),
    );
    assert_eq!(
        dev.active_tile_fraction(),
        1.0,
        "the dense device step must keep every tile active"
    );

    // --- Telemetry overhead: the same deterministic CPU-executor run with
    // instrumentation off vs on. One pair is only ~1 ms and the budget is
    // percent, not multiples: 200 pairs stretch the window past typical burst
    // durations and let each side catch its quiet moment.
    // The shared `tel` handle is attached on the "on" side only; its ring
    // simply wraps across iterations.
    let p = SimParams::test_config(GridDims::new2d(32, 32), 1000, 4, 7);
    b = b.with_samples(200);
    pair(
        &mut b,
        "telemetry_overhead",
        || e2e_cpu_run(&p, None),
        || e2e_cpu_run(&p, Some(tel)),
    );

    b.finish()
}

/// The gated ratio of one check, oriented as its bound reads.
fn ratio(results: &[BenchResult], c: &Check) -> f64 {
    let min = |name: &str| {
        let r = results.iter().find(|r| r.name == name);
        r.expect("every CHECKS pair is timed").min_ns
    };
    match c.bound {
        Bound::SpeedupAtLeast(_) => min(c.reference) / min(c.subject),
        Bound::CostAtMost(_) => min(c.subject) / min(c.reference),
    }
}

fn main() {
    let (mut json, mut smoke, mut metrics_out) = (None, false, None);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = Some(expect_value(&a, args.next())),
            "--smoke" => smoke = true,
            "--metrics-out" => metrics_out = Some(expect_value(&a, args.next())),
            _ => die_unknown(
                &a,
                "usage: perf_gate [--json PATH] [--smoke] [--metrics-out PATH]",
            ),
        }
    }
    // One shared telemetry instance for the instrumented side of the
    // overhead pair; its registry also backs `--metrics-out`.
    let tel = Telemetry::enabled(3, 1 << 14);
    let results = run_benches(smoke, &tel);

    let mut failures = Vec::new();
    let mut ratios = Vec::new();
    for c in &CHECKS {
        let r = ratio(&results, c);
        let (ok, reads) = match c.bound {
            Bound::SpeedupAtLeast(x) => (r >= x, format!("speedup, floor {x}x")),
            Bound::CostAtMost(x) => (r <= x, format!("cost, ceiling {x}x")),
        };
        let line = format!("{:<24} {r:>7.3}x  ({reads})", c.name);
        eprintln!("{} {line}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            failures.push(line);
        }
        ratios.push((c.name, r));
    }

    if let Some(path) = &json {
        let mut doc = Json::obj([("suite", Json::from("perf_gate"))]);
        doc.push("mode", if smoke { "smoke" } else { "full" });
        doc.push(
            "kernels",
            Json::Arr(results.iter().map(BenchResult::to_json).collect()),
        );
        doc.push(
            "speedups",
            Json::Obj(
                ratios
                    .iter()
                    .map(|&(k, v)| (k.to_string(), Json::from(v)))
                    .collect(),
            ),
        );
        write_json(path, &doc);
    }

    if let Some(path) = &metrics_out {
        let reg = tel.registry().expect("tel is enabled");
        for r in &results {
            reg.gauge_with(
                "perf_gate_min_ns",
                "best per-iteration wall time of a perf_gate kernel",
                &[("kernel", r.name.as_str())],
            )
            .set(r.min_ns);
        }
        for &(name, v) in &ratios {
            reg.gauge_with(
                "perf_gate_speedup",
                "in-run speedup ratios measured by perf_gate",
                &[("pair", name)],
            )
            .set(v);
        }
        write_or_die(path, prometheus::render(reg));
        eprintln!("prometheus metrics -> {path}");
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
