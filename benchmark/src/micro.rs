//! Kernel-level measurements taken in the traced runs, and the machine
//! record every results file carries.
//!
//! Each kernel is called through its public function and timed from outside
//! as the median of repeated calls. Bytes are *computed* from array sizes
//! (they ignore cache misses); no roofline ratio is given, because no array
//! here can reach four times this host's last-level cache — the same-run
//! copy/triad bandwidth and multiply-add rate are recorded beside them as
//! the base instead.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use gpusim::kernel::LaunchConfig;
use gpusim::reduce::tree_reduce;
use gpusim::DeviceCounters;
use pgas::{crc64, decode_bucket, encode_bucket, SplitMix64};
use simcov_core::checkpoint::{CheckpointStore, RunCheckpoint};
use simcov_core::diffusion::DiffuseCoeffs;
use simcov_core::fields::Field;
use simcov_core::grid::GridDims;
use simcov_core::integrity::{crc_state, IntegrityMonitor};
use simcov_core::json::Json;
use simcov_core::lanes;
use simcov_core::params::SimParams;
use simcov_core::soa::StencilDeltas;
use simcov_core::tcell::TCellSlot;
use simcov_cpu::msg::{AgentCell, ConcCell};
use simcov_cpu::CpuMsg;
use simcov_driver::{load_checkpoint, persist_checkpoint};
use simcov_sweep::JobSpec;

use crate::stats::median;

/// Median seconds of one call of `f` on a fresh `setup()` value (built
/// outside the timed region): at least five calls, more until `budget` is
/// spent.
fn median_secs_with<S>(
    budget: Duration,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S),
) -> f64 {
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || t0.elapsed() < budget {
        let input = setup();
        let t = Instant::now();
        f(input);
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Median seconds of one call of `f`.
pub fn median_secs(budget: Duration, mut f: impl FnMut()) -> f64 {
    median_secs_with(budget, || (), |()| f())
}

const BUDGET: Duration = Duration::from_millis(300);

/// Full-grid interior diffusion sweep of both fields at `side`² through
/// `lanes::diffuse_interior_run`. Returns (ns per voxel, computed GB/s): per
/// voxel the sweep must read both fields once and write both once (16 B);
/// neighbour reads are expected to hit cache.
pub fn diffuse(side: u32) -> (f64, f64) {
    let dims = GridDims::new2d(side, side);
    let n = dims.nvoxels();
    let st = StencilDeltas::for_grid(dims);
    let (mut a, mut b) = (Field::zeros(n), Field::zeros(n));
    for i in 0..n {
        a.set(i, (i % 13) as f32 * 0.37 + 0.01);
        b.set(i, (i % 7) as f32 * 1.21);
    }
    let (mut out_a, mut out_b) = (vec![0.0f32; n], vec![0.0f32; n]);
    let p = SimParams::default();
    let (vc, cc): (DiffuseCoeffs, DiffuseCoeffs) = (p.virion_coeffs(), p.chemokine_coeffs());
    let side = side as usize;
    let interior = (side - 2) * (side - 2);
    let secs = median_secs(BUDGET, || {
        for y in 1..side - 1 {
            lanes::diffuse_interior_run(&st, y * side + 1, side - 2, &a, &b, vc, cc, |i, v, c| {
                out_a[i] = v;
                out_b[i] = c;
            });
        }
        black_box((&out_a, &out_b));
    });
    (
        secs * 1e9 / interior as f64,
        interior as f64 * 16.0 / secs / 1e9,
    )
}

/// Nanoseconds per element of `gpusim::reduce::tree_reduce` summing 2²⁰
/// values in blocks of 256.
pub fn tree_reduce_ns_per_elem() -> f64 {
    let n = 1usize << 20;
    let data: Vec<f32> = (0..n).map(|i| (i % 97) as f32 * 0.5).collect();
    let mut counters = DeviceCounters::new();
    let secs = median_secs(BUDGET, || {
        let total = tree_reduce(
            &mut counters,
            LaunchConfig::cover(n, 256),
            n,
            2,
            8,
            0.0f64,
            |i| data[i] as f64,
            |acc, x| *acc += *x,
        );
        black_box(total);
    });
    secs * 1e9 / n as f64
}

/// GB/s of `pgas::crc64` over a 16 MiB buffer.
pub fn crc64_gb_per_s() -> f64 {
    let buf: Vec<u8> = (0..16usize << 20).map(|i| (i * 31 + 7) as u8).collect();
    let secs = median_secs(BUDGET, || {
        black_box(crc64(black_box(&buf)));
    });
    buf.len() as f64 / secs / 1e9
}

/// A halo bucket like the ones `cpu_wire16` ships: one aggregated ghost
/// strip of `cells` boundary voxels plus a few T-cell intents.
fn cpu_bucket(seed: u64, cells: usize) -> Vec<CpuMsg> {
    let mut rng = SplitMix64::new(seed);
    let conc = |rng: &mut SplitMix64| ConcCell {
        gid: rng.next_u64() >> 40,
        virions: rng.next_f64() as f32,
        chem: rng.next_f64() as f32,
    };
    let mut bucket = vec![
        CpuMsg::GhostConc((0..cells).map(|_| conc(&mut rng)).collect()),
        CpuMsg::GhostState {
            agents: (0..cells)
                .map(|_| AgentCell {
                    gid: rng.next_u64() >> 40,
                    epi_state: (rng.next_u64() % 5) as u8,
                    tcell: TCellSlot((rng.next_u64() >> 40) as u32),
                    active: rng.next_u64() & 1 == 1,
                })
                .collect(),
            conc: (0..cells).map(|_| conc(&mut rng)).collect(),
        },
    ];
    for _ in 0..8 {
        bucket.push(CpuMsg::MoveIntent {
            src: rng.next_u64() >> 40,
            target: rng.next_u64() >> 40,
            bid: (rng.next_u64() as u128) << 64 | rng.next_u64() as u128,
            tissue_steps: (rng.next_u64() % 500) as u32,
        });
    }
    bucket
}

/// Encoded GB/s through `encode_bucket` + `decode_bucket` (encoded bytes
/// over the time of one encode and one decode).
pub fn codec_gb_per_s(seed: u64) -> f64 {
    let bucket = cpu_bucket(seed, 4096);
    let bytes = encode_bucket(&bucket).len();
    let secs = median_secs(BUDGET, || {
        let wire = encode_bucket(black_box(&bucket));
        let back: Vec<CpuMsg> =
            decode_bucket(bucket.len() as u64, &wire).expect("canonical encoding decodes");
        black_box(back);
    });
    bytes as f64 / secs / 1e9
}

/// Costs of the resilience path on two snapshots of one run, `earlier` one
/// checkpoint period before `later`.
pub struct ResilienceCosts {
    /// One incremental `CheckpointStore::save` (the steady-state save).
    pub checkpoint_save_s: f64,
    pub crc_state_s: f64,
    pub audit_s: f64,
}

pub fn resilience(earlier: &RunCheckpoint, later: &RunCheckpoint) -> ResilienceCosts {
    let mut base = CheckpointStore::new();
    base.save(
        earlier.step,
        &earlier.world,
        &earlier.pool,
        &earlier.history,
    );
    let mut monitor = IntegrityMonitor::new(8);
    ResilienceCosts {
        // Each sample saves onto a fresh copy of the one-generation store, so
        // every sample encodes the same delta.
        checkpoint_save_s: median_secs_with(
            BUDGET,
            || base.clone(),
            |mut store| {
                store.save(later.step, &later.world, &later.pool, &later.history);
            },
        ),
        crc_state_s: median_secs(BUDGET, || {
            black_box(crc_state(&later.world, &later.pool));
        }),
        audit_s: median_secs(BUDGET, || {
            black_box(monitor.audit(&later.world, &later.pool).is_ok());
        }),
    }
}

/// Durable checkpoint costs: (persist seconds, load seconds, file bytes) of
/// `driver::persist_checkpoint` / `load_checkpoint` — staging, fsyncs and
/// the atomic rename included — at `path`.
pub fn durable(path: &Path, params: &SimParams, cp: &RunCheckpoint) -> (f64, f64, u64) {
    let persist = median_secs(BUDGET, || {
        persist_checkpoint(path, params, cp).expect("checkpoint persists");
    });
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let load = median_secs(BUDGET, || {
        black_box(load_checkpoint(path, params).expect("checkpoint loads"));
    });
    let _ = std::fs::remove_file(path);
    (persist, load, bytes)
}

/// Microseconds to carry one job through the submission schema and back:
/// `to_json` → compact render → parse → `from_json`.
pub fn spec_roundtrip_us(jobs: &[JobSpec]) -> f64 {
    let secs = median_secs(BUDGET, || {
        for job in jobs {
            let text = job.to_json().render_compact();
            let doc = Json::parse(&text).expect("rendered spec parses");
            let back = JobSpec::from_json(&doc).expect("rendered spec is valid");
            assert_eq!(&back, job, "spec round trip changed the job");
        }
    });
    secs * 1e6 / jobs.len().max(1) as f64
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// The 1-minute load average, from `/proc/loadavg`.
pub fn load_average() -> f64 {
    read_trimmed("/proc/loadavg")
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(f64::NAN)
}

/// Where and on what the numbers were taken, with a bandwidth and arithmetic
/// base measured in the same run.
pub fn machine_record() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let mut caches = Json::Obj(Vec::new());
    for idx in 0..6 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        if let (Some(level), Some(kind), Some(size)) = (
            read_trimmed(&format!("{dir}/level")),
            read_trimmed(&format!("{dir}/type")),
            read_trimmed(&format!("{dir}/size")),
        ) {
            caches.push(format!("L{level}_{kind}"), size);
        }
    }

    // 64 MiB per array: far beyond L2, but below this host's 260 MiB L3,
    // which no array here can exceed fourfold — hence a base, not a roofline.
    const N: usize = 16 << 20;
    let (b, c) = (vec![1.5f32; N], vec![0.25f32; N]);
    let mut a = vec![0.0f32; N];
    let copy = median_secs(BUDGET, || {
        a.copy_from_slice(black_box(&b));
        black_box(&a);
    });
    let triad = median_secs(BUDGET, || {
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = *y + 3.0 * *z;
        }
        black_box(&a);
    });
    // Eight independent chains of multiply-add; the compiler may vectorise.
    const ITERS: usize = 1 << 22;
    let madd = median_secs(BUDGET, || {
        let mut acc = [1.0f32, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7];
        let (m, s) = (black_box(0.999_9f32), black_box(0.000_1f32));
        for _ in 0..ITERS {
            for x in &mut acc {
                *x = *x * m + s;
            }
        }
        black_box(acc);
    });

    let mut doc = Json::Obj(Vec::new());
    doc.push(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    doc.push("cpu_model", cpu_model);
    doc.push("caches", caches);
    doc.push("bandwidth_array_mib", (N * 4) as f64 / (1 << 20) as f64);
    doc.push("copy_gb_per_s", (2 * N * 4) as f64 / copy / 1e9);
    doc.push("triad_gb_per_s", (3 * N * 4) as f64 / triad / 1e9);
    doc.push("multiply_add_gflops", (ITERS * 8 * 2) as f64 / madd / 1e9);
    doc.push(
        "roofline",
        "not given: arrays cannot reach 4x the last-level cache on this host; \
         *_gb_per_s metrics are computed bytes against the copy/triad base above",
    );
    doc
}
