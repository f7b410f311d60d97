//! Kernel-level microbenchmarks: the building blocks whose costs the paper
//! reasons about — diffusion stencils, T-cell planning, reduction
//! strategies, counter-RNG draws.

use gpusim::kernel::LaunchConfig;
use gpusim::reduce::{atomic_reduce, tree_reduce};
use gpusim::DeviceCounters;
use simcov_bench::microbench::Bench;
use simcov_core::diffusion::{diffuse_voxel, DiffuseCoeffs};
use simcov_core::fields::Field;
use simcov_core::grid::GridDims;
use simcov_core::lanes;
use simcov_core::params::SimParams;
use simcov_core::rng::{CounterRng, Stream};
use simcov_core::rules::{plan_tcell, RuleView};
use simcov_core::serial::SerialSim;
use simcov_core::soa::StencilDeltas;
use simcov_core::tcell::TCellSlot;
use simcov_core::world::World;

fn bench_rng(b: &mut Bench) {
    let mut i = 0u64;
    b.bench("rng_counter_draw", || {
        i += 1;
        CounterRng::new(42, Stream::TCellBid, 7, i).next_u64()
    });
    let mut j = 0u64;
    b.bench("rng_poisson_480", || {
        j += 1;
        CounterRng::new(42, Stream::IncubationPeriod, 7, j).poisson(480.0)
    });
}

fn bench_diffusion(b: &mut Bench) {
    let dims = GridDims::new2d(64, 64);
    let field: Vec<f32> = (0..dims.nvoxels()).map(|i| (i % 7) as f32).collect();
    let mut out = vec![0.0f32; dims.nvoxels()];
    b.bench("diffusion_stencil_64sq", || {
        for v in 0..dims.nvoxels() {
            let co = dims.coord(v);
            let mut sum = 0.0;
            let mut n = 0;
            for u in dims.neighbors(co) {
                sum += field[u];
                n += 1;
            }
            out[v] = diffuse_voxel(field[v], sum, n, 0.15, 0.004, 1e-10);
        }
        out[0]
    });
}

/// The lane kernel over a 64² grid's interior, cut into runs of `len`
/// voxels (the short runs a CPU rank's active list hands it) or whole rows.
/// Each call diffuses 62 rows; divide by the voxels per call for ns/voxel.
fn bench_interior_runs(b: &mut Bench) {
    let dims = GridDims::new2d(64, 64);
    let st = StencilDeltas::for_grid(dims);
    let n = dims.nvoxels();
    let virions = Field {
        data: (0..n).map(|i| (i % 7) as f32).collect(),
    };
    let chem = Field {
        data: (0..n).map(|i| (i % 5) as f32 * 0.5).collect(),
    };
    let coeffs = DiffuseCoeffs {
        d: 0.15,
        decay: 0.004,
        min: 1e-10,
    };
    let mut out = vec![0.0f32; n];
    for (name, len) in [("diffusion_runs_of_8_64sq", 8), ("diffusion_rows_64sq", 62)] {
        b.bench(name, || {
            for y in 1..63 {
                for x in (1..63 - len + 1).step_by(len) {
                    lanes::diffuse_interior_run(
                        &st,
                        y * 64 + x,
                        len,
                        &virions,
                        &chem,
                        coeffs,
                        coeffs,
                        |i, v, c| out[i] = v + c,
                    );
                }
            }
            out[65]
        });
    }
}

fn bench_tcell_plan(b: &mut Bench) {
    let dims = GridDims::new2d(64, 64);
    let mut world = World::healthy(dims);
    // Scatter 1000 T cells.
    for k in 0..1000usize {
        world.tcells[(k * 17) % dims.nvoxels()] = TCellSlot::established(100, 0);
    }
    let p = SimParams::default();
    b.bench("tcell_plan_1k", || {
        let mut acc = 0u64;
        for v in 0..dims.nvoxels() {
            if RuleView::tcell(&world, dims.coord(v)).occupied() {
                let a = plan_tcell(&world, &p, 3, dims.coord(v));
                acc = acc.wrapping_add(format_action(a));
            }
        }
        acc
    });
}

fn format_action(a: simcov_core::rules::TCellAction) -> u64 {
    match a {
        simcov_core::rules::TCellAction::TryMove { bid, .. } => bid.src(),
        _ => 1,
    }
}

fn bench_reductions(b: &mut Bench) {
    let n = 65536usize;
    let data: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
    b.bench("reduction/tree_64k", || {
        let mut cnt = DeviceCounters::new();
        tree_reduce(
            &mut cnt,
            LaunchConfig::cover(n, 256),
            n,
            8,
            8,
            0.0f64,
            |i| data[i],
            |a, b| *a += b,
        )
    });
    b.bench("reduction/atomic_64k", || {
        let mut cnt = DeviceCounters::new();
        atomic_reduce(&mut cnt, n, 8, 0.0f64, |i| data[i], |a, b| *a += b)
    });
}

fn bench_serial_step(b: &mut Bench) {
    for side in [32u32, 64] {
        let p = SimParams::test_config(GridDims::new2d(side, side), 1000, 4, 7);
        let mut sim = SerialSim::new(p);
        // Warm the simulation into an active state.
        for _ in 0..20 {
            sim.advance_step();
        }
        b.bench(&format!("serial_step/{side}"), || {
            sim.advance_step();
            sim.step
        });
    }
}

fn main() {
    let mut b = Bench::from_args();
    bench_rng(&mut b);
    bench_diffusion(&mut b);
    bench_interior_runs(&mut b);
    bench_tcell_plan(&mut b);
    bench_reductions(&mut b);
    bench_serial_step(&mut b);
    b.finish();
}
