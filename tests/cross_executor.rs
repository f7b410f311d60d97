//! The central correctness claim of the reproduction (paper §4.1, made
//! strict): the serial reference, the CPU baseline and the GPU executor
//! produce **bitwise identical** trajectories for any decomposition, any
//! device count, any optimization variant, in 2D and 3D, with and without
//! airway structure.

use simcov_repro::simcov_core::airways::{airway_voxels, AirwayTree};
use simcov_repro::simcov_core::decomp::{Partition, Strategy};
use simcov_repro::simcov_core::foi::FoiPattern;
use simcov_repro::simcov_core::grid::{Coord, GridDims};
use simcov_repro::simcov_core::lanes::KernelMode;
use simcov_repro::simcov_core::params::SimParams;
use simcov_repro::simcov_core::serial::SerialSim;
use simcov_repro::simcov_core::world::World;
use simcov_repro::simcov_cpu::{CpuSim, CpuSimConfig};
use simcov_repro::simcov_driver::Simulation;
use simcov_repro::simcov_gpu::{GpuKnobs, GpuSim, GpuSimConfig, GpuVariant};

fn check_all(params: SimParams, world: World, ranks: &[usize], devices: &[usize]) {
    let mut serial = SerialSim::from_world(params.clone(), world.clone());
    serial.run();

    for &r in ranks {
        for strategy in [Strategy::Blocks, Strategy::Linear] {
            let cfg = CpuSimConfig::new(params.clone(), r).with_strategy(strategy);
            let mut cpu = CpuSim::from_world(cfg, world.clone()).expect("valid config");
            cpu.run().expect("healthy run");
            if let Some((idx, why)) = serial.world.first_difference(&cpu.gather_world()) {
                panic!("CPU({r} ranks, {strategy:?}) diverged at voxel {idx}: {why}");
            }
            // Exact summation makes the whole time series bitwise identical.
            assert_eq!(
                serial.history,
                *cpu.history(),
                "CPU({r} ranks, {strategy:?}) stats diverged"
            );
        }
    }
    for &d in devices {
        for v in GpuVariant::ALL {
            let cfg = GpuSimConfig::new(params.clone(), d).with_exec(GpuKnobs {
                variant: v,
                ..GpuKnobs::default()
            });
            let mut gpu = GpuSim::from_world(cfg, world.clone()).expect("valid config");
            gpu.run().expect("healthy run");
            if let Some((idx, why)) = serial.world.first_difference(&gpu.gather_world()) {
                panic!("GPU({d} devices, {v:?}) diverged at voxel {idx}: {why}");
            }
            assert_eq!(
                serial.history,
                *gpu.history(),
                "GPU({d} devices, {v:?}) stats diverged"
            );
        }
    }
}

#[test]
fn full_matrix_2d() {
    let params = SimParams::test_config(GridDims::new2d(30, 22), 120, 3, 99);
    let world = World::seeded(&params, FoiPattern::UniformLattice);
    check_all(params, world, &[2, 5], &[4, 6]);
}

#[test]
fn full_matrix_3d() {
    let params = SimParams::test_config(GridDims::new3d(14, 14, 14), 80, 2, 17);
    let world = World::seeded(&params, FoiPattern::UniformLattice);
    check_all(params, world, &[4], &[8]);
}

#[test]
fn with_airway_structure() {
    let dims = GridDims::new2d(40, 40);
    let params = SimParams::test_config(dims, 100, 4, 23);
    let mut world = World::seeded(&params, FoiPattern::UniformLattice);
    world.carve_airways(&airway_voxels(
        dims,
        &AirwayTree {
            generations: 4,
            ..Default::default()
        },
    ));
    check_all(params, world, &[4], &[4]);
}

#[test]
fn with_ct_lesion_seeding() {
    let dims = GridDims::new2d(36, 36);
    let params = SimParams::test_config(dims, 100, 0, 31);
    let world = World::seeded(
        &params,
        FoiPattern::CtLesions {
            clusters: 3,
            radius: 2,
        },
    );
    check_all(params, world, &[3], &[4]);
}

#[test]
fn many_seeds_quick() {
    // A cheap sweep over seeds: 1 CPU decomposition + 1 GPU variant each.
    for seed in [1u64, 2, 3, 4, 5] {
        let params = SimParams::test_config(GridDims::new2d(20, 20), 60, 2, seed);
        let world = World::seeded(&params, FoiPattern::UniformLattice);
        let mut serial = SerialSim::from_world(params.clone(), world.clone());
        serial.run();
        let mut cpu = CpuSim::from_world(CpuSimConfig::new(params.clone(), 4), world.clone())
            .expect("valid config");
        cpu.run().expect("healthy run");
        let mut gpu =
            GpuSim::from_world(GpuSimConfig::new(params, 4), world).expect("valid config");
        gpu.run().expect("healthy run");
        assert!(
            serial.world.first_difference(&cpu.gather_world()).is_none(),
            "seed {seed} cpu"
        );
        assert!(
            serial.world.first_difference(&gpu.gather_world()).is_none(),
            "seed {seed} gpu"
        );
    }
}

#[test]
fn uneven_grid_dimensions() {
    // Non-square grids with rank counts that don't divide evenly.
    let params = SimParams::test_config(GridDims::new2d(37, 19), 80, 2, 41);
    let world = World::seeded(&params, FoiPattern::UniformLattice);
    check_all(params, world, &[6], &[6]);
}

/// Advance the scalar serial oracle and a GPU run in lockstep, demanding a
/// bitwise-equal world after every step and an equal statistics history.
fn assert_gpu_step_locked(serial: &mut SerialSim, gpu: &mut GpuSim, steps: u64, label: &str) {
    for _ in 0..steps {
        serial.advance_step();
        gpu.advance_step().expect("healthy run");
        if let Some((idx, why)) = serial.world.first_difference(&gpu.gather_world()) {
            panic!(
                "{label}: diverged at step {}, voxel {idx}: {why}",
                gpu.step()
            );
        }
    }
    assert_eq!(serial.history, *gpu.history(), "{label}: stats diverged");
}

#[test]
fn tile_side_does_not_change_results() {
    // Tile sides below, at and above the lane width and above the subdomain
    // side (one ragged tile per device), on subdomains whose sides are not
    // tile multiples; every variant and both kernels against the scalar
    // serial oracle.
    for (dims, steps) in [
        (GridDims::new2d(33, 29), 36),
        (GridDims::new3d(11, 10, 9), 20),
    ] {
        let params = SimParams::test_config(dims, steps, 2, 51);
        let world = World::seeded(&params, FoiPattern::UniformLattice);
        for tile_side in [1usize, 3, 8, 16] {
            for variant in GpuVariant::ALL {
                for kernel in [KernelMode::Scalar, KernelMode::Wide] {
                    let mut serial = SerialSim::from_world(params.clone(), world.clone())
                        .with_kernel(KernelMode::Scalar);
                    let cfg = GpuSimConfig::new(params.clone(), 4)
                        .with_kernel(kernel)
                        .with_exec(GpuKnobs {
                            variant,
                            tile_side,
                            ..GpuKnobs::default()
                        });
                    let mut gpu = GpuSim::from_world(cfg, world.clone()).expect("valid config");
                    let label = format!("{dims:?} tile {tile_side} {variant:?} {kernel:?}");
                    assert_gpu_step_locked(&mut serial, &mut gpu, steps, &label);
                }
            }
        }
    }
}

#[test]
fn corrupted_concentration_beside_the_global_surface_matches_the_checked_gather() {
    // The device's surface voxels add the +0.0 of out-of-grid halo cells
    // where the checked gather skips them. That is only an identity because a sum that
    // starts at +0.0 never becomes -0.0; pin it with a sign-flipped and a
    // huge (top exponent bit flipped) concentration next to the surface,
    // placed by `corrupt_bit` and mirrored into the oracle.
    let dims = GridDims::new2d(24, 24);
    let params = SimParams::test_config(dims, 40, 3, 77);
    let mut world = World::seeded(&params, FoiPattern::UniformLattice);
    for y in 0..9 {
        for x in 0..2 {
            let g = dims.index(Coord::new(x, y, 0));
            world.virions.set(g, 0.25 + 0.01 * y as f32);
            world.chemokine.set(g, 0.125 + 0.01 * y as f32);
        }
    }
    let partition = Partition::new(dims, 4, Strategy::Blocks);
    // Beside the surface, and held by device 0 alone (a ghost copy elsewhere
    // would be stale, which is the integrity layer's business, not this
    // test's).
    let placed_well = |g: usize| {
        let c = dims.coord(g);
        c.x.min(c.y) <= 1 && (1..4).all(|r| !partition.sub(r).in_halo_reach(c))
    };
    let mut serial =
        SerialSim::from_world(params.clone(), world.clone()).with_kernel(KernelMode::Scalar);
    let mut gpu = GpuSim::from_world(GpuSimConfig::new(params, 4), world).expect("valid config");
    assert_gpu_step_locked(&mut serial, &mut gpu, 2, "before corruption");

    type Wanted = fn(f32, f32) -> bool;
    let sign_flipped: Wanted = |old, new| old > 0.0 && new == -old;
    let huge: Wanted = |old, new| old > 0.0 && new.is_finite() && new > 1.0e30;
    for (what, wanted) in [("sign", sign_flipped), ("huge", huge)] {
        let before = gpu.gather_world();
        // `corrupt_bit` is self-inverse: try a seed, undo it if the flip
        // landed elsewhere.
        let flipped = (0u64..200_000).find_map(|seed| {
            gpu.units[0].corrupt_bit(seed);
            let after = gpu.gather_world();
            let hit = (0..dims.nvoxels()).find(|&g| {
                placed_well(g)
                    && (wanted(before.virions.get(g), after.virions.get(g))
                        || wanted(before.chemokine.get(g), after.chemokine.get(g)))
            });
            if hit.is_none() {
                gpu.units[0].corrupt_bit(seed);
            }
            hit.map(|g| (g, after))
        });
        let (g, after) = flipped.expect("some seed flips the wanted bit beside the surface");
        serial.world.virions.set(g, after.virions.get(g));
        serial.world.chemokine.set(g, after.chemokine.get(g));
        assert!(serial.world.first_difference(&after).is_none());
        assert_gpu_step_locked(&mut serial, &mut gpu, 3, what);
    }
}

#[test]
fn activity_entering_a_device_boundary_tile_reaches_its_buffer() {
    // Two linear strips of a 16x64 grid: the tiles along y = 31/32 hold
    // device-boundary ghosts, and their core part is thin enough that
    // virions spreading from (10, 33) cross into the next tile row between
    // two tile checks. That row must already be active.
    let dims = GridDims::new2d(16, 64);
    let params = SimParams::test_config(dims, 12, 0, 7);
    let mut world = World::healthy(dims);
    world.virions.set(dims.index(Coord::new(10, 33, 0)), 1000.0);
    let mut serial =
        SerialSim::from_world(params.clone(), world.clone()).with_kernel(KernelMode::Scalar);
    let cfg = GpuSimConfig::new(params, 2).with_strategy(Strategy::Linear);
    let mut gpu = GpuSim::from_world(cfg, world).expect("valid config");
    assert_gpu_step_locked(&mut serial, &mut gpu, 12, "ghost-tile buffer");
}
