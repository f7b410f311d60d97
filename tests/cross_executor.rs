//! The central correctness claim of the reproduction (paper §4.1, made
//! strict): the serial reference, the CPU baseline and the GPU executor
//! produce **bitwise identical** trajectories for any decomposition, any
//! device count, any optimization variant, in 2D and 3D, with and without
//! airway structure.

use simcov_repro::simcov_core::airways::{airway_voxels, AirwayTree};
use simcov_repro::simcov_core::decomp::Strategy;
use simcov_repro::simcov_core::foi::FoiPattern;
use simcov_repro::simcov_core::grid::GridDims;
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

#[test]
fn tile_side_does_not_change_results() {
    let params = SimParams::test_config(GridDims::new2d(33, 33), 90, 2, 51);
    let world = World::seeded(&params, FoiPattern::UniformLattice);
    let mut reference: Option<World> = None;
    for tile_side in [2usize, 4, 8, 16] {
        let cfg = GpuSimConfig::new(params.clone(), 4).with_exec(GpuKnobs {
            tile_side,
            ..GpuKnobs::default()
        });
        let mut gpu = GpuSim::from_world(cfg, world.clone()).expect("valid config");
        gpu.run().expect("healthy run");
        let w = gpu.gather_world();
        if let Some(r) = &reference {
            assert!(
                r.first_difference(&w).is_none(),
                "tile side {tile_side} changed results"
            );
        } else {
            reference = Some(w);
        }
    }
}
