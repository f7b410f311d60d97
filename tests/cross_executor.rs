//! The central correctness claim (paper §4.1, made strict): the serial,
//! CPU and GPU executors produce bitwise identical trajectories for any
//! decomposition, device count, GPU variant and tile side, in 2D and 3D,
//! with and without airways.

mod equivalence;
use equivalence::*;

/// Each rank count in blocks and strips, each device count on every variant.
fn matrix(base: Case, ranks: &[usize], devices: &[usize]) -> Vec<Case> {
    let cpu = |&r: &usize| [false, true].map(|l| base.on(Cpu, r).with(|c| c.linear = l));
    let gpu = |&d: &usize| GpuVariant::ALL.map(|v| base.on(Gpu(v), d));
    let cases = ranks.iter().flat_map(cpu);
    cases.chain(devices.iter().flat_map(gpu)).collect()
}

/// Tile sides below, at and above the lane width and the subdomain side,
/// on every variant and kernel, step-locked.
fn tile_sides(base: Case) -> impl Iterator<Item = Case> {
    let tiles = [1, 3, 8, 16].map(|t| base.with(|c| (c.tile_side, c.lock) = (Some(t), true)));
    let kernels = tiles.map(|c| [Scalar, Wide].map(|k| c.with(|c| c.kernel = k)));
    kernels
        .into_iter()
        .flatten()
        .flat_map(|c| GpuVariant::ALL.map(|v| c.on(Gpu(v), 4)))
}

equivalence_tests! {
    full_matrix_2d: matrix(Case::test([30, 22, 1], 120, 3, 99), &[2, 5], &[4, 6]);
    full_matrix_3d: matrix(Case::test([14, 14, 14], 80, 2, 17), &[4], &[8]);
    with_airway_structure:
        matrix(Case::test([40, 40, 1], 100, 4, 23).with(|c| c.airways = Some(4)), &[4], &[4]);
    with_ct_lesion_seeding: {
        let lesions = CtLesions { clusters: 3, radius: 2 };
        matrix(Case::test([36, 36, 1], 100, 0, 31).with(|c| c.pattern = lesions), &[3], &[4])
    };
    // Five model seeds, then a generator range over every shape family.
    many_seeds_quick: (1..=5)
        .flat_map(|s| [Cpu, Gpu(Combined)].map(|e| Case::test([20, 20, 1], 60, 2, s).on(e, 4)))
        .chain((0..64).map(|seed| generate(seed, &SHAPES)));
    // Non-square grids with rank counts that don't divide evenly.
    uneven_grid_dimensions: matrix(Case::test([37, 19, 1], 80, 2, 41), &[6], &[6]);
    // Then the generator's device-boundary tiles that hold one core row.
    tile_side_does_not_change_results: tile_sides(Case::test([33, 29, 1], 36, 2, 51))
        .chain(tile_sides(Case::test([11, 10, 9], 20, 2, 51)))
        .chain((0..32).map(|seed| generate(seed, &[Boundary])));
    // A sum that starts at +0.0 never becomes -0.0, so adding out-of-grid
    // halo zeros is an identity even for flipped-sign and huge values.
    corrupted_concentration_beside_the_global_surface_matches_the_checked_gather: {
        let base = Case::test([24, 24, 1], 40, 3, 77);
        let base = base.with(|c| (c.edit, c.lock) = (Some(Surface), true));
        [Gpu(Combined), Cpu, Serial].map(|exec| base.on(exec, 4))
    };
    // Virions spreading from (10, 33) cross the one-row core part of the
    // y = 31/32 device-boundary tiles between two tile checks.
    activity_entering_a_device_boundary_tile_reaches_its_buffer: {
        let case = Case::test([16, 64, 1], 12, 0, 7).on(Gpu(Combined), 2);
        let spot = (true, Some(Spot(10, 33, 1000.0)), true);
        [case.with(|c| (c.linear, c.edit, c.lock) = spot)]
    };
}
