//! Differential suite for the wide-lane kernels (`simcov_core::lanes`): any
//! kernel on any executor equals the scalar serial oracle bitwise, on shapes
//! adversarial for a chunked kernel and denormal-adjacent concentrations.

mod equivalence;
use equivalence::*;
use simcov_repro::simcov_core::lanes::LANES;

const L: u32 = LANES as u32;

/// Comments give the interior-row run length (`nx - 2` in 2D).
const ADVERSARIAL_DIMS: [[u32; 3]; 10] = [
    [2, 2, 1],         // no interior voxel: checked path only
    [3, 3, 1],         // single interior voxel: run length 1
    [64, 1, 1],        // single row: all boundary
    [1, 64, 1],        // single column: all boundary
    [L + 1, 6, 1],     // run LANES-1: pure scalar tail
    [L + 2, 6, 1],     // run LANES: one chunk, no tail
    [L + 3, 6, 1],     // run LANES+1: chunk + width-1 remainder
    [2 * L + 5, 7, 1], // two chunks + 3-wide tail
    [3, 3, 3],         // 3D single interior voxel
    [L + 3, 5, 4],     // 3D chunk + width-1 remainder per row
];

/// The serial wide kernel, then both kernels on CPU ranks and GPU devices.
fn kernels(base: Case, ranks: usize, devices: usize) -> Vec<Case> {
    let on = [base.on(Cpu, ranks), base.on(Gpu(Combined), devices)];
    let both = [Scalar, Wide].map(|k| on.clone().map(|c| c.with(|c| c.kernel = k)));
    [base.on(Serial, 1)]
        .into_iter()
        .chain(both.into_iter().flatten())
        .collect()
}

equivalence_tests! {
    wide_matches_scalar_stepwise_on_adversarial_shapes: ADVERSARIAL_DIMS.into_iter().flat_map(|d| {
        [5, 11].map(|seed| Case::test(d, 24, 2, seed).on(Serial, 1).with(|c| c.lock = true))
    });
    executors_match_scalar_oracle_on_adversarial_shapes:
        ADVERSARIAL_DIMS.into_iter().flat_map(|d| kernels(Case::test(d, 20, 2, 13), 2, 2));
    denormal_adjacent_concentrations_stay_bitwise: {
        let denormals = |c: &mut Case| (c.edit, c.lock) = (Some(Denormals), true);
        kernels(Case::test([2 * L + 5, 9, 1], 16, 2, 3).with(denormals), 3, 2)
    };
    // CT-lesion seeding exercises the row-span rewrite in `foi.rs`.
    ct_lesion_seeding_is_kernel_invariant: {
        let lesions = CtLesions { clusters: 3, radius: 2 };
        let lesions = |c: &mut Case| (c.pattern, c.lock) = (lesions, true);
        kernels(Case::test([36, 19, 1], 30, 0, 31).with(lesions), 3, 4)
    };
    randomized_shape_and_seed_sweep:
        (100..132).map(|seed| generate(seed, &[Lanes, Thin, NoInterior, Denormal, Small]));
}
