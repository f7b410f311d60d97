//! The product path's extravasation, pinned end to end. Each run advances
//! `CpuSim` and `GpuSim` through `Simulation::advance_step` over a whole
//! compressed infection arc, on uneven blocks of three units, and asserts the
//! work counters, the communication counters, the final state's `crc_run`
//! and the checkpoint blob (state plus statistics history) against constants
//! recorded before the trial table learned to skip voxels where no trial can
//! change anything. Every regime the table has is visited, and the test says
//! so before comparing: steps whose sparse trials use coarse buckets, steps
//! with chemokine above the detection threshold, and steps after the
//! chemokine has cleared while circulating T cells keep trying to land.
//! `SerialDriver` runs the same arcs, pinned by constants recorded before the
//! serial oracle learned to skip trials on voxels no T cell can enter.

use simcov_repro::gpusim::DeviceCounters;
use simcov_repro::pgas::crc::crc64;
use simcov_repro::pgas::CommCounters;
use simcov_repro::simcov_core::checkpoint::encode_run;
use simcov_repro::simcov_core::grid::GridDims;
use simcov_repro::simcov_core::integrity::crc_run;
use simcov_repro::simcov_core::params::SimParams;
use simcov_repro::simcov_cpu::{CpuSim, CpuSimConfig};
use simcov_repro::simcov_driver::{SerialDriver, Simulation};
use simcov_repro::simcov_gpu::{GpuSim, GpuSimConfig};

/// What one run is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct Pins {
    /// Extravasation and update work (`update.elements`), read on its own.
    update_elements: u64,
    /// CRC-64 of every field of `total_counters()`.
    counters: u64,
    /// CRC-64 of every field of `comm_counters()`.
    comm: u64,
    /// `crc_run` of the final state.
    run: u64,
    /// CRC-64 of the run blob: the final state plus the whole history.
    blob: u64,
}

/// Steps of each extravasation regime seen over one run.
#[derive(Debug, Default)]
struct Regimes {
    /// The pool is so small against the grid that buckets span voxels.
    coarse: u64,
    /// Per-voxel buckets, and some voxel holds chemokine at the threshold.
    chemokine: u64,
    /// Per-voxel buckets, T cells circulate, and no voxel holds chemokine
    /// at the threshold.
    cleared: u64,
}

fn device_words(c: &DeviceCounters) -> Vec<u64> {
    [c.update, c.reduce, c.tile_check, c.halo]
        .iter()
        .flat_map(|k| [k.elements, k.bytes, k.atomics, k.smem_ops, k.launches])
        .collect()
}

fn comm_words(c: &CommCounters) -> Vec<u64> {
    vec![
        c.supersteps,
        c.messages,
        c.bytes,
        c.bulk_messages,
        c.bulk_bytes,
        c.batches,
        c.batch_bytes,
        c.allreduces,
        c.allreduce_bytes,
        c.max_rank_messages,
        c.max_rank_bytes,
        c.stalls,
        c.stall_ns,
        c.duplicates_suppressed,
        c.dropped_messages,
        c.shuffled_inboxes,
        c.integrity_bytes,
        c.corruptions_landed,
        c.corrupt_batches,
        c.retransmits,
    ]
}

fn crc_words(words: &[u64]) -> u64 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    crc64(&bytes)
}

/// Advance `sim` to its last step, classifying each step by the state it
/// starts from, and return the run's pins.
fn run(sim: &mut dyn Simulation) -> (Pins, Regimes) {
    let p = sim.params().clone();
    let nvoxels = p.dims.nvoxels() as u64;
    let mut regimes = Regimes::default();
    while sim.step() < p.steps {
        let pool = sim.last_stats().map_or(0, |s| s.tcells_vasculature);
        if pool > 0 {
            let world = sim.gather_world();
            let chemokine =
                (0..world.dims.nvoxels()).any(|i| world.chemokine.get(i) >= p.min_chemokine);
            if nvoxels > 2 * pool {
                regimes.coarse += 1;
            } else if chemokine {
                regimes.chemokine += 1;
            } else {
                regimes.cleared += 1;
            }
        }
        sim.advance_step().expect("healthy step");
    }
    let cp = sim.checkpoint();
    let pins = Pins {
        update_elements: sim.total_counters().update.elements,
        counters: crc_words(&device_words(&sim.total_counters())),
        comm: crc_words(&comm_words(&sim.comm_counters())),
        run: crc_run(cp.step, &cp.world, &cp.pool),
        blob: crc64(&encode_run(&p, &cp)),
    };
    (pins, regimes)
}

#[track_caller]
fn check(sim: &mut dyn Simulation, expect: Pins) {
    let name = sim.name();
    let (pins, regimes) = run(sim);
    assert!(
        regimes.coarse > 0 && regimes.chemokine > 0 && regimes.cleared > 0,
        "{name}: the run must visit every regime, saw {regimes:?}"
    );
    assert_eq!(pins, expect, "{name}");
}

/// A compressed arc on a 2D grid that three block units split unevenly.
fn params_2d() -> SimParams {
    SimParams::scaled_to(GridDims::new2d(44, 31), 400, 3, 7)
}

/// A compressed arc on a 3D grid, split unevenly the same way.
fn params_3d() -> SimParams {
    SimParams::scaled_to(GridDims::new3d(13, 11, 9), 518, 6, 3)
}

const UNITS: usize = 3;

#[test]
fn cpu_2d_arc_is_pinned() {
    let mut sim = CpuSim::new(CpuSimConfig::new(params_2d(), UNITS)).expect("valid config");
    check(
        &mut sim,
        Pins {
            update_elements: 68_268,
            counters: 0xe35c_5777_7745_8daa,
            comm: 0x7518_bb11_a6cc_f472,
            run: 0xffd6_1181_a14c_8f7c,
            blob: 0xfae8_0e9f_c9ae_179f,
        },
    );
}

#[test]
fn gpu_2d_arc_is_pinned() {
    let mut sim = GpuSim::new(GpuSimConfig::new(params_2d(), UNITS)).expect("valid config");
    check(
        &mut sim,
        Pins {
            update_elements: 4_530_298,
            counters: 0x5303_dc66_7a88_0b84,
            comm: 0x44a1_fd1c_12cd_e5db,
            run: 0xffd6_1181_a14c_8f7c,
            blob: 0xfae8_0e9f_c9ae_179f,
        },
    );
}

#[test]
fn cpu_3d_arc_is_pinned() {
    let mut sim = CpuSim::new(CpuSimConfig::new(params_3d(), UNITS)).expect("valid config");
    check(
        &mut sim,
        Pins {
            update_elements: 388_176,
            counters: 0x135b_0ba8_388e_66b4,
            comm: 0xd365_51d4_77ec_61ee,
            run: 0x2f0e_40d0_139f_34c0,
            blob: 0x32de_d53f_3461_50ac,
        },
    );
}

#[test]
fn gpu_3d_arc_is_pinned() {
    let mut sim = GpuSim::new(GpuSimConfig::new(params_3d(), UNITS)).expect("valid config");
    check(
        &mut sim,
        Pins {
            update_elements: 6_746_579,
            counters: 0xcb58_be89_e5cd_83a5,
            comm: 0xde2f_9ca8_0cbb_d391,
            run: 0x2f0e_40d0_139f_34c0,
            blob: 0x32de_d53f_3461_50ac,
        },
    );
}

/// CRC-64 of twenty zero words: the serial executor counts no device work and
/// no communication.
const NO_COUNTERS: u64 = 0x3841_ce00_d51d_7ed3;

#[test]
fn serial_2d_arc_is_pinned() {
    let mut sim = SerialDriver::new(params_2d()).expect("valid config");
    check(
        &mut sim,
        Pins {
            update_elements: 0,
            counters: NO_COUNTERS,
            comm: NO_COUNTERS,
            run: 0xffd6_1181_a14c_8f7c,
            blob: 0xfae8_0e9f_c9ae_179f,
        },
    );
}

#[test]
fn serial_3d_arc_is_pinned() {
    let mut sim = SerialDriver::new(params_3d()).expect("valid config");
    check(
        &mut sim,
        Pins {
            update_elements: 0,
            counters: NO_COUNTERS,
            comm: NO_COUNTERS,
            run: 0x2f0e_40d0_139f_34c0,
            blob: 0x32de_d53f_3461_50ac,
        },
    );
}
