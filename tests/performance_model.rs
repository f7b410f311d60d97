//! Sanity properties of the performance instrumentation and cost model —
//! the relationships the paper's evaluation depends on, checked on real
//! (small) runs.

use simcov_repro::gpusim::{CostModel, GPU_A100};
use simcov_repro::simcov_core::grid::GridDims;
use simcov_repro::simcov_core::params::SimParams;
use simcov_repro::simcov_cpu::{CpuSim, CpuSimConfig};
use simcov_repro::simcov_driver::Simulation;
use simcov_repro::simcov_gpu::{GpuKnobs, GpuSim, GpuSimConfig, GpuVariant};

fn params(side: u32, steps: u64, foi: u32) -> SimParams {
    SimParams::test_config(GridDims::new2d(side, side), steps, foi, 3)
}

#[test]
fn cpu_work_grows_with_foi() {
    // The CPU active list processes more voxels when activity is denser —
    // the mechanism behind Fig 8.
    let mut work = Vec::new();
    for foi in [1u32, 4, 16] {
        let mut cpu =
            CpuSim::new(CpuSimConfig::new(params(48, 120, foi), 4)).expect("valid config");
        cpu.run().expect("healthy run");
        work.push(cpu.total_counters().update.elements);
    }
    assert!(work[0] < work[1] && work[1] < work[2], "work {work:?}");
}

#[test]
fn gpu_full_sweep_variants_do_not_grow_with_foi() {
    // Without tiling the GPU iterates the whole space regardless of
    // activity (§3.4's unoptimized behaviour).
    let mut elems = Vec::new();
    for foi in [1u32, 16] {
        let mut gpu = GpuSim::new(
            GpuSimConfig::new(params(48, 60, foi), 4).with_exec(GpuKnobs {
                variant: GpuVariant::FastReduction,
                ..GpuKnobs::default()
            }),
        )
        .expect("valid config");
        gpu.run().expect("healthy run");
        elems.push(gpu.total_counters().update.elements);
    }
    // FSM/diffusion sweeps are identical; only T-cell/extravasation work
    // differs slightly.
    let ratio = elems[1] as f64 / elems[0] as f64;
    assert!(
        ratio < 1.3,
        "full-sweep work should be ~activity-independent: {ratio}"
    );
}

#[test]
fn reduction_cost_dominates_unoptimized_variant() {
    // Fig 4's headline: reductions are the biggest cost without the fast
    // reduction, and the tree reduction removes almost all of it.
    let model = CostModel::default();
    let mut unopt = GpuSim::new(GpuSimConfig::new(params(48, 60, 8), 4).with_exec(GpuKnobs {
        variant: GpuVariant::Unoptimized,
        ..GpuKnobs::default()
    }))
    .expect("valid config");
    unopt.run().expect("healthy run");
    // Zero out launch overheads: at this miniature scale fixed per-step
    // launches dominate everything; the paper-scale balance is between the
    // per-voxel work terms.
    let strip_launches = |mut c: simcov_repro::gpusim::DeviceCounters| {
        c.update.launches = 0;
        c.reduce.launches = 0;
        c.tile_check.launches = 0;
        c.halo.launches = 0;
        c
    };
    let b_unopt = model.device_breakdown(&GPU_A100, &strip_launches(unopt.max_unit_counters()));
    assert!(
        b_unopt.reduce_s > b_unopt.update_s,
        "unoptimized: reduce {} should exceed update {}",
        b_unopt.reduce_s,
        b_unopt.update_s
    );

    let mut fast = GpuSim::new(GpuSimConfig::new(params(48, 60, 8), 4).with_exec(GpuKnobs {
        variant: GpuVariant::Combined,
        ..GpuKnobs::default()
    }))
    .expect("valid config");
    fast.run().expect("healthy run");
    let b_fast = model.device_breakdown(&GPU_A100, &strip_launches(fast.max_unit_counters()));
    assert!(
        b_fast.reduce_s < 0.2 * b_unopt.reduce_s,
        "tree reduction should slash reduce time: {} vs {}",
        b_fast.reduce_s,
        b_unopt.reduce_s
    );
}

#[test]
fn more_devices_less_max_device_work() {
    let mut prev = u64::MAX;
    for d in [1usize, 4, 16] {
        let mut gpu = GpuSim::new(GpuSimConfig::new(params(64, 60, 16), d)).expect("valid config");
        gpu.run().expect("healthy run");
        let w = gpu.max_unit_counters().reduce.elements;
        assert!(w < prev, "reduce sweep per device must shrink with devices");
        prev = w;
    }
}

#[test]
fn halo_traffic_scales_with_boundary_not_area() {
    // Doubling the grid side should roughly double (not quadruple) the
    // per-device halo traffic.
    let run = |side: u32| {
        let mut gpu = GpuSim::new(GpuSimConfig::new(params(side, 40, 4), 4)).expect("valid config");
        gpu.run().expect("healthy run");
        gpu.total_counters().halo.bytes
    };
    let small = run(32);
    let large = run(64);
    let ratio = large as f64 / small as f64;
    assert!(
        ratio > 1.4 && ratio < 3.2,
        "halo bytes should scale ~linearly with the boundary: {ratio}"
    );
}

#[test]
fn comm_supersteps_cpu_three_gpu_two() {
    // The GPU algorithm needs one fewer communication wave than the CPU's
    // intent→result RPC pattern (§3.1) — plus the state wave each.
    let p = params(32, 50, 2);
    let mut cpu = CpuSim::new(CpuSimConfig::new(p.clone(), 4)).expect("valid config");
    cpu.run().expect("healthy run");
    assert_eq!(cpu.comm_counters().supersteps, 50 * 3);
    let mut gpu = GpuSim::new(GpuSimConfig::new(p, 4)).expect("valid config");
    gpu.run().expect("healthy run");
    assert_eq!(gpu.comm_counters().supersteps, 50 * 2);
}

#[test]
fn multinode_sync_shapes_strong_scaling() {
    // The cost model's saturation mechanism: per-step sync appears beyond
    // one node and grows with node count.
    let m = CostModel::default();
    let t4 = m.gpu_multinode_sync_time(1000, 4);
    let t8 = m.gpu_multinode_sync_time(1000, 8);
    let t64 = m.gpu_multinode_sync_time(1000, 64);
    assert_eq!(t4, 0.0);
    assert!(t8 > 0.0 && t64 > t8);
}

#[test]
fn extrapolation_preserves_per_step_ratios() {
    let mut gpu = GpuSim::new(GpuSimConfig::new(params(48, 60, 8), 4)).expect("valid config");
    gpu.run().expect("healthy run");
    let c = gpu.max_unit_counters();
    let e = c.extrapolate(8.0);
    // Area-class: ×8³; launches: ×8.
    assert_eq!(e.reduce.elements, c.reduce.elements * 512);
    assert_eq!(e.update.launches, c.update.launches * 8);
    assert_eq!(e.halo.bytes, c.halo.bytes * 64);
}

#[test]
fn device_counters_match_the_pinned_table() {
    // The modelled kernel sequence is the paper's Fig 4/6-8 input: how the
    // host executes a step may change, these totals may not. Pinned from the
    // commit before the block-kernel rewrite (48², 60 steps, 8 FOI, 4
    // devices); rows are update / reduce / tile-check / halo, columns
    // elements, bytes, atomics, smem_ops, launches. The Combined update row
    // was re-pinned when the one-tile buffer around ghost tiles became
    // always active (and ghosts outside the grid stopped forcing a tile).
    let pinned = [
        (
            GpuVariant::Combined,
            [
                [589_894u64, 12_673_408, 4_248, 0, 1_920],
                [138_240, 2_764_800, 5_760, 184_320, 240],
                [32_768, 425_984, 0, 0, 32],
                [24_312, 602_860, 988, 0, 880],
            ],
        ),
        (
            GpuVariant::Unoptimized,
            [
                [592_750, 19_051_200, 4_248, 0, 1_920],
                [138_240, 3_870_720, 1_105_920, 0, 240],
                [0, 0, 0, 0, 0],
                [24_312, 602_860, 988, 0, 880],
            ],
        ),
    ];
    for (variant, want) in pinned {
        let mut gpu = GpuSim::new(GpuSimConfig::new(params(48, 60, 8), 4).with_exec(GpuKnobs {
            variant,
            ..GpuKnobs::default()
        }))
        .expect("valid config");
        gpu.run().expect("healthy run");
        let c = gpu.total_counters();
        let got = [c.update, c.reduce, c.tile_check, c.halo]
            .map(|k| [k.elements, k.bytes, k.atomics, k.smem_ops, k.launches]);
        assert_eq!(got, want, "{variant:?} counters moved");
    }
}
