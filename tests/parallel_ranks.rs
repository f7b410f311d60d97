//! Stress tests for truly concurrent ranks.
//!
//! `CpuSimConfig::with_threads` / `GpuSimConfig::with_threads` pin the
//! executor's `WorkPool`, so rank (device) superstep bodies genuinely run on
//! worker threads instead of being multiplexed inline. Concurrency must be
//! invisible in the results: the coalesced mailbox exchange delivers
//! deterministically and `ExactSum` makes every reduction independent of
//! arrival order, so any thread count — including oversubscription past the
//! rank count — must yield **bitwise identical** trajectories. These tests
//! sweep thread counts, hammer repeatability, and inject rank deaths and
//! stalls *while ranks are running concurrently*.

use simcov_repro::pgas::{FaultEvent, FaultKind, FaultPlan};
use simcov_repro::simcov_core::extrav::CHUNK_TRIALS;
use simcov_repro::simcov_core::grid::GridDims;
use simcov_repro::simcov_core::lanes::KernelMode;
use simcov_repro::simcov_core::params::SimParams;
use simcov_repro::simcov_cpu::{CpuSim, CpuSimConfig};
use simcov_repro::simcov_driver::Simulation;
use simcov_repro::simcov_gpu::{GpuSim, GpuSimConfig};

fn params(seed: u64) -> SimParams {
    SimParams::test_config(GridDims::new2d(32, 32), 60, 8, seed)
}

/// Thread counts swept everywhere: inline dispatch, one worker, a few
/// workers, and more workers than ranks (oversubscribed).
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Run `p` on four CPU ranks inline and on each of `threads` workers, assert
/// every threaded run matches the inline one bitwise, and return that one.
fn assert_cpu_threads_match_inline(p: &SimParams, threads: &[usize]) -> CpuSim {
    let mut reference =
        CpuSim::new(CpuSimConfig::new(p.clone(), 4).with_threads(0)).expect("valid config");
    reference.run().expect("healthy run");
    let ref_world = reference.gather_world();

    for &threads in threads {
        let cfg = CpuSimConfig::new(p.clone(), 4).with_threads(threads);
        let mut sim = CpuSim::new(cfg).expect("valid config");
        sim.run().expect("healthy run");
        assert_eq!(
            reference.history(),
            sim.history(),
            "{threads} threads: time series diverged from inline dispatch"
        );
        if let Some((idx, why)) = ref_world.first_difference(&sim.gather_world()) {
            panic!("{threads} threads: world diverged at voxel {idx}: {why}");
        }
    }
    reference
}

#[test]
fn cpu_thread_sweep_is_bitwise_identical() {
    assert_cpu_threads_match_inline(&params(21), &THREAD_SWEEP);
}

#[test]
fn gpu_thread_sweep_is_bitwise_identical() {
    let mut reference =
        GpuSim::new(GpuSimConfig::new(params(22), 4).with_threads(0)).expect("valid config");
    reference.run().expect("healthy run");
    let ref_world = reference.gather_world();

    for threads in THREAD_SWEEP {
        let cfg = GpuSimConfig::new(params(22), 4).with_threads(threads);
        let mut sim = GpuSim::new(cfg).expect("valid config");
        sim.run().expect("healthy run");
        assert_eq!(
            reference.history(),
            sim.history(),
            "{threads} threads: time series diverged from inline dispatch"
        );
        if let Some((idx, why)) = ref_world.first_difference(&sim.gather_world()) {
            panic!("{threads} threads: world diverged at voxel {idx}: {why}");
        }
    }
}

#[test]
fn split_trial_tables_are_bitwise_identical_across_threads() {
    // An arc whose circulating pool outgrows one trial chunk while T cells
    // still land, so the trial table's RNG pass runs on the pool's threads
    // in pieces whose order decides which trial claims a voxel.
    let p = SimParams::scaled_to(GridDims::new2d(96, 96), 400, 8, 31);
    let reference = assert_cpu_threads_match_inline(&p, &[1, 2, 3]);
    // A step's table draws one trial per T cell circulating when it starts.
    let split_landings = reference
        .history()
        .steps
        .windows(2)
        .filter(|w| w[0].tcells_vasculature > CHUNK_TRIALS as u64 && w[1].extravasated > 0)
        .count();
    assert!(
        split_landings > 0,
        "no step splits its trial table and lands a T cell"
    );
}

#[test]
fn repeated_threaded_runs_are_identical() {
    // Same seeded config, same thread count, many runs: the scheduler is
    // free to interleave the workers differently every time, and none of it
    // may reach the results.
    let run = || {
        let cfg = CpuSimConfig::new(params(23), 4).with_threads(4);
        let mut sim = CpuSim::new(cfg).expect("valid config");
        sim.run().expect("healthy run");
        (sim.history().clone(), sim.gather_world())
    };
    let (hist0, world0) = run();
    for attempt in 1..4 {
        let (hist, world) = run();
        assert_eq!(hist0, hist, "attempt {attempt}: time series diverged");
        assert!(
            world0.first_difference(&world).is_none(),
            "attempt {attempt}: world diverged"
        );
    }
}

#[test]
fn kernel_mode_and_threads_are_jointly_invariant() {
    // The full cross product {scalar, wide} × {inline, threaded} lands on
    // one trajectory.
    let mut reference: Option<(_, _)> = None;
    for kernel in [KernelMode::Scalar, KernelMode::Wide] {
        for threads in [0usize, 3] {
            let cfg = CpuSimConfig::new(params(24), 4)
                .with_kernel(kernel)
                .with_threads(threads);
            let mut sim = CpuSim::new(cfg).expect("valid config");
            sim.run().expect("healthy run");
            let state = (sim.history().clone(), sim.gather_world());
            match &reference {
                None => reference = Some(state),
                Some((hist, world)) => {
                    assert_eq!(
                        hist,
                        &state.0,
                        "{} kernel / {threads} threads: time series diverged",
                        kernel.name()
                    );
                    assert!(
                        world.first_difference(&state.1).is_none(),
                        "{} kernel / {threads} threads: world diverged",
                        kernel.name()
                    );
                }
            }
        }
    }
}

#[test]
fn rank_death_recovery_while_ranks_run_concurrently() {
    // The failure-free oracle runs inline; the faulty run loses rank 1 at
    // step 30 (superstep 90: the CPU executor runs 3 supersteps per step)
    // with four ranks genuinely concurrent on four workers. Rollback,
    // re-partition and replay must land on the oracle bitwise.
    let mut clean = CpuSim::new(CpuSimConfig::new(params(25), 4)).expect("valid config");
    clean.run().expect("no faults");
    assert!(clean.recovery_log().is_empty());

    let plan = FaultPlan::from_events(vec![FaultEvent {
        superstep: 90,
        rank: 1,
        kind: FaultKind::RankDeath,
    }]);
    let cfg = CpuSimConfig::new(params(25), 4)
        .with_fault_plan(plan)
        .with_threads(4);
    let mut faulty = CpuSim::new(cfg).expect("valid config");
    faulty.run().expect("recovery must absorb the death");

    let log = faulty.recovery_log();
    assert_eq!(log.len(), 1, "exactly one recovery");
    assert_eq!(log[0].dead_ranks, vec![1]);
    assert_eq!(faulty.n_units(), 3, "domain shrank to the survivors");
    assert_eq!(clean.history(), faulty.history(), "time series diverged");
    assert!(
        clean
            .gather_world()
            .first_difference(&faulty.gather_world())
            .is_none(),
        "world diverged after concurrent recovery"
    );
}

#[test]
fn slow_rank_stall_while_ranks_run_concurrently() {
    // A stalling rank skews the workers' relative progress — the barrier
    // protocol must absorb the skew without reordering anything observable.
    let mut clean = CpuSim::new(CpuSimConfig::new(params(26), 4)).expect("valid config");
    clean.run().expect("no faults");

    let events = (30..40u64)
        .map(|s| FaultEvent {
            superstep: s,
            rank: 2,
            kind: FaultKind::SlowRank { stall_ns: 200_000 },
        })
        .collect();
    let cfg = CpuSimConfig::new(params(26), 4)
        .with_fault_plan(FaultPlan::from_events(events))
        .with_threads(2);
    let mut stalled = CpuSim::new(cfg).expect("valid config");
    stalled.run().expect("stalls are not failures");

    let cc = stalled.comm_counters();
    assert!(cc.stalls > 0, "injected stalls must be counted");
    assert!(stalled.recovery_log().is_empty(), "no spurious recovery");
    assert_eq!(clean.history(), stalled.history(), "time series diverged");
    assert!(
        clean
            .gather_world()
            .first_difference(&stalled.gather_world())
            .is_none(),
        "world diverged under stall injection"
    );
}
