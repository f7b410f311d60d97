//! Truly concurrent ranks: a case's `threads` pins the executor's
//! `WorkPool`, and any thread count (oversubscribed too) must land on the
//! serial oracle bitwise, also with rank deaths and stalls injected.

mod equivalence;
use equivalence::*;
use simcov_repro::simcov_core::extrav::CHUNK_TRIALS;
use simcov_repro::simcov_core::stats::StepStats;

/// Four CPU ranks on a 32x32 grid, once per worker count (0: inline).
fn threads(seed: u64, counts: &[usize], f: impl Fn(&mut Case)) -> Vec<Case> {
    let base = Case::test([32, 32, 1], 60, 8, seed).with(f);
    counts
        .iter()
        .map(|&t| base.with(|c| c.threads = Some(t)))
        .collect()
}

equivalence_tests! {
    cpu_thread_sweep_is_bitwise_identical: threads(21, &[0, 1, 2, 4, 8], |_| {});
    gpu_thread_sweep_is_bitwise_identical:
        threads(22, &[0, 1, 2, 4, 8], |c| c.exec = Gpu(Combined));
    // The scheduler may interleave the workers differently on every run.
    repeated_threaded_runs_are_identical: threads(23, &[4; 4], |_| {});
    kernel_mode_and_threads_are_jointly_invariant:
        [Scalar, Wide].map(|k| threads(24, &[0, 3], |c| c.kernel = k)).concat();
    // Rank 1 dies at step 30 (superstep 90; three per CPU step).
    rank_death_recovery_while_ranks_run_concurrently:
        threads(25, &[4], |c| c.faults = Some(Death(90, 1)));
    slow_rank_stall_while_ranks_run_concurrently:
        threads(26, &[2], |c| c.faults = Some(Stall(2, 30, 200_000)));
}

#[test]
fn split_trial_tables_are_bitwise_identical_across_threads() {
    // An arc whose circulating pool outgrows one trial chunk while T cells
    // land, so the pool's threads draw split tables. All ten such steps of
    // the 400-step arc fall in steps 143-206; the runs stop after 210.
    let base = Case::test([96, 96, 1], 210, 8, 31).with(|c| c.arc = Some(400));
    let history = check([1, 2, 3].map(|t| base.with(|c| c.threads = Some(t))));
    let split =
        |w: &[StepStats]| w[0].tcells_vasculature > CHUNK_TRIALS as u64 && w[1].extravasated > 0;
    let splits = history.steps.windows(2).filter(|w| split(w)).count();
    assert!(
        splits > 0,
        "no step splits its trial table and lands a T cell"
    );
}
