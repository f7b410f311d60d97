//! Results are independent of repeated execution, unit count and
//! inspection mid-run (harness cases), and of pool size and message storms
//! (the two tests that drive `Bsp` directly).

mod equivalence;
use equivalence::*;
use simcov_repro::pgas::{Bsp, WorkPool};

equivalence_tests! {
    repeated_runs_are_bitwise_identical:
        [Gpu(Combined); 2].map(|e| Case::test([28, 28, 1], 80, 3, 5).on(e, 4));
    rank_count_does_not_change_results:
        [1, 2, 3, 6, 9].map(|r| Case::test([30, 30, 1], 80, 3, 6).on(Cpu, r));
    device_count_does_not_change_results:
        [1, 2, 4, 9].map(|d| Case::test([30, 30, 1], 80, 3, 7).on(Gpu(Combined), d));
    // Gathering the world after every step must not perturb the trajectory.
    partial_run_equals_full_run_prefix:
        [Case::test([24, 24, 1], 60, 2, 8).on(Gpu(Combined), 4).with(|c| c.lock = true)];
}

#[test]
fn bsp_results_independent_of_pool_size() {
    // The runtime canonicalizes message delivery; rank results must not
    // depend on how many worker threads execute the supersteps.
    let run = |threads: usize| -> Vec<Vec<u64>> {
        let pool = WorkPool::new(threads);
        let mut bsp: Bsp<u64> = Bsp::new(8);
        let mut states: Vec<Vec<u64>> = vec![Vec::new(); 8];
        // Two rounds of all-to-all with data-dependent payloads.
        for round in 0..2u64 {
            bsp.superstep(&pool, &mut states, |rank, s, inbox, out| {
                let got: u64 = inbox.iter().sum();
                s.push(got);
                for d in 0..8 {
                    if d != rank {
                        out.send(d, got + rank as u64 * 10 + round);
                    }
                }
            });
        }
        states
    };
    let a = run(0);
    let b = run(2);
    let c = run(7);
    assert_eq!(a, b);
    assert_eq!(a, c);
}

#[test]
fn message_storm_does_not_reorder_per_source() {
    // Even under a message storm (many messages per pair), each inbox
    // remains ordered by (source rank, emission order).
    let pool = WorkPool::new(3);
    let mut bsp: Bsp<(u64, u64)> = Bsp::new(5);
    let mut states = vec![(); 5];
    bsp.superstep(&pool, &mut states, |rank, _s, _i, out| {
        for k in 0..100u64 {
            out.send(0, (rank as u64, k));
        }
    });
    bsp.superstep(&pool, &mut states, |rank, _s, inbox, _out| {
        if rank == 0 {
            assert_eq!(inbox.len(), 500);
            let mut expect = Vec::new();
            for src in 0..5u64 {
                for k in 0..100u64 {
                    expect.push((src, k));
                }
            }
            assert_eq!(inbox, expect.as_slice());
        }
    });
}
