//! Delivery order must not reach the results: seeded shuffles of every inbox
//! and storms of shuffled and duplicated batches, under concurrent workers
//! and an every-step audit that must raise nothing, land on the oracle.

mod equivalence;
use equivalence::*;

/// Four units on a 32x32 grid; with `threads`, audited every step.
fn delivered(seed: u64, delivery: Delivery, threads: Option<usize>, exec: Exec) -> [Case; 1] {
    let audit = threads.map(|_| 1);
    let case = Case::test([32, 32, 1], 60, 8, seed).on(exec, 4);
    [case.with(|c| (c.delivery, c.threads, c.audit) = (delivery, threads, audit))]
}

equivalence_tests! {
    cpu_shuffled_delivery_is_bitwise_identical: delivered(21, Shuffled(0xD15C0), None, Cpu);
    gpu_shuffled_delivery_is_bitwise_identical:
        delivered(23, Shuffled(0x5EED), None, Gpu(Combined));
    // Two shuffle seeds on two rank counts, and an unshuffled third run.
    shuffle_seed_and_rank_count_are_both_invisible:
        [(InOrder, 2), (Shuffled(0xAAAA), 4), (Shuffled(0xBBBB), 8)]
            .map(|(delivery, ranks)| delivered(29, delivery, None, Cpu)[0].on(Cpu, ranks));
    cpu_concurrent_interleavings_cause_no_false_positives: delivered(31, Storm, Some(4), Cpu);
    // Workers oversubscribed past the device count.
    gpu_concurrent_interleavings_cause_no_false_positives:
        delivered(33, Storm, Some(6), Gpu(Combined));
    shuffle_storm_with_oversubscribed_workers_is_bitwise_identical:
        delivered(37, Shuffled(0xAB1E), Some(8), Cpu);
}
