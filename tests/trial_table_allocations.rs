//! The trial table's steady state allocates nothing. Its chunk and count
//! buffers are sized on the coordinator and kept from step to step, so once a
//! table has built a set of steps, building them again allocates only the
//! pool's per-job handle: one allocation per rebuild on a pool with workers,
//! none on an inline pool. Counted by a counting global allocator; this file
//! holds one test so no other test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use simcov_repro::pgas::WorkPool;
use simcov_repro::simcov_core::extrav::TrialTable;
use simcov_repro::simcov_core::grid::GridDims;
use simcov_repro::simcov_core::params::SimParams;
use simcov_repro::simcov_core::rng::{CounterRng, Stream};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const STEPS: u64 = 20;

#[test]
fn rebuilding_warm_steps_allocates_only_the_pool_job() {
    // `cpu_arc`'s grid at its steady-state pool (five trials per voxel),
    // with about one voxel in a hundred listed.
    let p = SimParams {
        dims: GridDims::new2d(160, 160),
        seed: 2024,
        ..SimParams::default()
    };
    let nvoxels = p.dims.nvoxels();
    let ntrials = 5 * nvoxels as u64;
    let mut rng = CounterRng::new(41, Stream::ExtravVoxel, 0, 0);
    let mut mask = vec![0u64; nvoxels.div_ceil(64)];
    for g in 0..nvoxels {
        if rng.below(100) == 0 {
            mask[g / 64] |= 1 << (g % 64);
        }
    }

    for (workers, budget) in [(2, 1), (0, 0)] {
        let pool = WorkPool::new(workers);
        let mut table = TrialTable::default();
        let mut rebuild = |step| {
            table.rebuild_listed(&pool, &p, step, ntrials, |m| m.copy_from_slice(&mask));
        };
        for step in 0..STEPS {
            rebuild(step);
        }
        let mut counts = [0; STEPS as usize];
        for (step, count) in (0..STEPS).zip(&mut counts) {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            rebuild(step);
            *count = ALLOCATIONS.load(Ordering::Relaxed) - before;
        }
        assert!(
            counts.iter().all(|&c| c <= budget),
            "{workers} workers: allocations per warm rebuild {counts:?}, budget {budget}"
        );
    }
}
