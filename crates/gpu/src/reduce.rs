//! Statistics reduction strategies (§3.3).
//!
//! SIMCoV-GPU found that a full-sweep reduction over every voxel beats
//! interleaving atomics with the update kernels, and that a shared-memory
//! tree reduction (Harris \[17\]) further cuts the atomic count to one per
//! block. Both strategies are implemented here over the same fold (so the
//! *result* is identical and deterministic); what differs is the metered
//! cost:
//!
//! * [`atomic_reduce`] — the unoptimized path: one global atomic per element
//!   per statistic lane, issued from within the update kernels (no extra
//!   launch, no extra memory sweep — the values are already in registers).
//! * [`tree_reduce`] — a dedicated kernel: each thread accumulates a subset
//!   of voxels, each block folds its threads through shared memory
//!   (`block_size` shared-memory ops per block), and one global atomic per
//!   lane per block publishes the block partial.
//!
//! The cost of each strategy lives in [`meter_tree_reduce`] /
//! [`meter_atomic_reduce`], which the folds call. A caller whose combine is
//! exactly associative (so the fold's shape cannot show in the result) may
//! accumulate however is fastest on the host and meter the modelled kernel
//! through the same two functions.

use crate::counters::{DeviceCounters, KernelCategory};
use crate::kernel::LaunchConfig;

/// Fold `map(0..n)` with `combine`, metering the cost of a shared-memory
/// tree reduction. `lanes` is the number of statistic lanes (atomics per
/// block), `bytes_per_elem` the global-memory traffic per element read.
#[allow(clippy::too_many_arguments)]
pub fn tree_reduce<T, M, C>(
    counters: &mut DeviceCounters,
    cfg: LaunchConfig,
    n: usize,
    lanes: u64,
    bytes_per_elem: u64,
    zero: T,
    map: M,
    combine: C,
) -> T
where
    T: Clone,
    M: Fn(usize) -> T,
    C: Fn(&mut T, &T),
{
    let mut total = zero.clone();
    let block_elems = cfg.block_size.max(1);
    let n_blocks = n.div_ceil(block_elems);
    for b in 0..n_blocks {
        let mut partial = zero.clone();
        let lo = b * block_elems;
        let hi = (lo + block_elems).min(n);
        for i in lo..hi {
            combine(&mut partial, &map(i));
        }
        combine(&mut total, &partial);
    }
    meter_tree_reduce(counters, cfg, n, lanes, bytes_per_elem);
    total
}

/// Meter one shared-memory tree-reduction kernel over `n` elements: one
/// launch, one read of every element, ~`block_size` shared-memory operations
/// per block (the halving tree) and one global atomic per lane per block.
pub fn meter_tree_reduce(
    counters: &mut DeviceCounters,
    cfg: LaunchConfig,
    n: usize,
    lanes: u64,
    bytes_per_elem: u64,
) {
    let block_elems = cfg.block_size.max(1);
    let n_blocks = n.div_ceil(block_elems);
    let cat = counters.category_mut(KernelCategory::ReduceStats);
    cat.launches += 1;
    cat.elements += n as u64;
    cat.bytes += n as u64 * bytes_per_elem;
    cat.smem_ops += (n_blocks * block_elems) as u64;
    cat.atomics += n_blocks as u64 * lanes;
}

/// Fold `map(0..n)` with `combine`, metering the cost of per-element global
/// atomics issued from within the update kernels (the unoptimized §3.4
/// variant). Produces the identical value to [`tree_reduce`].
pub fn atomic_reduce<T, M, C>(
    counters: &mut DeviceCounters,
    n: usize,
    lanes: u64,
    zero: T,
    map: M,
    combine: C,
) -> T
where
    T: Clone,
    M: Fn(usize) -> T,
    C: Fn(&mut T, &T),
{
    let mut total = zero;
    for i in 0..n {
        combine(&mut total, &map(i));
    }
    meter_atomic_reduce(counters, n, lanes);
    total
}

/// Meter `n` elements accumulated with one global atomic per lane each,
/// issued from within the update kernels (no launch, no extra sweep).
pub fn meter_atomic_reduce(counters: &mut DeviceCounters, n: usize, lanes: u64) {
    counters.category_mut(KernelCategory::ReduceStats).atomics += n as u64 * lanes;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_map(i: usize) -> u64 {
        i as u64
    }

    #[test]
    fn tree_and_atomic_agree() {
        let mut c1 = DeviceCounters::new();
        let mut c2 = DeviceCounters::new();
        let cfg = LaunchConfig::cover(1000, 128);
        let a = tree_reduce(&mut c1, cfg, 1000, 3, 8, 0u64, sum_map, |t, v| *t += v);
        let b = atomic_reduce(&mut c2, 1000, 3, 0u64, sum_map, |t, v| *t += v);
        assert_eq!(a, b);
        assert_eq!(a, 499_500);
    }

    #[test]
    fn tree_reduce_costs() {
        let mut c = DeviceCounters::new();
        let cfg = LaunchConfig::cover(1000, 128);
        tree_reduce(&mut c, cfg, 1000, 3, 8, 0u64, sum_map, |t, v| *t += v);
        assert_eq!(c.reduce.launches, 1);
        assert_eq!(c.reduce.elements, 1000);
        assert_eq!(c.reduce.bytes, 8000);
        // 8 blocks of 128.
        assert_eq!(c.reduce.atomics, 8 * 3);
        assert_eq!(c.reduce.smem_ops, 8 * 128);
    }

    #[test]
    fn atomic_reduce_costs() {
        let mut c = DeviceCounters::new();
        atomic_reduce(&mut c, 1000, 3, 0u64, sum_map, |t, v| *t += v);
        assert_eq!(c.reduce.atomics, 3000);
        assert_eq!(c.reduce.launches, 0);
        assert_eq!(c.reduce.elements, 0);
        assert_eq!(c.reduce.smem_ops, 0);
    }

    #[test]
    fn tree_reduce_atomics_scale_with_block_size() {
        // Larger blocks ⇒ fewer block partials ⇒ fewer atomics.
        let mut small = DeviceCounters::new();
        let mut large = DeviceCounters::new();
        tree_reduce(
            &mut small,
            LaunchConfig::cover(4096, 64),
            4096,
            1,
            4,
            0u64,
            sum_map,
            |t, v| *t += v,
        );
        tree_reduce(
            &mut large,
            LaunchConfig::cover(4096, 512),
            4096,
            1,
            4,
            0u64,
            sum_map,
            |t, v| *t += v,
        );
        assert!(small.reduce.atomics > large.reduce.atomics);
    }

    #[test]
    fn empty_reduce() {
        let mut c = DeviceCounters::new();
        let cfg = LaunchConfig::cover(0, 128);
        let v = tree_reduce(&mut c, cfg, 0, 3, 8, 42u64, sum_map, |t, v| *t += v);
        assert_eq!(v, 42);
        assert_eq!(c.reduce.elements, 0);
    }

    #[test]
    fn float_fold_is_deterministic_order() {
        // Both strategies fold in index order within blocks and block order
        // across blocks, so repeated runs are bitwise identical.
        let mut c = DeviceCounters::new();
        let cfg = LaunchConfig::cover(257, 32);
        let m = |i: usize| (i as f64) * 0.1;
        let a = tree_reduce(&mut c, cfg, 257, 1, 4, 0.0f64, m, |t, v| *t += v);
        let b = tree_reduce(&mut c, cfg, 257, 1, 4, 0.0f64, m, |t, v| *t += v);
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
