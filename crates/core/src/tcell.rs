//! T-cell agents and the implicit vascular pool.
//!
//! Tissue-resident T cells are stored one-per-voxel in a packed 32-bit slot
//! (the GPU memory layout: a fixed-footprint field rather than a dynamic
//! agent list, §3). Circulating T cells are modeled implicitly as an
//! aggregate vascular pool (§2.2): cohorts with an expiry step, replicated
//! deterministically on every rank.

use pgas::wire::{WireCodec, WireField, WireReader, WireWrite};
use std::collections::VecDeque;

/// Packed per-voxel T-cell slot.
///
/// Layout: `0` = empty. Otherwise bit 31 is set and the word packs
/// `fresh` (bit 30, set during the step the cell extravasated so it does not
/// also act that step), `bind_steps` (bits 22–29, steps remaining bound to an
/// epithelial cell) and `tissue_steps` (bits 0–21, remaining tissue
/// lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TCellSlot(pub u32);

const OCCUPIED: u32 = 1 << 31;
const FRESH: u32 = 1 << 30;
const BIND_SHIFT: u32 = 22;
const BIND_MASK: u32 = 0xff << BIND_SHIFT;
const TISSUE_MASK: u32 = (1 << 22) - 1;

impl TCellSlot {
    pub const EMPTY: TCellSlot = TCellSlot(0);

    /// A newly extravasated T cell with the given tissue lifetime, marked
    /// fresh for the remainder of the current step.
    #[inline]
    pub fn fresh(tissue_steps: u32) -> Self {
        TCellSlot(OCCUPIED | FRESH | (tissue_steps & TISSUE_MASK))
    }

    /// An established (non-fresh) T cell.
    #[inline]
    pub fn established(tissue_steps: u32, bind_steps: u32) -> Self {
        debug_assert!(bind_steps <= 0xff, "bind period must fit in 8 bits");
        TCellSlot(OCCUPIED | ((bind_steps & 0xff) << BIND_SHIFT) | (tissue_steps & TISSUE_MASK))
    }

    #[inline]
    pub fn occupied(self) -> bool {
        self.0 & OCCUPIED != 0
    }

    #[inline]
    pub fn is_fresh(self) -> bool {
        self.0 & FRESH != 0
    }

    #[inline]
    pub fn tissue_steps(self) -> u32 {
        self.0 & TISSUE_MASK
    }

    #[inline]
    pub fn bind_steps(self) -> u32 {
        (self.0 & BIND_MASK) >> BIND_SHIFT
    }

    /// Clear the fresh marker (end of the extravasation step).
    #[inline]
    pub fn settled(self) -> Self {
        TCellSlot(self.0 & !FRESH)
    }

    #[inline]
    pub fn with_bind_steps(self, b: u32) -> Self {
        debug_assert!(b <= 0xff);
        TCellSlot((self.0 & !BIND_MASK) | ((b & 0xff) << BIND_SHIFT))
    }

    #[inline]
    pub fn with_tissue_steps(self, t: u32) -> Self {
        TCellSlot((self.0 & !TISSUE_MASK) | (t & TISSUE_MASK))
    }
}

/// A slot crosses the wire as its packed word.
impl WireCodec for TCellSlot {
    fn encode<W: WireWrite>(&self, out: &mut W) {
        self.0.encode(out);
    }
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        u32::decode(r).map(TCellSlot)
    }
}

impl WireField for TCellSlot {
    const LEN: usize = <u32 as WireField>::LEN;
    const BITS: u64 = <u32 as WireField>::BITS;
    fn flip_bit(&mut self, bit: u64) {
        self.0.flip_bit(bit);
    }
}

pgas::wire_cell! {
    /// A cohort of circulating T cells generated at the same step, expiring
    /// together. SIMCoV's vascular residence is modeled as a fixed period per
    /// cohort (the aggregate-pool simplification documented in DESIGN.md; the
    /// per-cell tissue lifetime *is* Poisson-drawn at extravasation).
    #[derive(Eq)]
    pub struct Cohort {
        pub expiry_step: u64,
        pub count: u64,
    }
}

/// The implicit vascular T-cell pool. Every rank holds an identical replica
/// and advances it with the globally-reduced extravasation count, so pool
/// evolution is deterministic and partition-independent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VascularPool {
    pub(crate) cohorts: VecDeque<Cohort>,
    /// Fractional generation carry so non-integer rates accumulate exactly.
    pub(crate) carry: f64,
    pub(crate) total: u64,
}

impl VascularPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of circulating T cells (= extravasation trials next step).
    #[inline]
    pub fn circulating(&self) -> u64 {
        self.total
    }

    /// Snapshot the pool state for checkpointing.
    pub fn snapshot(&self) -> (Vec<Cohort>, f64, u64) {
        (
            self.cohorts.iter().copied().collect(),
            self.carry,
            self.total,
        )
    }

    /// Restore a pool from a [`VascularPool::snapshot`].
    pub fn from_snapshot(cohorts: Vec<Cohort>, carry: f64, total: u64) -> Self {
        let pool = VascularPool {
            cohorts: cohorts.into_iter().collect(),
            carry,
            total,
        };
        debug_assert_eq!(
            pool.cohorts.iter().map(|c| c.count).sum::<u64>(),
            pool.total
        );
        pool
    }

    /// Advance one step: expire old cohorts, generate new cells (rate per
    /// step, active after `initial_delay`), and remove the cells that
    /// extravasated this step (`extravasated`, globally reduced). Removal
    /// draws from the oldest cohorts first.
    pub fn advance(
        &mut self,
        step: u64,
        rate: f64,
        initial_delay: u64,
        vascular_period: f64,
        extravasated: u64,
    ) {
        // Expire.
        while let Some(front) = self.cohorts.front() {
            if front.expiry_step <= step {
                self.total -= front.count;
                self.cohorts.pop_front();
            } else {
                break;
            }
        }
        // Remove extravasated cells, oldest first.
        let mut remaining = extravasated.min(self.total);
        self.total -= remaining;
        while remaining > 0 {
            let front = self.cohorts.front_mut().expect("pool accounting");
            if front.count <= remaining {
                remaining -= front.count;
                self.cohorts.pop_front();
            } else {
                front.count -= remaining;
                remaining = 0;
            }
        }
        // Generate.
        if step >= initial_delay {
            let gen = rate + self.carry;
            let whole = gen.floor();
            self.carry = gen - whole;
            let n = whole as u64;
            if n > 0 {
                self.total += n;
                self.cohorts.push_back(Cohort {
                    expiry_step: step + vascular_period.round().max(1.0) as u64,
                    count: n,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_empty_is_not_occupied() {
        assert!(!TCellSlot::EMPTY.occupied());
        assert_eq!(TCellSlot::EMPTY.tissue_steps(), 0);
    }

    #[test]
    fn slot_packing_roundtrip() {
        let s = TCellSlot::established(123_456, 7);
        assert!(s.occupied());
        assert!(!s.is_fresh());
        assert_eq!(s.tissue_steps(), 123_456);
        assert_eq!(s.bind_steps(), 7);

        let f = TCellSlot::fresh(42);
        assert!(f.occupied());
        assert!(f.is_fresh());
        assert_eq!(f.tissue_steps(), 42);
        assert_eq!(f.bind_steps(), 0);
        let settled = f.settled();
        assert!(!settled.is_fresh());
        assert!(settled.occupied());
        assert_eq!(settled.tissue_steps(), 42);
    }

    #[test]
    fn slot_mutators() {
        let s = TCellSlot::established(100, 0)
            .with_bind_steps(9)
            .with_tissue_steps(99);
        assert_eq!(s.bind_steps(), 9);
        assert_eq!(s.tissue_steps(), 99);
        assert!(s.occupied());
    }

    #[test]
    fn pool_generates_after_delay() {
        let mut p = VascularPool::new();
        p.advance(0, 10.0, 5, 100.0, 0);
        assert_eq!(p.circulating(), 0);
        p.advance(5, 10.0, 5, 100.0, 0);
        assert_eq!(p.circulating(), 10);
        p.advance(6, 10.0, 5, 100.0, 0);
        assert_eq!(p.circulating(), 20);
    }

    #[test]
    fn pool_fractional_rate_accumulates() {
        let mut p = VascularPool::new();
        for step in 0..10 {
            p.advance(step, 0.5, 0, 1000.0, 0);
        }
        assert_eq!(p.circulating(), 5);
    }

    #[test]
    fn pool_expires_cohorts() {
        let mut p = VascularPool::new();
        p.advance(0, 10.0, 0, 3.0, 0); // expiry at step 3
        assert_eq!(p.circulating(), 10);
        p.advance(1, 0.0, 0, 3.0, 0);
        p.advance(2, 0.0, 0, 3.0, 0);
        assert_eq!(p.circulating(), 10);
        p.advance(3, 0.0, 0, 3.0, 0);
        assert_eq!(p.circulating(), 0);
    }

    #[test]
    fn pool_extravasation_drains_oldest_first() {
        let mut p = VascularPool::new();
        p.advance(0, 10.0, 0, 100.0, 0);
        p.advance(1, 10.0, 0, 100.0, 0);
        assert_eq!(p.circulating(), 20);
        // Remove 15: the whole first cohort (10) plus 5 of the second.
        p.advance(2, 0.0, 0, 100.0, 15);
        assert_eq!(p.circulating(), 5);
    }

    #[test]
    fn pool_extravasation_caps_at_total() {
        let mut p = VascularPool::new();
        p.advance(0, 3.0, 0, 100.0, 0);
        p.advance(1, 0.0, 0, 100.0, 1_000);
        assert_eq!(p.circulating(), 0);
    }

    #[test]
    fn pool_replicas_agree() {
        let mut a = VascularPool::new();
        let mut b = VascularPool::new();
        for step in 0..100 {
            let ex = step % 3;
            a.advance(step, 2.7, 10, 40.0, ex);
            b.advance(step, 2.7, 10, 40.0, ex);
        }
        assert_eq!(a, b);
    }
}
