//! The per-rank active list (§2.2, §3.2).
//!
//! SIMCoV-CPU's key optimization: track which voxels can possibly change and
//! skip the rest. Processing the 1-dilation of active voxels is *exact*
//! (see `simcov_core::rules` module docs). The set is a bitmask plus an
//! insertion list; iteration is over the sorted, deduplicated list so
//! processing order is deterministic.

/// A set of local voxel indices with O(1) insert/test and deterministic
/// sorted iteration. The `Default` value has capacity zero: it only stands in
/// while a set is `std::mem::take`n out of its owner for iteration.
#[derive(Debug, Clone, Default)]
pub struct ActiveSet {
    bits: Vec<u64>,
    list: Vec<u32>,
    sorted: bool,
}

impl ActiveSet {
    pub fn new(capacity: usize) -> Self {
        ActiveSet {
            bits: vec![0; capacity.div_ceil(64)],
            list: Vec::new(),
            sorted: true,
        }
    }

    #[inline]
    pub fn insert(&mut self, idx: u32) {
        let w = (idx / 64) as usize;
        let b = 1u64 << (idx % 64);
        if self.bits[w] & b == 0 {
            self.bits[w] |= b;
            self.list.push(idx);
            self.sorted = false;
        }
    }

    #[inline]
    pub fn contains(&self, idx: u32) -> bool {
        let w = (idx / 64) as usize;
        self.bits[w] & (1u64 << (idx % 64)) != 0
    }

    pub fn len(&self) -> usize {
        self.list.len()
    }

    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Sorted, deduplicated members.
    pub fn sorted(&mut self) -> &[u32] {
        if !self.sorted {
            self.list.sort_unstable();
            self.sorted = true;
        }
        &self.list
    }

    pub fn clear(&mut self) {
        for &i in &self.list {
            self.bits[(i / 64) as usize] = 0;
        }
        // Word-granular clearing may miss shared words already zeroed; be
        // exact instead:
        for w in &mut self.bits {
            *w = 0;
        }
        self.list.clear();
        self.sorted = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_dedup_and_sorted_iteration() {
        let mut s = ActiveSet::new(200);
        for &i in &[5u32, 3, 5, 100, 3, 0, 199] {
            s.insert(i);
        }
        assert_eq!(s.len(), 5);
        assert!(s.contains(100));
        assert!(!s.contains(101));
        assert_eq!(s.sorted(), &[0, 3, 5, 100, 199]);
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = ActiveSet::new(128);
        s.insert(7);
        s.insert(127);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(7));
        s.insert(7);
        assert_eq!(s.sorted(), &[7]);
    }

    #[test]
    fn boundary_indices() {
        let mut s = ActiveSet::new(65);
        s.insert(63);
        s.insert(64);
        assert!(s.contains(63));
        assert!(s.contains(64));
        assert_eq!(s.sorted(), &[63, 64]);
    }
}
