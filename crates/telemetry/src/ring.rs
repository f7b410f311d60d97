//! Bounded single-writer event rings.
//!
//! The hot path of the runtime must never allocate or block to record an
//! event, and a long run must never grow an unbounded trace. An
//! [`EventRing`] is a
//! fixed-capacity circular buffer: pushes are wait-free stores from a single
//! writer thread, the ring keeps the most recent `capacity` events, and
//! everything older is counted — never silently lost — in [`EventRing::dropped`].
//!
//! ## Concurrency contract
//!
//! The ring is the same shape as the runtime's per-rank "slots" pattern: each
//! ring has **exactly one writer at a time** (the rank thread that owns the
//! track), and readers only run while writers are quiescent (after a
//! superstep barrier or at end of run). `push` takes `&self` so rank closures
//! can share one telemetry handle, and the type asserts `Sync` on that
//! single-writer / quiescent-reader discipline.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};

/// Fixed-capacity overwrite-oldest ring buffer for `Copy` events.
pub struct EventRing<T: Copy> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// `capacity - 1`; capacity is always a power of two.
    mask: u64,
    /// Total number of pushes ever; the write cursor is `head % capacity`.
    head: AtomicU64,
}

// SAFETY: at most one thread writes a given ring at a time (single-writer
// contract above), and snapshots are only taken while writers are quiescent,
// so the `UnsafeCell` slots are never accessed concurrently for write+read.
// `head` is atomic. Same discipline as the BSP executor's per-rank slots.
unsafe impl<T: Copy + Send> Sync for EventRing<T> {}
unsafe impl<T: Copy + Send> Send for EventRing<T> {}

impl<T: Copy> EventRing<T> {
    /// A ring retaining the most recent `capacity` events (rounded up to a
    /// power of two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            slots,
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
        }
    }

    /// Retention capacity (a power of two).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Append an event, overwriting the oldest retained event when full.
    ///
    /// Wait-free and allocation-free. Must only be called by the ring's
    /// single writer (see the module docs).
    #[inline]
    pub fn push(&self, value: T) {
        let head = self.head.load(Ordering::Relaxed);
        let idx = (head & self.mask) as usize;
        // SAFETY: single-writer contract — no other thread touches the slot
        // while we write it, and readers are quiescent during pushes.
        unsafe {
            (*self.slots[idx].get()).write(value);
        }
        // Release so a reader that observes the new head also observes the
        // slot contents once writers have quiesced.
        self.head.store(head + 1, Ordering::Release);
    }

    /// Total events ever pushed (retained + dropped).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.pushed().min(self.slots.len() as u64) as usize
    }

    /// True when nothing has ever been pushed.
    pub fn is_empty(&self) -> bool {
        self.pushed() == 0
    }

    /// Events lost to wraparound: pushes beyond capacity overwrite the
    /// oldest entries, and this counter accounts for every one of them.
    pub fn dropped(&self) -> u64 {
        self.pushed().saturating_sub(self.slots.len() as u64)
    }

    /// Copy out the retained events, oldest first.
    ///
    /// Must only be called while the writer is quiescent (after a barrier or
    /// at end of run); this is the reader half of the ring's contract.
    pub fn snapshot(&self) -> Vec<T> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let retained = head.min(cap);
        let start = head - retained;
        let mut out = Vec::with_capacity(retained as usize);
        for i in start..head {
            let idx = (i & self.mask) as usize;
            // SAFETY: every index in `start..head` has been initialized by a
            // completed push, and the writer is quiescent (reader contract).
            out.push(unsafe { (*self.slots[idx].get()).assume_init() });
        }
        out
    }
}

impl<T: Copy + std::fmt::Debug> std::fmt::Debug for EventRing<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.capacity())
            .field("pushed", &self.pushed())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(EventRing::<u64>::new(0).capacity(), 2);
        assert_eq!(EventRing::<u64>::new(5).capacity(), 8);
        assert_eq!(EventRing::<u64>::new(8).capacity(), 8);
    }

    #[test]
    fn retains_everything_under_capacity() {
        let r = EventRing::new(8);
        for i in 0..5u64 {
            r.push(i);
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.snapshot(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn wraparound_preserves_drop_counts() {
        let r = EventRing::new(8);
        for i in 0..20u64 {
            r.push(i);
        }
        assert_eq!(r.capacity(), 8);
        assert_eq!(r.pushed(), 20);
        assert_eq!(r.len(), 8, "ring retains exactly `capacity` events");
        assert_eq!(r.dropped(), 12, "every overwritten event is counted");
        assert_eq!(
            r.snapshot(),
            (12..20).collect::<Vec<u64>>(),
            "retained events are the most recent, oldest first"
        );
        // Keep wrapping: the accounting identity pushed = retained + dropped
        // holds at every point.
        for i in 20..1000u64 {
            r.push(i);
            assert_eq!(r.pushed(), r.len() as u64 + r.dropped());
        }
        assert_eq!(r.dropped(), 1000 - 8);
    }

    #[test]
    fn cross_thread_handoff_after_quiescence() {
        let r = std::sync::Arc::new(EventRing::new(4));
        let w = std::sync::Arc::clone(&r);
        std::thread::spawn(move || {
            for i in 0..10u64 {
                w.push(i);
            }
        })
        .join()
        .unwrap();
        // Writer has quiesced (joined): reader sees a consistent ring.
        assert_eq!(r.snapshot(), vec![6, 7, 8, 9]);
        assert_eq!(r.dropped(), 6);
    }
}
