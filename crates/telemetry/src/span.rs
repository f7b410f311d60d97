//! Hierarchical spans over per-track ring buffers.
//!
//! A [`Telemetry`] handle is the one object threaded through every layer of
//! the stack. It is a cheap clone (an `Option<Arc<..>>`): a disabled handle
//! costs a single branch per instrumentation site, which is what lets
//! telemetry-on runs stay bitwise identical to telemetry-off runs — the
//! instrumentation only ever *observes*.
//!
//! Spans nest by parent id across layers without any thread-local state:
//!
//! ```text
//! step (driver, track 0)
//! └── superstep (BSP runtime, track 0)
//!     ├── compute (rank r, track r+1)
//!     │   └── kernel phases (GPU device r, track r+1, kind = Kernel)
//!     └── exchange (BSP runtime, track 0)
//! ```
//!
//! The driver publishes the current step span id in an atomic
//! ([`Telemetry::set_step_parent`]); the BSP superstep reads it, and hands
//! each rank closure its own span id the same way via per-track parent slots
//! ([`Telemetry::set_track_parent`]) so device code deep in the executor can
//! attach kernel-phase spans without plumbing ids through every call.
//!
//! Each track's ring has exactly one writer at a time (the owning rank
//! thread), which is what makes the lock-free [`EventRing`] sound — see that
//! module's contract.

use crate::clock::MonotonicClock;
use crate::registry::Registry;
use crate::ring::EventRing;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What level of the hierarchy a span belongs to. Doubles as the Chrome
/// exporter's category and the level label asserted by the smoke gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One driver step (track 0).
    Step,
    /// One BSP superstep, or a driver phase beside them such as the trial
    /// table (track 0).
    Superstep,
    /// Per-rank compute or exchange phase.
    RankPhase,
    /// GPU kernel phase inside a rank's compute span; the Chrome exporter
    /// routes these onto the dedicated GPU-phase track.
    Kernel,
    /// Zero-duration marker (health findings, injected stalls).
    Instant,
}

impl SpanKind {
    /// Stable lowercase name used in exporter output.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Step => "step",
            SpanKind::Superstep => "superstep",
            SpanKind::RankPhase => "rank-phase",
            SpanKind::Kernel => "kernel",
            SpanKind::Instant => "instant",
        }
    }
}

/// A completed span (or instant), fixed-size and `Copy` so ring pushes never
/// allocate.
#[derive(Debug, Clone, Copy)]
pub struct SpanEvent {
    /// Unique id within the run (never 0).
    pub id: u64,
    /// Parent span id, or 0 for a root span.
    pub parent: u64,
    /// Static label, e.g. `"superstep"` or `"kernel:diffusion"`.
    pub label: &'static str,
    /// Hierarchy level.
    pub kind: SpanKind,
    /// Track the event was recorded on (0 = driver/runtime, r+1 = rank r).
    pub track: u32,
    /// Start, nanoseconds since the telemetry clock origin.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// First kind-specific argument (step index, message count, rank, ...).
    pub a: u64,
    /// Second kind-specific argument (byte count, magnitude, ...).
    pub b: u64,
}

/// An open span: the id is allocated at open so children can parent to it
/// before the span closes. Zero-valued when telemetry is disabled.
#[derive(Debug, Clone, Copy)]
pub struct OpenSpan {
    /// Allocated span id (0 when telemetry is disabled).
    pub id: u64,
    /// Open timestamp in nanoseconds (0 when disabled).
    pub start_ns: u64,
}

impl OpenSpan {
    const DISABLED: OpenSpan = OpenSpan { id: 0, start_ns: 0 };
}

struct Inner {
    clock: MonotonicClock,
    next_id: AtomicU64,
    tracks: Box<[EventRing<SpanEvent>]>,
    /// Per-track parent slot: the rank's current compute span id, read by
    /// device code recording kernel phases on that track.
    track_parents: Box<[AtomicU64]>,
    /// Current driver step span id.
    step_parent: AtomicU64,
    registry: Registry,
}

/// Shared, cheaply clonable telemetry handle. `Telemetry::disabled()` is the
/// do-nothing default: every recording method is a single branch.
#[derive(Clone, Default)]
pub struct Telemetry(Option<Arc<Inner>>);

impl Telemetry {
    /// The inert handle: records nothing, costs one branch per call.
    pub fn disabled() -> Self {
        Telemetry(None)
    }

    /// An enabled handle with `n_tracks` event tracks (track 0 for the
    /// driver/runtime plus one per rank) each retaining `capacity` events.
    pub fn enabled(n_tracks: usize, capacity: usize) -> Self {
        let n = n_tracks.max(1);
        let tracks = (0..n)
            .map(|_| EventRing::new(capacity))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let track_parents = (0..n)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Telemetry(Some(Arc::new(Inner {
            clock: MonotonicClock::new(),
            next_id: AtomicU64::new(1),
            tracks,
            track_parents,
            step_parent: AtomicU64::new(0),
            registry: Registry::new(),
        })))
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Number of event tracks (0 when disabled).
    pub fn n_tracks(&self) -> usize {
        self.0.as_ref().map_or(0, |i| i.tracks.len())
    }

    /// The handle's clock, if enabled.
    pub fn clock(&self) -> Option<MonotonicClock> {
        self.0.as_ref().map(|i| i.clock)
    }

    /// Nanoseconds since the telemetry origin (0 when disabled).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.0.as_ref().map_or(0, |i| i.clock.now_ns())
    }

    /// The metric registry carried by this handle, if enabled.
    pub fn registry(&self) -> Option<&Registry> {
        self.0.as_ref().map(|i| &i.registry)
    }

    /// Open a span: allocates an id and stamps the start time. On a disabled
    /// handle this is a branch returning zeros.
    #[inline]
    pub fn open(&self) -> OpenSpan {
        match &self.0 {
            None => OpenSpan::DISABLED,
            Some(i) => OpenSpan {
                id: i.next_id.fetch_add(1, Ordering::Relaxed),
                start_ns: i.clock.now_ns(),
            },
        }
    }

    /// Close an open span, recording it on `track`. No-op when disabled.
    ///
    /// Single-writer contract: only the thread owning `track` may call this
    /// for that track (see [`crate::ring`]).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn close(
        &self,
        track: usize,
        label: &'static str,
        kind: SpanKind,
        parent: u64,
        open: OpenSpan,
        a: u64,
        b: u64,
    ) {
        let Some(i) = &self.0 else { return };
        let end = i.clock.now_ns();
        let track = track.min(i.tracks.len() - 1);
        i.tracks[track].push(SpanEvent {
            id: open.id,
            parent,
            label,
            kind,
            track: track as u32,
            start_ns: open.start_ns,
            dur_ns: end.saturating_sub(open.start_ns),
            a,
            b,
        });
    }

    /// Record a zero-duration marker on `track`. No-op when disabled.
    #[inline]
    pub fn instant(&self, track: usize, label: &'static str, parent: u64, a: u64, b: u64) {
        let Some(i) = &self.0 else { return };
        let now = i.clock.now_ns();
        let track = track.min(i.tracks.len() - 1);
        i.tracks[track].push(SpanEvent {
            id: i.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            label,
            kind: SpanKind::Instant,
            track: track as u32,
            start_ns: now,
            dur_ns: 0,
            a,
            b,
        });
    }

    /// Publish the current driver step span id for lower layers to parent to.
    pub fn set_step_parent(&self, id: u64) {
        if let Some(i) = &self.0 {
            i.step_parent.store(id, Ordering::Release);
        }
    }

    /// Current driver step span id (0 when none / disabled).
    pub fn step_parent(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |i| i.step_parent.load(Ordering::Acquire))
    }

    /// Publish `track`'s current enclosing span id (the rank's compute span)
    /// for device-level kernel phases to parent to.
    pub fn set_track_parent(&self, track: usize, id: u64) {
        if let Some(i) = &self.0 {
            let track = track.min(i.track_parents.len() - 1);
            i.track_parents[track].store(id, Ordering::Release);
        }
    }

    /// Current enclosing span id for `track` (0 when none / disabled).
    pub fn track_parent(&self, track: usize) -> u64 {
        self.0.as_ref().map_or(0, |i| {
            let track = track.min(i.track_parents.len() - 1);
            i.track_parents[track].load(Ordering::Acquire)
        })
    }

    /// Convenience: record a completed kernel-phase span on `track`,
    /// parented to the track's published compute span.
    #[inline]
    pub fn kernel_span(&self, track: usize, label: &'static str, open: OpenSpan, a: u64, b: u64) {
        if self.is_enabled() {
            let parent = self.track_parent(track);
            self.close(track, label, SpanKind::Kernel, parent, open, a, b);
        }
    }

    /// Snapshot every track's retained events, merged and sorted by start
    /// time (stable on track for ties). Reader half of the ring contract:
    /// call only while writers are quiescent.
    pub fn events(&self) -> Vec<SpanEvent> {
        let Some(i) = &self.0 else { return Vec::new() };
        let mut all: Vec<SpanEvent> = i.tracks.iter().flat_map(|t| t.snapshot()).collect();
        all.sort_by_key(|e| (e.start_ns, e.track, e.id));
        all
    }

    /// Total events dropped to ring wraparound across all tracks.
    pub fn dropped(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |i| i.tracks.iter().map(|t| t.dropped()).sum())
    }

    /// Total events ever recorded across all tracks.
    pub fn recorded(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |i| i.tracks.iter().map(|t| t.pushed()).sum())
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .field("tracks", &self.n_tracks())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        let s = t.open();
        assert_eq!(s.id, 0);
        t.close(0, "x", SpanKind::Step, 0, s, 0, 0);
        t.instant(0, "y", 0, 0, 0);
        assert!(t.events().is_empty());
        assert_eq!(t.now_ns(), 0);
        assert!(t.registry().is_none());
    }

    #[test]
    fn spans_nest_by_parent_id() {
        let t = Telemetry::enabled(3, 64);
        let step = t.open();
        t.set_step_parent(step.id);
        let ss = t.open();
        let rank = t.open();
        t.set_track_parent(1, rank.id);
        let k = t.open();
        t.kernel_span(1, "kernel:diffusion", k, 9, 10);
        t.close(1, "compute", SpanKind::RankPhase, ss.id, rank, 0, 0);
        t.close(
            0,
            "superstep",
            SpanKind::Superstep,
            t.step_parent(),
            ss,
            0,
            0,
        );
        t.close(0, "step", SpanKind::Step, 0, step, 0, 0);

        let evs = t.events();
        assert_eq!(evs.len(), 4);
        let find = |label: &str| evs.iter().find(|e| e.label == label).copied().unwrap();
        let kern = find("kernel:diffusion");
        let comp = find("compute");
        let sup = find("superstep");
        let stp = find("step");
        assert_eq!(kern.parent, comp.id);
        assert_eq!(comp.parent, sup.id);
        assert_eq!(sup.parent, stp.id);
        assert_eq!(stp.parent, 0);
        assert_eq!(kern.a, 9);
        assert_eq!(kern.b, 10);
    }

    #[test]
    fn ids_are_unique_across_threads() {
        let t = Telemetry::enabled(5, 64);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                (0..100).map(|_| t.open().id).collect::<Vec<u64>>()
            }));
        }
        let mut ids: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 400);
    }

    #[test]
    fn track_index_is_clamped() {
        let t = Telemetry::enabled(2, 8);
        let s = t.open();
        t.close(99, "clamped", SpanKind::RankPhase, 0, s, 0, 0);
        let evs = t.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].track, 1);
    }
}
