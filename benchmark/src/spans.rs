//! The harness's own spans: recorded around each call the benchmark makes
//! into a layer's public functions (nothing inside the program is
//! instrumented), kept in memory, folded into per-name self times, and
//! written as a Chrome trace when the traced run ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One closed (or still open) span. `parent` indexes the recorder's span
/// list; `track` is the Chrome-trace row (0 = harness, r + 1 = rank r).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub track: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span sink. A mutex guards the list because superstep closures
/// must be `Sync`; the traced runs use an inline pool, so it is never
/// contended.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a span recorder user panicked mid-push")
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent`; returns its id for [`Recorder::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>, track: u32) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            track,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        self.lock()[id].end_ns = end_ns;
    }

    /// Name a span after the fact, once its outcome shows what it was.
    pub fn rename(&self, id: usize, name: &'static str) {
        self.lock()[id].name = name;
    }

    /// Time `f` as a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        track: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, track);
        let r = f();
        self.close(id);
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("a span recorder user panicked mid-push")
    }
}

/// Per-span self time: the span's duration minus the part its direct
/// children cover (children of one parent never overlap here: the traced
/// runs are single-threaded).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Fold spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(&own) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += self_ns;
    }
    out
}

/// Share of the root span's wall that layer spans account for. Spans named
/// `harness.*` are the harness's own loop and bookkeeping: their self time
/// is exactly the unattributed remainder.
pub fn attributed_share(spans: &[Span]) -> f64 {
    let Some(root) = spans.iter().find(|s| s.parent.is_none()) else {
        return 0.0;
    };
    let own = self_times(spans);
    let layers: u64 = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| !s.name.starts_with("harness."))
        .map(|(_, &ns)| ns)
        .sum();
    layers as f64 / root.dur_ns().max(1) as f64
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, microsecond timestamps, `args.id` /
/// `args.parent` rebuilding the hierarchy.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (id, s) in spans.iter().enumerate() {
        if id > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(""),
            s.track,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            track: 0,
        }
    }

    /// root 0..100 { step 0..90 { a 10..40, b 40..80 { c 50..60 } } }
    fn tree() -> Vec<Span> {
        vec![
            span("harness.run", 0, 100, None),
            span("harness.step", 0, 90, Some(0)),
            span("core.a", 10, 40, Some(1)),
            span("pgas.b", 40, 80, Some(1)),
            span("simcov-cpu.c", 50, 60, Some(3)),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        assert_eq!(self_times(&tree()), vec![10, 20, 30, 30, 10]);
    }

    #[test]
    fn self_times_sum_to_the_root_wall() {
        let t = tree();
        assert_eq!(self_times(&t).iter().sum::<u64>(), t[0].dur_ns());
    }

    #[test]
    fn attributed_share_excludes_harness_self_time() {
        // Layers own 30 + 30 + 10 of 100 ns; the harness keeps 10 + 20.
        assert!((attributed_share(&tree()) - 0.70).abs() < 1e-12);
        assert_eq!(attributed_share(&[]), 0.0);
    }

    #[test]
    fn by_name_accumulates_repeats() {
        let mut t = tree();
        t.push(span("core.a", 80, 85, Some(1)));
        let n = by_name(&t);
        assert_eq!(
            n["core.a"],
            NameTotals {
                count: 2,
                total_ns: 35,
                self_ns: 35
            }
        );
        assert_eq!(n["pgas.b"].self_ns, 30);
    }

    #[test]
    fn recorder_nests_and_chrome_trace_parses() {
        let rec = Recorder::default();
        let root = rec.open("harness.run", None, 0);
        let v = rec.time("core.a", Some(root), 1, || 7);
        rec.close(root);
        assert_eq!(v, 7);
        let spans = rec.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].dur_ns() >= spans[1].dur_ns());
        let doc = simcov_core::json::Json::parse(&chrome_trace(&spans)).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("name").and_then(|n| n.as_str()),
            Some("core.a")
        );
    }
}
