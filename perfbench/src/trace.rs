//! Benchmark-side spans around calls into each layer's public functions.
//!
//! Each thread owns a [`Tracer`]; spans nest through a per-tracer stack and
//! stay in memory until the run ends, when the threads' records are merged
//! and written out. A layer's self time is its span minus the part of the
//! span its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Thread numbers for forked tracers (0 is the main thread's).
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Span id, unique within its tracer.
    pub id: u32,
    /// Enclosing span on the same thread.
    pub parent: Option<u32>,
    /// Tracer (thread) the span was recorded on.
    pub thread: u32,
    /// Layer-qualified call name, e.g. `serve.ServerCore::tick`.
    pub name: &'static str,
    /// Free-form qualifier (application, table, backend).
    pub tag: &'static str,
    /// Request id the call served (0 when it serves none).
    pub req: u64,
    /// Start, nanoseconds since the run's trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's trace epoch.
    pub end_ns: u64,
}

impl SpanRec {
    /// Span length in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder; a disabled tracer calls straight through.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    thread: u32,
    epoch: Instant,
    stack: Vec<u32>,
    next_id: u32,
    /// Finished spans, in end order.
    pub spans: Vec<SpanRec>,
}

impl Tracer {
    /// A tracer for thread `thread`, timing against the shared `epoch`.
    pub fn new(enabled: bool, thread: u32, epoch: Instant) -> Tracer {
        Tracer { enabled, thread, epoch, stack: Vec::new(), next_id: 0, spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh tracer for another thread, sharing this one's switch and
    /// epoch, under a thread number no other tracer of the run has.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.enabled, NEXT_THREAD.fetch_add(1, Ordering::Relaxed), self.epoch)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; spans opened by `f` through the tracer it
    /// receives become children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        req: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let start_ns = self.now_ns();
        let out = f(self);
        let end_ns = self.now_ns();
        self.stack.pop();
        self.spans.push(SpanRec {
            id,
            parent,
            thread: self.thread,
            name,
            tag,
            req,
            start_ns,
            end_ns,
        });
        out
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.span(name, tag, req, |_| f())
    }
}

/// Aggregate of every span sharing a name and tag.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans merged.
    pub count: u64,
    /// Summed span durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus child coverage), nanoseconds.
    pub self_ns: u64,
}

/// Self time of each span: its duration minus the union of its direct
/// children's intervals clipped to it. Keyed by `(thread, id)`.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<(u32, u32), u64> {
    let mut children: BTreeMap<(u32, u32), Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry((s.thread, p)).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&(s.thread, s.id)).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(cursor);
                let hi = hi.min(s.end_ns);
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            ((s.thread, s.id), s.dur_ns() - covered)
        })
        .collect()
}

/// Per `(name, tag)` totals across every span.
pub fn layer_times(spans: &[SpanRec]) -> BTreeMap<(&'static str, &'static str), LayerTime> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<(&'static str, &'static str), LayerTime> = BTreeMap::new();
    for s in spans {
        let t = out.entry((s.name, s.tag)).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += selfs[&(s.thread, s.id)];
    }
    out
}

/// Spans as a JSON array (one object per span, start order).
pub fn to_json(spans: &[SpanRec]) -> String {
    let mut sorted: Vec<&SpanRec> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_ns, s.thread, s.id));
    let mut out = String::from("[\n");
    for (i, s) in sorted.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"thread\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"tag\":\"{}\",\"req\":{},\
             \"start_ns\":{},\"end_ns\":{}}}{}",
            s.thread,
            s.id,
            parent,
            s.name,
            s.tag,
            s.req,
            s.start_ns,
            s.end_ns,
            if i + 1 < sorted.len() { "," } else { "" }
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec { id, parent, thread: 0, name: "n", tag: "", req: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = [
            rec(0, None, 0, 100),
            rec(1, Some(0), 10, 30),
            rec(2, Some(0), 50, 60),
            // Overlaps child 2 and runs past the parent: only [60, 100)
            // is new coverage.
            rec(3, Some(0), 55, 120),
            rec(4, Some(1), 12, 20),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&(0, 0)], 100 - 20 - 10 - 40);
        assert_eq!(selfs[&(0, 1)], 20 - 8);
        assert_eq!(selfs[&(0, 4)], 8);
    }

    #[test]
    fn nested_spans_record_parents_and_disabled_tracer_records_nothing() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, 7, epoch);
        let v = t.span("outer", "", 1, |t| t.time("inner", "x", 1, || 41) + 1);
        assert_eq!(v, 42);
        assert_eq!(t.spans.len(), 2);
        let inner = &t.spans[0];
        let outer = &t.spans[1];
        assert_eq!((inner.name, inner.parent, inner.thread), ("inner", Some(outer.id), 7));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let totals = layer_times(&t.spans);
        assert_eq!(totals[&("outer", "")].count, 1);
        assert!(to_json(&t.spans).contains("\"name\":\"inner\""));

        let mut off = t.fork();
        assert_ne!(off.thread, t.thread);
        off.enabled = false;
        assert_eq!(off.time("inner", "", 0, || 3), 3);
        assert!(off.spans.is_empty());
    }
}
