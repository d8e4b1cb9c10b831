//! In-memory spans recorded by the benchmark around its calls into the
//! program's layers. A span has a name, a start, an end, the span that
//! caused it and the request it belongs to; spans stay in memory and
//! are summarized when the workload ends. A disabled tracer records
//! nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::time::Instant;

/// Handle of an open span; [`Tracer::close`] ends it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

#[derive(Debug, Clone, PartialEq)]
struct Span {
    name: &'static str,
    request: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// One thread's span log.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

/// Per-name totals of a span log.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStat {
    /// Spans recorded under the name.
    pub count: u64,
    /// Σ (end − start), nanoseconds.
    pub total_ns: u64,
    /// Σ of each span's duration minus the part its direct children
    /// cover, nanoseconds.
    pub self_ns: u64,
}

impl Tracer {
    /// A tracer whose clock starts at `origin`.
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span of `request`, caused by `parent` (if any).
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent: parent.and_then(|p| p.0),
            start_ns,
            end_ns: start_ns,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Ends a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Distinct requests the log covers.
    pub fn requests(&self) -> usize {
        let mut ids: Vec<u64> = self.spans.iter().map(|s| s.request).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Per-name count, total and self time.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStat> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let total = s.end_ns - s.start_ns;
            let stat = out.entry(s.name).or_default();
            stat.count += 1;
            stat.total_ns += total;
            stat.self_ns += total.saturating_sub(children);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.spans = vec![
            span("frame", None, 0, 100),
            span("call", Some(0), 10, 70),
            span("inner", Some(1), 20, 30),
            span("frame", None, 100, 150),
        ];
        let s = t.summary();
        assert_eq!(s["frame"].count, 2);
        assert_eq!(s["frame"].total_ns, 150);
        assert_eq!(s["frame"].self_ns, 40 + 50);
        assert_eq!(s["call"].self_ns, 50);
        assert_eq!(s["inner"].self_ns, 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin);
        let parent = a.open("b", 2, None);
        let child = a.open("c", 3, Some(parent));
        a.close(child);
        a.close(parent);
        assert_eq!((a.len(), a.requests()), (2, 2));
        assert_eq!(a.spans[1].parent, Some(0));
        let mut off = Tracer::new(false, origin);
        let id = off.open("x", 0, None);
        off.close(id);
        assert_eq!(off.len(), 0);
    }
}
