//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public entry points; nothing inside the library is
//! instrumented. A layer whose work runs inside another layer's call (the
//! batcher inside the HTTP server, the index inside the facade, ...) is
//! measured by a *replay*: right after the outer call, the benchmark calls
//! the inner layer's entry point on the same request and records that
//! span as a child of the outer one. Self time is therefore the span's
//! duration minus the **durations** of its direct children, clamped at
//! zero, not minus their overlap in time.

use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Shared by every span of one request.
    pub request: u64,
    /// Index of the parent span in the trace, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the trace began.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans kept in memory until the run ends.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span measured elsewhere; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            request,
            parent,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Time `f` as a span; returns the span id and `f`'s result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        (self.record(name, request, parent, start, end), out)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id` minus the durations of its direct children,
    /// clamped at zero.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id].duration_ns().saturating_sub(children)
    }

    /// Ids of every span called `name`.
    pub fn ids(&self, name: &str) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .collect()
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.ids(name)
            .into_iter()
            .map(|i| self.spans[i].duration_ns() as f64)
            .collect()
    }

    /// Self times (ns) of every span called `name`.
    pub fn self_times_ns(&self, name: &str) -> Vec<f64> {
        self.ids(name)
            .into_iter()
            .map(|i| self.self_ns(i) as f64)
            .collect()
    }

    /// Self times of the spans called `name` that have children: requests
    /// outside the replayed sample have no layer split to subtract.
    pub fn replayed_self_times_ns(&self, name: &str) -> Vec<f64> {
        self.ids(name)
            .into_iter()
            .filter(|&id| self.spans.iter().any(|s| s.parent == Some(id)))
            .map(|id| self.self_ns(id) as f64)
            .collect()
    }

    /// Over every request with replayed layers: the shares of their total
    /// self time spent in spans named in `a` and in `b`, and the number of
    /// such requests. `wire.*` spans are left out: they are part of the
    /// HTTP self time already.
    pub fn split(&self, a: &[&str], b: &[&str]) -> (f64, f64, usize) {
        let replayed: std::collections::BTreeSet<u64> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some())
            .map(|s| s.request)
            .collect();
        let (mut total, mut in_a, mut in_b) = (0u64, 0u64, 0u64);
        for (id, s) in self.spans.iter().enumerate() {
            if !replayed.contains(&s.request) || s.name.starts_with("wire.") {
                continue;
            }
            let own = self.self_ns(id);
            total += own;
            if a.contains(&s.name) {
                in_a += own;
            }
            if b.contains(&s.name) {
                in_b += own;
            }
        }
        let total = total.max(1) as f64;
        (in_a as f64 / total, in_b as f64 / total, replayed.len())
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","request":{},"parent":{parent},"start_ns":{},"end_ns":{},"self_ns":{}}}"#,
                s.name,
                s.request,
                s.start_ns,
                s.end_ns,
                self.self_ns(id)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 7,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut trace = Trace::new();
        trace.spans = vec![
            span("http", None, 0, 100),
            // Replays run after their parent, so they do not overlap it.
            span("batcher", Some(0), 100, 170),
            span("api", Some(1), 170, 220),
            span("wire", None, 220, 225),
        ];
        assert_eq!(trace.self_ns(0), 30);
        assert_eq!(trace.self_ns(1), 20);
        assert_eq!(trace.self_ns(2), 50);
        assert_eq!(trace.self_ns(3), 5);
    }

    #[test]
    fn split_shares_cover_replayed_requests_only() {
        let mut trace = Trace::new();
        trace.spans = vec![
            span("http", None, 0, 100),
            span("refine", Some(0), 100, 140),
            span("wire.parse", None, 140, 150),
            Span {
                request: 8,
                ..span("http", None, 150, 400)
            },
        ];
        // Request 7: http self 60 + refine 40; request 8 has no replay.
        assert_eq!(trace.split(&["refine"], &["http"]), (0.4, 0.6, 1));
        assert_eq!(trace.replayed_self_times_ns("http"), vec![60.0]);
    }

    #[test]
    fn self_time_clamps_at_zero() {
        let mut trace = Trace::new();
        trace.spans = vec![
            span("retrieve", None, 0, 50),
            span("scan", Some(0), 50, 90),
            span("refine", Some(0), 90, 120),
        ];
        assert_eq!(trace.self_ns(0), 0);
        assert_eq!(trace.self_times_ns("retrieve"), vec![0.0]);
        assert_eq!(trace.durations_ns("scan"), vec![40.0]);
    }

    #[test]
    fn recorded_spans_share_the_request_and_nest() {
        let mut trace = Trace::new();
        let (outer, ()) = trace.time("outer", 3, None, || {});
        let (inner, x) = trace.time("inner", 3, Some(outer), || 41 + 1);
        assert_eq!(x, 42);
        assert_eq!(trace.spans()[inner].parent, Some(outer));
        assert_eq!(trace.spans()[inner].request, 3);
        assert!(trace.spans()[inner].start_ns >= trace.spans()[outer].end_ns);
    }
}
