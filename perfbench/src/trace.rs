//! Span recorder for traced runs. Spans are taken by the benchmark
//! around its own calls into each layer, kept in memory, and written
//! out once at the end through `themis_harness::json`.

use std::time::Instant;
use themis_harness::json::Json;

/// Span-file format identifier.
pub const SPANS_KIND: &str = "perfbench-spans";

/// One timed call: `parent` is the index of the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `netsim.world.run_until`.
    pub name: String,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span stack.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer; its clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Record a span that ran from `start` to `end`, nested in the
    /// innermost open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        let span = Span {
            name: name.to_string(),
            start_ns: at(start),
            end_ns: at(end),
            parent: self.open.last().copied(),
        };
        self.spans.push(span);
    }

    /// Total duration (ns) of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// The span document: `{"kind", "v", "workload", "seed", "spans":
    /// [{"id", "name", "start_ns", "end_ns", "parent"}]}` with `parent`
    /// `null` for a root span.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj(vec![
                    ("id", Json::Int(id as i64)),
                    ("name", Json::str(&s.name)),
                    ("start_ns", Json::Int(s.start_ns as i64)),
                    ("end_ns", Json::Int(s.end_ns as i64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("kind", Json::str(SPANS_KIND)),
            ("v", Json::Int(1)),
            ("workload", Json::str(workload)),
            ("seed", Json::Int(seed as i64)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_in_the_innermost_open_span() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            let now = Instant::now();
            t.record("inner", now, now);
        });
        let s = &t.spans;
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[0].dur_ns() >= s[1].dur_ns() + s[2].dur_ns());
        assert!(t.total_ns("inner") >= 2_000_000);
        let doc = t.to_json("w", 3).to_string();
        assert!(doc.contains("\"parent\":null") && doc.contains("\"parent\":0"));
    }
}
