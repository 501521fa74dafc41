//! Spans recorded by the runner around its calls into the engine.
//!
//! Nothing here reaches into an engine crate: a span opens before the
//! runner calls a public function and closes when the call returns. Spans
//! live in memory and are written out once, after the run. A layer's self
//! time is its span minus the part of it its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one statement share this id (0 = not inside a statement).
    pub stmt_id: u64,
}

/// One thread's span recorder. Disabled, every call is a branch and
/// nothing else, so the untraced run pays nothing measurable.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// All tracers of one run share `epoch` so their spans share a clock.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &str, stmt_id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            stmt_id,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Record a span whose ends were timed by the caller (the wire client
    /// learns "first row" only after the fact).
    pub fn record(&mut self, name: &str, stmt_id: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied(),
            stmt_id,
        });
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total and self time per span name, in nanoseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let total = s.end_ns - s.start_ns;
        let e = out.entry(s.name.clone()).or_default();
        e.0 += total;
        e.1 += total.saturating_sub(covered);
    }
    out
}

/// The trace file: one JSON array of `{name, start_ns, end_ns, parent, stmt_id}`.
pub fn to_json(spans: &[Span]) -> String {
    let mut s = String::from("[\n");
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        s.push_str(&format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"stmt_id\":{}}}{}\n",
            sp.name,
            sp.start_ns,
            sp.end_ns,
            parent,
            sp.stmt_id,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            Span {
                name: "statement".into(),
                start_ns: 0,
                end_ns: 100,
                parent: None,
                stmt_id: 1,
            },
            Span {
                name: "planner.parse".into(),
                start_ns: 5,
                end_ns: 25,
                parent: Some(0),
                stmt_id: 1,
            },
            Span {
                name: "core.execute".into(),
                start_ns: 30,
                end_ns: 90,
                parent: Some(0),
                stmt_id: 1,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["statement"], (100, 20));
        assert_eq!(t["core.execute"], (60, 60));
    }

    #[test]
    fn nesting_absorb_and_disabled() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.span("outer", 7, |t| t.span("inner", 7, |_| ()));
        assert_eq!(a.spans()[1].parent, Some(0));
        let mut b = Tracer::new(true, epoch);
        b.span("outer", 8, |t| t.span("inner", 8, |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[3].parent, Some(2));
        assert!(to_json(a.spans()).contains("\"stmt_id\":8"));

        let mut off = Tracer::new(false, epoch);
        assert_eq!(off.span("x", 0, |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}
