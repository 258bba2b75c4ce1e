//! Spans recorded by the harness around its calls into each layer: name,
//! start, end, parent, and the query they belong to. They stay in memory
//! and are written out when the run ends.

use crate::json;
use std::fmt::Write as _;
use std::time::Instant;

/// One span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one query.
    pub query: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder for one thread of control.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (a child of the innermost open
    /// span) and returns its result and the span's duration in ns.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        query: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, u64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            query,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (out, end_ns - start_ns)
    }

    /// Records a span measured elsewhere (another thread's timestamps).
    pub fn push(&mut self, name: &'static str, query: u64, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            query,
        });
    }
}

/// Self time of each span: its duration minus the part of that interval
/// its direct children cover. Children of one parent never overlap here
/// (one thread records them in sequence), so that part is their sum.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Total self time per span name, ascending by name.
pub fn self_time_by_name_ns(spans: &[Span]) -> Vec<(&'static str, u64, usize)> {
    let own = self_times_ns(spans);
    let mut by_name: std::collections::BTreeMap<&'static str, (u64, usize)> = Default::default();
    for (s, t) in spans.iter().zip(own) {
        let e = by_name.entry(s.name).or_default();
        e.0 += t;
        e.1 += 1;
    }
    by_name.into_iter().map(|(k, (t, n))| (k, t, n)).collect()
}

/// The trace file: `header` (already-rendered JSON members, no braces),
/// then every span with its self time.
pub fn render_trace(header: &str, spans: &[Span]) -> String {
    let own = self_times_ns(spans);
    let mut out = String::with_capacity(spans.len() * 96 + header.len() + 64);
    out.push_str("{\n");
    out.push_str(header);
    out.push_str(",\n\"spans\": [\n");
    for (i, (s, own_ns)) in spans.iter().zip(own).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\": {i}, \"name\": {}, \"query\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own_ns}}}",
            json::quote(s.name),
            s.query,
            s.start_ns,
            s.end_ns
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n}\n");
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
            query: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("query", 0, 100, None),
            span("run", 5, 45, Some(0)),
            span("diffuse", 50, 80, Some(0)),
            span("inner", 55, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 25, 5]);
        let by_name = self_time_by_name_ns(&spans);
        assert_eq!(by_name[0], ("diffuse", 25, 1));
        assert_eq!(by_name[2], ("query", 30, 1));
    }

    #[test]
    fn scopes_nest_and_record_parents() {
        let mut t = Tracer::new();
        t.scope("query", 7, |t| {
            t.scope("a", 7, |_| ());
            t.scope("b", 7, |_| ());
        });
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert!(t.spans[1].end_ns <= t.spans[2].start_ns);
        assert!(t.spans[0].end_ns >= t.spans[2].end_ns);
        let own = self_times_ns(&t.spans);
        assert_eq!(
            own[0],
            t.spans[0].duration_ns() - t.spans[1].duration_ns() - t.spans[2].duration_ns()
        );
    }

    #[test]
    fn trace_file_is_json() {
        let spans = vec![span("query", 0, 10, None), span("run", 1, 9, Some(0))];
        let text = render_trace("\"workload\": \"deep\"", &spans);
        let v = json::parse(&text).unwrap();
        let arr = v.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("self_ns").unwrap().as_f64(), Some(2.0));
        assert_eq!(arr[1].get("parent").unwrap().as_f64(), Some(0.0));
    }
}
