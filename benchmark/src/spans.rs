//! The benchmark's own spans: recorded in memory around each call into a
//! layer, written out as Chrome trace-event JSON when the run ends.

use std::time::Instant;

/// One span. Times are nanoseconds since the log was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The request class for a request span, empty otherwise.
    pub detail: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share this number.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its index, for children to name.
    pub fn record(
        &mut self,
        name: &'static str,
        detail: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(
            name,
            detail,
            start_ns,
            end_ns.max(start_ns),
            parent,
            request,
        )
    }

    /// Record a span whose interval is given on the log's own clock: a
    /// replayed call laid inside the request span it explains.
    pub fn push(
        &mut self,
        name: &'static str,
        detail: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            detail,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover. Overlapping children are counted once, and a
/// child reaching outside its parent counts only for the part inside.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let (lo, hi) = (
                span.start_ns.max(spans[p].start_ns),
                span.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut covered)| {
            covered.sort_unstable();
            let mut total = 0;
            let mut reach = span.start_ns;
            for (lo, hi) in covered {
                if hi > reach {
                    total += hi - lo.max(reach);
                    reach = hi;
                }
            }
            span.duration_ns() - total
        })
        .collect()
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, one track per request class.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (ix, s) in spans.iter().enumerate() {
        if ix > 0 {
            out.push(',');
        }
        let root = {
            let mut at = ix;
            while let Some(p) = spans[at].parent {
                at = p;
            }
            at
        };
        let track = ["create", "write", "retract", "read", "ingest"]
            .iter()
            .position(|c| *c == spans[root].detail)
            .map_or(0, |p| p + 1);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{track},\"args\":{{\"request\":{},\"span\":{ix},\"parent\":{}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(""),
            s.start_ns as f64 / 1000.0,
            s.duration_ns() as f64 / 1000.0,
            s.request,
            s.parent.map_or("null".to_owned(), |p| p.to_string()),
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            detail: "",
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn siblings_and_nested_children_subtract_once() {
        let spans = [
            span(0, 100, None),    // 0: root
            span(10, 30, Some(0)), // 1: child
            span(40, 70, Some(0)), // 2: sibling, with a child of its own
            span(45, 55, Some(2)), // 3: grandchild: no part of the root's self time
        ];
        assert_eq!(self_times_ns(&spans), [50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = [
            span(100, 200, None),
            span(110, 150, Some(0)),
            span(140, 160, Some(0)), // overlaps its sibling by 10
            span(190, 250, Some(0)), // 50 of it lie outside the parent
            span(0, 50, Some(0)),    // wholly outside: covers nothing
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn chrome_trace_names_every_span() {
        let json = chrome_json(&[span(0, 2_000, None), span(500, 1_500, Some(0))]);
        assert!(json.starts_with("{\"traceEvents\":[{\"name\":\"t\""));
        assert!(json.contains("\"ts\":0.500,\"dur\":1.000"));
        assert!(json.contains("\"parent\":0"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
    }
}
