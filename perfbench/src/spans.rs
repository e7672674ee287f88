//! In-memory span log. Spans are recorded by the benchmark around its own
//! calls into each layer (name, start, end, parent, op id) and written out
//! once the run ends, so recording costs two clock reads and a push.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed interval of work inside an op.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call the span covers, e.g. `"interp.run"`.
    pub name: &'static str,
    /// Nanoseconds since the log's base instant.
    pub start: u64,
    /// Nanoseconds since the log's base instant (`start` while open).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Spans of one thread, against a base instant shared by the run.
pub struct SpanLog {
    base: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(base: Instant) -> SpanLog {
        SpanLog {
            base,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Closes the span at `id` and returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let end = self.now();
        let span = &mut self.spans[id];
        span.end = end;
        span.ns()
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, parent, op);
        let out = f();
        (out, self.close(id))
    }

    /// Self time of every span called `name`: its duration minus the part
    /// its direct children cover, summed.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.ns().saturating_sub(child_ns[i]))
            .sum()
    }

    /// Total duration and count of spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.ns(), n + 1))
    }

    /// The log as JSON lines, one span per line, after a header line.
    pub fn to_jsonl(&self, header: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 72);
        out.push_str(header);
        out.push('\n');
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start, s.end, s.op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut log = SpanLog::new(Instant::now());
        log.spans = vec![
            Span {
                name: "a",
                start: 0,
                end: 100,
                parent: None,
                op: 0,
            },
            Span {
                name: "b",
                start: 10,
                end: 40,
                parent: Some(0),
                op: 0,
            },
            Span {
                name: "b",
                start: 50,
                end: 60,
                parent: Some(0),
                op: 0,
            },
        ];
        assert_eq!(log.self_ns("a"), 60);
        assert_eq!(log.total("b"), (40, 2));
    }
}
