//! Harness-side spans: `Instant` pairs around the public calls into each
//! layer, kept in memory and written out only when the run ends.
//!
//! The program has its own span trees (`nebula_obs::trace`), which stay on
//! in every round because that is how the shell runs the engine. These
//! spans are the benchmark's: they are off while the end-to-end metrics are
//! measured and on in the traced rounds, and the throughput difference
//! between the two is `harness.trace_overhead_ratio`.

use crate::json;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Position in the round's stream of the annotation the span served.
    pub annotation: Option<usize>,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one. A no-op while off.
    pub fn open(&mut self, name: &'static str, annotation: Option<usize>) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        let parent = self.stack.last().copied();
        self.stack.push(self.spans.len());
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, annotation });
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        if let Some(id) = self.stack.pop() {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Mean duration in microseconds of the spans called `name`.
    pub fn mean_us(&self, name: &str) -> f64 {
        let (n, total) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, t), s| (n + 1, t + (s.end_ns - s.start_ns)));
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64 / 1e3
        }
    }

    /// The spans as a JSON array of
    /// `{name, start_ns, end_ns, parent, annotation}` objects.
    pub fn to_json(&self) -> String {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \
                     \"annotation\": {}}}",
                    json::quote(s.name),
                    s.start_ns,
                    s.end_ns,
                    opt(s.parent),
                    opt(s.annotation)
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Tracer::new(true);
        t.open("round", None);
        t.open("core.process_annotation", Some(7));
        t.close();
        t.close();
        t.close(); // unbalanced close is harmless
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let doc = json::parse(&t.to_json()).unwrap();
        let rows = doc.items();
        assert_eq!(rows[0].get("parent"), Some(&json::Value::Null));
        assert_eq!(rows[1].get("annotation").unwrap().as_f64(), Some(7.0));
        assert_eq!(rows[1].get("name").unwrap().as_str(), Some("core.process_annotation"));
        for key in ["name", "start_ns", "end_ns", "parent", "annotation"] {
            assert!(rows[0].get(key).is_some(), "{key}");
        }
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.open("round", None);
        t.close();
        assert!(t.spans().is_empty());
        assert_eq!(t.mean_us("round"), 0.0);
    }
}
