//! In-memory span recorder for the traced run (`--trace 1`).
//!
//! Spans are recorded from the benchmark's own files around calls into a
//! layer's public functions; the program itself is not instrumented.
//! Spans stay in memory until the run ends, then [`Tracer::write_json`]
//! writes them out in one go.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: name (`layer.operation`), interval in nanoseconds
/// since the tracer was created, the span that caused it and the request
/// (or pass) it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `work` inside a span named `name`; `work` receives the span's
    /// id so nested calls can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        work: impl FnOnce(usize) -> T,
    ) -> T {
        let id = {
            let mut spans = self.spans.lock().expect("span buffer poisoned");
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                request,
            });
            spans.len() - 1
        };
        let out = work(id);
        let end = self.now_ns();
        self.spans.lock().expect("span buffer poisoned")[id].end_ns = end;
        out
    }

    /// Record an interval measured elsewhere (a client-side request
    /// timed on its own thread).
    pub fn record(&self, name: &'static str, start: Instant, end: Instant, request: u64) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.lock().expect("span buffer poisoned").push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
            request,
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Mean duration in microseconds of the spans named `name` (0 when
    /// none were recorded), with their count.
    pub fn mean_us(&self, name: &str) -> (f64, usize) {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let (sum, n) = spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0usize), |(sum, n), s| (sum + s.duration_ns(), n + 1));
        if n == 0 {
            (0.0, 0)
        } else {
            (sum as f64 / n as f64 / 1e3, n)
        }
    }

    /// Write every span as one JSON array.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = String::with_capacity(spans.len() * 96 + 2);
        out.push('[');
        for (id, s) in spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            ));
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children may overlap when they ran on
/// other threads, so the covered part is the union of their intervals).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            children[p].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per span name: (name, count, total self time in ns), by name.
pub fn self_time_table(spans: &[Span]) -> Vec<(&'static str, usize, u64)> {
    let selfs = self_times(spans);
    let mut table: std::collections::BTreeMap<&'static str, (usize, u64)> = Default::default();
    for (s, own) in spans.iter().zip(selfs) {
        let entry = table.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += own;
    }
    table
        .into_iter()
        .map(|(name, (n, ns))| (name, n, ns))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "x",
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),  // overlaps the first child (another thread)
            span(90, 120, Some(0)), // runs past the parent: clipped to 90..100
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30, 30, 30]);
    }
}
