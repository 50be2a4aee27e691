//! The traced run's span recorder. Spans are recorded by the benchmark
//! around its calls into each layer of the program, kept in memory, and
//! written out once the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The layer call the span times.
    pub name: &'static str,
    /// The operation the span belongs to.
    pub op: u64,
    /// The index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `idx`.
    pub fn end(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Times `f` as a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let idx = self.begin(name, op, parent);
        // Keeps the optimiser from deleting a pure call whose result the
        // caller drops.
        let out = std::hint::black_box(f());
        self.end(idx);
        (out, self.spans[idx].dur_ns())
    }

    /// Records an already-measured span.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Every recorded span.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer: each span's duration minus the time its
    /// child spans cover, summed by span name (ns).
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// The self-time table as printable lines, largest first.
    #[must_use]
    pub fn self_time_lines(&self) -> Vec<String> {
        let times = self.self_times();
        let total: u64 = times.values().sum();
        let mut rows: Vec<_> = times.into_iter().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        rows.into_iter()
            .map(|(name, ns)| {
                format!(
                    "self time {name:<24} {:>12.3} ms  {:>6.2}%",
                    ns as f64 / 1e6,
                    100.0 * ns as f64 / total.max(1) as f64
                )
            })
            .collect()
    }

    /// Writes every span as one JSON line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let root = t.record("op", 1, None, 0, 100);
        t.record("solve", 1, Some(root), 10, 70);
        t.record("complete_info", 1, Some(root), 70, 90);
        let times = t.self_times();
        assert_eq!(times["op"], 20);
        assert_eq!(times["solve"], 60);
        assert_eq!(times["complete_info"], 20);
    }
}
