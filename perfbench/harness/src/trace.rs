//! In-memory span recorder for traced runs.
//!
//! Each call into a layer boundary made by the benchmark becomes one
//! span: name, start, end, parent span, and request id. Every span is
//! kept in memory and written out as tab-separated text when the run
//! ends. The caller sizes the buffer for the spans its run makes, so no
//! reallocation lands inside a timed phase.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    req: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer with room for `spans` spans before its buffer grows.
    pub fn with_capacity(spans: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; returns its id (usable as a parent).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        req: u64,
    ) -> u32 {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        };
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Opens a span whose end is set later by [`Tracer::close`]; for
    /// parents whose children are recorded first.
    pub fn open(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        let now = Instant::now();
        self.record(name, now, now, parent, req)
    }

    pub fn close(&mut self, id: u32) {
        let end = self.ns(Instant::now());
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = end;
        }
    }

    /// Durations in ns of every span named `name`, ascending.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        d.sort_unstable();
        d
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Writes `id name start_ns end_ns parent req` lines.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\treq")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                String::from("-")
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_report_durations() {
        let mut t = Tracer::with_capacity(1);
        let parent = t.open("block", ROOT, 0);
        let a = Instant::now();
        let b = a + std::time::Duration::from_micros(5);
        let child = t.record("append", a, b, parent, 1);
        t.close(parent);
        assert_eq!(t.durations("append"), vec![5_000]);
        assert_eq!(t.span_count(), 2);
        assert_ne!(child, ROOT);
        let path = std::env::temp_dir().join(format!("perfbench-trace-{}.tsv", std::process::id()));
        t.write_tsv(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\tappend\t"));
    }
}
