//! In-memory span recording around calls into the program's layers.
//!
//! A span has a name, a start and an end, the span that caused it
//! (`parent`) and the id of the benchmark operation it belongs to.
//! Spans stay in memory while the run measures and are written out
//! once at the end. A layer's self time is its span's duration minus
//! the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: Option<u64>,
}

/// Aggregate of every closed span sharing one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameStats {
    /// Closed spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

impl NameStats {
    /// Mean self time per span, in milliseconds (0 when none ran).
    pub fn mean_self_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// A span recorder shared by the benchmark's threads. A disabled
/// recorder records nothing, so untraced code runs the same calls.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start span `name` of operation `op` under `parent`.
    pub fn open(&self, name: &'static str, op: u64, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        spans.push(Span { name, op, parent, start_ns, end_ns: None });
        Some(spans.len() - 1)
    }

    /// End a span started by [`Tracer::open`].
    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end_ns = self.now_ns();
            self.spans.lock().expect("span buffer poisoned")[id].end_ns = Some(end_ns);
        }
    }

    /// Run `f` inside span `name`.
    pub fn time<R>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Count, total and self time of every span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameStats> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for span in spans.iter() {
            if let (Some(parent), Some(end)) = (span.parent, span.end_ns) {
                children[parent].push((span.start_ns, end));
            }
        }
        let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (span, kids) in spans.iter().zip(children.iter_mut()) {
            let Some(end) = span.end_ns else { continue };
            let total = end - span.start_ns;
            let stats = out.entry(span.name).or_default();
            stats.count += 1;
            stats.total_ns += total;
            stats.self_ns += total - covered(span.start_ns, end, kids);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let end = span.end_ns.map_or("null".to_string(), |e| e.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {end}}}",
                span.name, span.op, span.start_ns
            )?;
        }
        out.flush()
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_count_once() {
        let mut kids = vec![(15, 30), (10, 20), (40, 60)];
        assert_eq!(covered(0, 50, &mut kids), 30);
    }
}
