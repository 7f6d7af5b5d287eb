//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans stay in memory while the run measures and are written out once it
//! ends. A span's self time is its duration minus the part of its interval
//! that its children cover, so overlapping (parallel) children are not
//! subtracted twice and a child running past its parent is clipped.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub query_id: u64,
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Run `f` inside a span; `f` receives the span's id so that calls it
    /// makes can record child spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        query_id: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("no recorder panicked").push(Span {
            id,
            parent,
            query_id,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no recorder panicked").clone()
    }

    /// Write every span, with its self time, as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let self_ns = self_times(&spans);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"query_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.query_id,
                s.name,
                s.start_ns,
                s.end_ns,
                self_ns[&s.id],
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, keyed by span id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in clipped {
        let s = s.max(reach);
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

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            query_id: 7,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 40, 70),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 50);
        assert_eq!(st[&2], 20);
        assert_eq!(st[&3], 30);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_overhang() {
        let spans = [
            span(1, None, 100, 200),
            // Two parallel children covering 120..180 together.
            span(2, Some(1), 120, 170),
            span(3, Some(1), 150, 180),
            // A child that started before its parent: only 100..110 counts.
            span(4, Some(1), 90, 110),
            // A grandchild is not a child of span 1.
            span(5, Some(2), 185, 195),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 60 - 10);
        assert_eq!(st[&2], 50);
    }

    #[test]
    fn tracer_records_parent_links_and_query_ids() {
        let tracer = Tracer::default();
        let v = tracer.span("root", None, 42, |root| {
            tracer.span("child", Some(root), 42, |_| 5)
        });
        assert_eq!(v, 5);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.parent, Some(root.id));
        assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);
        assert!(spans.iter().all(|s| s.query_id == 42));
    }
}
