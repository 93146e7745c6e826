//! In-memory spans recorded around the calls the benchmark makes into
//! the service and its layers.
//!
//! A span has a name, a start and end, the span that caused it, and the
//! job it belongs to. Spans stay in memory until the run ends; the
//! benchmark then writes them out and summarises self time per name.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// When the call started.
    pub start: Instant,
    /// When it returned (equal to `start` while open).
    pub end: Instant,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Job the span belongs to (0 for work outside any job).
    pub job: u64,
}

/// A span recorder; a disabled one records nothing and costs a branch.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

/// Handle of an open span (meaningless on a disabled tracer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

impl Tracer {
    /// A recorder that keeps spans when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span under `parent`.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, job: u64) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: parent.map(|p| p.0),
            job,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span.
    pub fn close(&mut self, id: SpanId) {
        if let Some(span) = self.spans.get_mut(id.0) {
            span.end = Instant::now();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        job: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, job);
        let out = f();
        self.close(id);
        out
    }

    /// Moves another recorder's spans into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total duration of spans named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end - s.start).saturating_sub(c))
            .collect()
    }

    /// Mean self time of root spans named `root`: the part of each job
    /// no child span accounts for.
    pub fn unattributed_ms(&self, root: &str) -> f64 {
        let selfs = self.self_times();
        let roots: Vec<Duration> = self
            .spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == root && s.parent.is_none())
            .map(|(_, d)| *d)
            .collect();
        if roots.is_empty() {
            return 0.0;
        }
        roots.iter().sum::<Duration>().as_secs_f64() * 1e3 / roots.len() as f64
    }

    /// Per-name summary: count, total and self milliseconds.
    pub fn summary(&self) -> String {
        let selfs = self.self_times();
        let mut by: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        for (s, d) in self.spans.iter().zip(selfs) {
            let e = by.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end - s.start).as_secs_f64() * 1e3;
            e.2 += d.as_secs_f64() * 1e3;
        }
        let mut out = format!(
            "{:<28} {:>7} {:>12} {:>12}\n",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, (n, total, own)) in by {
            let _ = writeln!(out, "{name:<28} {n:>7} {total:>12.3} {own:>12.3}");
        }
        out
    }

    /// One JSON line per span, times in microseconds since `origin`.
    pub fn jsonl(&self, origin: Instant) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let us = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"job\":{}}}",
                s.name,
                us(s.start),
                us(s.end),
                s.job
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_roots_report_the_rest() {
        let mut t = Tracer::new(true);
        let root = t.open("job", None, 1);
        t.time("child", Some(root), 1, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        std::thread::sleep(Duration::from_millis(2));
        t.close(root);
        let selfs = t.self_times();
        assert!(selfs[0] >= Duration::from_millis(2));
        assert!(selfs[0] < t.spans[0].end - t.spans[0].start);
        assert!(t.unattributed_ms("job") >= 2.0);
        assert_eq!(t.spans.iter().filter(|s| s.name == "child").count(), 1);
    }

    #[test]
    fn a_disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("job", None, 1);
        t.close(id);
        assert!(t.spans.is_empty());
        assert_eq!(t.unattributed_ms("job"), 0.0);
    }
}
