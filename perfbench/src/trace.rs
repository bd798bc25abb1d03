//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (`layer.call`), a start and end relative to the
//! tracer's epoch, the id of the span that caused it (0 for a root) and a
//! request id shared by every span of one request. Spans are kept in memory
//! and written out once, at the end of the run. A disabled tracer records
//! nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// The layer a span belongs to: the part of its name before the dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on: AtomicBool::new(on),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        // Relaxed: the flag is flipped between phases by the thread that
        // then starts (and joins) every thread that reads it.
        self.on.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    fn nanos(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh id for a span or a request (0 when disabled).
    pub fn fresh_id(&self) -> u64 {
        if self.enabled() {
            // Relaxed: ids need only be unique, they order nothing.
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// nested calls can name it as their parent.
    pub fn span<R>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> R) -> R {
        if !self.enabled() {
            return f(0);
        }
        let id = self.fresh_id();
        let start = Instant::now();
        let out = f(id);
        self.record(id, name, parent, 0, start, Instant::now());
        out
    }

    /// Records a span timed by the caller (a request measured on a client
    /// thread, for instance).
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled() {
            return;
        }
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: self.nanos(start),
            end_ns: self.nanos(end),
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span buffer poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time per layer in seconds: each span's duration minus the part
    /// of it that its direct children cover.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        self_time_by_layer(&self.spans())
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans() {
            let _ = writeln!(
                out,
                r#"{{"id":{},"parent":{},"request":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| union_within(c, s.start_ns, s.end_ns));
        *out.entry(s.layer()).or_insert(0.0) +=
            (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e9;
    }
    out
}

/// Total length of the union of `intervals`, clipped to `[lo, hi)`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "bench.pass", 0, 100),
            span(2, 1, "core.solve", 20, 40),
            span(3, 1, "core.solve", 30, 60),
            span(4, 3, "par.fork", 30, 35),
        ];
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["bench"], 60e-9);
        // 20 + (30 − 5) ns of core self time.
        assert!((by_layer["core"] - 45e-9).abs() < 1e-18);
        assert_eq!(by_layer["par"], 5e-9);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("core.x", 0, |id| id), 0);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let parent = t.span("bench.outer", 0, |id| t.span("core.inner", id, |_| id));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, parent);
    }
}
