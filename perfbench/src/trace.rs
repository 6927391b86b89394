//! The benchmark's own spans: one around each call into a layer, kept in
//! memory and written out when the run ends.
//!
//! Every measured call goes through [`Spans::timed`], which always reads
//! the clock (the untraced run needs the duration for its end-to-end
//! metrics) and, when tracing is on, also records a span with its parent.
//! A layer's self time is its span's duration minus its children's.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

use crate::stats::median;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder; inert when built with `on = false`.
pub struct Spans {
    on: bool,
    origin: Instant,
    open: RefCell<Vec<usize>>,
    spans: RefCell<Vec<Span>>,
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    spans: Option<&'a Spans>,
    index: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(spans) = self.spans {
            let end_ns = spans.origin.elapsed().as_nanos() as u64;
            spans.spans.borrow_mut()[self.index].end_ns = end_ns;
            spans.open.borrow_mut().pop();
        }
    }
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            open: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span that closes when the guard drops.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard { spans: None, index: 0 };
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let index = spans.len();
        spans.push(Span { name, parent, start_ns, end_ns: start_ns });
        self.open.borrow_mut().push(index);
        SpanGuard { spans: Some(self), index }
    }

    /// Runs `f` inside a span named `name` and returns its result with the
    /// wall time it took.
    pub fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let _span = self.enter(name);
        let start = Instant::now();
        let out = std::hint::black_box(f());
        (out, start.elapsed())
    }

    /// Durations of every span named `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Median duration of the spans named `name`, in microseconds.
    pub fn median_us(&self, name: &str) -> f64 {
        median(&self.durations_us(name))
    }

    /// The per-layer table: count, total and self time, and median
    /// duration of every span name, sorted by name.
    pub fn table(&self) -> String {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut by_name: BTreeMap<&str, (u64, u64, Vec<f64>)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let e = by_name.entry(s.name).or_default();
            e.0 += s.duration_ns();
            e.1 += s.duration_ns().saturating_sub(child_ns[i]);
            e.2.push(s.duration_ns() as f64 / 1e3);
        }
        let mut out = format!(
            "{:<34} {:>8} {:>12} {:>12} {:>12}\n",
            "span", "count", "total_ms", "self_ms", "p50_us"
        );
        for (name, (total, self_ns, durs)) in by_name {
            out.push_str(&format!(
                "{:<34} {:>8} {:>12.3} {:>12.3} {:>12.1}\n",
                name,
                durs.len(),
                total as f64 / 1e6,
                self_ns as f64 / 1e6,
                median(&durs)
            ));
        }
        out
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
