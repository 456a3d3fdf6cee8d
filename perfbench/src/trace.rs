//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each layer boundary:
//! name, start, end and the span that was open when it started. They
//! stay in memory until the run ends; [`Tracer::self_times`] then gives
//! each span its duration minus the time its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

/// Records spans when enabled; every call is a no-op otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Runs `f` with the platform's counters off, so output checks and
/// probes outside the measured calls do not count in the traced run.
pub fn untraced<T>(f: impl FnOnce() -> T) -> T {
    hive_obs::with_level(hive_obs::Level::Off, f)
}

/// Handle of an open span, closed by [`Tracer::exit`].
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(), // lint:allow(deterministic-time)
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// True in the traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `span` and every span opened inside it.
    pub fn exit(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let end_us = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = end_us;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name);
        let out = f();
        self.exit(span);
        out
    }

    /// Self time in microseconds of every closed span, grouped by name.
    /// A span's self time is its duration minus the durations of its
    /// direct children (children of one span never overlap: the
    /// benchmark is single-threaded).
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_us) {
            out.entry(s.name)
                .or_default()
                .push(s.end_us - s.start_us - covered);
        }
        out
    }

    /// Writes the spans as tab-separated `id parent name start_us end_us`
    /// lines (parent `-` for a root).
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tparent\tname\tstart_us\tend_us")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{:.3}\t{:.3}",
                s.name, s.start_us, s.end_us
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: f64) {
        let t = Instant::now(); // lint:allow(deterministic-time)
        while t.elapsed().as_secs_f64() * 1e6 < us {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        let root = tr.enter("root");
        tr.leaf("child", || spin(2000.0));
        spin(1000.0);
        tr.exit(root);
        let st = tr.self_times();
        let child = st["child"][0];
        let root_self = st["root"][0];
        assert!(child >= 2000.0);
        assert!(
            (1000.0..child).contains(&root_self),
            "root self {root_self} child {child}"
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let s = tr.enter("x");
        tr.exit(s);
        assert_eq!(tr.leaf("y", || 3), 3);
        assert!(tr.self_times().is_empty());
    }

    #[test]
    fn exit_closes_inner_spans() {
        let mut tr = Tracer::new(true);
        let outer = tr.enter("outer");
        let _inner = tr.enter("inner");
        tr.exit(outer);
        let after = tr.enter("after");
        tr.exit(after);
        let mut buf = Vec::new();
        tr.write_tsv(&mut buf).ok();
        let text = String::from_utf8(buf).unwrap_or_default();
        // "after" is a root again: its parent column is "-".
        assert!(text.lines().any(|l| l.starts_with("2\t-\tafter")), "{text}");
    }
}
