//! In-memory span recorder for the traced replays.
//!
//! A span is `(name, start, end, parent, op)`: `parent` is the span that
//! was open when it began, and `op` groups the spans of one operation (a
//! scenario search, one served request). Spans are kept in memory and
//! written out once, after the run, so recording costs two clock reads and
//! a `Vec` push. A disabled tracer records nothing and reads no clock,
//! which is how the untraced replay measures the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span. Times are nanoseconds since the
/// tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span stays open until it is passed to Tracer::exit"]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer that records spans (`enabled`) or only runs the code.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: crate::sys::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Starts operation `op`: spans entered from now on carry its id.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let end = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(index),
            "spans must close innermost first"
        );
        self.spans[index].end_ns = end;
    }

    /// Closes `id` like [`Tracer::exit`], naming it `name` — for spans
    /// whose kind is only known once the work is done.
    pub fn exit_as(&mut self, id: SpanId, name: &'static str) {
        if let Some(index) = id.0 {
            self.spans[index].name = name;
        }
        self.exit(id);
    }

    /// Runs `body` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, body: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.enter(name);
        let out = body(self);
        self.exit(id);
        out
    }

    /// Every recorded span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                span.name, span.start_ns, span.end_ns, span.op
            )?;
        }
        out.flush()
    }
}

/// Per-span derived times: duration and self time (duration minus the
/// time covered by direct children), in nanoseconds, indexed like
/// [`Tracer::spans`].
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_time = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_time[parent] += span.end_ns - span.start_ns;
        }
    }
    spans
        .iter()
        .zip(child_time)
        .map(|(span, children)| (span.end_ns - span.start_ns).saturating_sub(children))
        .collect()
}

/// Summed self time per span name, in milliseconds.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut totals = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *totals.entry(span.name).or_insert(0.0) += own as f64 / 1e6;
    }
    totals
}

/// Number of spans per name.
pub fn counts_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut counts = BTreeMap::new();
    for span in spans {
        *counts.entry(span.name).or_insert(0) += 1;
    }
    counts
}

/// Self times (ns) of every span named `name`, in recording order.
pub fn self_ns_of(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(span, _)| span.name == name)
        .map(|(_, own)| own)
        .collect()
}

/// Checks the structural invariants the per-layer numbers rely on: every
/// span is closed and lies inside its parent, shares its parent's op, and
/// sibling spans do not overlap. Returns the first violation.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let mut last_child_end: Vec<u64> = vec![0; spans.len()];
    for (index, span) in spans.iter().enumerate() {
        if span.end_ns < span.start_ns {
            return Err(format!(
                "span {index} ({}) ends before it starts",
                span.name
            ));
        }
        let Some(parent) = span.parent else { continue };
        let outer = &spans[parent];
        if parent >= index {
            return Err(format!("span {index} opened before its parent"));
        }
        if span.start_ns < outer.start_ns || span.end_ns > outer.end_ns {
            return Err(format!(
                "span {index} ({}) escapes its parent {} ({})",
                span.name, parent, outer.name
            ));
        }
        if span.op != outer.op {
            return Err(format!("span {index} ({}) changes op id", span.name));
        }
        if span.start_ns < last_child_end[parent] {
            return Err(format!("span {index} ({}) overlaps a sibling", span.name));
        }
        last_child_end[parent] = span.end_ns;
    }
    Ok(())
}

/// Duration (ns) of each root span, keyed by op id — an operation's
/// traced wall time.
pub fn root_ns_by_op(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut roots = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent.is_none()) {
        *roots.entry(span.op).or_insert(0) += span.end_ns - span.start_ns;
    }
    roots
}

/// Summed self time (ns) of all spans of each op.
pub fn self_ns_by_op(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut sums = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *sums.entry(span.op).or_insert(0) += own;
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced_sample() -> Tracer {
        let mut tracer = Tracer::new(true);
        for op in 0..3 {
            tracer.begin_op(op);
            tracer.span("op", |t| {
                t.span("parse", |_| std::hint::black_box((0..1000).sum::<u64>()));
                t.span("route", |t| {
                    t.span("render", |_| std::hint::black_box((0..5000).sum::<u64>()));
                });
                t.span("encode", |_| ());
            });
        }
        tracer
    }

    #[test]
    fn spans_nest() {
        let tracer = traced_sample();
        let spans = tracer.spans();
        assert_eq!(spans.len(), 15);
        check_nesting(spans).unwrap();
        let render = spans.iter().position(|s| s.name == "render").unwrap();
        let route = spans[render].parent.unwrap();
        assert_eq!(spans[route].name, "route");
        assert_eq!(spans[spans[route].parent.unwrap()].name, "op");
        assert!(spans
            .iter()
            .filter(|s| s.name == "op")
            .all(|s| s.parent.is_none()));
    }

    #[test]
    fn nesting_check_rejects_escaping_and_overlapping_spans() {
        let mut spans = traced_sample().spans().to_vec();
        let child = spans.iter().position(|s| s.name == "parse").unwrap();
        let parent = spans[child].parent.unwrap();
        spans[child].end_ns = spans[parent].end_ns + 1;
        assert!(check_nesting(&spans).is_err());

        let mut spans = traced_sample().spans().to_vec();
        let route = spans.iter().position(|s| s.name == "route").unwrap();
        let parse = spans.iter().position(|s| s.name == "parse").unwrap();
        spans[route].start_ns = spans[parse].start_ns;
        assert!(check_nesting(&spans).is_err());
    }

    #[test]
    fn self_times_are_non_negative_and_sum_to_each_op_wall_time() {
        let tracer = traced_sample();
        let spans = tracer.spans();
        let own = self_times(spans);
        for (span, own) in spans.iter().zip(&own) {
            assert!(*own <= span.end_ns - span.start_ns);
        }
        assert_eq!(self_ns_by_op(spans), root_ns_by_op(spans));
        let totals = self_ms_by_name(spans);
        assert!(totals.values().all(|ms| *ms >= 0.0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let value = tracer.span("op", |t| t.span("inner", |_| 7));
        assert_eq!(value, 7);
        assert!(tracer.spans().is_empty());
    }
}
