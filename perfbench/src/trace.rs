//! Wall-clock spans recorded around calls into each layer.
//!
//! A span is one timed call: its name, start, end, the span that was
//! open when it started (its parent) and an item count (images for a
//! device call). Spans live in memory on the benchmark thread and are
//! summarized, or written out as a Chrome trace, when the run ends.
//! With tracing off, [`span`] is a thread-local check around the call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Parent index of a top-level span.
const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub items: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Start recording spans on this thread.
pub fn start() {
    TRACER.with(|t| {
        *t.borrow_mut() =
            Some(Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() })
    });
}

pub fn enabled() -> bool {
    TRACER.with(|t| t.borrow().is_some())
}

/// Stop recording and hand back every span, in start order.
pub fn finish() -> Vec<Span> {
    TRACER.with(|t| t.borrow_mut().take().map(|tr| tr.spans).unwrap_or_default())
}

/// Time `f` as one span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    span_items(name, 0, f)
}

/// [`span`] that also records how many items the call handled.
pub fn span_items<T>(name: &'static str, items: usize, f: impl FnOnce() -> T) -> T {
    let id = TRACER.with(|t| {
        t.borrow_mut().as_mut().map(|tr| {
            let id = tr.spans.len() as u32;
            let parent = tr.open.last().copied().unwrap_or(ROOT);
            let start = tr.origin.elapsed().as_nanos() as u64;
            let items = u32::try_from(items).unwrap_or(u32::MAX);
            tr.spans.push(Span { name, start, end: start, parent, items });
            tr.open.push(id);
            id
        })
    });
    let out = f();
    if let Some(id) = id {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let tr = t.as_mut().expect("tracer stays on while a span is open");
            tr.spans[id as usize].end = tr.origin.elapsed().as_nanos() as u64;
            tr.open.pop();
        });
    }
    out
}

/// Per-name totals of a span list.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub calls: u64,
    pub items: u64,
    /// Summed span durations.
    pub ns: u64,
    /// Summed durations minus the part their child spans cover.
    pub self_ns: u64,
}

pub struct Summary {
    pub by_name: BTreeMap<&'static str, Totals>,
    /// Summed durations of the top-level spans.
    pub top_level_ns: u64,
}

impl Summary {
    pub fn of(spans: &[Span]) -> Summary {
        let mut child_ns = vec![0u64; spans.len()];
        let mut top_level_ns = 0;
        for s in spans {
            if s.parent == ROOT {
                top_level_ns += s.ns();
            } else {
                child_ns[s.parent as usize] += s.ns();
            }
        }
        let mut by_name: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let t = by_name.entry(s.name).or_default();
            t.calls += 1;
            t.items += u64::from(s.items);
            t.ns += s.ns();
            t.self_ns += s.ns().saturating_sub(child);
        }
        Summary { by_name, top_level_ns }
    }

    pub fn get(&self, name: &str) -> Totals {
        self.by_name.get(name).copied().unwrap_or_default()
    }
}

/// Mean per-item cost of the last tenth of `name`'s calls over that of
/// the first tenth (1.0 when a run's cost per item stays flat; 0 when
/// there are fewer than ten calls).
pub fn growth(spans: &[Span], name: &str) -> f64 {
    let calls: Vec<&Span> = spans.iter().filter(|s| s.name == name).collect();
    let tenth = calls.len() / 10;
    if tenth == 0 {
        return 0.0;
    }
    let per_item = |part: &[&Span]| {
        let ns: u64 = part.iter().map(|s| s.ns()).sum();
        let items: u64 = part.iter().map(|s| u64::from(s.items.max(1))).sum();
        ns as f64 / items as f64
    };
    let first = per_item(&calls[..tenth]);
    let last = per_item(&calls[calls.len() - tenth..]);
    if first > 0.0 {
        last / first
    } else {
        0.0
    }
}

/// Write `spans` as Chrome trace-event JSON (open it in Perfetto or
/// `chrome://tracing`). Every span of the run shares `pid`; its `args`
/// carry the span's own index, its parent's index and its item count.
pub fn write_chrome(spans: &[Span], pid: u64, label: &str, out: impl Write) -> io::Result<()> {
    let mut out = io::BufWriter::new(out);
    write!(
        out,
        "{{\"traceEvents\":[{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":1,\
         \"args\":{{\"name\":\"{label}\"}}}}"
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
        write!(
            out,
            ",\n{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":{pid},\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"items\":{}}}}}",
            s.name,
            s.start as f64 / 1e3,
            s.ns() as f64 / 1e3,
            s.items
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy() {
        let t = Instant::now();
        while t.elapsed().as_micros() < 200 {}
    }

    #[test]
    fn self_time_excludes_children_and_top_level_sums_roots() {
        start();
        span("outer", || {
            busy();
            span_items("inner", 8, busy);
            span_items("inner", 8, busy);
        });
        span("other", busy);
        let spans = finish();
        assert_eq!(spans.len(), 4);
        let sum = Summary::of(&spans);
        let outer = sum.get("outer");
        let inner = sum.get("inner");
        assert_eq!((inner.calls, inner.items), (2, 16));
        assert_eq!(outer.self_ns, outer.ns - inner.ns);
        assert_eq!(inner.self_ns, inner.ns);
        assert_eq!(sum.top_level_ns, outer.ns + sum.get("other").ns);
        assert!(!enabled());
    }

    #[test]
    fn spans_are_free_when_tracing_is_off() {
        assert_eq!(span("x", || 7), 7);
        assert!(finish().is_empty());
    }
}
