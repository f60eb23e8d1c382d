//! Harness-side spans: name, start, end, parent.
//!
//! The program under test is not instrumented here (that is a later
//! change); the harness records a span around each call it makes into a
//! public function. Spans stay in memory and are written out once, when
//! the run ends. With recording off a span costs one thread-local read.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, e.g. `store.recover` or a probe's metric name.
    pub name: &'static str,
    /// The `rmodp-profile` segment this span covers, where it covers one
    /// (`marshal`, `link.request`, `server.service`, `reply.path`).
    pub segment: Option<&'static str>,
    /// Nanoseconds from the start of recording.
    pub start_ns: u64,
    /// Nanoseconds from the start of recording.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, dropping anything recorded before.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        });
    });
    ON.with(|on| on.set(true));
}

/// Suspends or resumes recording without losing what was recorded.
pub fn set_recording(on: bool) {
    let started = RECORDER.with(|r| r.borrow().is_some());
    ON.with(|flag| flag.set(on && started));
}

/// Spans recorded so far: the index the next span will get.
pub fn count() -> usize {
    RECORDER.with(|r| r.borrow().as_ref().map_or(0, |rec| rec.spans.len()))
}

/// Stops recording and hands over the spans, in start order.
pub fn finish() -> Vec<Span> {
    ON.with(|on| on.set(false));
    RECORDER.with(|r| r.borrow_mut().take().map_or_else(Vec::new, |rec| rec.spans))
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.0 else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[index].end_ns = rec.origin.elapsed().as_nanos() as u64;
                rec.open.pop();
            }
        });
    }
}

/// Opens a span; it ends when the guard drops.
pub fn span(name: &'static str) -> Guard {
    segment_span(name, None)
}

/// Opens a span that covers a `rmodp-profile` segment.
pub fn segment_span(name: &'static str, segment: Option<&'static str>) -> Guard {
    if !ON.with(Cell::get) {
        return Guard(None);
    }
    RECORDER.with(|r| {
        let mut slot = r.borrow_mut();
        let Some(rec) = slot.as_mut() else {
            return Guard(None);
        };
        let index = rec.spans.len();
        let now = rec.origin.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            segment,
            start_ns: now,
            end_ns: now,
            parent: rec.open.last().copied(),
        });
        rec.open.push(index);
        Guard(Some(index))
    })
}

/// Per span name: how many, their total time, and their self time (total
/// minus what their child spans cover), in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregates spans by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut children_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children_ns[parent] += span.duration_ns();
        }
    }
    let mut by_name: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (span, covered) in spans.iter().zip(children_ns) {
        let t = by_name.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += span.duration_ns().saturating_sub(covered);
    }
    by_name
}

/// Renders the trace file: one object with the workload, and the spans
/// as an array of `[name, segment, start_ns, end_ns, parent]` rows under
/// a `columns` header (a row per span keeps a 100k-span trace small).
pub fn render_trace(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 48);
    write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"columns\":[\"name\",\"segment\",\"start_ns\",\"end_ns\",\"parent\"],\"spans\":[",
    )
    .expect("write to String");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        let segment = s
            .segment
            .map_or_else(|| "null".to_owned(), |seg| format!("\"{seg}\""));
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        write!(
            out,
            "[\"{}\",{segment},{},{},{parent}]",
            s.name, s.start_ns, s.end_ns
        )
        .expect("write to String");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn nothing_is_recorded_until_started() {
        let _ = finish();
        drop(span("idle"));
        assert!(finish().is_empty());
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        start();
        {
            let _outer = span("outer");
            {
                let _a = segment_span("inner", Some("marshal"));
                std::hint::black_box((0..10_000u64).sum::<u64>());
            }
            let _b = span("inner");
        }
        set_recording(false);
        drop(span("ignored"));
        let spans = finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[1].segment, Some("marshal"));
        let t = totals(&spans);
        assert_eq!(t["inner"].count, 2);
        assert_eq!(
            t["outer"].self_ns,
            t["outer"].total_ns - t["inner"].total_ns
        );

        let doc = Json::parse(&render_trace("w", 7, &spans)).expect("trace file is JSON");
        let rows = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1].as_arr().unwrap()[1].as_str(), Some("marshal"));
        assert_eq!(rows[1].as_arr().unwrap()[4], Json::Num(0.0));
    }
}
