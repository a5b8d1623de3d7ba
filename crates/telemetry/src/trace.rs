//! A structured trace-event sink with Chrome `trace_events` export.
//!
//! Spans bracket the simulator's rounds and deliveries and the explorer's
//! per-depth levels; instants mark point events (violations, faults). The
//! output loads directly into `chrome://tracing` / Perfetto as a
//! JSON-array-format trace.
//!
//! Timestamps come from a monotonic clock relative to sink creation, so
//! traces are for *looking at*, never part of any deterministic artifact
//! (reports and fingerprints must not read them).

use crate::json::{write_string, write_u64};
use std::borrow::Cow;
use std::io::{self, Write};
use std::sync::Mutex;
use std::time::Instant;

/// A name, category or argument key: borrowed when it is fixed at
/// compile time, as most are, so recording it copies nothing.
pub type TraceLabel = Cow<'static, str>;

/// One recorded trace event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event name (e.g. `round`, `level 3`).
    pub name: TraceLabel,
    /// Category (e.g. `sim`, `explore`).
    pub cat: TraceLabel,
    /// Chrome phase: `X` for complete spans, `i` for instants.
    pub phase: char,
    /// Microseconds since the sink was created.
    pub ts_us: u64,
    /// Span duration in microseconds (0 for instants).
    pub dur_us: u64,
    /// Logical thread lane the event renders on.
    pub tid: u64,
    /// Numeric arguments attached to the event.
    pub args: Vec<(TraceLabel, u64)>,
}

/// A thread-safe trace sink.
#[derive(Debug)]
pub struct TraceSink {
    start: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new()
    }
}

impl TraceSink {
    /// Creates an empty sink; all timestamps are relative to this moment.
    pub fn new() -> Self {
        TraceSink {
            start: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Opens a span; the span is recorded when the guard drops.
    pub fn span(&self, cat: impl Into<TraceLabel>, name: impl Into<TraceLabel>) -> SpanGuard<'_> {
        self.span_with(cat, name, Vec::new())
    }

    /// Opens a span carrying numeric arguments.
    pub fn span_with(
        &self,
        cat: impl Into<TraceLabel>,
        name: impl Into<TraceLabel>,
        args: Vec<(TraceLabel, u64)>,
    ) -> SpanGuard<'_> {
        SpanGuard {
            sink: self,
            name: name.into(),
            cat: cat.into(),
            args,
            began_us: self.now_us(),
        }
    }

    /// [`span_with`](Self::span_with) for labels that are only borrowed,
    /// which are copied.
    pub fn span_with_args(&self, cat: &str, name: &str, args: Vec<(String, u64)>) -> SpanGuard<'_> {
        let args = args.into_iter().map(|(key, v)| (key.into(), v)).collect();
        self.span_with(cat.to_owned(), name.to_owned(), args)
    }

    /// Records a point event.
    pub fn instant(
        &self,
        cat: impl Into<TraceLabel>,
        name: impl Into<TraceLabel>,
        args: Vec<(TraceLabel, u64)>,
    ) {
        let ts_us = self.now_us();
        self.push(TraceEvent {
            name: name.into(),
            cat: cat.into(),
            phase: 'i',
            ts_us,
            dur_us: 0,
            tid: 0,
            args,
        });
    }

    fn push(&self, event: TraceEvent) {
        self.events.lock().expect("trace sink poisoned").push(event);
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace sink poisoned").len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the sink as a Chrome `trace_events` JSON document
    /// (object format: `{"traceEvents": [...]}`):
    /// [`write_chrome_json`](Self::write_chrome_json) into a buffer.
    pub fn to_chrome_json(&self) -> String {
        let mut out = Vec::new();
        self.write_chrome_json(&mut out)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("the trace is written as UTF-8")
    }

    /// Writes [`to_chrome_json`](Self::to_chrome_json)'s document to
    /// `out` and flushes it, one event at a time straight from its record:
    /// the document is never held whole.
    ///
    /// # Errors
    ///
    /// The first error `out` returns.
    pub fn write_chrome_json(&self, mut out: impl Write) -> io::Result<()> {
        let events = self.events.lock().expect("trace sink poisoned");
        let mut text = String::new();
        out.write_all(b"{\"traceEvents\":[")?;
        for (i, e) in events.iter().enumerate() {
            text.clear();
            text.push_str(if i == 0 { "{\"name\":" } else { ",{\"name\":" });
            write_string(&mut text, &e.name);
            text.push_str(",\"cat\":");
            write_string(&mut text, &e.cat);
            text.push_str(",\"ph\":");
            write_string(&mut text, e.phase.encode_utf8(&mut [0; 4]));
            text.push_str(",\"ts\":");
            write_u64(&mut text, e.ts_us);
            text.push_str(",\"pid\":1,\"tid\":");
            write_u64(&mut text, e.tid);
            if e.phase == 'X' {
                text.push_str(",\"dur\":");
                write_u64(&mut text, e.dur_us);
            }
            for (j, (key, value)) in e.args.iter().enumerate() {
                text.push_str(if j == 0 { ",\"args\":{" } else { "," });
                write_string(&mut text, key);
                text.push(':');
                write_u64(&mut text, *value);
            }
            text.push_str(if e.args.is_empty() { "}" } else { "}}" });
            out.write_all(text.as_bytes())?;
        }
        out.write_all(b"]}")?;
        out.flush()
    }
}

/// An open span; records a complete (`ph: "X"`) event when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    sink: &'a TraceSink,
    name: TraceLabel,
    cat: TraceLabel,
    args: Vec<(TraceLabel, u64)>,
    began_us: u64,
}

impl SpanGuard<'_> {
    /// Attaches a numeric argument to the span before it closes.
    pub fn arg(&mut self, key: impl Into<TraceLabel>, value: u64) {
        self.args.push((key.into(), value));
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let ended_us = self.sink.now_us();
        self.sink.push(TraceEvent {
            name: std::mem::take(&mut self.name),
            cat: std::mem::take(&mut self.cat),
            phase: 'X',
            ts_us: self.began_us,
            dur_us: ended_us.saturating_sub(self.began_us),
            tid: 0,
            args: std::mem::take(&mut self.args),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// The document the sink's events make as a [`Json`] tree.
    fn tree(sink: &TraceSink) -> Json {
        let events = sink.events.lock().unwrap();
        let items = events.iter().map(|e| {
            let mut fields = vec![
                ("name".into(), Json::Str(e.name.to_string())),
                ("cat".into(), Json::Str(e.cat.to_string())),
                ("ph".into(), Json::Str(e.phase.to_string())),
                ("ts".into(), Json::Uint(e.ts_us)),
                ("pid".into(), Json::Uint(1)),
                ("tid".into(), Json::Uint(e.tid)),
            ];
            if e.phase == 'X' {
                fields.push(("dur".into(), Json::Uint(e.dur_us)));
            }
            if !e.args.is_empty() {
                let args = e.args.iter().map(|(k, v)| (k.to_string(), Json::Uint(*v)));
                fields.push(("args".into(), Json::Obj(args.collect())));
            }
            Json::Obj(fields)
        });
        Json::Obj(vec![("traceEvents".into(), Json::Arr(items.collect()))])
    }

    #[test]
    fn spans_and_instants_export_as_chrome_trace() {
        let sink = TraceSink::new();
        assert_eq!(sink.to_chrome_json(), r#"{"traceEvents":[]}"#);
        {
            let mut span = sink.span("sim", "round");
            span.arg("deliveries", 4);
            sink.instant("sim", "violation", vec![("rm".into(), 2)]);
        }
        assert_eq!(sink.len(), 2);
        let doc = Json::parse(&sink.to_chrome_json()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        // The instant was recorded first (spans record on drop).
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[1].get("name").and_then(Json::as_str), Some("round"));
        assert!(events[1].get("dur").and_then(Json::as_u64).is_some());
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("deliveries"))
                .and_then(Json::as_u64),
            Some(4)
        );

        // Names, categories and arg keys that need escapes, and text
        // beyond ASCII, written as the tree writes them.
        let odd = "q\"b\\c\u{1}\n\tπ→😀";
        sink.instant(odd, odd, vec![(odd.into(), u64::MAX), ("k".into(), 0)]);
        sink.span_with_args(odd, "level 3", vec![(odd.into(), 7)]);
        drop(sink.span("", ""));
        let mut written = Vec::new();
        sink.write_chrome_json(&mut written).unwrap();
        assert_eq!(String::from_utf8(written).unwrap(), tree(&sink).to_string());
        assert_eq!(sink.to_chrome_json(), tree(&sink).to_string());
    }
}
