//! Chrome trace-event export and trace analysis (phase attribution,
//! span-coverage, nesting validation).
//!
//! The emitted artifact is the Chrome trace-event JSON format: an object with
//! a `traceEvents` array of `"X"` (complete) and `"i"` (instant) events plus
//! `"M"` thread-name metadata, timestamps in microseconds. It loads directly
//! in Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing`, with one
//! lane per thread named after the worker.

use std::io;
use std::path::Path;

use crate::json;
use crate::recorder::{RecordKind, SpanRecord, ThreadTrace};

/// The pid reported in trace events (single-process trace).
const PID: u64 = 1;

/// The subsystem a span belongs to: the segment before the first `.` of its
/// name (`"smt.sat"` → `"smt"`). Used as the Chrome trace category.
pub fn subsystem(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

fn push_event(out: &mut String, trace: &ThreadTrace, record: &SpanRecord) {
    let ts_us = record.start_ns as f64 / 1000.0;
    out.push_str("    {\"name\": \"");
    json::escape(record.name, out);
    out.push_str("\", \"cat\": \"");
    json::escape(subsystem(record.name), out);
    match record.kind {
        RecordKind::Span => {
            let dur_us = (record.end_ns - record.start_ns) as f64 / 1000.0;
            out.push_str(&format!(
                "\", \"ph\": \"X\", \"pid\": {PID}, \"tid\": {}, \"ts\": {ts_us:.3}, \"dur\": {dur_us:.3}",
                trace.tid
            ));
        }
        RecordKind::Instant => {
            out.push_str(&format!(
                "\", \"ph\": \"i\", \"s\": \"t\", \"pid\": {PID}, \"tid\": {}, \"ts\": {ts_us:.3}",
                trace.tid
            ));
        }
    }
    if let Some(detail) = &record.detail {
        out.push_str(", \"args\": {\"detail\": \"");
        json::escape(detail, out);
        out.push_str("\"}");
    }
    out.push('}');
}

/// Render drained thread traces as a Chrome trace-event JSON document.
pub fn chrome_trace_json(traces: &[ThreadTrace]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    for trace in traces {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "    {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {PID}, \"tid\": {}, \"args\": {{\"name\": \"",
            trace.tid
        ));
        json::escape(&trace.thread_name, &mut out);
        out.push_str("\"}}");
        for record in &trace.records {
            out.push_str(",\n");
            push_event(&mut out, trace, record);
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Write drained thread traces to `path` as Chrome trace-event JSON.
pub fn write_chrome_trace(path: &Path, traces: &[ThreadTrace]) -> io::Result<()> {
    std::fs::write(path, chrome_trace_json(traces))
}

/// One event parsed back out of a Chrome trace artifact.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    pub name: String,
    pub cat: String,
    /// Event phase: `"X"` for spans, `"i"` for instants.
    pub ph: String,
    pub tid: u64,
    /// Start, microseconds.
    pub ts_us: f64,
    /// Duration, microseconds (0 for instants).
    pub dur_us: f64,
}

impl TraceEvent {
    fn end_us(&self) -> f64 {
        self.ts_us + self.dur_us
    }
}

/// Parse a Chrome trace artifact, returning its span and instant events
/// (metadata events are validated and skipped). Errors on malformed JSON or
/// events missing required fields.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<TraceEvent>, String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or("missing traceEvents array")?;
    let mut out = Vec::new();
    for (index, event) in events.iter().enumerate() {
        let field_str = |key: &str| {
            event
                .get(key)
                .and_then(|v| v.as_str())
                .map(str::to_owned)
                .ok_or(format!("event {index}: missing string field '{key}'"))
        };
        let field_num = |key: &str| {
            event
                .get(key)
                .and_then(|v| v.as_f64())
                .ok_or(format!("event {index}: missing numeric field '{key}'"))
        };
        let ph = field_str("ph")?;
        match ph.as_str() {
            "M" => {
                field_num("tid")?;
                continue;
            }
            "X" | "i" => {}
            other => return Err(format!("event {index}: unexpected phase '{other}'")),
        }
        let dur_us = if ph == "X" { field_num("dur")? } else { 0.0 };
        out.push(TraceEvent {
            name: field_str("name")?,
            cat: field_str("cat")?,
            ph,
            tid: field_num("tid")? as u64,
            ts_us: field_num("ts")?,
            dur_us,
        });
    }
    Ok(out)
}

/// Timestamp slop for f64 comparisons: timestamps are written with 1 ns
/// precision, so anything below half a nanosecond is rounding noise.
const EPS_US: f64 = 0.0005;

/// Validate the structural invariants the recorder guarantees, per thread:
/// non-negative timestamps and durations, record order monotone in span end
/// time (spans record at guard drop), and spans forming a laminar family —
/// any two spans on one thread are either disjoint or properly nested, never
/// partially overlapping.
pub fn check_nesting(events: &[TraceEvent]) -> Result<(), String> {
    let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let lane: Vec<&TraceEvent> = events.iter().filter(|e| e.tid == tid).collect();
        let mut last_end = f64::MIN;
        for event in &lane {
            if event.ts_us < 0.0 || event.dur_us < 0.0 {
                return Err(format!("tid {tid}: negative timestamp on '{}'", event.name));
            }
            if event.end_us() < last_end - EPS_US {
                return Err(format!(
                    "tid {tid}: record order not monotone in end time at '{}'",
                    event.name
                ));
            }
            last_end = last_end.max(event.end_us());
        }
        // Laminar check: sweep spans by start time (longest first on ties),
        // maintaining the stack of enclosing spans.
        let mut spans: Vec<&TraceEvent> = lane.iter().copied().filter(|e| e.ph == "X").collect();
        spans.sort_by(|a, b| {
            a.ts_us
                .partial_cmp(&b.ts_us)
                .unwrap()
                .then(b.dur_us.partial_cmp(&a.dur_us).unwrap())
        });
        let mut stack: Vec<&TraceEvent> = Vec::new();
        for span in spans {
            while let Some(top) = stack.last() {
                if top.end_us() <= span.ts_us + EPS_US {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(top) = stack.last() {
                if span.end_us() > top.end_us() + EPS_US {
                    return Err(format!(
                        "tid {tid}: span '{}' [{:.3}, {:.3}] partially overlaps '{}' [{:.3}, {:.3}]",
                        span.name,
                        span.ts_us,
                        span.end_us(),
                        top.name,
                        top.ts_us,
                        top.end_us()
                    ));
                }
            }
            stack.push(span);
        }
    }
    Ok(())
}

fn union_fraction(mut intervals: Vec<(u64, u64)>, window: (u64, u64)) -> f64 {
    let (lo, hi) = window;
    if hi <= lo {
        return 0.0;
    }
    intervals.retain(|&(s, e)| e > lo && s < hi);
    for interval in &mut intervals {
        interval.0 = interval.0.max(lo);
        interval.1 = interval.1.min(hi);
    }
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered as f64 / (hi - lo) as f64
}

/// Span-coverage ratio: the fraction of the root span's wall time covered by
/// the union of every *other* span (all threads), projected onto the root's
/// window. The root is the longest span named `root_name`; returns `None` if
/// no such span exists. A ratio near 1.0 means essentially all wall time is
/// attributed to named phases.
pub fn span_coverage(traces: &[ThreadTrace], root_name: &str) -> Option<f64> {
    let mut root: Option<(u64, u64)> = None;
    for trace in traces {
        for record in &trace.records {
            if record.kind == RecordKind::Span && record.name == root_name {
                let candidate = (record.start_ns, record.end_ns);
                if root.is_none_or(|(s, e)| candidate.1 - candidate.0 > e - s) {
                    root = Some(candidate);
                }
            }
        }
    }
    let window = root?;
    let intervals: Vec<(u64, u64)> = traces
        .iter()
        .flat_map(|trace| trace.records.iter())
        .filter(|r| r.kind == RecordKind::Span && r.name != root_name)
        .map(|r| (r.start_ns, r.end_ns))
        .collect();
    Some(union_fraction(intervals, window))
}

/// [`span_coverage`] over events parsed back out of an artifact file.
pub fn trace_coverage(events: &[TraceEvent], root_name: &str) -> Option<f64> {
    let to_ns = |us: f64| (us * 1000.0).round().max(0.0) as u64;
    let window = events
        .iter()
        .filter(|e| e.ph == "X" && e.name == root_name)
        .map(|e| (to_ns(e.ts_us), to_ns(e.end_us())))
        .max_by_key(|&(s, e)| e - s)?;
    let intervals: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| e.ph == "X" && e.name != root_name)
        .map(|e| (to_ns(e.ts_us), to_ns(e.end_us())))
        .collect();
    Some(union_fraction(intervals, window))
}

/// Aggregate wall time attributed to one span name (inclusive of nested
/// child spans).
#[derive(Debug, Clone)]
pub struct PhaseAttribution {
    pub name: &'static str,
    pub total_ns: u64,
    pub count: u64,
}

/// Aggregate inclusive wall time and span counts by span name, sorted by
/// total time descending (ties by name). Instant events count with zero
/// duration.
pub fn attribute_phases(traces: &[ThreadTrace]) -> Vec<PhaseAttribution> {
    let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64)> =
        std::collections::BTreeMap::new();
    for trace in traces {
        for record in &trace.records {
            let entry = by_name.entry(record.name).or_insert((0, 0));
            entry.0 += record.end_ns - record.start_ns;
            entry.1 += 1;
        }
    }
    let mut phases: Vec<PhaseAttribution> = by_name
        .into_iter()
        .map(|(name, (total_ns, count))| PhaseAttribution {
            name,
            total_ns,
            count,
        })
        .collect();
    phases.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(b.name)));
    phases
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(records: Vec<SpanRecord>) -> ThreadTrace {
        ThreadTrace {
            tid: 1,
            thread_name: "main".into(),
            records,
        }
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            detail: None,
            start_ns,
            end_ns,
            kind: RecordKind::Span,
        }
    }

    #[test]
    fn writer_roundtrips_through_parser() {
        let mut inner = span("core.invariant", 2_000, 5_000);
        inner.detail = Some("monitor \"x\"\n".into());
        let records = vec![
            inner,
            span("core.analyze", 1_000, 9_000),
            SpanRecord {
                name: "runtime.wakeup",
                detail: None,
                start_ns: 9_500,
                end_ns: 9_500,
                kind: RecordKind::Instant,
            },
        ];
        let text = chrome_trace_json(&[trace(records)]);
        let events = parse_chrome_trace(&text).expect("parse");
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "core.invariant");
        assert_eq!(events[0].cat, "core");
        assert_eq!(events[1].dur_us, 8.0);
        assert_eq!(events[2].ph, "i");
        check_nesting(&events).expect("nesting");
    }

    #[test]
    fn nesting_check_rejects_partial_overlap() {
        let text = chrome_trace_json(&[trace(vec![
            span("a", 1_000, 5_000),
            span("b", 3_000, 8_000),
        ])]);
        let events = parse_chrome_trace(&text).expect("parse");
        assert!(check_nesting(&events).is_err());
    }

    #[test]
    fn coverage_unions_overlapping_child_spans() {
        let traces = [trace(vec![
            span("root", 0, 10_000),
            span("a", 0, 4_000),
            span("b", 2_000, 6_000),
            span("c", 9_000, 12_000), // clipped to the root window
        ])];
        let coverage = span_coverage(&traces, "root").expect("root present");
        assert!((coverage - 0.7).abs() < 1e-9, "coverage = {coverage}");
        assert!(span_coverage(&traces, "absent").is_none());

        let events = parse_chrome_trace(&chrome_trace_json(&traces)).expect("parse");
        let file_coverage = trace_coverage(&events, "root").expect("root present");
        assert!((file_coverage - 0.7).abs() < 1e-6);
    }

    #[test]
    fn attribution_aggregates_by_name() {
        let phases = attribute_phases(&[trace(vec![
            span("smt.sat", 0, 100),
            span("smt.sat", 200, 500),
            span("vcgen.wp", 0, 1_000),
        ])]);
        assert_eq!(phases[0].name, "vcgen.wp");
        assert_eq!(phases[0].total_ns, 1_000);
        assert_eq!(phases[1].name, "smt.sat");
        assert_eq!(phases[1].total_ns, 400);
        assert_eq!(phases[1].count, 2);
    }
}
