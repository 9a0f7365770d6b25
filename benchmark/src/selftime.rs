//! Exclusive ("self") time per span name, and its roll-up per layer.
//!
//! `expresso_obs::attribute_phases` sums *inclusive* durations, so a span
//! that contains other spans is counted once for itself and again for every
//! child — a pool task that runs solver queries reports more time than the
//! wall clock holds. Here a span's self time is its duration minus the part
//! of it that its direct children on the same thread cover; self times of
//! one thread therefore add up to exactly the time that thread spent inside
//! any span.

use expresso_repro::obs::{RecordKind, ThreadTrace};
use std::collections::BTreeMap;

/// The layers (= workspace crates) time is attributed to, in report order,
/// each with the metric that carries its share of all layers' self time.
pub const LAYERS: [(&str, &str); 12] = [
    ("monitor-lang", "monitor-lang.self_share"),
    ("logic", "logic.self_share"),
    ("smt", "smt.self_share"),
    ("vcgen", "vcgen.self_share"),
    ("abduction", "abduction.self_share"),
    ("core", "core.self_share"),
    ("persist", "persist.self_share"),
    ("semantics", "semantics.self_share"),
    ("explore", "explore.self_share"),
    ("runtime", "runtime.self_share"),
    ("loadgen", "loadgen.self_share"),
    ("obs", "obs.self_share"),
];

/// Name of the span the harness opens around one traced pass. Its self time
/// is the part of the pass no layer span covers.
pub const PASS_SPAN: &str = "bench.pass";

/// Totals of one span name over a drained trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Duration minus direct children, summed over every occurrence.
    pub self_ns: u64,
    /// Plain durations, summed (what `attribute_phases` reports).
    pub inclusive_ns: u64,
    /// Occurrences.
    pub count: u64,
}

/// Self and inclusive time per span name, over all threads. Instant events
/// are ignored (they have no duration and no children).
pub fn self_times(traces: &[ThreadTrace]) -> BTreeMap<&'static str, SpanTotals> {
    let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for trace in traces {
        // (start, end, name) of every span of this thread, outermost first:
        // by start ascending, then end descending; of two identical
        // intervals the one recorded later is the outer one (spans record
        // when they close, so the inner closes first).
        let mut spans: Vec<(u64, u64, usize, &'static str)> = trace
            .records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.kind == RecordKind::Span)
            .map(|(i, r)| (r.start_ns, r.end_ns.max(r.start_ns), i, r.name))
            .collect();
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)).then(b.2.cmp(&a.2)));
        // Open ancestors of the span being visited: (end, children_ns, dur, name).
        let mut open: Vec<(u64, u64, u64, &'static str)> = Vec::new();
        let mut close = |entry: (u64, u64, u64, &'static str)| {
            let (_, children, dur, name) = entry;
            let t = totals.entry(name).or_default();
            t.self_ns += dur.saturating_sub(children);
            t.inclusive_ns += dur;
            t.count += 1;
        };
        for (start, end, _, name) in spans {
            while open.last().is_some_and(|top| top.0 <= start && top.0 < end) {
                close(open.pop().expect("checked non-empty"));
            }
            if let Some(parent) = open.last_mut() {
                // Clamped: a span that leaks past its parent (recording
                // toggled mid-span) only discounts the overlapping part.
                parent.1 += end.min(parent.0).saturating_sub(start);
            }
            open.push((end, 0, end - start, name));
        }
        while let Some(entry) = open.pop() {
            close(entry);
        }
    }
    totals
}

/// The layer a span name belongs to: `bench.<layer>.<fn>` spans are opened
/// by this benchmark around a public call into `<layer>`; every other name
/// is a span the workspace crates emit themselves, attributed by prefix.
/// `None` for the harness's own spans.
pub fn layer_of(name: &str) -> Option<&'static str> {
    let key = match name.strip_prefix("bench.") {
        Some(rest) => rest.split('.').next().unwrap_or(rest),
        None => match name.split('.').next().unwrap_or(name) {
            "parse" => "monitor-lang",
            // The pool is `core::Scheduler`; what a task body does outside
            // any inner span cannot be told apart from scheduling itself
            // until the crates open spans of their own.
            "sched" => "core",
            other => other,
        },
    };
    LAYERS
        .iter()
        .map(|(layer, _)| *layer)
        .find(|layer| *layer == key)
}

/// Self time per layer, nanoseconds, over all threads.
pub fn layer_self_ns(totals: &BTreeMap<&'static str, SpanTotals>) -> BTreeMap<&'static str, u64> {
    let mut by_layer: BTreeMap<&'static str, u64> =
        LAYERS.iter().map(|(layer, _)| (*layer, 0)).collect();
    for (name, t) in totals {
        if let Some(layer) = layer_of(name) {
            *by_layer.entry(layer).or_default() += t.self_ns;
        }
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;
    use expresso_repro::obs::SpanRecord;

    fn span(name: &'static str, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            detail: None,
            start_ns,
            end_ns,
            kind: RecordKind::Span,
        }
    }

    fn thread(tid: u64, records: Vec<SpanRecord>) -> ThreadTrace {
        ThreadTrace {
            tid,
            thread_name: format!("t{tid}"),
            records,
        }
    }

    #[test]
    fn nested_spans_subtract_direct_children_only() {
        // Completion order, as the recorder produces it.
        let trace = thread(
            1,
            vec![
                span("smt.sat", 20, 30),
                span("vcgen.wp", 10, 40),
                span("smt.sat", 50, 60),
                span("bench.abduction.invariant", 0, 100),
            ],
        );
        let totals = self_times(&[trace]);
        // invariant: 100 - (wp 30 + second sat 10); the first sat is a
        // grandchild and is already inside wp.
        assert_eq!(totals["bench.abduction.invariant"].self_ns, 60);
        assert_eq!(totals["vcgen.wp"].self_ns, 20);
        assert_eq!(totals["smt.sat"].self_ns, 20);
        assert_eq!(totals["smt.sat"].count, 2);
        assert_eq!(totals["smt.sat"].inclusive_ns, 20);
        let total_self: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(total_self, 100, "self times tile the root span");
    }

    #[test]
    fn degenerate_children_neither_lose_nor_invent_time() {
        let trace = thread(
            1,
            vec![
                // Zero-length child at the parent's very start.
                span("smt.qe", 0, 0),
                // Child ending exactly when the parent ends.
                span("smt.theory", 70, 100),
                // Child with the parent's exact interval (recorded first,
                // so it is the inner one).
                span("core.check", 0, 100),
                span("bench.core.placement", 0, 100),
                // An instant is ignored entirely.
                SpanRecord {
                    name: "runtime.wakeup",
                    detail: None,
                    start_ns: 50,
                    end_ns: 50,
                    kind: RecordKind::Instant,
                },
            ],
        );
        let totals = self_times(&[trace]);
        assert_eq!(totals["bench.core.placement"].self_ns, 0);
        assert_eq!(totals["core.check"].self_ns, 70);
        assert_eq!(totals["smt.theory"].self_ns, 30);
        assert_eq!(totals["smt.qe"].self_ns, 0);
        assert_eq!(totals["smt.qe"].count, 1);
        assert!(!totals.contains_key("runtime.wakeup"));
    }

    #[test]
    fn threads_are_attributed_independently() {
        // A pool task on another thread overlaps the main thread's span in
        // wall time but is not its child.
        let main = thread(1, vec![span("bench.abduction.invariant", 0, 100)]);
        let worker = thread(
            2,
            vec![
                span("smt.sat", 10, 40),
                span("sched.task", 0, 50),
                span("sched.task", 50, 90),
            ],
        );
        let totals = self_times(&[main, worker]);
        assert_eq!(totals["bench.abduction.invariant"].self_ns, 100);
        assert_eq!(totals["sched.task"].self_ns, 20 + 40);
        assert_eq!(totals["sched.task"].inclusive_ns, 90);
        assert_eq!(totals["smt.sat"].self_ns, 30);
        let layers = layer_self_ns(&totals);
        assert_eq!(layers["abduction"], 100);
        assert_eq!(layers["core"], 60);
        assert_eq!(layers["smt"], 30);
        assert_eq!(layers["persist"], 0);
    }

    #[test]
    fn span_names_map_to_layers() {
        assert_eq!(layer_of("bench.monitor-lang.parse"), Some("monitor-lang"));
        assert_eq!(layer_of("parse.monitor"), Some("monitor-lang"));
        assert_eq!(layer_of("sched.task"), Some("core"));
        assert_eq!(layer_of("persist.seed"), Some("persist"));
        assert_eq!(layer_of("loadgen.worker"), Some("loadgen"));
        assert_eq!(layer_of(PASS_SPAN), None);
        assert_eq!(layer_of("unknown.thing"), None);
    }
}
