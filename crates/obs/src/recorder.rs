//! The span recorder: a global enable flag, per-thread append-only buffers,
//! and RAII guards.
//!
//! Design constraints (see the crate docs): when disabled, entering a span is
//! one relaxed atomic load; when enabled, a span costs two monotonic clock
//! reads plus a push onto a buffer only its own thread ever appends to (the
//! buffer's mutex is uncontended except during [`drain`]). Buffers are
//! registered in a process-wide list so spans recorded by pool workers and
//! dead threads survive until drained; a drain drops the buffers of threads
//! that have exited, so the list holds at most one per live thread plus the
//! exited ones not yet drained.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is span recording enabled? A single relaxed load — this is the only cost
/// the instrumentation adds to disabled-mode hot paths.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn span recording on or off. Spans whose guards are already open when
/// recording is toggled still record on drop.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace epoch (first use). Monotonic
/// across all threads.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// What kind of record a [`SpanRecord`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A duration span: `[start_ns, end_ns]`.
    Span,
    /// A point-in-time marker; `end_ns == start_ns`.
    Instant,
}

/// One recorded span or instant event.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Static span name, e.g. `"smt.sat"`. The segment before the first `.`
    /// is the subsystem and becomes the Chrome trace category.
    pub name: &'static str,
    /// Optional per-span detail (e.g. the monitor being analyzed).
    pub detail: Option<String>,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Span or instant.
    pub kind: RecordKind,
}

struct ThreadBuffer {
    tid: u64,
    thread_name: String,
    records: Mutex<Vec<SpanRecord>>,
}

static REGISTRY: Mutex<Vec<Arc<ThreadBuffer>>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static BUFFER: Arc<ThreadBuffer> = register_thread();
}

fn register_thread() -> Arc<ThreadBuffer> {
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let thread_name = std::thread::current()
        .name()
        .map(str::to_owned)
        .unwrap_or_else(|| format!("thread-{tid}"));
    let buffer = Arc::new(ThreadBuffer {
        tid,
        thread_name,
        records: Mutex::new(Vec::new()),
    });
    REGISTRY.lock().unwrap().push(Arc::clone(&buffer));
    buffer
}

fn record(rec: SpanRecord) {
    BUFFER.with(|buffer| buffer.records.lock().unwrap().push(rec));
}

/// Record an instant event. Prefer the [`crate::instant!`] macro.
#[inline]
pub fn record_instant(name: &'static str) {
    if !enabled() {
        return;
    }
    let now = now_ns();
    record(SpanRecord {
        name,
        detail: None,
        start_ns: now,
        end_ns: now,
        kind: RecordKind::Instant,
    });
}

/// RAII guard for an open span; records on drop. Create via [`crate::span!`].
pub struct SpanGuard {
    name: &'static str,
    detail: Option<String>,
    start_ns: u64,
    active: bool,
}

impl SpanGuard {
    /// Open a span named `name` (no detail).
    #[inline]
    pub fn enter(name: &'static str) -> Self {
        if !enabled() {
            return Self::inactive();
        }
        SpanGuard {
            name,
            detail: None,
            start_ns: now_ns(),
            active: true,
        }
    }

    /// Open a span with a pre-formatted detail string. Callers should check
    /// [`enabled`] first so the detail is not built in disabled mode — the
    /// [`crate::span!`] macro does this.
    pub fn enter_with(name: &'static str, detail: String) -> Self {
        if !enabled() {
            return Self::inactive();
        }
        SpanGuard {
            name,
            detail: Some(detail),
            start_ns: now_ns(),
            active: true,
        }
    }

    /// A guard that records nothing on drop.
    #[inline]
    pub const fn inactive() -> Self {
        SpanGuard {
            name: "",
            detail: None,
            start_ns: 0,
            active: false,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        record(SpanRecord {
            name: self.name,
            detail: self.detail.take(),
            start_ns: self.start_ns,
            end_ns: now_ns(),
            kind: RecordKind::Span,
        });
    }
}

/// All records flushed from one thread's buffer.
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    /// Stable per-thread lane id (assigned at first span on the thread).
    pub tid: u64,
    /// The OS thread name at registration time (e.g. `expresso-worker-3`).
    pub thread_name: String,
    /// Records in the order the thread finished them (spans record at guard
    /// drop, so nested spans appear before the span that encloses them).
    pub records: Vec<SpanRecord>,
}

/// Flush every thread's buffer, returning the accumulated records grouped by
/// thread (sorted by lane id). Threads with no records are omitted. Spans
/// whose guards are still open are not included — they record at drop and
/// will surface in a later drain.
pub fn drain() -> Vec<ThreadTrace> {
    let mut registry = REGISTRY.lock().unwrap();
    let mut traces = Vec::new();
    registry.retain(|buffer| {
        // Only the registry holds the buffer of a thread that has exited.
        // Read that before taking the records, so none can arrive after.
        let exited = Arc::strong_count(buffer) == 1;
        let records = std::mem::take(&mut *buffer.records.lock().unwrap());
        if !records.is_empty() {
            traces.push(ThreadTrace {
                tid: buffer.tid,
                thread_name: buffer.thread_name.clone(),
                records,
            });
        }
        !exited
    });
    traces.sort_by_key(|trace| trace.tid);
    traces
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises the tests that switch recording on or drain: both are
    /// process-wide.
    static GLOBALS: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_records_nothing_enabled_records_nested() {
        let _guard = GLOBALS.lock().unwrap();
        let _ = drain();
        {
            let _span = crate::span!("test.off");
            let _detailed = crate::span!("test.off", "cost {}", 1);
            crate::instant!("test.off_mark");
        }
        assert!(drain().is_empty(), "disabled mode must record nothing");

        set_enabled(true);
        {
            let _outer = crate::span!("test.outer", "detail {}", 7);
            let _inner = crate::span!("test.inner");
            crate::instant!("test.mark");
        }
        set_enabled(false);

        let traces = drain();
        let records: Vec<&SpanRecord> = traces.iter().flat_map(|t| t.records.iter()).collect();
        // Recorded in completion order: the instant fires first, then the
        // inner guard drops, then the outer.
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].name, "test.mark");
        assert_eq!(records[0].kind, RecordKind::Instant);
        assert_eq!(records[1].name, "test.inner");
        assert_eq!(records[2].name, "test.outer");
        assert_eq!(records[2].detail.as_deref(), Some("detail 7"));
        assert!(records[1].start_ns >= records[2].start_ns);
        assert!(records[1].end_ns <= records[2].end_ns);

        assert!(drain().is_empty(), "drain must flush");
    }

    #[test]
    fn a_drain_drops_the_buffers_of_exited_threads() {
        let _guard = GLOBALS.lock().unwrap();
        set_enabled(true);
        let names: Vec<String> = (0..50).map(|i| format!("short-lived-{i}")).collect();
        for name in &names {
            std::thread::Builder::new()
                .name(name.clone())
                .spawn(|| drop(crate::span!("test.short_lived")))
                .unwrap()
                .join()
                .unwrap();
        }
        set_enabled(false);
        let drained = drain();
        // Every exited thread's records are delivered once …
        for name in &names {
            assert!(drained.iter().any(|t| &t.thread_name == name), "{name}");
        }
        // … and its buffer leaves with them: what stays is the few threads
        // of the test harness, not one lane per thread that ever recorded.
        let registry = REGISTRY.lock().unwrap();
        assert!(!registry.iter().any(|b| names.contains(&b.thread_name)));
        assert!(registry.len() < names.len(), "{} buffers", registry.len());
    }
}
