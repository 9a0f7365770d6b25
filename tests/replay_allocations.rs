//! A replayed monitor copies no syntax tree.
//!
//! A warm pass rebuilds every monitor's outcome from its record in the
//! artifact. The monitor's lists and guards are shared `Arc`s, so the
//! rebuilt explicit monitor holds the very CCR list it was handed, and every
//! notification predicate is the `Arc` of a guard of that list. A counting
//! global allocator holds the replay to a small fixed number of heap
//! allocations per monitor: a deep clone of a monitor or of its guards costs
//! dozens, and shows here.

use expresso_repro::core::{Expresso, ExpressoConfig, SharedAnalysisContext};
use expresso_repro::monitor_lang::Monitor;
use expresso_repro::suite::corpusgen::{generate, CorpusSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Heap allocations (reallocations included) a replayed monitor may make.
const MAX_ALLOCATIONS_PER_REPLAY: usize = 64;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting the allocations of a thread that has
/// switched counting on.
struct Counting;

fn note_allocation() {
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only const-initialised thread-locals without destructors, which
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The heap allocations `f` makes on the calling thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (usize, T) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let value = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCATIONS.with(Cell::get), value)
}

#[test]
fn a_replayed_monitor_shares_its_tree_and_allocates_little() {
    let dir = std::env::temp_dir().join(format!("xp-replay-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let monitors: Vec<Monitor> = generate(&CorpusSpec { size: 100, seed: 1 })
        .iter()
        .map(|m| m.monitor())
        .collect();

    let cold_config = ExpressoConfig {
        cache_dir: Some(dir.clone()),
        ..ExpressoConfig::default()
    };
    let cold = SharedAnalysisContext::new(&cold_config);
    for outcome in Expresso::with_config(cold_config).analyze_suite(&cold, &monitors) {
        outcome.expect("every corpus monitor analyses");
    }
    cold.persist().expect("the artifact is written");
    drop(cold);

    // One thread: the suite's tasks run on the calling thread, the one whose
    // allocations are counted.
    let config = ExpressoConfig {
        cache_dir: Some(dir.clone()),
        analysis_threads: 1,
        ..ExpressoConfig::default()
    };
    let context = SharedAnalysisContext::new(&config);
    let expresso = Expresso::with_config(config);
    let (allocations, outcomes) = counted(|| expresso.analyze_suite(&context, &monitors));
    let replayed = context
        .metrics_registry()
        .snapshot()
        .counter("core.outcomes", "outcome_hits")
        .expect("the context counts its replays");
    assert_eq!(replayed, monitors.len() as u64, "every monitor is replayed");
    // Not vacuous: a replay allocates at least its decision table.
    assert!(
        allocations >= monitors.len(),
        "{allocations} allocations counted for {} replays: counting missed the replays",
        monitors.len()
    );
    let per_replay = allocations as f64 / monitors.len() as f64;
    assert!(
        allocations <= MAX_ALLOCATIONS_PER_REPLAY * monitors.len(),
        "{per_replay:.1} allocations per replayed monitor, at most \
         {MAX_ALLOCATIONS_PER_REPLAY} allowed"
    );

    for (monitor, outcome) in monitors.iter().zip(outcomes) {
        let outcome = outcome.expect("a replay does not fail");
        let explicit = &outcome.explicit;
        assert!(
            Arc::ptr_eq(&explicit.monitor.ccrs, &monitor.ccrs),
            "{}: the replayed monitor copied its CCRs",
            monitor.name
        );
        let is_a_guard = |predicate| {
            monitor
                .ccrs
                .iter()
                .any(|ccr| Arc::ptr_eq(&ccr.guard, predicate))
        };
        for notification in explicit.notifications.values().flatten() {
            assert!(
                is_a_guard(&notification.predicate),
                "{}: notification predicate {} is a copy of its guard",
                monitor.name,
                notification.predicate
            );
        }
        for decision in &outcome.report.decisions {
            assert!(
                is_a_guard(&decision.predicate),
                "{}: decision predicate {} is a copy of its guard",
                monitor.name,
                decision.predicate
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
