//! End-to-end tests of the systematic schedule explorer (`expresso-explore`):
//! it must catch a planted wakeup-order-sensitive signal-placement bug, hold
//! (with a real reduction
//! over naive enumeration) on correctly synthesized suite monitors, report
//! bit-identical exploration counts regardless of how many scheduler
//! workers the subtrees fan out over, and keep reporting the counts pinned
//! below when its internals are made faster.

use expresso_repro::core::{Expresso, Scheduler, SharedAnalysisContext};
use expresso_repro::explore::{
    benchmark_workload, explore, render_trace, ExploreConfig, RefinedIndependence, Strategy,
};
use expresso_repro::logic::Valuation;
use expresso_repro::monitor_lang::{
    check_monitor, initial_state, parse_monitor, ExplicitMonitor, Monitor, NotificationKind,
};
use expresso_repro::semantics::{SemanticsMode, ThreadSpec};
use expresso_repro::vcgen::{refine_independence, DisjointnessStore};
use std::sync::Arc;

/// Builds the solver-refined independence config for one monitor, proving
/// its pairs through the context's memoizing solver — the same path the
/// benchmark harness takes.
fn refined_config(
    context: &SharedAnalysisContext,
    monitor: &Monitor,
    table: &expresso_repro::monitor_lang::VarTable,
    base: &ExploreConfig,
) -> ExploreConfig {
    let refined = refine_independence(monitor, table, context.solver(), &DisjointnessStore::new());
    ExploreConfig {
        independence: Some(Arc::new(RefinedIndependence {
            table: refined,
            ..RefinedIndependence::default()
        })),
        ..base.clone()
    }
}

/// A two-token gate: `open` must *broadcast* — with two passers blocked, a
/// single signal strands the second one even though both guards hold.
const GATE: &str = r#"
    monitor Gate {
        int tokens = 0;
        atomic void open() { tokens = tokens + 2; }
        atomic void pass() { waituntil (tokens > 0) { tokens--; } }
    }
"#;

fn gate() -> (Monitor, expresso_repro::monitor_lang::VarTable) {
    let monitor = parse_monitor(GATE).unwrap();
    let table = check_monitor(&monitor).unwrap();
    (monitor, table)
}

#[test]
fn explorer_catches_planted_signal_downgrade() {
    let (monitor, table) = gate();
    let outcome = Expresso::new().analyze(&monitor).unwrap();
    let open = monitor.method("open").unwrap().ccrs[0];
    assert!(
        outcome
            .explicit
            .notifications_for(open)
            .iter()
            .any(|n| n.kind == NotificationKind::Broadcast),
        "the pipeline must synthesize a broadcast on open"
    );

    // The planted bug: downgrade the broadcast to a signal. Only wakeup
    // order distinguishes them — one waiter proceeds either way.
    let mut sabotaged = outcome.explicit.clone();
    for n in sabotaged.notifications.get_mut(&open).unwrap() {
        if n.kind == NotificationKind::Broadcast {
            n.kind = NotificationKind::Signal;
        }
    }

    let initial = initial_state(&monitor, &table, &Valuation::new()).unwrap();
    let specs = vec![
        ThreadSpec::new("pass"),
        ThreadSpec::new("pass"),
        ThreadSpec::new("open"),
    ];

    // Only the schedule that blocks both passers before `open` fires tells
    // the two apart; the explorer enumerates the wakeup orders exhaustively
    // and must find it.
    let workload = expresso_repro::explore::Workload {
        initial,
        programs: specs.into_iter().map(|s| vec![s]).collect(),
    };
    let report = explore(
        &monitor,
        &table,
        &sabotaged,
        &workload,
        &ExploreConfig::default(),
    )
    .unwrap();
    assert!(
        !report.holds(),
        "systematic exploration must catch the broadcast→signal downgrade"
    );
    let divergence = &report.divergences[0];
    assert_eq!(divergence.driver, SemanticsMode::Implicit);
    // Minimal reproduction: both passers block, open fires (implicit wakes
    // both, the signal wakes one), the first passer drains its wakeup, the
    // stranded passer fires — rule 2b admits nothing shorter.
    assert!(
        divergence.trace.len() <= 5,
        "counterexample not minimized:\n{}",
        render_trace(&monitor, &divergence.trace)
    );

    // The refined relation must not weaken detection: the same bug is
    // caught and minimized to the same schedule. The refinement only drops
    // provably commuting interleavings, never a distinguishing one.
    let pipeline = Expresso::new();
    let context = SharedAnalysisContext::new(pipeline.config());
    let refined = refined_config(&context, &monitor, &table, &ExploreConfig::default());
    let refined_report = explore(&monitor, &table, &sabotaged, &workload, &refined).unwrap();
    assert!(
        !refined_report.holds(),
        "the refined relation must still catch the broadcast→signal downgrade"
    );
    assert_eq!(
        refined_report.divergences[0].trace,
        divergence.trace,
        "refined exploration minimized to a different counterexample:\n{}",
        render_trace(&monitor, &refined_report.divergences[0].trace)
    );

    // The unsabotaged monitor explores clean under the same bounds.
    let clean = explore(
        &monitor,
        &table,
        &outcome.explicit,
        &workload,
        &ExploreConfig::default(),
    )
    .unwrap();
    assert!(clean.holds(), "divergences: {:?}", clean.divergences);
}

#[test]
fn suite_benchmarks_explore_clean_with_a_real_reduction() {
    let pipeline = Expresso::new();
    let context = SharedAnalysisContext::new(pipeline.config());
    let mut naive_total = 0usize;
    let mut dpor_total = 0usize;
    for benchmark in expresso_repro::suite::all().into_iter().filter(|b| {
        matches!(
            b.name,
            "BoundedBuffer" | "H2OBarrier" | "RoundRobin" | "SimpleDecoder"
        )
    }) {
        let monitor = benchmark.monitor();
        let table = check_monitor(&monitor).unwrap();
        let outcome = pipeline.analyze_with_context(&context, &monitor).unwrap();
        let workload = benchmark_workload(&benchmark, &monitor, &table, 3, 2).unwrap();
        let dpor = explore(
            &monitor,
            &table,
            &outcome.explicit,
            &workload,
            &ExploreConfig::default(),
        )
        .unwrap();
        assert!(
            dpor.holds(),
            "{}: {:?}",
            benchmark.name,
            dpor.divergences
                .iter()
                .map(|d| format!("[{:?}] {}", d.driver, d.reason))
                .collect::<Vec<_>>()
        );
        assert!(dpor.executions() > 0, "{}", benchmark.name);
        let naive = explore(
            &monitor,
            &table,
            &outcome.explicit,
            &workload,
            &ExploreConfig {
                strategy: Strategy::Naive,
                check: false,
                ..ExploreConfig::default()
            },
        )
        .unwrap();
        assert!(
            naive.executions() >= dpor.executions(),
            "{}: DPOR explored more than naive enumeration",
            benchmark.name
        );
        naive_total += naive.executions();
        dpor_total += dpor.executions();
    }
    assert!(
        naive_total > dpor_total,
        "partial-order reduction had no effect: naive {naive_total} vs dpor {dpor_total}"
    );
}

#[test]
fn refined_relation_shrinks_exploration_without_changing_verdicts() {
    // Across the whole suite: (1) the refined relation is a *refinement* —
    // it only removes interleavings, never adds them, so refined execution
    // counts are bounded by the conservative ones; (2) divergence verdicts
    // are bit-identical under both relations; (3) with wakeup trees active,
    // no execution under either relation is sleep-set blocked; (4) the
    // refinement is not vacuous — the solver proves at least one fire×fire
    // pair disjoint somewhere in the suite.
    let pipeline = Expresso::new();
    let context = SharedAnalysisContext::new(pipeline.config());
    let base = ExploreConfig::default();
    let mut proven_pairs = 0usize;
    let mut strictly_reduced = 0usize;
    let mut total_refined = 0usize;
    let mut total_conservative = 0usize;
    for benchmark in expresso_repro::suite::all() {
        let monitor = benchmark.monitor();
        let table = check_monitor(&monitor).unwrap();
        let outcome = pipeline.analyze_with_context(&context, &monitor).unwrap();
        let workload = benchmark_workload(&benchmark, &monitor, &table, 3, 2).unwrap();
        let conservative = explore(&monitor, &table, &outcome.explicit, &workload, &base).unwrap();
        let refined_cfg = refined_config(&context, &monitor, &table, &base);
        proven_pairs += refined_cfg
            .independence
            .as_ref()
            .unwrap()
            .table
            .values()
            .filter(|&&v| v)
            .count();
        let refined =
            explore(&monitor, &table, &outcome.explicit, &workload, &refined_cfg).unwrap();
        assert_eq!(
            conservative.holds(),
            refined.holds(),
            "{}: verdict changed under the refined relation",
            benchmark.name
        );
        assert_eq!(
            conservative
                .divergences
                .iter()
                .map(|d| (&d.trace, d.driver))
                .collect::<Vec<_>>(),
            refined
                .divergences
                .iter()
                .map(|d| (&d.trace, d.driver))
                .collect::<Vec<_>>(),
            "{}: divergences differ under the refined relation",
            benchmark.name
        );
        total_refined += refined.executions();
        total_conservative += conservative.executions();
        assert_eq!(
            conservative.sleep_set_blocked(),
            0,
            "{}: conservative run completed a sleep-set-blocked execution",
            benchmark.name
        );
        assert_eq!(
            refined.sleep_set_blocked(),
            0,
            "{}: refined run completed a sleep-set-blocked execution",
            benchmark.name
        );
        if refined.executions() < conservative.executions() {
            strictly_reduced += 1;
        }
    }
    assert!(
        proven_pairs > 0,
        "the solver proved no pair independent anywhere in the suite"
    );
    assert!(
        strictly_reduced > 0,
        "the refined relation never shrank any benchmark's exploration"
    );
    // Per-benchmark monotonicity is not guaranteed — sparser refined hb
    // chains can uncover far races the conservative relation covered
    // transitively — but across the suite the refinement must pay for
    // itself.
    assert!(
        total_refined <= total_conservative,
        "the refined relation explored more suite-wide ({total_refined} vs {total_conservative})"
    );
}

/// `[executions, transitions, sleep_prunes]` of the implicit- and of the
/// explicit-driver direction at 3 threads x 2 operations under the refined
/// relation, where a lost wakeup-sequence registration silently drops
/// schedules rather than just skewing counters. Read from the explorer while
/// it still answered revisited states from a cache, whose counts were
/// pinned equal to a cache-free run's.
const PINNED_3X2: [(&str, [usize; 3], [usize; 3]); 3] = [
    ("BoundedBuffer", [254, 927, 189], [254, 927, 189]),
    ("ReadersWriters", [3736, 18758, 3573], [3736, 18758, 3573]),
    ("BroadcastRing", [6165, 23063, 5275], [6165, 23063, 5275]),
];

#[test]
fn refined_exploration_counters_are_pinned_at_three_by_two() {
    let pipeline = Expresso::new();
    let context = SharedAnalysisContext::new(pipeline.config());
    for (name, implicit, explicit) in PINNED_3X2 {
        let benchmark = expresso_repro::suite::all()
            .into_iter()
            .find(|b| b.name == name)
            .unwrap();
        let monitor = benchmark.monitor();
        let table = check_monitor(&monitor).unwrap();
        let outcome = pipeline.analyze_with_context(&context, &monitor).unwrap();
        let workload = benchmark_workload(&benchmark, &monitor, &table, 3, 2).unwrap();
        let config = refined_config(&context, &monitor, &table, &ExploreConfig::default());
        let report = explore(&monitor, &table, &outcome.explicit, &workload, &config).unwrap();
        assert!(report.holds(), "{name}: {:?}", report.divergences);
        assert_eq!(
            report.sleep_set_blocked(),
            0,
            "{name}: completed a sleep-set-blocked execution"
        );
        for (direction, stats, pinned) in [
            ("implicit", &report.implicit, implicit),
            ("explicit", &report.explicit, explicit),
        ] {
            assert_eq!(
                [stats.executions, stats.transitions, stats.sleep_prunes],
                pinned,
                "{name}, {direction} driver: [executions, transitions, sleep_prunes]"
            );
        }
    }
}

#[test]
fn exploration_counts_are_identical_across_analysis_threads() {
    // Both directions' subtrees share one pool scope, so divergences must
    // still be reported per direction, implicit first, with the same
    // minimized traces at every worker count. Two sabotaged monitors are
    // the inputs that diverge: BoundedBuffer with every notification
    // removed (caught with the implicit semantics driving), and
    // SimpleDecoder with its first CCR's notifications removed (caught
    // with either driving).
    use SemanticsMode::{Explicit, Implicit};
    let pipeline = Expresso::new();
    let context = SharedAnalysisContext::new(pipeline.config());
    for benchmark in expresso_repro::suite::all()
        .into_iter()
        .filter(|b| matches!(b.name, "BoundedBuffer" | "H2OBarrier" | "SimpleDecoder"))
    {
        let monitor = benchmark.monitor();
        let table = check_monitor(&monitor).unwrap();
        let outcome = pipeline.analyze_with_context(&context, &monitor).unwrap();
        let workload = benchmark_workload(&benchmark, &monitor, &table, 3, 2).unwrap();
        let mut inputs = vec![("synthesized", outcome.explicit.clone(), vec![])];
        match benchmark.name {
            "BoundedBuffer" => inputs.push((
                "silent",
                ExplicitMonitor::without_signals(monitor.clone()),
                vec![Implicit],
            )),
            "SimpleDecoder" => {
                let mut dropped = outcome.explicit;
                dropped.notifications.insert(monitor.ccrs[0].id, Vec::new());
                inputs.push(("first CCR silent", dropped, vec![Implicit, Explicit]));
            }
            _ => {}
        }
        for (label, explicit, drivers) in inputs {
            let mut reports = Vec::new();
            for threads in [1usize, 8] {
                let config = ExploreConfig {
                    scheduler: Some(Arc::new(Scheduler::with_analysis_threads(threads))),
                    ..ExploreConfig::default()
                };
                let report = explore(&monitor, &table, &explicit, &workload, &config).unwrap();
                assert_eq!(
                    report
                        .divergences
                        .iter()
                        .map(|d| d.driver)
                        .collect::<Vec<_>>(),
                    drivers,
                    "{} ({label}): threads={threads}: {:?}",
                    benchmark.name,
                    report.divergences
                );
                let divergences: Vec<_> = report
                    .divergences
                    .into_iter()
                    .map(|d| (d.driver, d.reason, d.trace))
                    .collect();
                reports.push((report.implicit, report.explicit, divergences));
            }
            assert_eq!(
                reports[0], reports[1],
                "{} ({label}): exploration drifted across worker counts",
                benchmark.name
            );
        }
    }
}

/// `[executions, transitions, sleep_prunes]` of the implicit- and of the
/// explicit-driver direction, per suite monitor at 2 threads x 2 operations
/// under the refined relation, as the explorer reported them before its
/// stepper ran compiled code, its search stopped copying configurations and
/// its state cache was deleted. A change that is only meant to make the
/// search faster leaves every one of them alone; `reproduce diff` holds the
/// 3 x 2 counts the same way, but only in CI.
const PINNED_2X2: [(&str, [usize; 3], [usize; 3]); 16] = [
    ("BoundedBuffer", [3, 12, 0], [3, 12, 0]),
    ("H2OBarrier", [8, 47, 0], [8, 47, 0]),
    ("SleepingBarber", [3, 12, 0], [3, 12, 0]),
    ("RoundRobin", [8, 29, 5], [8, 29, 5]),
    ("TicketedReadersWriters", [15, 91, 14], [15, 91, 14]),
    ("ParameterizedBoundedBuffer", [6, 21, 3], [6, 21, 3]),
    ("DiningPhilosophers", [23, 124, 17], [23, 124, 17]),
    ("ReadersWriters", [21, 114, 17], [21, 114, 17]),
    ("ConcurrencyThrottle", [13, 73, 6], [13, 73, 6]),
    ("PendingPostQueue", [3, 12, 0], [3, 12, 0]),
    ("AsyncDispatch", [6, 21, 3], [6, 21, 3]),
    ("SimpleBlockingDeployment", [23, 124, 17], [23, 124, 17]),
    ("SimpleDecoder", [4, 26, 2], [4, 26, 2]),
    ("AsyncOperationExecutor", [3, 12, 0], [3, 12, 0]),
    ("BroadcastRing", [3, 18, 0], [3, 18, 0]),
    ("WriterPriorityLock", [23, 146, 8], [23, 146, 8]),
];

#[test]
fn refined_exploration_counters_are_pinned_at_two_by_two() {
    let pipeline = Expresso::new();
    let context = SharedAnalysisContext::new(pipeline.config());
    let suite = expresso_repro::suite::all();
    assert_eq!(suite.len(), PINNED_2X2.len());
    for (benchmark, (name, implicit, explicit)) in suite.iter().zip(PINNED_2X2) {
        assert_eq!(benchmark.name, name, "the suite's order changed");
        let monitor = benchmark.monitor();
        let table = check_monitor(&monitor).unwrap();
        let outcome = pipeline.analyze_with_context(&context, &monitor).unwrap();
        let workload = benchmark_workload(benchmark, &monitor, &table, 2, 2).unwrap();
        let config = refined_config(&context, &monitor, &table, &ExploreConfig::default());
        let report = explore(&monitor, &table, &outcome.explicit, &workload, &config).unwrap();
        assert!(report.holds(), "{name}: {:?}", report.divergences);
        for (direction, stats, pinned) in [
            ("implicit", &report.implicit, implicit),
            ("explicit", &report.explicit, explicit),
        ] {
            assert_eq!(
                [stats.executions, stats.transitions, stats.sleep_prunes],
                pinned,
                "{name}, {direction} driver: [executions, transitions, sleep_prunes]"
            );
        }
    }
}
