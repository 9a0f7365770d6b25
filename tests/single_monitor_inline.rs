//! One monitor is one task: `Expresso::analyze` and `analyze_with_context`
//! run a monitor's abduction waves and pair obligations on the calling
//! thread and hand the context's scheduler nothing; `analyze_suite` — a
//! one-element suite included — goes through it, and decides the same.
//!
//! This is the only test of its binary, on purpose: the default
//! configuration shares the process-wide scheduler, and "its counters did
//! not move" can only be asserted in a process where nobody else uses it.

use expresso_repro::core::{Expresso, Scheduler, SharedAnalysisContext};
use expresso_repro::suite::all;

#[test]
fn a_single_monitor_leaves_the_global_pool_alone_and_matches_its_one_element_suite() {
    let pipeline = Expresso::new();
    let pool = Scheduler::global();
    for benchmark in all() {
        let monitor = benchmark.monitor();
        let name = benchmark.name;

        let before = pool.stats();
        let alone = pipeline.analyze(&monitor).expect("suite monitors analyse");
        let shared = SharedAnalysisContext::new(pipeline.config());
        let in_context = pipeline
            .analyze_with_context(&shared, &monitor)
            .expect("suite monitors analyse");
        assert_eq!(
            pool.stats(),
            before,
            "{name}: a single-monitor entry point moved the global pool's counters"
        );

        let context = SharedAnalysisContext::new(pipeline.config());
        let mut suite = pipeline.analyze_suite(&context, std::slice::from_ref(&monitor));
        let suite = suite.pop().unwrap().expect("suite monitors analyse");
        let fanned_out = pool.stats().delta_since(&before);
        assert!(
            fanned_out.tasks_executed > fanned_out.abduction_tasks,
            "{name}: a one-element suite must still go through the scheduler: {fanned_out:?}"
        );

        for (route, outcome) in [("analyze_with_context", &in_context), ("suite", &suite)] {
            assert_eq!(alone.explicit, outcome.explicit, "{name}: {route}");
            assert_eq!(alone.invariant, outcome.invariant, "{name}: {route}");
            assert_eq!(
                alone.report.decisions, outcome.report.decisions,
                "{name}: {route}"
            );
            assert_eq!(
                (
                    alone.report.triples_checked,
                    alone.report.pairs_considered,
                    alone.report.skipped,
                    alone.stats.invariant_candidates,
                    alone.stats.invariant_conjuncts,
                ),
                (
                    outcome.report.triples_checked,
                    outcome.report.pairs_considered,
                    outcome.report.skipped,
                    outcome.stats.invariant_candidates,
                    outcome.stats.invariant_conjuncts,
                ),
                "{name}: {route}: counters"
            );
        }
    }
}
