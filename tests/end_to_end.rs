//! Workspace-level integration tests: the full pipeline on the benchmark
//! suite, cross-checked against the trace semantics and the concurrent
//! runtime.

use expresso_repro::abduction::infer_monitor_invariant;
use expresso_repro::core::{place_signals_with, to_java, Expresso, PlacementConfig};
use expresso_repro::logic::Valuation;
use expresso_repro::monitor_lang::{check_monitor, initial_state, NotificationKind};
use expresso_repro::runtime::{run_saturation, AutoSynchRuntime, ExplicitRuntime, MonitorRuntime};
use expresso_repro::semantics::{check_equivalence, EquivalenceConfig, ThreadSpec};
use expresso_repro::smt::Solver;
use expresso_repro::suite::{all, autosynch_benchmarks};

#[test]
fn every_benchmark_analyzes_and_generates_code() {
    for benchmark in all() {
        let monitor = benchmark.monitor();
        let outcome = Expresso::new()
            .analyze(&monitor)
            .unwrap_or_else(|e| panic!("{} failed: {e}", benchmark.name));
        let java = to_java(&outcome.explicit);
        assert!(
            java.contains("ReentrantLock"),
            "{}: generated code should use a lock",
            benchmark.name
        );
        // Every benchmark has at least one blocking guard, so at least one
        // notification must exist somewhere, otherwise waiters could starve.
        assert!(
            outcome.explicit.notification_count() > 0,
            "{}: no notifications at all",
            benchmark.name
        );
    }
}

#[test]
fn placement_asks_at_most_one_query_per_triple() {
    // Algorithm 1 asks its triples one at a time, each `pre ⇒ wp(body, post)`
    // one validity query (none when the wp leaves the fragment), so a
    // placement never asks the solver more than it counts. Commutativity is
    // off: its `Comm(w, M)` precomputation asks equivalences, not triples.
    for benchmark in all() {
        let monitor = benchmark.monitor();
        let table = check_monitor(&monitor).expect("suite monitors check");
        let solver = Solver::new();
        let invariant = infer_monitor_invariant(&monitor, &table, &solver).invariant;
        let before = solver.stats();
        let config = PlacementConfig {
            use_commutativity: false,
            ..PlacementConfig::default()
        };
        let (_, report) = place_signals_with(&monitor, &table, &solver, &invariant, &config);
        let queries = solver.stats().delta_since(&before).validity_queries;
        assert!(
            queries <= report.triples_checked,
            "{}: {queries} validity queries for {} triples",
            benchmark.name,
            report.triples_checked
        );
    }
}

#[test]
fn readers_writers_runtime_agrees_across_engines() {
    let benchmark = autosynch_benchmarks()
        .into_iter()
        .find(|b| b.name == "ReadersWriters")
        .unwrap();
    let monitor = benchmark.monitor();
    let outcome = Expresso::new().analyze(&monitor).unwrap();
    let plans = (benchmark.plans)(6, 100);
    let ctor = (benchmark.ctor_args)(6);

    let expresso_rt = ExplicitRuntime::new(outcome.explicit.clone(), &ctor).unwrap();
    let expresso = run_saturation(&expresso_rt, &plans);
    let autosynch_rt = AutoSynchRuntime::new(monitor.clone(), &ctor).unwrap();
    let autosynch = run_saturation(&autosynch_rt, &plans);

    assert_eq!(expresso.operations, autosynch.operations);
    // Both engines drain to the idle state: no readers, no writer.
    assert_eq!(expresso_rt.snapshot().int("readers"), Some(0));
    assert_eq!(expresso_rt.snapshot().boolean("writerIn"), Some(false));
    assert_eq!(autosynch_rt.snapshot().int("readers"), Some(0));
    assert_eq!(autosynch_rt.snapshot().boolean("writerIn"), Some(false));
}

#[test]
fn synthesized_monitors_are_trace_equivalent_on_samples() {
    // Definition 3.4 sampling for a representative subset (running it for all
    // 14 benchmarks is covered by the per-crate tests and the examples).
    for name in ["ReadersWriters", "ConcurrencyThrottle", "PendingPostQueue"] {
        let benchmark = all().into_iter().find(|b| b.name == name).unwrap();
        let monitor = benchmark.monitor();
        let table = check_monitor(&monitor).unwrap();
        let outcome = Expresso::new().analyze(&monitor).unwrap();
        let ctor = (benchmark.ctor_args)(4);
        let initial = initial_state(&monitor, &table, &ctor).unwrap();
        let plans = (benchmark.plans)(4, 1);
        let threads: Vec<ThreadSpec> = plans
            .iter()
            .filter_map(|plan| plan.first())
            .map(|op| ThreadSpec::with_locals(op.method.clone(), op.locals.clone()))
            .collect();
        let report = check_equivalence(
            &monitor,
            &outcome.explicit,
            &table,
            &initial,
            &threads,
            &EquivalenceConfig {
                samples: 8,
                max_events: 30,
                seed: 11,
            },
        )
        .unwrap();
        assert!(
            report.holds(),
            "{name}: equivalence violations {:?}",
            report.violations
        );
    }
}

#[test]
fn expresso_places_strictly_fewer_broadcasts_than_the_naive_baseline() {
    let mut strictly_fewer = 0usize;
    for benchmark in autosynch_benchmarks() {
        let monitor = benchmark.monitor();
        let outcome = Expresso::new().analyze(&monitor).unwrap();
        let naive = expresso_repro::monitor_lang::ExplicitMonitor::broadcast_all(monitor);
        assert!(
            outcome.explicit.broadcast_count() <= naive.broadcast_count(),
            "{}: the analysis must never add broadcasts over the naive baseline",
            benchmark.name
        );
        if outcome.explicit.broadcast_count() < naive.broadcast_count() {
            strictly_fewer += 1;
        }
    }
    // The benchmarks whose guards only read shared scalars must all improve;
    // only the thread-local/array-guard benchmarks (Round Robin, Dining
    // Philosophers, ...) may tie with the naive placement.
    assert!(
        strictly_fewer >= 5,
        "only {strictly_fewer} benchmarks improved"
    );
}

#[test]
fn a_guard_past_the_solvers_budget_still_gets_a_placement() {
    // No integer x has 6e18*x in [1, 5], but Cooper's procedure would need
    // 6e18 instances to say so: the theory check answers `Unknown`, and
    // placement must read that as "not proven" and notify.
    let source = r#"
        monitor Huge {
            int x = 0;
            atomic void await() {
                waituntil (6000000000000000000 * x >= 1 && 6000000000000000000 * x <= 5) { x = 0; }
            }
            atomic void bump() { x++; }
        }
    "#;
    let monitor = expresso_repro::monitor_lang::parse_monitor(source).unwrap();
    let outcome = Expresso::new().analyze(&monitor).unwrap();
    let bump = monitor.method("bump").unwrap().ccrs[0];
    assert_eq!(outcome.explicit.notifications_for(bump).len(), 1);
}

#[test]
fn counting_semaphore_end_to_end() {
    // A small end-to-end scenario written directly against the public API.
    let source = r#"
        monitor Semaphore(int permits) requires permits > 0 {
            int available = permits;
            atomic void acquire() { waituntil (available > 0) { available--; } }
            atomic void release() { available++; }
        }
    "#;
    let monitor = expresso_repro::monitor_lang::parse_monitor(source).unwrap();
    let outcome = Expresso::new().analyze(&monitor).unwrap();
    // release must signal (not broadcast) acquirers.
    let release = monitor.method("release").unwrap().ccrs[0];
    let notes = outcome.explicit.notifications_for(release);
    assert_eq!(notes.len(), 1);
    assert_eq!(notes[0].kind, NotificationKind::Signal);

    let mut ctor = Valuation::new();
    ctor.set_int("permits", 2);
    let rt = ExplicitRuntime::new(outcome.explicit, &ctor).unwrap();
    let plan: Vec<expresso_repro::runtime::Operation> = (0..200)
        .flat_map(|_| {
            [
                expresso_repro::runtime::Operation::new("acquire"),
                expresso_repro::runtime::Operation::new("release"),
            ]
        })
        .collect();
    let result = run_saturation(&rt, &[plan.clone(), plan.clone(), plan]);
    assert_eq!(result.operations, 1200);
    assert_eq!(rt.snapshot().int("available"), Some(2));
}
