//! A solver that cannot decide degrades a placement conservatively, never
//! unsoundly. With `max_theory_rounds = 0` every query that reaches DPLL(T)
//! answers `Unknown(ResourceLimit)`; a query whose propositional encoding
//! folds to a constant is still answered. Invariant inference and
//! Algorithm 1 must then signal or broadcast *more* than with a working
//! solver, never less, and the monitor they produce must still be
//! equivalent to the implicit one (Def. 3.4).

use expresso_repro::abduction::{infer_monitor_invariant_configured, AbductionConfig};
use expresso_repro::core::{place_signals_with, PlacementConfig, SignalDecision};
use expresso_repro::explore::{benchmark_workload, explore, ExploreConfig, RefinedIndependence};
use expresso_repro::monitor_lang::{
    check_monitor, ExplicitMonitor, Monitor, NotificationKind, SignalCondition,
};
use expresso_repro::smt::{Solver, SolverConfig};
use expresso_repro::suite::{all, Benchmark};
use expresso_repro::vcgen::{refine_independence, DisjointnessStore};
use std::sync::Arc;

/// Invariant inference and placement of `monitor` against `solver`.
fn place(monitor: &Monitor, solver: &Solver) -> (ExplicitMonitor, Vec<SignalDecision>) {
    let table = check_monitor(monitor).expect("suite monitors check");
    let inferred =
        infer_monitor_invariant_configured(monitor, &table, solver, &AbductionConfig::default());
    let (explicit, report) = place_signals_with(
        monitor,
        &table,
        solver,
        &inferred.invariant,
        &PlacementConfig::default(),
    );
    (explicit, report.decisions)
}

/// A solver that answers `Unknown` for every query DPLL(T) has to decide.
fn undecided() -> Solver {
    Solver::with_config(SolverConfig {
        max_theory_rounds: 0,
        ..SolverConfig::default()
    })
}

/// Why `degraded` notifies less than `proven` for the same (CCR, guard)
/// pair, if it does: no notification is weaker than one, and a signal is
/// weaker than a broadcast. A conditional notification is the runtime-checked
/// form of a proven unconditional one, so the condition is not compared.
fn weaker(proven: &SignalDecision, degraded: &SignalDecision) -> Option<&'static str> {
    assert_eq!(
        (proven.ccr, &proven.predicate),
        (degraded.ccr, &degraded.predicate),
        "decisions of different pairs"
    );
    if !proven.needed {
        None
    } else if !degraded.needed {
        Some("drops a needed notification")
    } else if proven.kind == NotificationKind::Broadcast
        && degraded.kind == NotificationKind::Signal
    {
        Some("signals where a broadcast was needed")
    } else {
        None
    }
}

/// Every pair of `degraded` at least as strong as its counterpart in
/// `proven`; the error names the first that is not.
fn at_least_as_strong(
    benchmark: &Benchmark,
    proven: &[SignalDecision],
    degraded: &[SignalDecision],
) -> Result<(), String> {
    assert_eq!(proven.len(), degraded.len(), "{}", benchmark.name);
    for (p, d) in proven.iter().zip(degraded) {
        if let Some(why) = weaker(p, d) {
            return Err(format!(
                "{}: CCR {:?} on `{}` {why}",
                benchmark.name, d.ccr, d.predicate
            ));
        }
    }
    Ok(())
}

#[test]
fn an_unknown_verdict_degrades_every_decision_conservatively() {
    let (mut sabotaged, mut fallbacks) = (0, 0);
    for benchmark in all() {
        let monitor = benchmark.monitor();
        let (_, proven) = place(&monitor, &Solver::new());
        let solver = undecided();
        let (explicit, degraded) = place(&monitor, &solver);
        assert_eq!(solver.stats().sat_solver_calls, 0, "{}", benchmark.name);

        // A pair the solver could not reason about gets the fallback `decide`
        // builds for it: a conditional broadcast. Any other decision rests on
        // queries that folded to a constant, which the working solver
        // answers alike: it is the proven decision, or the proven one needs
        // no notification at all.
        for (p, d) in proven.iter().zip(&degraded) {
            let fallback = d.needed
                && d.kind == NotificationKind::Broadcast
                && d.condition == SignalCondition::Conditional;
            let same = (d.needed, d.condition, d.kind) == (p.needed, p.condition, p.kind);
            fallbacks += usize::from(fallback && !same);
            assert!(
                fallback || same || !p.needed,
                "{}: CCR {:?} on `{}` is neither the fallback nor the proven decision: \
                 {d:?} against {p:?}",
                benchmark.name,
                d.ccr,
                d.predicate
            );
        }
        at_least_as_strong(&benchmark, &proven, &degraded).unwrap();

        // The check can fail: drop one notification the proven placement
        // needs, and it names that pair.
        if let Some(at) = proven.iter().position(|p| p.needed) {
            let mut dropped = degraded.clone();
            dropped[at].needed = false;
            let refused = at_least_as_strong(&benchmark, &proven, &dropped)
                .expect_err("a dropped notification passed the lattice check");
            assert!(refused.contains("drops a needed notification"), "{refused}");
            sabotaged += 1;
        }

        // And what the degraded placement ships is still equivalent to the
        // implicit monitor on every schedule at 3 threads x 2 operations.
        // The explorer's independence relation is refined with a working
        // solver: it is a property of the implicit monitor, not of the
        // placement, and it only prunes schedules that commute.
        let table = check_monitor(&monitor).unwrap();
        let workload = benchmark_workload(&benchmark, &monitor, &table, 3, 2).unwrap();
        let independence =
            refine_independence(&monitor, &table, &Solver::new(), &DisjointnessStore::new());
        let config = ExploreConfig {
            independence: Some(Arc::new(RefinedIndependence {
                table: independence,
                queries: 0,
                cache_hits: 0,
            })),
            ..ExploreConfig::default()
        };
        let report = explore(&monitor, &table, &explicit, &workload, &config).unwrap();
        assert!(
            report.divergences.is_empty(),
            "{}: the degraded placement diverges: {}",
            benchmark.name,
            report.divergences[0].reason
        );
        assert!(report.executions() > 0, "{}", benchmark.name);
    }
    assert!(sabotaged > 0, "no suite monitor needs a notification");
    assert!(fallbacks > 0, "the undecided solver changed no decision");
}
