//! Algorithm 2 drops the invariant candidates that a concretely reached
//! state falsifies before it proves anything (`abduction/src/refute.rs`).
//! That may only save work, never change an answer:
//!
//! * the per-candidate fixpoint that re-checks initiation and consecution
//!   for every candidate in every round, written out here on the public
//!   `VcGen::check_triple_ids`, finds the same invariant and keeps the same
//!   number of conjuncts as the production pipeline, on the 16 Table 1
//!   monitors and a fixed 48-monitor sample of the 500-monitor corpus;
//! * every state the walker reaches satisfies that invariant, which it must
//!   if the walker only reaches states the monitor can reach (a walker that
//!   fired a CCR whose guard is false would break this).

use expresso_repro::abduction::{
    abduce_candidates, infer_monitor_invariant, invariant::placement_triples, AbductionConfig,
    ReachableStates,
};
use expresso_repro::logic::{Formula, FormulaId};
use expresso_repro::monitor_lang::{check_monitor, expr_to_formula, Monitor, VarTable};
use expresso_repro::smt::Solver;
use expresso_repro::suite::{all, generate, CorpusSpec};
use expresso_repro::vcgen::VcGen;

fn monitors() -> Vec<Monitor> {
    let corpus = generate(&CorpusSpec { size: 500, seed: 1 });
    all()
        .iter()
        .map(|b| b.monitor())
        .chain(corpus.iter().step_by(10).take(48).map(|c| c.monitor()))
        .collect()
}

/// The fixpoint without refutation: each round keeps the candidates that the
/// constructor establishes and that every CCR preserves under the
/// conjunction of the round's candidates, until a round drops nothing.
/// Returns the kept candidates and the invariant they simplify to.
fn reference_fixpoint(
    monitor: &Monitor,
    table: &VarTable,
    solver: &Solver,
) -> (Vec<FormulaId>, Formula) {
    let interner = solver.interner();
    let vcgen = VcGen::new(monitor, table, solver);
    let triples = placement_triples(monitor, table, solver);
    let mut candidates = abduce_candidates(&vcgen, &triples, &AbductionConfig::default()).ids;
    let requires = monitor
        .requires
        .as_ref()
        .and_then(|r| expr_to_formula(r, table).ok())
        .unwrap_or(Formula::True);
    let requires = interner.intern(&requires);
    let constructor = monitor.constructor_body();
    let guards: Vec<_> = monitor
        .all_ccrs()
        .map(|ccr| {
            let guard = expr_to_formula(&ccr.guard, table).unwrap_or(Formula::True);
            (interner.intern(&guard), ccr)
        })
        .collect();
    loop {
        let before = candidates.len();
        candidates.retain(|&psi| {
            vcgen
                .check_triple_ids(requires, &constructor, psi)
                .is_valid()
        });
        let invariant = interner.mk_and(candidates.clone());
        candidates.retain(|&psi| {
            guards.iter().all(|&(guard, ccr)| {
                let pre = interner.mk_and(vec![invariant, guard]);
                vcgen.check_triple_ids(pre, &ccr.body, psi).is_valid()
            })
        });
        if candidates.len() == before || candidates.is_empty() {
            break;
        }
    }
    let invariant = interner.simplify(interner.mk_and(candidates.clone()));
    (candidates, interner.formula(invariant))
}

#[test]
fn refutation_leaves_every_invariant_equal() {
    let (mut refuted, mut candidates) = (0, 0);
    for monitor in monitors() {
        let table = check_monitor(&monitor).expect("suite and corpus monitors check");
        let outcome = infer_monitor_invariant(&monitor, &table, &Solver::new());
        let (kept, invariant) = reference_fixpoint(&monitor, &table, &Solver::new());
        assert_eq!(outcome.invariant, invariant, "{}", monitor.name);
        assert_eq!(outcome.kept, kept.len(), "{}", monitor.name);
        assert!(outcome.refuted + outcome.kept <= outcome.candidates);
        refuted += outcome.refuted;
        candidates += outcome.candidates;
    }
    // The walks must be doing the work this is about.
    assert!(
        2 * refuted > candidates,
        "{refuted} of {candidates} refuted"
    );
}

#[test]
fn every_walked_state_satisfies_the_invariant() {
    let mut decided = 0;
    for monitor in monitors() {
        let table = check_monitor(&monitor).expect("suite and corpus monitors check");
        let solver = Solver::new();
        let (kept, _) = reference_fixpoint(&monitor, &table, &solver);
        let interner = solver.interner();
        let states = ReachableStates::walk(&monitor, &table);
        let states = states.valuations();
        assert!(!states.is_empty(), "{}: no state reached", monitor.name);
        for state in states {
            for &conjunct in &kept {
                // A conjunct over a method parameter or an unassigned name
                // is unknown (`None`) on a state of the shared variables.
                match interner.eval(conjunct, &state) {
                    Some(true) => decided += 1,
                    Some(false) => panic!(
                        "{}: reached {state:?}, which falsifies the invariant's {}",
                        monitor.name,
                        interner.formula(conjunct)
                    ),
                    None => {}
                }
            }
        }
    }
    assert!(
        decided > 1000,
        "only {decided} conjunct evaluations decided"
    );
}
