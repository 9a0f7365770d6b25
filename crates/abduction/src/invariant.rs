//! Monitor-invariant inference (paper Algorithm 2).

use crate::abduce::{abduce_ids, AbductionConfig};
use crate::refute::ReachableStates;
use expresso_logic::{Formula, FormulaId};
use expresso_monitor_lang::{expr_to_formula, Monitor, VarTable};
use expresso_smt::Solver;
use expresso_vcgen::{HoareTriple, VcGen};
use std::collections::HashSet;
use std::sync::Arc;

/// The result of invariant inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantOutcome {
    /// The inferred monitor invariant (a conjunction of surviving candidates).
    pub invariant: Formula,
    /// Number of candidate predicates produced by abduction (after the cap).
    pub candidates: usize,
    /// Number of candidates a concretely reached state falsified, dropped
    /// before the solver was asked about them.
    pub refuted: usize,
    /// Whether abduction produced more candidates than the cap keeps.
    pub truncated: bool,
    /// Number of candidates that survived the fixpoint.
    pub kept: usize,
    /// Number of consecution rounds executed.
    pub rounds: usize,
}

/// The most candidates the fixpoint is given. The invariant is a best-effort
/// strengthening, and extra candidates only cost analysis time, never
/// correctness.
const MAX_CANDIDATES: usize = 32;

/// Infers a monitor invariant for `monitor`, generating the property-directed
/// triple set Θ from the signal-placement algorithm with `I = true`.
pub fn infer_monitor_invariant(
    monitor: &Monitor,
    table: &VarTable,
    solver: &Solver,
) -> InvariantOutcome {
    infer_monitor_invariant_configured(monitor, table, solver, &AbductionConfig::default())
}

/// [`infer_monitor_invariant`] with explicit abduction tunables (the pipeline
/// threads its parallelism flag through here).
pub fn infer_monitor_invariant_configured(
    monitor: &Monitor,
    table: &VarTable,
    solver: &Solver,
    config: &AbductionConfig,
) -> InvariantOutcome {
    let triples = placement_triples(monitor, table, solver);
    infer_with_triples_configured(monitor, table, solver, &triples, config)
}

/// Infers a monitor invariant using an explicit triple set Θ (Algorithm 2).
///
/// 1. *Abduce*: candidate strengthenings for every triple, with their
///    sub-formulas, up to the first 32.
/// 2. *Refute*: drop every candidate that a state reached by running the
///    monitor concretely falsifies (`refute.rs`). None of them can be in an
///    inductive invariant, so no proof is spent on them.
/// 3. *Initiation*, once per survivor: keep those that hold after the
///    constructor, with the `requires` clause assumed.
/// 4. *Consecution* rounds: keep those that every CCR preserves under the
///    conjunction of the survivors, until a round drops nothing.
///
/// What is left is the greatest inductive subset of the candidates — the
/// answer of the per-candidate fixpoint that re-checks everything each round.
pub fn infer_with_triples(
    monitor: &Monitor,
    table: &VarTable,
    solver: &Solver,
    triples: &[HoareTriple],
) -> InvariantOutcome {
    infer_with_triples_configured(monitor, table, solver, triples, &AbductionConfig::default())
}

/// [`infer_with_triples`] with explicit abduction tunables.
pub fn infer_with_triples_configured(
    monitor: &Monitor,
    table: &VarTable,
    solver: &Solver,
    triples: &[HoareTriple],
    config: &AbductionConfig,
) -> InvariantOutcome {
    let vcgen = match &config.wp_cache {
        Some(cache) => VcGen::with_wp_cache(monitor, table, solver, Arc::clone(cache)),
        None => VcGen::new(monitor, table, solver),
    };
    let interner = vcgen.interner().clone();
    let Candidates {
        ids: mut candidates,
        truncated,
    } = abduce_candidates(&vcgen, triples, config);
    let total_candidates = candidates.len();

    let states = ReachableStates::walk(monitor, table);
    candidates.retain(|&psi| !states.refutes(&interner, psi));
    let refuted = total_candidates - candidates.len();

    // Initiation: {requires} Ctr(M) {ψ}, one triple per candidate.
    let requires = interner.intern(&requires_formula(monitor, table));
    let constructor = monitor.constructor_body();
    candidates.retain(|&psi| {
        vcgen
            .check_triple_ids(requires, &constructor, psi)
            .is_valid()
    });

    // Consecution: {I ∧ Guard(w)} Body(w) {ψ} for every CCR, with I the
    // conjunction of the round's survivors, entirely over ids.
    let guards: Vec<(FormulaId, &expresso_monitor_lang::Ccr)> = monitor
        .all_ccrs()
        .map(|ccr| {
            let guard = expr_to_formula(&ccr.guard, table).unwrap_or(Formula::True);
            (interner.intern(&guard), ccr)
        })
        .collect();
    let mut rounds = 0usize;
    while !candidates.is_empty() {
        rounds += 1;
        let before = candidates.len();
        let invariant = interner.mk_and(candidates.clone());
        candidates.retain(|&psi| {
            guards.iter().all(|&(guard, ccr)| {
                let pre = interner.mk_and(vec![invariant, guard]);
                vcgen.check_triple_ids(pre, &ccr.body, psi).is_valid()
            })
        });
        if candidates.len() == before {
            break;
        }
    }

    let kept = candidates.len();
    let invariant = interner.simplify(interner.mk_and(candidates));
    InvariantOutcome {
        invariant: interner.formula(invariant),
        candidates: total_candidates,
        refuted,
        truncated,
        kept,
        rounds,
    }
}

/// The candidates Algorithm 2 starts from, in preference order.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidates {
    /// At most 32, deduplicated.
    pub ids: Vec<FormulaId>,
    /// Whether abduction offered more than the cap kept.
    pub truncated: bool,
}

/// Abduces the candidate invariants for `triples`: every strengthening of
/// every triple, with its sub-formulas, until the cap. The pre/goal pair,
/// the abduction search and the candidate expansion all stay on interned
/// ids, and deduplication is a set lookup instead of a tree comparison.
#[doc(hidden)]
pub fn abduce_candidates(
    vcgen: &VcGen,
    triples: &[HoareTriple],
    config: &AbductionConfig,
) -> Candidates {
    let interner = vcgen.interner();
    let mut ids: Vec<FormulaId> = Vec::new();
    let mut seen: HashSet<FormulaId> = HashSet::new();
    for triple in triples {
        let post = interner.intern(&triple.post);
        let goal = match vcgen.wp_id(&triple.stmt, post) {
            Ok(g) => g,
            Err(_) => continue,
        };
        let pre = interner.intern(&triple.pre);
        for psi in abduce_ids(vcgen.solver(), pre, goal, config) {
            for candidate in expand_candidates_ids(interner, psi) {
                if seen.insert(candidate) {
                    ids.push(candidate);
                }
            }
        }
        if ids.len() > MAX_CANDIDATES {
            ids.truncate(MAX_CANDIDATES);
            return Candidates {
                ids,
                truncated: true,
            };
        }
    }
    Candidates {
        ids,
        truncated: false,
    }
}

/// Builds the triple set Θ: the Hoare triples Algorithm 1 would try to prove
/// with `I = true` — the "no signal needed" triples and the "no broadcast
/// needed" triples, with thread-local variables renamed per §4.2.
pub fn placement_triples(monitor: &Monitor, table: &VarTable, solver: &Solver) -> Vec<HoareTriple> {
    let vcgen = VcGen::new(monitor, table, solver);
    let mut triples = Vec::new();
    let guards = monitor.guards();
    for ccr in monitor.all_ccrs() {
        let guard = match expr_to_formula(&ccr.guard, table) {
            Ok(g) => g,
            Err(_) => Formula::True,
        };
        for p in &guards {
            let Ok(p_formula) = expr_to_formula(p, table) else {
                continue;
            };
            let avoid: HashSet<String> = guard.free_vars();
            let p_renamed = vcgen.rename_locals(&p_formula, &avoid);
            // No-signal triple: {Guard(w) && !p} Body(w) {!p}.
            triples.push(HoareTriple {
                pre: Formula::and(vec![guard.clone(), Formula::not(p_renamed.clone())]),
                stmt: ccr.body.clone(),
                post: Formula::not(p_renamed.clone()),
                description: format!("no-signal({}, {})", monitor.ccr_label(ccr.id), p),
            });
        }
        // No-broadcast triple for the CCR's own guard: {p} Body(w) {!p}.
        if !ccr.never_blocks() {
            if let Ok(own_guard) = expr_to_formula(&ccr.guard, table) {
                triples.push(HoareTriple {
                    pre: own_guard.clone(),
                    stmt: ccr.body.clone(),
                    post: Formula::not(own_guard),
                    description: format!("no-broadcast({})", monitor.ccr_label(ccr.id)),
                });
            }
        }
    }
    triples
}

/// Expands an abduced candidate into itself plus its sub-formulas (conjuncts,
/// disjuncts and atoms in negation normal form), entirely over interned ids.
///
/// Abduction returns the *weakest* strengthening over the chosen variables,
/// which is frequently not inductive (e.g. `readers != -1` for the
/// readers-writers monitor). Its strengthenings — individual disjuncts such as
/// `readers > -1` — often are, and the Algorithm 2 fixpoint safely discards
/// whichever candidates are not invariants, so offering more candidates never
/// hurts soundness.
fn expand_candidates_ids(interner: &expresso_logic::Interner, psi: FormulaId) -> Vec<FormulaId> {
    let nnf = interner.nnf(psi);
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    collect_subformulas_ids(interner, nnf, &mut out, &mut seen);
    out
}

fn collect_subformulas_ids(
    interner: &expresso_logic::Interner,
    f: FormulaId,
    out: &mut Vec<FormulaId>,
    seen: &mut HashSet<FormulaId>,
) {
    let simplified = interner.simplify(f);
    if !interner.is_true(simplified) && !interner.is_false(simplified) && seen.insert(simplified) {
        out.push(simplified);
    }
    match interner.node(f) {
        expresso_logic::FormulaNode::And(parts) | expresso_logic::FormulaNode::Or(parts) => {
            for p in parts {
                collect_subformulas_ids(interner, p, out, seen);
            }
        }
        _ => {}
    }
}

fn requires_formula(monitor: &Monitor, table: &VarTable) -> Formula {
    monitor
        .requires
        .as_ref()
        .and_then(|r| expr_to_formula(r, table).ok())
        .unwrap_or(Formula::True)
}

#[cfg(test)]
mod tests {
    use super::*;
    use expresso_logic::Term;
    use expresso_monitor_lang::{check_monitor, parse_monitor, Stmt};
    use expresso_vcgen::TripleStatus;

    fn triple(vcgen: &VcGen, pre: &Formula, stmt: &Stmt, post: &Formula) -> TripleStatus {
        let interner = vcgen.interner();
        vcgen.check_triple_ids(interner.intern(pre), stmt, interner.intern(post))
    }

    fn infer(src: &str) -> (Formula, Solver) {
        let monitor = parse_monitor(src).unwrap();
        let table = check_monitor(&monitor).unwrap();
        let solver = Solver::new();
        let outcome = infer_monitor_invariant(&monitor, &table, &solver);
        (outcome.invariant, solver)
    }

    #[test]
    fn readers_writers_invariant_implies_nonnegative_readers() {
        let (inv, solver) = infer(
            r#"
            monitor RWLock {
                int readers = 0;
                bool writerIn = false;
                atomic void enterReader() { waituntil (!writerIn) { readers++; } }
                atomic void exitReader() { if (readers > 0) readers--; }
                atomic void enterWriter() { waituntil (readers == 0 && !writerIn) { writerIn = true; } }
                atomic void exitWriter() { writerIn = false; }
            }
            "#,
        );
        let interner = solver.interner();
        let not_minus_one = Formula::not(Term::var("readers").eq(Term::int(-1)));
        assert!(
            solver
                .check_implies_ids(interner.intern(&inv), interner.intern(&not_minus_one))
                .is_valid(),
            "invariant {inv} should rule out readers == -1"
        );
    }

    #[test]
    fn inferred_invariant_is_actually_inductive() {
        let src = r#"
            monitor Counter {
                int count = 0;
                atomic void inc() { count++; }
                atomic void dec() { waituntil (count > 0) { count--; } }
            }
        "#;
        let monitor = parse_monitor(src).unwrap();
        let table = check_monitor(&monitor).unwrap();
        let solver = Solver::new();
        let outcome = infer_monitor_invariant(&monitor, &table, &solver);
        let vcgen = VcGen::new(&monitor, &table, &solver);
        // Initiation.
        assert!(triple(
            &vcgen,
            &Formula::True,
            &monitor.constructor_body(),
            &outcome.invariant
        )
        .is_valid());
        // Consecution for every CCR.
        for ccr in monitor.all_ccrs() {
            let guard = expr_to_formula(&ccr.guard, &table).unwrap();
            let pre = Formula::and(vec![outcome.invariant.clone(), guard]);
            assert!(
                triple(&vcgen, &pre, &ccr.body, &outcome.invariant).is_valid(),
                "invariant {} not preserved by {}",
                outcome.invariant,
                monitor.ccr_label(ccr.id)
            );
        }
    }

    #[test]
    fn bounded_buffer_invariant_is_inductive_and_consistent() {
        let src = r#"
            monitor BoundedBuffer(int capacity) requires capacity > 0 {
                int count = 0;
                atomic void put() { waituntil (count < capacity) { count++; } }
                atomic void take() { waituntil (count > 0) { count--; } }
            }
        "#;
        let monitor = parse_monitor(src).unwrap();
        let table = check_monitor(&monitor).unwrap();
        let solver = Solver::new();
        let outcome = infer_monitor_invariant(&monitor, &table, &solver);
        assert!(!outcome.invariant.is_false());
        let vcgen = VcGen::new(&monitor, &table, &solver);
        let requires = expr_to_formula(monitor.requires.as_ref().unwrap(), &table).unwrap();
        assert!(triple(
            &vcgen,
            &requires,
            &monitor.constructor_body(),
            &outcome.invariant
        )
        .is_valid());
        for ccr in monitor.all_ccrs() {
            let guard = expr_to_formula(&ccr.guard, &table).unwrap();
            let pre = Formula::and(vec![outcome.invariant.clone(), guard]);
            assert!(triple(&vcgen, &pre, &ccr.body, &outcome.invariant).is_valid());
        }
    }

    #[test]
    fn triple_set_includes_no_signal_and_no_broadcast_goals() {
        let monitor = parse_monitor(
            r#"
            monitor M {
                int x = 0;
                atomic void inc() { x++; }
                atomic void wait() { waituntil (x > 0) { x--; } }
            }
            "#,
        )
        .unwrap();
        let table = check_monitor(&monitor).unwrap();
        let solver = Solver::new();
        let triples = placement_triples(&monitor, &table, &solver);
        assert!(triples
            .iter()
            .any(|t| t.description.starts_with("no-signal")));
        assert!(triples
            .iter()
            .any(|t| t.description.starts_with("no-broadcast")));
    }

    #[test]
    fn invariant_without_useful_candidates_is_true() {
        // A monitor whose triples are all already provable (or hopeless)
        // yields the trivial invariant.
        let (inv, _) = infer(
            r#"
            monitor Flag {
                bool up = false;
                atomic void raise() { up = true; }
                atomic void await_up() { waituntil (up) { skip; } }
            }
            "#,
        );
        assert!(inv.is_true() || !inv.is_false());
    }
}
