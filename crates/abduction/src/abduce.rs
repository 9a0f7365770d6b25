//! Abductive inference over Presburger formulas.
//!
//! Given a precondition `P` and a goal `C`, abduction looks for a formula `ψ`
//! such that `P ∧ ψ ⊨ C` and `P ∧ ψ` is satisfiable (Equation 3 of the
//! paper). Following Dillig & Dillig's approach, candidates are obtained by
//! universally quantifying the implication `P ⇒ C` over all but a small set
//! of "kept" variables and eliminating the quantifiers; iterating over kept
//! variable sets of increasing size yields the simplest explanations first.

use expresso_logic::{Formula, FormulaId, Ident, Interner, Subst};
use expresso_smt::Solver;
use expresso_vcgen::WpCache;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A marker with no methods, left so that existing callers that name it
/// still compile: abduction runs on the calling thread. Leaves with ROADMAP
/// item 6(b2).
#[doc(hidden)]
pub trait Executor: std::fmt::Debug + Send + Sync {}

/// Maximum number of variables a candidate may mention.
const MAX_KEPT_VARS: usize = 2;

/// Maximum number of candidate subsets explored.
const MAX_SUBSETS: usize = 48;

/// Tunables for [`abduce_ids`].
#[derive(Debug, Clone)]
pub struct AbductionConfig {
    /// Maximum number of candidates returned.
    pub max_results: usize,
    /// Ignored: subsets are evaluated in order on the calling thread. Kept
    /// only so existing callers compile; leaves with ROADMAP item 6(b2).
    #[doc(hidden)]
    pub executor: Option<Arc<dyn Executor>>,
    /// The WP memo session invariant inference builds its VCs through.
    /// `None` (the default) gives the inference run a fresh private cache;
    /// the pipeline passes the per-analysis session it also hands to
    /// placement, so the fixpoint's consecution rounds and Algorithm 1's
    /// later obligations share wp results (and, through a suite-wide store,
    /// other monitors' structurally identical bodies). The session's store
    /// must belong to the same formula arena as the solver.
    pub wp_cache: Option<Arc<WpCache>>,
}

impl Default for AbductionConfig {
    fn default() -> Self {
        AbductionConfig {
            max_results: 4,
            executor: None,
            wp_cache: None,
        }
    }
}

/// Computes abductive explanations `ψ` with `pre ∧ ψ ⊨ goal` and `pre ∧ ψ`
/// satisfiable, entirely over interned formulas: the implication, every Shannon expansion, quantifier elimination (Cooper) and
/// the consistency/sufficiency checks all stay on [`FormulaId`]s against the
/// solver's arena — the fixpoint hot path never reconstructs a `Box` tree.
///
/// Returns candidate ids ordered from most to least preferred (fewer free
/// variables first, then smaller formulas, both read from the arena's
/// memoized per-node tables). The trivially true candidate is never returned;
/// if `pre ⇒ goal` is already valid the result is empty because no
/// strengthening is needed.
pub fn abduce_ids(
    solver: &Solver,
    pre: FormulaId,
    goal: FormulaId,
    config: &AbductionConfig,
) -> Vec<FormulaId> {
    let interner = solver.interner().clone();
    let implication = interner.mk_implies(pre, goal);
    if solver.check_valid_id(implication).is_valid() {
        return Vec::new();
    }
    let mut int_vars: Vec<Ident> = interner.int_vars(implication).into_iter().collect();
    let mut bool_vars: Vec<Ident> = interner.bool_vars(implication).into_iter().collect();
    int_vars.sort();
    bool_vars.sort();
    let all_vars: Vec<Ident> = int_vars.iter().chain(bool_vars.iter()).cloned().collect();

    // Enumerate the kept-variable subsets in preference order (fewer
    // variables first) up to the exploration budget.
    let mut kept_sets: Vec<BTreeSet<Ident>> = Vec::new();
    for size in 1..=MAX_KEPT_VARS.min(all_vars.len()) {
        kept_sets.extend(subsets_of_size(&all_vars, size));
        if kept_sets.len() >= MAX_SUBSETS {
            break;
        }
    }
    kept_sets.truncate(MAX_SUBSETS);

    // Scan the subsets in preference order, stopping as soon as the result
    // budget is met. For each, quantifier elimination (Cooper's procedure,
    // the expensive part) produces the candidate, then the consistency and
    // sufficiency checks accept or reject it.
    let mut results: Vec<FormulaId> = Vec::new();
    for kept in &kept_sets {
        if results.len() >= config.max_results {
            break;
        }
        let eliminate: Vec<Ident> = all_vars
            .iter()
            .filter(|v| !kept.contains(*v))
            .cloned()
            .collect();
        let Some(candidate) =
            universally_eliminate_ids(solver, &interner, implication, &eliminate, &bool_vars)
        else {
            continue;
        };
        let candidate = interner.simplify(candidate);
        let trivial = interner.is_true(candidate) || interner.is_false(candidate);
        if trivial || results.contains(&candidate) {
            continue;
        }
        let strengthened = interner.mk_and(vec![pre, candidate]);
        // ψ must be consistent with the precondition and actually make the
        // triple go through.
        if solver.check_sat_id(strengthened).is_sat()
            && solver.check_implies_ids(strengthened, goal).is_valid()
        {
            results.push(candidate);
        }
    }
    finalize(&interner, results)
}

fn finalize(interner: &Interner, mut results: Vec<FormulaId>) -> Vec<FormulaId> {
    results.sort_by_key(|&f| (interner.free_vars(f).len(), interner.size(f)));
    results
}

/// Computes `∀ eliminate. formula` over interned ids, eliminating boolean
/// variables by Shannon expansion (DAG-aware arena substitution) and integer
/// variables by Cooper's procedure through the solver's memoized id-based
/// quantifier elimination. Returns `None` when the formula leaves the
/// decidable fragment.
fn universally_eliminate_ids(
    solver: &Solver,
    interner: &Interner,
    formula: FormulaId,
    eliminate: &[Ident],
    bool_vars: &[Ident],
) -> Option<FormulaId> {
    let mut current = formula;
    // Shannon-expand the boolean variables to be eliminated.
    for b in eliminate.iter().filter(|v| bool_vars.contains(v)) {
        let mut true_case = Subst::new();
        true_case.boolean(b.clone(), Formula::True);
        let mut false_case = Subst::new();
        false_case.boolean(b.clone(), Formula::False);
        let true_branch = interner.apply_subst(&true_case, current);
        let false_branch = interner.apply_subst(&false_case, current);
        current = interner.mk_and(vec![true_branch, false_branch]);
    }
    let int_binders: Vec<Ident> = eliminate
        .iter()
        .filter(|v| !bool_vars.contains(v))
        .cloned()
        .collect();
    let quantified = interner.mk_forall(int_binders, current);
    solver.eliminate_quantifiers_id(quantified).ok()
}

/// Enumerates all subsets of `items` with exactly `size` elements.
fn subsets_of_size(items: &[Ident], size: usize) -> Vec<BTreeSet<Ident>> {
    let mut out = Vec::new();
    let mut indices: Vec<usize> = (0..size).collect();
    if size == 0 || size > items.len() {
        return out;
    }
    loop {
        out.push(indices.iter().map(|&i| items[i].clone()).collect());
        // Advance the combination.
        let mut i = size;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if indices[i] != i + items.len() - size {
                indices[i] += 1;
                for j in i + 1..size {
                    indices[j] = indices[j - 1] + 1;
                }
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expresso_logic::Term;

    /// Interns `pre` and `goal` on `s` and abduces with the default tunables.
    fn abduce_default(
        s: &Solver,
        pre: &Formula,
        goal: &Formula,
    ) -> (FormulaId, FormulaId, Vec<FormulaId>) {
        let interner = s.interner();
        let (pre, goal) = (interner.intern(pre), interner.intern(goal));
        (
            pre,
            goal,
            abduce_ids(s, pre, goal, &AbductionConfig::default()),
        )
    }

    #[test]
    fn subsets_enumeration_is_complete() {
        let items: Vec<Ident> = vec!["a".into(), "b".into(), "c".into()];
        assert_eq!(subsets_of_size(&items, 1).len(), 3);
        assert_eq!(subsets_of_size(&items, 2).len(), 3);
        assert_eq!(subsets_of_size(&items, 3).len(), 1);
        assert!(subsets_of_size(&items, 4).is_empty());
    }

    #[test]
    fn dispatch_stops_once_the_result_budget_is_met() {
        // Four variables under MAX_KEPT_VARS = 2 give ten subsets, each one
        // quantifier elimination the solver has not seen. With
        // max_results = 1 the first subset already yields an accepted
        // candidate, so the scan must stop well short of the tenth.
        let s = Solver::new();
        let goal = Formula::or(vec![
            Term::var("x").ge(Term::int(0)),
            Term::var("y").gt(Term::int(10)),
            Term::var("z").gt(Term::int(5)),
            Term::var("w").gt(Term::int(2)),
        ]);
        let config = AbductionConfig {
            max_results: 1,
            ..AbductionConfig::default()
        };
        let interner = s.interner();
        let (pre, goal) = (interner.intern(&Formula::True), interner.intern(&goal));
        let before = s.stats();
        let candidates = abduce_ids(&s, pre, goal, &config);
        assert_eq!(candidates.len(), 1, "budget of one candidate not honoured");
        let evaluated = s.stats().delta_since(&before).qe_cache_misses;
        assert!(
            (1..10).contains(&evaluated),
            "evaluated {evaluated} of 10 subsets despite a budget of one result"
        );
    }

    #[test]
    fn no_candidates_when_goal_already_follows() {
        let pre = Term::var("x").ge(Term::int(1));
        let goal = Term::var("x").ge(Term::int(0));
        assert!(abduce_default(&Solver::new(), &pre, &goal).2.is_empty());
    }

    #[test]
    fn finds_strengthening_for_readers_writers() {
        // The paper's enterReader triple with I = true:
        //   pre  = !writerIn && !(readers == 0 && !writerIn)
        //   goal = !(readers + 1 == 0 && !writerIn)
        // A correct abductive strengthening constrains `readers` (e.g.
        // readers >= 0 or readers != -1).
        let s = Solver::new();
        let pw = Formula::and(vec![
            Term::var("readers").eq(Term::int(0)),
            Formula::not(Formula::bool_var("writerIn")),
        ]);
        let pw_after = Formula::and(vec![
            Term::var("readers").add(Term::int(1)).eq(Term::int(0)),
            Formula::not(Formula::bool_var("writerIn")),
        ]);
        let pre = Formula::and(vec![
            Formula::not(Formula::bool_var("writerIn")),
            Formula::not(pw),
        ]);
        let (pre, goal, candidates) = abduce_default(&s, &pre, &Formula::not(pw_after));
        assert!(!candidates.is_empty(), "expected at least one candidate");
        // Every candidate must make the triple valid and be consistent.
        let interner = s.interner();
        for &c in &candidates {
            let strengthened = interner.mk_and(vec![pre, c]);
            assert!(s.check_implies_ids(strengthened, goal).is_valid());
        }
        // At least one candidate follows from readers >= 0 — i.e. it is the
        // kind of fact the constructor establishes.
        let readers_nonneg = interner.intern(&Term::var("readers").ge(Term::int(0)));
        assert!(candidates
            .iter()
            .any(|&c| s.check_implies_ids(readers_nonneg, c).is_valid()));
    }

    #[test]
    fn candidates_are_consistent_with_precondition() {
        let s = Solver::new();
        // pre: x <= 5, goal: x <= 3. A naive "false" strengthening is rejected;
        // an acceptable candidate is x <= 3 (or stronger but consistent).
        let pre = Term::var("x").le(Term::int(5));
        let goal = Term::var("x").le(Term::int(3));
        let (pre, goal, candidates) = abduce_default(&s, &pre, &goal);
        assert!(!candidates.is_empty());
        for &c in &candidates {
            let strengthened = s.interner().mk_and(vec![pre, c]);
            assert!(s.check_sat_id(strengthened).is_sat());
            assert!(s.check_implies_ids(strengthened, goal).is_valid());
        }
    }

    #[test]
    fn prefers_candidates_with_fewer_variables() {
        let s = Solver::new();
        // pre: true, goal: x >= 0 || y > 10. The single-variable candidate
        // x >= 0 (or y > 10) should be ranked before any two-variable one.
        let pre = Formula::True;
        let goal = Formula::or(vec![
            Term::var("x").ge(Term::int(0)),
            Term::var("y").gt(Term::int(10)),
        ]);
        let (_, _, candidates) = abduce_default(&s, &pre, &goal);
        assert!(!candidates.is_empty());
        assert!(s.interner().free_vars(candidates[0]).len() <= 1);
    }
}
