//! Weakest preconditions for the monitor statement language.
//!
//! [`wp_id`] builds the precondition directly as interned [`FormulaId`]s: it
//! never clones subtrees, and repeated substitution over shared subtrees is
//! memoized inside the [`Interner`]. The tree-based `wp` it was ported from
//! is compiled only for this module's tests, as the oracle `wp_id` is
//! compared against rule for rule.

use expresso_logic::{fresh_name, Formula, FormulaId, Interner, Subst, Term};
use expresso_monitor_lang::{expr_to_formula, expr_to_term, LowerError, Stmt, VarTable};
use std::collections::HashSet;
use std::fmt;

/// Errors produced while computing a weakest precondition.
///
/// Every error is treated conservatively by callers: a triple whose `wp`
/// cannot be computed is simply "not proven", which at worst costs an extra
/// signal, never correctness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WpError {
    /// The statement writes an array that the postcondition reads; array
    /// writes are modelled as havoc, so nothing can be concluded.
    ArrayWrite(String),
    /// The postcondition or an expression could not be lowered to the logical
    /// fragment.
    Lower(LowerError),
}

impl fmt::Display for WpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WpError::ArrayWrite(a) => {
                write!(
                    f,
                    "array `{a}` is written and mentioned by the postcondition"
                )
            }
            WpError::Lower(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WpError {}

impl From<LowerError> for WpError {
    fn from(e: LowerError) -> Self {
        WpError::Lower(e)
    }
}

/// [`wp_id`] over formula trees: the test oracle.
#[cfg(test)]
pub(crate) fn wp(stmt: &Stmt, post: &Formula, table: &VarTable) -> Result<Formula, WpError> {
    match stmt {
        Stmt::Skip => Ok(post.clone()),
        Stmt::Seq(parts) => {
            let mut current = post.clone();
            for s in parts.iter().rev() {
                current = wp(s, &current, table)?;
            }
            Ok(current)
        }
        Stmt::Assign(name, value) | Stmt::Local(name, _, value) => {
            let mut subst = Subst::new();
            if table.is_bool(name) {
                subst.boolean(name.clone(), expr_to_formula(value, table)?);
            } else {
                subst.int(name.clone(), expr_to_term(value, table)?);
            }
            Ok(subst.apply(post))
        }
        Stmt::ArrayAssign(array, _, _) => {
            if post.arrays().contains(array) {
                Err(WpError::ArrayWrite(array.clone()))
            } else {
                Ok(post.clone())
            }
        }
        Stmt::If(cond, then_branch, else_branch) => {
            let cond = expr_to_formula(cond, table)?;
            let wp_then = wp(then_branch, post, table)?;
            let wp_else = wp(else_branch, post, table)?;
            Ok(Formula::and(vec![
                Formula::implies(cond.clone(), wp_then),
                Formula::implies(Formula::not(cond), wp_else),
            ]))
        }
        Stmt::While(cond, body) => {
            let cond_formula = expr_to_formula(cond, table)?;
            // Havoc every scalar assigned in the body; arrays force rejection
            // when the postcondition depends on them.
            let assigned = body.assigned_vars();
            for a in &assigned {
                if table.is_array(a) && post.arrays().contains(a) {
                    return Err(WpError::ArrayWrite(a.clone()));
                }
            }
            let scalars: Vec<String> = {
                let mut v: Vec<String> = assigned
                    .iter()
                    .filter(|a| !table.is_array(a))
                    .cloned()
                    .collect();
                v.sort();
                v
            };
            let mut taken: HashSet<String> = post.free_vars();
            taken.extend(cond_formula.free_vars());
            taken.extend(scalars.iter().cloned());
            let mut subst = Subst::new();
            let mut fresh_int_binders = Vec::new();
            let mut bool_pairs: Vec<(String, String)> = Vec::new();
            for v in &scalars {
                let fresh = fresh_name(&format!("{v}!loop"), &taken);
                taken.insert(fresh.clone());
                if table.is_bool(v) {
                    subst.boolean(v.clone(), Formula::bool_var(fresh.clone()));
                    bool_pairs.push((v.clone(), fresh));
                } else {
                    subst.int(v.clone(), Term::var(fresh.clone()));
                    fresh_int_binders.push(fresh);
                }
            }
            let exit =
                Formula::implies(Formula::not(subst.apply(&cond_formula)), subst.apply(post));
            // Universally quantify the havocked integers; booleans are expanded
            // by cases because the quantifier layer is integer-only.
            let mut quantified = exit;
            for (_, fresh) in &bool_pairs {
                let mut true_case = Subst::new();
                true_case.boolean(fresh.clone(), Formula::True);
                let mut false_case = Subst::new();
                false_case.boolean(fresh.clone(), Formula::False);
                quantified = Formula::and(vec![
                    true_case.apply(&quantified),
                    false_case.apply(&quantified),
                ]);
            }
            Ok(Formula::forall(fresh_int_binders, quantified))
        }
    }
}

/// Computes the weakest precondition `wp(stmt, post)` over interned formulas.
///
/// The rules are standard for assignments, sequencing and conditionals.
/// Loops use a sound over-approximation: the variables assigned by the body
/// are havocked and the postcondition must hold in every havocked state that
/// exits the loop (`∀ fresh. ¬cond[fresh] ⇒ post[fresh]`). Array writes
/// havoc the whole array: if the postcondition reads the written array the
/// computation is rejected (conservative), otherwise the write is a no-op on
/// the postcondition. The result is built as ids in `interner`: no subtree is
/// ever cloned, and assignments substitute through shared subtrees at most
/// once per distinct node.
///
/// # Errors
///
/// Returns a [`WpError`] when the postcondition depends on a written array or
/// when lowering an expression fails (non-linear arithmetic, sort errors).
pub fn wp_id(
    stmt: &Stmt,
    post: FormulaId,
    table: &VarTable,
    interner: &Interner,
) -> Result<FormulaId, WpError> {
    match stmt {
        Stmt::Skip => Ok(post),
        Stmt::Seq(parts) => {
            let mut current = post;
            for s in parts.iter().rev() {
                current = wp_id(s, current, table, interner)?;
            }
            Ok(current)
        }
        Stmt::Assign(name, value) | Stmt::Local(name, _, value) => {
            let mut subst = Subst::new();
            if table.is_bool(name) {
                subst.boolean(name.clone(), expr_to_formula(value, table)?);
            } else {
                subst.int(name.clone(), expr_to_term(value, table)?);
            }
            Ok(interner.apply_subst(&subst, post))
        }
        Stmt::ArrayAssign(array, _, _) => {
            if interner.arrays(post).contains(array) {
                Err(WpError::ArrayWrite(array.clone()))
            } else {
                Ok(post)
            }
        }
        Stmt::If(cond, then_branch, else_branch) => {
            let cond = interner.intern(&expr_to_formula(cond, table)?);
            let wp_then = wp_id(then_branch, post, table, interner)?;
            let wp_else = wp_id(else_branch, post, table, interner)?;
            let pos_case = interner.mk_implies(cond, wp_then);
            let neg_case = interner.mk_implies(interner.mk_not(cond), wp_else);
            Ok(interner.mk_and(vec![pos_case, neg_case]))
        }
        Stmt::While(cond, body) => {
            let cond_formula = expr_to_formula(cond, table)?;
            let post_arrays = interner.arrays(post);
            let assigned = body.assigned_vars();
            for a in &assigned {
                if table.is_array(a) && post_arrays.contains(a) {
                    return Err(WpError::ArrayWrite(a.clone()));
                }
            }
            let scalars: Vec<String> = {
                let mut v: Vec<String> = assigned
                    .iter()
                    .filter(|a| !table.is_array(a))
                    .cloned()
                    .collect();
                v.sort();
                v
            };
            let mut taken: HashSet<String> = interner.free_vars(post);
            taken.extend(cond_formula.free_vars());
            taken.extend(scalars.iter().cloned());
            let mut subst = Subst::new();
            let mut fresh_int_binders = Vec::new();
            let mut bool_pairs: Vec<(String, String)> = Vec::new();
            for v in &scalars {
                let fresh = fresh_name(&format!("{v}!loop"), &taken);
                taken.insert(fresh.clone());
                if table.is_bool(v) {
                    subst.boolean(v.clone(), Formula::bool_var(fresh.clone()));
                    bool_pairs.push((v.clone(), fresh));
                } else {
                    subst.int(v.clone(), Term::var(fresh.clone()));
                    fresh_int_binders.push(fresh);
                }
            }
            let cond_id = interner.intern(&cond_formula);
            let havocked_cond = interner.apply_subst(&subst, cond_id);
            let exit = interner.mk_implies(
                interner.mk_not(havocked_cond),
                interner.apply_subst(&subst, post),
            );
            // Universally quantify the havocked integers; booleans are expanded
            // by cases because the quantifier layer is integer-only.
            let mut quantified = exit;
            for (_, fresh) in &bool_pairs {
                let mut true_case = Subst::new();
                true_case.boolean(fresh.clone(), Formula::True);
                let mut false_case = Subst::new();
                false_case.boolean(fresh.clone(), Formula::False);
                quantified = interner.mk_and(vec![
                    interner.apply_subst(&true_case, quantified),
                    interner.apply_subst(&false_case, quantified),
                ]);
            }
            Ok(interner.mk_forall(fresh_int_binders, quantified))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expresso_logic::Term;
    use expresso_monitor_lang::{check_monitor, parse_monitor, Monitor, VarTable};
    use expresso_smt::Solver;

    fn valid(f: &Formula) -> bool {
        let solver = Solver::new();
        solver
            .check_valid_id(solver.interner().intern(f))
            .is_valid()
    }

    fn equivalent(a: &Formula, b: &Formula) -> bool {
        let solver = Solver::new();
        let interner = solver.interner();
        solver
            .check_equiv_ids(interner.intern(a), interner.intern(b))
            .is_valid()
    }

    fn fixture() -> (Monitor, VarTable) {
        let m = parse_monitor(
            r#"
            monitor M(int capacity) {
                int count = 0;
                bool stopped = false;
                int[] buf = new int[capacity];
                atomic void add(int item) {
                    waituntil (count < capacity) {
                        buf[count] = item;
                        count++;
                    }
                }
                atomic void drain() {
                    while (count > 0) { count--; }
                }
                atomic void toggle() {
                    if (stopped) { stopped = false; } else { stopped = true; }
                }
            }
            "#,
        )
        .unwrap();
        let t = check_monitor(&m).unwrap();
        (m, t)
    }

    #[test]
    fn assignment_substitutes() {
        let (m, t) = fixture();
        let add = m.method("add").unwrap();
        let body = &m.ccr(add.ccrs[0]).body;
        // post: count <= capacity
        let post = Term::var("count").le(Term::var("capacity"));
        let pre = wp(body, &post, &t).unwrap();
        // wp should be (count + 1) <= capacity (array write ignored).
        let arena = expresso_logic::Interner::new();
        assert_eq!(
            arena.formula(arena.simplify(arena.intern(&pre))),
            Term::var("count")
                .add(Term::int(1))
                .le(Term::var("capacity"))
        );
    }

    #[test]
    fn array_write_conflicts_with_array_post() {
        let (m, t) = fixture();
        let add = m.method("add").unwrap();
        let body = &m.ccr(add.ccrs[0]).body;
        let post = Term::select("buf", Term::int(0)).ge(Term::int(0));
        assert!(matches!(wp(body, &post, &t), Err(WpError::ArrayWrite(_))));
    }

    #[test]
    fn conditional_produces_both_branches() {
        let (m, t) = fixture();
        let toggle = m.method("toggle").unwrap();
        let body = &m.ccr(toggle.ccrs[0]).body;
        let post = Formula::bool_var("stopped");
        let pre = wp(body, &post, &t).unwrap();
        // From any state: if stopped then post becomes false, else true, so
        // wp == !stopped.
        assert!(equivalent(
            &pre,
            &Formula::not(Formula::bool_var("stopped"))
        ));
    }

    #[test]
    fn while_loop_is_over_approximated_soundly() {
        let (m, t) = fixture();
        let drain = m.method("drain").unwrap();
        let body = &m.ccr(drain.ccrs[0]).body;
        // After the loop, count <= 0 is guaranteed by the exit condition.
        let post = Term::var("count").le(Term::int(0));
        let pre = wp(body, &post, &t).unwrap();
        // The wp must be implied by `true` (it is a tautology: any exit state
        // has count <= 0).
        assert!(valid(&pre));
        // A postcondition that the loop cannot guarantee must not be provable.
        let post = Term::var("count").ge(Term::int(1));
        let pre = wp(body, &post, &t).unwrap();
        assert!(!valid(&pre));
    }

    #[test]
    fn sequencing_composes_right_to_left() {
        let (_, t) = fixture();
        // count = count + 1; count = count * 2   with post count == 4  gives
        // (count + 1) * 2 == 4, i.e. count == 1.
        let stmt = Stmt::seq(vec![
            Stmt::Assign(
                "count".into(),
                expresso_monitor_lang::parse_expr("count + 1").unwrap(),
            ),
            Stmt::Assign(
                "count".into(),
                expresso_monitor_lang::parse_expr("count * 2").unwrap(),
            ),
        ]);
        let post = Term::var("count").eq(Term::int(4));
        let pre = wp(&stmt, &post, &t).unwrap();
        assert!(equivalent(&pre, &Term::var("count").eq(Term::int(1))));
    }

    #[test]
    fn wp_id_matches_tree_wp() {
        let (m, t) = fixture();
        let interner = Interner::new();
        let posts = vec![
            Term::var("count").le(Term::var("capacity")),
            Term::var("count").le(Term::int(0)),
            Formula::bool_var("stopped"),
            Formula::and(vec![
                Term::var("count").ge(Term::int(0)),
                Formula::not(Formula::bool_var("stopped")),
            ]),
        ];
        for method in ["add", "drain", "toggle"] {
            let body = &m.ccr(m.method(method).unwrap().ccrs[0]).body;
            for post in &posts {
                let tree = wp(body, post, &t);
                let id = wp_id(body, interner.intern(post), &t, &interner);
                match (tree, id) {
                    (Ok(tree), Ok(id)) => {
                        assert_eq!(interner.formula(id), tree, "{method} diverged on {post}")
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b),
                    (tree, id) => panic!("{method} diverged on {post}: {tree:?} vs {id:?}"),
                }
            }
        }
    }

    #[test]
    fn wp_id_rejects_array_writes_like_tree_wp() {
        let (m, t) = fixture();
        let interner = Interner::new();
        let body = &m.ccr(m.method("add").unwrap().ccrs[0]).body;
        let post = Term::select("buf", Term::int(0)).ge(Term::int(0));
        assert!(matches!(
            wp_id(body, interner.intern(&post), &t, &interner),
            Err(WpError::ArrayWrite(_))
        ));
    }

    #[test]
    fn boolean_assignment_substitutes_formula() {
        let (_, t) = fixture();
        let stmt = Stmt::Assign(
            "stopped".into(),
            expresso_monitor_lang::parse_expr("count == 0").unwrap(),
        );
        let post = Formula::not(Formula::bool_var("stopped"));
        let pre = wp(&stmt, &post, &t).unwrap();
        assert!(equivalent(&pre, &Term::var("count").ne(Term::int(0))));
    }
}
