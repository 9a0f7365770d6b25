//! Hoare-triple discharge and commutativity checking.

use crate::cache::{StmtKey, WpCache};
use crate::wp::{wp_id, WpError};
use expresso_logic::{fresh_name, Formula, FormulaId, Interner, Subst, Term};
use expresso_monitor_lang::{expr_to_formula, expr_to_term, Monitor, Stmt, Type, VarTable};
use expresso_smt::{Solver, ValidityResult};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, RwLock};

/// A Hoare triple `{pre} stmt {post}` over a CCR body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HoareTriple {
    /// Precondition.
    pub pre: Formula,
    /// The program fragment (a CCR body).
    pub stmt: Stmt,
    /// Postcondition.
    pub post: Formula,
    /// A human-readable description of why the triple was generated, used in
    /// reports and debugging output.
    pub description: String,
}

impl fmt::Display for HoareTriple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{{}}} … {{{}}} ({})",
            self.pre, self.post, self.description
        )
    }
}

/// The outcome of discharging a triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripleStatus {
    /// Proven valid.
    Valid,
    /// A counterexample exists (or the solver found the VC falsifiable).
    Invalid,
    /// Could not be decided (outside the fragment, resource limits); callers
    /// must treat this exactly like [`TripleStatus::Invalid`].
    Unknown,
}

impl TripleStatus {
    /// `true` only when the triple was proven.
    pub fn is_valid(self) -> bool {
        self == TripleStatus::Valid
    }
}

impl From<&ValidityResult> for TripleStatus {
    fn from(verdict: &ValidityResult) -> TripleStatus {
        match verdict {
            ValidityResult::Valid => TripleStatus::Valid,
            ValidityResult::Invalid => TripleStatus::Invalid,
            ValidityResult::Unknown(_) => TripleStatus::Unknown,
        }
    }
}

/// Verification-condition generator bound to a monitor, its symbol table and a
/// solver.
#[derive(Debug)]
pub struct VcGen<'a> {
    monitor: &'a Monitor,
    table: &'a VarTable,
    solver: &'a Solver,
    /// Memoized `(statement, post-id) → wp` session. The pipeline shares
    /// one session between the abduction and placement passes of a single
    /// analysis; the session's store may be suite-wide.
    wp_cache: Arc<WpCache>,
    /// Per-statement store keys. A statement's canonical bytes are a pure
    /// function of `(stmt, table)` and this generator is bound to one table
    /// and one session, so they are encoded and interned once per distinct
    /// statement instead of on every WP lookup. The map is read-locked on
    /// the hit path so parallel pair tasks sharing one generator do not
    /// serialize on it.
    keys: RwLock<HashMap<Stmt, StmtKey>>,
}

impl<'a> VcGen<'a> {
    /// Creates a generator for `monitor` with a fresh private WP cache.
    pub fn new(monitor: &'a Monitor, table: &'a VarTable, solver: &'a Solver) -> Self {
        VcGen::with_wp_cache(monitor, table, solver, Arc::new(WpCache::default()))
    }

    /// Creates a generator sharing an existing WP session. The session's
    /// store must have been populated against the **same formula arena**
    /// (`solver.interner()`): cached `FormulaId`s are only meaningful in the
    /// arena that minted them. Entries from other monitors are safe — a key
    /// carries the lowering fingerprint of the statement's table slice.
    pub fn with_wp_cache(
        monitor: &'a Monitor,
        table: &'a VarTable,
        solver: &'a Solver,
        wp_cache: Arc<WpCache>,
    ) -> Self {
        VcGen {
            monitor,
            table,
            solver,
            wp_cache,
            keys: RwLock::default(),
        }
    }

    /// The WP memo cache this generator consults.
    pub fn wp_cache(&self) -> &Arc<WpCache> {
        &self.wp_cache
    }

    /// The monitor this generator reasons about.
    pub fn monitor(&self) -> &Monitor {
        self.monitor
    }

    /// The monitor's symbol table.
    pub fn table(&self) -> &VarTable {
        self.table
    }

    /// The underlying solver.
    pub fn solver(&self) -> &Solver {
        self.solver
    }

    /// The formula arena shared with the solver. Every verification condition
    /// this generator builds lives in this arena.
    pub fn interner(&self) -> &Arc<Interner> {
        self.solver.interner()
    }

    /// Discharges `{pre} stmt {post}` over interned formulas: one validity
    /// query, `pre ⇒ wp(stmt, post)`. A wp outside the fragment is
    /// [`TripleStatus::Unknown`] without a query.
    pub fn check_triple_ids(&self, pre: FormulaId, stmt: &Stmt, post: FormulaId) -> TripleStatus {
        match self.wp_id(stmt, post) {
            Ok(weakest) => (&self.solver.check_implies_ids(pre, weakest)).into(),
            Err(WpError::ArrayWrite(_)) | Err(WpError::Lower(_)) => TripleStatus::Unknown,
        }
    }

    /// Computes `wp(stmt, post)` over interned formulas, memoized on the
    /// generator's WP session under the statement's canonical bytes (which
    /// carry its lowering fingerprint, so a suite-wide store can serve hits
    /// across monitors soundly).
    ///
    /// # Errors
    ///
    /// Propagates [`WpError`] from the underlying computation.
    pub fn wp_id(&self, stmt: &Stmt, post: FormulaId) -> Result<FormulaId, WpError> {
        self.wp_cache
            .get_or_compute_keyed(self.key(stmt), post, || {
                wp_id(stmt, post, self.table, self.interner())
            })
    }

    /// The statement's store key, memoized per distinct statement
    /// (read-locked on the hit path).
    fn key(&self, stmt: &Stmt) -> StmtKey {
        if let Some(&key) = self
            .keys
            .read()
            .expect("no key memo holder panics")
            .get(stmt)
        {
            return key;
        }
        let key = self.wp_cache.key(stmt, self.table);
        self.keys
            .write()
            .expect("no key memo holder panics")
            .insert(stmt.clone(), key);
        key
    }

    /// Renames every thread-local variable occurring in `formula` to a fresh
    /// copy, returning the renamed formula (paper §4.2).
    ///
    /// `avoid` lists additional names that must not be reused (typically the
    /// free variables of the other formulas participating in the same VC).
    pub fn rename_locals(&self, formula: &Formula, avoid: &HashSet<String>) -> Formula {
        let locals: Vec<String> = formula
            .free_vars()
            .into_iter()
            .filter(|v| self.table.is_local(v))
            .collect();
        if locals.is_empty() {
            return formula.clone();
        }
        let mut taken: HashSet<String> = formula.free_vars();
        taken.extend(avoid.iter().cloned());
        let mut subst = Subst::new();
        for local in locals {
            let fresh = fresh_name(&format!("{local}!other"), &taken);
            taken.insert(fresh.clone());
            if self.table.is_bool(&local) {
                subst.boolean(local, Formula::bool_var(fresh));
            } else {
                subst.int(local, Term::var(fresh));
            }
        }
        subst.apply(formula)
    }

    /// Checks whether two statements commute: `s1; s2 ≡ s2; s1` on every
    /// variable either writes. Symmetric in its arguments. Conservative
    /// (`false`) when either statement writes arrays, contains loops, writes
    /// a variable that is neither an int nor a bool, or does not lower to the
    /// decidable fragment.
    pub fn commutes(&self, s1: &Stmt, s2: &Stmt) -> bool {
        // Array writes are havoc; only the trivial case of disjoint
        // variables would commute, and that is rare enough to skip.
        let writes_array = |s: &Stmt| s.assigned_vars().iter().any(|v| self.table.is_array(v));
        !writes_array(s1) && !writes_array(s2) && self.scalars_commute(s1, s2)
    }

    /// [`Self::commutes`] on the scalar variables either statement writes,
    /// leaving its array writes to the caller (the fire-independence
    /// refinement admits one-sided ones).
    ///
    /// Footprint first: a variable that only one body writes, when that body
    /// reads nothing the other body writes, ends with the same value in both
    /// orders — the static independence test of partial-order reduction —
    /// and costs no WP and no solver query. The two compositions are built,
    /// and one equivalence asked per variable, only for the variables left.
    pub(crate) fn scalars_commute(&self, s1: &Stmt, s2: &Stmt) -> bool {
        if has_loop(s1) || has_loop(s2) {
            return false;
        }
        let (writes1, writes2) = (s1.assigned_vars(), s2.assigned_vars());
        let mut affected: Vec<&String> = writes1
            .union(&writes2)
            .filter(|v| !self.table.is_array(v))
            .collect();
        if affected.is_empty() {
            return true;
        }
        if affected
            .iter()
            .any(|v| !matches!(self.table.ty(v), Some(Type::Int | Type::Bool)))
        {
            return false;
        }
        // Both compositions' WPs lower every expression of both bodies,
        // whatever the post; a variable settled by footprint must not skip
        // that verdict.
        if !lowers(s1, self.table) || !lowers(s2, self.table) {
            return false;
        }
        let (reads1, reads2) = (s1.read_vars(), s2.read_vars());
        let independent1 = reads1.is_disjoint(&writes2);
        let independent2 = reads2.is_disjoint(&writes1);
        affected.retain(
            |&var| match (writes1.contains(var), writes2.contains(var)) {
                (true, false) => !independent1,
                (false, true) => !independent2,
                _ => true,
            },
        );
        if affected.is_empty() {
            return true;
        }
        affected.sort();
        let order_a = Stmt::seq(vec![s1.clone(), s2.clone()]);
        let order_b = Stmt::seq(vec![s2.clone(), s1.clone()]);
        let interner = self.interner().clone();
        for var in affected {
            // Both orders run on interned ids so the (body, post) WP cache
            // serves the same compositions across the monitors of a suite.
            let post = if self.table.is_bool(var) {
                Formula::bool_var(var.clone())
            } else {
                let mut taken: HashSet<String> = reads1.union(&reads2).cloned().collect();
                taken.insert(var.clone());
                let observer = fresh_name(&format!("{var}!obs"), &taken);
                Term::var(var.clone()).eq(Term::var(observer))
            };
            let post = interner.intern(&post);
            let (Ok(a), Ok(b)) = (self.wp_id(&order_a, post), self.wp_id(&order_b, post)) else {
                return false;
            };
            if !self.solver.check_equiv_ids(a, b).is_valid() {
                return false;
            }
        }
        true
    }
}

/// Whether every expression [`wp_id`] lowers in `stmt` — assigned values,
/// `if` conditions — lowers. Loops are rejected before
/// [`VcGen::scalars_commute`] asks, and an array write lowers nothing a
/// scalar postcondition needs.
fn lowers(stmt: &Stmt, table: &VarTable) -> bool {
    match stmt {
        Stmt::Skip | Stmt::ArrayAssign(..) | Stmt::While(..) => true,
        Stmt::Seq(parts) => parts.iter().all(|s| lowers(s, table)),
        Stmt::Assign(name, value) | Stmt::Local(name, _, value) => {
            if table.is_bool(name) {
                expr_to_formula(value, table).is_ok()
            } else {
                expr_to_term(value, table).is_ok()
            }
        }
        Stmt::If(cond, then_branch, else_branch) => {
            expr_to_formula(cond, table).is_ok()
                && lowers(then_branch, table)
                && lowers(else_branch, table)
        }
    }
}

/// Whether `stmt` contains a `while` loop.
pub(crate) fn has_loop(stmt: &Stmt) -> bool {
    match stmt {
        Stmt::While(..) => true,
        Stmt::Seq(parts) => parts.iter().any(has_loop),
        Stmt::If(_, t, e) => has_loop(t) || has_loop(e),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expresso_monitor_lang::{check_monitor, parse_monitor};

    fn rw() -> (Monitor, VarTable) {
        let m = parse_monitor(
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
        )
        .unwrap();
        let t = check_monitor(&m).unwrap();
        (m, t)
    }

    fn triple(vc: &VcGen, pre: &Formula, stmt: &Stmt, post: &Formula) -> TripleStatus {
        let interner = vc.interner();
        vc.check_triple_ids(interner.intern(pre), stmt, interner.intern(post))
    }

    fn pw() -> Formula {
        Formula::and(vec![
            Term::var("readers").eq(Term::int(0)),
            Formula::not(Formula::bool_var("writerIn")),
        ])
    }

    #[test]
    fn enter_reader_does_not_need_to_signal_writers() {
        // {readers >= 0 && !writerIn && !Pw} readers++ {!Pw}  — paper §2.
        let (m, t) = rw();
        let solver = Solver::new();
        let vc = VcGen::new(&m, &t, &solver);
        let enter_reader = m.method("enterReader").unwrap();
        let body = &m.ccr(enter_reader.ccrs[0]).body;
        let pre = Formula::and(vec![
            Term::var("readers").ge(Term::int(0)),
            Formula::not(Formula::bool_var("writerIn")),
            Formula::not(pw()),
        ]);
        assert_eq!(
            triple(&vc, &pre, body, &Formula::not(pw())),
            TripleStatus::Valid
        );
        // Without the invariant the triple is not provable.
        let weak_pre = Formula::and(vec![
            Formula::not(Formula::bool_var("writerIn")),
            Formula::not(pw()),
        ]);
        assert_eq!(
            triple(&vc, &weak_pre, body, &Formula::not(pw())),
            TripleStatus::Invalid
        );
    }

    #[test]
    fn exit_reader_must_signal_but_not_broadcast() {
        let (m, t) = rw();
        let solver = Solver::new();
        let vc = VcGen::new(&m, &t, &solver);
        let exit_reader = m.method("exitReader").unwrap();
        let body = &m.ccr(exit_reader.ccrs[0]).body;
        let inv = Term::var("readers").ge(Term::int(0));
        // Signal needed: {inv && !Pw} body {!Pw} is NOT valid.
        let pre = Formula::and(vec![inv.clone(), Formula::not(pw())]);
        assert_ne!(
            triple(&vc, &pre, body, &Formula::not(pw())),
            TripleStatus::Valid
        );
        // Broadcast unnecessary: {inv && Pw} writerIn = true {!Pw} is valid.
        let enter_writer = m.method("enterWriter").unwrap();
        let writer_body = &m.ccr(enter_writer.ccrs[0]).body;
        let pre = Formula::and(vec![inv, pw()]);
        assert_eq!(
            triple(&vc, &pre, writer_body, &Formula::not(pw())),
            TripleStatus::Valid
        );
    }

    #[test]
    fn local_variable_renaming_avoids_unsound_conclusions() {
        // Example 4.2 from the paper.
        let m = parse_monitor(
            r#"
            monitor M {
                int y = 0;
                atomic void m1(int x) { waituntil (x < y) { x = y + 1; } }
                atomic void m2() { y = y + 2; }
            }
            "#,
        )
        .unwrap();
        let t = check_monitor(&m).unwrap();
        let solver = Solver::new();
        let vc = VcGen::new(&m, &t, &solver);
        let m1 = m.method("m1").unwrap();
        let body = &m.ccr(m1.ccrs[0]).body;
        let p = Term::var("x").lt(Term::var("y"));
        // Without renaming, the broadcast-avoidance triple appears valid …
        let pre = p.clone();
        assert_eq!(
            triple(&vc, &pre, body, &Formula::not(p.clone())),
            TripleStatus::Valid
        );
        // … but after renaming the other thread's local x the triple is
        // (correctly) invalid, so a broadcast is required.
        let renamed = vc.rename_locals(&p, &HashSet::new());
        assert_ne!(renamed, p);
        assert_ne!(
            triple(&vc, &renamed, body, &Formula::not(renamed.clone())),
            TripleStatus::Valid
        );
    }

    #[test]
    fn commutativity_of_independent_updates() {
        let m = parse_monitor(
            r#"
            monitor M {
                int a = 0;
                int b = 0;
                bool flag = false;
                atomic void incA() { a++; }
                atomic void incB() { b++; }
                atomic void setA() { a = 5; }
                atomic void toggle() { flag = !flag; }
            }
            "#,
        )
        .unwrap();
        let t = check_monitor(&m).unwrap();
        let solver = Solver::new();
        let vc = VcGen::new(&m, &t, &solver);
        let body = |name: &str| m.ccr(m.method(name).unwrap().ccrs[0]).body.clone();
        // Increments of different variables commute.
        assert!(vc.commutes(&body("incA"), &body("incB")));
        // Two increments of the same variable commute.
        assert!(vc.commutes(&body("incA"), &body("incA")));
        // Increment and overwrite of the same variable do not commute.
        assert!(!vc.commutes(&body("incA"), &body("setA")));
        // Boolean toggle commutes with integer increment.
        assert!(vc.commutes(&body("toggle"), &body("incA")));
    }

    #[test]
    fn unknown_for_array_dependent_postconditions() {
        let m = parse_monitor(
            r#"
            monitor M(int n) {
                int[] slots = new int[n];
                int count = 0;
                atomic void fill() { slots[count] = 1; }
            }
            "#,
        )
        .unwrap();
        let t = check_monitor(&m).unwrap();
        let solver = Solver::new();
        let vc = VcGen::new(&m, &t, &solver);
        let body = &m.ccr(m.method("fill").unwrap().ccrs[0]).body;
        let post = Term::select("slots", Term::int(0)).eq(Term::int(0));
        assert_eq!(
            triple(&vc, &Formula::True, body, &post),
            TripleStatus::Unknown
        );
    }
}
