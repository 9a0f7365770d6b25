//! SMT-discharged conditional independence of CCR fire transitions.
//!
//! The explorer's conservative dependence relation treats every pair of
//! blocking-CCR fires as dependent (wait-queue overlap plus rule-2b
//! minimum contention), which collapses partial-order reduction on exactly
//! the monitors the paper cares about: a `put` and a `take` of a bounded
//! buffer conflict on `count` and on each other's wait queues, yet from any
//! configuration where **both guards hold** the two bodies commute and
//! neither fire disables the other. This module discharges that refinement
//! statically, once per monitor:
//!
//! * **Guard disjointness** — `unsat(g_p ∧ g_q)` means the two fires are
//!   never co-enabled, so no reachable configuration can reorder them.
//! * **Conditional independence** — otherwise the pair is independent when
//!   the bodies commute (the scalar check of [`VcGen::commutes`]: footprint
//!   first, then `wp`-equality of both orders for each variable left; an
//!   array may be written by one side only) *and* each body preserves the
//!   other's guard
//!   (`{g_p ∧ g_q} s_p {g_q}` and symmetrically), so from any co-enabled
//!   configuration either order reaches the same state and neither fire
//!   disables the other.
//!
//! The *enabling* direction (a fire making a disabled fire enabled) stays
//! covered by the conservative relation: a thread whose guard is false
//! emits a separate **block** event, and block×fire pairs keep every
//! variable- and queue-conflict edge, so "q tried before p enabled it"
//! reorderings are still explored through the block shape.
//!
//! Nothing here caches a verdict. A pair's verdict is a conjunction of
//! solver queries, and the solver's verdict memo files every one of them —
//! and `expresso-persist` saves that memo — so a repeat refinement, in the
//! same process or warm from disk, asks the solver nothing outside its memo.
//! [`DisjointnessStore`] only counts the pair proofs.

use crate::hoare::{has_loop, VcGen};
use expresso_logic::Formula;
use expresso_monitor_lang::{expr_to_formula, Ccr, CcrId, Monitor, Stmt, VarTable};
use expresso_smt::Solver;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pairwise fire-independence verdicts for one monitor, keyed on
/// `(CcrId, CcrId)` with the smaller id first. `true` means the two fires
/// were **proven** independent; `false` (or an absent key) keeps the
/// conservative relation.
pub type IndependenceTable = BTreeMap<(CcrId, CcrId), bool>;

/// Counters of a [`DisjointnessStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DisjointnessStats {
    /// Pair proofs run: one per pair of lowerable guards.
    pub queries: usize,
    /// Always 0: no verdict is served from anywhere but the solver's memo.
    /// Kept only so existing callers compile; leaves with ROADMAP item 6(b2).
    #[doc(hidden)]
    pub hits: usize,
}

impl DisjointnessStats {
    /// Adapt into a metric group for [`expresso_obs::MetricsRegistry`].
    pub fn metrics(&self) -> Vec<expresso_obs::Metric> {
        vec![expresso_obs::Metric::counter(
            "queries",
            self.queries as u64,
        )]
    }
}

/// The pair-proof counter [`refine_independence`] reports to. It holds no
/// verdict; `SharedAnalysisContext` owns one so that a suite's refinements
/// add up.
#[derive(Debug, Default)]
pub struct DisjointnessStore {
    queries: AtomicUsize,
}

impl DisjointnessStore {
    /// Creates a store with its counter at 0.
    pub fn new() -> Self {
        DisjointnessStore::default()
    }

    /// Snapshot of the counter.
    pub fn stats(&self) -> DisjointnessStats {
        DisjointnessStats {
            queries: self.queries.load(Ordering::Relaxed),
            hits: 0,
        }
    }
}

/// Computes the refined fire-independence table of `monitor`, counting each
/// pair proof in `store`.
pub fn refine_independence(
    monitor: &Monitor,
    table: &VarTable,
    solver: &Solver,
    store: &DisjointnessStore,
) -> IndependenceTable {
    let _span = expresso_obs::span!("vcgen.refine", "{}", monitor.name);
    let vc = VcGen::new(monitor, table, solver);
    let ccrs: Vec<&Ccr> = monitor.all_ccrs().collect();
    let mut out = IndependenceTable::new();
    for (i, p) in ccrs.iter().enumerate() {
        for q in &ccrs[i..] {
            out.insert((p.id, q.id), pair_independent(&vc, table, store, p, q));
        }
    }
    out
}

/// One pair's verdict: `true` only when the proof obligations hold.
fn pair_independent(
    vc: &VcGen,
    table: &VarTable,
    store: &DisjointnessStore,
    p: &Ccr,
    q: &Ccr,
) -> bool {
    // A guard outside the lowerable fragment gets no refinement.
    let (Ok(gp), Ok(gq)) = (
        expr_to_formula(&p.guard, table),
        expr_to_formula(&q.guard, table),
    ) else {
        return false;
    };
    store.queries.fetch_add(1, Ordering::Relaxed);
    let interner = vc.interner();
    let (gp_id, gq_id) = (interner.intern(&gp), interner.intern(&gq));

    // Thread-local namespaces: the VCs identify equal names, so two sides
    // sharing a local name (or a CCR paired with itself while using any
    // local) would conflate distinct threads' values — bail conservatively.
    let locals = |c: &Ccr| -> HashSet<String> {
        c.guard
            .vars()
            .into_iter()
            .chain(c.body.read_vars())
            .chain(c.body.assigned_vars())
            .filter(|v| table.is_local(v))
            .collect()
    };
    let (lp, lq) = (locals(p), locals(q));
    if p.id == q.id {
        if !lp.is_empty() {
            return false;
        }
    } else if lp.intersection(&lq).next().is_some() {
        return false;
    }
    if has_loop(&p.body) || has_loop(&q.body) {
        return false;
    }

    // Fast path: guard-disjoint fires are never co-enabled.
    let pre = interner.intern(&Formula::and(vec![gp, gq]));
    if vc.solver().check_sat_id(pre).is_unsat() {
        return true;
    }

    // Conditional independence from any co-enabled configuration: the
    // bodies commute and each preserves the other's guard.
    if !bodies_commute(vc, table, p, q) {
        return false;
    }
    vc.check_triple_ids(pre, &p.body, gq_id).is_valid()
        && vc.check_triple_ids(pre, &q.body, gp_id).is_valid()
}

/// Do the two bodies commute (`s_p; s_q ≡ s_q; s_p`)? [`VcGen::commutes`]
/// refuses every array write; this admits **one-sided** ones: `wp` passes an
/// array assignment through unchanged when the postcondition never mentions
/// the array, so the scalar check sees through it, and
/// [`array_writes_commute`] separately checks that the written cells
/// themselves are order-insensitive.
fn bodies_commute(vc: &VcGen, table: &VarTable, p: &Ccr, q: &Ccr) -> bool {
    if p.id == q.id {
        // `s; s ≡ s; s` syntactically.
        return true;
    }
    let arrays = |s: &Stmt| -> BTreeSet<String> {
        s.assigned_vars()
            .into_iter()
            .filter(|v| table.is_array(v))
            .collect()
    };
    let (pa, qa) = (arrays(&p.body), arrays(&q.body));
    if !pa.is_empty() && !qa.is_empty() {
        // Both sides write arrays: the cells could alias.
        return false;
    }
    if !pa.is_empty() && !array_writes_commute(&p.body, &q.body, &pa) {
        return false;
    }
    if !qa.is_empty() && !array_writes_commute(&q.body, &p.body, &qa) {
        return false;
    }
    vc.scalars_commute(&p.body, &q.body)
}

/// Soundness of one-sided array writes in `writer` against `other`: every
/// written cell must receive the same value in either order, and `other`
/// must not observe the array at all. Holds when (a) `other` never reads or
/// writes the written arrays, and (b) each array assignment's index and
/// value expressions read only scalars that neither `other` nor any
/// *earlier* statement of `writer` assigns — then the cell and value are
/// identical whichever body runs first.
fn array_writes_commute(writer: &Stmt, other: &Stmt, written_arrays: &BTreeSet<String>) -> bool {
    let other_touches: HashSet<String> = other
        .read_vars()
        .union(&other.assigned_vars())
        .cloned()
        .collect();
    if written_arrays.iter().any(|a| other_touches.contains(a)) {
        return false;
    }
    let other_writes = other.assigned_vars();
    let mut assigned_before = HashSet::new();
    stable_array_inputs(writer, &other_writes, &mut assigned_before)
}

/// Walks `writer` in execution order, tracking scalars assigned so far, and
/// checks every array assignment's inputs against them and `other_writes`.
/// An input that is itself an array read is rejected (aliasing).
fn stable_array_inputs(
    stmt: &Stmt,
    other_writes: &HashSet<String>,
    assigned_before: &mut HashSet<String>,
) -> bool {
    match stmt {
        Stmt::Skip => true,
        Stmt::Seq(parts) => parts
            .iter()
            .all(|s| stable_array_inputs(s, other_writes, assigned_before)),
        Stmt::Assign(v, _) | Stmt::Local(v, _, _) => {
            assigned_before.insert(v.clone());
            true
        }
        Stmt::ArrayAssign(array, index, value) => {
            let mut inputs = index.vars();
            inputs.extend(value.vars());
            inputs.remove(array);
            let ok = inputs
                .iter()
                .all(|v| !assigned_before.contains(v) && !other_writes.contains(v))
                // The value may not be loaded from an array (the loaded cell
                // could be one the other order already overwrote).
                && !value.vars().contains(array.as_str())
                && !index.vars().contains(array.as_str());
            assigned_before.insert(array.clone());
            ok
        }
        Stmt::If(cond, then_branch, else_branch) => {
            // When a branch writes an array, the condition decides *which*
            // cells get written, so its inputs must be stable too.
            let unstable_cond = cond
                .vars()
                .iter()
                .any(|v| assigned_before.contains(v) || other_writes.contains(v));
            if unstable_cond
                && (contains_array_assign(then_branch) || contains_array_assign(else_branch))
            {
                return false;
            }
            let mut then_assigned = assigned_before.clone();
            let then_ok = stable_array_inputs(then_branch, other_writes, &mut then_assigned);
            let mut else_assigned = assigned_before.clone();
            let else_ok = stable_array_inputs(else_branch, other_writes, &mut else_assigned);
            assigned_before.extend(then_assigned);
            assigned_before.extend(else_assigned);
            then_ok && else_ok
        }
        // Loops were rejected before commutation is attempted.
        Stmt::While(..) => false,
    }
}

fn contains_array_assign(stmt: &Stmt) -> bool {
    match stmt {
        Stmt::ArrayAssign(..) => true,
        Stmt::Seq(parts) => parts.iter().any(contains_array_assign),
        Stmt::If(_, t, e) => contains_array_assign(t) || contains_array_assign(e),
        Stmt::While(_, b) => contains_array_assign(b),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expresso_monitor_lang::{check_monitor, parse_monitor};

    fn analyzed(src: &str) -> (Monitor, VarTable, Solver, DisjointnessStore) {
        let monitor = parse_monitor(src).unwrap();
        let table = check_monitor(&monitor).unwrap();
        (monitor, table, Solver::new(), DisjointnessStore::new())
    }

    fn ccr(monitor: &Monitor, method: &str) -> CcrId {
        monitor.method(method).unwrap().ccrs[0]
    }

    fn pair(table: &IndependenceTable, a: CcrId, b: CcrId) -> bool {
        let key = if a.0 <= b.0 { (a, b) } else { (b, a) };
        *table.get(&key).unwrap()
    }

    const BOUNDED_BUFFER: &str = r#"
        monitor BoundedBuffer(int capacity) {
            int[] buffer = new int[capacity];
            int head = 0;
            int tail = 0;
            int count = 0;
            atomic void put(int item) {
                waituntil (count < capacity) {
                    buffer[tail] = item;
                    tail = tail + 1;
                    if (tail >= capacity) { tail = 0; }
                    count++;
                }
            }
            atomic int take() {
                waituntil (count > 0) {
                    head = head + 1;
                    if (head >= capacity) { head = 0; }
                    count--;
                }
            }
        }
    "#;

    #[test]
    fn bounded_buffer_put_take_is_conditionally_independent() {
        let (monitor, table, solver, store) = analyzed(BOUNDED_BUFFER);
        let t = refine_independence(&monitor, &table, &solver, &store);
        let (put, take) = (ccr(&monitor, "put"), ccr(&monitor, "take"));
        // put and take commute and preserve each other's guards.
        assert!(pair(&t, put, take), "put × take must be independent");
        // Two puts write the same array cells; two takes can disable each
        // other (`count > 0` is not preserved by `count--`).
        assert!(!pair(&t, put, put));
        assert!(!pair(&t, take, take));
    }

    #[test]
    fn counter_guard_preservation_separates_release_and_acquire() {
        let (monitor, table, solver, store) = analyzed(
            r#"
            monitor Counter {
                int count = 0;
                atomic void release() { count++; }
                atomic void acquire() { waituntil (count > 0) { count--; } }
            }
            "#,
        );
        let t = refine_independence(&monitor, &table, &solver, &store);
        let (release, acquire) = (ccr(&monitor, "release"), ccr(&monitor, "acquire"));
        // A release can never disable anything and increments commute.
        assert!(pair(&t, release, release));
        assert!(pair(&t, release, acquire));
        // One acquire can disable the other.
        assert!(!pair(&t, acquire, acquire));
    }

    #[test]
    fn guard_disjoint_fires_are_independent_without_commutation() {
        let (monitor, table, solver, store) = analyzed(
            r#"
            monitor Modes {
                int mode = 0;
                bool flag = false;
                atomic void low() { waituntil (mode < 0) { flag = true; } }
                atomic void high() { waituntil (mode > 0) { flag = false; } }
            }
            "#,
        );
        let t = refine_independence(&monitor, &table, &solver, &store);
        // The bodies overwrite the same flag (no commutation), but the
        // guards are unsatisfiable together: never co-enabled.
        assert!(pair(&t, ccr(&monitor, "low"), ccr(&monitor, "high")));
    }

    #[test]
    fn non_commuting_overwrites_stay_dependent() {
        let (monitor, table, solver, store) = analyzed(
            r#"
            monitor Busy {
                bool busy = false;
                atomic void start() { busy = true; }
                atomic void finish() { busy = false; }
            }
            "#,
        );
        let t = refine_independence(&monitor, &table, &solver, &store);
        assert!(!pair(&t, ccr(&monitor, "start"), ccr(&monitor, "finish")));
    }

    #[test]
    fn same_ccr_with_locals_bails_conservatively() {
        let (monitor, table, solver, store) = analyzed(
            r#"
            monitor Params {
                int a = 0;
                atomic void bump(int n) { a = a + n; }
                atomic void shift(int m) { a = a + m; }
            }
            "#,
        );
        let t = refine_independence(&monitor, &table, &solver, &store);
        let (bump, shift) = (ccr(&monitor, "bump"), ccr(&monitor, "shift"));
        // Two threads in the *same* CCR have distinct argument values the VC
        // would conflate under one name, so the pair gets no refinement …
        assert!(!pair(&t, bump, bump));
        // … while distinct CCRs have disjoint local namespaces (the checker
        // enforces globally unique names) and still commute.
        assert!(pair(&t, bump, shift));
    }

    #[test]
    fn a_repeat_refinement_is_served_by_the_solver_memo() {
        let (monitor, table, solver, store) = analyzed(BOUNDED_BUFFER);
        let first = refine_independence(&monitor, &table, &solver, &store);
        let (cold, proofs) = (solver.stats(), store.stats().queries);
        assert!(proofs > 0 && cold.cache_misses > 0);
        let second = refine_independence(&monitor, &table, &solver, &store);
        let warm = solver.stats();
        assert_eq!(first, second);
        // Every pair is proved again, and every query of the proofs is one
        // the solver has filed.
        assert_eq!(store.stats().queries, 2 * proofs);
        assert_eq!(warm.cache_misses, cold.cache_misses);
        assert!(warm.cache_hits > cold.cache_hits);
    }
}
