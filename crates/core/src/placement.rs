//! The signal-placement algorithm (paper Algorithm 1, §4.2 and §4.3).
//!
//! Every `(CCR, guard)` pair's obligations are constructed exactly once as
//! interned formula ids ([`expresso_logic::FormulaId`]) against the solver's
//! shared arena — no invariant or guard tree is ever cloned per pair — and
//! the pairs are decided one after the other, in grid order, on the calling
//! thread. Within a pair, the triples are asked one at a time in the order
//! Algorithm 1 states them: the no-signal triple, then — only when it is not
//! proved — the conditional one, then the signal-vs-broadcast triples.
//! Decisions are pure functions of the monitor and invariant.

use crate::scheduler::Scheduler;
use expresso_logic::{Formula, FormulaId, Interner};
use expresso_monitor_lang::{
    expr_to_formula, CcrId, ExplicitMonitor, Expr, Monitor, Notification, NotificationKind,
    SignalCondition, VarTable,
};
use expresso_smt::Solver;
use expresso_vcgen::{VcGen, WpCache};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

/// Options for [`place_signals_with`].
#[derive(Debug, Clone)]
pub struct PlacementConfig {
    /// Apply the §4.3 commutativity improvement.
    pub use_commutativity: bool,
    /// The WP memo session the placement VCs go through. `None` gives this
    /// run a fresh private cache; the pipeline passes the per-analysis
    /// session shared with invariant inference (whose store may be
    /// suite-wide). Must belong to the same formula arena as the solver.
    pub wp_cache: Option<Arc<WpCache>>,
    /// Ignored: the pairs are decided on the calling thread. Kept only so
    /// existing callers compile; leaves with ROADMAP item 6(b2).
    #[doc(hidden)]
    pub scheduler: Option<Arc<Scheduler>>,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig {
            use_commutativity: true,
            wp_cache: None,
            scheduler: None,
        }
    }
}

/// The decision taken for one `(CCR, predicate)` pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalDecision {
    /// The CCR that may have to notify.
    pub ccr: CcrId,
    /// The blocked predicate under consideration (a guard of the monitor).
    pub predicate: Expr,
    /// Whether any notification is needed at all.
    pub needed: bool,
    /// Conditional (`?`) vs. unconditional (`✓`) notification (meaningful only
    /// when `needed`).
    pub condition: SignalCondition,
    /// Signal one waiter vs. broadcast to all (meaningful only when `needed`).
    pub kind: NotificationKind,
    /// `true` when the broadcast-avoidance proof needed the §4.3
    /// commutativity-based strengthening.
    pub used_commutativity: bool,
    /// `true` when the decision fell back to the conservative default because
    /// the predicate or body left the decidable fragment (arrays, non-linear
    /// arithmetic) — the "fixed strategy" of §6.
    pub conservative_fallback: bool,
}

/// The full decision table plus bookkeeping counters.
#[derive(Debug, Clone, Default)]
pub struct PlacementReport {
    /// One decision per `(CCR, guard)` pair considered.
    pub decisions: Vec<SignalDecision>,
    /// Number of Hoare triples discharged.
    pub triples_checked: usize,
    /// Number of `(CCR, guard)` pairs considered (`|CCRs| × |guards|`).
    pub pairs_considered: usize,
    /// Number of `(CCR, guard)` pairs proven to need no notification.
    pub skipped: usize,
    /// Number of unordered CCR pairs whose commutation the §4.3 step had to
    /// decide (0 for a replayed outcome: not recorded).
    pub commutativity_pairs: usize,
}

impl PlacementReport {
    /// Looks up the decision for a `(CCR, predicate)` pair.
    pub fn decision(&self, ccr: CcrId, predicate: &Expr) -> Option<&SignalDecision> {
        self.decisions
            .iter()
            .find(|d| d.ccr == ccr && &d.predicate == predicate)
    }

    /// Average number of Hoare triples discharged per `(CCR, guard)` pair —
    /// the per-pair cost driver Table 1's analysis times are dominated by.
    pub fn triples_per_pair(&self) -> f64 {
        if self.pairs_considered == 0 {
            0.0
        } else {
            self.triples_checked as f64 / self.pairs_considered as f64
        }
    }
}

/// A guard predicate lowered once, shared by every pair that considers it.
struct GuardInfo {
    expr: Expr,
    /// The lowered formula, both as a tree (for §4.2 local renaming, which
    /// generates fresh names) and interned.
    lowered: Option<(Formula, FormulaId)>,
    /// `true` when the predicate mentions thread-local state.
    has_locals: bool,
}

/// Everything needed to decide one pair.
struct PairCtx<'a> {
    vcgen: &'a VcGen<'a>,
    monitor: &'a Monitor,
    interner: &'a Arc<Interner>,
    invariant: FormulaId,
    guards: &'a [GuardInfo],
    own_guards: &'a HashMap<CcrId, Option<FormulaId>>,
    /// `None` when the §4.3 improvement is off.
    commutativity: Option<&'a Commutativity<'a>>,
}

/// The paper's `Comm(w, M)`, decided on demand: only for a waiter `w` whose
/// pair reaches the §4.3 step, and from each unordered CCR pair's
/// [`VcGen::commutes`] (which is symmetric), asked once.
struct Commutativity<'a> {
    vcgen: &'a VcGen<'a>,
    /// `Comm(w, M)` per CCR.
    with_all: Vec<Cell<Option<bool>>>,
    /// `commutes` per unordered pair `{a, b}`, `a < b`, at `b(b-1)/2 + a`.
    pairs: Vec<Cell<Option<bool>>>,
}

impl<'a> Commutativity<'a> {
    fn new(vcgen: &'a VcGen<'a>) -> Self {
        let n = vcgen.monitor().ccrs.len();
        Commutativity {
            vcgen,
            with_all: vec![Cell::new(None); n],
            pairs: vec![Cell::new(None); n * n.saturating_sub(1) / 2],
        }
    }

    /// Does the body of `w` commute with the body of every other CCR?
    fn with_all(&self, w: CcrId) -> bool {
        memo(&self.with_all[w.0], || {
            self.vcgen
                .monitor()
                .all_ccrs()
                .filter(|other| other.id != w)
                .all(|other| self.pair(w, other.id))
        })
    }

    fn pair(&self, a: CcrId, b: CcrId) -> bool {
        let (lo, hi) = if a.0 < b.0 { (a, b) } else { (b, a) };
        memo(&self.pairs[hi.0 * (hi.0 - 1) / 2 + lo.0], || {
            let monitor = self.vcgen.monitor();
            self.vcgen
                .commutes(&monitor.ccr(lo).body, &monitor.ccr(hi).body)
        })
    }

    /// The unordered pairs decided so far.
    fn decided(&self) -> usize {
        self.pairs.iter().filter(|p| p.get().is_some()).count()
    }
}

/// The value in `cell`, computed by `decide` on first use.
fn memo(cell: &Cell<Option<bool>>, decide: impl FnOnce() -> bool) -> bool {
    let value = cell.get().unwrap_or_else(decide);
    cell.set(Some(value));
    value
}

/// Runs the signal-placement algorithm with a given monitor invariant,
/// producing the explicit-signal monitor and a decision report.
///
/// Convenience wrapper over [`place_signals_with`] using the default
/// configuration; `use_commutativity` enables the §4.3 improvement that can
/// downgrade a broadcast to a signal when the signalled CCR's body commutes
/// with every other CCR.
pub fn place_signals(
    monitor: &Monitor,
    table: &VarTable,
    solver: &Solver,
    invariant: &Formula,
    use_commutativity: bool,
) -> (ExplicitMonitor, PlacementReport) {
    place_signals_with(
        monitor,
        table,
        solver,
        invariant,
        &PlacementConfig {
            use_commutativity,
            ..PlacementConfig::default()
        },
    )
}

/// Runs the signal-placement algorithm with explicit [`PlacementConfig`]
/// options.
///
/// With `use_commutativity`, `Comm(w, M)` is decided only when a pair's
/// signal-vs-broadcast step reaches waiter `w` and cannot prove the signal
/// without it, and each unordered CCR pair's commutation at most once.
/// [`VcGen::commutes`] settles a variable from the two bodies' footprints
/// alone when only one body writes it and that body reads nothing the other
/// writes; only the remaining variables cost a WP and a solver query.
pub fn place_signals_with(
    monitor: &Monitor,
    table: &VarTable,
    solver: &Solver,
    invariant: &Formula,
    config: &PlacementConfig,
) -> (ExplicitMonitor, PlacementReport) {
    let vcgen = match &config.wp_cache {
        Some(cache) => VcGen::with_wp_cache(monitor, table, solver, Arc::clone(cache)),
        None => VcGen::new(monitor, table, solver),
    };
    let interner = vcgen.interner().clone();
    let invariant_id = interner.intern(invariant);

    let commutativity = config.use_commutativity.then(|| Commutativity::new(&vcgen));

    // Lower every guard and every CCR's own guard exactly once.
    let guards: Vec<GuardInfo> = monitor
        .guards()
        .into_iter()
        .map(|expr| {
            let lowered = expr_to_formula(&expr, table).ok().map(|f| {
                let id = interner.intern(&f);
                (f, id)
            });
            let has_locals = expr.vars().iter().any(|v| table.is_local(v));
            GuardInfo {
                expr,
                lowered,
                has_locals,
            }
        })
        .collect();
    let own_guards: HashMap<CcrId, Option<FormulaId>> = monitor
        .all_ccrs()
        .map(|ccr| {
            let id = expr_to_formula(&ccr.guard, table)
                .ok()
                .map(|f| interner.intern(&f));
            (ccr.id, id)
        })
        .collect();

    let ctx = PairCtx {
        vcgen: &vcgen,
        monitor,
        interner: &interner,
        invariant: invariant_id,
        guards: &guards,
        own_guards: &own_guards,
        commutativity: commutativity.as_ref(),
    };

    let mut triples_checked = 0;
    let decisions = monitor
        .all_ccrs()
        .flat_map(|ccr| (0..guards.len()).map(move |g| (ccr.id, g)))
        .map(|(ccr, guard)| {
            let (decision, triples) = decide(&ctx, ccr, guard);
            triples_checked += triples;
            decision
        })
        .collect();
    let (explicit, mut report) = assemble(monitor, decisions, triples_checked);
    report.commutativity_pairs = commutativity.as_ref().map_or(0, Commutativity::decided);
    (explicit, report)
}

/// Σ and the report that follow from one decision per pair considered: the
/// `needed` decisions of a CCR, in order, are its notifications. Shared with
/// the replay of a recorded outcome, which has the decisions and no solver.
pub(crate) fn assemble(
    monitor: &Monitor,
    decisions: Vec<SignalDecision>,
    triples_checked: usize,
) -> (ExplicitMonitor, PlacementReport) {
    let mut notifications: HashMap<CcrId, Vec<Notification>> =
        monitor.ccrs.iter().map(|c| (c.id, Vec::new())).collect();
    let mut skipped = 0;
    for decision in &decisions {
        if decision.needed {
            notifications
                .entry(decision.ccr)
                .or_default()
                .push(Notification {
                    predicate: decision.predicate.clone(),
                    condition: decision.condition,
                    kind: decision.kind,
                });
        } else {
            skipped += 1;
        }
    }
    let explicit = ExplicitMonitor {
        monitor: monitor.clone(),
        notifications,
    };
    let report = PlacementReport {
        pairs_considered: decisions.len(),
        decisions,
        triples_checked,
        skipped,
        commutativity_pairs: 0,
    };
    (explicit, report)
}

/// Decides one `(CCR, guard)` pair, returning the decision and the number of
/// Hoare triples discharged for it.
fn decide(ctx: &PairCtx<'_>, ccr_id: CcrId, guard_idx: usize) -> (SignalDecision, usize) {
    let interner = ctx.interner;
    let ccr = ctx.monitor.ccr(ccr_id);
    let guard = &ctx.guards[guard_idx];
    let mut triples = 0usize;
    let conservative = SignalDecision {
        ccr: ccr_id,
        predicate: guard.expr.clone(),
        needed: true,
        condition: SignalCondition::Conditional,
        kind: NotificationKind::Broadcast,
        used_commutativity: false,
        conservative_fallback: true,
    };

    // If the signalling CCR's guard or the blocked predicate cannot be lowered
    // (e.g. it reads an array), fall back to the always-correct conditional
    // broadcast.
    let Some(own_guard) = ctx.own_guards[&ccr_id] else {
        return (conservative, triples);
    };
    let Some((p_tree, p_formula)) = &guard.lowered else {
        return (conservative, triples);
    };

    // §4.2: rename the *other* thread's locals so they are not conflated with
    // ours. Predicates over thread-local state additionally force the
    // conservative per-waiter strategy of §6 for the signal/broadcast choice.
    let avoid = interner.free_vars(own_guard);
    let p_other = interner.intern(&ctx.vcgen.rename_locals(p_tree, &avoid));
    let not_p_other = interner.mk_not(p_other);

    // Line 7 of Algorithm 1: is signalling ever necessary?
    triples += 1;
    let pre = interner.mk_and(vec![ctx.invariant, own_guard, not_p_other]);
    if ctx
        .vcgen
        .check_triple_ids(pre, &ccr.body, not_p_other)
        .is_valid()
    {
        return (
            SignalDecision {
                needed: false,
                conservative_fallback: false,
                ..conservative
            },
            triples,
        );
    }
    // Lines 9–12: conditional vs. unconditional.
    triples += 1;
    let condition = if ctx
        .vcgen
        .check_triple_ids(pre, &ccr.body, p_other)
        .is_valid()
    {
        SignalCondition::Unconditional
    } else {
        SignalCondition::Conditional
    };

    // Lines 13–16 (+ §4.3): signal vs. broadcast.
    let mut used_commutativity = false;
    let kind = if guard.has_locals {
        // §6 fixed strategy: waiters snapshot their locals, the runtime checks
        // each waiter's predicate, so the analysis conservatively broadcasts.
        NotificationKind::Broadcast
    } else {
        let p = *p_formula;
        let not_p = interner.mk_not(p);
        let mut can_signal = true;
        for other in ctx.monitor.all_ccrs().filter(|c| c.guard == guard.expr) {
            triples += 1;
            let pre = interner.mk_and(vec![ctx.invariant, p]);
            if ctx
                .vcgen
                .check_triple_ids(pre, &other.body, not_p)
                .is_valid()
            {
                continue;
            }
            // §4.3 improvement: if the waiter's body commutes with every other
            // CCR, check the sequential composition Body(w); Body(w').
            if ctx
                .commutativity
                .is_some_and(|comm| comm.with_all(other.id))
            {
                triples += 1;
                let seq =
                    expresso_monitor_lang::Stmt::seq(vec![ccr.body.clone(), other.body.clone()]);
                let pre = interner.mk_and(vec![ctx.invariant, own_guard, not_p]);
                if ctx.vcgen.check_triple_ids(pre, &seq, not_p).is_valid() {
                    used_commutativity = true;
                    continue;
                }
            }
            can_signal = false;
            break;
        }
        if can_signal {
            NotificationKind::Signal
        } else {
            NotificationKind::Broadcast
        }
    };

    (
        SignalDecision {
            ccr: ccr_id,
            predicate: guard.expr.clone(),
            needed: true,
            condition,
            kind,
            used_commutativity,
            conservative_fallback: false,
        },
        triples,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use expresso_abduction::infer_monitor_invariant;
    use expresso_monitor_lang::{check_monitor, parse_expr, parse_monitor};

    fn analyze(src: &str) -> (Monitor, ExplicitMonitor, PlacementReport) {
        let monitor = parse_monitor(src).unwrap();
        let table = check_monitor(&monitor).unwrap();
        let solver = Solver::new();
        let inv = infer_monitor_invariant(&monitor, &table, &solver).invariant;
        let (explicit, report) = place_signals(&monitor, &table, &solver, &inv, true);
        (monitor, explicit, report)
    }

    const RW: &str = r#"
        monitor RWLock {
            int readers = 0;
            bool writerIn = false;
            atomic void enterReader() { waituntil (!writerIn) { readers++; } }
            atomic void exitReader() { if (readers > 0) readers--; }
            atomic void enterWriter() { waituntil (readers == 0 && !writerIn) { writerIn = true; } }
            atomic void exitWriter() { writerIn = false; }
        }
    "#;

    #[test]
    fn readers_writers_matches_the_paper_walkthrough() {
        let (monitor, explicit, _) = analyze(RW);
        let ccr_of = |m: &str| monitor.method(m).unwrap().ccrs[0];
        let writer_guard = parse_expr("readers == 0 && !writerIn").unwrap();
        let reader_guard = parse_expr("!writerIn").unwrap();

        // enterReader and enterWriter do not signal at all (paper §2).
        assert!(explicit.notifications_for(ccr_of("enterReader")).is_empty());
        assert!(explicit.notifications_for(ccr_of("enterWriter")).is_empty());

        // exitReader conditionally signals (not broadcasts) one writer.
        let exit_reader = explicit.notifications_for(ccr_of("exitReader"));
        assert_eq!(exit_reader.len(), 1);
        assert_eq!(exit_reader[0].predicate, writer_guard);
        assert_eq!(exit_reader[0].kind, NotificationKind::Signal);
        assert_eq!(exit_reader[0].condition, SignalCondition::Conditional);

        // exitWriter signals a writer conditionally and broadcasts readers
        // unconditionally (paper §2 / Fig. 2).
        let exit_writer = explicit.notifications_for(ccr_of("exitWriter"));
        assert_eq!(exit_writer.len(), 2);
        let to_writers = exit_writer
            .iter()
            .find(|n| n.predicate == writer_guard)
            .unwrap();
        assert_eq!(to_writers.kind, NotificationKind::Signal);
        assert_eq!(to_writers.condition, SignalCondition::Conditional);
        let to_readers = exit_writer
            .iter()
            .find(|n| n.predicate == reader_guard)
            .unwrap();
        assert_eq!(to_readers.kind, NotificationKind::Broadcast);
        assert_eq!(to_readers.condition, SignalCondition::Unconditional);
    }

    #[test]
    fn counter_uses_commutativity_to_avoid_broadcast() {
        let src = r#"
            monitor Counter {
                int count = 0;
                atomic void release() { count++; }
                atomic void acquire() { waituntil (count > 0) { count--; } }
            }
        "#;
        let (monitor, explicit, report) = analyze(src);
        let release = monitor.method("release").unwrap().ccrs[0];
        let notes = explicit.notifications_for(release);
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].kind, NotificationKind::Signal);
        // The basic algorithm alone cannot prove the signal suffices; the
        // commutativity improvement must have been used.
        let guard = parse_expr("count > 0").unwrap();
        let decision = report.decision(release, &guard).unwrap();
        assert!(decision.used_commutativity);
    }

    #[test]
    fn commutativity_improvement_is_optional() {
        let src = r#"
            monitor Counter {
                int count = 0;
                atomic void release() { count++; }
                atomic void acquire() { waituntil (count > 0) { count--; } }
            }
        "#;
        let monitor = parse_monitor(src).unwrap();
        let table = check_monitor(&monitor).unwrap();
        let solver = Solver::new();
        let inv = infer_monitor_invariant(&monitor, &table, &solver).invariant;
        let (with, with_report) = place_signals(&monitor, &table, &solver, &inv, true);
        let (without, without_report) = place_signals(&monitor, &table, &solver, &inv, false);
        assert!(with.broadcast_count() <= without.broadcast_count());
        assert!(without.broadcast_count() >= 1);
        // Two CCRs, one pair; nothing is decided with the improvement off.
        assert_eq!(with_report.commutativity_pairs, 1);
        assert_eq!(without_report.commutativity_pairs, 0);
    }

    #[test]
    fn local_variable_guards_force_conservative_broadcast() {
        // Example 4.2: the guard mentions the waiter's local variable, so the
        // signaller must broadcast.
        let src = r#"
            monitor M {
                int y = 0;
                atomic void m1(int x) { waituntil (x < y) { x = y + 1; } }
                atomic void m2() { y = y + 2; }
            }
        "#;
        let (monitor, explicit, _) = analyze(src);
        let m2 = monitor.method("m2").unwrap().ccrs[0];
        let notes = explicit.notifications_for(m2);
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].kind, NotificationKind::Broadcast);
    }

    #[test]
    fn array_guards_fall_back_to_conditional_broadcast() {
        let src = r#"
            monitor M(int n) {
                int[] state = new int[n];
                int turn = 0;
                atomic void step(int id) { waituntil (state[id] > 0) { state[id] = 0; } }
                atomic void grant(int which) { state[which] = 1; }
            }
        "#;
        let (monitor, explicit, report) = analyze(src);
        let grant = monitor.method("grant").unwrap().ccrs[0];
        let notes = explicit.notifications_for(grant);
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].kind, NotificationKind::Broadcast);
        assert_eq!(notes[0].condition, SignalCondition::Conditional);
        let decision = report
            .decisions
            .iter()
            .find(|d| d.ccr == grant && d.needed)
            .expect("grant has a recorded decision");
        assert!(!decision.used_commutativity);
    }

    #[test]
    fn skipped_pairs_are_counted() {
        let (_, _, report) = analyze(RW);
        // 4 CCRs × 2 guards = 8 pairs; the walk-through shows 3 notifications,
        // so 5 pairs are skipped.
        assert_eq!(report.decisions.len(), 8);
        assert_eq!(report.pairs_considered, 8);
        assert_eq!(report.skipped, 5);
        assert!(report.triples_checked > 8);
        assert!(report.triples_per_pair() > 1.0);
        // Of the 6 CCR pairs only one is asked: the §4.3 step is reached
        // for the waiter `enterReader` alone, and its first pair, with
        // `exitReader`, does not commute.
        assert_eq!(report.commutativity_pairs, 1);
    }
}
