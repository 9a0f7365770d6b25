//! The explicit-signal target language (paper §3.3).
//!
//! An explicit-signal monitor has the same fields, methods and CCR bodies as
//! its implicit-signal source; the difference is that every CCR carries a set
//! of *notifications* — `signal(S₁); broadcast(S₂)` in the paper — describing
//! which blocked predicates must be woken after the body executes.

use crate::ast::{Ccr, CcrId, Expr, Monitor};
use crate::check::VarTable;
use expresso_logic::Ident;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Whether a notification is guarded by a run-time check of the predicate.
///
/// The paper writes `?` for conditional notifications (the predicate is
/// evaluated before waking anyone) and `✓` for unconditional ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalCondition {
    /// `✓` — the analysis proved the predicate must hold, so no run-time check
    /// is needed.
    Unconditional,
    /// `?` — evaluate the predicate at run time and only notify when it holds.
    Conditional,
}

impl fmt::Display for SignalCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignalCondition::Unconditional => f.write_str("unconditional"),
            SignalCondition::Conditional => f.write_str("conditional"),
        }
    }
}

/// Whether one thread or every thread blocked on the predicate is woken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NotificationKind {
    /// Wake a single waiter (`signal` / `Condition.signal()`).
    Signal,
    /// Wake every waiter (`broadcast` / `Condition.signalAll()`).
    Broadcast,
}

impl fmt::Display for NotificationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NotificationKind::Signal => f.write_str("signal"),
            NotificationKind::Broadcast => f.write_str("broadcast"),
        }
    }
}

/// One entry of the Σ map of Algorithm 1: after executing a CCR body, the
/// runtime must notify threads blocked on `predicate`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notification {
    /// The blocked predicate being notified: the guard of a CCR of the
    /// monitor, shared with it.
    pub predicate: Arc<Expr>,
    /// Conditional (`?`) or unconditional (`✓`).
    pub condition: SignalCondition,
    /// Signal one waiter or broadcast to all of them.
    pub kind: NotificationKind,
}

impl fmt::Display for Notification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} [{}]", self.kind, self.predicate, self.condition)
    }
}

/// An explicit-signal monitor: the source monitor plus a notification set per CCR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplicitMonitor {
    /// The underlying monitor (fields, methods, guards and bodies are unchanged).
    pub monitor: Monitor,
    /// Σ: the notifications to perform after each CCR body.
    pub notifications: HashMap<CcrId, Vec<Notification>>,
}

impl ExplicitMonitor {
    /// Creates an explicit monitor with an empty notification map (no CCR
    /// signals anything). Useful as a baseline and in tests.
    pub fn without_signals(monitor: Monitor) -> Self {
        let notifications = monitor.ccrs.iter().map(|c| (c.id, Vec::new())).collect();
        ExplicitMonitor {
            monitor,
            notifications,
        }
    }

    /// Creates an explicit monitor that conservatively broadcasts every guard
    /// after every CCR (always correct, maximally inefficient). This models
    /// the naive baseline the paper's run-time systems improve upon.
    pub fn broadcast_all(monitor: Monitor) -> Self {
        let guards = monitor.guards();
        let notifications = monitor
            .ccrs
            .iter()
            .map(|c| {
                let notes = guards
                    .iter()
                    .cloned()
                    .map(|predicate| Notification {
                        predicate,
                        condition: SignalCondition::Conditional,
                        kind: NotificationKind::Broadcast,
                    })
                    .collect();
                (c.id, notes)
            })
            .collect();
        ExplicitMonitor {
            monitor,
            notifications,
        }
    }

    /// The notifications attached to a CCR (empty when none).
    pub fn notifications_for(&self, id: CcrId) -> &[Notification] {
        self.notifications
            .get(&id)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// The paper's `Signals(w)`: notifications of kind [`NotificationKind::Signal`].
    pub fn signals(&self, id: CcrId) -> Vec<&Notification> {
        self.notifications_for(id)
            .iter()
            .filter(|n| n.kind == NotificationKind::Signal)
            .collect()
    }

    /// The paper's `Broadcasts(w)`: notifications of kind [`NotificationKind::Broadcast`].
    pub fn broadcasts(&self, id: CcrId) -> Vec<&Notification> {
        self.notifications_for(id)
            .iter()
            .filter(|n| n.kind == NotificationKind::Broadcast)
            .collect()
    }

    /// Convenience accessor for the underlying CCR.
    pub fn ccr(&self, id: CcrId) -> &Ccr {
        self.monitor.ccr(id)
    }

    /// Total number of notifications across all CCRs (a coarse cost metric
    /// used by tests and the ablation benchmarks).
    pub fn notification_count(&self) -> usize {
        self.notifications.values().map(|v| v.len()).sum()
    }

    /// Number of broadcast notifications across all CCRs.
    pub fn broadcast_count(&self) -> usize {
        self.notifications
            .values()
            .flatten()
            .filter(|n| n.kind == NotificationKind::Broadcast)
            .count()
    }

    /// Number of conditional notifications across all CCRs.
    pub fn conditional_count(&self) -> usize {
        self.notifications
            .values()
            .flatten()
            .filter(|n| n.condition == SignalCondition::Conditional)
            .count()
    }
}

/// Dense identifier of a distinct blocking guard, assigned at build time.
///
/// Guards are grouped by *alpha-equivalence*: two guards that differ only in
/// the names of thread-local variables (method parameters, locals) denote the
/// same waiting class and share one id. The id doubles as an index into
/// [`NotificationPlan::guards`], so runtimes can keep per-guard state in a
/// plain `Vec` instead of hashing guard text on every call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GuardId(pub usize);

impl fmt::Display for GuardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "guard{}", self.0)
    }
}

/// Build-time information about one distinct guard class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardInfo {
    /// A representative expression of the class (the first guard seen).
    pub expr: Arc<Expr>,
    /// Whether the guard reads any thread-local variable. Local-mentioning
    /// guards cannot be decided by the notifier alone (paper §6): each waiter
    /// must be judged against its own local snapshot.
    pub mentions_local: bool,
}

/// A [`Notification`] whose predicate has been resolved to a [`GuardId`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedNotification {
    /// The guard slot to notify; `None` when the predicate matches no blocking
    /// guard of the monitor (the notification is a no-op at run time).
    pub target: Option<GuardId>,
    /// The predicate as written by the analysis.
    pub predicate: Arc<Expr>,
    /// Conditional (`?`) or unconditional (`✓`).
    pub condition: SignalCondition,
    /// Signal one waiter or broadcast to all of them.
    pub kind: NotificationKind,
    /// Whether the predicate reads any thread-local variable.
    pub mentions_local: bool,
}

/// The build-time resolution of an [`ExplicitMonitor`]'s guards and
/// notifications to dense ids.
///
/// Constructing the plan once per runtime removes all string hashing from the
/// signalling hot path and fixes two defects of text keying: structurally
/// identical guards rendered differently never arise (keys are canonical), and
/// alpha-renamed guards — `count >= need` vs `count >= want` — land in the
/// *same* slot instead of silently missing each other's notifications.
#[derive(Debug, Clone)]
pub struct NotificationPlan {
    guards: Vec<GuardInfo>,
    /// Guard slot of each CCR, indexed by `CcrId.0` (`None` for `true` guards).
    ccr_guards: Vec<Option<GuardId>>,
    /// Resolved notifications per CCR, indexed by `CcrId.0`.
    resolved: Vec<Vec<ResolvedNotification>>,
}

impl NotificationPlan {
    /// Resolves every guard and notification of `explicit` against the
    /// variable table produced by checking the monitor.
    pub fn new(explicit: &ExplicitMonitor, table: &VarTable) -> Self {
        let monitor = &explicit.monitor;
        let mut key_to_id: HashMap<String, GuardId> = HashMap::new();
        let mut guards: Vec<GuardInfo> = Vec::new();
        let mut ccr_guards = Vec::with_capacity(monitor.ccrs.len());
        for ccr in monitor.all_ccrs() {
            if ccr.never_blocks() {
                ccr_guards.push(None);
                continue;
            }
            let key = canonical_guard_key(&ccr.guard, table);
            let id = *key_to_id.entry(key).or_insert_with(|| {
                guards.push(GuardInfo {
                    expr: Arc::clone(&ccr.guard),
                    mentions_local: mentions_local(&ccr.guard, table),
                });
                GuardId(guards.len() - 1)
            });
            ccr_guards.push(Some(id));
        }
        let resolved = monitor
            .all_ccrs()
            .map(|ccr| {
                explicit
                    .notifications_for(ccr.id)
                    .iter()
                    .map(|n| ResolvedNotification {
                        target: key_to_id
                            .get(&canonical_guard_key(&n.predicate, table))
                            .copied(),
                        predicate: Arc::clone(&n.predicate),
                        condition: n.condition,
                        kind: n.kind,
                        mentions_local: mentions_local(&n.predicate, table),
                    })
                    .collect()
            })
            .collect();
        NotificationPlan {
            guards,
            ccr_guards,
            resolved,
        }
    }

    /// Iterates over all guard classes in id order (a runtime needs one
    /// slot per class).
    pub fn guards(&self) -> impl Iterator<Item = (GuardId, &GuardInfo)> {
        self.guards.iter().enumerate().map(|(i, g)| (GuardId(i), g))
    }

    /// The guard slot a CCR waits on (`None` when the CCR never blocks).
    pub fn guard_of(&self, id: CcrId) -> Option<GuardId> {
        self.ccr_guards.get(id.0).copied().flatten()
    }

    /// The resolved notifications to perform after a CCR's body.
    pub fn notifications(&self, id: CcrId) -> &[ResolvedNotification] {
        self.resolved.get(id.0).map(|v| v.as_slice()).unwrap_or(&[])
    }
}

fn mentions_local(expr: &Expr, table: &VarTable) -> bool {
    expr.vars().iter().any(|v| table.is_local(v))
}

/// Canonical text of a guard with thread-local variables alpha-renamed to
/// positional placeholders (`%0`, `%1`, … in first-occurrence order). Guards
/// that differ only in local names produce identical keys; `%` cannot appear
/// in a source identifier, so placeholders never collide with shared names.
pub fn canonical_guard_key(expr: &Expr, table: &VarTable) -> String {
    let mut map: HashMap<Ident, Ident> = HashMap::new();
    canonicalize(expr, table, &mut map).to_string()
}

fn canonicalize(expr: &Expr, table: &VarTable, map: &mut HashMap<Ident, Ident>) -> Expr {
    match expr {
        Expr::Int(_) | Expr::Bool(_) => expr.clone(),
        Expr::Var(v) => Expr::Var(rename(v, table, map)),
        Expr::Index(a, idx) => Expr::Index(
            rename(a, table, map),
            Box::new(canonicalize(idx, table, map)),
        ),
        Expr::Unary(op, e) => Expr::Unary(*op, Box::new(canonicalize(e, table, map))),
        Expr::Binary(op, l, r) => {
            let l = canonicalize(l, table, map);
            let r = canonicalize(r, table, map);
            Expr::Binary(*op, Box::new(l), Box::new(r))
        }
    }
}

fn rename(v: &Ident, table: &VarTable, map: &mut HashMap<Ident, Ident>) -> Ident {
    if table.is_local(v) {
        let next = map.len();
        map.entry(v.clone())
            .or_insert_with(|| format!("%{next}"))
            .clone()
    } else {
        v.clone()
    }
}

impl fmt::Display for ExplicitMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "explicit monitor {} {{", self.monitor.name)?;
        for ccr in self.monitor.all_ccrs() {
            let label = self.monitor.ccr_label(ccr.id);
            writeln!(f, "  {label}: waituntil ({})", ccr.guard)?;
            for n in self.notifications_for(ccr.id) {
                writeln!(f, "    -> {n}")?;
            }
        }
        writeln!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_monitor;

    fn rw() -> Monitor {
        parse_monitor(
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
        .unwrap()
    }

    #[test]
    fn without_signals_has_no_notifications() {
        let em = ExplicitMonitor::without_signals(rw());
        assert_eq!(em.notification_count(), 0);
        for ccr in em.monitor.all_ccrs() {
            assert!(em.signals(ccr.id).is_empty());
            assert!(em.broadcasts(ccr.id).is_empty());
        }
    }

    #[test]
    fn broadcast_all_notifies_every_guard_everywhere() {
        let em = ExplicitMonitor::broadcast_all(rw());
        // 4 CCRs × 2 guards.
        assert_eq!(em.notification_count(), 8);
        assert_eq!(em.broadcast_count(), 8);
        assert_eq!(em.conditional_count(), 8);
    }

    #[test]
    fn display_lists_notifications() {
        let em = ExplicitMonitor::broadcast_all(rw());
        let text = em.to_string();
        assert!(text.contains("broadcast"));
        assert!(text.contains("enterWriter[0]"));
    }

    #[test]
    fn plan_assigns_dense_guard_ids() {
        let monitor = rw();
        let table = crate::check::check_monitor(&monitor).unwrap();
        let em = ExplicitMonitor::broadcast_all(monitor);
        let plan = NotificationPlan::new(&em, &table);
        // Two distinct guards: `!writerIn` and `readers == 0 && !writerIn`.
        assert_eq!(plan.guards().count(), 2);
        let enter_reader = em.monitor.method("enterReader").unwrap().ccrs[0];
        let exit_reader = em.monitor.method("exitReader").unwrap().ccrs[0];
        assert!(plan.guard_of(enter_reader).is_some());
        assert_eq!(plan.guard_of(exit_reader), None);
        // Every broadcast-all notification resolves to a slot.
        for ccr in em.monitor.all_ccrs() {
            for n in plan.notifications(ccr.id) {
                assert!(n.target.is_some(), "unresolved predicate {}", n.predicate);
            }
        }
    }

    #[test]
    fn alpha_equivalent_guards_share_a_slot() {
        let monitor = parse_monitor(
            r#"
            monitor Pool {
                int count = 0;
                atomic void take(int need) { waituntil (count >= need) { count = count - need; } }
                atomic void grab(int want) { waituntil (count >= want) { count = count - want; } }
                atomic void put(int n) { count = count + n; }
            }
            "#,
        )
        .unwrap();
        let table = crate::check::check_monitor(&monitor).unwrap();
        // Structurally distinct texts …
        assert_eq!(monitor.guards().len(), 2);
        let em = ExplicitMonitor::broadcast_all(monitor);
        let plan = NotificationPlan::new(&em, &table);
        // … but one alpha-equivalence class, so notifications aimed at either
        // rendering reach the same waiters.
        let classes: Vec<_> = plan.guards().collect();
        assert_eq!(classes.len(), 1);
        let take = em.monitor.method("take").unwrap().ccrs[0];
        let grab = em.monitor.method("grab").unwrap().ccrs[0];
        assert_eq!(plan.guard_of(take), plan.guard_of(grab));
        assert_eq!(plan.guard_of(take), Some(classes[0].0));
        assert!(classes[0].1.mentions_local);
    }

    #[test]
    fn canonical_keys_rename_locals_positionally() {
        let monitor = parse_monitor(
            r#"
            monitor M {
                int count = 0;
                atomic void a(int x, int y) { waituntil (count + x >= y) { count++; } }
            }
            "#,
        )
        .unwrap();
        let table = crate::check::check_monitor(&monitor).unwrap();
        let guard = &monitor.guards()[0];
        let key = canonical_guard_key(guard, &table);
        assert_eq!(key, "((count + %0) >= %1)");
    }
}
