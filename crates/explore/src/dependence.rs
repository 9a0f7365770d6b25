//! The static dependence relation DPOR and the sleep sets prune with.
//!
//! Two transitions are *independent* when, from any configuration where both
//! are enabled, executing them in either order reaches the same configuration
//! and neither enables or disables the other — in **both** semantics, since
//! the explorer runs the implicit and explicit relations in lockstep. The
//! relation below over-approximates dependence (sound for partial-order
//! reduction; imprecision only costs reduction, never coverage) from three
//! statically computed ingredients per `(CCR, fired)` transition shape:
//!
//! * **shared variables** — a transition that writes a shared variable is
//!   dependent with any transition reading or writing it (guard evaluation
//!   included);
//! * **CCR queues** — a blocking guard identifies a wait queue; a block and
//!   any notification (explicit `signal`/`broadcast`, or the implicit wake
//!   loop, which notifies every queue whose guard mentions a written
//!   variable) touching the same queue are dependent;
//! * **the notified set** — rule (2b) serialises wake-ups through the global
//!   minimum of the notified set, so any transition that can mutate that set
//!   (a fire of a blocking CCR, which removes its own entry, or a fire that
//!   can notify someone) is dependent with any fire whose enabledness can
//!   hinge on being the minimum (a fire of a blocking CCR).

use expresso_monitor_lang::{CcrId, ExplicitMonitor, Expr, Monitor, VarTable};
use expresso_semantics::{Event, ExecError};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A set of events — a sleep set — as one word: bit `thread * shapes +
/// shape` (see [`Dependence::slot`]). The explorer only ever asks such a set
/// for membership and insertion, which are then single instructions, and a
/// search frame that holds one owns no heap. [`Dependence::check_width`]
/// refuses the workloads whose events do not fit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct EventSet(u128);

impl EventSet {
    pub fn contains(self, dep: &Dependence, event: Event) -> bool {
        self.0 >> dep.slot(event) & 1 == 1
    }

    pub fn insert(&mut self, dep: &Dependence, event: Event) {
        self.0 |= 1 << dep.slot(event);
    }

    /// The members, in slot order.
    pub fn iter(self, dep: &Dependence) -> impl Iterator<Item = Event> + '_ {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let slot = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Event {
                    thread: slot / dep.shapes,
                    ccr: CcrId(slot % dep.shapes / 2),
                    fired: slot % 2 == 1,
                }
            })
        })
    }
}

/// Pairwise fire-independence verdicts from the solver-discharged
/// refinement (`expresso_vcgen::refine_independence`), keyed on
/// `(CcrId, CcrId)` with the smaller id first; `true` means the pair of
/// fires was *proven* independent. The explorer takes the table as plain
/// data so the refinement stays optional and this crate stays free of any
/// solver dependency.
pub type IndependenceTable = BTreeMap<(CcrId, CcrId), bool>;

/// Static footprint of one `(CCR, fired)` transition shape.
#[derive(Debug, Default, Clone)]
struct Footprint {
    /// Shared variables read (guards passed through plus body reads).
    reads: BTreeSet<String>,
    /// Shared variables written by the body.
    writes: BTreeSet<String>,
    /// Wait queues touched: the CCR's own queue for blocking shapes, plus —
    /// for fires — every queue this transition can notify under either
    /// semantics.
    queues: BTreeSet<usize>,
    /// Fires only: this transition can insert into or remove from the
    /// notified set.
    notified_mutator: bool,
    /// Fires only: this transition's enabledness can depend on the minimum
    /// of the notified set (it may be a wake-up of a blocked thread).
    notified_sensitive: bool,
}

/// The precomputed dependence relation for one monitor. See the module docs.
///
/// Footprints are static per `(CCR, fired)` shape, so the whole relation is
/// flattened into a boolean adjacency matrix at construction time —
/// [`Dependence::dependent`] sits on the explorer's hottest path (once per
/// stack frame per executed transition, plus every sleep-set filter) and
/// must not re-walk variable sets.
#[derive(Debug)]
pub struct Dependence {
    /// Transition shapes: `2 * ccr_count` (block and fire per CCR).
    shapes: usize,
    /// Row-major `shapes x shapes` dependence matrix (refinement applied).
    matrix: Vec<bool>,
    /// The same matrix without the solver-discharged refinement. The
    /// explorer builds wakeup-sequence *contents* from this relation: the
    /// conservative footprint rules cover the enabling direction (a fire
    /// that makes another guard true shares its written variables), so a
    /// conservatively-downward-closed reordering stays executable — which
    /// the refined relation, proven only under co-enabledness, does not
    /// guarantee.
    conservative: Vec<bool>,
}

/// Matrix index of an event's shape.
fn shape(e: Event) -> usize {
    e.ccr.0 * 2 + usize::from(e.fired)
}

impl Dependence {
    /// Computes the footprints of every CCR of `monitor`, folding in the
    /// notifications of `explicit` so the relation is sound for the paired
    /// implicit/explicit system.
    ///
    /// `spurious` must be `true` when the exploration enumerates spurious
    /// wake-ups: a rule-1b re-sleep *removes* its entry from the notified
    /// set, which can shift the rule-2b minimum, so block shapes become
    /// notified-set mutators. When spurious wake-ups are not scheduled (the
    /// default), a block only ever inserts into the blocked set and the
    /// extra dependence edges would just cost reduction.
    pub fn new(
        monitor: &Monitor,
        table: &VarTable,
        explicit: &ExplicitMonitor,
        spurious: bool,
    ) -> Self {
        Dependence::with_refinement(monitor, table, explicit, spurious, None)
    }

    /// [`Dependence::new`] with a solver-discharged refinement: a fire×fire
    /// pair the table proves independent overrides every conservative rule
    /// (write conflicts, queue overlap, rule-2b minimum contention) — the
    /// proof covers exactly those interactions: the bodies commute on every
    /// shared variable and neither fire can disable the other, while the
    /// *enabling* direction stays covered by the untouched block shapes.
    /// Block events, and every pair the table does not prove, keep the
    /// conservative relation. Callers must pass `None` when spurious
    /// wake-ups are enumerated: a rule-1b re-sleep mutates the notified set
    /// in ways the static proof does not model.
    pub fn with_refinement(
        monitor: &Monitor,
        table: &VarTable,
        explicit: &ExplicitMonitor,
        spurious: bool,
        refined: Option<&IndependenceTable>,
    ) -> Self {
        let guards = monitor.guards();
        let queue_of =
            |guard: &Arc<Expr>| -> Option<usize> { guards.iter().position(|g| g == guard) };
        let shared = |vars: std::collections::HashSet<String>| -> BTreeSet<String> {
            vars.into_iter().filter(|v| table.is_shared(v)).collect()
        };
        let mut fire = Vec::with_capacity(monitor.ccrs.len());
        let mut block = Vec::with_capacity(monitor.ccrs.len());
        for ccr in monitor.all_ccrs() {
            let guard_vars = shared(ccr.guard.vars());
            let own_queue = queue_of(&ccr.guard);

            let blocking = !ccr.never_blocks();
            let mut b = Footprint {
                reads: guard_vars.clone(),
                notified_mutator: spurious && blocking,
                ..Footprint::default()
            };
            b.queues.extend(own_queue);
            block.push(b);

            let writes = shared(ccr.body.assigned_vars());
            let mut reads = shared(ccr.body.read_vars());
            reads.extend(guard_vars);
            let mut queues: BTreeSet<usize> = own_queue.into_iter().collect();
            // The implicit wake loop notifies every queue whose guard reads a
            // written variable; a conditional explicit signal re-evaluates
            // those guards too.
            for (q, g) in guards.iter().enumerate() {
                if g.vars().iter().any(|v| writes.contains(v)) {
                    queues.insert(q);
                }
            }
            for notification in explicit.notifications_for(ccr.id) {
                queues.extend(queue_of(&notification.predicate));
            }
            fire.push(Footprint {
                reads,
                writes,
                notified_mutator: blocking || !queues.is_empty(),
                notified_sensitive: blocking,
                queues,
            });
        }
        // Flatten the pairwise footprint comparison into the matrix; shape
        // index = ccr * 2 + fired (matching `shape`).
        let footprint = |s: usize| -> &Footprint {
            if s % 2 == 1 {
                &fire[s / 2]
            } else {
                &block[s / 2]
            }
        };
        let proven_independent = |a: usize, b: usize| -> bool {
            let (a_fires, b_fires) = (a % 2 == 1, b % 2 == 1);
            if !a_fires || !b_fires {
                return false;
            }
            let key = ((a / 2).min(b / 2), (a / 2).max(b / 2));
            refined
                .and_then(|t| t.get(&(CcrId(key.0), CcrId(key.1))))
                .copied()
                .unwrap_or(false)
        };
        let shapes = 2 * monitor.ccrs.len();
        let mut matrix = vec![false; shapes * shapes];
        let mut conservative = vec![false; shapes * shapes];
        for a in 0..shapes {
            for b in 0..shapes {
                let base = footprints_dependent(footprint(a), a % 2 == 1, footprint(b), b % 2 == 1);
                conservative[a * shapes + b] = base;
                matrix[a * shapes + b] = base && !proven_independent(a, b);
            }
        }
        Dependence {
            shapes,
            matrix,
            conservative,
        }
    }

    /// The bit of `event` in an [`EventSet`].
    fn slot(&self, event: Event) -> usize {
        event.thread * self.shapes + shape(event)
    }

    /// Refuses a workload of `threads` threads whose events — one per
    /// thread, CCR and outcome — outnumber the bits of an [`EventSet`]: a
    /// shift past the word would wrap in a release build and alias two
    /// events.
    ///
    /// # Errors
    ///
    /// [`ExecError::TooLarge`], with the count.
    pub(crate) fn check_width(&self, threads: usize) -> Result<(), ExecError> {
        let events = threads.saturating_mul(self.shapes);
        if events > u128::BITS as usize {
            return Err(ExecError::TooLarge(format!(
                "{threads} threads x {} CCRs x 2 outcomes = {events} events; an event set holds {}",
                self.shapes / 2,
                u128::BITS
            )));
        }
        Ok(())
    }

    /// Whether two transitions are dependent under the (possibly refined)
    /// relation. Same-thread transitions are always dependent (program
    /// order).
    pub fn dependent(&self, a: Event, b: Event) -> bool {
        a.thread == b.thread || self.matrix[shape(a) * self.shapes + shape(b)]
    }

    /// Whether two transitions are dependent under the *unrefined*
    /// footprint rules. Identical to [`Dependence::dependent`] when no
    /// refinement table was supplied.
    pub fn dependent_conservative(&self, a: Event, b: Event) -> bool {
        a.thread == b.thread || self.conservative[shape(a) * self.shapes + shape(b)]
    }

    /// The sleep set a child configuration inherits after `executed` runs:
    /// every slept transition that is independent of it. Shared by the split
    /// phase and the DFS so the two filters cannot drift.
    ///
    /// Retention deliberately uses the *conservative* relation: keeping a
    /// slept transition asleep across `executed` asserts that the two
    /// commute from every state reached in between, and only footprint
    /// disjointness gives that unconditionally. The refined relation is
    /// proven under co-enabledness and may not hold once `executed` has
    /// moved the state, so a refined-independent pair must wake up here —
    /// otherwise a slept event can survive down a branch until it is the
    /// only enabled continuation, starving the branch into a
    /// sleep-set-blocked terminal.
    pub(crate) fn inherit_sleep(&self, sleep: EventSet, executed: Event) -> EventSet {
        let mut kept = EventSet::default();
        for event in sleep.iter(self) {
            if !self.dependent_conservative(event, executed) {
                kept.insert(self, event);
            }
        }
        kept
    }
}

/// Pairwise dependence of two transition shapes (thread identity excluded —
/// handled at query time).
fn footprints_dependent(fa: &Footprint, a_fires: bool, fb: &Footprint, b_fires: bool) -> bool {
    let conflict = |x: &Footprint, y: &Footprint| {
        x.writes
            .iter()
            .any(|v| y.reads.contains(v) || y.writes.contains(v))
    };
    if conflict(fa, fb) || conflict(fb, fa) {
        return true;
    }
    // Queue interactions require a fire on at least one side: two blocks
    // only insert their own entries into the blocked *set*, which commutes
    // even on one queue.
    if (a_fires || b_fires) && fa.queues.intersection(&fb.queues).next().is_some() {
        return true;
    }
    // Rule (2b) serialisation through the global minimum of N.
    (fa.notified_mutator && fb.notified_sensitive) || (fb.notified_mutator && fa.notified_sensitive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use expresso_monitor_lang::{check_monitor, parse_monitor};

    #[test]
    fn blocks_commute_and_writers_conflict() {
        let monitor = parse_monitor(
            r#"
            monitor Counter {
                int count = 0;
                atomic void release() { count++; }
                atomic void acquire() { waituntil (count > 0) { count--; } }
            }
            "#,
        )
        .unwrap();
        let table = check_monitor(&monitor).unwrap();
        let explicit = ExplicitMonitor::broadcast_all(monitor.clone());
        let dep = Dependence::new(&monitor, &table, &explicit, false);
        let release = monitor.method("release").unwrap().ccrs[0];
        let acquire = monitor.method("acquire").unwrap().ccrs[0];
        let block = |t: usize| Event {
            thread: t,
            ccr: acquire,
            fired: false,
        };
        let fire = |t: usize, ccr| Event {
            thread: t,
            ccr,
            fired: true,
        };
        // Two different threads blocking on the same queue commute.
        assert!(!dep.dependent(block(0), block(1)));
        // A release writes `count`, which every acquire guard reads.
        assert!(dep.dependent(fire(0, release), block(1)));
        assert!(dep.dependent(fire(0, release), fire(1, release)));
        // Same-thread transitions are always dependent.
        assert!(dep.dependent(block(0), fire(0, acquire)));
        // Blocking fires serialise through the notified-set minimum.
        assert!(dep.dependent(fire(0, acquire), fire(1, acquire)));
    }

    #[test]
    fn refinement_overrides_fire_pairs_but_never_blocks() {
        let monitor = parse_monitor(
            r#"
            monitor Counter {
                int count = 0;
                atomic void release() { count++; }
                atomic void acquire() { waituntil (count > 0) { count--; } }
            }
            "#,
        )
        .unwrap();
        let table = check_monitor(&monitor).unwrap();
        let explicit = ExplicitMonitor::broadcast_all(monitor.clone());
        let release = monitor.method("release").unwrap().ccrs[0];
        let acquire = monitor.method("acquire").unwrap().ccrs[0];
        // A (hand-built) proof that release commutes with everything while
        // acquire can disable a sibling acquire.
        let mut refined = IndependenceTable::new();
        refined.insert((release, release), true);
        refined.insert((release, acquire), true);
        refined.insert((acquire, acquire), false);
        let dep = Dependence::with_refinement(&monitor, &table, &explicit, false, Some(&refined));
        let fire = |t: usize, ccr| Event {
            thread: t,
            ccr,
            fired: true,
        };
        let block = |t: usize| Event {
            thread: t,
            ccr: acquire,
            fired: false,
        };
        // Proven fire pairs drop every conservative edge …
        assert!(!dep.dependent(fire(0, release), fire(1, release)));
        assert!(!dep.dependent(fire(0, release), fire(1, acquire)));
        // … unproven fire pairs and every block shape keep them.
        assert!(dep.dependent(fire(0, acquire), fire(1, acquire)));
        assert!(dep.dependent(fire(0, release), block(1)));
        // Same-thread program order is untouchable.
        assert!(dep.dependent(fire(0, release), fire(0, acquire)));
    }

    #[test]
    fn disjoint_non_blocking_updates_are_independent() {
        let monitor = parse_monitor(
            r#"
            monitor Split {
                int a = 0;
                int b = 0;
                atomic void bumpA() { a++; }
                atomic void bumpB() { b++; }
                atomic void waitA() { waituntil (a > 0) { a--; } }
            }
            "#,
        )
        .unwrap();
        let table = check_monitor(&monitor).unwrap();
        let explicit = ExplicitMonitor::without_signals(monitor.clone());
        let dep = Dependence::new(&monitor, &table, &explicit, false);
        let bump_a = monitor.method("bumpA").unwrap().ccrs[0];
        let bump_b = monitor.method("bumpB").unwrap().ccrs[0];
        let a0 = Event {
            thread: 0,
            ccr: bump_a,
            fired: true,
        };
        let b1 = Event {
            thread: 1,
            ccr: bump_b,
            fired: true,
        };
        // bumpB touches no guard variable and no queue.
        assert!(!dep.dependent(a0, b1));
        // bumpA notifies waitA's queue, so it is a notified-set mutator, but
        // bumpB is not notified-sensitive — still independent.
        assert!(!dep.dependent(b1, a0));
    }
}
