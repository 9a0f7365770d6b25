//! The per-root DFS engine: source sets with wakeup trees (Optimal DPOR),
//! sleep sets, preemption bounding and fingerprint dedup over the paired
//! steppers.
//!
//! The search walks *one* pair of steppers down and up
//! ([`Pair::step`] / [`Pair::unstep`]); a frame of its stack holds
//! bookkeeping only — event sets as words, its enabled events as a slice of
//! one buffer all frames share — so pushing a frame copies no configuration
//! and allocates nothing. What still allocates is what a race creates: the
//! wakeup sequences.

use crate::dependence::{Dependence, EventSet};
use crate::{DirectionStats, ExploreConfig, Strategy};
use expresso_logic::FxHasher;
use expresso_semantics::{Event, ExecError, Stepper};
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;

/// The two semantics run in lockstep: scheduling choices are drawn from the
/// *driver*'s enabled set; the *follower* (absent in counting-only runs)
/// must accept every chosen event under its own transition relation and
/// agree on the shared-state snapshot after it — the per-step form of the
/// Definition 3.4 trace-inclusion check.
#[derive(Debug, Clone)]
pub(crate) struct Pair<'a> {
    pub driver: Stepper<'a>,
    pub follower: Option<Stepper<'a>>,
}

/// Outcome of one lockstep step.
pub(crate) enum StepOutcome {
    Ok,
    /// The follower rejected the event or disagreed on the resulting state.
    /// The pair is spent: the driver has stepped and the follower may not
    /// have.
    Divergence(String),
}

impl Pair<'_> {
    /// A spurious re-block (rule 1b: the driver's thread is already blocked
    /// and goes back to sleep) is driver-internal notified-set bookkeeping —
    /// it changes no observable state, and the follower's notified set
    /// legitimately differs (e.g. an unconditional signal notifies a
    /// false-guard waiter the implicit wake loop never would). Forwarding it
    /// would report a false divergence, so the follower skips the stutter.
    fn stutters(&self, event: Event) -> bool {
        !event.fired && self.driver.is_blocked(event.thread)
    }

    /// Steps both semantics. The event must come from the driver's enabled
    /// set; a driver rejection is therefore an internal error, while a
    /// follower rejection is a conformance divergence.
    pub fn step(&mut self, event: Event) -> Result<StepOutcome, ExecError> {
        let stutter = self.stutters(event);
        self.driver.step(event)?;
        if stutter {
            return Ok(StepOutcome::Ok);
        }
        if let Some(follower) = &mut self.follower {
            match follower.step(event) {
                Ok(()) => {
                    if follower.frame() != self.driver.frame() {
                        return Ok(StepOutcome::Divergence(format!(
                            "shared-state snapshots diverged after {event}"
                        )));
                    }
                }
                Err(ExecError::Infeasible(reason)) => {
                    return Ok(StepOutcome::Divergence(format!(
                        "event {event} is infeasible for the other semantics: {reason}"
                    )))
                }
                Err(other) => return Err(other),
            }
        }
        Ok(StepOutcome::Ok)
    }

    /// Takes back the last [`Pair::step`] that returned [`StepOutcome::Ok`].
    /// Whether the follower took part is read off the restored driver, the
    /// way `step` read it.
    pub fn unstep(&mut self) {
        let event = self.driver.unstep().expect("a step to take back");
        if !self.stutters(event) {
            if let Some(follower) = &mut self.follower {
                follower.unstep();
            }
        }
    }

    fn fingerprint(&self) -> (u64, u64) {
        (
            self.driver.fingerprint(),
            self.follower.as_ref().map_or(0, |f| f.fingerprint()),
        )
    }
}

/// Dedup-cache key: the paired state plus everything else that determines
/// the subtree a deterministic DFS explores from it — the sleep set, the
/// forced wakeup-sequence suffix the node was entered under, the remaining
/// depth and preemption budget, and (since a preemption is relative to the
/// previously scheduled thread) which thread ran last.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    fingerprint: (u64, u64),
    sleep: EventSet,
    forced: Vec<Event>,
    steps: usize,
    budget: Option<usize>,
    last_thread: Option<usize>,
    /// The event that created the subtree's root. Parent-frame wakeup
    /// insertions race against it, so replaying a cached subtree is only
    /// exact when the incoming event matches.
    incoming: Event,
}

/// What a fully explored subtree contributes on a dedup hit: its counters,
/// the set of events it executed, and the wakeup sequences its races
/// scheduled at its *parent* frame. Those sequences are context-independent
/// — their contents and the decision to schedule them are functions of the
/// subtree and its incoming event alone (both part of the cache key) — so
/// replaying them at another occurrence reproduces a live walk exactly,
/// which is what keeps dedup'd execution counts identical to a dedup-free
/// run. Races reaching *beyond* the parent frame are not relocatable, so a
/// hit is only taken when no cached event can race with the live ancestry
/// (the `relocatable` guard at the merge site).
struct CacheEntry {
    summary: EventSet,
    /// The subtree's logical counters; none of it is live work on a hit.
    stats: DirectionStats,
    parent_inserts: Vec<Vec<Event>>,
}

/// One frame of the DFS stack: the exploration bookkeeping of the
/// configuration the pair is in when the frame is on top, *before* a
/// scheduling choice. The frame above it is one [`Pair::step`] further.
struct Node {
    /// The driver's enabled events, in deterministic thread order: this
    /// frame's range of the buffer all frames share.
    enabled: (usize, usize),
    /// Wakeup sequences scheduled by races found deeper in the search; each
    /// becomes a forced branch unless the sleep set proves it redundant
    /// first. (Under [`Strategy::Naive`] this is pre-seeded with every
    /// enabled event, which degenerates to full enumeration.)
    pending: VecDeque<Vec<Event>>,
    /// Remainder of the wakeup sequence this node was entered under, imposed
    /// on the first branch so the race reversal that scheduled the sequence
    /// actually happens.
    forced: Vec<Event>,
    /// Whether the first (forced or free) branch has been taken; later
    /// branches come only from `pending`.
    started: bool,
    /// Events whose exploration from this node is redundant (sleep set).
    sleep: EventSet,
    /// Remaining preemption budget on the path to this node.
    budget: Option<usize>,
    /// Thread of the event that created this node (preemption accounting).
    last_thread: Option<usize>,
    /// Dedup key this node was created under, when caching is on.
    key: Option<CacheKey>,
    /// Counters of the subtree rooted here (cache merges included).
    sub: DirectionStats,
    /// Every event executed in the subtree rooted here.
    summary: EventSet,
    /// Wakeup-sequence candidates races in this node's subtree aimed at its
    /// parent frame (recorded before the reversibility filter, which is the
    /// one context-dependent condition — re-evaluated on replay).
    parent_inserts: Vec<Vec<Event>>,
}

impl Node {
    /// This frame's enabled events, out of the buffer all frames share.
    fn enabled<'e>(&self, events: &'e [Event]) -> &'e [Event] {
        &events[self.enabled.0..self.enabled.1]
    }

    /// A frame whose `enabled` events sit at `from` in the shared buffer.
    #[allow(clippy::too_many_arguments)]
    fn new(
        from: usize,
        enabled: &[Event],
        sleep: EventSet,
        budget: Option<usize>,
        last_thread: Option<usize>,
        key: Option<CacheKey>,
        forced: Vec<Event>,
        dpor: bool,
    ) -> Self {
        // DPOR nodes branch on demand: one forced-or-free first branch, then
        // only the wakeup sequences races schedule. Naive nodes enumerate
        // every enabled event, expressed as pre-seeded singleton sequences.
        let (pending, forced, started) = if dpor {
            (VecDeque::new(), forced, false)
        } else {
            (enabled.iter().map(|e| vec![*e]).collect(), Vec::new(), true)
        };
        Node {
            enabled: (from, from + enabled.len()),
            pending,
            forced,
            started,
            sleep,
            budget,
            last_thread,
            key,
            sub: DirectionStats::default(),
            summary: EventSet::default(),
            parent_inserts: Vec::new(),
        }
    }
}

/// Bitmask over path indices. A path is shorter than
/// [`ExploreConfig::max_steps`], which [`check_depth`] holds to the width.
type Mask = u128;

/// Refuses a step bound whose schedules could outgrow a [`Mask`]: in a
/// release build the shift for path index 128 would wrap onto index 0 and
/// order two unrelated events.
///
/// # Errors
///
/// [`ExecError::TooLarge`], with the bound.
pub(crate) fn check_depth(max_steps: usize) -> Result<(), ExecError> {
    if max_steps > Mask::BITS as usize {
        return Err(ExecError::TooLarge(format!(
            "max_steps = {max_steps} events per schedule; a happens-before set holds {}",
            Mask::BITS
        )));
    }
    Ok(())
}

/// Happens-before sets of one executed event, tracked under both relations.
/// Race detection and the covered-mask skip use the refined relation (that
/// is where the reduction comes from); wakeup-sequence *contents* are
/// filtered by the conservative relation, whose independence preserves
/// enabledness, so every forced reordering is actually executable — the
/// property behind the `sleep_set_blocked == 0` optimality witness.
#[derive(Clone, Copy, Default)]
struct Hb {
    refined: Mask,
    conservative: Mask,
}

fn mask_bit(mask: Mask, i: usize) -> bool {
    mask >> i & 1 == 1
}

/// Optimal-DPOR race detection for executing `event` after `path`
/// (`path[i]` was executed from `stack[i]`; `hb[i]` is its happens-before
/// set as a bitmask over path indices). One downward pass finds every
/// *direct* race — a dependent `path[i]` on another thread that is not
/// already ordered before `event` through a later dependent event — and
/// schedules its reversal at `stack[i]` as a wakeup sequence: the events
/// after `i` that do not happen-after `path[i]`, then `event` itself.
/// Returns `event`'s own happens-before mask for the frame about to be
/// pushed.
fn register_races(
    stack: &mut [Node],
    events: &[Event],
    path: &[Event],
    hb: &[Hb],
    event: Event,
    dep: &Dependence,
) -> Hb {
    let len = path.len();
    // Accumulates hb(event): the union of hb[i] ∪ {i} over every dependent
    // predecessor i — transitive because each hb[i] already is. `covered`
    // tracks the refined relation (race detection); `conservative` the
    // unrefined one (wakeup-sequence construction).
    let mut covered: Mask = 0;
    let mut conservative: Mask = 0;
    for i in (0..len).rev() {
        if dep.dependent_conservative(path[i], event) {
            conservative |= hb[i].conservative | 1 << i;
        }
        if !dep.dependent(path[i], event) {
            continue;
        }
        if path[i].thread != event.thread && !mask_bit(covered, i) {
            // The reversal's content is the conservative notdep: events
            // conservatively ordered after `path[i]` are dropped, and the
            // conservative hb masks are transitively closed, so the
            // sequence is causally downward-closed within the window and
            // executes step for step from `stack[i]`.
            let mut v: Vec<Event> = (i + 1..len)
                .filter(|&k| !mask_bit(hb[k].conservative, i))
                .map(|k| path[k])
                .collect();
            v.push(event);
            // A race is only schedulable when it is *reversible*: `event`'s
            // thread must have been schedulable at `stack[i]` at all. When
            // it was sitting in the blocked queue there (the raced-out
            // event is what woke it), the "reversal" is not an execution —
            // the blocked interleavings were already covered through the
            // block event's own races when it was executed upstream.
            let reversible = stack[i]
                .enabled(events)
                .iter()
                .any(|e| e.thread == event.thread);
            // Record the candidate on the frame directly above i before
            // the reversibility filter: everything else about this
            // insertion is a function of that frame's subtree and
            // incoming event, while reversibility reads `stack[i]` and
            // is re-checked when a cached copy of the subtree replays
            // the candidate under a different parent.
            if !stack[i + 1].parent_inserts.contains(&v) {
                stack[i + 1].parent_inserts.push(v.clone());
            }
            if reversible {
                let node = &mut stack[i];
                if !node.pending.contains(&v) {
                    node.pending.push_back(v);
                }
            }
        }
        covered |= hb[i].refined | 1 << i;
    }
    Hb {
        refined: covered,
        conservative,
    }
}

/// The wakeup-sequence redundancy check ("weak initials" against the sleep
/// set): `v` is redundant iff some slept event occurs in `v` with nothing
/// before it in `v` dependent on it — executing `v` would then just re-walk
/// a reordering of an already-explored subtree. The commutation argument
/// (sliding the slept event to the front of `v`) must hold from the states
/// actually traversed, so it uses the conservative relation; the refined
/// one only holds under co-enabledness.
fn redundant_by_sleep(v: &[Event], sleep: EventSet, dep: &Dependence) -> bool {
    v.iter().enumerate().any(|(m, ev)| {
        sleep.contains(dep, *ev) && v[..m].iter().all(|u| !dep.dependent_conservative(*u, *ev))
    })
}

/// Whether some slept transition commutes (conservatively — footprint
/// disjointness, the unconditional relation) with *every* event any other
/// thread can still produce. When it does, the whole subtree is covered by
/// the sibling that ran the slept transition first: any continuation either
/// fires it (slide it to the front — equivalent to the explored sibling) or
/// starves into a state where it is the only enabled transition, still
/// asleep. Optimal DPOR never enters such a subtree; this is the check that
/// cuts it at the door instead of discovering the starvation at the leaf as
/// a sleep-set-blocked execution.
///
/// Only *other* threads' residuals matter: the slept transition is its own
/// thread's next step, so program order already keeps that thread from
/// running ahead of it.
fn starved_by_sleep(sleep: EventSet, driver: &Stepper<'_>, dep: &Dependence) -> bool {
    sleep.iter(dep).any(|s| {
        (0..driver.thread_count())
            .filter(|&t| t != s.thread)
            .all(|t| {
                driver.residual_ccrs(t).iter().all(|&ccr| {
                    [true, false].into_iter().all(|fired| {
                        !dep.dependent_conservative(
                            s,
                            Event {
                                thread: t,
                                ccr,
                                fired,
                            },
                        )
                    })
                })
            })
    })
}

/// Spends preemption budget for executing `event` after `last_thread`: a
/// preemption is switching away from a thread that still has an enabled
/// event. Returns the child's remaining budget, or `None` when the bound is
/// exhausted and the choice must be pruned. Shared by the split phase and
/// the DFS so the two cannot drift.
pub(crate) fn spend_preemption_budget(
    budget: Option<usize>,
    last_thread: Option<usize>,
    enabled: &[Event],
    event: Event,
) -> Option<Option<usize>> {
    let preempts =
        last_thread.is_some_and(|q| q != event.thread && enabled.iter().any(|e| e.thread == q));
    match budget {
        Some(0) if preempts => None,
        Some(b) => Some(Some(b - usize::from(preempts))),
        None => Some(None),
    }
}

/// A subtree exploration result: the counters plus, when the lockstep check
/// failed, the full diverging event sequence with the follower's reason.
pub(crate) type RootOutcome = Result<(DirectionStats, Option<(Vec<Event>, String)>), ExecError>;

/// Exhaustively explores the subtree rooted at `pair`'s configuration
/// (created by executing `prefix` from the initial one). Returns the
/// subtree's counters and, when the lockstep check failed, the full
/// diverging event sequence with the follower's reason.
pub(crate) fn explore_root(
    mut pair: Pair<'_>,
    prefix: Vec<Event>,
    sleep: EventSet,
    budget: Option<usize>,
    last_thread: Option<usize>,
    dep: &Dependence,
    cfg: &ExploreConfig,
) -> RootOutcome {
    let _span = expresso_obs::span!("explore.subtree");
    let dpor = cfg.strategy == Strategy::Dpor;
    let dedup = dpor && cfg.dedup_states;
    // Only ever probed, never iterated, so the hasher cannot change the
    // order of anything the search does.
    let mut cache: HashMap<CacheKey, CacheEntry, BuildHasherDefault<FxHasher>> = HashMap::default();
    let mut stats = DirectionStats::default();
    // Live executions actually walked by this DFS (cache merges excluded):
    // the wall-clock governor behind `max_executions_per_root`.
    let mut live_execs = 0usize;

    // The enabled events of every frame on the stack, bottom frame first.
    let mut events: Vec<Event> = Vec::new();
    pair.driver.enabled_into(&mut events)?;
    if pair.driver.steps() >= cfg.max_steps {
        stats.executions += 1;
        stats.depth_capped += 1;
        return Ok((stats, None));
    }
    if events.is_empty() {
        stats.executions += 1;
        return Ok((stats, None));
    }
    if events.iter().all(|ev| sleep.contains(dep, *ev)) {
        // A split-phase prefix whose every continuation an earlier sibling
        // covers: cut before any work is done.
        stats.sleep_prunes += 1;
        return Ok((stats, None));
    }
    if dpor && starved_by_sleep(sleep, &pair.driver, dep) {
        // A slept transition commutes with this root's entire residual
        // program: every descent here would starve into a sleep-set-blocked
        // leaf. Covered by the sibling root that ran it first.
        stats.sleep_prunes += 1;
        return Ok((stats, None));
    }
    let mut stack = vec![Node::new(
        0,
        &events,
        sleep,
        budget,
        last_thread,
        None,
        Vec::new(),
        dpor,
    )];
    // path[i] is the event executed from stack[i]; len == stack.len() - 1.
    let mut path: Vec<Event> = Vec::new();
    // hb[i]: happens-before set of path[i], as a bitmask over path indices.
    let mut hb: Vec<Hb> = Vec::new();

    loop {
        if live_execs >= cfg.max_executions_per_root {
            stats.capped_roots = 1;
            for node in stack {
                stats.merge(&node.sub);
            }
            return Ok((stats, None));
        }
        let top_idx = stack.len() - 1;

        // Select the next branch. The first branch honours the forced wakeup
        // suffix (falling back to a free choice when it is stale, slept or
        // unaffordable); every later branch is a pending wakeup sequence
        // that survives the sleep-set redundancy check.
        let mut selection: Option<(Event, Option<usize>, Vec<Event>)> = None;
        loop {
            let top = &mut stack[top_idx];
            let enabled = top.enabled(&events);
            if !top.started {
                top.started = true;
                let mut forced = std::mem::take(&mut top.forced);
                if let Some(first) = forced.first() {
                    let actual = enabled
                        .iter()
                        .copied()
                        .find(|e| e.thread == first.thread)
                        .filter(|ev| !top.sleep.contains(dep, *ev));
                    if let Some(ev) = actual {
                        match spend_preemption_budget(top.budget, top.last_thread, enabled, ev) {
                            Some(b) => {
                                forced.remove(0);
                                selection = Some((ev, b, forced));
                                break;
                            }
                            None => top.sub.preemption_prunes += 1,
                        }
                    }
                }
                for &ev in enabled {
                    if top.sleep.contains(dep, ev) {
                        continue;
                    }
                    match spend_preemption_budget(top.budget, top.last_thread, enabled, ev) {
                        Some(b) => {
                            selection = Some((ev, b, Vec::new()));
                            break;
                        }
                        None => top.sub.preemption_prunes += 1,
                    }
                }
                if selection.is_some() {
                    break;
                }
                continue;
            }
            let Some(mut v) = top.pending.pop_front() else {
                break;
            };
            if dpor && redundant_by_sleep(&v, top.sleep, dep) {
                top.sub.sleep_prunes += 1;
                continue;
            }
            let Some(ev) = enabled.iter().copied().find(|e| e.thread == v[0].thread) else {
                // The sequence's first thread is no longer schedulable in
                // this shape (its event changed across the reordering):
                // degrade to the conservative thread-granularity fallback.
                for &ev in enabled {
                    if !top.pending.iter().any(|p| p[..] == [ev]) {
                        top.pending.push_back(vec![ev]);
                    }
                }
                continue;
            };
            if top.sleep.contains(dep, ev) {
                top.sub.sleep_prunes += 1;
                continue;
            }
            match spend_preemption_budget(top.budget, top.last_thread, enabled, ev) {
                Some(b) => {
                    v.remove(0);
                    selection = Some((ev, b, v));
                    break;
                }
                None => top.sub.preemption_prunes += 1,
            }
        }
        let Some((event, child_budget, forced_rest)) = selection else {
            // Node exhausted: fold the completed subtree into the parent and
            // keep it for the next configuration that matches its key.
            let node = stack.pop().expect("loop runs with a non-empty stack");
            events.truncate(node.enabled.0);
            let Some(parent) = stack.last_mut() else {
                stats.merge(&node.sub);
                return Ok((stats, None));
            };
            pair.unstep();
            let incoming = path.pop().expect("non-root frame has an incoming event");
            hb.pop();
            parent.sub.merge(&node.sub);
            if dpor {
                parent.sleep.insert(dep, incoming);
            }
            parent.summary.insert(dep, incoming);
            parent.summary.union(node.summary);
            if let Some(key) = node.key {
                cache.insert(
                    key,
                    CacheEntry {
                        summary: node.summary,
                        stats: DirectionStats {
                            live_transitions: 0,
                            ..node.sub
                        },
                        parent_inserts: node.parent_inserts,
                    },
                );
            }
            continue;
        };

        let event_hb = if dpor {
            register_races(&mut stack, &events, &path, &hb, event, dep)
        } else {
            Hb::default()
        };

        match pair.step(event)? {
            StepOutcome::Ok => {}
            StepOutcome::Divergence(reason) => {
                let mut full = prefix;
                full.extend(path.iter().copied());
                full.push(event);
                for node in stack {
                    stats.merge(&node.sub);
                }
                stats.transitions += 1;
                stats.live_transitions += 1;
                return Ok((stats, Some((full, reason))));
            }
        }
        let top = &mut stack[top_idx];
        top.sub.transitions += 1;
        top.sub.live_transitions += 1;

        let child_sleep = if dpor {
            dep.inherit_sleep(top.sleep, event)
        } else {
            EventSet::default()
        };
        let child_from = events.len();
        pair.driver.enabled_into(&mut events)?;
        let child_enabled = &events[child_from..];

        // Terminal child states are accounted without pushing a frame.
        let terminal = if pair.driver.steps() >= cfg.max_steps {
            Some((1usize, 1usize, 0usize, 0usize)) // (executions, depth_capped, blocked, starved)
        } else if child_enabled.is_empty() {
            Some((1, 0, 0, 0))
        } else if child_enabled
            .iter()
            .all(|ev| child_sleep.contains(dep, *ev))
        {
            // Every remaining continuation is equivalent to an explored
            // execution. How we got here decides the classification: a
            // *block* step writes nothing and notifies nobody, so no other
            // thread can observe it — the branch ran nothing beyond its
            // parent's prefix and is cut as an ordinary sleep prune. A
            // *fired* step did real work to reach a covered state, which is
            // exactly the sleep-set-blocked waste Optimal DPOR must never
            // produce: count it in the optimality-witness counter.
            if event.fired {
                Some((0, 0, 1, 0))
            } else {
                Some((0, 0, 0, 1))
            }
        } else if dpor && starved_by_sleep(child_sleep, &pair.driver, dep) {
            // A slept transition commutes with the entire residual program:
            // the subtree can only end sleep-set-blocked, and the sibling
            // that ran the slept transition first already covers it.
            Some((0, 0, 0, 1))
        } else {
            None
        };
        if let Some((execs, capped, blocked, starved)) = terminal {
            events.truncate(child_from);
            pair.unstep();
            top.sub.executions += execs;
            top.sub.depth_capped += capped;
            top.sub.sleep_set_blocked += blocked;
            top.sub.sleep_prunes += starved;
            live_execs += execs;
            if dpor {
                top.sleep.insert(dep, event);
            }
            top.summary.insert(dep, event);
            continue;
        }

        let key = dedup.then(|| CacheKey {
            fingerprint: pair.fingerprint(),
            sleep: child_sleep,
            forced: forced_rest.clone(),
            steps: pair.driver.steps(),
            budget: child_budget,
            // Which thread ran last shapes the subtree only while a
            // preemption bound is active; keying on it unconditionally would
            // needlessly split identical unbounded subtrees.
            last_thread: child_budget.and(Some(event.thread)),
            incoming: event,
        });
        // Exactness guard: a live walk of the subtree must register no race
        // against any frame strictly above the current one — those reversals
        // are not captured by the entry. The incoming event itself is part
        // of the key, so its parent-frame races are.
        let merge = key.as_ref().and_then(|k| cache.get(k)).filter(|entry| {
            entry.summary.iter(dep).all(|ev| {
                path.iter()
                    .all(|p| p.thread == ev.thread || !dep.dependent(*p, ev))
            })
        });
        if let Some(entry) = merge {
            // Replay the wakeup sequences the subtree scheduled at its
            // parent frame, re-checking reversibility (the one condition
            // that reads this frame rather than the subtree).
            let enabled = top.enabled(&events);
            for v in &entry.parent_inserts {
                let target = *v.last().expect("wakeup sequences are non-empty");
                let reversible = enabled.iter().any(|e| e.thread == target.thread);
                if reversible && !top.pending.contains(v) {
                    top.pending.push_back(v.clone());
                }
            }
            top.sub.dedup_hits += 1;
            top.sub.merge(&entry.stats);
            top.sleep.insert(dep, event);
            top.summary.insert(dep, event);
            top.summary.union(entry.summary);
            events.truncate(child_from);
            pair.unstep();
            continue;
        }

        path.push(event);
        hb.push(event_hb);
        stack.push(Node::new(
            child_from,
            &events[child_from..],
            child_sleep,
            child_budget,
            Some(event.thread),
            key,
            forced_rest,
            dpor,
        ));
    }
}
