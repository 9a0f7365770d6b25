//! Systematic schedule exploration: a DPOR-based stateless model checker for
//! implicit-vs-explicit monitor conformance.
//!
//! The conformance harness samples seeded random schedules; this crate
//! upgrades that to *bounded exhaustive* checking. For a bounded workload
//! (each thread runs a fixed sequence of monitor calls) it enumerates every
//! schedule of one semantics — the **driver** — through the shared
//! [`expresso_semantics::Stepper`], while a **follower** stepper of the
//! other semantics executes the same events in lockstep (one pair, stepped
//! down a branch and back up it; nothing is copied per transition). A
//! follower that rejects an event, or disagrees on the shared-state snapshot
//! after one, is a Definition 3.4 violation, reported with a greedily
//! minimized counterexample schedule. Running both directions (implicit
//! driver, then explicit driver) covers both trace inclusions of the
//! definition.
//!
//! # Reduction
//!
//! Naive enumeration is factorial in the schedule length, so the DFS prunes
//! with the stateless toolkit, all keyed on the dependence relation of
//! `dependence` — conservatively "same shared variable with a write, same
//! CCR wait queue, or contention on the notified-set minimum of rule 2b",
//! optionally refined by a solver-discharged [`IndependenceTable`]
//! ([`ExploreConfig::independence`]) that drops fire×fire edges proven
//! conditionally independent (disjoint guards, or commuting bodies with
//! mutual guard preservation):
//!
//! * **sleep sets** — a transition fully explored at a node is redundant in
//!   every sibling subtree until a dependent transition executes;
//! * **source sets with wakeup trees (Optimal DPOR)** — when two executed
//!   transitions race, the reversal is recorded as a *wakeup sequence* (the
//!   racing transition plus the interleaved events not happens-before it)
//!   rather than a bare thread id; branching only on such sequences, and
//!   discarding the ones the sleep set proves redundant *before* running
//!   them, means no sleep-set-blocked execution is ever run to completion
//!   ([`DirectionStats::sleep_set_blocked`] stays 0);
//! * **preemption bounding** (optional) — schedules with more than
//!   `preemption_bound` preemptions are cut off; unlike the above this
//!   sacrifices completeness for depth, so it is off by default and meant
//!   for CI-budgeted deep runs.
//!
//! The search is stateless: it keeps no table of visited configurations.
//! Sleep sets and wakeup sequences already walk each Mazurkiewicz trace
//! once, and a state-fingerprint cache spared too few transitions (6–8 % at
//! 3 threads × 2–3 operations) to pay for hashing every frame.
//!
//! # Parallelism
//!
//! Every schedule prefix of length two is
//! expanded with *every* enabled choice — a superset of any DPOR backtrack
//! set, so every cross-prefix reordering is covered by some sibling root —
//! while later siblings still inherit earlier choices into their sleep sets.
//! Each prefix's subtree is then an independent DFS task, and the subtrees of
//! both directions go to one [`expresso_core::Scheduler`] scope. Outcomes are
//! merged per direction in frontier order, so the counters and divergences
//! are bit-identical across thread counts.

mod dependence;
mod dfs;

pub use dependence::{Dependence, IndependenceTable};

use dependence::EventSet;
use dfs::{explore_root, Pair, Prefix, RootOutcome, StepOutcome};
use expresso_core::Scheduler;
use expresso_logic::Valuation;
use expresso_monitor_lang::{initial_state, ExplicitMonitor, Monitor, VarTable};
use expresso_semantics::{
    minimize_schedule, Event, ExecError, ReplayVerdict, SemanticsMode, Stepper, ThreadProgram,
    ThreadSpec, Trace,
};
use expresso_suite::Benchmark;
use std::sync::Arc;

/// Prefix length expanded without pruning before subtrees are handed to the
/// scheduler.
const SPLIT_DEPTH: usize = 2;

/// A solver-refined independence table.
///
/// Built once per monitor (see `expresso_vcgen::refine_independence`) and
/// shared across exploration runs.
#[derive(Debug, Clone, Default)]
pub struct RefinedIndependence {
    /// Pairwise fire×fire verdicts (`true` = proven independent), keyed on
    /// `(smaller CcrId, larger CcrId)`.
    pub table: IndependenceTable,
    /// Ignored. Kept only so existing callers compile; leaves with ROADMAP
    /// item 6(b2).
    #[doc(hidden)]
    pub queries: usize,
    /// Ignored. Kept only so existing callers compile; leaves with ROADMAP
    /// item 6(b2).
    #[doc(hidden)]
    pub cache_hits: usize,
}

/// How schedules are enumerated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Sleep sets + source sets with wakeup sequences: explores at least one
    /// schedule per Mazurkiewicz trace.
    Dpor,
    /// Full enumeration of every schedule — the baseline the DPOR reduction
    /// factor is measured against.
    Naive,
}

/// Configuration of one exploration run.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Maximum events per execution; longer schedules are cut and counted in
    /// [`DirectionStats::depth_capped`]. At most 128, the width of the
    /// search's happens-before sets.
    pub max_steps: usize,
    /// Maximum preemptions per schedule (`None` = unbounded, the default:
    /// the bound trades completeness for depth).
    pub preemption_bound: Option<usize>,
    /// Per-subtree cap on executions — a deterministic time governor for
    /// CI; capped subtrees are counted in [`DirectionStats::capped_roots`].
    pub max_executions_per_root: usize,
    /// Enumeration strategy.
    pub strategy: Strategy,
    /// Run the follower semantics in lockstep and flag divergences. Disabled
    /// for pure schedule-counting (the naive baseline).
    pub check: bool,
    /// Also enumerate spurious wake-ups when the driver is the explicit
    /// semantics (they re-block without changing state, so they multiply
    /// schedules without adding coverage; off by default).
    pub explore_spurious: bool,
    /// Scheduler the per-prefix subtrees are spawned on; `None` explores them
    /// sequentially on the calling thread. Counters are identical either
    /// way.
    pub scheduler: Option<Arc<Scheduler>>,
    /// Solver-refined independence verdicts; `None` (the default) keeps the
    /// purely conservative relation. Ignored when
    /// [`ExploreConfig::explore_spurious`] is on — the refinement's proofs
    /// cover the canonical wake-up discipline only.
    pub independence: Option<Arc<RefinedIndependence>>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_steps: 48,
            preemption_bound: None,
            max_executions_per_root: 50_000,
            strategy: Strategy::Dpor,
            check: true,
            explore_spurious: false,
            scheduler: None,
            independence: None,
        }
    }
}

/// Counters of one exploration direction, identical at every worker count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirectionStats {
    /// Complete executions checked: maximal schedules plus depth-capped ones.
    pub executions: usize,
    /// Events executed across the DFS.
    pub transitions: usize,
    /// Executions cut by [`ExploreConfig::max_steps`].
    pub depth_capped: usize,
    /// Choices and continuations skipped because the sleep set proved them
    /// redundant.
    pub sleep_prunes: usize,
    /// Choices skipped by the preemption bound.
    pub preemption_prunes: usize,
    /// Always 0: the search keeps no state cache. The frozen `benchmark/`
    /// harness still reads the field; it goes when 6(b) re-freezes that
    /// harness.
    pub dedup_hits: usize,
    /// Executions run to completion with every enabled transition asleep —
    /// pure waste a DPOR explores only out of imprecision. The wakeup-tree
    /// algorithm discards such branches before running them, so this stays
    /// 0 under [`Strategy::Dpor`]; `reproduce` fails loudly otherwise.
    pub sleep_set_blocked: usize,
    /// Independent subtree roots after prefix splitting.
    pub frontier_roots: usize,
    /// Subtrees that hit [`ExploreConfig::max_executions_per_root`].
    pub capped_roots: usize,
}

impl DirectionStats {
    /// Field-wise accumulation of a subtree's counters.
    pub fn merge(&mut self, other: &DirectionStats) {
        self.executions += other.executions;
        self.transitions += other.transitions;
        self.depth_capped += other.depth_capped;
        self.sleep_prunes += other.sleep_prunes;
        self.preemption_prunes += other.preemption_prunes;
        self.sleep_set_blocked += other.sleep_set_blocked;
        self.frontier_roots += other.frontier_roots;
        self.capped_roots += other.capped_roots;
    }
}

/// A conformance violation found by the explorer.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Which semantics drove the scheduling when the divergence appeared.
    pub driver: SemanticsMode,
    /// The follower's rejection (or snapshot-mismatch) description.
    pub reason: String,
    /// The minimized event schedule reproducing the divergence.
    pub trace: Trace,
}

/// The result of exploring one monitor's bounded workload.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Counters of the implicit-driver direction.
    pub implicit: DirectionStats,
    /// Counters of the explicit-driver direction.
    pub explicit: DirectionStats,
    /// Every divergence found (at most one per direction: a direction stops
    /// at its first violation).
    pub divergences: Vec<Divergence>,
}

impl ExploreReport {
    /// Total executions checked across both directions.
    pub fn executions(&self) -> usize {
        self.implicit.executions + self.explicit.executions
    }

    /// Total events executed across both directions.
    pub fn transitions(&self) -> usize {
        self.implicit.transitions + self.explicit.transitions
    }

    /// `true` when no divergence was found.
    pub fn holds(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Total sleep-set-blocked executions across both directions — the
    /// optimality witness (0 for the wakeup-tree DPOR).
    pub fn sleep_set_blocked(&self) -> usize {
        self.implicit.sleep_set_blocked + self.explicit.sleep_set_blocked
    }
}

/// A bounded workload: the initial shared state plus one call sequence per
/// thread.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Initial shared monitor state (constructor-initialised fields).
    pub initial: Valuation,
    /// One program per thread.
    pub programs: Vec<ThreadProgram>,
}

/// Builds a bounded exploration workload from a suite benchmark: the
/// benchmark's balanced per-thread operation plans, truncated only by the
/// explorer's step bound.
///
/// # Errors
///
/// Propagates interpreter failures from constructing the initial state.
pub fn benchmark_workload(
    benchmark: &Benchmark,
    monitor: &Monitor,
    table: &VarTable,
    threads: usize,
    ops_per_thread: usize,
) -> Result<Workload, ExecError> {
    let ctor = (benchmark.ctor_args)(threads);
    let initial = initial_state(monitor, table, &ctor).map_err(ExecError::Runtime)?;
    let programs = (benchmark.plans)(threads, ops_per_thread)
        .into_iter()
        .map(|plan| {
            plan.into_iter()
                .map(|op| ThreadSpec::with_locals(op.method, op.locals))
                .collect()
        })
        .collect();
    Ok(Workload { initial, programs })
}

/// Systematically explores `workload`'s schedules in both directions,
/// checking implicit-vs-explicit conformance on every execution (unless
/// [`ExploreConfig::check`] is off).
///
/// # Errors
///
/// Propagates evaluation failures; divergences are *reported*, not errors.
/// [`ExecError::TooLarge`] when the workload's events (threads x CCRs x 2)
/// or [`ExploreConfig::max_steps`] are past the 128 bits of the sets the
/// search keeps them in, and whatever [`Stepper::implicit`] refuses.
pub fn explore(
    monitor: &Monitor,
    table: &VarTable,
    explicit: &ExplicitMonitor,
    workload: &Workload,
    config: &ExploreConfig,
) -> Result<ExploreReport, ExecError> {
    let _span = expresso_obs::span!("explore.run", "{}", monitor.name);
    let refined = if config.explore_spurious {
        None
    } else {
        config.independence.as_ref().map(|r| &r.table)
    };
    let dep =
        Dependence::with_refinement(monitor, table, explicit, config.explore_spurious, refined);
    dep.check_width(workload.programs.len())?;
    dfs::check_depth(config.max_steps)?;
    let mut report = ExploreReport::default();
    // The workload is resolved and the monitor compiled here, once per
    // relation; every pair below is a copy of these two.
    let initial = || workload.initial.clone();
    let programs = || workload.programs.clone();
    let implicit = Stepper::implicit(monitor, table, initial(), programs())?;
    let explicit = Stepper::explicit(explicit, table, initial(), programs())?;
    let directions = [
        (
            SemanticsMode::Implicit,
            Pair {
                driver: implicit.clone(),
                follower: config.check.then(|| explicit.clone()),
            },
        ),
        (
            SemanticsMode::Explicit,
            Pair {
                driver: explicit.with_spurious_wakeups(config.explore_spurious),
                follower: config.check.then_some(implicit),
            },
        ),
    ];
    // Phase 1 for both directions, then every subtree of both in one
    // scheduler scope. A direction whose split failed submits nothing; its error is
    // reported where a direction-by-direction run would have met it.
    let mut splits = directions
        .each_ref()
        .map(|(_, pair)| split(pair, &dep, config));
    let roots = splits
        .iter_mut()
        .filter_map(|split| split.as_mut().ok())
        .flat_map(|split| std::mem::take(&mut split.frontier))
        .collect();
    let mut outcomes = explore_roots(roots, &dep, config).into_iter();
    for ((mode, pair), split) in directions.iter().zip(splits) {
        let Split {
            mut stats,
            mut divergence,
            ..
        } = split?;
        for outcome in outcomes.by_ref().take(stats.frontier_roots) {
            let (sub, div) = outcome?;
            stats.merge(&sub);
            divergence = divergence.or(div);
        }
        match mode {
            SemanticsMode::Implicit => report.implicit = stats,
            SemanticsMode::Explicit => report.explicit = stats,
        }
        report.divergences.extend(
            divergence.map(|(trace, reason)| minimize_divergence(*mode, pair, trace, reason)),
        );
    }
    Ok(report)
}

/// Renders an event schedule for failure reports, one line per event with
/// the CCR's method label.
pub fn render_trace(monitor: &Monitor, trace: &[Event]) -> String {
    trace
        .iter()
        .enumerate()
        .map(|(i, e)| {
            format!(
                "  {i:>3}: thread {} {} {}",
                e.thread,
                if e.fired { "fires " } else { "blocks" },
                monitor.ccr_label(e.ccr),
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Phase 1 of one direction: its counters so far, the divergence the split
/// itself ran into (which ends the direction: the frontier is then empty),
/// and the subtree roots.
struct Split<'a> {
    stats: DirectionStats,
    divergence: Option<(Vec<Event>, String)>,
    frontier: Vec<Prefix<'a>>,
}

/// Expands every schedule prefix of length `SPLIT_DEPTH` from `initial`, the
/// lockstep pair of one direction in its initial configuration, with no
/// pruning, so sibling roots cover every cross-prefix reordering.
fn split<'a>(
    initial: &Pair<'a>,
    dep: &Dependence,
    cfg: &ExploreConfig,
) -> Result<Split<'a>, ExecError> {
    let mut stats = DirectionStats::default();
    let dpor = cfg.strategy == Strategy::Dpor;
    let mut frontier = vec![Prefix {
        pair: initial.clone(),
        path: Vec::new(),
        sleep: EventSet::default(),
        budget: cfg.preemption_bound,
        last_thread: None,
    }];
    for _ in 0..SPLIT_DEPTH {
        let mut next = Vec::new();
        for prefix in frontier {
            if prefix.pair.driver.steps() >= cfg.max_steps {
                stats.executions += 1;
                stats.depth_capped += 1;
                continue;
            }
            let enabled = prefix.pair.driver.enabled_events()?;
            if enabled.is_empty() {
                stats.executions += 1;
                continue;
            }
            if enabled.iter().all(|ev| prefix.sleep.contains(dep, *ev)) {
                stats.sleep_prunes += 1;
                continue;
            }
            // Later siblings inherit earlier choices into their sleep set.
            let mut sibling_sleep = prefix.sleep;
            for event in enabled.iter().copied() {
                if sibling_sleep.contains(dep, event) {
                    stats.sleep_prunes += 1;
                    continue;
                }
                let budget = match dfs::spend_preemption_budget(
                    prefix.budget,
                    prefix.last_thread,
                    &enabled,
                    event,
                ) {
                    Some(budget) => budget,
                    None => {
                        stats.preemption_prunes += 1;
                        continue;
                    }
                };
                let mut pair = prefix.pair.clone();
                let mut path = prefix.path.clone();
                path.push(event);
                stats.transitions += 1;
                if let StepOutcome::Divergence(reason) = pair.step(event)? {
                    return Ok(Split {
                        stats,
                        divergence: Some((path, reason)),
                        frontier: Vec::new(),
                    });
                }
                next.push(Prefix {
                    pair,
                    path,
                    sleep: dep.inherit_sleep(sibling_sleep, event),
                    budget,
                    last_thread: Some(event.thread),
                });
                if dpor {
                    sibling_sleep.insert(dep, event);
                }
            }
        }
        frontier = next;
    }
    stats.frontier_roots = frontier.len();
    Ok(Split {
        stats,
        divergence: None,
        frontier,
    })
}

/// Phase 2: one independent DFS per root, fanned out on the scheduler when
/// one is configured. The outcomes come back in `roots` order either way.
fn explore_roots(
    roots: Vec<Prefix<'_>>,
    dep: &Dependence,
    cfg: &ExploreConfig,
) -> Vec<RootOutcome> {
    let explore = |root| explore_root(root, dep, cfg);
    let Some(scheduler) = &cfg.scheduler else {
        return roots.into_iter().map(explore).collect();
    };
    let mut slots: Vec<Option<RootOutcome>> = Vec::new();
    slots.resize_with(roots.len(), || None);
    scheduler.scope(|scope| {
        for (root, slot) in roots.into_iter().zip(slots.iter_mut()) {
            scope.spawn(move || *slot = Some(explore(root)));
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every subtree explored"))
        .collect()
}

/// Shrinks a diverging schedule with the shared greedy minimizer, replaying
/// candidates through fresh copies of the direction's `initial` pair.
fn minimize_divergence(
    mode: SemanticsMode,
    initial: &Pair<'_>,
    trace: Vec<Event>,
    reason: String,
) -> Divergence {
    let trace = minimize_schedule(trace, |steps: &[Event]| {
        let mut pair = initial.clone();
        for (i, &event) in steps.iter().enumerate() {
            // One implementation of the lockstep rules: `Pair::step`. An
            // error (the driver rejecting the event, or an evaluation
            // failure) means the shrink produced an invalid schedule; a
            // reported divergence means the candidate still reproduces.
            match pair.step(event) {
                Err(_) => return ReplayVerdict::Stuck { step: i },
                Ok(StepOutcome::Divergence(_)) => return ReplayVerdict::Mismatch { step: i },
                Ok(StepOutcome::Ok) => {}
            }
        }
        ReplayVerdict::Match
    });
    Divergence {
        driver: mode,
        reason,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expresso_monitor_lang::{check_monitor, parse_monitor};

    const COUNTER: &str = r#"
        monitor Counter {
            int count = 0;
            atomic void release() { count++; }
            atomic void acquire() { waituntil (count > 0) { count--; } }
        }
    "#;

    fn workload(monitor: &Monitor, table: &VarTable, threads: &[&str]) -> Workload {
        Workload {
            initial: initial_state(monitor, table, &Valuation::new()).unwrap(),
            programs: threads.iter().map(|m| vec![ThreadSpec::new(*m)]).collect(),
        }
    }

    #[test]
    fn broadcast_all_counter_is_conformant_and_dpor_reduces() {
        let monitor = parse_monitor(COUNTER).unwrap();
        let table = check_monitor(&monitor).unwrap();
        let explicit = ExplicitMonitor::broadcast_all(monitor.clone());
        let w = workload(
            &monitor,
            &table,
            &["acquire", "release", "acquire", "release"],
        );
        let dpor = explore(&monitor, &table, &explicit, &w, &ExploreConfig::default()).unwrap();
        assert!(dpor.holds(), "divergences: {:?}", dpor.divergences);
        assert!(dpor.executions() > 0);
        let naive = explore(
            &monitor,
            &table,
            &explicit,
            &w,
            &ExploreConfig {
                strategy: Strategy::Naive,
                check: false,
                ..ExploreConfig::default()
            },
        )
        .unwrap();
        assert!(
            naive.executions() > dpor.executions(),
            "naive {} vs dpor {}",
            naive.executions(),
            dpor.executions()
        );
    }

    #[test]
    fn silent_monitor_divergence_is_found_and_minimized() {
        let monitor = parse_monitor(COUNTER).unwrap();
        let table = check_monitor(&monitor).unwrap();
        let silent = ExplicitMonitor::without_signals(monitor.clone());
        let w = workload(&monitor, &table, &["acquire", "release"]);
        let report = explore(&monitor, &table, &silent, &w, &ExploreConfig::default()).unwrap();
        assert!(!report.holds(), "a never-signalling monitor must diverge");
        let divergence = &report.divergences[0];
        // Minimal reproduction: block, then the wake-up the explicit monitor
        // cannot deliver.
        assert!(
            divergence.trace.len() <= 3,
            "not minimized:\n{}",
            render_trace(&monitor, &divergence.trace)
        );
        assert!(divergence.trace.iter().any(|e| e.fired));
    }

    #[test]
    fn preemption_bound_prunes_schedules() {
        let monitor = parse_monitor(COUNTER).unwrap();
        let table = check_monitor(&monitor).unwrap();
        let explicit = ExplicitMonitor::broadcast_all(monitor.clone());
        // Two producers with two calls each: switching away from a producer
        // mid-plan is a preemption, so a bound of 0 serialises them.
        let w = Workload {
            initial: initial_state(&monitor, &table, &Valuation::new()).unwrap(),
            programs: vec![
                vec![ThreadSpec::new("release"), ThreadSpec::new("release")],
                vec![ThreadSpec::new("release"), ThreadSpec::new("release")],
            ],
        };
        let unbounded =
            explore(&monitor, &table, &explicit, &w, &ExploreConfig::default()).unwrap();
        let bounded = explore(
            &monitor,
            &table,
            &explicit,
            &w,
            &ExploreConfig {
                preemption_bound: Some(0),
                ..ExploreConfig::default()
            },
        )
        .unwrap();
        assert!(bounded.holds());
        assert!(
            bounded.executions() < unbounded.executions(),
            "bounded {} vs unbounded {}",
            bounded.executions(),
            unbounded.executions()
        );
        assert!(bounded.implicit.preemption_prunes > 0);
    }

    #[test]
    fn spurious_wakeups_are_not_false_divergences() {
        // Regression: an *unconditional* signal notifies a waiter whose guard
        // is false; the waiter's rule-1b re-block is a driver-internal
        // stutter the implicit follower would reject (its wake loop never
        // notifies false-guard entries). The lockstep check must treat the
        // stutter as a no-op, not a Def-3.4 violation.
        use expresso_monitor_lang::{Notification, NotificationKind, SignalCondition};
        let monitor = parse_monitor(
            r#"
            monitor Pair {
                int count = 0;
                atomic void release() { count++; }
                atomic void acquire() { waituntil (count > 1) { count = count - 2; } }
            }
            "#,
        )
        .unwrap();
        let table = check_monitor(&monitor).unwrap();
        let release = monitor.method("release").unwrap().ccrs[0];
        let guard = monitor.method("acquire").map(|m| m.ccrs[0]).unwrap();
        let mut explicit = ExplicitMonitor::without_signals(monitor.clone());
        explicit.notifications.insert(
            release,
            vec![Notification {
                predicate: monitor.ccr(guard).guard.clone(),
                condition: SignalCondition::Unconditional,
                kind: NotificationKind::Broadcast,
            }],
        );
        let w = workload(&monitor, &table, &["acquire", "release", "release"]);
        for spurious in [false, true] {
            let report = explore(
                &monitor,
                &table,
                &explicit,
                &w,
                &ExploreConfig {
                    explore_spurious: spurious,
                    ..ExploreConfig::default()
                },
            )
            .unwrap();
            assert!(
                report.holds(),
                "spurious={spurious}: {:?}",
                report.divergences
            );
            assert!(report.executions() > 0);
        }
    }

    #[test]
    fn bounded_dpor_keeps_every_affordable_schedule() {
        // Regression: two producers whose fires are all pairwise dependent —
        // every schedule is its own Mazurkiewicz class, so within the
        // preemption bound DPOR must enumerate exactly what naive does (the
        // 4 schedules with ≤1 preemption: AABB, ABBA, BAAB, BBAA per
        // direction). A preemption-pruned backtrack seed used to leave nodes
        // childless, silently dropping affordable schedules.
        let monitor = parse_monitor(COUNTER).unwrap();
        let table = check_monitor(&monitor).unwrap();
        let explicit = ExplicitMonitor::broadcast_all(monitor.clone());
        let w = Workload {
            initial: initial_state(&monitor, &table, &Valuation::new()).unwrap(),
            programs: vec![
                vec![ThreadSpec::new("release"), ThreadSpec::new("release")],
                vec![ThreadSpec::new("release"), ThreadSpec::new("release")],
            ],
        };
        let base = ExploreConfig {
            preemption_bound: Some(1),
            ..ExploreConfig::default()
        };
        let dpor = explore(&monitor, &table, &explicit, &w, &base).unwrap();
        let naive = explore(
            &monitor,
            &table,
            &explicit,
            &w,
            &ExploreConfig {
                strategy: Strategy::Naive,
                check: false,
                ..base
            },
        )
        .unwrap();
        assert_eq!(
            naive.executions(),
            8,
            "4 affordable schedules per direction"
        );
        assert_eq!(
            dpor.executions(),
            naive.executions(),
            "fully dependent workload: bounded DPOR must match bounded naive"
        );
    }

    #[test]
    fn workloads_and_bounds_past_the_set_widths_are_errors() {
        // Thread sets are 64 bits, event sets and happens-before masks 128:
        // past either, a shift would wrap in a release build and alias two
        // members, so the run is refused before it starts.
        let monitor = parse_monitor(COUNTER).unwrap();
        let table = check_monitor(&monitor).unwrap();
        let explicit = ExplicitMonitor::broadcast_all(monitor.clone());
        let run = |threads: usize, max_steps: usize| {
            let w = workload(&monitor, &table, &vec!["release"; threads]);
            let config = ExploreConfig {
                max_steps,
                ..ExploreConfig::default()
            };
            explore(&monitor, &table, &explicit, &w, &config)
        };
        let refused = |run: Result<ExploreReport, ExecError>| match run {
            Err(ExecError::TooLarge(why)) => why,
            other => panic!("expected a width error, got {other:?}"),
        };
        assert!(refused(run(65, 48)).contains("65 threads"));
        // 33 threads x 2 CCRs x 2 outcomes = 132 events, four too many.
        assert!(refused(run(33, 48)).contains("132 events"));
        assert!(refused(run(2, 129)).contains("max_steps = 129"));
        // One inside every width runs: a single call fits any step bound.
        let widest = run(1, 128).unwrap();
        assert_eq!(widest.executions(), 2);
        let dep = Dependence::new(&monitor, &table, &explicit, false);
        assert!(dep.check_width(32).is_ok(), "128 events fill the set");
    }
}
