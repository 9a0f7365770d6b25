//! The licence for running the schedule explorer on compiled code.
//!
//! `expresso_semantics::Stepper` evaluates guards and bodies with
//! `monitor_lang::compile` — the evaluator of the engines the explorer
//! judges. This test holds it to the stepper it replaced
//! (`tree_stepper.rs`: named state, the tree-walking interpreter) on every
//! suite monitor, under both relations, with spurious wake-ups enumerated
//! and not, over *every* schedule of 2 threads x 2 operations and of
//! 3 x 1 — plain enumeration, no partial-order reduction. At each
//! configuration reached:
//!
//! * the two report the same enabled events;
//! * every candidate event — each thread blocking and firing at its current
//!   CCR, a wrong CCR, a thread that does not exist — is accepted by both or
//!   refused by both with the same error, and a refusal leaves the compiled
//!   stepper's configuration untouched;
//! * after an accepted step the two agree on the shared state, every
//!   thread's locals and program counters, B, N, the step count and the
//!   spurious-wake-up flag — and the reference's B and N hold current
//!   entries only, which is what lets the compiled stepper keep them as
//!   thread sets;
//! * `step` then `unstep` restores the configuration field by field.
//!
//! Every schedule of four threads is too many for the reference, so wider
//! workloads get the same comparisons at every configuration of seeded
//! random schedules: 8 of at most 30 events per relation, each step drawn
//! from the enabled events.
//!
//! `compile_differential.rs` holds single guards and bodies to the
//! interpreter on random states; this holds whole transition relations to
//! each other on every reachable state.

mod tree_stepper;

use expresso_repro::core::{Expresso, SharedAnalysisContext};
use expresso_repro::explore::{benchmark_workload, Workload};
use expresso_repro::logic::{Lcg, Valuation};
use expresso_repro::monitor_lang::{
    check_monitor, initial_state, CcrId, ExplicitMonitor, Expr, Monitor, VarTable,
};
use expresso_repro::semantics::{Event, ExecError, SemanticsMode, Stepper, ThreadSpec, Trace};
use expresso_repro::suite::Benchmark;
use std::sync::Arc;
use tree_stepper::TreeStepper;

/// One thread as both steppers must see it.
#[derive(Debug, Clone, PartialEq)]
struct ThreadView {
    /// Index of the current call, and of the next CCR within its method.
    position: (usize, usize),
    entry: Option<(usize, CcrId)>,
    residual: Vec<CcrId>,
    locals: Valuation,
    blocked: bool,
    notified: bool,
}

/// One configuration as both steppers must see it.
#[derive(Debug, Clone, PartialEq)]
struct View {
    mode: SemanticsMode,
    shared: Valuation,
    threads: Vec<ThreadView>,
    steps: usize,
    used_spurious_wakeup: bool,
    all_finished: bool,
}

fn view_of_reference(s: &TreeStepper<'_>) -> Result<View, String> {
    let threads: Vec<ThreadView> = (0..s.thread_count())
        .map(|t| {
            let entry = s.current_entry(t);
            ThreadView {
                position: (s.call_idx[t], s.ccr_idx[t]),
                entry,
                residual: s.residual_ccrs(t),
                locals: s.threads[t].locals.clone(),
                blocked: s.is_blocked(t),
                notified: entry.is_some_and(|e| s.notified.contains(&e)),
            }
        })
        .collect();
    // B and N as thread sets lose nothing only if every entry is the current
    // entry of its thread and N stays inside B.
    let count = |flag: fn(&ThreadView) -> bool| threads.iter().filter(|t| flag(t)).count();
    if s.blocked.len() != count(|t| t.blocked)
        || s.notified.len() != count(|t| t.notified)
        || !s.notified.is_subset(&s.blocked)
    {
        return Err(format!(
            "the reference holds an entry that is not a thread's current one: B {:?} N {:?}",
            s.blocked, s.notified
        ));
    }
    Ok(View {
        mode: s.mode(),
        shared: s.shared.clone(),
        threads,
        steps: s.steps(),
        used_spurious_wakeup: s.used_spurious_wakeup(),
        all_finished: s.all_finished(),
    })
}

fn view_of_compiled(s: &Stepper<'_>) -> View {
    View {
        mode: s.mode(),
        shared: s.shared(),
        threads: (0..s.thread_count())
            .map(|t| ThreadView {
                position: s.position(t),
                entry: s.current_entry(t),
                residual: s.residual_ccrs(t).to_vec(),
                locals: s.locals(t),
                blocked: s.is_blocked(t),
                notified: s.is_notified(t),
            })
            .collect(),
        steps: s.steps(),
        used_spurious_wakeup: s.used_spurious_wakeup(),
        all_finished: s.all_finished(),
    }
}

/// What a run of the harness covered, so that a test can tell a pass from
/// an empty walk.
#[derive(Debug, Default)]
struct Tally {
    configurations: usize,
    schedules: usize,
    accepted: usize,
    infeasible: usize,
    malformed: usize,
    blocks: usize,
    spurious: usize,
    notified: usize,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.configurations += other.configurations;
        self.schedules += other.schedules;
        self.accepted += other.accepted;
        self.infeasible += other.infeasible;
        self.malformed += other.malformed;
        self.blocks += other.blocks;
        self.spurious += other.spurious;
        self.notified += other.notified;
    }
}

/// No suite schedule at these bounds is longer; a walk that is has stopped
/// terminating.
const DEPTH_LIMIT: usize = 64;

/// The longest random schedule, in events.
const WALK_EVENTS: usize = 30;

/// Random schedules per workload and relation.
const WALKS: u64 = 8;

struct Harness {
    ccrs: usize,
    tally: Tally,
    /// The events from the initial configuration to the current one.
    path: Trace,
    /// `None` follows every enabled event; `Some` follows one, drawn from
    /// the generator, for at most [`WALK_EVENTS`] events.
    random: Option<Lcg>,
}

impl Harness {
    /// Walks the schedules from the configuration both steppers are in.
    /// The reference is copied per step (it has no `unstep`); the compiled
    /// stepper is the one the walk steps down and back up.
    fn walk(
        &mut self,
        reference: &TreeStepper<'_>,
        compiled: &mut Stepper<'_>,
    ) -> Result<(), String> {
        let view = view_of_reference(reference)?;
        let path = self.path.clone();
        let at = |what: &str| format!("after {path:?}: {what}");
        let ours = view_of_compiled(compiled);
        if ours != view {
            return Err(at(&format!(
                "configurations differ\n reference {view:?}\n compiled  {ours:?}"
            )));
        }
        if view.steps > DEPTH_LIMIT {
            return Err(at("the schedule does not end"));
        }
        self.tally.configurations += 1;
        self.tally.notified += usize::from(view.threads.iter().any(|t| t.notified));

        let enabled = reference.enabled_events();
        if compiled.enabled_events() != enabled {
            return Err(at(&format!(
                "enabled events differ: reference {enabled:?}, compiled {:?}",
                compiled.enabled_events()
            )));
        }
        let enabled = enabled.map_err(|e| at(&format!("enabled events fail: {e}")))?;
        let follow = match &mut self.random {
            None => enabled.clone(),
            Some(_) if enabled.is_empty() || path.len() >= WALK_EVENTS => Vec::new(),
            Some(rng) => vec![enabled[rng.index(enabled.len())]],
        };
        if follow.is_empty() {
            self.tally.schedules += 1;
        }

        // Every thread at its current CCR and at a wrong one, and one thread
        // too many; each blocking and firing.
        let threads = view.threads.len();
        let mut candidates = Vec::new();
        for thread in 0..=threads {
            let current = view.threads.get(thread).and_then(|t| t.entry);
            let ccr = current.map_or(CcrId(0), |(_, ccr)| ccr);
            for fired in [false, true] {
                candidates.push(Event { thread, ccr, fired });
            }
            if current.is_some() && self.ccrs > 1 {
                candidates.push(Event {
                    thread,
                    ccr: CcrId((ccr.0 + 1) % self.ccrs),
                    fired: true,
                });
            }
        }
        for event in candidates {
            let mut next = reference.clone();
            let expected = next.step(event);
            let got = compiled.step(event);
            if got != expected {
                return Err(at(&format!(
                    "{event}: reference says {expected:?}, compiled says {got:?}"
                )));
            }
            match expected {
                Ok(()) => {
                    self.tally.accepted += 1;
                    self.tally.blocks += usize::from(!event.fired);
                    self.tally.spurious +=
                        usize::from(!view.used_spurious_wakeup && next.used_spurious_wakeup());
                    if follow.contains(&event) {
                        self.path.push(event);
                        self.walk(&next, compiled)?;
                        self.path.pop();
                    } else {
                        // Accepted but not followed (a spurious re-block with
                        // enumeration off, or not drawn): compared, not
                        // pursued.
                        let after = view_of_reference(&next)?;
                        if view_of_compiled(compiled) != after {
                            return Err(at(&format!("{event}: configurations differ after it")));
                        }
                    }
                    if compiled.unstep() != Some(event) {
                        return Err(at(&format!("{event}: unstep took back another event")));
                    }
                }
                Err(ExecError::Infeasible(_)) => self.tally.infeasible += 1,
                Err(ExecError::MalformedTrace(_)) => self.tally.malformed += 1,
                Err(other) => return Err(at(&format!("{event}: both fail with {other}"))),
            }
            // Refused or taken back, the compiled stepper is where it was.
            if view_of_compiled(compiled) != view {
                return Err(at(&format!("{event}: the configuration was not restored")));
            }
        }
        if !enabled.iter().all(|e| reference.clone().step(*e).is_ok()) {
            return Err(at("an enabled event was refused"));
        }
        Ok(())
    }
}

/// The monitors each side is built from: the same one, except in the
/// harness's own self-test.
struct Subject<'a> {
    reference: (&'a Monitor, &'a ExplicitMonitor),
    compiled: (&'a Monitor, &'a ExplicitMonitor),
}

/// One run: both steppers from their initial configuration, every schedule,
/// or the one drawn from `random`.
fn lockstep(
    subject: &Subject<'_>,
    workload: &Workload,
    mode: SemanticsMode,
    spurious: bool,
    random: Option<Lcg>,
) -> Result<Tally, String> {
    let table = check_monitor(subject.reference.0).map_err(|e| format!("{e:?}"))?;
    let compiled_table = check_monitor(subject.compiled.0).map_err(|e| format!("{e:?}"))?;
    let initial = || workload.initial.clone();
    let programs = || workload.programs.clone();
    let (reference, compiled) = match mode {
        SemanticsMode::Implicit => (
            TreeStepper::implicit(subject.reference.0, &table, initial(), programs()),
            Stepper::implicit(subject.compiled.0, &compiled_table, initial(), programs()),
        ),
        SemanticsMode::Explicit => (
            TreeStepper::explicit(subject.reference.1, &table, initial(), programs()),
            Stepper::explicit(subject.compiled.1, &compiled_table, initial(), programs()),
        ),
    };
    let reference = reference
        .map_err(|e| e.to_string())?
        .with_spurious_wakeups(spurious);
    let mut compiled = compiled
        .map_err(|e| e.to_string())?
        .with_spurious_wakeups(spurious);
    let mut harness = Harness {
        ccrs: subject.reference.0.ccrs.len(),
        tally: Tally::default(),
        path: Trace::new(),
        random,
    };
    harness.walk(&reference, &mut compiled)?;
    Ok(harness.tally)
}

/// The shapes the issue that licensed the compiled stepper names: (threads,
/// operations per thread).
const SHAPES: [(usize, usize); 2] = [(2, 2), (3, 1)];

#[test]
fn compiled_stepper_agrees_with_the_tree_stepper_on_every_schedule() {
    let pipeline = Expresso::new();
    let context = SharedAnalysisContext::new(pipeline.config());
    let mut total = Tally::default();
    for benchmark in expresso_repro::suite::all() {
        let monitor = benchmark.monitor();
        let table = check_monitor(&monitor).unwrap();
        let explicit = pipeline
            .analyze_with_context(&context, &monitor)
            .unwrap()
            .explicit;
        let subject = Subject {
            reference: (&monitor, &explicit),
            compiled: (&monitor, &explicit),
        };
        for (threads, ops) in SHAPES {
            let workload = benchmark_workload(&benchmark, &monitor, &table, threads, ops).unwrap();
            for mode in [SemanticsMode::Implicit, SemanticsMode::Explicit] {
                for spurious in [false, true] {
                    let tally =
                        lockstep(&subject, &workload, mode, spurious, None).unwrap_or_else(|why| {
                            panic!(
                                "{} at {threads}x{ops}, {mode:?}, spurious {spurious}: {why}",
                                benchmark.name
                            )
                        });
                    assert!(tally.schedules > 0, "{}: no schedule ended", benchmark.name);
                    total.add(&tally);
                }
            }
        }
    }
    // The walk was not empty, and met what it is there to compare.
    assert!(total.configurations > 10_000, "{total:?}");
    assert_met(&total);
}

/// The four-thread workload the random walk runs on `benchmark`, if any:
/// the balanced plans of three suite monitors, and a bounded buffer of
/// capacity 3 with two producers and two consumers.
fn four_thread_workload(
    benchmark: &Benchmark,
    monitor: &Monitor,
    table: &VarTable,
) -> Option<Workload> {
    match benchmark.name {
        "ReadersWriters" | "ConcurrencyThrottle" | "PendingPostQueue" => {
            Some(benchmark_workload(benchmark, monitor, table, 4, 1).unwrap())
        }
        "BoundedBuffer" => {
            let mut ctor = Valuation::new();
            ctor.set_int("capacity", 3);
            let mut item = Valuation::new();
            item.set_int("item", 42);
            let put = vec![ThreadSpec::with_locals("put", item)];
            let take = vec![ThreadSpec::new("take")];
            Some(Workload {
                initial: initial_state(monitor, table, &ctor).unwrap(),
                programs: vec![put.clone(), put, take.clone(), take],
            })
        }
        _ => None,
    }
}

#[test]
fn compiled_stepper_agrees_with_the_tree_stepper_on_random_four_thread_schedules() {
    let pipeline = Expresso::new();
    let context = SharedAnalysisContext::new(pipeline.config());
    let mut total = Tally::default();
    let mut workloads = 0;
    for benchmark in expresso_repro::suite::all() {
        let monitor = benchmark.monitor();
        let table = check_monitor(&monitor).unwrap();
        let Some(workload) = four_thread_workload(&benchmark, &monitor, &table) else {
            continue;
        };
        workloads += 1;
        let explicit = pipeline
            .analyze_with_context(&context, &monitor)
            .unwrap()
            .explicit;
        let subject = Subject {
            reference: (&monitor, &explicit),
            compiled: (&monitor, &explicit),
        };
        for mode in [SemanticsMode::Implicit, SemanticsMode::Explicit] {
            // Spurious wake-ups enumerated as each relation's default.
            let spurious = mode == SemanticsMode::Explicit;
            for seed in 0..WALKS {
                let random = Some(Lcg::new(seed));
                let tally =
                    lockstep(&subject, &workload, mode, spurious, random).unwrap_or_else(|why| {
                        panic!("{}, {mode:?}, seed {seed}: {why}", benchmark.name)
                    });
                total.add(&tally);
            }
        }
    }
    assert_eq!(workloads, 4);
    assert_met(&total);
}

/// The walks met what they are there to compare.
fn assert_met(total: &Tally) {
    for (what, met) in [
        ("blocking steps", total.blocks),
        ("notified waiters", total.notified),
        ("spurious wake-ups", total.spurious),
        ("infeasible candidates", total.infeasible),
        ("malformed candidates", total.malformed),
    ] {
        assert!(met > 0, "the walk met no {what}: {total:?}");
    }
}

/// Adds one to the first integer constant of `expr`, if it has one.
fn bump_first_constant(expr: &mut Expr) -> bool {
    match expr {
        Expr::Int(value) => {
            *value += 1;
            true
        }
        Expr::Bool(_) | Expr::Var(_) => false,
        Expr::Index(_, index) => bump_first_constant(index),
        Expr::Unary(_, inner) => bump_first_constant(inner),
        Expr::Binary(_, lhs, rhs) => bump_first_constant(lhs) || bump_first_constant(rhs),
    }
}

#[test]
fn the_harness_notices_a_guard_that_differs_by_one() {
    // The vacuity guard: the compiled side is built from a BoundedBuffer
    // whose `take` waits for `count > 1` where the reference waits for
    // `count > 0`. If the harness passes this, it compares nothing.
    let benchmark = expresso_repro::suite::all()
        .into_iter()
        .find(|b| b.name == "BoundedBuffer")
        .unwrap();
    let monitor = benchmark.monitor();
    let table = check_monitor(&monitor).unwrap();
    let explicit = Expresso::new().analyze(&monitor).unwrap().explicit;
    let take = monitor.method("take").unwrap().ccrs[0];
    let mut ccrs = monitor.ccrs.to_vec();
    assert!(
        bump_first_constant(Arc::make_mut(&mut ccrs[take.0].guard)),
        "`take` waits on a constant: {}",
        monitor.ccr(take).guard
    );
    let altered = Monitor {
        ccrs: ccrs.into(),
        ..monitor.clone()
    };
    let altered_explicit = ExplicitMonitor {
        monitor: altered.clone(),
        ..explicit.clone()
    };
    let honest = Subject {
        reference: (&monitor, &explicit),
        compiled: (&monitor, &explicit),
    };
    let crooked = Subject {
        reference: (&monitor, &explicit),
        compiled: (&altered, &altered_explicit),
    };
    for (threads, ops) in SHAPES {
        let workload = benchmark_workload(&benchmark, &monitor, &table, threads, ops).unwrap();
        for mode in [SemanticsMode::Implicit, SemanticsMode::Explicit] {
            lockstep(&honest, &workload, mode, false, None).unwrap();
            let verdict = lockstep(&crooked, &workload, mode, false, None);
            assert!(
                verdict.is_err(),
                "{threads}x{ops}, {mode:?}: the altered guard went unnoticed ({verdict:?})"
            );
        }
    }
}
