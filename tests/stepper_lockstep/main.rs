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
//!   thread's locals and program counters, B, N, the step count, the
//!   spurious-wake-up flag and the recorded trace — and the reference's B
//!   and N hold current entries only, which is what lets the compiled
//!   stepper keep them as thread sets;
//! * `step` then `unstep` restores the configuration field by field;
//! * fingerprints are injective: two configurations share one exactly when
//!   the reference says they are the same configuration (the dedup cache
//!   trusts 64 bits per stepper).
//!
//! `compile_differential.rs` holds single guards and bodies to the
//! interpreter on random states; this holds whole transition relations to
//! each other on every reachable state.

mod tree_stepper;

use expresso_repro::core::{Expresso, SharedAnalysisContext};
use expresso_repro::explore::{benchmark_workload, Workload};
use expresso_repro::logic::Valuation;
use expresso_repro::monitor_lang::{check_monitor, CcrId, ExplicitMonitor, Expr, Monitor};
use expresso_repro::semantics::{Event, ExecError, SemanticsMode, Stepper, Trace};
use std::collections::HashMap;
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
    trace: Trace,
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
        trace: s.trace().clone(),
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
        trace: s.trace().clone(),
    }
}

/// The part of a configuration a fingerprint covers (not the step count,
/// flag or trace: the dedup key carries the depth itself), in one canonical
/// string — `Valuation`'s maps print in no fixed order.
fn canonical(view: &View) -> String {
    fn sorted(v: &Valuation) -> String {
        let mut ints: Vec<_> = v.ints().collect();
        ints.sort();
        let mut bools: Vec<_> = v.bools().collect();
        bools.sort();
        let mut arrays: Vec<_> = v.arrays().collect();
        arrays.sort();
        format!("{ints:?}{bools:?}{arrays:?}")
    }
    let threads: Vec<String> = view
        .threads
        .iter()
        .map(|t| {
            format!(
                "{:?} {} {} {}",
                t.position,
                sorted(&t.locals),
                t.blocked,
                t.notified
            )
        })
        .collect();
    format!("{} | {}", sorted(&view.shared), threads.join(" | "))
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
    distinct: usize,
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
        self.distinct += other.distinct;
    }
}

/// No suite schedule at these bounds is longer; a walk that is has stopped
/// terminating.
const DEPTH_LIMIT: usize = 64;

struct Harness {
    ccrs: usize,
    tally: Tally,
    by_fingerprint: HashMap<u64, String>,
    by_configuration: HashMap<String, u64>,
}

impl Harness {
    /// Walks every schedule from the configuration both steppers are in.
    /// The reference is copied per step (it has no `unstep`); the compiled
    /// stepper is the one the walk steps down and back up.
    fn walk(
        &mut self,
        reference: &TreeStepper<'_>,
        compiled: &mut Stepper<'_>,
    ) -> Result<(), String> {
        let view = view_of_reference(reference)?;
        let at = |what: &str| format!("after {:?}: {what}", view.trace);
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

        let fingerprint = compiled.fingerprint();
        let key = canonical(&view);
        let seen = self
            .by_fingerprint
            .entry(fingerprint)
            .or_insert_with(|| key.clone());
        if *seen != key {
            return Err(at(&format!(
                "fingerprint {fingerprint:#x} is shared by two configurations:\n {seen}\n {key}"
            )));
        }
        let first = *self.by_configuration.entry(key).or_insert(fingerprint);
        if first != fingerprint {
            return Err(at(&format!(
                "one configuration has two fingerprints: {first:#x} and {fingerprint:#x}"
            )));
        }

        let enabled = reference.enabled_events();
        if compiled.enabled_events() != enabled {
            return Err(at(&format!(
                "enabled events differ: reference {enabled:?}, compiled {:?}",
                compiled.enabled_events()
            )));
        }
        let enabled = enabled.map_err(|e| at(&format!("enabled events fail: {e}")))?;
        if enabled.is_empty() {
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
                    if enabled.contains(&event) {
                        self.walk(&next, compiled)?;
                    } else {
                        // Accepted but not enumerated (a spurious re-block
                        // with enumeration off): compared, not pursued.
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
            if view_of_compiled(compiled) != view || compiled.fingerprint() != fingerprint {
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

/// One run: both steppers from their initial configuration, every schedule.
fn lockstep(
    subject: &Subject<'_>,
    workload: &Workload,
    mode: SemanticsMode,
    spurious: bool,
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
        by_fingerprint: HashMap::new(),
        by_configuration: HashMap::new(),
    };
    harness.walk(&reference, &mut compiled)?;
    harness.tally.distinct = harness.by_configuration.len();
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
                        lockstep(&subject, &workload, mode, spurious).unwrap_or_else(|why| {
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
    assert!(
        total.distinct * 2 < total.configurations,
        "states recur: {total:?}"
    );
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
    let mut altered = monitor.clone();
    assert!(
        bump_first_constant(&mut altered.ccrs[take.0].guard),
        "`take` waits on a constant: {}",
        monitor.ccr(take).guard
    );
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
            lockstep(&honest, &workload, mode, false).unwrap();
            let verdict = lockstep(&crooked, &workload, mode, false);
            assert!(
                verdict.is_err(),
                "{threads}x{ops}, {mode:?}: the altered guard went unnoticed ({verdict:?})"
            );
        }
    }
}
