//! The reference stepper: `expresso_semantics::Stepper` as it was before it
//! ran compiled code, kept here so that the stepper that ships can be held to
//! it (`main.rs` beside this file steps the two side by side).
//!
//! Its configuration is named state — the shared [`Valuation`], one
//! [`ThreadSpec`] of working locals per thread, B and N as sets of
//! `(thread, ccr)` entries — and its evaluator is the tree-walking
//! [`Interpreter`]: every guard evaluation merges the thread's locals over a
//! copy of the shared state, every body writes every binding back. That is
//! slow and obviously right, which is what a reference is for. The logic of
//! `enabled_events` and `step` is the retired stepper's, line for line; what
//! changed is the type's name and the visibility of its fields (the harness
//! reads them), and what went is what nobody here calls: the recorded trace
//! and the fingerprint (the harness keeps its own path and compares whole
//! configurations).
//! No library target contains this file.

use expresso_repro::logic::Valuation;
use expresso_repro::monitor_lang::{
    CcrId, ExplicitMonitor, Interpreter, Monitor, NotificationKind, SignalCondition, VarTable,
};
use expresso_repro::semantics::{Event, ExecError, SemanticsMode, ThreadProgram, ThreadSpec};
use std::collections::BTreeSet;

/// A blocked/notified entry: `(thread, ccr)` as in the paper's B and N sets.
pub type Entry = (usize, CcrId);

/// The guard of `entry` over the shared state with the thread's locals
/// merged in by name.
fn eval_guard(
    interp: &Interpreter<'_>,
    monitor: &Monitor,
    shared: &Valuation,
    threads: &[ThreadSpec],
    entry: Entry,
) -> Result<bool, ExecError> {
    let mut view = shared.clone();
    view.extend_with(&threads[entry.0].locals);
    Ok(interp.eval_bool(&monitor.ccr(entry.1).guard, &view)?)
}

/// The body of `entry` on the merged view, every binding written back to
/// where the table says it lives.
fn exec_body(
    interp: &Interpreter<'_>,
    monitor: &Monitor,
    table: &VarTable,
    shared: &mut Valuation,
    threads: &mut [ThreadSpec],
    entry: Entry,
) -> Result<(), ExecError> {
    let mut view = shared.clone();
    view.extend_with(&threads[entry.0].locals);
    interp.exec(&monitor.ccr(entry.1).body, &mut view)?;
    // Write back shared variables and the thread's locals.
    for (name, value) in view.ints() {
        if table.is_shared(name) {
            shared.set_int(name.clone(), *value);
        } else {
            threads[entry.0].locals.set_int(name.clone(), *value);
        }
    }
    for (name, value) in view.bools() {
        if table.is_shared(name) {
            shared.set_bool(name.clone(), *value);
        } else {
            threads[entry.0].locals.set_bool(name.clone(), *value);
        }
    }
    for (name, value) in view.arrays() {
        if table.is_shared(name) {
            shared.set_array(name.clone(), value.clone());
        }
    }
    Ok(())
}

/// A stepwise executor for one transition relation. See the module docs.
#[derive(Debug, Clone)]
pub struct TreeStepper<'a> {
    monitor: &'a Monitor,
    table: &'a VarTable,
    /// `Some` when following the explicit relation.
    explicit: Option<&'a ExplicitMonitor>,
    /// Whether [`TreeStepper::enabled_events`] offers spurious wake-ups (a
    /// notified thread re-checking a false guard and going back to sleep).
    /// [`TreeStepper::step`] always *accepts* them (rule 1b) — the flag only
    /// controls enumeration.
    allow_spurious: bool,
    pub shared: Valuation,
    /// Immutable after construction; shared so cloning a stepper is a
    /// refcount bump, not a deep copy of every thread's call sequence.
    programs: std::sync::Arc<[ThreadProgram]>,
    /// Live per-thread view: the current call's method name and its working
    /// locals (method parameters plus locals written by executed bodies).
    pub threads: Vec<ThreadSpec>,
    /// Per-thread index of the current call in its program.
    pub call_idx: Vec<usize>,
    /// Per-thread index of the next CCR within the current call's method.
    pub ccr_idx: Vec<usize>,
    pub blocked: BTreeSet<Entry>,
    pub notified: BTreeSet<Entry>,
    /// Events executed so far.
    steps: usize,
    used_spurious: bool,
}

impl<'a> TreeStepper<'a> {
    /// Creates a stepper for the implicit-signal relation.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::MalformedTrace`] when a program references an
    /// unknown method.
    pub fn implicit(
        monitor: &'a Monitor,
        table: &'a VarTable,
        initial: Valuation,
        programs: Vec<ThreadProgram>,
    ) -> Result<Self, ExecError> {
        TreeStepper::new(monitor, table, None, initial, programs)
    }

    /// Creates a stepper for the explicit-signal relation of `explicit`
    /// (which must wrap the same monitor).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::MalformedTrace`] when a program references an
    /// unknown method.
    pub fn explicit(
        explicit: &'a ExplicitMonitor,
        table: &'a VarTable,
        initial: Valuation,
        programs: Vec<ThreadProgram>,
    ) -> Result<Self, ExecError> {
        TreeStepper::new(&explicit.monitor, table, Some(explicit), initial, programs)
    }

    fn new(
        monitor: &'a Monitor,
        table: &'a VarTable,
        explicit: Option<&'a ExplicitMonitor>,
        initial: Valuation,
        programs: Vec<ThreadProgram>,
    ) -> Result<Self, ExecError> {
        for program in &programs {
            for spec in program {
                if monitor.method(&spec.method).is_none() {
                    return Err(ExecError::MalformedTrace(spec.method.clone()));
                }
            }
        }
        let threads: Vec<ThreadSpec> = programs
            .iter()
            .map(|p| p.first().cloned().unwrap_or_else(|| ThreadSpec::new("")))
            .collect();
        let n = programs.len();
        Ok(TreeStepper {
            monitor,
            table,
            explicit,
            allow_spurious: explicit.is_some(),
            shared: initial,
            programs: programs.into(),
            threads,
            call_idx: vec![0; n],
            ccr_idx: vec![0; n],
            blocked: BTreeSet::new(),
            notified: BTreeSet::new(),
            steps: 0,
            used_spurious: false,
        })
    }

    /// Sets whether spurious wake-ups are *enumerated* (they are always
    /// accepted by [`TreeStepper::step`]). Defaults to off for implicit
    /// steppers (normalized traces), on for explicit ones.
    pub fn with_spurious_wakeups(mut self, allow: bool) -> Self {
        self.allow_spurious = allow;
        self
    }

    /// The mode this stepper follows.
    pub fn mode(&self) -> SemanticsMode {
        if self.explicit.is_some() {
            SemanticsMode::Explicit
        } else {
            SemanticsMode::Implicit
        }
    }

    /// Number of events executed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Whether any executed step relied on a spurious wake-up (rule 1b).
    pub fn used_spurious_wakeup(&self) -> bool {
        self.used_spurious
    }

    /// Number of threads in the workload.
    pub fn thread_count(&self) -> usize {
        self.programs.len()
    }

    /// `true` when thread `t` has finished every call of its program.
    pub fn thread_finished(&self, t: usize) -> bool {
        self.call_idx[t] >= self.programs[t].len()
    }

    /// `true` when every thread has run its whole program to completion.
    pub fn all_finished(&self) -> bool {
        (0..self.programs.len()).all(|t| self.thread_finished(t))
    }

    /// `true` when thread `t` is currently blocked on its CCR — i.e. a
    /// `fired = false` event for it would be a rule-1b spurious re-block
    /// rather than a first-time block.
    pub fn is_blocked(&self, t: usize) -> bool {
        self.current_entry(t)
            .is_some_and(|entry| self.blocked.contains(&entry))
    }

    /// The `(thread, ccr)` entry thread `t` is currently at, or `None` when
    /// the thread has finished its program.
    pub fn current_entry(&self, t: usize) -> Option<Entry> {
        if self.thread_finished(t) {
            return None;
        }
        let method = self
            .monitor
            .method(&self.threads[t].method)
            .expect("validated in the constructor");
        Some((t, method.ccrs[self.ccr_idx[t]]))
    }

    /// Every CCR thread `t` has yet to execute, in program order: the rest
    /// of the current call's method followed by the methods of all later
    /// calls. Empty when the thread has finished. Lets an explorer reason
    /// about the thread's entire residual footprint (e.g. to prove a slept
    /// transition commutes with everything the thread can still do).
    pub fn residual_ccrs(&self, t: usize) -> Vec<CcrId> {
        let mut out = Vec::new();
        if self.thread_finished(t) {
            return out;
        }
        let current = self
            .monitor
            .method(&self.threads[t].method)
            .expect("validated in the constructor");
        out.extend_from_slice(&current.ccrs[self.ccr_idx[t]..]);
        for spec in &self.programs[t][self.call_idx[t] + 1..] {
            let method = self
                .monitor
                .method(&spec.method)
                .expect("validated in the constructor");
            out.extend_from_slice(&method.ccrs);
        }
        out
    }

    /// Enumerates every event the transition relation permits from the
    /// current configuration, in ascending thread order. Empty when the
    /// workload has terminated *or* deadlocked (remaining threads all blocked
    /// without a wake-up).
    ///
    /// # Errors
    ///
    /// Propagates interpreter failures from guard evaluation.
    pub fn enabled_events(&self) -> Result<Vec<Event>, ExecError> {
        let interp = Interpreter::new(self.table);
        let mut actions = Vec::new();
        for t in 0..self.programs.len() {
            let Some(entry) = self.current_entry(t) else {
                continue;
            };
            let (_, ccr) = entry;
            let guard = eval_guard(&interp, self.monitor, &self.shared, &self.threads, entry)?;
            if self.blocked.contains(&entry) {
                if self.notified.contains(&entry) {
                    if guard && self.notified.iter().next() == Some(&entry) {
                        // Rule (2b): only the minimum notified entry resumes.
                        actions.push(Event {
                            thread: t,
                            ccr,
                            fired: true,
                        });
                    } else if !guard && self.allow_spurious {
                        // Rule (1b): a spurious wake-up re-blocks the thread.
                        actions.push(Event {
                            thread: t,
                            ccr,
                            fired: false,
                        });
                    }
                }
            } else if guard {
                actions.push(Event {
                    thread: t,
                    ccr,
                    fired: true,
                });
            } else {
                actions.push(Event {
                    thread: t,
                    ccr,
                    fired: false,
                });
            }
        }
        Ok(actions)
    }

    /// Executes one event, validating it against the transition relation's
    /// feasibility rules, which accept spurious wake-ups.
    ///
    /// # Errors
    ///
    /// [`ExecError::Infeasible`] when the relation does not permit the event
    /// from the current configuration, [`ExecError::MalformedTrace`] when the
    /// event does not match the thread's current program position.
    pub fn step(&mut self, event: Event) -> Result<(), ExecError> {
        let Event { thread: t, ccr, .. } = event;
        if t >= self.programs.len() {
            return Err(ExecError::MalformedTrace(format!("unknown thread {t}")));
        }
        let entry = self.current_entry(t).ok_or_else(|| {
            ExecError::MalformedTrace(format!("{event}: thread {t} has finished its program"))
        })?;
        if entry.1 != ccr {
            return Err(ExecError::MalformedTrace(format!(
                "{event}: thread {t} is at {}, not {ccr}",
                entry.1
            )));
        }
        let interp = Interpreter::new(self.table);
        let guard = eval_guard(&interp, self.monitor, &self.shared, &self.threads, entry)?;
        if !event.fired {
            if guard {
                return Err(ExecError::Infeasible(format!(
                    "{event}: guard is true but the event records blocking"
                )));
            }
            if self.blocked.contains(&entry) {
                if !self.notified.remove(&entry) {
                    return Err(ExecError::Infeasible(format!(
                        "{event}: thread is blocked but was never notified"
                    )));
                }
                self.used_spurious = true;
            } else {
                self.blocked.insert(entry);
            }
        } else {
            if !guard {
                return Err(ExecError::Infeasible(format!(
                    "{event}: guard is false but the event records firing"
                )));
            }
            if self.blocked.contains(&entry) {
                match self.notified.iter().next() {
                    Some(min) if *min == entry => {}
                    _ => {
                        return Err(ExecError::Infeasible(format!(
                            "{event}: a blocked thread fired without being the minimum \
                             notified entry"
                        )))
                    }
                }
                self.blocked.remove(&entry);
                self.notified.remove(&entry);
            }
            exec_body(
                &interp,
                self.monitor,
                self.table,
                &mut self.shared,
                &mut self.threads,
                entry,
            )?;
            match self.explicit {
                // Implicit (Fig. 4): wake everything whose predicate became true.
                None => {
                    for other in self.blocked.iter().copied().collect::<Vec<_>>() {
                        if eval_guard(&interp, self.monitor, &self.shared, &self.threads, other)? {
                            self.notified.insert(other);
                        }
                    }
                }
                // Explicit (Fig. 6): GetSignals / GetBroadcasts.
                Some(explicit) => {
                    for notification in explicit.notifications_for(ccr) {
                        let candidates: Vec<Entry> = self
                            .blocked
                            .iter()
                            .copied()
                            .filter(|e| self.monitor.ccr(e.1).guard == notification.predicate)
                            .collect();
                        let eligible: Vec<Entry> = match notification.condition {
                            SignalCondition::Unconditional => candidates,
                            SignalCondition::Conditional => {
                                let mut kept = Vec::new();
                                for c in candidates {
                                    if eval_guard(
                                        &interp,
                                        self.monitor,
                                        &self.shared,
                                        &self.threads,
                                        c,
                                    )? {
                                        kept.push(c);
                                    }
                                }
                                kept
                            }
                        };
                        match notification.kind {
                            NotificationKind::Signal => {
                                // A signalled waiter leaves the condition
                                // queue, so signals go to waiters that have
                                // not been notified yet.
                                if let Some(first) = eligible
                                    .into_iter()
                                    .filter(|e| !self.notified.contains(e))
                                    .min()
                                {
                                    self.notified.insert(first);
                                }
                            }
                            NotificationKind::Broadcast => self.notified.extend(eligible),
                        }
                    }
                }
            }
            self.advance(t);
        }
        self.steps += 1;
        Ok(())
    }

    /// Advances thread `t` past a fired CCR, rolling into the next call of
    /// its program when the current method is exhausted.
    fn advance(&mut self, t: usize) {
        self.ccr_idx[t] += 1;
        let method = self
            .monitor
            .method(&self.threads[t].method)
            .expect("validated in the constructor");
        if self.ccr_idx[t] >= method.ccrs.len() {
            self.call_idx[t] += 1;
            self.ccr_idx[t] = 0;
            if let Some(next) = self.programs[t].get(self.call_idx[t]) {
                // A fresh call starts from its own parameter valuation.
                self.threads[t] = next.clone();
            }
        }
    }
}
