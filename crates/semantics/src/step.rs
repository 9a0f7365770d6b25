//! The controllable step API shared by the random simulator and the
//! systematic schedule explorer.
//!
//! A [`Stepper`] holds one configuration of either transition relation — the
//! shared state, each thread's position in its call sequence, and the paper's
//! B (blocked) and N (notified) sets — and exposes the operations a
//! scheduler needs:
//!
//! * [`Stepper::enabled_events`] — enumerate every transition the relation
//!   permits from the current configuration, in deterministic thread order;
//! * [`Stepper::step`] — take one transition, validating it against the
//!   relation (the feasibility rules `run_implicit` / `run_explicit` enforce
//!   during whole-trace replay);
//! * [`Stepper::unstep`] — take the last transition back, so a depth-first
//!   search walks one configuration down and up instead of copying it per
//!   branch;
//! * [`Stepper::fingerprint`] — a deterministic hash of the full
//!   configuration (shared state, locals, program counters, B and N), which
//!   `tests/stepper_lockstep` holds injective over every reached
//!   configuration.
//!
//! The random `Simulator` in [`crate::trace`] and the systematic explorer in
//! `expresso-explore` both drive this one stepper, so the two modes cannot
//! drift apart semantically.
//!
//! Unlike the trace-replay entry points, a stepper runs each thread through a
//! *sequence* of monitor-method calls (a [`ThreadProgram`]), which is what a
//! bounded exploration workload needs; a single-call program reproduces the
//! classic `ThreadSpec` behaviour exactly.
//!
//! # Representation
//!
//! Everything a name would have to be looked up for is resolved once, in the
//! constructor, into an immutable workload every copy of the stepper shares:
//! the monitor compiled to a [`Program`], each call's CCR ids and
//! [`Layout::bind`](expresso_monitor_lang::Layout::bind)-ed parameters, and —
//! for the explicit relation — each notification as the set of CCRs whose
//! guard *is* its predicate. What is left to change is slots: a [`Frame`],
//! one [`Locals`] and two counters per thread, and B and N as thread sets (a
//! blocked thread does not move, so its `(thread, ccr)` entry is determined
//! by the thread, and rule 2b's minimum entry is the lowest notified thread).
//! No step touches a `String`, a `HashMap` or an expression tree.
//!
//! # What keeps this honest
//!
//! The explorer built on this stepper judges the engines, and it now runs the
//! evaluator they run. Two things stand between a `compile` bug and a wrong
//! verdict. `run_implicit` / `run_explicit` still replay whole traces on the
//! tree-walking interpreter, so every trace `check_equivalence` samples is
//! generated here and replayed there. And `tests/stepper_lockstep` keeps the
//! stepper this one replaced — named state, tree evaluator — and steps the
//! two side by side over every schedule of every suite monitor at small
//! bounds: same enabled sets, same acceptances and rejections, same
//! configurations, `unstep` exact, fingerprints injective.

use crate::trace::{Event, ExecError, ThreadSpec, Trace};
use expresso_logic::{FxHasher, Valuation};
use expresso_monitor_lang::{
    CcrId, ExplicitMonitor, Frame, Locals, Monitor, NotificationKind, Program, SignalCondition,
    VarTable,
};
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::sync::Arc;

/// One thread's workload: the monitor-method calls it performs, in order.
pub type ThreadProgram = Vec<ThreadSpec>;

/// Which transition relation a [`Stepper`] follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemanticsMode {
    /// The implicit-signal relation (paper Fig. 4).
    Implicit,
    /// The explicit-signal relation (paper Figs. 5–6).
    Explicit,
}

/// The widest workload a stepper takes: B and N hold one bit per thread.
const MAX_THREADS: usize = u64::BITS as usize;

/// One call of a thread's program.
#[derive(Debug)]
struct Call {
    /// One past the call's last CCR in [`Plan::ccrs`].
    end: usize,
    /// The call's parameters: what the thread's locals are when it starts.
    locals: Locals,
}

/// One thread's program, resolved against the monitor.
#[derive(Debug)]
struct Plan {
    /// The CCRs of every call, in program order. Every call has at least
    /// one, so the thread has finished exactly when it is past the last.
    ccrs: Vec<CcrId>,
    calls: Vec<Call>,
}

/// One `signal` / `broadcast` annotation of the explicit relation.
#[derive(Debug)]
struct Notify {
    /// By `CcrId.0`: whether that CCR's guard is the notified predicate.
    /// Fig. 6 selects waiters by predicate identity, not by meaning, so this
    /// is the syntactic comparison the tree semantics make, made once.
    waits: Box<[bool]>,
    conditional: bool,
    signal: bool,
}

/// What no step changes. See the module docs.
#[derive(Debug)]
struct Resolved {
    program: Program,
    plans: Vec<Plan>,
    /// `Some` for the explicit relation: what follows each CCR, by `CcrId.0`.
    notifications: Option<Vec<Vec<Notify>>>,
}

impl Resolved {
    fn new(
        monitor: &Monitor,
        table: &VarTable,
        explicit: Option<&ExplicitMonitor>,
        programs: &[ThreadProgram],
    ) -> Result<Resolved, ExecError> {
        if programs.len() > MAX_THREADS {
            return Err(ExecError::TooLarge(format!(
                "{} threads; a workload has at most {MAX_THREADS}",
                programs.len()
            )));
        }
        let program = Program::checked(monitor, table.clone());
        let mut plans = Vec::with_capacity(programs.len());
        for (t, calls) in programs.iter().enumerate() {
            let mut plan = Plan {
                ccrs: Vec::new(),
                calls: Vec::with_capacity(calls.len()),
            };
            for spec in calls {
                let method = monitor
                    .method(&spec.method)
                    .ok_or_else(|| ExecError::MalformedTrace(spec.method.clone()))?;
                if method.ccrs.is_empty() {
                    return Err(ExecError::MalformedTrace(format!(
                        "method `{}` has no CCR",
                        spec.method
                    )));
                }
                let locals = program
                    .layout()
                    .bind(&spec.locals)
                    .map_err(|name| shared_binding(t, &name))?;
                plan.ccrs.extend_from_slice(&method.ccrs);
                plan.calls.push(Call {
                    end: plan.ccrs.len(),
                    locals,
                });
            }
            plans.push(plan);
        }
        let notifications = explicit.map(|explicit| {
            monitor
                .all_ccrs()
                .map(|ccr| {
                    explicit
                        .notifications_for(ccr.id)
                        .iter()
                        .map(|n| Notify {
                            waits: monitor
                                .all_ccrs()
                                .map(|waiter| waiter.guard == n.predicate)
                                .collect(),
                            conditional: n.condition == SignalCondition::Conditional,
                            signal: n.kind == NotificationKind::Signal,
                        })
                        .collect()
                })
                .collect()
        });
        Ok(Resolved {
            program,
            plans,
            notifications,
        })
    }
}

/// The rejection of a thread whose locals name a shared variable: merged
/// over the shared state by name, such a binding would forge it.
pub(crate) fn shared_binding(thread: usize, name: &str) -> ExecError {
    ExecError::MalformedTrace(format!(
        "thread {thread} binds `{name}`, which is shared state, as a local"
    ))
}

/// One thread's part of a configuration.
#[derive(Debug, Clone)]
struct Thread {
    /// Index of the current call in [`Plan::calls`].
    call: usize,
    /// Index of the next CCR in [`Plan::ccrs`].
    pc: usize,
    /// The current call's working locals: its parameters plus what executed
    /// bodies declared. Left as they are when the last call returns.
    locals: Locals,
}

/// What [`Stepper::unstep`] needs of one executed step.
#[derive(Debug, Clone)]
struct Taken {
    thread: usize,
    fired: bool,
    call: usize,
    pc: usize,
    blocked: u64,
    notified: u64,
    used_spurious: bool,
    /// Length of [`Undo::elements`] before the step.
    elements: usize,
}

/// What the executed steps overwrote, newest last. A fired step saves the
/// shared scalars and the stepping thread's locals whole (a handful of
/// slots, each of fixed count) and the array elements its body wrote.
#[derive(Debug, Clone, Default)]
struct Undo {
    taken: Vec<Taken>,
    scalars: Vec<i64>,
    locals: Vec<Option<i64>>,
    elements: Vec<(u32, usize, i64)>,
}

/// A stepwise executor for one transition relation. See the module docs.
#[derive(Debug, Clone)]
pub struct Stepper<'a> {
    resolved: Arc<Resolved>,
    /// Whether [`Stepper::enabled_events`] offers spurious wake-ups (a
    /// notified thread re-checking a false guard and going back to sleep).
    /// [`Stepper::step`] always *accepts* them, mirroring `run_implicit`'s
    /// rule (1b) — the flag only controls enumeration.
    allow_spurious: bool,
    frame: Frame,
    threads: Vec<Thread>,
    /// B and N, one bit per thread; N is a subset of B.
    blocked: u64,
    notified: u64,
    undo: Undo,
    /// Executed events, when recording is on (see [`Stepper::record_trace`]).
    trace: Trace,
    /// Events executed so far (tracked independently of recording).
    steps: usize,
    recording: bool,
    used_spurious: bool,
    /// The constructors borrow the monitor and callers name `Stepper<'_>`;
    /// everything a step needs was resolved out of the borrow.
    monitor: PhantomData<&'a Monitor>,
}

impl<'a> Stepper<'a> {
    /// Creates a stepper for the implicit-signal relation. `table` must be
    /// what [`check_monitor`](expresso_monitor_lang::check_monitor) returned
    /// for `monitor`: the monitor is compiled against it, not checked again.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::MalformedTrace`] when a program references an
    /// unknown method or binds a shared variable as a thread's local,
    /// [`ExecError::TooLarge`] past 64 threads (B and N are one word), and
    /// [`ExecError::Runtime`] when `initial` lacks a shared variable.
    pub fn implicit(
        monitor: &'a Monitor,
        table: &'a VarTable,
        initial: Valuation,
        programs: Vec<ThreadProgram>,
    ) -> Result<Self, ExecError> {
        Stepper::new(monitor, table, None, initial, programs)
    }

    /// Creates a stepper for the explicit-signal relation of `explicit`
    /// (which must wrap the same monitor); `table` as for
    /// [`Stepper::implicit`].
    ///
    /// # Errors
    ///
    /// As [`Stepper::implicit`].
    pub fn explicit(
        explicit: &'a ExplicitMonitor,
        table: &'a VarTable,
        initial: Valuation,
        programs: Vec<ThreadProgram>,
    ) -> Result<Self, ExecError> {
        Stepper::new(&explicit.monitor, table, Some(explicit), initial, programs)
    }

    fn new(
        monitor: &'a Monitor,
        table: &'a VarTable,
        explicit: Option<&'a ExplicitMonitor>,
        initial: Valuation,
        programs: Vec<ThreadProgram>,
    ) -> Result<Self, ExecError> {
        let resolved = Resolved::new(monitor, table, explicit, &programs)?;
        let layout = resolved.program.layout();
        let frame = layout.frame(&initial)?;
        let unbound = layout
            .bind(&Valuation::new())
            .expect("no binding names a shared variable");
        let threads = resolved
            .plans
            .iter()
            .map(|plan| Thread {
                call: 0,
                pc: 0,
                locals: plan
                    .calls
                    .first()
                    .map_or_else(|| unbound.clone(), |call| call.locals.clone()),
            })
            .collect();
        Ok(Stepper {
            resolved: Arc::new(resolved),
            allow_spurious: explicit.is_some(),
            frame,
            threads,
            blocked: 0,
            notified: 0,
            undo: Undo::default(),
            trace: Vec::new(),
            steps: 0,
            recording: true,
            used_spurious: false,
            monitor: PhantomData,
        })
    }

    /// Sets whether spurious wake-ups are *enumerated* (they are always
    /// accepted by [`Stepper::step`]). Defaults to the historical simulator
    /// behaviour: off for implicit steppers (normalized traces), on for
    /// explicit ones.
    pub fn with_spurious_wakeups(mut self, allow: bool) -> Self {
        self.allow_spurious = allow;
        self
    }

    /// Sets whether executed events are recorded in [`Stepper::trace`]
    /// (default: on). An explorer that reconstructs counterexamples from its
    /// own search path turns recording off.
    pub fn record_trace(mut self, record: bool) -> Self {
        self.recording = record;
        self
    }

    /// The mode this stepper follows.
    pub fn mode(&self) -> SemanticsMode {
        if self.resolved.notifications.is_some() {
            SemanticsMode::Explicit
        } else {
            SemanticsMode::Implicit
        }
    }

    /// The shared monitor state of the current configuration, by name.
    pub fn shared(&self) -> Valuation {
        self.resolved.program.layout().snapshot(&self.frame)
    }

    /// The shared monitor state as the slots the steps run on. Two steppers
    /// over one monitor lay their frames out alike, so comparing frames
    /// compares states.
    pub fn frame(&self) -> &Frame {
        &self.frame
    }

    /// Thread `t`'s working locals, by name: the current call's parameters
    /// plus whatever its executed bodies declared.
    pub fn locals(&self, t: usize) -> Valuation {
        self.resolved
            .program
            .layout()
            .unbind(&self.threads[t].locals)
    }

    /// Thread `t`'s program counters: the index of its current call, and of
    /// its next CCR within that call's method.
    pub fn position(&self, t: usize) -> (usize, usize) {
        let thread = &self.threads[t];
        let start = match thread.call {
            0 => 0,
            call => self.resolved.plans[t].calls[call - 1].end,
        };
        (thread.call, thread.pc - start)
    }

    /// The events executed so far (empty when recording is off).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the stepper, returning the executed trace.
    pub fn into_trace(self) -> Trace {
        self.trace
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
        self.threads.len()
    }

    /// `true` when thread `t` has finished every call of its program.
    pub fn thread_finished(&self, t: usize) -> bool {
        self.threads[t].pc >= self.resolved.plans[t].ccrs.len()
    }

    /// `true` when every thread has run its whole program to completion.
    pub fn all_finished(&self) -> bool {
        (0..self.threads.len()).all(|t| self.thread_finished(t))
    }

    /// `true` when thread `t` is currently blocked on its CCR — i.e. a
    /// `fired = false` event for it would be a rule-1b spurious re-block
    /// rather than a first-time block.
    pub fn is_blocked(&self, t: usize) -> bool {
        t < self.threads.len() && self.blocked >> t & 1 == 1
    }

    /// `true` when thread `t` is blocked and has been notified since.
    pub fn is_notified(&self, t: usize) -> bool {
        t < self.threads.len() && self.notified >> t & 1 == 1
    }

    /// The `(thread, ccr)` entry thread `t` is currently at, or `None` when
    /// the thread has finished its program.
    pub fn current_entry(&self, t: usize) -> Option<(usize, CcrId)> {
        self.residual_ccrs(t).first().map(|&ccr| (t, ccr))
    }

    /// Every CCR thread `t` has yet to execute, in program order: the rest
    /// of the current call's method followed by the methods of all later
    /// calls. Empty when the thread has finished. Lets an explorer reason
    /// about the thread's entire residual footprint (e.g. to prove a slept
    /// transition commutes with everything the thread can still do).
    pub fn residual_ccrs(&self, t: usize) -> &[CcrId] {
        &self.resolved.plans[t].ccrs[self.threads[t].pc..]
    }

    /// Thread `t`'s current guard on the current configuration.
    fn guard(&self, t: usize, ccr: CcrId) -> Result<bool, ExecError> {
        let program = &self.resolved.program;
        Ok(program.eval(program.guard(ccr), &self.frame, &self.threads[t].locals)?)
    }

    /// Enumerates every event the transition relation permits from the
    /// current configuration, in ascending thread order. Empty when the
    /// workload has terminated *or* deadlocked (remaining threads all blocked
    /// without a wake-up).
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures from the guards.
    pub fn enabled_events(&self) -> Result<Vec<Event>, ExecError> {
        let mut events = Vec::new();
        self.enabled_into(&mut events)?;
        Ok(events)
    }

    /// [`Stepper::enabled_events`], appended to `events`: a search that
    /// keeps one buffer for all its frames allocates nothing per node.
    ///
    /// # Errors
    ///
    /// As [`Stepper::enabled_events`]; `events` may then hold the events of
    /// the threads before the failing one.
    pub fn enabled_into(&self, events: &mut Vec<Event>) -> Result<(), ExecError> {
        for t in 0..self.threads.len() {
            let Some((_, ccr)) = self.current_entry(t) else {
                continue;
            };
            let guard = self.guard(t, ccr)?;
            let fired = if !self.is_blocked(t) {
                guard
            } else if !self.is_notified(t) {
                continue;
            } else if guard && self.notified.trailing_zeros() as usize == t {
                // Rule (2b): only the minimum notified entry resumes.
                true
            } else if !guard && self.allow_spurious {
                // Rule (1b): a spurious wake-up re-blocks the thread.
                false
            } else {
                continue;
            };
            events.push(Event {
                thread: t,
                ccr,
                fired,
            });
        }
        Ok(())
    }

    /// Executes one event, validating it against the transition relation —
    /// the same feasibility rules `run_implicit` / `run_explicit` enforce
    /// during whole-trace replay, including acceptance of spurious wake-ups.
    ///
    /// # Errors
    ///
    /// [`ExecError::Infeasible`] when the relation does not permit the event
    /// from the current configuration, [`ExecError::MalformedTrace`] when the
    /// event does not match the thread's current program position. Whatever
    /// the error, the configuration is as it was before the call.
    pub fn step(&mut self, event: Event) -> Result<(), ExecError> {
        let Event { thread: t, ccr, .. } = event;
        if t >= self.threads.len() {
            return Err(ExecError::MalformedTrace(format!("unknown thread {t}")));
        }
        let (_, at) = self.current_entry(t).ok_or_else(|| {
            ExecError::MalformedTrace(format!("{event}: thread {t} has finished its program"))
        })?;
        if at != ccr {
            return Err(ExecError::MalformedTrace(format!(
                "{event}: thread {t} is at {at}, not {ccr}"
            )));
        }
        let guard = self.guard(t, ccr)?;
        let blocked = self.is_blocked(t);
        if guard != event.fired {
            return Err(ExecError::Infeasible(if guard {
                format!("{event}: guard is true but the event records blocking")
            } else {
                format!("{event}: guard is false but the event records firing")
            }));
        }
        if blocked && !event.fired && !self.is_notified(t) {
            return Err(ExecError::Infeasible(format!(
                "{event}: thread is blocked but was never notified"
            )));
        }
        if blocked && event.fired && self.notified.trailing_zeros() as usize != t {
            return Err(ExecError::Infeasible(format!(
                "{event}: a blocked thread fired without being the minimum notified entry"
            )));
        }
        let thread = &self.threads[t];
        self.undo.taken.push(Taken {
            thread: t,
            fired: event.fired,
            call: thread.call,
            pc: thread.pc,
            blocked: self.blocked,
            notified: self.notified,
            used_spurious: self.used_spurious,
            elements: self.undo.elements.len(),
        });
        let bit = 1u64 << t;
        if event.fired {
            self.undo.scalars.extend_from_slice(self.frame.scalars());
            self.undo.locals.extend_from_slice(thread.locals.slots());
            if let Err(error) = self.fire(t, ccr) {
                self.revert();
                return Err(error);
            }
        } else if blocked {
            self.notified &= !bit;
            self.used_spurious = true;
        } else {
            self.blocked |= bit;
        }
        self.steps += 1;
        if self.recording {
            self.trace.push(event);
        }
        Ok(())
    }

    /// The effects of thread `t` firing `ccr`, its guard checked: it leaves B
    /// and N, the body runs, the relation notifies, the thread moves on.
    fn fire(&mut self, t: usize, ccr: CcrId) -> Result<(), ExecError> {
        let resolved = &*self.resolved;
        let bit = 1u64 << t;
        self.blocked &= !bit;
        self.notified &= !bit;
        resolved
            .program
            .exec(ccr, &mut self.frame, &mut self.threads[t].locals)?;
        self.undo
            .elements
            .extend_from_slice(self.frame.overwritten());
        match &resolved.notifications {
            // Implicit (Fig. 4): wake everything whose predicate became true.
            None => self.notified |= self.waiters_with_true_guard(self.blocked)?,
            // Explicit (Fig. 6): GetSignals / GetBroadcasts.
            Some(notifications) => {
                for notify in &notifications[ccr.0] {
                    let mut eligible = 0u64;
                    for other in bits(self.blocked) {
                        let waits_on = resolved.plans[other].ccrs[self.threads[other].pc];
                        if notify.waits[waits_on.0] {
                            eligible |= 1 << other;
                        }
                    }
                    if notify.conditional {
                        eligible = self.waiters_with_true_guard(eligible)?;
                    }
                    if notify.signal {
                        // A signalled waiter leaves the condition queue, so
                        // signals go to waiters that have not been notified
                        // yet: the lowest such thread.
                        let waiting = eligible & !self.notified;
                        eligible = waiting & waiting.wrapping_neg();
                    }
                    self.notified |= eligible;
                }
            }
        }
        // Past a fired CCR, rolling into the next call of the program when
        // the current method is exhausted. A fresh call starts from its own
        // parameters.
        let plan = &resolved.plans[t];
        let thread = &mut self.threads[t];
        thread.pc += 1;
        if thread.pc >= plan.calls[thread.call].end {
            thread.call += 1;
            if let Some(next) = plan.calls.get(thread.call) {
                thread.locals.restore(next.locals.slots());
            }
        }
        Ok(())
    }

    /// The threads of `waiters` (all blocked) whose guard holds now, each
    /// guard evaluated, in thread order.
    fn waiters_with_true_guard(&self, waiters: u64) -> Result<u64, ExecError> {
        let mut holding = 0u64;
        for other in bits(waiters) {
            let ccr = self.resolved.plans[other].ccrs[self.threads[other].pc];
            if self.guard(other, ccr)? {
                holding |= 1 << other;
            }
        }
        Ok(holding)
    }

    /// Takes the last executed step back and returns its event, or `None`
    /// when no step has been executed (a copy of a stepper can take back the
    /// steps the original had made). Exact: the configuration, counters and
    /// fingerprint are those before the step.
    pub fn unstep(&mut self) -> Option<Event> {
        if self.undo.taken.is_empty() {
            return None;
        }
        self.steps -= 1;
        if self.recording {
            self.trace.pop();
        }
        Some(self.revert())
    }

    /// Puts back what the newest entry of the undo log saved.
    fn revert(&mut self) -> Event {
        let taken = self.undo.taken.pop().expect("a step was logged");
        let thread = &mut self.threads[taken.thread];
        if taken.fired {
            let scalars = self.undo.scalars.len() - self.frame.scalars().len();
            self.frame.restore(
                &self.undo.scalars[scalars..],
                &self.undo.elements[taken.elements..],
            );
            self.undo.scalars.truncate(scalars);
            self.undo.elements.truncate(taken.elements);
            let locals = self.undo.locals.len() - thread.locals.slots().len();
            thread.locals.restore(&self.undo.locals[locals..]);
            self.undo.locals.truncate(locals);
        }
        thread.call = taken.call;
        thread.pc = taken.pc;
        self.blocked = taken.blocked;
        self.notified = taken.notified;
        self.used_spurious = taken.used_spurious;
        Event {
            thread: taken.thread,
            ccr: self.resolved.plans[taken.thread].ccrs[taken.pc],
            fired: taken.fired,
        }
    }

    /// A deterministic fingerprint of the full configuration: shared state,
    /// per-thread locals and program counters, and the B and N sets. Two
    /// configurations with equal fingerprints are (modulo hash collisions)
    /// identical, which is what a cycle check over reached configurations
    /// needs.
    pub fn fingerprint(&self) -> u64 {
        let mut hasher = FxHasher::default();
        self.frame.scalars().hash(&mut hasher);
        self.frame.arrays().hash(&mut hasher);
        for thread in &self.threads {
            thread.call.hash(&mut hasher);
            thread.pc.hash(&mut hasher);
            thread.locals.slots().hash(&mut hasher);
        }
        self.blocked.hash(&mut hasher);
        self.notified.hash(&mut hasher);
        hasher.finish()
    }
}

/// The set bits of `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{run_implicit, TraceOutcome};
    use expresso_monitor_lang::{check_monitor, parse_monitor};

    fn counter() -> (Monitor, VarTable) {
        let m = parse_monitor(
            r#"
            monitor Counter {
                int count = 0;
                atomic void release() { count++; }
                atomic void acquire() { waituntil (count > 0) { count--; } }
            }
            "#,
        )
        .unwrap();
        let t = check_monitor(&m).unwrap();
        (m, t)
    }

    fn init(m: &Monitor, t: &VarTable) -> Valuation {
        expresso_monitor_lang::initial_state(m, t, &Valuation::new()).unwrap()
    }

    #[test]
    fn stepper_traces_replay_under_run_implicit() {
        let (m, t) = counter();
        let programs: Vec<ThreadProgram> = vec![
            vec![ThreadSpec::new("acquire"), ThreadSpec::new("acquire")],
            vec![ThreadSpec::new("release"), ThreadSpec::new("release")],
        ];
        let mut stepper = Stepper::implicit(&m, &t, init(&m, &t), programs).unwrap();
        // Drive to completion taking the first enabled event each time.
        while let Some(&event) = stepper.enabled_events().unwrap().first() {
            stepper.step(event).unwrap();
        }
        assert!(stepper.all_finished());
        assert_eq!(stepper.shared().int("count"), Some(0));
        // Single-call threads replay through the classic entry point; the
        // multi-call trace reuses CCR ids across calls, which run_implicit's
        // single-method model also accepts for this monitor.
        let flat: Vec<ThreadSpec> = vec![ThreadSpec::new("acquire"), ThreadSpec::new("release")];
        let TraceOutcome { final_state, .. } =
            run_implicit(&m, &t, &init(&m, &t), &flat, stepper.trace()).unwrap();
        assert_eq!(final_state.int("count"), Some(0));
    }

    #[test]
    fn step_rejects_infeasible_events() {
        let (m, t) = counter();
        let acquire = m.method("acquire").unwrap().ccrs[0];
        let programs = vec![vec![ThreadSpec::new("acquire")]];
        let mut stepper = Stepper::implicit(&m, &t, init(&m, &t), programs).unwrap();
        let err = stepper
            .step(Event {
                thread: 0,
                ccr: acquire,
                fired: true,
            })
            .unwrap_err();
        assert!(matches!(err, ExecError::Infeasible(_)));
        // Blocking is the feasible move; the trace records it.
        stepper
            .step(Event {
                thread: 0,
                ccr: acquire,
                fired: false,
            })
            .unwrap();
        assert_eq!(stepper.steps(), 1);
        assert!(stepper.enabled_events().unwrap().is_empty(), "deadlocked");
        assert!(!stepper.all_finished());
    }

    #[test]
    fn fingerprints_are_deterministic_and_state_sensitive() {
        let (m, t) = counter();
        let programs = vec![
            vec![ThreadSpec::new("release")],
            vec![ThreadSpec::new("acquire")],
        ];
        let a = Stepper::implicit(&m, &t, init(&m, &t), programs.clone()).unwrap();
        let b = Stepper::implicit(&m, &t, init(&m, &t), programs).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = b.clone();
        let release = m.method("release").unwrap().ccrs[0];
        c.step(Event {
            thread: 0,
            ccr: release,
            fired: true,
        })
        .unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn explicit_stepper_follows_notifications() {
        let (m, t) = counter();
        let acquire = m.method("acquire").unwrap().ccrs[0];
        let release = m.method("release").unwrap().ccrs[0];
        let silent = ExplicitMonitor::without_signals(m.clone());
        let programs = vec![
            vec![ThreadSpec::new("acquire")],
            vec![ThreadSpec::new("release")],
        ];
        let mut stepper = Stepper::explicit(&silent, &t, init(&m, &t), programs.clone()).unwrap();
        stepper
            .step(Event {
                thread: 0,
                ccr: acquire,
                fired: false,
            })
            .unwrap();
        stepper
            .step(Event {
                thread: 1,
                ccr: release,
                fired: true,
            })
            .unwrap();
        // No signal was emitted, so the blocked acquirer stays asleep.
        assert!(stepper.enabled_events().unwrap().is_empty());
        // The broadcast-everything monitor wakes it.
        let noisy = ExplicitMonitor::broadcast_all(m.clone());
        let mut stepper = Stepper::explicit(&noisy, &t, init(&m, &t), programs).unwrap();
        stepper
            .step(Event {
                thread: 0,
                ccr: acquire,
                fired: false,
            })
            .unwrap();
        stepper
            .step(Event {
                thread: 1,
                ccr: release,
                fired: true,
            })
            .unwrap();
        let enabled = stepper.enabled_events().unwrap();
        assert_eq!(
            enabled,
            vec![Event {
                thread: 0,
                ccr: acquire,
                fired: true,
            }]
        );
    }

    /// What `unstep` must restore, gathered through the public accessors.
    fn observe(s: &Stepper<'_>) -> impl PartialEq + std::fmt::Debug {
        let threads: Vec<_> = (0..s.thread_count())
            .map(|t| {
                (
                    s.position(t),
                    s.locals(t),
                    s.is_blocked(t),
                    s.is_notified(t),
                )
            })
            .collect();
        (
            s.shared(),
            threads,
            s.steps(),
            s.used_spurious_wakeup(),
            s.trace().clone(),
            s.fingerprint(),
        )
    }

    #[test]
    fn unstep_takes_every_step_back_exactly() {
        let (m, t) = counter();
        let programs: Vec<ThreadProgram> = vec![
            vec![ThreadSpec::new("acquire"), ThreadSpec::new("acquire")],
            vec![ThreadSpec::new("release"), ThreadSpec::new("release")],
        ];
        let mut stepper = Stepper::implicit(&m, &t, init(&m, &t), programs).unwrap();
        assert_eq!(stepper.unstep(), None, "nothing to take back yet");
        let mut before = Vec::new();
        while let Some(&event) = stepper.enabled_events().unwrap().first() {
            before.push((event, observe(&stepper)));
            stepper.step(event).unwrap();
        }
        assert!(stepper.all_finished());
        assert!(before.iter().any(|(e, _)| !e.fired), "a block was undone");
        for (event, observed) in before.into_iter().rev() {
            assert_eq!(stepper.unstep(), Some(event));
            assert_eq!(observe(&stepper), observed, "{event}");
        }
        assert_eq!(stepper.unstep(), None);
    }

    #[test]
    fn a_rejected_step_leaves_the_configuration_alone() {
        // `take` passes its guard and then faults on the element read: the
        // fired step is refused with the body's error, B, N, counters and
        // locals as they were.
        let m = parse_monitor(
            r#"
            monitor Shelf {
                int[] items = new int[1];
                int taken = 0;
                atomic void take(int at) { taken = taken + 1; taken = items[at]; }
            }
            "#,
        )
        .unwrap();
        let t = check_monitor(&m).unwrap();
        let take = m.method("take").unwrap().ccrs[0];
        let mut locals = Valuation::new();
        locals.set_int("at", 3);
        let programs = vec![vec![ThreadSpec::with_locals("take", locals)]];
        let mut stepper = Stepper::implicit(&m, &t, init(&m, &t), programs).unwrap();
        let before = observe(&stepper);
        let err = stepper
            .step(Event {
                thread: 0,
                ccr: take,
                fired: true,
            })
            .unwrap_err();
        assert!(matches!(err, ExecError::Runtime(_)), "{err}");
        assert_eq!(observe(&stepper), before);
        assert_eq!(stepper.unstep(), None, "the refused step was not logged");
    }

    /// A thread whose `count` local would, merged over the shared state by
    /// name, hand `acquire` a token nobody released.
    fn forged_programs() -> Vec<ThreadProgram> {
        let mut forged = Valuation::new();
        forged.set_int("count", 7);
        vec![vec![ThreadSpec::with_locals("acquire", forged)]]
    }

    fn assert_names_count(built: Result<Stepper<'_>, ExecError>) {
        match built.map(drop) {
            Err(ExecError::MalformedTrace(why)) => assert!(why.contains("`count`"), "{why}"),
            other => panic!("a forged `count` must be refused, got {other:?}"),
        }
    }

    #[test]
    fn implicit_stepper_refuses_a_local_that_names_shared_state() {
        let (m, t) = counter();
        assert_names_count(Stepper::implicit(&m, &t, init(&m, &t), forged_programs()));
    }

    #[test]
    fn explicit_stepper_refuses_a_local_that_names_shared_state() {
        let (m, t) = counter();
        let explicit = ExplicitMonitor::broadcast_all(m.clone());
        assert_names_count(Stepper::explicit(
            &explicit,
            &t,
            init(&m, &t),
            forged_programs(),
        ));
    }

    #[test]
    fn a_workload_wider_than_the_thread_sets_is_refused() {
        let (m, t) = counter();
        let programs = |threads: usize| vec![vec![ThreadSpec::new("release")]; threads];
        assert!(Stepper::implicit(&m, &t, init(&m, &t), programs(MAX_THREADS)).is_ok());
        let err = Stepper::implicit(&m, &t, init(&m, &t), programs(MAX_THREADS + 1)).unwrap_err();
        assert!(matches!(err, ExecError::TooLarge(_)), "{err}");
        // The last thread's bit is a real bit: it blocks, is woken and fires.
        let mut wide = programs(MAX_THREADS);
        wide[MAX_THREADS - 1] = vec![ThreadSpec::new("acquire")];
        let mut stepper = Stepper::implicit(&m, &t, init(&m, &t), wide).unwrap();
        let last = MAX_THREADS - 1;
        let acquire = m.method("acquire").unwrap().ccrs[0];
        let release = m.method("release").unwrap().ccrs[0];
        let event = |thread, ccr, fired| Event { thread, ccr, fired };
        stepper.step(event(last, acquire, false)).unwrap();
        assert!(stepper.is_blocked(last) && !stepper.is_notified(last));
        stepper.step(event(0, release, true)).unwrap();
        assert!(stepper.is_notified(last));
        assert!(stepper
            .enabled_events()
            .unwrap()
            .contains(&event(last, acquire, true)));
        stepper.step(event(last, acquire, true)).unwrap();
        assert!(!stepper.is_blocked(last) && stepper.thread_finished(last));
    }
}
