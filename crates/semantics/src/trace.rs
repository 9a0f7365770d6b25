//! Monitor traces and the implicit / explicit transition relations.
//!
//! [`run_implicit`] and [`run_explicit`] are Figs. 4–6 as whole-trace replay
//! on the tree-walking [`Interpreter`] over named state. They share no
//! evaluator with the compiled [`Stepper`](crate::step::Stepper) that
//! generates the traces they replay, which is what lets `check_equivalence`
//! catch a stepper (or compiler) bug as an infeasible or diverging sample.

use expresso_logic::Valuation;
use expresso_monitor_lang::{
    CcrId, ExplicitMonitor, Interpreter, Monitor, NotificationKind, RuntimeError, SignalCondition,
    VarTable,
};
use std::collections::BTreeSet;
use std::fmt;

/// A monitor event: thread `thread` attempted CCR `ccr`; `fired` tells whether
/// the guard held (body executed) or the thread blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Event {
    /// Thread identifier (index into the simulator's thread list).
    pub thread: usize,
    /// The CCR attempted.
    pub ccr: CcrId,
    /// `true` when the body executed, `false` when the thread blocked.
    pub fired: bool,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({}, {}, {})",
            self.thread,
            self.ccr,
            if self.fired { "true" } else { "false" }
        )
    }
}

/// A sequence of events.
pub type Trace = Vec<Event>;

/// Describes one simulated thread: the monitor method it runs and its
/// thread-local variables (method parameters).
#[derive(Debug, Clone)]
pub struct ThreadSpec {
    /// Name of the monitor method the thread executes.
    pub method: String,
    /// Values of the method's parameters (thread-local state).
    pub locals: Valuation,
}

impl ThreadSpec {
    /// Creates a thread spec with no parameters.
    pub fn new(method: impl Into<String>) -> Self {
        ThreadSpec {
            method: method.into(),
            locals: Valuation::new(),
        }
    }

    /// Creates a thread spec with explicit parameter values.
    pub fn with_locals(method: impl Into<String>, locals: Valuation) -> Self {
        ThreadSpec {
            method: method.into(),
            locals,
        }
    }
}

/// Errors from trace replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The trace is not feasible under the given transition relation.
    Infeasible(String),
    /// The interpreter failed (unbound variable, bad array access, …).
    Runtime(RuntimeError),
    /// A trace event referenced an unknown thread or a CCR outside the
    /// thread's method, or a thread's locals name shared state.
    MalformedTrace(String),
    /// The workload or a bound is past the width of a fixed-size set (threads
    /// of a stepper, events or depth of an exploration).
    TooLarge(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Infeasible(m) => write!(f, "trace is infeasible: {m}"),
            ExecError::Runtime(e) => write!(f, "runtime error during replay: {e}"),
            ExecError::MalformedTrace(m) => write!(f, "malformed trace: {m}"),
            ExecError::TooLarge(m) => write!(f, "too large to run: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<RuntimeError> for ExecError {
    fn from(e: RuntimeError) -> Self {
        ExecError::Runtime(e)
    }
}

/// The result of replaying a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceOutcome {
    /// The shared monitor state after the trace.
    pub final_state: Valuation,
    /// Whether rule (1b) was used, i.e. whether the trace relied on a spurious
    /// wake-up (a non-normalized trace).
    pub used_spurious_wakeup: bool,
}

/// A blocked/notified entry: `(thread, ccr)` as in the paper's B and N sets.
type Entry = (usize, CcrId);

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

/// Refuses a thread whose locals name a shared variable (the smallest such
/// name): [`eval_guard`] and [`exec_body`] merge locals over the shared state
/// by name and write them back, so such a binding would forge shared state.
fn reject_shared_bindings(table: &VarTable, threads: &[ThreadSpec]) -> Result<(), ExecError> {
    for (t, spec) in threads.iter().enumerate() {
        let locals = &spec.locals;
        let names = locals
            .ints()
            .map(|(name, _)| name)
            .chain(locals.bools().map(|(name, _)| name))
            .chain(locals.arrays().map(|(name, _)| name));
        if let Some(name) = names.filter(|name| table.is_shared(name)).min() {
            return Err(crate::step::shared_binding(t, name));
        }
    }
    Ok(())
}

fn validate_event(
    monitor: &Monitor,
    threads: &[ThreadSpec],
    event: &Event,
) -> Result<(), ExecError> {
    let spec = threads
        .get(event.thread)
        .ok_or_else(|| ExecError::MalformedTrace(format!("unknown thread {}", event.thread)))?;
    let method = monitor
        .method(&spec.method)
        .ok_or_else(|| ExecError::MalformedTrace(format!("unknown method `{}`", spec.method)))?;
    if !method.ccrs.contains(&event.ccr) {
        return Err(ExecError::MalformedTrace(format!(
            "{} does not belong to method `{}`",
            event.ccr, spec.method
        )));
    }
    Ok(())
}

/// Replays a trace under the implicit-signal transition relation (Fig. 4).
///
/// # Errors
///
/// Returns [`ExecError::Infeasible`] when the trace cannot be derived, and
/// other variants for malformed traces (a thread whose locals name a shared
/// variable included) or interpreter failures.
pub fn run_implicit(
    monitor: &Monitor,
    table: &VarTable,
    initial: &Valuation,
    threads: &[ThreadSpec],
    trace: &[Event],
) -> Result<TraceOutcome, ExecError> {
    reject_shared_bindings(table, threads)?;
    let interp = Interpreter::new(table);
    let mut shared = initial.clone();
    let mut threads = threads.to_vec();
    let mut blocked: BTreeSet<Entry> = BTreeSet::new();
    let mut notified: BTreeSet<Entry> = BTreeSet::new();
    let mut used_spurious = false;

    for event in trace {
        validate_event(monitor, &threads, event)?;
        let entry = (event.thread, event.ccr);
        let guard_true = eval_guard(&interp, monitor, &shared, &threads, entry)?;
        if !event.fired {
            if guard_true {
                return Err(ExecError::Infeasible(format!(
                    "{event}: guard is true but the event records blocking"
                )));
            }
            if blocked.contains(&entry) {
                // Rule (1b): a notified thread re-checks and goes back to sleep.
                if !notified.remove(&entry) {
                    return Err(ExecError::Infeasible(format!(
                        "{event}: thread is blocked but was never notified"
                    )));
                }
                used_spurious = true;
            } else {
                blocked.insert(entry);
            }
        } else {
            if !guard_true {
                return Err(ExecError::Infeasible(format!(
                    "{event}: guard is false but the event records firing"
                )));
            }
            if blocked.contains(&entry) {
                // Rule (2b): only the minimum notified entry may run.
                match notified.iter().next() {
                    Some(min) if *min == entry => {}
                    _ => {
                        return Err(ExecError::Infeasible(format!(
                        "{event}: a blocked thread fired without being the minimum notified entry"
                    )))
                    }
                }
                blocked.remove(&entry);
                notified.remove(&entry);
            }
            exec_body(&interp, monitor, table, &mut shared, &mut threads, entry)?;
            // Wake everything whose predicate became true.
            for other in blocked.iter().copied().collect::<Vec<_>>() {
                if eval_guard(&interp, monitor, &shared, &threads, other)? {
                    notified.insert(other);
                }
            }
        }
    }
    Ok(TraceOutcome {
        final_state: shared,
        used_spurious_wakeup: used_spurious,
    })
}

/// Replays a trace under the explicit-signal transition relation (Figs. 5–6).
///
/// # Errors
///
/// Returns [`ExecError::Infeasible`] when the trace cannot be derived under
/// the monitor's signal/broadcast annotations, and
/// [`ExecError::MalformedTrace`] as [`run_implicit`] does.
pub fn run_explicit(
    explicit: &ExplicitMonitor,
    table: &VarTable,
    initial: &Valuation,
    threads: &[ThreadSpec],
    trace: &[Event],
) -> Result<TraceOutcome, ExecError> {
    reject_shared_bindings(table, threads)?;
    let monitor = &explicit.monitor;
    let interp = Interpreter::new(table);
    let mut shared = initial.clone();
    let mut threads = threads.to_vec();
    let mut blocked: BTreeSet<Entry> = BTreeSet::new();
    let mut notified: BTreeSet<Entry> = BTreeSet::new();
    let mut used_spurious = false;

    for event in trace {
        validate_event(monitor, &threads, event)?;
        let entry = (event.thread, event.ccr);
        let guard_true = eval_guard(&interp, monitor, &shared, &threads, entry)?;
        if !event.fired {
            if guard_true {
                return Err(ExecError::Infeasible(format!(
                    "{event}: guard is true but the event records blocking"
                )));
            }
            if blocked.contains(&entry) {
                if !notified.remove(&entry) {
                    return Err(ExecError::Infeasible(format!(
                        "{event}: thread is blocked but was never notified"
                    )));
                }
                used_spurious = true;
            } else {
                blocked.insert(entry);
            }
        } else {
            if !guard_true {
                return Err(ExecError::Infeasible(format!(
                    "{event}: guard is false but the event records firing"
                )));
            }
            if blocked.contains(&entry) {
                match notified.iter().next() {
                    Some(min) if *min == entry => {}
                    _ => {
                        return Err(ExecError::Infeasible(format!(
                        "{event}: a blocked thread fired without being the minimum notified entry"
                    )))
                    }
                }
                blocked.remove(&entry);
                notified.remove(&entry);
            }
            exec_body(&interp, monitor, table, &mut shared, &mut threads, entry)?;
            // GetSignals / GetBroadcasts (Fig. 6).
            for notification in explicit.notifications_for(event.ccr) {
                let candidates: Vec<Entry> = blocked
                    .iter()
                    .copied()
                    .filter(|e| monitor.ccr(e.1).guard == notification.predicate)
                    .collect();
                let eligible: Vec<Entry> = match notification.condition {
                    SignalCondition::Unconditional => candidates,
                    SignalCondition::Conditional => {
                        let mut kept = Vec::new();
                        for c in candidates {
                            if eval_guard(&interp, monitor, &shared, &threads, c)? {
                                kept.push(c);
                            }
                        }
                        kept
                    }
                };
                match notification.kind {
                    NotificationKind::Signal => {
                        // A signalled waiter leaves the condition queue (as with
                        // real condition variables), so signals go to waiters
                        // that have not been notified yet.
                        if let Some(first) =
                            eligible.into_iter().filter(|e| !notified.contains(e)).min()
                        {
                            notified.insert(first);
                        }
                    }
                    NotificationKind::Broadcast => {
                        notified.extend(eligible);
                    }
                }
            }
        }
    }
    Ok(TraceOutcome {
        final_state: shared,
        used_spurious_wakeup: used_spurious,
    })
}

/// Minimal deterministic PRNG (SplitMix64), replacing the external `rand`
/// dependency. Quality is more than sufficient for trace-schedule sampling,
/// and seeding stays reproducible across platforms.
#[derive(Debug, Clone)]
struct Rng64 {
    state: u64,
}

impl Rng64 {
    fn seed_from_u64(seed: u64) -> Self {
        Rng64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index into `0..len` (`len` must be nonzero).
    fn gen_index(&mut self, len: usize) -> usize {
        (self.next_u64() % len as u64) as usize
    }
}

/// A random-scheduler simulator that produces feasible traces of either
/// semantics for a set of threads, each running one monitor method.
#[derive(Debug)]
pub struct Simulator<'a> {
    monitor: &'a Monitor,
    table: &'a VarTable,
    initial: Valuation,
    threads: Vec<ThreadSpec>,
    rng: Rng64,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator over `threads`, starting from `initial` shared state.
    pub fn new(
        monitor: &'a Monitor,
        table: &'a VarTable,
        initial: Valuation,
        threads: Vec<ThreadSpec>,
        seed: u64,
    ) -> Self {
        Simulator {
            monitor,
            table,
            initial,
            threads,
            rng: Rng64::seed_from_u64(seed),
        }
    }

    /// The thread specifications used by this simulator.
    pub fn threads(&self) -> &[ThreadSpec] {
        &self.threads
    }

    /// The initial shared state.
    pub fn initial(&self) -> &Valuation {
        &self.initial
    }

    /// The per-thread single-call programs this simulator's threads run.
    fn programs(&self) -> Vec<crate::step::ThreadProgram> {
        self.threads
            .iter()
            .cloned()
            .map(|spec| vec![spec])
            .collect()
    }

    /// Generates one feasible, normalized trace of the *implicit* semantics by
    /// running a random scheduler for at most `max_events` events.
    ///
    /// The scheduler draws from the same [`crate::step::Stepper`] the
    /// systematic explorer uses; only the choice of the next event differs.
    ///
    /// # Errors
    ///
    /// Propagates interpreter failures; scheduling deadlocks simply end the
    /// trace early (the trace stays feasible).
    pub fn random_implicit_trace(&mut self, max_events: usize) -> Result<Trace, ExecError> {
        let mut stepper = crate::step::Stepper::implicit(
            self.monitor,
            self.table,
            self.initial.clone(),
            self.programs(),
        )?;
        for _ in 0..max_events {
            let actions = stepper.enabled_events()?;
            if actions.is_empty() {
                break;
            }
            stepper.step(actions[self.rng.gen_index(actions.len())])?;
        }
        Ok(stepper.into_trace())
    }

    /// Generates one feasible trace of the *explicit* semantics for the given
    /// explicit monitor (same fields/methods as the simulator's monitor).
    /// Spurious wake-ups are scheduled, as the explicit relation allows.
    ///
    /// # Errors
    ///
    /// Propagates interpreter failures.
    pub fn random_explicit_trace(
        &mut self,
        explicit: &ExplicitMonitor,
        max_events: usize,
    ) -> Result<Trace, ExecError> {
        let mut stepper = crate::step::Stepper::explicit(
            explicit,
            self.table,
            self.initial.clone(),
            self.programs(),
        )?;
        for _ in 0..max_events {
            let actions = stepper.enabled_events()?;
            if actions.is_empty() {
                break;
            }
            stepper.step(actions[self.rng.gen_index(actions.len())])?;
            // Historical stream compatibility: the pre-stepper scheduler drew
            // one extra value per explicit step; keeping the draw preserves
            // every seeded trace the test suite was tuned on.
            let _ = self.rng.next_u64();
        }
        Ok(stepper.into_trace())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn implicit_blocking_and_wakeup() {
        let (m, t) = counter();
        let acquire = m.method("acquire").unwrap().ccrs[0];
        let release = m.method("release").unwrap().ccrs[0];
        let threads = vec![ThreadSpec::new("acquire"), ThreadSpec::new("release")];
        let trace = vec![
            Event {
                thread: 0,
                ccr: acquire,
                fired: false,
            },
            Event {
                thread: 1,
                ccr: release,
                fired: true,
            },
            Event {
                thread: 0,
                ccr: acquire,
                fired: true,
            },
        ];
        let outcome = run_implicit(&m, &t, &init(&m, &t), &threads, &trace).unwrap();
        assert_eq!(outcome.final_state.int("count"), Some(0));
        assert!(!outcome.used_spurious_wakeup);
    }

    #[test]
    fn infeasible_trace_is_rejected() {
        let (m, t) = counter();
        let acquire = m.method("acquire").unwrap().ccrs[0];
        let threads = vec![ThreadSpec::new("acquire")];
        // The guard count > 0 is false initially, so firing is infeasible.
        let trace = vec![Event {
            thread: 0,
            ccr: acquire,
            fired: true,
        }];
        assert!(matches!(
            run_implicit(&m, &t, &init(&m, &t), &threads, &trace),
            Err(ExecError::Infeasible(_))
        ));
    }

    #[test]
    fn explicit_without_signals_cannot_wake_a_blocked_thread() {
        let (m, t) = counter();
        let acquire = m.method("acquire").unwrap().ccrs[0];
        let release = m.method("release").unwrap().ccrs[0];
        let threads = vec![ThreadSpec::new("acquire"), ThreadSpec::new("release")];
        let trace = vec![
            Event {
                thread: 0,
                ccr: acquire,
                fired: false,
            },
            Event {
                thread: 1,
                ccr: release,
                fired: true,
            },
            Event {
                thread: 0,
                ccr: acquire,
                fired: true,
            },
        ];
        let silent = ExplicitMonitor::without_signals(m.clone());
        assert!(matches!(
            run_explicit(&silent, &t, &init(&m, &t), &threads, &trace),
            Err(ExecError::Infeasible(_))
        ));
        // The broadcast-everything monitor accepts the same trace.
        let noisy = ExplicitMonitor::broadcast_all(m.clone());
        let outcome = run_explicit(&noisy, &t, &init(&m, &t), &threads, &trace).unwrap();
        assert_eq!(outcome.final_state.int("count"), Some(0));
    }

    #[test]
    fn simulator_produces_feasible_normalized_traces() {
        let (m, t) = counter();
        let threads = vec![
            ThreadSpec::new("acquire"),
            ThreadSpec::new("release"),
            ThreadSpec::new("acquire"),
            ThreadSpec::new("release"),
        ];
        for seed in 0..10u64 {
            let mut sim = Simulator::new(&m, &t, init(&m, &t), threads.clone(), seed);
            let trace = sim.random_implicit_trace(40).unwrap();
            let outcome = run_implicit(&m, &t, &init(&m, &t), &threads, &trace).unwrap();
            assert!(!outcome.used_spurious_wakeup);
        }
    }

    /// One acquirer whose `count` local would, merged over the shared state
    /// by name, satisfy its own guard; the trace fires it.
    fn forged_acquire(m: &Monitor) -> (Vec<ThreadSpec>, Trace) {
        let mut forged = Valuation::new();
        forged.set_int("count", 7);
        let trace = vec![Event {
            thread: 0,
            ccr: m.method("acquire").unwrap().ccrs[0],
            fired: true,
        }];
        (vec![ThreadSpec::with_locals("acquire", forged)], trace)
    }

    fn assert_names_count(replayed: Result<TraceOutcome, ExecError>) {
        match replayed {
            Err(ExecError::MalformedTrace(why)) => assert!(why.contains("`count`"), "{why}"),
            other => panic!("a forged `count` must be refused, got {other:?}"),
        }
    }

    #[test]
    fn run_implicit_refuses_a_local_that_names_shared_state() {
        let (m, t) = counter();
        let (threads, trace) = forged_acquire(&m);
        assert_names_count(run_implicit(&m, &t, &init(&m, &t), &threads, &trace));
    }

    #[test]
    fn run_explicit_refuses_a_local_that_names_shared_state() {
        let (m, t) = counter();
        let (threads, trace) = forged_acquire(&m);
        let noisy = ExplicitMonitor::broadcast_all(m.clone());
        assert_names_count(run_explicit(&noisy, &t, &init(&m, &t), &threads, &trace));
    }

    #[test]
    fn malformed_traces_are_detected() {
        let (m, t) = counter();
        let acquire = m.method("acquire").unwrap().ccrs[0];
        let threads = vec![ThreadSpec::new("release")];
        let trace = vec![Event {
            thread: 0,
            ccr: acquire,
            fired: true,
        }];
        assert!(matches!(
            run_implicit(&m, &t, &init(&m, &t), &threads, &trace),
            Err(ExecError::MalformedTrace(_))
        ));
        let trace = vec![Event {
            thread: 5,
            ccr: acquire,
            fired: true,
        }];
        assert!(matches!(
            run_implicit(&m, &t, &init(&m, &t), &threads, &trace),
            Err(ExecError::MalformedTrace(_))
        ));
    }
}
