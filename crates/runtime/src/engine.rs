//! The concurrent monitor engines.
//!
//! Both engines execute one compiled [`Program`]: at build time the monitor
//! is checked, its variables laid out densely, and every guard, body,
//! guard-class representative and notification predicate lowered to
//! slot-indexed code. A call then does, in order:
//!
//! 1. **outside the lock** — finds its method and converts the caller's
//!    bindings into a [`Locals`] frame (a binding that names a shared
//!    variable is refused here, see [`CallError::SharedBinding`]);
//! 2. **under the state mutex** — evaluates its guard in place against the
//!    shared [`Frame`] and its locals (waiting on a condition variable while
//!    it is false), runs the body with commit-on-success, and performs the
//!    engine's signalling. Nothing in this step touches a `String`, a
//!    `HashMap` or a syntax tree, and only a call that actually blocks
//!    allocates (its waiter record).
//!
//! What differs between the engines, and between the explicit engine's two
//! [`SignalMode`]s, is step 2's signalling and nothing else.

use expresso_logic::Valuation;
use expresso_monitor_lang::{
    initial_state, CcrId, CodeId, ExplicitMonitor, Frame, Locals, Monitor, NotificationKind,
    NotificationPlan, Program, RuntimeError, SignalCondition,
};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Errors raised while constructing a runtime instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeBuildError {
    /// The monitor failed static checking.
    Check(String),
    /// The initial state could not be built (missing constructor argument …).
    Init(RuntimeError),
}

impl fmt::Display for RuntimeBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeBuildError::Check(m) => write!(f, "monitor failed checking: {m}"),
            RuntimeBuildError::Init(e) => write!(f, "could not build initial state: {e}"),
        }
    }
}

impl std::error::Error for RuntimeBuildError {}

/// Errors raised by a monitor call.
///
/// A failing call leaves the shared state exactly as it was before the failing
/// CCR body: bodies commit their writes only on success, and the error is
/// returned by value instead of unwinding through the state mutex — so a bad
/// workload can never poison the monitor for the other threads hammering it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallError {
    /// The monitor has no method with this name.
    UnknownMethod(String),
    /// The caller's bindings name this *shared* variable (a field, a
    /// constructor parameter or an array). A caller supplies its own
    /// thread-local values — method parameters — and nothing else; the call
    /// is refused before it takes the lock. Bindings that name nothing the
    /// monitor declares are ignored: no expression can read them.
    SharedBinding(String),
    /// A CCR body hit a run-time fault (unbound variable, division by zero …).
    Runtime {
        /// The method whose CCR faulted.
        method: String,
        /// The underlying interpreter error.
        error: RuntimeError,
    },
}

impl fmt::Display for CallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallError::UnknownMethod(m) => write!(f, "unknown method `{m}`"),
            CallError::SharedBinding(v) => {
                write!(f, "caller binding `{v}` names a shared monitor variable")
            }
            CallError::Runtime { method, error } => {
                write!(f, "runtime error in `{method}`: {error}")
            }
        }
    }
}

impl std::error::Error for CallError {}

/// How the explicit engine delivers the statically-decided notifications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalMode {
    /// Execute notifications exactly as written: `signal` → `notify_one`,
    /// `broadcast` → `notify_all`, conditional predicates evaluated once at
    /// the notifier (the paper's generated-code semantics).
    Static,
    /// Use the per-guard predicate information to cut wakeup storms: skip
    /// notifications aimed at empty slots, coalesce local-free broadcasts into
    /// a cascade of single signals, and judge waiters on local-mentioning
    /// guards individually against their own snapshots, waking only matches.
    Targeted,
}

impl fmt::Display for SignalMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignalMode::Static => f.write_str("static"),
            SignalMode::Targeted => f.write_str("targeted"),
        }
    }
}

/// A monitor engine callable from many threads.
pub trait MonitorRuntime: Sync + Send {
    /// Executes one monitor method to completion on behalf of the calling
    /// thread, blocking on `waituntil` guards as required.
    ///
    /// # Errors
    ///
    /// Returns [`CallError`] when the method does not exist, `locals` binds a
    /// shared variable, or a CCR body faults; the shared state is left
    /// untouched by the failing CCR.
    fn call(&self, method: &str, locals: &Valuation) -> Result<(), CallError>;

    /// A snapshot of the shared monitor state (for assertions in tests).
    fn snapshot(&self) -> Valuation;

    /// Number of times any thread was woken from a wait (context-switch
    /// proxy).
    fn wakeups(&self) -> usize;

    /// Number of guard-predicate evaluations performed while deciding whom to
    /// notify (run-time reasoning overhead; zero for unconditional signals).
    fn predicate_evaluations(&self) -> usize;

    /// Wakeups the engine proved unnecessary and skipped (only nonzero for
    /// the explicit engine in [`SignalMode::Targeted`]).
    fn avoided_wakeups(&self) -> usize {
        0
    }

    /// Notifications dropped entirely because no thread was waiting on the
    /// targeted guard (only nonzero in [`SignalMode::Targeted`]).
    fn elided_notifications(&self) -> usize {
        0
    }
}

/// What the two engines have in common: the compiled program, the shared
/// frame behind the state mutex, and the counters.
struct Core {
    program: Program,
    /// All a call needs of a method: its name and the CCRs to run, in order.
    methods: Vec<(String, Vec<CcrId>)>,
    state: Mutex<Frame>,
    wakeups: AtomicUsize,
    predicate_evaluations: AtomicUsize,
    avoided_wakeups: AtomicUsize,
    elided_notifications: AtomicUsize,
}

impl Core {
    fn new(monitor: &Monitor, ctor_args: &Valuation) -> Result<Self, RuntimeBuildError> {
        let program = Program::new(monitor)
            .map_err(|e| RuntimeBuildError::Check(format!("{} error(s)", e.len())))?;
        let frame = initial_state(monitor, program.table(), ctor_args)
            .and_then(|initial| program.layout().frame(&initial))
            .map_err(RuntimeBuildError::Init)?;
        Ok(Core {
            program,
            methods: monitor
                .methods
                .iter()
                .map(|m| (m.name.clone(), m.ccrs.clone()))
                .collect(),
            state: Mutex::new(frame),
            wakeups: AtomicUsize::new(0),
            predicate_evaluations: AtomicUsize::new(0),
            avoided_wakeups: AtomicUsize::new(0),
            elided_notifications: AtomicUsize::new(0),
        })
    }

    /// One call: the method and the locals frame are found before any lock
    /// is taken, then the method's CCRs run in order up to the first fault.
    fn call(
        &self,
        method: &str,
        bindings: &Valuation,
        mut run_ccr: impl FnMut(CcrId, &mut Locals) -> Result<(), RuntimeError>,
    ) -> Result<(), CallError> {
        let (_, ccrs) = self
            .methods
            .iter()
            .find(|(name, _)| name == method)
            .ok_or_else(|| CallError::UnknownMethod(method.to_string()))?;
        let mut locals = self
            .program
            .layout()
            .bind(bindings)
            .map_err(CallError::SharedBinding)?;
        for &id in ccrs {
            run_ccr(id, &mut locals).map_err(|error| CallError::Runtime {
                method: method.to_string(),
                error,
            })?;
        }
        Ok(())
    }

    fn lock(&self) -> MutexGuard<'_, Frame> {
        self.state.lock().expect(NEVER_POISONED)
    }

    /// Whether a guard or predicate holds; one that cannot be evaluated
    /// (ill-sorted, unbound) does not.
    fn holds(&self, code: CodeId, state: &Frame, locals: &Locals) -> bool {
        self.program.eval(code, state, locals).unwrap_or(false)
    }

    fn snapshot(&self) -> Valuation {
        self.program.layout().snapshot(&self.lock())
    }
}

const NEVER_POISONED: &str = "faults under the state mutex are returned, never unwound";

/// Blocks on `condvar`, releasing the state mutex while asleep.
fn wait<'a>(condvar: &Condvar, state: MutexGuard<'a, Frame>) -> MutexGuard<'a, Frame> {
    condvar.wait(state).expect(NEVER_POISONED)
}

/// A thread blocked with a condition variable of its own: it carries the code
/// of its guard plus a copy of its locals so a notifier can judge (and wake)
/// it individually — AutoSynch's strategy for every waiter, and the paper's
/// §6 per-waiter strategy for local-mentioning guards in targeted mode.
struct Waiter {
    guard: CodeId,
    locals: Locals,
    ready: AtomicBool,
    condvar: Condvar,
}

impl Waiter {
    fn register(guard: CodeId, locals: &Locals, registry: &Mutex<Vec<Arc<Waiter>>>) -> Arc<Self> {
        let waiter = Arc::new(Waiter {
            guard,
            locals: locals.clone(),
            ready: AtomicBool::new(false),
            condvar: Condvar::new(),
        });
        lock_registry(registry).push(Arc::clone(&waiter));
        waiter
    }

    fn unregister(self: &Arc<Self>, registry: &Mutex<Vec<Arc<Waiter>>>) {
        lock_registry(registry).retain(|w| !Arc::ptr_eq(w, self));
    }
}

fn lock_registry(registry: &Mutex<Vec<Arc<Waiter>>>) -> MutexGuard<'_, Vec<Arc<Waiter>>> {
    registry
        .lock()
        .expect("a waiter registry is only held across infallible pushes and scans")
}

/// Per-guard runtime state, indexed densely by [`expresso_monitor_lang::GuardId`].
struct GuardSlot {
    condvar: Condvar,
    /// Threads currently blocked on this guard. Only mutated while holding the
    /// state mutex, so notifiers (who also hold it) read a stable count.
    waiters: AtomicUsize,
    /// Set when a coalesced broadcast still owes wakeups: each thread that
    /// passes through this guard re-checks it after its body and passes the
    /// signal on while the guard stays true (cascade/baton signalling).
    cascade: AtomicBool,
    /// Waiters registered for per-waiter judging (targeted mode, guards that
    /// mention thread-local variables).
    local_waiters: Mutex<Vec<Arc<Waiter>>>,
}

impl GuardSlot {
    fn new() -> Self {
        GuardSlot {
            condvar: Condvar::new(),
            waiters: AtomicUsize::new(0),
            cascade: AtomicBool::new(false),
            local_waiters: Mutex::new(Vec::new()),
        }
    }
}

/// One CCR of the explicit monitor with its signalling resolved: the guard
/// class it waits on and the notifications placed after its body.
struct PlacedCcr {
    /// The guard class this CCR waits on; `None` when it never blocks.
    wait: Option<GuardClass>,
    notifications: Vec<PlacedNotification>,
}

#[derive(Clone, Copy)]
struct GuardClass {
    /// Index into [`ExplicitRuntime::slots`].
    slot: usize,
    /// The class's representative guard, compiled.
    representative: CodeId,
    /// Whether the guard reads thread-local variables (paper §6).
    mentions_local: bool,
}

/// A notification whose predicate matched a blocking guard (the others are
/// no-ops at run time and are dropped when the engine is built).
struct PlacedNotification {
    slot: usize,
    predicate: CodeId,
    condition: SignalCondition,
    kind: NotificationKind,
    mentions_local: bool,
}

/// Executes an [`ExplicitMonitor`]: one condition-variable slot per distinct
/// guard (resolved to dense ids at build time), `while (!guard) wait()` at
/// every CCR, and the statically-decided notifications after each body.
pub struct ExplicitRuntime {
    core: Core,
    /// Indexed by `CcrId.0`.
    ccrs: Vec<PlacedCcr>,
    mode: SignalMode,
    /// One slot per guard class, indexed by `GuardId.0` — no string hashing on
    /// the signalling hot path.
    slots: Vec<GuardSlot>,
}

impl ExplicitRuntime {
    /// Builds a runtime for `explicit` in [`SignalMode::Static`] (the paper's
    /// generated-code semantics), constructing the initial shared state from
    /// `ctor_args`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeBuildError`] when the monitor is ill-formed or the
    /// constructor arguments are incomplete.
    pub fn new(
        explicit: ExplicitMonitor,
        ctor_args: &Valuation,
    ) -> Result<Self, RuntimeBuildError> {
        Self::with_mode(explicit, ctor_args, SignalMode::Static)
    }

    /// Builds a runtime with an explicit [`SignalMode`].
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeBuildError`] when the monitor is ill-formed or the
    /// constructor arguments are incomplete.
    pub fn with_mode(
        explicit: ExplicitMonitor,
        ctor_args: &Valuation,
        mode: SignalMode,
    ) -> Result<Self, RuntimeBuildError> {
        let mut core = Core::new(&explicit.monitor, ctor_args)?;
        let plan = NotificationPlan::new(&explicit, core.program.table());
        let program = &mut core.program;
        let classes: Vec<GuardClass> = plan
            .guards()
            .map(|(id, info)| GuardClass {
                slot: id.0,
                representative: program.predicate(&info.expr),
                mentions_local: info.mentions_local,
            })
            .collect();
        let ccrs = explicit
            .monitor
            .all_ccrs()
            .map(|ccr| PlacedCcr {
                wait: plan.guard_of(ccr.id).map(|id| classes[id.0]),
                notifications: plan
                    .notifications(ccr.id)
                    .iter()
                    .filter_map(|n| {
                        Some(PlacedNotification {
                            slot: n.target?.0,
                            predicate: program.predicate(&n.predicate),
                            condition: n.condition,
                            kind: n.kind,
                            mentions_local: n.mentions_local,
                        })
                    })
                    .collect(),
            })
            .collect();
        Ok(ExplicitRuntime {
            core,
            ccrs,
            mode,
            slots: classes.iter().map(|_| GuardSlot::new()).collect(),
        })
    }

    /// The signalling mode this runtime was built with.
    pub fn mode(&self) -> SignalMode {
        self.mode
    }

    /// Number of threads currently blocked inside the monitor (all slots).
    /// Used by tests and the load harness to wait for quiescence.
    pub fn waiting_threads(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.waiters.load(Ordering::SeqCst))
            .sum()
    }

    fn run_ccr(&self, id: CcrId, locals: &mut Locals) -> Result<(), RuntimeError> {
        let core = &self.core;
        let ccr = &self.ccrs[id.0];
        let guard = core.program.guard(id);
        let mut state = core.lock();
        if let Some(class) = ccr.wait {
            let slot = &self.slots[class.slot];
            if self.mode == SignalMode::Targeted && class.mentions_local {
                if !core.holds(guard, &state, locals) {
                    let waiter = Waiter::register(guard, locals, &slot.local_waiters);
                    slot.waiters.fetch_add(1, Ordering::SeqCst);
                    loop {
                        state = wait(&waiter.condvar, state);
                        core.wakeups.fetch_add(1, Ordering::Relaxed);
                        if waiter.ready.swap(false, Ordering::SeqCst)
                            && core.holds(guard, &state, locals)
                        {
                            break;
                        }
                    }
                    slot.waiters.fetch_sub(1, Ordering::SeqCst);
                    waiter.unregister(&slot.local_waiters);
                }
            } else {
                while !core.holds(guard, &state, locals) {
                    slot.waiters.fetch_add(1, Ordering::SeqCst);
                    state = wait(&slot.condvar, state);
                    slot.waiters.fetch_sub(1, Ordering::SeqCst);
                    core.wakeups.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        core.program.exec(id, &mut state, locals)?;

        // Perform the statically-decided notifications.
        for notification in &ccr.notifications {
            match self.mode {
                SignalMode::Static => self.fire_static(notification, &state, locals),
                SignalMode::Targeted => self.fire_targeted(notification, &state, locals),
            }
        }

        // Cascade baton: a thread that just passed through a coalesced
        // broadcast's guard re-checks it and passes the signal on while the
        // guard stays true, so the single coalesced signal eventually reaches
        // every waiter a broadcast would have woken usefully.
        if self.mode == SignalMode::Targeted {
            if let Some(class) = ccr.wait {
                let slot = &self.slots[class.slot];
                if !class.mentions_local && slot.cascade.load(Ordering::SeqCst) {
                    core.predicate_evaluations.fetch_add(1, Ordering::Relaxed);
                    let enabled = core.holds(class.representative, &state, locals);
                    let waiting = slot.waiters.load(Ordering::SeqCst);
                    if enabled && waiting > 0 {
                        slot.condvar.notify_one();
                    } else {
                        slot.cascade.store(false, Ordering::SeqCst);
                    }
                }
            }
        }
        Ok(())
    }

    /// The paper's generated-code semantics: evaluate conditional predicates
    /// once at the notifier and execute `signal`/`broadcast` literally.
    ///
    /// "Literally" includes what `Condition.signal()` does on an empty wait
    /// queue in the generated Java: nothing. `std`'s condition variable would
    /// still make a `futex_wake` system call, so the call is skipped when the
    /// slot has no waiter — a count only changed under the state mutex, which
    /// this thread holds. That is not the targeted mode's elision: the
    /// predicate is still evaluated and counted, and nothing is recorded as
    /// elided.
    fn fire_static(&self, notification: &PlacedNotification, state: &Frame, locals: &Locals) {
        let fire = match notification.condition {
            SignalCondition::Unconditional => true,
            SignalCondition::Conditional => {
                self.core
                    .predicate_evaluations
                    .fetch_add(1, Ordering::Relaxed);
                // Predicates over waiter-local state cannot be decided here;
                // the woken waiters re-check their own guard (§6 strategy).
                notification.mentions_local
                    || self.core.holds(notification.predicate, state, locals)
            }
        };
        let slot = &self.slots[notification.slot];
        if fire && slot.waiters.load(Ordering::SeqCst) > 0 {
            match notification.kind {
                NotificationKind::Signal => slot.condvar.notify_one(),
                NotificationKind::Broadcast => slot.condvar.notify_all(),
            }
        }
    }

    /// Targeted delivery: never wake a thread the predicate information proves
    /// cannot proceed. `avoided_wakeups` counts the wakeups the static
    /// semantics would have issued beyond what this mode issued.
    fn fire_targeted(&self, notification: &PlacedNotification, state: &Frame, locals: &Locals) {
        let core = &self.core;
        let slot = &self.slots[notification.slot];
        let waiting = slot.waiters.load(Ordering::SeqCst);
        if waiting == 0 {
            // Nobody to wake: skip the notification and its predicate check.
            core.elided_notifications.fetch_add(1, Ordering::Relaxed);
            expresso_obs::instant!("runtime.elide");
            return;
        }
        let static_would_wake = match notification.kind {
            NotificationKind::Signal => 1,
            NotificationKind::Broadcast => waiting,
        };
        if notification.mentions_local {
            // Judge each waiter against its own guard and local snapshot and
            // wake only the matches (§6 applied to a placed notification).
            let mut woken = 0usize;
            for waiter in lock_registry(&slot.local_waiters).iter() {
                core.predicate_evaluations.fetch_add(1, Ordering::Relaxed);
                if core.holds(waiter.guard, state, &waiter.locals) {
                    waiter.ready.store(true, Ordering::SeqCst);
                    waiter.condvar.notify_one();
                    expresso_obs::instant!("runtime.wakeup");
                    woken += 1;
                    if notification.kind == NotificationKind::Signal {
                        break;
                    }
                }
            }
            core.avoided_wakeups
                .fetch_add(static_would_wake.saturating_sub(woken), Ordering::Relaxed);
            return;
        }
        // Local-free predicate: one evaluation at the notifier decides for
        // every waiter on the slot (they are interchangeable, and whose
        // locals it is evaluated against does not matter).
        if notification.condition == SignalCondition::Conditional {
            core.predicate_evaluations.fetch_add(1, Ordering::Relaxed);
            if !core.holds(notification.predicate, state, locals) {
                return;
            }
        }
        match notification.kind {
            NotificationKind::Signal => {
                slot.condvar.notify_one();
                expresso_obs::instant!("runtime.wakeup");
            }
            NotificationKind::Broadcast => {
                // Coalesce the storm: wake one waiter now and let the cascade
                // baton pass the signal on while the guard stays true.
                slot.cascade.store(true, Ordering::SeqCst);
                slot.condvar.notify_one();
                expresso_obs::instant!("runtime.cascade");
                core.avoided_wakeups
                    .fetch_add(static_would_wake - 1, Ordering::Relaxed);
            }
        }
    }
}

impl MonitorRuntime for ExplicitRuntime {
    fn call(&self, method: &str, locals: &Valuation) -> Result<(), CallError> {
        self.core
            .call(method, locals, |id, locals| self.run_ccr(id, locals))
    }

    fn snapshot(&self) -> Valuation {
        self.core.snapshot()
    }

    fn wakeups(&self) -> usize {
        self.core.wakeups.load(Ordering::Relaxed)
    }

    fn predicate_evaluations(&self) -> usize {
        self.core.predicate_evaluations.load(Ordering::Relaxed)
    }

    fn avoided_wakeups(&self) -> usize {
        self.core.avoided_wakeups.load(Ordering::Relaxed)
    }

    fn elided_notifications(&self) -> usize {
        self.core.elided_notifications.load(Ordering::Relaxed)
    }
}

/// Executes the implicit-signal monitor directly, in the style of AutoSynch:
/// every waiter registers its predicate plus a snapshot of its local
/// variables, and after every CCR body the runtime evaluates the predicates of
/// *all* waiters and wakes those that became true.
pub struct AutoSynchRuntime {
    core: Core,
    waiters: Mutex<Vec<Arc<Waiter>>>,
}

impl AutoSynchRuntime {
    /// Builds a runtime for the implicit monitor.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeBuildError`] when the monitor is ill-formed or the
    /// constructor arguments are incomplete.
    pub fn new(monitor: Monitor, ctor_args: &Valuation) -> Result<Self, RuntimeBuildError> {
        Ok(AutoSynchRuntime {
            core: Core::new(&monitor, ctor_args)?,
            waiters: Mutex::new(Vec::new()),
        })
    }

    fn run_ccr(&self, id: CcrId, locals: &mut Locals) -> Result<(), RuntimeError> {
        let core = &self.core;
        let guard = core.program.guard(id);
        let mut state = core.lock();
        if !core.holds(guard, &state, locals) {
            // Register as a waiter with a snapshot of the local variables.
            let waiter = Waiter::register(guard, locals, &self.waiters);
            loop {
                state = wait(&waiter.condvar, state);
                core.wakeups.fetch_add(1, Ordering::Relaxed);
                if waiter.ready.load(Ordering::SeqCst) && core.holds(guard, &state, locals) {
                    break;
                }
                waiter.ready.store(false, Ordering::SeqCst);
            }
            waiter.unregister(&self.waiters);
        }
        core.program.exec(id, &mut state, locals)?;

        // AutoSynch's post-CCR work: evaluate every waiter's predicate with its
        // snapshot and wake exactly those whose predicate is now true.
        for waiter in lock_registry(&self.waiters).iter() {
            core.predicate_evaluations.fetch_add(1, Ordering::Relaxed);
            if core.holds(waiter.guard, &state, &waiter.locals) {
                waiter.ready.store(true, Ordering::SeqCst);
                waiter.condvar.notify_one();
            }
        }
        Ok(())
    }
}

impl MonitorRuntime for AutoSynchRuntime {
    fn call(&self, method: &str, locals: &Valuation) -> Result<(), CallError> {
        self.core
            .call(method, locals, |id, locals| self.run_ccr(id, locals))
    }

    fn snapshot(&self) -> Valuation {
        self.core.snapshot()
    }

    fn wakeups(&self) -> usize {
        self.core.wakeups.load(Ordering::Relaxed)
    }

    fn predicate_evaluations(&self) -> usize {
        self.core.predicate_evaluations.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expresso_core::Expresso;
    use expresso_monitor_lang::parse_monitor;
    use std::time::Duration;

    const COUNTER: &str = r#"
        monitor Counter {
            int count = 0;
            atomic void release() { count++; }
            atomic void acquire() { waituntil (count > 0) { count--; } }
        }
    "#;

    fn explicit_counter() -> ExplicitMonitor {
        let monitor = parse_monitor(COUNTER).unwrap();
        Expresso::new().analyze(&monitor).unwrap().explicit
    }

    #[test]
    fn explicit_runtime_handles_blocking_producer_consumer() {
        let rt = ExplicitRuntime::new(explicit_counter(), &Valuation::new()).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        rt.call("acquire", &Valuation::new()).unwrap();
                    }
                });
            }
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        rt.call("release", &Valuation::new()).unwrap();
                    }
                });
            }
        });
        assert_eq!(rt.snapshot().int("count"), Some(0));
    }

    #[test]
    fn targeted_mode_reaches_the_same_final_state() {
        let rt =
            ExplicitRuntime::with_mode(explicit_counter(), &Valuation::new(), SignalMode::Targeted)
                .unwrap();
        assert_eq!(rt.mode(), SignalMode::Targeted);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        rt.call("acquire", &Valuation::new()).unwrap();
                    }
                });
            }
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        rt.call("release", &Valuation::new()).unwrap();
                    }
                });
            }
        });
        assert_eq!(rt.snapshot().int("count"), Some(0));
        assert_eq!(rt.waiting_threads(), 0);
    }

    #[test]
    fn autosynch_runtime_reaches_the_same_final_state() {
        let monitor = parse_monitor(COUNTER).unwrap();
        let rt = AutoSynchRuntime::new(monitor, &Valuation::new()).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for _ in 0..40 {
                        rt.call("acquire", &Valuation::new()).unwrap();
                    }
                });
            }
            for _ in 0..3 {
                scope.spawn(|| {
                    for _ in 0..40 {
                        rt.call("release", &Valuation::new()).unwrap();
                    }
                });
            }
        });
        assert_eq!(rt.snapshot().int("count"), Some(0));
        // The AutoSynch engine must have paid for run-time predicate
        // evaluations whenever consumers had to wait.
        assert!(rt.predicate_evaluations() > 0 || rt.wakeups() == 0);
    }

    #[test]
    fn locals_are_isolated_between_threads() {
        let src = r#"
            monitor Adder {
                int total = 0;
                atomic void add(int amount) { total += amount; }
            }
        "#;
        let monitor = parse_monitor(src).unwrap();
        let explicit = Expresso::new().analyze(&monitor).unwrap().explicit;
        let rt = ExplicitRuntime::new(explicit, &Valuation::new()).unwrap();
        std::thread::scope(|scope| {
            for amount in 1..=4i64 {
                let rt = &rt;
                scope.spawn(move || {
                    let mut locals = Valuation::new();
                    locals.set_int("amount", amount);
                    for _ in 0..10 {
                        rt.call("add", &locals).unwrap();
                    }
                });
            }
        });
        assert_eq!(rt.snapshot().int("total"), Some(10 * (1 + 2 + 3 + 4)));
    }

    #[test]
    fn constructor_arguments_are_required() {
        let src = r#"
            monitor Buf(int capacity) {
                int count = 0;
                atomic void put() { waituntil (count < capacity) { count++; } }
            }
        "#;
        let monitor = parse_monitor(src).unwrap();
        let explicit = ExplicitMonitor::broadcast_all(monitor);
        assert!(matches!(
            ExplicitRuntime::new(explicit, &Valuation::new()),
            Err(RuntimeBuildError::Init(_))
        ));
    }

    #[test]
    fn unknown_method_is_an_error_not_a_panic() {
        let rt = ExplicitRuntime::new(explicit_counter(), &Valuation::new()).unwrap();
        assert_eq!(
            rt.call("frobnicate", &Valuation::new()),
            Err(CallError::UnknownMethod("frobnicate".into()))
        );
        let monitor = parse_monitor(COUNTER).unwrap();
        let implicit = AutoSynchRuntime::new(monitor, &Valuation::new()).unwrap();
        assert!(matches!(
            implicit.call("nope", &Valuation::new()),
            Err(CallError::UnknownMethod(_))
        ));
    }

    /// The three engines over [`COUNTER`].
    fn counter_engines() -> Vec<(&'static str, Box<dyn MonitorRuntime>)> {
        let none = Valuation::new();
        let explicit = |mode| ExplicitRuntime::with_mode(explicit_counter(), &none, mode).unwrap();
        let implicit = AutoSynchRuntime::new(parse_monitor(COUNTER).unwrap(), &none).unwrap();
        vec![
            ("implicit", Box::new(implicit)),
            ("static", Box::new(explicit(SignalMode::Static))),
            ("targeted", Box::new(explicit(SignalMode::Targeted))),
        ]
    }

    #[test]
    fn a_caller_cannot_forge_shared_state_through_its_locals() {
        for (engine, rt) in counter_engines() {
            // `count` is a field. Merged into the caller's view it used to
            // satisfy `count > 0` on an empty counter and be written back.
            let mut forged = Valuation::new();
            forged.set_int("count", 5);
            assert_eq!(
                rt.call("acquire", &forged),
                Err(CallError::SharedBinding("count".into())),
                "{engine}"
            );
            assert_eq!(rt.snapshot().int("count"), Some(0), "{engine}");
            // A name the monitor does not declare is ignored, not an error.
            let mut unknown = Valuation::new();
            unknown.set_int("nobody", 1);
            rt.call("release", &unknown).unwrap();
            rt.call("acquire", &Valuation::new()).unwrap();
            assert_eq!(rt.snapshot().int("count"), Some(0), "{engine}");
            assert_eq!(rt.wakeups(), 0, "{engine}");
        }
    }

    #[test]
    fn static_signal_wakes_a_waiter_and_is_a_no_op_on_an_empty_queue() {
        let rt = ExplicitRuntime::new(explicit_counter(), &Valuation::new()).unwrap();
        let counters = |rt: &ExplicitRuntime| {
            (
                rt.wakeups(),
                rt.predicate_evaluations(),
                rt.avoided_wakeups(),
                rt.elided_notifications(),
            )
        };
        // Nobody waits: the conditional signal `release` places is Java's
        // signal() on an empty queue. Its predicate is evaluated and counted,
        // nobody wakes, and — unlike targeted mode — nothing is elided.
        rt.call("release", &Valuation::new()).unwrap();
        rt.call("acquire", &Valuation::new()).unwrap();
        assert_eq!(counters(&rt), (0, 1, 0, 0));
        // One registered waiter: the same signal must still reach it.
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| rt.call("acquire", &Valuation::new()));
            while rt.waiting_threads() < 1 {
                std::thread::sleep(Duration::from_millis(1));
            }
            rt.call("release", &Valuation::new()).unwrap();
            consumer.join().unwrap().unwrap();
        });
        assert_eq!(counters(&rt), (1, 2, 0, 0));
        assert_eq!(rt.snapshot().int("count"), Some(0));
        assert_eq!(rt.waiting_threads(), 0);
    }

    #[test]
    fn faulting_body_leaves_state_clean_and_mutex_unpoisoned() {
        let src = r#"
            monitor Arr {
                int[] data = new int[4];
                int writes = 0;
                atomic void store(int idx) { writes++; data[idx] = 1; }
            }
        "#;
        let monitor = parse_monitor(src).unwrap();
        let explicit = Expresso::new().analyze(&monitor).unwrap().explicit;
        let rt = ExplicitRuntime::new(explicit, &Valuation::new()).unwrap();
        let mut bad = Valuation::new();
        bad.set_int("idx", 99);
        let err = rt.call("store", &bad).unwrap_err();
        assert!(matches!(err, CallError::Runtime { .. }));
        // The faulting CCR must not have published any partial update …
        assert_eq!(rt.snapshot().int("writes"), Some(0));
        // … and the monitor keeps working for everyone else.
        let mut good = Valuation::new();
        good.set_int("idx", 2);
        rt.call("store", &good).unwrap();
        assert_eq!(rt.snapshot().int("writes"), Some(1));
        assert_eq!(rt.snapshot().array("data"), Some(&vec![0, 0, 1, 0]));
    }

    #[test]
    fn alpha_renamed_guards_share_wakeups() {
        // `take` and `grab` block on alpha-equivalent guards. Text keying gave
        // them separate condvars, so a `put` signalling one rendering could
        // strand waiters on the other; dense ids make them one slot.
        let src = r#"
            monitor Pool {
                int count = 0;
                atomic void take(int need) { waituntil (count >= need) { count = count - need; } }
                atomic void grab(int want) { waituntil (count >= want) { count = count - want; } }
                atomic void put(int n) { count = count + n; }
            }
        "#;
        let monitor = parse_monitor(src).unwrap();
        let explicit = Expresso::new().analyze(&monitor).unwrap().explicit;
        for mode in [SignalMode::Static, SignalMode::Targeted] {
            let rt = ExplicitRuntime::with_mode(explicit.clone(), &Valuation::new(), mode).unwrap();
            std::thread::scope(|scope| {
                let rt = &rt;
                scope.spawn(move || {
                    let mut locals = Valuation::new();
                    locals.set_int("need", 1);
                    for _ in 0..20 {
                        rt.call("take", &locals).unwrap();
                    }
                });
                scope.spawn(move || {
                    let mut locals = Valuation::new();
                    locals.set_int("want", 1);
                    for _ in 0..20 {
                        rt.call("grab", &locals).unwrap();
                    }
                });
                scope.spawn(move || {
                    let mut locals = Valuation::new();
                    locals.set_int("n", 1);
                    for _ in 0..40 {
                        rt.call("put", &locals).unwrap();
                    }
                });
            });
            assert_eq!(rt.snapshot().int("count"), Some(0), "mode {mode}");
        }
    }

    #[test]
    fn targeted_mode_coalesces_broadcast_storms() {
        // RWLock's exitWriter broadcasts `!writerIn` (paper Fig. 2). With
        // several blocked readers, static mode wakes them all at once while
        // targeted mode wakes one and lets the cascade pass the signal on.
        let src = r#"
            monitor RWLock {
                int readers = 0;
                bool writerIn = false;
                atomic void enterReader() { waituntil (!writerIn) { readers++; } }
                atomic void exitReader() { if (readers > 0) readers--; }
                atomic void enterWriter() { waituntil (readers == 0 && !writerIn) { writerIn = true; } }
                atomic void exitWriter() { writerIn = false; }
            }
        "#;
        let monitor = parse_monitor(src).unwrap();
        let explicit = Expresso::new().analyze(&monitor).unwrap().explicit;
        let rt =
            ExplicitRuntime::with_mode(explicit, &Valuation::new(), SignalMode::Targeted).unwrap();
        rt.call("enterWriter", &Valuation::new()).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let rt = &rt;
                scope.spawn(move || {
                    rt.call("enterReader", &Valuation::new()).unwrap();
                });
            }
            // Wait until all four readers are actually blocked, then release.
            while rt.waiting_threads() < 4 {
                std::thread::sleep(Duration::from_millis(1));
            }
            rt.call("exitWriter", &Valuation::new()).unwrap();
        });
        assert_eq!(rt.snapshot().int("readers"), Some(4));
        // The broadcast to four waiters was coalesced into a cascade: at
        // least three of the four storm wakeups were avoided at fire time.
        assert!(
            rt.avoided_wakeups() >= 3,
            "avoided = {}",
            rt.avoided_wakeups()
        );
        assert_eq!(rt.waiting_threads(), 0);
    }

    #[test]
    fn targeted_mode_elides_notifications_without_waiters() {
        let rt =
            ExplicitRuntime::with_mode(explicit_counter(), &Valuation::new(), SignalMode::Targeted)
                .unwrap();
        // Nobody is waiting: every release's notification is dropped before
        // its predicate is even evaluated.
        for _ in 0..10 {
            rt.call("release", &Valuation::new()).unwrap();
        }
        assert_eq!(rt.elided_notifications(), 10);
        assert_eq!(rt.predicate_evaluations(), 0);
        assert_eq!(rt.wakeups(), 0);
    }
}
