//! The suite-level work-stealing analysis scheduler.
//!
//! One persistent thread pool is the single concurrency substrate for the
//! whole analysis stack. Three granularities of work flow through it:
//!
//! * **suite-level** — [`crate::Expresso::analyze_suite`] submits one task
//!   per monitor, so a whole benchmark suite saturates the machine instead of
//!   analysing monitors one at a time;
//! * **pair-level** — signal placement submits every `(CCR, guard)`
//!   obligation as a task instead of spawning fresh scoped threads per
//!   analysis;
//! * **wave-level** — invariant inference evaluates abduction's candidate
//!   subsets in waves on it (`AbductionConfig::executor`).
//!
//! **The pool is for suites.** A monitor analysed on its own
//! ([`crate::Expresso::analyze`], [`crate::Expresso::analyze_with_context`])
//! never reaches it: the pipeline hands such an analysis a zero-worker
//! scheduler of its own, so its waves and pair tasks run inline on the
//! calling thread. A thread outside the pool that fans one monitor out pays
//! for ≈ 130 joins, each two park/unpark round trips (20–50 µs) against
//! tasks of ≈ 175 µs, and a Table 1 pass took half as long again for it
//! (120–123 ms against 76–81; 2 CPUs, which is all that has been measured).
//! Under `analyze_suite` the fan-out is nested inside a worker — pushed on
//! its own queue, stolen by whoever is idle — and that is where it pays.
//!
//! # Design
//!
//! The pool is std-only: a global **injector** deque (FIFO) receives work
//! submitted from threads outside the pool, each worker owns a deque for
//! work it spawns itself, and an idle worker **steals** from the back of
//! another worker's queue. A worker drains its *own* queue in submission
//! order (front first): the placement layer submits its pairs in the same
//! grid order the sequential analysis uses, and preserving that order lets
//! a pair meet the verdicts and theory lemmas the pairs before it filed —
//! measured, a LIFO own-queue made the concurrent suite re-derive dozens of
//! refutations that the sequential order has already learned. Stealers take the
//! opposite end. Every queue is a small mutex-guarded `VecDeque`; with
//! tasks that each perform solver work, queue locking is noise.
//!
//! Tasks are submitted through [`Scheduler::scope`], which mirrors
//! `std::thread::scope`: closures may borrow from the enclosing frame, and
//! `scope` does not return until every spawned task has finished. While
//! waiting, the scoping thread **helps** — it executes pool tasks itself —
//! so a task that submits nested scopes (a suite task running placement,
//! which submits pair tasks) can never deadlock the pool: whoever joins a
//! scope is itself a worker for as long as the scope is open. A pool with
//! zero workers is therefore a valid configuration: every task runs inline
//! on the joining thread, in submission order — the deterministic
//! sequential baseline the equivalence tests compare against.
//!
//! Panics in tasks are contained: the first payload is captured and
//! re-thrown from `scope` on the submitting thread after every other task
//! of the scope has completed; the pool itself survives.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// A unit of work. Jobs are only ever created by [`Scope::spawn`], which
/// erases the scope lifetime after arranging (via the scope's completion
/// latch) that the job cannot outlive the borrows it captures.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Counters describing the work a [`Scheduler`] has performed since it was
/// created. Snapshots are taken with relaxed atomics: individual counters
/// are exact, cross-counter consistency is best-effort.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Number of worker threads the pool was created with.
    pub workers: usize,
    /// Total tasks executed (by workers and by helping joiners).
    pub tasks_executed: usize,
    /// Tasks an idle worker took from *another* worker's queue.
    pub steals: usize,
    /// Tasks taken from the shared injector deque.
    pub injector_pops: usize,
    /// Tasks executed by threads outside the pool while waiting in
    /// [`Scheduler::scope`] (the "help while joining" path).
    pub helper_executed: usize,
    /// Tasks submitted through the [`expresso_exec::Executor`] façade — the
    /// batch-shaped entry point lower crates fan work out on. Today its only
    /// client is abduction's candidate-subset evaluation, so this counts the
    /// invariant-inference tasks the pool absorbed; zero under a suite
    /// analysis means abduction silently fell off the shared pool (the
    /// `reproduce` tripwire fails loud on exactly that).
    pub abduction_tasks: usize,
    /// Tasks executed by each worker, index-aligned with the pool.
    pub per_worker_executed: Vec<usize>,
}

impl SchedulerStats {
    /// Adapt into a metric group for [`expresso_obs::MetricsRegistry`].
    pub fn metrics(&self) -> Vec<expresso_obs::Metric> {
        use expresso_obs::Metric;
        vec![
            Metric::counter("workers", self.workers as u64),
            Metric::counter("tasks_executed", self.tasks_executed as u64),
            Metric::counter("steals", self.steals as u64),
            Metric::counter("injector_pops", self.injector_pops as u64),
            Metric::counter("helper_executed", self.helper_executed as u64),
            Metric::counter("abduction_tasks", self.abduction_tasks as u64),
        ]
    }

    /// Field-wise accumulation of another snapshot (or delta) into this one,
    /// e.g. to sum the per-pass deltas of several profiled suite runs. The
    /// worker count and per-worker vector adopt the wider of the two.
    pub fn merge(&mut self, other: &SchedulerStats) {
        self.workers = self.workers.max(other.workers);
        self.tasks_executed += other.tasks_executed;
        self.steals += other.steals;
        self.injector_pops += other.injector_pops;
        self.helper_executed += other.helper_executed;
        self.abduction_tasks += other.abduction_tasks;
        if self.per_worker_executed.len() < other.per_worker_executed.len() {
            self.per_worker_executed
                .resize(other.per_worker_executed.len(), 0);
        }
        for (total, n) in self
            .per_worker_executed
            .iter_mut()
            .zip(&other.per_worker_executed)
        {
            *total += n;
        }
    }

    /// Field-wise difference `self - earlier` (saturating), used to attribute
    /// a shared pool's counters to the work that ran between two snapshots.
    pub fn delta_since(&self, earlier: &SchedulerStats) -> SchedulerStats {
        SchedulerStats {
            workers: self.workers,
            tasks_executed: self.tasks_executed.saturating_sub(earlier.tasks_executed),
            steals: self.steals.saturating_sub(earlier.steals),
            injector_pops: self.injector_pops.saturating_sub(earlier.injector_pops),
            helper_executed: self.helper_executed.saturating_sub(earlier.helper_executed),
            abduction_tasks: self.abduction_tasks.saturating_sub(earlier.abduction_tasks),
            per_worker_executed: self
                .per_worker_executed
                .iter()
                .enumerate()
                .map(|(i, &n)| {
                    n.saturating_sub(earlier.per_worker_executed.get(i).copied().unwrap_or(0))
                })
                .collect(),
        }
    }

    /// Fraction of all executed tasks each worker ran — the per-worker
    /// utilization profile of the pool (empty for a zero-worker pool).
    pub fn worker_utilization(&self) -> Vec<f64> {
        if self.tasks_executed == 0 {
            return vec![0.0; self.per_worker_executed.len()];
        }
        self.per_worker_executed
            .iter()
            .map(|&n| n as f64 / self.tasks_executed as f64)
            .collect()
    }
}

/// Wakeup bookkeeping shared by all workers (classic eventcount: pushes bump
/// the generation under the lock, sleepers re-scan and then wait for the
/// generation to move, so a push can never be missed).
#[derive(Debug, Default)]
struct SleepState {
    generation: u64,
    sleepers: usize,
}

#[derive(Debug, Default)]
struct Counters {
    tasks_executed: AtomicUsize,
    steals: AtomicUsize,
    injector_pops: AtomicUsize,
    helper_executed: AtomicUsize,
    abduction_tasks: AtomicUsize,
    per_worker_executed: Box<[AtomicUsize]>,
}

struct Shared {
    injector: Mutex<VecDeque<Job>>,
    queues: Box<[Mutex<VecDeque<Job>>]>,
    sleep: Mutex<SleepState>,
    /// Mirror of `SleepState::sleepers`, maintained with `SeqCst` so `push`
    /// can skip the sleep lock entirely while every worker is awake (the
    /// common case once the pool is saturated). The eventcount argument for
    /// why no wakeup is lost: a worker bumps the mirror *before* its final
    /// re-scan (both under the sleep lock), so a pusher that reads 0 after
    /// publishing its job is ordered before that re-scan, which therefore
    /// sees the job.
    sleeper_count: AtomicUsize,
    wake: Condvar,
    shutdown: AtomicBool,
    counters: Counters,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("workers", &self.queues.len())
            .field("shutdown", &self.shutdown.load(Ordering::Relaxed))
            .finish()
    }
}

thread_local! {
    /// `(pool identity, worker index)` of the current thread, when it is a
    /// worker. The identity is the address of the pool's `Shared` allocation,
    /// so workers of one pool never mis-push into another pool's queues.
    static WORKER: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, usize::MAX)) };
    /// How many help-executed jobs are currently nested on this thread's
    /// stack (jobs run from inside [`Scheduler::join_scope`]).
    static HELP_DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Beyond this nesting depth a joining thread stops taking *injector* work
/// (fresh top-level tasks that would recurse another full task tree onto the
/// current stack); in-flight subtask work remains available at any depth and
/// workers keep draining the injector from their own top-level loops, so
/// progress is never lost — at worst the joiner naps until its scope drains.
/// Zero-worker pools are exempt (see `join_scope`): inline execution nests
/// by construction, like calling the tasks directly.
const MAX_HELP_DEPTH: usize = 32;

/// The work-stealing analysis pool. See the module documentation.
#[derive(Debug)]
pub struct Scheduler {
    shared: Arc<Shared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Creates a pool with `workers` worker threads. `0` is the sequential
    /// configuration: tasks run inline on the thread that joins the scope.
    pub fn with_workers(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            queues: (0..workers).map(|_| Mutex::default()).collect(),
            sleep: Mutex::default(),
            sleeper_count: AtomicUsize::new(0),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters: Counters {
                per_worker_executed: (0..workers).map(|_| AtomicUsize::new(0)).collect(),
                ..Counters::default()
            },
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("expresso-worker-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("spawning an analysis worker thread")
            })
            .collect();
        Scheduler {
            shared,
            handles: Mutex::new(handles),
        }
    }

    /// Creates a pool sized by `analysis_threads`: `0` asks for one worker
    /// per available core, `1` is the sequential zero-worker pool (every
    /// task runs inline on the joining thread), and `n >= 2` builds `n`
    /// workers. A thread outside the pool that joins a scope is not counted:
    /// it only steals in-flight subtasks, lazily, and never pops the
    /// injector, so the workers alone provide the requested parallelism.
    pub fn with_analysis_threads(analysis_threads: usize) -> Self {
        Scheduler::with_workers(match analysis_threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            1 => 0,
            n => n,
        })
    }

    /// The process-wide default pool (auto-sized), shared by every analysis
    /// that does not carry an explicit scheduler. Created on first use and
    /// never torn down.
    pub fn global() -> &'static Arc<Scheduler> {
        static GLOBAL: OnceLock<Arc<Scheduler>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(Scheduler::with_analysis_threads(0)))
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.shared.queues.len()
    }

    /// Snapshot of the pool's counters.
    pub fn stats(&self) -> SchedulerStats {
        let c = &self.shared.counters;
        SchedulerStats {
            workers: self.shared.queues.len(),
            tasks_executed: c.tasks_executed.load(Ordering::Relaxed),
            steals: c.steals.load(Ordering::Relaxed),
            injector_pops: c.injector_pops.load(Ordering::Relaxed),
            helper_executed: c.helper_executed.load(Ordering::Relaxed),
            abduction_tasks: c.abduction_tasks.load(Ordering::Relaxed),
            per_worker_executed: c
                .per_worker_executed
                .iter()
                .map(|n| n.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Runs `f` with a [`Scope`] on which tasks borrowing from the enclosing
    /// frame can be spawned; returns only after every spawned task (including
    /// tasks spawned by tasks) has finished. The calling thread executes pool
    /// work while it waits. If `f` or any task panics, the panic is re-thrown
    /// here once the scope has fully drained.
    pub fn scope<'scope, R>(&'scope self, f: impl FnOnce(&Scope<'scope>) -> R) -> R {
        let scope = Scope {
            scheduler: self,
            state: Arc::new(ScopeState::default()),
            _marker: std::marker::PhantomData,
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
        self.join_scope(&scope.state);
        let task_panic = scope.state.panic.lock().unwrap().take();
        match result {
            Err(payload) => panic::resume_unwind(payload),
            Ok(value) => {
                if let Some(payload) = task_panic {
                    panic::resume_unwind(payload);
                }
                value
            }
        }
    }

    /// Pushes a job: onto the current thread's own queue when it is a worker
    /// of this pool (drained in submission order — see the module docs for
    /// why not LIFO), onto the shared injector otherwise.
    fn push(&self, job: Job) {
        self.shared.push(job);
    }

    /// Blocks until `state.pending` reaches zero, executing pool work while
    /// waiting. The short wait timeout bounds the latency of picking up work
    /// that was enqueued after the last failed search (e.g. a task spawned by
    /// a task this joiner's scope is still waiting on).
    ///
    /// How much a joiner helps depends on who it is. A *worker* (joining a
    /// nested scope) executes anything — its own queue first, then stolen
    /// work, then the injector. A *foreign* thread only **steals** from
    /// worker queues: stolen jobs are subtasks of work already in flight, so
    /// draining them moves open scopes (often its own) toward completion —
    /// whereas popping the injector would start fresh top-level work on a
    /// thread the pool was deliberately not sized to include, oversubscribing
    /// the machine. The exception is a zero-worker pool, where the joiner is
    /// the only executor and drains everything inline.
    fn join_scope(&self, state: &ScopeState) {
        let worker = {
            let (tls_pool, index) = WORKER.with(|w| w.get());
            (tls_pool == self.shared.id() && index < self.shared.queues.len()).then_some(index)
        };
        let full_help = worker.is_some() || self.shared.queues.is_empty();
        // Workers poll for new work eagerly; a foreign joiner polls an order
        // of magnitude more lazily — its stealing is a bounded starvation
        // fallback, and on few-core machines aggressive foreign helping only
        // interleaves two working sets on one cache. Scope completion always
        // wakes the joiner promptly via the completion condvar regardless.
        let nap = if full_help {
            Duration::from_millis(2)
        } else {
            Duration::from_millis(20)
        };
        loop {
            if *state.pending.lock().unwrap() == 0 {
                return;
            }
            // Popping the injector inside a join nests fresh top-level work
            // (e.g. a whole monitor analysis) into the current task's stack
            // frame; the per-thread depth cap bounds that recursion on
            // arbitrarily large suites. Subtask (own-queue / stolen) work
            // stays available at any depth, and the gate never applies to a
            // zero-worker pool — there the injector is the only queue and
            // the joiner the only executor, so gating it would deadlock;
            // inline execution nests by construction, exactly like calling
            // the tasks directly.
            let allow_injector =
                self.shared.queues.is_empty() || HELP_DEPTH.with(|d| d.get()) < MAX_HELP_DEPTH;
            let found = if full_help {
                self.shared.find_job(worker, allow_injector)
            } else {
                self.shared.steal_job()
            };
            if let Some((job, source)) = found {
                HELP_DEPTH.with(|d| d.set(d.get() + 1));
                self.shared.execute(job, source);
                HELP_DEPTH.with(|d| d.set(d.get() - 1));
                continue;
            }
            let pending = state.pending.lock().unwrap();
            if *pending == 0 {
                return;
            }
            let _ = state.complete.wait_timeout(pending, nap).unwrap();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let mut sleep = self.shared.sleep.lock().unwrap();
            sleep.generation = sleep.generation.wrapping_add(1);
            self.shared.wake.notify_all();
        }
        for handle in self.handles.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
    }
}

enum JobSource {
    Own,
    Injector,
    Stolen,
}

impl Shared {
    /// Identity of this pool, used to validate the worker TLS registration.
    fn id(&self) -> usize {
        self as *const Shared as usize
    }

    fn push(&self, job: Job) {
        let (tls_pool, index) = WORKER.with(|w| w.get());
        if tls_pool == self.id() && index < self.queues.len() {
            self.queues[index].lock().unwrap().push_back(job);
        } else {
            self.injector.lock().unwrap().push_back(job);
        }
        if self.sleeper_count.load(Ordering::SeqCst) > 0 {
            let mut sleep = self.sleep.lock().unwrap();
            sleep.generation = sleep.generation.wrapping_add(1);
            self.wake.notify_all();
        }
    }

    /// Takes one job for the current thread to execute: the front of the
    /// thread's own queue (workers only — submission order, see the module
    /// docs), then the back of another worker's queue (a steal), then the
    /// front of the injector. `allow_injector = false` restricts the search
    /// to in-flight subtask work; see [`Scheduler::join_scope`].
    fn find_job(&self, worker: Option<usize>, allow_injector: bool) -> Option<(Job, JobSource)> {
        if let Some(w) = worker {
            if let Some(job) = self.queues[w].lock().unwrap().pop_front() {
                return Some((job, JobSource::Own));
            }
        }
        // Steal before draining the injector: another worker's queued tasks
        // belong to work already in flight (a monitor mid-placement), so
        // finishing them first completes open scopes — and unblocks their
        // joiners — before fresh top-level work is started.
        let start = worker.map(|w| w + 1).unwrap_or(0);
        for offset in 0..self.queues.len() {
            let victim = (start + offset) % self.queues.len();
            if Some(victim) == worker {
                continue;
            }
            if let Some(job) = self.queues[victim].lock().unwrap().pop_back() {
                return Some((job, JobSource::Stolen));
            }
        }
        if allow_injector {
            if let Some(job) = self.injector.lock().unwrap().pop_front() {
                return Some((job, JobSource::Injector));
            }
        }
        None
    }

    /// Takes a job from some worker's queue only (the foreign-joiner help
    /// path: in-flight subtasks, never fresh injector work).
    fn steal_job(&self) -> Option<(Job, JobSource)> {
        for queue in self.queues.iter() {
            if let Some(job) = queue.lock().unwrap().pop_back() {
                return Some((job, JobSource::Stolen));
            }
        }
        None
    }

    /// Executes one job on the current thread, attributing the counters.
    fn execute(&self, job: Job, source: JobSource) {
        let c = &self.counters;
        c.tasks_executed.fetch_add(1, Ordering::Relaxed);
        match source {
            JobSource::Own => {}
            JobSource::Injector => {
                c.injector_pops.fetch_add(1, Ordering::Relaxed);
            }
            JobSource::Stolen => {
                c.steals.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (tls_pool, index) = WORKER.with(|w| w.get());
        if tls_pool == self.id() && index < c.per_worker_executed.len() {
            c.per_worker_executed[index].fetch_add(1, Ordering::Relaxed);
        } else {
            c.helper_executed.fetch_add(1, Ordering::Relaxed);
        }
        let _span = expresso_obs::span!("sched.task");
        job();
    }
}

/// The work-stealing pool as an [`expresso_exec::Executor`]: each task of a
/// batch becomes one scoped pool job, and `run_batch` joins the whole batch
/// before returning (helping with pool work while it waits). Crates below
/// `core` — abduction's candidate-subset waves — fan out on the *same* pool
/// that runs suite- and pair-level tasks through this impl, with the
/// dependency arrow still pointing down: they see only the trait. Dispatch
/// from inside a pool task is deadlock-free because the joining task is a
/// worker for as long as its scope is open (see the module docs), which is
/// what lets `Expresso::analyze_suite` keep abduction parallel instead of
/// serializing its most expensive phase.
impl expresso_exec::Executor for Scheduler {
    fn run_batch(&self, tasks: Vec<expresso_exec::Task<'_>>) {
        self.shared
            .counters
            .abduction_tasks
            .fetch_add(tasks.len(), Ordering::Relaxed);
        self.scope(|scope| {
            for task in tasks {
                scope.spawn(task);
            }
        });
    }

    fn name(&self) -> &'static str {
        "pool"
    }
}

fn worker_loop(shared: &Arc<Shared>, index: usize) {
    WORKER.with(|w| w.set((shared.id(), index)));
    loop {
        if let Some((job, source)) = shared.find_job(Some(index), true) {
            shared.execute(job, source);
            continue;
        }
        {
            let sleep = shared.sleep.lock().unwrap();
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            drop(sleep);
        }
        // Re-scan after taking (and releasing) the sleep lock once: any push
        // that completed before the lock round-trip is visible now, and any
        // later push bumps the generation under that lock and wakes us below.
        if let Some((job, source)) = shared.find_job(Some(index), true) {
            shared.execute(job, source);
            continue;
        }
        let mut sleep = shared.sleep.lock().unwrap();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let generation = sleep.generation;
        sleep.sleepers += 1;
        shared.sleeper_count.store(sleep.sleepers, Ordering::SeqCst);
        // Final re-scan with the registration published: a push that missed
        // the sleeper count saw it before this scan, so the job is visible.
        if let Some((job, source)) = shared.find_job(Some(index), true) {
            sleep.sleepers -= 1;
            shared.sleeper_count.store(sleep.sleepers, Ordering::SeqCst);
            drop(sleep);
            shared.execute(job, source);
            continue;
        }
        while sleep.generation == generation && !shared.shutdown.load(Ordering::SeqCst) {
            sleep = shared.wake.wait(sleep).unwrap();
        }
        sleep.sleepers -= 1;
        shared.sleeper_count.store(sleep.sleepers, Ordering::SeqCst);
    }
}

/// Completion latch of one [`Scheduler::scope`] call.
#[derive(Default)]
struct ScopeState {
    pending: Mutex<usize>,
    complete: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

impl std::fmt::Debug for ScopeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScopeState")
            .field("pending", &*self.pending.lock().unwrap())
            .finish()
    }
}

/// Handle for spawning tasks that may borrow from the frame enclosing a
/// [`Scheduler::scope`] call.
#[derive(Debug)]
pub struct Scope<'scope> {
    scheduler: &'scope Scheduler,
    state: Arc<ScopeState>,
    /// Invariant in `'scope`, exactly like `std::thread::Scope`.
    _marker: std::marker::PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Spawns a task on the pool. The closure may borrow anything that
    /// outlives `'scope`; the enclosing [`Scheduler::scope`] call joins every
    /// task before returning, which is what makes the lifetime erasure below
    /// sound. A panicking task marks the scope panicked (first payload wins)
    /// without taking down the worker that ran it.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'scope) {
        *self.state.pending.lock().unwrap() += 1;
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
                let mut slot = state.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            let mut pending = state.pending.lock().unwrap();
            *pending -= 1;
            if *pending == 0 {
                state.complete.notify_all();
            }
        });
        // SAFETY: the job is joined by `Scheduler::scope` before the `'scope`
        // borrows it captures can expire — `scope` does not return (normally
        // or by unwind) until `pending` reaches zero, and `pending` was
        // incremented before this job became reachable by any worker.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(job)
        };
        self.scheduler.push(job);
    }

    /// The scheduler this scope spawns onto.
    pub fn scheduler(&self) -> &'scope Scheduler {
        self.scheduler
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn zero_worker_pool_runs_tasks_inline_in_order() {
        let pool = Scheduler::with_workers(0);
        let order = Mutex::new(Vec::new());
        pool.scope(|scope| {
            for i in 0..8 {
                let order = &order;
                scope.spawn(move || order.lock().unwrap().push(i));
            }
        });
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
        let stats = pool.stats();
        assert_eq!(stats.tasks_executed, 8);
        assert_eq!(stats.helper_executed, 8);
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn results_land_in_their_slots() {
        let pool = Scheduler::with_workers(3);
        let mut slots = vec![0usize; 100];
        pool.scope(|scope| {
            for (i, slot) in slots.iter_mut().enumerate() {
                scope.spawn(move || *slot = i * i);
            }
        });
        for (i, &v) in slots.iter().enumerate() {
            assert_eq!(v, i * i);
        }
        assert_eq!(pool.stats().tasks_executed, 100);
    }

    #[test]
    fn nested_spawn_from_task_completes() {
        let pool = Scheduler::with_workers(2);
        let count = AtomicUsize::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                let count = &count;
                let scheduler = outer.scheduler();
                outer.spawn(move || {
                    scheduler.scope(|inner| {
                        for _ in 0..8 {
                            inner.spawn(|| {
                                count.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn task_panic_is_contained_and_rethrown() {
        let pool = Scheduler::with_workers(2);
        let survivors = AtomicUsize::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                scope.spawn(|| panic!("task exploded"));
                for _ in 0..4 {
                    let survivors = &survivors;
                    scope.spawn(move || {
                        survivors.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err());
        // Every non-panicking task of the scope still ran …
        assert_eq!(survivors.load(Ordering::Relaxed), 4);
        // … and the pool remains usable.
        let after = AtomicUsize::new(0);
        pool.scope(|scope| {
            let after = &after;
            scope.spawn(move || {
                after.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(after.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn work_submitted_from_a_worker_is_stolen() {
        // Tasks that fan out subtasks from inside a worker put them on that
        // worker's own queue, where only stealing can redistribute them.
        // Which thread picks up each fan-out task is scheduling-dependent (the
        // joining thread helps too, and its subtasks go to the injector), so
        // repeat the experiment until a steal is observed, bounded by time.
        let pool = Scheduler::with_workers(4);
        let count = AtomicUsize::new(0);
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while pool.stats().steals == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "no steal observed within the budget"
            );
            pool.scope(|outer| {
                let count = &count;
                let scheduler = outer.scheduler();
                for _ in 0..8 {
                    outer.spawn(move || {
                        scheduler.scope(|inner| {
                            for _ in 0..16 {
                                inner.spawn(|| {
                                    count.fetch_add(1, Ordering::Relaxed);
                                    std::thread::sleep(Duration::from_micros(100));
                                });
                            }
                        });
                    });
                }
            });
        }
        assert!(count.load(Ordering::Relaxed) > 0);
        assert!(pool.stats().steals > 0, "expected nonzero steals");
    }

    #[test]
    fn stats_account_every_task() {
        let pool = Scheduler::with_workers(2);
        pool.scope(|scope| {
            for _ in 0..32 {
                scope.spawn(|| {});
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.tasks_executed, 32);
        let attributed: usize =
            stats.per_worker_executed.iter().sum::<usize>() + stats.helper_executed;
        assert_eq!(attributed, 32);
        let utilization: f64 = stats.worker_utilization().iter().sum();
        assert!(utilization <= 1.0 + 1e-9);
    }
}
