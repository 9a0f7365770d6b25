//! The analysis fan-out: one level of scoped parallelism.
//!
//! [`Scheduler::scope`] collects the tasks its closure spawns and, once the
//! closure returns, runs them on `min(workers, tasks)` threads of one
//! `std::thread::scope`; each thread claims the next task in submission
//! order until none is left. A scope opened inside one of those tasks, or on
//! a zero-worker scheduler, runs its tasks inline on the calling thread, in
//! submission order. Constructing a scheduler starts no thread.
//!
//! Its one client in the pipeline is [`crate::Expresso::analyze_suite`],
//! which spawns one task per monitor. A monitor's own analysis — abduction's
//! subset scan and placement's `(CCR, guard)` pairs — is sequential code
//! inside that task: fanning out within one monitor made a Table 1 pass half
//! as long again, and moving nested tasks between threads (work stealing)
//! saved no time on a 500-monitor suite.
//!
//! Panics in tasks are contained: every task of the scope still runs, and
//! the first payload is re-thrown from `scope` afterwards.

use std::cell::{Cell, RefCell};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One task of a scope; it may borrow from the frame enclosing the scope.
type Task<'a> = Box<dyn FnOnce() + Send + 'a>;

type Payload = Box<dyn std::any::Any + Send + 'static>;

/// Why the scheduler's own mutexes are never poisoned: no code panics while
/// holding one, since every task runs under `catch_unwind`.
const UNPOISONED: &str = "no panic while a scheduler lock is held";

/// Counters describing the work a [`Scheduler`] has performed since it was
/// created. Snapshots are taken with relaxed atomics: individual counters
/// are exact, cross-counter consistency is best-effort.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Number of fan-out threads a top-level scope may use.
    pub workers: usize,
    /// Total tasks executed (on fan-out threads and inline).
    pub tasks_executed: usize,
    /// Always 0: nothing is stolen. Leaves with ROADMAP item 6(b).
    pub steals: usize,
    /// Tasks a fan-out thread took from a top-level scope.
    pub injector_pops: usize,
    /// Always 0: abduction runs inline in its monitor's task. Leaves with
    /// ROADMAP item 6(b2).
    #[doc(hidden)]
    pub abduction_tasks: usize,
    /// Tasks each fan-out thread claimed from a top-level scope, by thread
    /// index (a nested scope's tasks are counted in `tasks_executed` only).
    pub per_worker_executed: Vec<usize>,
}

impl SchedulerStats {
    /// Adapt into a metric group for [`expresso_obs::MetricsRegistry`].
    pub fn metrics(&self) -> Vec<expresso_obs::Metric> {
        use expresso_obs::Metric;
        vec![
            Metric::counter("workers", self.workers as u64),
            Metric::counter("tasks_executed", self.tasks_executed as u64),
            Metric::counter("injector_pops", self.injector_pops as u64),
        ]
    }

    /// Field-wise accumulation of another snapshot (or delta) into this one,
    /// e.g. to sum the per-pass deltas of several profiled suite runs. The
    /// worker count and per-worker vector adopt the wider of the two.
    pub fn merge(&mut self, other: &SchedulerStats) {
        self.workers = self.workers.max(other.workers);
        self.tasks_executed += other.tasks_executed;
        self.injector_pops += other.injector_pops;
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
    /// a shared scheduler's counters to the work that ran between two
    /// snapshots.
    pub fn delta_since(&self, earlier: &SchedulerStats) -> SchedulerStats {
        SchedulerStats {
            workers: self.workers,
            tasks_executed: self.tasks_executed.saturating_sub(earlier.tasks_executed),
            steals: 0,
            injector_pops: self.injector_pops.saturating_sub(earlier.injector_pops),
            abduction_tasks: 0,
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

    /// Fraction of all executed tasks each fan-out thread ran (empty for a
    /// zero-worker scheduler).
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

thread_local! {
    /// Set while the current thread is a fan-out thread of some scope; a
    /// scope opened here runs inline.
    static FAN_OUT: Cell<bool> = const { Cell::new(false) };
}

/// The analysis fan-out. See the module documentation.
#[derive(Debug)]
pub struct Scheduler {
    tasks_executed: AtomicUsize,
    injector_pops: AtomicUsize,
    per_worker_executed: Box<[AtomicUsize]>,
}

impl Scheduler {
    /// Creates a scheduler whose top-level scopes run on up to `workers`
    /// threads. `0` is the sequential configuration: every task runs inline
    /// on the thread that opened its scope.
    pub fn with_workers(workers: usize) -> Self {
        Scheduler {
            tasks_executed: AtomicUsize::new(0),
            injector_pops: AtomicUsize::new(0),
            per_worker_executed: (0..workers).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Creates a scheduler sized by `analysis_threads`: `0` asks for one
    /// thread per available core, `1` is the sequential zero-worker
    /// scheduler, and `n >= 2` fans out on `n` threads. The thread that opens
    /// a scope only waits, so it is not counted.
    pub fn with_analysis_threads(analysis_threads: usize) -> Self {
        Scheduler::with_workers(match analysis_threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            1 => 0,
            n => n,
        })
    }

    /// The process-wide default scheduler (auto-sized), shared by every
    /// analysis that does not carry an explicit one.
    pub fn global() -> &'static Arc<Scheduler> {
        static GLOBAL: OnceLock<Arc<Scheduler>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(Scheduler::with_analysis_threads(0)))
    }

    /// Number of threads a top-level scope may fan out on.
    pub fn workers(&self) -> usize {
        self.per_worker_executed.len()
    }

    /// Snapshot of the scheduler's counters.
    pub fn stats(&self) -> SchedulerStats {
        let load = |n: &AtomicUsize| n.load(Ordering::Relaxed);
        SchedulerStats {
            workers: self.workers(),
            tasks_executed: load(&self.tasks_executed),
            steals: 0,
            injector_pops: load(&self.injector_pops),
            abduction_tasks: 0,
            per_worker_executed: self.per_worker_executed.iter().map(load).collect(),
        }
    }

    /// Runs `f` with a [`Scope`] on which tasks borrowing from the enclosing
    /// frame can be spawned, then runs those tasks (see the module docs) and
    /// returns once every one has finished. If a task panics, the first
    /// payload is re-thrown here after the others have run; if `f` panics,
    /// no task runs.
    pub fn scope<'scope, R>(&'scope self, f: impl FnOnce(&Scope<'scope>) -> R) -> R {
        let scope = Scope {
            tasks: RefCell::new(Vec::new()),
        };
        let result = f(&scope);
        self.run(scope.tasks.into_inner());
        result
    }

    /// Runs `tasks` to completion: on fan-out threads from a top-level
    /// scope, inline otherwise. Re-throws the first task panic.
    fn run(&self, tasks: Vec<Task<'_>>) {
        let first_panic = Mutex::new(None);
        let threads = self.workers().min(tasks.len());
        if threads == 0 || FAN_OUT.with(Cell::get) {
            for task in tasks {
                self.execute(task, &first_panic);
            }
        } else {
            self.injector_pops.fetch_add(tasks.len(), Ordering::Relaxed);
            let queue = Mutex::new(tasks.into_iter());
            std::thread::scope(|s| {
                for index in 0..threads {
                    let (queue, first_panic) = (&queue, &first_panic);
                    std::thread::Builder::new()
                        .name(format!("expresso-worker-{index}"))
                        .spawn_scoped(s, move || {
                            FAN_OUT.with(|f| f.set(true));
                            loop {
                                let task = queue.lock().expect(UNPOISONED).next();
                                let Some(task) = task else { break };
                                self.per_worker_executed[index].fetch_add(1, Ordering::Relaxed);
                                self.execute(task, first_panic);
                            }
                        })
                        .expect("spawning an analysis thread");
                }
            });
        }
        if let Some(payload) = first_panic.into_inner().expect(UNPOISONED) {
            panic::resume_unwind(payload);
        }
    }

    /// Executes one task on the current thread, keeping its panic.
    fn execute(&self, task: Task<'_>, first_panic: &Mutex<Option<Payload>>) {
        self.tasks_executed.fetch_add(1, Ordering::Relaxed);
        let _span = expresso_obs::span!("sched.task");
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(task)) {
            first_panic.lock().expect(UNPOISONED).get_or_insert(payload);
        }
    }
}

/// A leftover so that callers that pass the scheduler as an abduction
/// executor still compile; abduction ignores it. Leaves with ROADMAP item
/// 6(b2).
#[doc(hidden)]
impl expresso_abduction::Executor for Scheduler {}

/// Handle for spawning tasks that may borrow from the frame enclosing a
/// [`Scheduler::scope`] call. It is not `Sync`, so a task cannot spawn into
/// its own scope.
pub struct Scope<'scope> {
    tasks: RefCell<Vec<Task<'scope>>>,
}

impl std::fmt::Debug for Scope<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope")
            .field("tasks", &self.tasks.borrow().len())
            .finish()
    }
}

impl<'scope> Scope<'scope> {
    /// Adds a task to the scope. It starts once the closure given to
    /// [`Scheduler::scope`] has returned. A panicking task does not stop the
    /// others; the first payload is re-thrown from `scope`.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'scope) {
        self.tasks.borrow_mut().push(Box::new(f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;
    use std::thread::ThreadId;

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
        assert_eq!(stats.injector_pops, 0);
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
                let scheduler = &pool;
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

    thread_local! {
        /// How many task bodies are open on this thread's stack.
        static DEPTH: Cell<usize> = const { Cell::new(0) };
    }

    /// Runs `body` as one level of task nesting, recording the deepest level
    /// seen in `max_depth`.
    fn nest(max_depth: &AtomicUsize, body: impl FnOnce()) {
        let depth = DEPTH.with(|d| d.get() + 1);
        DEPTH.with(|d| d.set(depth));
        max_depth.fetch_max(depth, Ordering::Relaxed);
        body();
        DEPTH.with(|d| d.set(depth - 1));
    }

    /// An outer scope of 1 000 tasks, each opening an inner scope of two.
    /// Returns, per outer task, what ran for it — `(label, thread)` in call
    /// order — and the deepest task nesting seen.
    fn outer_and_inner(pool: &Scheduler) -> (Vec<Vec<(String, ThreadId)>>, usize) {
        const OUTER: usize = 1_000;
        let max_depth = AtomicUsize::new(0);
        let logs: Vec<Mutex<Vec<(String, ThreadId)>>> =
            (0..OUTER).map(|_| Mutex::default()).collect();
        pool.scope(|outer| {
            for (i, log) in logs.iter().enumerate() {
                let (scheduler, max_depth) = (pool, &max_depth);
                let record = move |label: String| {
                    log.lock()
                        .unwrap()
                        .push((label, std::thread::current().id()));
                };
                outer.spawn(move || {
                    nest(max_depth, || {
                        record(format!("outer{i}"));
                        scheduler.scope(|inner| {
                            for j in 0..2 {
                                inner.spawn(move || {
                                    nest(max_depth, || record(format!("inner{i}.{j}")))
                                });
                            }
                        });
                    })
                });
            }
        });
        let logs = logs.into_iter().map(|l| l.into_inner().unwrap());
        (logs.collect(), max_depth.into_inner())
    }

    #[test]
    fn nested_scopes_run_inline_and_do_not_deepen_the_stack() {
        let caller = std::thread::current().id();
        // Zero workers: everything runs on the caller, in call order. On two
        // fan-out threads: a nested scope runs on the thread that opened it,
        // in submission order.
        for workers in [0, 2] {
            let (logs, depth) = outer_and_inner(&Scheduler::with_workers(workers));
            assert_eq!(depth, 2, "workers={workers}: a task ran inside a sibling");
            for (i, log) in logs.iter().enumerate() {
                let labels: Vec<&str> = log.iter().map(|(l, _)| l.as_str()).collect();
                let expected = [
                    format!("outer{i}"),
                    format!("inner{i}.0"),
                    format!("inner{i}.1"),
                ];
                assert_eq!(labels, expected, "workers={workers}");
                let opener = log[0].1;
                assert_eq!(opener == caller, workers == 0, "workers={workers}");
                assert!(log.iter().all(|&(_, t)| t == opener), "outer{i}: {log:?}");
            }
        }
    }

    #[test]
    fn a_top_level_scope_fans_out_on_min_workers_tasks_threads() {
        let caller = std::thread::current().id();
        for (workers, n) in [(1usize, 3usize), (2, 5), (3, 2), (4, 4)] {
            let pool = Scheduler::with_workers(workers);
            let threads = workers.min(n);
            // The first `threads` tasks wait for each other, so each of them
            // holds a thread of its own until all have started.
            let start = Barrier::new(threads);
            let ran: Vec<Mutex<Vec<ThreadId>>> = (0..n).map(|_| Mutex::default()).collect();
            pool.scope(|scope| {
                for (i, ran) in ran.iter().enumerate() {
                    let start = &start;
                    scope.spawn(move || {
                        if i < threads {
                            start.wait();
                        }
                        ran.lock().unwrap().push(std::thread::current().id());
                    });
                }
            });
            let ran: Vec<Vec<ThreadId>> =
                ran.into_iter().map(|r| r.into_inner().unwrap()).collect();
            assert!(ran.iter().all(|r| r.len() == 1), "each task runs once");
            let distinct: HashSet<ThreadId> = ran.iter().map(|r| r[0]).collect();
            assert_eq!(distinct.len(), threads, "workers={workers} tasks={n}");
            assert!(!distinct.contains(&caller));
            let stats = pool.stats();
            assert_eq!(stats.tasks_executed, n);
            assert_eq!(stats.injector_pops, n);
            assert_eq!(stats.per_worker_executed.iter().sum::<usize>(), n);
        }
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
        assert_eq!(stats.per_worker_executed.iter().sum::<usize>(), 32);
        let utilization: f64 = stats.worker_utilization().iter().sum();
        assert!(utilization <= 1.0 + 1e-9);
    }
}
