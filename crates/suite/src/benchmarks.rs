//! The benchmark monitors.

use crate::loadmix::{self, SessionScript};
use crate::workloads;
use expresso_logic::Valuation;
use expresso_monitor_lang::{parse_monitor, Monitor};
use expresso_runtime::ThreadPlan;

/// Which figure of the paper a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchmarkGroup {
    /// Figure 8: the AutoSynch benchmarks plus the motivating readers-writers.
    AutoSynch,
    /// Figure 9: monitors mined from popular GitHub projects.
    GitHub,
    /// Scenario shapes beyond the paper's evaluation (multi-reader broadcast
    /// rings, writer-priority locking), exercised by the same conformance and
    /// cache-equivalence harnesses.
    Extended,
}

/// One evaluation benchmark: a monitor, its constructor arguments and a
/// saturation workload.
pub struct Benchmark {
    /// Benchmark name as used in the paper's figures and Table 1.
    pub name: &'static str,
    /// Which figure the benchmark belongs to.
    pub group: BenchmarkGroup,
    /// Source text of the implicit-signal monitor.
    pub source: &'static str,
    /// Builds constructor arguments for a run with `threads` worker threads.
    pub ctor_args: fn(threads: usize) -> Valuation,
    /// Builds one operation plan per thread such that the whole workload is
    /// balanced (it always terminates).
    pub plans: fn(threads: usize, ops_per_thread: usize) -> Vec<ThreadPlan>,
    /// Generates one logical client session's operations for the load harness
    /// (see [`crate::loadmix`] for the termination contract).
    pub session_script: SessionScript,
}

impl Benchmark {
    /// Parses the benchmark's monitor source.
    ///
    /// # Panics
    ///
    /// Panics if the embedded source is malformed — covered by tests.
    pub fn monitor(&self) -> Monitor {
        parse_monitor(self.source).expect("benchmark source parses")
    }
}

impl std::fmt::Debug for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Benchmark")
            .field("name", &self.name)
            .field("group", &self.group)
            .finish()
    }
}

// ----------------------------------------------------------------------
// Figure 8: AutoSynch benchmarks + readers-writers
// ----------------------------------------------------------------------

const BOUNDED_BUFFER: &str = r#"
monitor BoundedBuffer(int capacity) requires capacity > 0 {
    int[] buffer = new int[capacity];
    int count = 0;
    int head = 0;
    int tail = 0;
    atomic void put(int item) {
        waituntil (count < capacity) {
            buffer[tail] = item;
            tail = tail + 1;
            if (tail >= capacity) { tail = 0; }
            count++;
        }
    }
    atomic void take() {
        waituntil (count > 0) {
            head = head + 1;
            if (head >= capacity) { head = 0; }
            count--;
        }
    }
}
"#;

const H2O_BARRIER: &str = r#"
monitor H2OBarrier {
    int hydrogen = 0;
    int molecules = 0;
    atomic void hydrogenReady() {
        hydrogen++;
    }
    atomic void oxygenBond() {
        waituntil (hydrogen >= 2) {
            hydrogen = hydrogen - 2;
            molecules++;
        }
    }
}
"#;

const SLEEPING_BARBER: &str = r#"
monitor SleepingBarber(int chairs) requires chairs > 0 {
    int waiting = 0;
    int served = 0;
    atomic void customerArrives() {
        waituntil (waiting < chairs) { waiting++; }
    }
    atomic void barberCut() {
        waituntil (waiting > 0) { waiting--; served++; }
    }
}
"#;

const ROUND_ROBIN: &str = r#"
monitor RoundRobin(int participants) requires participants > 0 {
    int turn = 0;
    int rounds = 0;
    atomic void pass(int id) {
        waituntil (turn == id) {
            turn = turn + 1;
            if (turn >= participants) { turn = 0; rounds++; }
        }
    }
}
"#;

const TICKETED_READERS_WRITERS: &str = r#"
monitor TicketedRWLock {
    int readers = 0;
    bool writerIn = false;
    int nextWriterTicket = 0;
    int servingWriter = 0;
    atomic void enterReader() {
        waituntil (!writerIn) { readers++; }
    }
    atomic void exitReader() {
        if (readers > 0) readers--;
    }
    atomic void enterWriter(int ticket) {
        waituntil (readers == 0 && !writerIn && servingWriter == ticket) {
            writerIn = true;
        }
    }
    atomic void exitWriter() {
        writerIn = false;
        servingWriter = servingWriter + 1;
    }
    atomic void drawTicket() {
        nextWriterTicket = nextWriterTicket + 1;
    }
}
"#;

const PARAM_BOUNDED_BUFFER: &str = r#"
monitor ParameterizedBoundedBuffer(int capacity) requires capacity > 1 {
    int count = 0;
    atomic void produce(int amount) {
        waituntil (count + amount <= capacity) { count = count + amount; }
    }
    atomic void consume(int need) {
        waituntil (count >= need) { count = count - need; }
    }
}
"#;

const DINING_PHILOSOPHERS: &str = r#"
monitor DiningPhilosophers(int seats) requires seats > 1 {
    int[] forks = new int[seats];
    int meals = 0;
    atomic void pickUp(int left, int right) {
        waituntil (forks[left] == 0 && forks[right] == 0) {
            forks[left] = 1;
            forks[right] = 1;
        }
    }
    atomic void putDown(int doneLeft, int doneRight) {
        forks[doneLeft] = 0;
        forks[doneRight] = 0;
        meals++;
    }
}
"#;

const READERS_WRITERS: &str = r#"
monitor RWLock {
    int readers = 0;
    bool writerIn = false;
    atomic void enterReader() {
        waituntil (!writerIn) { readers++; }
    }
    atomic void exitReader() {
        if (readers > 0) readers--;
    }
    atomic void enterWriter() {
        waituntil (readers == 0 && !writerIn) { writerIn = true; }
    }
    atomic void exitWriter() {
        writerIn = false;
    }
}
"#;

// ----------------------------------------------------------------------
// Figure 9: GitHub monitors
// ----------------------------------------------------------------------

const CONCURRENCY_THROTTLE: &str = r#"
monitor ConcurrencyThrottle(int threadLimit) requires threadLimit > 0 {
    int threadCount = 0;
    atomic void beforeAccess() {
        waituntil (threadCount < threadLimit) { threadCount++; }
    }
    atomic void afterAccess() {
        threadCount--;
    }
}
"#;

const PENDING_POST_QUEUE: &str = r#"
monitor PendingPostQueue {
    int size = 0;
    atomic void enqueue() {
        size++;
    }
    atomic void poll() {
        waituntil (size > 0) { size--; }
    }
}
"#;

const ASYNC_DISPATCH: &str = r#"
monitor AsyncDispatch(int maxQueueSize) requires maxQueueSize > 0 {
    int queueSize = 0;
    bool stopped = false;
    atomic void dispatch() {
        waituntil (queueSize < maxQueueSize || stopped) {
            if (!stopped) { queueSize++; }
        }
    }
    atomic void runOne() {
        waituntil (queueSize > 0 || stopped) {
            if (queueSize > 0) { queueSize--; }
        }
    }
    atomic void stop() {
        stopped = true;
    }
}
"#;

const SIMPLE_BLOCKING_DEPLOYMENT: &str = r#"
monitor SimpleBlockingDeployment {
    bool busy = false;
    int deployments = 0;
    atomic void startDeployment() {
        waituntil (!busy) { busy = true; }
    }
    atomic void finishDeployment() {
        busy = false;
        deployments++;
    }
}
"#;

const SIMPLE_DECODER: &str = r#"
monitor SimpleDecoder(int inputBuffers, int outputBuffers) requires inputBuffers > 0 && outputBuffers > 0 {
    int freeInputs = inputBuffers;
    int queuedInputs = 0;
    int freeOutputs = outputBuffers;
    int queuedOutputs = 0;
    atomic void queueInput() {
        waituntil (freeInputs > 0) { freeInputs--; queuedInputs++; }
    }
    atomic void decode() {
        waituntil (queuedInputs > 0 && freeOutputs > 0) {
            queuedInputs--;
            freeInputs++;
            freeOutputs--;
            queuedOutputs++;
        }
    }
    atomic void dequeueOutput() {
        waituntil (queuedOutputs > 0) { queuedOutputs--; freeOutputs++; }
    }
}
"#;

const ASYNC_OPERATION_EXECUTOR: &str = r#"
monitor AsyncOperationExecutor(int maxPending) requires maxPending > 0 {
    int pending = 0;
    int completed = 0;
    atomic void enqueueOperation() {
        waituntil (pending < maxPending) { pending++; }
    }
    atomic void completeOperation() {
        waituntil (pending > 0) { pending--; completed++; }
    }
}
"#;

// ----------------------------------------------------------------------
// Extended scenarios (beyond the paper's evaluation)
// ----------------------------------------------------------------------

const BROADCAST_RING: &str = r#"
monitor BroadcastRing(int capacity, int readers) requires capacity > 0 && readers > 0 {
    int inFlight = 0;
    int acks = 0;
    int delivered = 0;
    atomic void publish() {
        waituntil (inFlight < capacity) { inFlight++; }
    }
    atomic void consume() {
        waituntil (inFlight > 0) {
            acks++;
            if (acks >= readers) {
                acks = 0;
                inFlight--;
                delivered++;
            }
        }
    }
}
"#;

const WRITER_PRIORITY_LOCK: &str = r#"
monitor WriterPriorityLock {
    int activeReaders = 0;
    int waitingWriters = 0;
    bool writerActive = false;
    atomic void beginRead() {
        waituntil (!writerActive && waitingWriters == 0) { activeReaders++; }
    }
    atomic void endRead() {
        if (activeReaders > 0) activeReaders--;
    }
    atomic void requestWrite() {
        waitingWriters++;
    }
    atomic void beginWrite() {
        waituntil (activeReaders == 0 && !writerActive && waitingWriters > 0) {
            waitingWriters--;
            writerActive = true;
        }
    }
    atomic void endWrite() {
        writerActive = false;
    }
}
"#;

fn no_args(_threads: usize) -> Valuation {
    Valuation::new()
}

fn capacity_args(_threads: usize) -> Valuation {
    let mut v = Valuation::new();
    v.set_int("capacity", 8);
    v
}

/// Every suite benchmark: the paper's 14 evaluation monitors in the order
/// the paper lists them, followed by the extended scenarios.
pub fn all() -> Vec<Benchmark> {
    let mut v = autosynch_benchmarks();
    v.extend(github_benchmarks());
    v.extend(extended_benchmarks());
    v
}

/// The Figure 8 benchmarks.
pub fn autosynch_benchmarks() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "BoundedBuffer",
            group: BenchmarkGroup::AutoSynch,
            source: BOUNDED_BUFFER,
            ctor_args: capacity_args,
            plans: workloads::producer_consumer_plans("put", "take", true),
            session_script: loadmix::bounded_buffer_session,
        },
        Benchmark {
            name: "H2OBarrier",
            group: BenchmarkGroup::AutoSynch,
            source: H2O_BARRIER,
            ctor_args: no_args,
            plans: workloads::h2o_plans,
            session_script: loadmix::h2o_session,
        },
        Benchmark {
            name: "SleepingBarber",
            group: BenchmarkGroup::AutoSynch,
            source: SLEEPING_BARBER,
            ctor_args: |_| {
                let mut v = Valuation::new();
                v.set_int("chairs", 6);
                v
            },
            plans: workloads::producer_consumer_plans("customerArrives", "barberCut", false),
            session_script: loadmix::sleeping_barber_session,
        },
        Benchmark {
            name: "RoundRobin",
            group: BenchmarkGroup::AutoSynch,
            source: ROUND_ROBIN,
            ctor_args: |threads| {
                let mut v = Valuation::new();
                v.set_int("participants", threads.max(1) as i64);
                v
            },
            plans: workloads::round_robin_plans,
            session_script: loadmix::round_robin_session,
        },
        Benchmark {
            name: "TicketedReadersWriters",
            group: BenchmarkGroup::AutoSynch,
            source: TICKETED_READERS_WRITERS,
            ctor_args: no_args,
            plans: workloads::ticketed_rw_plans,
            session_script: loadmix::ticketed_rw_session,
        },
        Benchmark {
            name: "ParameterizedBoundedBuffer",
            group: BenchmarkGroup::AutoSynch,
            source: PARAM_BOUNDED_BUFFER,
            ctor_args: capacity_args,
            plans: workloads::parameterized_buffer_plans,
            session_script: loadmix::parameterized_buffer_session,
        },
        Benchmark {
            name: "DiningPhilosophers",
            group: BenchmarkGroup::AutoSynch,
            source: DINING_PHILOSOPHERS,
            ctor_args: |threads| {
                let mut v = Valuation::new();
                v.set_int("seats", threads.max(2) as i64);
                v
            },
            plans: workloads::dining_philosopher_plans,
            session_script: loadmix::dining_philosophers_session,
        },
        Benchmark {
            name: "ReadersWriters",
            group: BenchmarkGroup::AutoSynch,
            source: READERS_WRITERS,
            ctor_args: no_args,
            plans: workloads::readers_writers_plans,
            session_script: loadmix::readers_writers_session,
        },
    ]
}

/// The Figure 9 benchmarks.
pub fn github_benchmarks() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "ConcurrencyThrottle",
            group: BenchmarkGroup::GitHub,
            source: CONCURRENCY_THROTTLE,
            ctor_args: |_| {
                let mut v = Valuation::new();
                v.set_int("threadLimit", 4);
                v
            },
            plans: workloads::enter_exit_plans("beforeAccess", "afterAccess"),
            session_script: loadmix::throttle_session,
        },
        Benchmark {
            name: "PendingPostQueue",
            group: BenchmarkGroup::GitHub,
            source: PENDING_POST_QUEUE,
            ctor_args: no_args,
            plans: workloads::producer_consumer_plans("enqueue", "poll", false),
            session_script: loadmix::pending_post_session,
        },
        Benchmark {
            name: "AsyncDispatch",
            group: BenchmarkGroup::GitHub,
            source: ASYNC_DISPATCH,
            ctor_args: |_| {
                let mut v = Valuation::new();
                v.set_int("maxQueueSize", 8);
                v
            },
            plans: workloads::producer_consumer_plans("dispatch", "runOne", false),
            session_script: loadmix::async_dispatch_session,
        },
        Benchmark {
            name: "SimpleBlockingDeployment",
            group: BenchmarkGroup::GitHub,
            source: SIMPLE_BLOCKING_DEPLOYMENT,
            ctor_args: no_args,
            plans: workloads::enter_exit_plans("startDeployment", "finishDeployment"),
            session_script: loadmix::deployment_session,
        },
        Benchmark {
            name: "SimpleDecoder",
            group: BenchmarkGroup::GitHub,
            source: SIMPLE_DECODER,
            ctor_args: |_| {
                let mut v = Valuation::new();
                v.set_int("inputBuffers", 4).set_int("outputBuffers", 4);
                v
            },
            plans: workloads::decoder_plans,
            session_script: loadmix::decoder_session,
        },
        Benchmark {
            name: "AsyncOperationExecutor",
            group: BenchmarkGroup::GitHub,
            source: ASYNC_OPERATION_EXECUTOR,
            ctor_args: |_| {
                let mut v = Valuation::new();
                v.set_int("maxPending", 8);
                v
            },
            plans: workloads::producer_consumer_plans(
                "enqueueOperation",
                "completeOperation",
                false,
            ),
            session_script: loadmix::async_executor_session,
        },
    ]
}

/// The extended scenario benchmarks (not part of the paper's figures).
pub fn extended_benchmarks() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "BroadcastRing",
            group: BenchmarkGroup::Extended,
            source: BROADCAST_RING,
            ctor_args: |_| {
                let mut v = Valuation::new();
                v.set_int("capacity", 4).set_int("readers", 2);
                v
            },
            plans: workloads::broadcast_ring_plans,
            session_script: loadmix::broadcast_ring_session,
        },
        Benchmark {
            name: "WriterPriorityLock",
            group: BenchmarkGroup::Extended,
            source: WRITER_PRIORITY_LOCK,
            ctor_args: no_args,
            plans: workloads::writer_priority_plans,
            session_script: loadmix::writer_priority_session,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use expresso_core::Expresso;
    use expresso_monitor_lang::check_monitor;

    #[test]
    fn there_are_sixteen_benchmarks() {
        assert_eq!(all().len(), 16);
        assert_eq!(autosynch_benchmarks().len(), 8);
        assert_eq!(github_benchmarks().len(), 6);
        assert_eq!(extended_benchmarks().len(), 2);
    }

    #[test]
    fn every_benchmark_parses_and_type_checks() {
        for b in all() {
            let monitor = b.monitor();
            let table = check_monitor(&monitor);
            assert!(
                table.is_ok(),
                "{} failed checking: {:?}",
                b.name,
                table.err()
            );
        }
    }

    #[test]
    fn every_benchmark_builds_a_balanced_workload() {
        for b in all() {
            for threads in [2usize, 4, 7] {
                let plans = (b.plans)(threads, 10);
                assert!(
                    !plans.is_empty(),
                    "{} produced no plans for {threads} threads",
                    b.name
                );
                let total: usize = plans.iter().map(|p| p.len()).sum();
                assert!(total > 0, "{} produced an empty workload", b.name);
            }
        }
    }

    /// The engines refuse a caller binding that names a shared variable
    /// (`CallError::SharedBinding`) and ignore one that names nothing; the
    /// suite's own workloads must only ever pass thread-locals.
    #[test]
    fn workloads_bind_only_thread_local_names() {
        let mut bindings = 0usize;
        for b in all() {
            let table = check_monitor(&b.monitor()).unwrap();
            let mut operations: Vec<_> = [2usize, 4, 7]
                .into_iter()
                .flat_map(|threads| (b.plans)(threads, 10))
                .flatten()
                .collect();
            for (workers, sessions) in [(1usize, 8u64), (4, 64)] {
                for session in 0..sessions {
                    operations.extend((b.session_script)(&crate::SessionSpec {
                        worker: (session % workers as u64) as usize,
                        workers,
                        session,
                        sessions,
                        rounds: 2,
                        seed: 42,
                    }));
                }
            }
            for op in &operations {
                let names = op.locals.ints().map(|(name, _)| name);
                let names = names.chain(op.locals.bools().map(|(name, _)| name));
                for name in names.chain(op.locals.arrays().map(|(name, _)| name)) {
                    bindings += 1;
                    assert!(
                        table.is_local(name),
                        "{}: `{}` binds `{name}`, which is not a thread-local",
                        b.name,
                        op.method
                    );
                }
            }
        }
        assert!(bindings > 1000, "only {bindings} bindings probed");
    }

    #[test]
    fn readers_writers_analysis_matches_paper() {
        let rw = autosynch_benchmarks()
            .into_iter()
            .find(|b| b.name == "ReadersWriters")
            .unwrap();
        let outcome = Expresso::new().analyze(&rw.monitor()).unwrap();
        // Three notifications in total, exactly as in Fig. 2.
        assert_eq!(outcome.explicit.notification_count(), 3);
        assert_eq!(outcome.explicit.broadcast_count(), 1);
    }

    #[test]
    fn extended_benchmarks_analyze_cleanly() {
        for b in extended_benchmarks() {
            let monitor = b.monitor();
            let outcome = Expresso::new().analyze(&monitor).unwrap();
            // Both monitors have guarded waits, so the explicit version must
            // notify somewhere — and the analysis must beat broadcast-all.
            assert!(
                outcome.explicit.notification_count() > 0,
                "{} produced no notifications",
                b.name
            );
            let naive = expresso_monitor_lang::ExplicitMonitor::broadcast_all(monitor);
            assert!(
                outcome.explicit.notification_count() < naive.notification_count(),
                "{} did not improve on broadcast-all",
                b.name
            );
        }
    }

    #[test]
    fn broadcast_ring_workload_balances_acks() {
        let ring = extended_benchmarks()
            .into_iter()
            .find(|b| b.name == "BroadcastRing")
            .unwrap();
        for threads in [2usize, 4, 5, 7] {
            let plans = (ring.plans)(threads, 6);
            let publishes: usize = plans
                .iter()
                .flatten()
                .filter(|op| op.method == "publish")
                .count();
            let consumes: usize = plans
                .iter()
                .flatten()
                .filter(|op| op.method == "consume")
                .count();
            // readers = 2: every published item needs exactly two acks.
            assert_eq!(consumes, 2 * publishes, "threads={threads}");
        }
    }

    #[test]
    fn writer_priority_workload_matches_every_request() {
        let lock = extended_benchmarks()
            .into_iter()
            .find(|b| b.name == "WriterPriorityLock")
            .unwrap();
        for threads in [2usize, 4, 9] {
            let plans = (lock.plans)(threads, 5);
            let count =
                |m: &str| -> usize { plans.iter().flatten().filter(|op| op.method == m).count() };
            assert_eq!(count("requestWrite"), count("beginWrite"), "{threads}");
            assert_eq!(count("beginWrite"), count("endWrite"), "{threads}");
            assert_eq!(count("beginRead"), count("endRead"), "{threads}");
        }
    }

    #[test]
    fn concurrency_throttle_avoids_broadcast() {
        // The paper highlights that ConcurrencyThrottle needs the invariant +
        // commutativity reasoning to avoid broadcasts on afterAccess.
        let b = github_benchmarks()
            .into_iter()
            .find(|b| b.name == "ConcurrencyThrottle")
            .unwrap();
        let monitor = b.monitor();
        let outcome = Expresso::new().analyze(&monitor).unwrap();
        let after = monitor.method("afterAccess").unwrap().ccrs[0];
        let notes = outcome.explicit.notifications_for(after);
        assert_eq!(notes.len(), 1);
        assert_eq!(
            notes[0].kind,
            expresso_monitor_lang::NotificationKind::Signal
        );
    }
}
