//! Saturation workloads: threads that do nothing but call monitor operations.

use crate::engine::MonitorRuntime;
use expresso_logic::Valuation;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A single monitor call: method name plus the caller's local variables.
#[derive(Debug, Clone)]
pub struct Operation {
    /// The monitor method to invoke.
    pub method: String,
    /// Values for the method's parameters.
    pub locals: Valuation,
}

impl Operation {
    /// Creates an operation with no parameters.
    pub fn new(method: impl Into<String>) -> Self {
        Operation {
            method: method.into(),
            locals: Valuation::new(),
        }
    }

    /// Creates an operation with explicit parameter values.
    pub fn with_locals(method: impl Into<String>, locals: Valuation) -> Self {
        Operation {
            method: method.into(),
            locals,
        }
    }
}

/// The sequence of operations one thread performs.
pub type ThreadPlan = Vec<Operation>;

/// The result of a saturation run.
#[derive(Debug, Clone)]
pub struct SaturationResult {
    /// Wall-clock time from the first thread starting its plan to the last
    /// thread finishing its own; creating the threads is not in it.
    pub elapsed: Duration,
    /// Total number of monitor operations performed across all threads.
    pub operations: usize,
    /// Number of wake-ups observed by the engine (context-switch proxy).
    pub wakeups: usize,
    /// Number of run-time predicate evaluations performed by the engine.
    pub predicate_evaluations: usize,
}

impl SaturationResult {
    /// Average time per monitor operation.
    pub fn time_per_op(&self) -> Duration {
        if self.operations == 0 {
            Duration::ZERO
        } else {
            self.elapsed / self.operations as u32
        }
    }

    /// Average time per operation in microseconds (the unit used by the
    /// reproduce binaries; the paper's figures use milliseconds per operation
    /// on a much slower per-operation path).
    pub fn micros_per_op(&self) -> f64 {
        if self.operations == 0 {
            0.0
        } else {
            self.elapsed.as_secs_f64() * 1e6 / self.operations as f64
        }
    }
}

/// The line the threads of a saturation run start from.
///
/// A compiled call costs about 0.1 µs, so a plan of a few thousand calls is
/// over in under a millisecond — less than the kernel may take to create the
/// next thread, or to give a CPU to a thread it has just woken behind a
/// running one. Threads released by a wake-up alone therefore run either side
/// by side or one after the other, by where the kernel happened to put them,
/// and a contended call costs several times an uncontended one: the same run
/// reads 2 M or 10 M calls/s. The line opens only once every thread has been
/// seen *running*: all threads meet at a barrier, then thread 0 pings the
/// others, who spin, until one round of answers comes back faster than any
/// context switch could deliver it.
struct StartLine {
    threads: usize,
    /// Whether there is a CPU for every thread; without one the threads can
    /// never all run at once and the barrier is all there is to wait for.
    check_running: bool,
    all_exist: Barrier,
    ping: AtomicUsize,
    answers: AtomicUsize,
    open: AtomicBool,
}

/// A round of answers this quick came from threads that were all on a CPU.
const ALL_RUNNING: Duration = Duration::from_micros(20);
/// How long thread 0 keeps asking before it opens the line regardless.
const START_LINE_PATIENCE: Duration = Duration::from_millis(50);

impl StartLine {
    fn new(threads: usize) -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        StartLine {
            threads,
            check_running: threads <= cpus,
            all_exist: Barrier::new(threads),
            ping: AtomicUsize::new(0),
            answers: AtomicUsize::new(0),
            open: AtomicBool::new(false),
        }
    }

    /// Blocks thread number `index` until the line opens.
    fn wait(&self, index: usize) {
        self.all_exist.wait();
        if !self.check_running {
            return;
        }
        if index == 0 {
            let asking = Instant::now();
            loop {
                let round = Instant::now();
                self.answers.store(0, Ordering::Relaxed);
                self.ping.fetch_add(1, Ordering::Release);
                while self.answers.load(Ordering::Acquire) + 1 < self.threads {
                    std::hint::spin_loop();
                }
                if round.elapsed() < ALL_RUNNING || asking.elapsed() > START_LINE_PATIENCE {
                    break;
                }
            }
            self.open.store(true, Ordering::Release);
        } else {
            let mut answered = 0;
            while !self.open.load(Ordering::Acquire) {
                let ping = self.ping.load(Ordering::Acquire);
                if ping != answered {
                    answered = ping;
                    self.answers.fetch_add(1, Ordering::Release);
                }
                std::hint::spin_loop();
            }
        }
    }
}

/// Runs a saturation test: one OS thread per plan, all released together from
/// a start line, timed from the first thread leaving it to the last thread
/// finishing its operations. Thread creation is outside the measured time.
///
/// The caller is responsible for providing plans that terminate (balanced
/// producers/consumers, matching enter/exit pairs, …).
///
/// # Panics
///
/// Panics when a call fails — saturation plans are trusted test fixtures, so a
/// [`crate::CallError`] here is a harness bug. The load generator in
/// `expresso-loadgen` handles call errors gracefully instead.
pub fn run_saturation(runtime: &dyn MonitorRuntime, plans: &[ThreadPlan]) -> SaturationResult {
    let operations: usize = plans.iter().map(|p| p.len()).sum();
    let start_line = &StartLine::new(plans.len());
    let spans: Vec<(Instant, Instant)> = std::thread::scope(|scope| {
        let threads: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(index, plan)| {
                scope.spawn(move || {
                    start_line.wait(index);
                    let started = Instant::now();
                    for op in plan {
                        runtime
                            .call(&op.method, &op.locals)
                            .unwrap_or_else(|e| panic!("saturation plan failed: {e}"));
                    }
                    (started, Instant::now())
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let first_start = spans.iter().map(|(started, _)| *started).min();
    let last_end = spans.iter().map(|(_, ended)| *ended).max();
    SaturationResult {
        elapsed: first_start
            .zip(last_end)
            .map_or(Duration::ZERO, |(start, end)| end - start),
        operations,
        wakeups: runtime.wakeups(),
        predicate_evaluations: runtime.predicate_evaluations(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExplicitRuntime;
    use expresso_core::Expresso;
    use expresso_monitor_lang::parse_monitor;

    #[test]
    fn the_start_line_opens_for_any_number_of_threads() {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        // One thread, a CPU for each, and more threads than CPUs (where only
        // the barrier is waited for).
        for threads in [1, 2, cpus, cpus + 3] {
            let line = &StartLine::new(threads);
            assert_eq!(line.check_running, threads <= cpus);
            let left = &AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for index in 0..threads {
                    scope.spawn(move || {
                        line.wait(index);
                        left.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(left.load(Ordering::Relaxed), threads);
        }
    }

    #[test]
    fn an_empty_saturation_run_takes_no_time() {
        let explicit = Expresso::new()
            .analyze(&parse_monitor("monitor M { int x = 0; atomic void f() { x++; } }").unwrap())
            .unwrap()
            .explicit;
        let rt = ExplicitRuntime::new(explicit, &Valuation::new()).unwrap();
        let result = run_saturation(&rt, &[]);
        assert_eq!(result.operations, 0);
        assert_eq!(result.elapsed, Duration::ZERO);
    }

    #[test]
    fn saturation_counts_operations_and_finishes() {
        let monitor = parse_monitor(
            r#"
            monitor Counter {
                int count = 0;
                atomic void release() { count++; }
                atomic void acquire() { waituntil (count > 0) { count--; } }
            }
            "#,
        )
        .unwrap();
        let explicit = Expresso::new().analyze(&monitor).unwrap().explicit;
        let rt = ExplicitRuntime::new(explicit, &Valuation::new()).unwrap();
        let producer: ThreadPlan = (0..100).map(|_| Operation::new("release")).collect();
        let consumer: ThreadPlan = (0..100).map(|_| Operation::new("acquire")).collect();
        let result = run_saturation(
            &rt,
            &[producer.clone(), consumer, producer.clone(), {
                (0..100).map(|_| Operation::new("acquire")).collect()
            }],
        );
        assert_eq!(result.operations, 400);
        assert!(result.time_per_op() > Duration::ZERO);
        assert!(result.micros_per_op() > 0.0);
        assert_eq!(rt.snapshot().int("count"), Some(0));
    }
}
