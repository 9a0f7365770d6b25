//! A load generator that drives the synthesized monitors the way a service
//! would: millions of short logical *client sessions* multiplexed onto a
//! handful of OS worker threads.
//!
//! Every [`expresso_suite::Benchmark`] carries a
//! [`SessionScript`] — a deterministic,
//! self-balanced slice of monitor calls (put one item and take it back, draw
//! a ticket and write, …). The driver stripes sessions over workers
//! (`worker = session % workers`), generates each session lazily from its
//! seed when its worker reaches it, and folds latencies into per-worker
//! [`Histogram`]s, so memory stays constant no matter how many sessions a run
//! asks for.
//!
//! Two load models:
//!
//! * **closed loop** (`pacing_nanos == 0`) — each worker issues its sessions
//!   back-to-back; the histogram holds *per-operation* service latency.
//! * **open loop** (`pacing_nanos > 0`) — sessions arrive on a fixed global
//!   schedule (one every `pacing_nanos`); the histogram holds *per-session*
//!   response time measured from the scheduled arrival, so queueing delay of
//!   a worker that falls behind is charged to latency instead of silently
//!   slowing the arrival rate (no coordinated omission).
//!
//! The same run can be pointed at the implicit-signal AutoSynch engine or at
//! the Expresso-generated explicit engine in either [`SignalMode`], which is
//! how the saturation comparison in `reproduce json` is produced.

pub mod hist;

pub use hist::Histogram;

use expresso_monitor_lang::ExplicitMonitor;
use expresso_runtime::{
    AutoSynchRuntime, ExplicitRuntime, MonitorRuntime, RuntimeBuildError, SignalMode,
};
use expresso_suite::{Benchmark, SessionScript, SessionSpec};
use std::time::{Duration, Instant};

/// Which engine a load run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The AutoSynch-style implicit-signal runtime (per-waiter predicate
    /// evaluation after every CCR).
    Implicit,
    /// The Expresso-generated explicit runtime executing its notifications
    /// verbatim ([`SignalMode::Static`]).
    ExplicitStatic,
    /// The explicit runtime with the targeted-wakeup fast path
    /// ([`SignalMode::Targeted`]).
    ExplicitTargeted,
}

impl EngineKind {
    /// All engines in comparison order.
    pub fn all() -> [EngineKind; 3] {
        [
            EngineKind::Implicit,
            EngineKind::ExplicitStatic,
            EngineKind::ExplicitTargeted,
        ]
    }

    /// Stable label used in reports and JSON keys.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Implicit => "implicit",
            EngineKind::ExplicitStatic => "explicit_static",
            EngineKind::ExplicitTargeted => "explicit_targeted",
        }
    }

    /// Parses a label as accepted by the CLI (`implicit`, `static`,
    /// `targeted`, or the full report labels).
    pub fn parse(text: &str) -> Option<EngineKind> {
        match text {
            "implicit" | "autosynch" => Some(EngineKind::Implicit),
            "static" | "explicit_static" => Some(EngineKind::ExplicitStatic),
            "targeted" | "explicit_targeted" => Some(EngineKind::ExplicitTargeted),
            _ => None,
        }
    }
}

/// Shape of one load run.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// OS worker threads (and the `threads` value passed to the benchmark's
    /// constructor builder). Must be at least 1.
    pub workers: usize,
    /// Logical client sessions. Rounded **up** to a multiple of `workers` —
    /// identity-based benchmarks (round-robin turns) need every worker to run
    /// the same number of sessions.
    pub sessions: u64,
    /// Rounds of the script's base pattern per session.
    pub rounds: usize,
    /// Workload seed (sessions derive their own streams from it).
    pub seed: u64,
    /// Open-loop inter-arrival gap in nanoseconds; `0` selects the closed
    /// loop.
    pub pacing_nanos: u64,
}

impl LoadConfig {
    /// A closed-loop configuration.
    pub fn closed_loop(workers: usize, sessions: u64, rounds: usize, seed: u64) -> Self {
        LoadConfig {
            workers,
            sessions,
            rounds,
            seed,
            pacing_nanos: 0,
        }
    }

    /// The session count the driver actually runs: `sessions` rounded up to a
    /// multiple of `workers` (minimum one full stripe).
    pub fn effective_sessions(&self) -> u64 {
        let w = self.workers.max(1) as u64;
        self.sessions.max(1).div_ceil(w) * w
    }
}

/// The outcome of one load run against one engine.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Engine the run drove.
    pub engine: EngineKind,
    /// Worker threads used.
    pub workers: usize,
    /// Sessions executed (after rounding up to a worker multiple).
    pub sessions: u64,
    /// Monitor operations completed successfully.
    pub operations: u64,
    /// Calls that returned a [`expresso_runtime::CallError`] (counted, not
    /// fatal — a load generator keeps going when a request fails).
    pub call_errors: u64,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Merged latency histogram — per-operation latency in the closed loop,
    /// per-session response time in the open loop.
    pub latency: Histogram,
    /// Wakeups observed by the engine over the run.
    pub wakeups: usize,
    /// Run-time guard-predicate evaluations performed by the engine.
    pub predicate_evaluations: usize,
    /// Wakeups the targeted mode proved unnecessary and skipped.
    pub avoided_wakeups: usize,
    /// Notifications dropped because no thread was waiting on the guard.
    pub elided_notifications: usize,
}

impl LoadReport {
    /// Completed operations per wall-clock second.
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.operations as f64 / secs
        }
    }

    /// Adapt into a metric group for [`expresso_obs::MetricsRegistry`],
    /// including the latency quantile table (microsecond gauges) that used
    /// to be reachable only through the raw [`Histogram`].
    pub fn metrics(&self) -> Vec<expresso_obs::Metric> {
        use expresso_obs::Metric;
        let us = |nanos: f64| nanos / 1e3;
        vec![
            Metric::counter("workers", self.workers as u64),
            Metric::counter("sessions", self.sessions),
            Metric::counter("operations", self.operations),
            Metric::counter("call_errors", self.call_errors),
            Metric::counter("wakeups", self.wakeups as u64),
            Metric::counter("predicate_evaluations", self.predicate_evaluations as u64),
            Metric::counter("avoided_wakeups", self.avoided_wakeups as u64),
            Metric::counter("elided_notifications", self.elided_notifications as u64),
            Metric::gauge("elapsed_ms", self.elapsed.as_secs_f64() * 1e3),
            Metric::gauge("ops_per_sec", self.ops_per_sec()),
            Metric::gauge("latency_mean_us", us(self.latency.mean())),
            Metric::gauge("latency_p50_us", us(self.latency.p50() as f64)),
            Metric::gauge("latency_p90_us", us(self.latency.quantile(0.90) as f64)),
            Metric::gauge("latency_p99_us", us(self.latency.p99() as f64)),
            Metric::gauge("latency_p999_us", us(self.latency.p999() as f64)),
            Metric::gauge("latency_max_us", us(self.latency.max() as f64)),
        ]
    }
}

/// A [`expresso_obs::MetricsRegistry`] with one `loadgen.<benchmark>.<engine>`
/// group per completed report — the snapshot surface the CLI and harnesses
/// read quantiles through.
pub fn metrics_registry(
    reports: impl IntoIterator<Item = (String, LoadReport)>,
) -> expresso_obs::MetricsRegistry {
    let registry = expresso_obs::MetricsRegistry::new();
    for (benchmark, report) in reports {
        let group = format!("loadgen.{benchmark}.{}", report.engine.label());
        registry.register(group, move || report.metrics());
    }
    registry
}

/// Builds the runtime a load run drives: the benchmark's constructor is
/// instantiated with `threads = workers` so identity-based session scripts
/// line up with the driver's striping.
///
/// # Errors
///
/// Returns [`RuntimeBuildError`] when the monitor is ill-formed or the
/// constructor arguments are incomplete.
pub fn build_engine(
    kind: EngineKind,
    benchmark: &Benchmark,
    explicit: &ExplicitMonitor,
    workers: usize,
) -> Result<Box<dyn MonitorRuntime>, RuntimeBuildError> {
    let ctor = (benchmark.ctor_args)(workers);
    Ok(match kind {
        EngineKind::Implicit => Box::new(AutoSynchRuntime::new(benchmark.monitor(), &ctor)?),
        EngineKind::ExplicitStatic => Box::new(ExplicitRuntime::with_mode(
            explicit.clone(),
            &ctor,
            SignalMode::Static,
        )?),
        EngineKind::ExplicitTargeted => Box::new(ExplicitRuntime::with_mode(
            explicit.clone(),
            &ctor,
            SignalMode::Targeted,
        )?),
    })
}

/// What one worker thread accumulated over its session stripe.
struct WorkerTally {
    latency: Histogram,
    operations: u64,
    call_errors: u64,
}

/// Runs `script` sessions against `runtime` on `config.workers` threads.
///
/// Each worker executes its stripe of sessions in increasing session order,
/// which is the termination contract the suite's session scripts are written
/// against (see [`expresso_suite::loadmix`]). Counters in the report are the
/// runtime's totals at the end of the run, so callers should pass a freshly
/// built runtime.
pub fn run_load(
    runtime: &dyn MonitorRuntime,
    engine: EngineKind,
    script: SessionScript,
    config: &LoadConfig,
) -> LoadReport {
    let workers = config.workers.max(1);
    let sessions = config.effective_sessions();
    let mut tallies: Vec<WorkerTally> = (0..workers)
        .map(|_| WorkerTally {
            latency: Histogram::new(),
            operations: 0,
            call_errors: 0,
        })
        .collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (worker, tally) in tallies.iter_mut().enumerate() {
            let config = *config;
            scope.spawn(move || {
                run_worker(runtime, script, &config, worker, workers, sessions, tally);
            });
        }
    });
    let elapsed = start.elapsed();
    let mut latency = Histogram::new();
    let mut operations = 0u64;
    let mut call_errors = 0u64;
    for tally in &tallies {
        latency.merge(&tally.latency);
        operations += tally.operations;
        call_errors += tally.call_errors;
    }
    LoadReport {
        engine,
        workers,
        sessions,
        operations,
        call_errors,
        elapsed,
        latency,
        wakeups: runtime.wakeups(),
        predicate_evaluations: runtime.predicate_evaluations(),
        avoided_wakeups: runtime.avoided_wakeups(),
        elided_notifications: runtime.elided_notifications(),
    }
}

/// One worker's loop: lazily generate and execute every session of its
/// stripe, recording latencies locally (no sharing on the hot path).
fn run_worker(
    runtime: &dyn MonitorRuntime,
    script: SessionScript,
    config: &LoadConfig,
    worker: usize,
    workers: usize,
    sessions: u64,
    tally: &mut WorkerTally,
) {
    let _span = expresso_obs::span!("loadgen.worker", "worker {worker}/{workers}");
    let run_start = Instant::now();
    let mut session = worker as u64;
    while session < sessions {
        let spec = SessionSpec {
            worker,
            workers,
            session,
            sessions,
            rounds: config.rounds.max(1),
            seed: config.seed,
        };
        let ops = script(&spec);
        if config.pacing_nanos == 0 {
            for op in &ops {
                let issued = Instant::now();
                match runtime.call(&op.method, &op.locals) {
                    Ok(()) => tally.operations += 1,
                    Err(_) => tally.call_errors += 1,
                }
                tally.latency.record(saturating_nanos(issued.elapsed()));
            }
        } else {
            let arrival =
                run_start + Duration::from_nanos(config.pacing_nanos.saturating_mul(session));
            let now = Instant::now();
            if arrival > now {
                std::thread::sleep(arrival - now);
            }
            for op in &ops {
                match runtime.call(&op.method, &op.locals) {
                    Ok(()) => tally.operations += 1,
                    Err(_) => tally.call_errors += 1,
                }
            }
            tally.latency.record(saturating_nanos(arrival.elapsed()));
        }
        session += workers as u64;
    }
}

fn saturating_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Convenience wrapper: builds the engine for `benchmark` and runs the
/// benchmark's session script under `config`.
///
/// # Panics
///
/// Panics when the runtime cannot be built — the suite monitors are all
/// well-formed, so that is a harness bug.
pub fn measure(
    benchmark: &Benchmark,
    explicit: &ExplicitMonitor,
    kind: EngineKind,
    config: &LoadConfig,
) -> LoadReport {
    let runtime = build_engine(kind, benchmark, explicit, config.workers.max(1))
        .unwrap_or_else(|e| panic!("{}: building {} engine: {e}", benchmark.name, kind.label()));
    run_load(runtime.as_ref(), kind, benchmark.session_script, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use expresso_core::Expresso;
    use expresso_suite::benchmarks::all;

    fn analyzed(benchmark: &Benchmark) -> ExplicitMonitor {
        Expresso::new()
            .analyze(&benchmark.monitor())
            .unwrap_or_else(|e| panic!("{}: {e}", benchmark.name))
            .explicit
    }

    #[test]
    fn closed_loop_counts_every_operation() {
        let b = all()
            .into_iter()
            .find(|b| b.name == "BoundedBuffer")
            .unwrap();
        let explicit = analyzed(&b);
        let config = LoadConfig::closed_loop(3, 10, 2, 42);
        let report = measure(&b, &explicit, EngineKind::ExplicitTargeted, &config);
        // 10 sessions round up to 12; each runs 2 rounds of put+take.
        assert_eq!(report.sessions, 12);
        assert_eq!(report.operations, 12 * 2 * 2);
        assert_eq!(report.call_errors, 0);
        assert_eq!(report.latency.count(), report.operations);
        assert!(report.ops_per_sec() > 0.0);
    }

    #[test]
    fn open_loop_records_one_sample_per_session() {
        let b = all()
            .into_iter()
            .find(|b| b.name == "ReadersWriters")
            .unwrap();
        let explicit = analyzed(&b);
        let config = LoadConfig {
            workers: 2,
            sessions: 8,
            rounds: 1,
            seed: 7,
            pacing_nanos: 50_000,
        };
        let report = measure(&b, &explicit, EngineKind::ExplicitStatic, &config);
        assert_eq!(report.latency.count(), report.sessions);
        assert_eq!(report.call_errors, 0);
        // The last session arrives no earlier than its schedule slot.
        assert!(report.elapsed >= Duration::from_nanos(7 * 50_000));
    }

    #[test]
    fn every_benchmark_completes_under_every_engine() {
        // The integration guarantee behind `reproduce json`: all 16 session
        // scripts terminate on all three engines under the striping contract.
        for b in all() {
            let explicit = analyzed(&b);
            for kind in EngineKind::all() {
                let config = LoadConfig::closed_loop(2, 4, 1, 42);
                let report = measure(&b, &explicit, kind, &config);
                assert_eq!(report.call_errors, 0, "{} under {}", b.name, kind.label());
                assert!(report.operations > 0, "{} under {}", b.name, kind.label());
            }
        }
    }

    #[test]
    fn reports_surface_the_targeted_mode_counters() {
        let b = all()
            .into_iter()
            .find(|b| b.name == "BoundedBuffer")
            .unwrap();
        let explicit = analyzed(&b);
        let config = LoadConfig::closed_loop(4, 64, 2, 42);
        let implicit = measure(&b, &explicit, EngineKind::Implicit, &config);
        let targeted = measure(&b, &explicit, EngineKind::ExplicitTargeted, &config);
        // A balanced buffer run mostly finds nobody waiting: the targeted
        // engine must elide those notifications entirely.
        assert!(targeted.elided_notifications > 0);
        assert_eq!(implicit.avoided_wakeups, 0);
        assert_eq!(implicit.elided_notifications, 0);
    }
}
