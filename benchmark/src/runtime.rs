//! `runtime_saturation` and `runtime_sessions`: the 16 suite monitors run
//! under load on the three engines. The operation is one monitor call.
//!
//! Saturation (paper Fig. 8/9) gives every thread one role — producer or
//! consumer, reader or writer — so threads block on each other and the wake
//! path sets the time. Sessions are self-balanced (put one item, take it
//! back), so almost nobody ever waits and the time is lock, interpreter and
//! notification cost with no one to notify. Both are closed loops: a caller
//! issues its next call when the previous one returns.

use crate::affinity;
use crate::harness::{self, Opts, Watchdog, WATCHDOG_LIMIT};
use crate::metrics::Report;
use crate::stats;
use expresso_repro::core::Expresso;
use expresso_repro::loadgen::{build_engine, run_load, EngineKind, LoadConfig};
use expresso_repro::logic::{Lcg, Valuation};
use expresso_repro::monitor_lang::ExplicitMonitor;
use expresso_repro::obs;
use expresso_repro::runtime::{run_saturation, CallError, MonitorRuntime, ThreadPlan};
use expresso_repro::suite::{self, Benchmark};
use std::cell::Cell as ThreadCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Calls per thread of one saturation cell.
pub const SATURATION_OPS_PER_THREAD: usize = 2500;
/// Sessions of one session cell (one round each).
pub const SESSIONS_PER_CELL: u64 = 5000;
/// Sessions of the no-op run that measures the load generator's own cost.
const OVERHEAD_SESSIONS: u64 = 100_000;

/// How the monitors are loaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Saturation,
    Sessions,
}

impl Mode {
    fn workload(self) -> &'static str {
        match self {
            Mode::Saturation => "runtime_saturation",
            Mode::Sessions => "runtime_sessions",
        }
    }
}

/// Short engine labels used in metric names.
fn engine_label(kind: EngineKind) -> &'static str {
    match kind {
        EngineKind::Implicit => "implicit",
        EngineKind::ExplicitStatic => "static",
        EngineKind::ExplicitTargeted => "targeted",
    }
}

/// What one cell — one monitor on one engine, once — measured.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    ops_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    wakeups_per_kop: f64,
    evals_per_kop: f64,
    avoided_per_kop: f64,
    elided_per_kop: f64,
    build_us: f64,
    sessions_per_s: f64,
}

/// A cell's raw outcome, before it is turned into rates.
struct CellRun {
    seconds: f64,
    operations: u64,
    errors: u64,
    sessions: u64,
    /// (p50, p99, p99.9) of the per-call latency, nanoseconds.
    latency_ns: (f64, f64, f64),
    build_us: f64,
    wakeups: usize,
    evals: usize,
    avoided: usize,
    elided: usize,
    /// Final scalar monitor state, for the cross-engine comparison.
    state: BTreeMap<String, i64>,
}

fn scalar_state(snapshot: &Valuation) -> BTreeMap<String, i64> {
    let ints = snapshot.ints().map(|(k, v)| (k.to_string(), *v));
    let bools = snapshot
        .bools()
        .map(|(k, v)| (k.to_string(), i64::from(*v)));
    ints.chain(bools).collect()
}

/// A runtime seen through a wrapper that gives every thread calling it a CPU
/// of its own: the first call a thread makes takes the next of `cpus` (round
/// robin when there are more callers than CPUs) and pins the thread there.
/// `run_saturation` and `run_load` start their own threads, so this is the
/// one place the benchmark can reach them; `affinity` says why it must.
struct OneCpuPerCaller<'a> {
    inner: &'a dyn MonitorRuntime,
    cpus: &'a [usize],
    /// Distinguishes this cell from the one a long-lived thread (the main
    /// thread helps `run_load`'s pool) was last pinned for.
    id: u64,
    callers: AtomicUsize,
}

static NEXT_WRAPPER: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The wrapper this thread last took a CPU from; 0 for none.
    static PINNED_FOR: ThreadCell<u64> = const { ThreadCell::new(0) };
}

impl<'a> OneCpuPerCaller<'a> {
    fn new(inner: &'a dyn MonitorRuntime, cpus: &'a [usize]) -> Self {
        OneCpuPerCaller {
            inner,
            cpus,
            // Relaxed: the counters only hand out distinct numbers.
            id: NEXT_WRAPPER.fetch_add(1, Ordering::Relaxed),
            callers: AtomicUsize::new(0),
        }
    }
}

impl MonitorRuntime for OneCpuPerCaller<'_> {
    fn call(&self, method: &str, locals: &Valuation) -> Result<(), CallError> {
        if PINNED_FOR.get() != self.id {
            PINNED_FOR.set(self.id);
            let caller = self.callers.fetch_add(1, Ordering::Relaxed);
            if !self.cpus.is_empty() {
                affinity::pin_this_thread(self.cpus[caller % self.cpus.len()]);
            }
        }
        self.inner.call(method, locals)
    }
    fn snapshot(&self) -> Valuation {
        self.inner.snapshot()
    }
    fn wakeups(&self) -> usize {
        self.inner.wakeups()
    }
    fn predicate_evaluations(&self) -> usize {
        self.inner.predicate_evaluations()
    }
    fn avoided_wakeups(&self) -> usize {
        self.inner.avoided_wakeups()
    }
    fn elided_notifications(&self) -> usize {
        self.inner.elided_notifications()
    }
}

/// One suite monitor and what the engines need to run it, built in set-up.
struct Subject {
    benchmark: Benchmark,
    explicit: ExplicitMonitor,
    /// The role-split plans of a saturation cell; empty for sessions.
    plans: Vec<ThreadPlan>,
}

/// Builds a fresh engine and runs one cell on it, under the watchdog.
fn run_cell(
    mode: Mode,
    subject: &Subject,
    kind: EngineKind,
    threads: usize,
    cpus: &[usize],
    seed: u64,
) -> Result<CellRun, String> {
    let Subject {
        benchmark,
        explicit,
        plans,
    } = subject;
    let (built, build_s) = harness::timed(|| {
        let _span = obs::span!("bench.runtime.build");
        build_engine(kind, benchmark, explicit, threads)
    });
    let runtime = built.map_err(|e| format!("cannot build the engine: {e}"))?;
    let runtime = &OneCpuPerCaller::new(runtime.as_ref(), cpus);
    let config = LoadConfig::closed_loop(threads, SESSIONS_PER_CELL, 1, seed);
    let expected_ops = match mode {
        Mode::Saturation => plans.iter().map(|p| p.len() as u64).sum(),
        Mode::Sessions => config.effective_sessions(),
    };
    let label = format!(
        "{} on {} ({})",
        benchmark.name,
        kind.label(),
        mode.workload()
    );
    let _dog = Watchdog::arm(label, expected_ops, WATCHDOG_LIMIT);
    let (seconds, operations, errors, sessions, latency_ns) = match mode {
        Mode::Saturation => {
            // Panics on a `CallError`: the process then exits nonzero, and
            // whoever started it counts the run as failed.
            let done = {
                let _span = obs::span!("bench.runtime.saturate");
                run_saturation(runtime, plans)
            };
            (
                done.elapsed.as_secs_f64(),
                done.operations as u64,
                0,
                0,
                (0.0, 0.0, 0.0),
            )
        }
        Mode::Sessions => {
            let load = {
                let _span = obs::span!("bench.loadgen.run_load");
                run_load(runtime, kind, benchmark.session_script, &config)
            };
            let quantiles = (
                load.latency.p50() as f64,
                load.latency.p99() as f64,
                load.latency.p999() as f64,
            );
            (
                load.elapsed.as_secs_f64(),
                load.operations,
                load.call_errors,
                load.sessions,
                quantiles,
            )
        }
    };
    Ok(CellRun {
        seconds,
        operations,
        errors,
        sessions,
        latency_ns,
        build_us: build_s * 1e6,
        wakeups: runtime.wakeups(),
        evals: runtime.predicate_evaluations(),
        avoided: runtime.avoided_wakeups(),
        elided: runtime.elided_notifications(),
        state: scalar_state(&runtime.snapshot()),
    })
}

impl CellRun {
    fn rates(&self) -> Cell {
        let per_s = |n: u64| stats::ratio(n as f64, self.seconds);
        let per_kop = |n: usize| stats::ratio(n as f64 * 1e3, self.operations as f64);
        Cell {
            ops_per_s: per_s(self.operations),
            p50_us: self.latency_ns.0 / 1e3,
            p99_us: self.latency_ns.1 / 1e3,
            p999_us: self.latency_ns.2 / 1e3,
            wakeups_per_kop: per_kop(self.wakeups),
            evals_per_kop: per_kop(self.evals),
            avoided_per_kop: per_kop(self.avoided),
            elided_per_kop: per_kop(self.elided),
            build_us: self.build_us,
            sessions_per_s: per_s(self.sessions),
        }
    }
}

/// A runtime on which every call returns at once: what is left is the load
/// generator's own loop.
struct NoopRuntime;

impl MonitorRuntime for NoopRuntime {
    fn call(&self, _method: &str, _locals: &Valuation) -> Result<(), CallError> {
        Ok(())
    }
    fn snapshot(&self) -> Valuation {
        Valuation::new()
    }
    fn wakeups(&self) -> usize {
        0
    }
    fn predicate_evaluations(&self) -> usize {
        0
    }
}

/// Nanoseconds the session driver spends per call when the call is free.
fn loadgen_overhead_ns(threads: usize, cpus: &[usize], seed: u64) -> f64 {
    let benchmark = &suite::all()[0];
    let config = LoadConfig::closed_loop(threads, OVERHEAD_SESSIONS, 1, seed);
    let load = run_load(
        &OneCpuPerCaller::new(&NoopRuntime, cpus),
        EngineKind::Implicit,
        benchmark.session_script,
        &config,
    );
    stats::ratio(load.elapsed.as_secs_f64() * 1e9, load.operations as f64)
}

type CellKey = (&'static str, &'static str);

pub fn runtime(mode: Mode, opts: &Opts) -> Report {
    let mut report = Report::default();
    let threads = harness::load_threads();
    // Read before any cell runs: the main thread helps `run_load`'s pool and
    // is itself pinned from then on.
    let cpus = affinity::allowed_cpus();

    // Set-up: the explicit monitors the engines execute and the plans the
    // saturation threads follow.
    let (subjects, setup_s) = harness::timed_setup(|| {
        suite::all()
            .into_iter()
            .map(|benchmark| {
                let name = benchmark.name;
                let explicit = Expresso::new()
                    .analyze(&benchmark.monitor())
                    .unwrap_or_else(|e| panic!("set-up: {name} failed analysis: {e}"))
                    .explicit;
                let plans = match mode {
                    Mode::Saturation => (benchmark.plans)(threads, SATURATION_OPS_PER_THREAD),
                    Mode::Sessions => Vec::new(),
                };
                let subject = Subject {
                    benchmark,
                    explicit,
                    plans,
                };
                (name, subject)
            })
            .collect::<BTreeMap<_, _>>()
    });
    report.set("setup_s", setup_s);

    let mut rng = Lcg::new(opts.seed);
    let mut samples: BTreeMap<CellKey, Vec<Cell>> = BTreeMap::new();
    let mut repetition = |report: &mut Report, keep: bool| -> f64 {
        let mut seconds = 0.0;
        let mut names: Vec<&'static str> = subjects.keys().copied().collect();
        for i in (1..names.len()).rev() {
            names.swap(i, rng.index(i + 1));
        }
        // The three engines of a monitor run back to back, in an order that
        // rotates so none of them always goes first.
        let mut engines = EngineKind::all();
        let first = rng.index(engines.len());
        engines.rotate_left(first);
        let session_seed = rng.next();
        for name in names {
            let subject = &subjects[name];
            let mut states: Vec<(EngineKind, BTreeMap<String, i64>)> = Vec::new();
            for kind in engines {
                match run_cell(mode, subject, kind, threads, &cpus, session_seed) {
                    Ok(run) => {
                        seconds += run.seconds;
                        report.record(run.operations, Ok(()));
                        if run.errors > 0 {
                            let why = format!(
                                "{name} on {}: {} calls returned an error",
                                kind.label(),
                                run.errors
                            );
                            report.record(run.errors, Err(why));
                        }
                        if keep {
                            samples
                                .entry((name, engine_label(kind)))
                                .or_default()
                                .push(run.rates());
                        }
                        states.push((kind, run.state));
                    }
                    Err(why) => {
                        report.record(1, Err(format!("{name} on {}: {why}", kind.label())));
                    }
                }
            }
            if let Some(((first_kind, first), rest)) = states.split_first() {
                for (kind, state) in rest {
                    if state != first {
                        report.fail(
                            1,
                            format!(
                                "{name}: final state on {} is {state:?} but on {} it is {first:?}",
                                kind.label(),
                                first_kind.label()
                            ),
                        );
                    }
                }
            }
        }
        seconds
    };

    let passes = harness::measured_window(opts.window_seconds(), || repetition(&mut report, true));
    let pass_s = stats::median(&passes);
    let mut traced = None;
    if opts.trace {
        traced = Some(harness::traced_pass(mode.workload(), || {
            repetition(&mut report, false);
        }));
    }

    // Per cell: the median over repetitions. Across cells: geometric means
    // for rates and latencies, medians for the per-kop counters (many of
    // which are 0, where a geometric mean has nothing to say).
    // The tail is the exception: a cell's p99 is set by a handful of
    // preempted calls, so one repetition's value jumps; the mean over the
    // repetitions (in effect the p99 of all of them pooled) is steadier.
    let mean = |values: &[f64]| stats::ratio(values.iter().sum(), values.len() as f64);
    let per_cell = |key: &CellKey, over_reps: &dyn Fn(&[f64]) -> f64, field: fn(&Cell) -> f64| {
        let values: Vec<f64> = samples.get(key).into_iter().flatten().map(field).collect();
        over_reps(&values)
    };
    let median_of = |key: &CellKey, field: fn(&Cell) -> f64| per_cell(key, &stats::median, field);
    let cells = |engine: &str, over_reps: &dyn Fn(&[f64]) -> f64, field: fn(&Cell) -> f64| {
        samples
            .keys()
            .filter(|(_, e)| *e == engine)
            .map(|key| per_cell(key, over_reps, field))
            .collect::<Vec<f64>>()
    };
    let across = |engine: &str, field: fn(&Cell) -> f64| cells(engine, &stats::median, field);
    let tails = |engine: &str, field: fn(&Cell) -> f64| cells(engine, &mean, field);
    // The bounded rate is one quantity: the generated explicit-signal code
    // with the paper's semantics. The other two engines are reported beside
    // it, unbounded; a mean over all three would let one engine halve its
    // speed inside the bound.
    report.set(
        "ops_per_s",
        stats::geomean(&across("static", |c| c.ops_per_s)),
    );
    let (q1, q3) = stats::quartiles(&passes).unwrap_or((pass_s, pass_s));
    report.rows.push(format!(
        "threads: {threads}; repetitions: {} (median {:.4} s of cell time, quartiles {:.4}..{:.4} s); cells: {}",
        passes.len(),
        pass_s,
        q1,
        q3,
        samples.len()
    ));

    report.set(
        "ops_per_s_implicit",
        stats::geomean(&across("implicit", |c| c.ops_per_s)),
    );
    report.set(
        "ops_per_s_static",
        stats::geomean(&across("static", |c| c.ops_per_s)),
    );
    report.set(
        "ops_per_s_targeted",
        stats::geomean(&across("targeted", |c| c.ops_per_s)),
    );
    let ratios: Vec<f64> = subjects
        .keys()
        .map(|name| {
            let implicit = median_of(&(*name, "implicit"), |c| c.ops_per_s);
            let explicit = median_of(&(*name, "static"), |c| c.ops_per_s);
            stats::ratio(explicit, implicit)
        })
        .collect();
    report.set("speedup_vs_autosynch", stats::geomean(&ratios));
    report.set(
        "call_p50_us",
        stats::geomean(&across("static", |c| c.p50_us)),
    );
    report.set(
        "call_p99_us",
        stats::geomean(&tails("static", |c| c.p99_us)),
    );
    report.rows.push(format!(
        "speedup_vs_autosynch is the geometric mean of static / implicit calls per second over {} monitors; the paper reports 1.56",
        ratios.len()
    ));

    report.rows.push(format!(
        "{:<28} {:>14} {:>14} {:>14}   calls/s, median over repetitions",
        "monitor", "implicit", "static", "targeted"
    ));
    for name in subjects.keys() {
        let rate = |engine| median_of(&(*name, engine), |c| c.ops_per_s);
        report.rows.push(format!(
            "{:<28} {:>14.0} {:>14.0} {:>14.0}",
            name,
            rate("implicit"),
            rate("static"),
            rate("targeted")
        ));
    }

    if let Some(traced) = traced {
        harness::report_trace(&mut report, &traced, pass_s);
        let per_engine =
            |engine: &str, field: fn(&Cell) -> f64| stats::median(&across(engine, field));
        macro_rules! engine_metrics {
            ($engine:literal) => {
                report.set(
                    concat!("runtime.", $engine, ".wakeups_per_kop"),
                    per_engine($engine, |c| c.wakeups_per_kop),
                );
                report.set(
                    concat!("runtime.", $engine, ".predicate_evals_per_kop"),
                    per_engine($engine, |c| c.evals_per_kop),
                );
                report.set(
                    concat!("runtime.", $engine, ".call_p50_us"),
                    stats::geomean(&across($engine, |c| c.p50_us)),
                );
                report.set(
                    concat!("runtime.", $engine, ".call_p99_us"),
                    stats::geomean(&tails($engine, |c| c.p99_us)),
                );
                report.set(
                    concat!("runtime.", $engine, ".call_p999_us"),
                    stats::geomean(&tails($engine, |c| c.p999_us)),
                );
                report.set(
                    concat!("runtime.", $engine, ".build_us"),
                    per_engine($engine, |c| c.build_us),
                );
            };
        }
        engine_metrics!("implicit");
        engine_metrics!("static");
        engine_metrics!("targeted");
        report.set(
            "runtime.targeted.avoided_per_kop",
            per_engine("targeted", |c| c.avoided_per_kop),
        );
        report.set(
            "runtime.targeted.elided_per_kop",
            per_engine("targeted", |c| c.elided_per_kop),
        );
        if mode == Mode::Sessions {
            report.set(
                "loadgen.sessions_per_s",
                stats::geomean(&across("static", |c| c.sessions_per_s)),
            );
        }
        report.set(
            "loadgen.overhead_ns_per_op",
            loadgen_overhead_ns(threads, &cpus, opts.seed),
        );
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_caller_gets_a_cpu_of_its_own_per_wrapper() {
        let cpus = affinity::allowed_cpus();
        if cpus.len() < 2 {
            return;
        }
        let landed = |wrapper: &OneCpuPerCaller<'_>| {
            wrapper.call("m", &Valuation::new()).unwrap();
            affinity::allowed_cpus()
        };
        let first = OneCpuPerCaller::new(&NoopRuntime, &cpus);
        let second = OneCpuPerCaller::new(&NoopRuntime, &cpus);
        std::thread::scope(|scope| {
            let a = scope.spawn(|| (landed(&first), landed(&first)));
            let (a_first, a_again) = a.join().unwrap();
            // A second thread takes the next CPU; a thread that comes back
            // keeps the one it has.
            let b = scope.spawn(|| (landed(&first), landed(&second)));
            let (b_first, b_second) = b.join().unwrap();
            assert_eq!(a_first, [cpus[0]]);
            assert_eq!(a_again, [cpus[0]]);
            assert_eq!(b_first, [cpus[1]]);
            // A new cell starts handing out CPUs from the first again.
            assert_eq!(b_second, [cpus[0]]);
        });
    }

    #[test]
    fn the_noop_runtime_measures_only_the_driver() {
        let ns = loadgen_overhead_ns(2, &affinity::allowed_cpus(), 1);
        assert!(ns > 0.0 && ns < 1e6, "{ns} ns per call");
    }
}
