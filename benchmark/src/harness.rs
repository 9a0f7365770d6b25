//! What every workload shares: options, set-up timing, the measured window,
//! the traced pass, the watchdog and the process's peak memory.

use crate::metrics::Report;
use crate::selftime::{self, SpanTotals, LAYERS, PASS_SPAN};
use crate::stats;
use expresso_repro::core::{Scheduler, SchedulerStats};
use expresso_repro::logic::Lcg;
use expresso_repro::obs;
use expresso_repro::suite::{self, Benchmark};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The options of one run of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    /// Length of the measured window. A traced run measures for half of it
    /// with tracing off and then runs one traced pass.
    pub seconds: f64,
    pub trace: bool,
}

impl Opts {
    /// Seconds the untraced window stays open.
    pub fn window_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Where the benchmark writes: traces and the scratch analysis cache. Inside
/// the package directory, hence inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// CPUs this process may run on; every number that involves threads depends
/// on it, so every run prints it.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Threads every load-generating workload uses: the machine's cores, but at
/// least the two a monitor needs to block on and at most four.
pub fn load_threads() -> usize {
    cpus().clamp(2, 4)
}

/// Set-ups shorter than this are run three times and the median reported,
/// because the first one also pays the process's cold start; longer ones are
/// long enough to be steady on their own.
const SHORT_SETUP_SECONDS: f64 = 1.0;

/// Runs `setup`, returns what it built and the set-up time in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut run = || timed(&mut setup);
    let (mut built, first) = run();
    if first >= SHORT_SETUP_SECONDS {
        return (built, first);
    }
    let mut times = vec![first];
    for _ in 0..2 {
        let (again, seconds) = run();
        built = again;
        times.push(seconds);
    }
    (built, stats::median(&times))
}

/// Runs `work` and returns its result and how long it took, in seconds.
pub fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let done = work();
    (done, start.elapsed().as_secs_f64())
}

/// Calls `pass` until `seconds` have gone by (at least twice, so a median
/// exists). A pass returns the seconds its measured work took — it checks
/// its outputs outside that time — and the durations are returned.
pub fn measured_window(seconds: f64, mut pass: impl FnMut() -> f64) -> Vec<f64> {
    let window = Instant::now();
    let mut durations = Vec::new();
    while durations.len() < 2 || window.elapsed().as_secs_f64() < seconds {
        durations.push(pass());
    }
    durations
}

/// The random stream of the traced pass. It is separate from the measured
/// window's stream because the window runs for a time, not a count: were the
/// traced pass to continue that stream, which monitor it edits — and with it
/// every counter it reports — would depend on how fast the machine was.
pub fn traced_rng(opts: &Opts) -> Lcg {
    Lcg::new(opts.seed ^ 0x7472_6163_6564)
}

/// The suite in a seeded order (Fisher–Yates over the suite's own order).
pub fn shuffled_suite(rng: &mut Lcg) -> Vec<Benchmark> {
    let mut suite = suite::all();
    for i in (1..suite.len()).rev() {
        suite.swap(i, rng.index(i + 1));
    }
    suite
}

/// Runs `pass` and returns the process-wide analysis pool's counters over it.
pub fn pool_delta(pass: impl FnOnce()) -> SchedulerStats {
    let before = Scheduler::global().stats();
    pass();
    Scheduler::global().stats().delta_since(&before)
}

/// Reports the scheduler's counters over one pass.
pub fn report_pool(report: &mut Report, pool: &SchedulerStats) {
    report.set("core.sched_tasks_executed", pool.tasks_executed as f64);
    report.set("core.sched_steals", pool.steals as f64);
    report.set("core.sched_workers", pool.workers as f64);
    // Share of the tasks that pool workers ran; the rest ran on the thread
    // that was waiting for them.
    report.set(
        "core.sched_worker_utilization",
        pool.worker_utilization().iter().sum(),
    );
}

/// What one traced pass recorded.
pub struct Traced {
    /// Wall time of the pass, seconds.
    pub wall_s: f64,
    /// Self and inclusive time per span name.
    pub totals: BTreeMap<&'static str, SpanTotals>,
    /// Spans and instants recorded.
    pub records: usize,
    /// Share of the pass's wall time covered by spans other than the pass
    /// span itself, all threads projected onto the pass.
    pub coverage: f64,
}

impl Traced {
    /// Inclusive milliseconds of every occurrence of span `name`.
    pub fn inclusive_ms(&self, name: &str) -> f64 {
        self.totals
            .get(name)
            .map_or(0.0, |t| t.inclusive_ns as f64 / 1e6)
    }

    /// Self milliseconds of every occurrence of span `name`.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.totals
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / 1e6)
    }
}

/// Runs `pass` once with span recording on, inside a [`PASS_SPAN`] span,
/// drains the recorder and writes `out/trace-<workload>.json`.
pub fn traced_pass(workload: &str, pass: impl FnOnce()) -> Traced {
    obs::drain();
    obs::set_enabled(true);
    let start = Instant::now();
    {
        let _span = obs::span!(PASS_SPAN);
        pass();
    }
    let wall_s = start.elapsed().as_secs_f64();
    obs::set_enabled(false);
    let traces = obs::drain();
    let dir = out_dir();
    let path = dir.join(format!("trace-{workload}.json"));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| obs::write_chrome_trace(&path, &traces))
    {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    Traced {
        wall_s,
        totals: selftime::self_times(&traces),
        records: traces.iter().map(|t| t.records.len()).sum(),
        coverage: obs::span_coverage(&traces, PASS_SPAN).unwrap_or(0.0),
    }
}

/// Fills in the metrics every traced run has: the `obs` layer's own numbers,
/// each layer's share of span self time, and the span-derived times of the
/// layers whose spans the workspace crates already emit.
pub fn report_trace(report: &mut Report, traced: &Traced, untraced_pass_s: f64) {
    report.set(
        "obs.tracing_overhead",
        stats::ratio(traced.wall_s, untraced_pass_s),
    );
    report.set("obs.spans_recorded", traced.records as f64);
    report.set("obs.span_coverage", traced.coverage);

    let layers = selftime::layer_self_ns(&traced.totals);
    let all: u64 = layers.values().sum();
    for (layer, share_metric) in LAYERS {
        report.set(share_metric, stats::ratio(layers[layer] as f64, all as f64));
    }

    report.set("smt.sat_self_ms", traced.self_ms("smt.sat"));
    report.set("smt.theory_self_ms", traced.self_ms("smt.theory"));
    report.set("smt.qe_self_ms", traced.self_ms("smt.qe"));
    report.set("vcgen.wp_self_ms", traced.self_ms("vcgen.wp"));
    report.set("vcgen.refine_ms", traced.inclusive_ms("vcgen.refine"));
    report.set("persist.load_ms", traced.inclusive_ms("persist.load"));
    report.set("persist.seed_ms", traced.inclusive_ms("persist.seed"));

    let pass_self = traced.self_ms(PASS_SPAN);
    let mut rows: Vec<(&str, &SpanTotals)> =
        traced.totals.iter().map(|(name, t)| (*name, t)).collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    report.rows.push(format!(
        "traced pass: {:.1} ms wall, {:.1} ms of it outside every layer span ({:.1} % attributed)",
        traced.wall_s * 1e3,
        pass_self,
        100.0 * (1.0 - pass_self / (traced.wall_s * 1e3).max(f64::MIN_POSITIVE)),
    ));
    report.rows.push(format!(
        "{:<32} {:>10} {:>12} {:>12}",
        "span", "count", "self ms", "incl ms"
    ));
    for (name, t) in rows {
        report.rows.push(format!(
            "{:<32} {:>10} {:>12.3} {:>12.3}",
            name,
            t.count,
            t.self_ns as f64 / 1e6,
            t.inclusive_ns as f64 / 1e6
        ));
    }
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where `/proc` does
/// not provide it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

/// Wall-clock limit of one runtime cell or one exploration.
pub const WATCHDOG_LIMIT: Duration = Duration::from_secs(60);

/// Exit code of a run the watchdog ended.
pub const WATCHDOG_EXIT: i32 = 3;

/// A wall-clock limit on a piece of work that can hang rather than fail: a
/// monitor whose notifications were placed unsoundly deadlocks its callers,
/// and threads parked on a condition variable cannot be cancelled. While a
/// `Watchdog` is alive a timer thread waits; if the limit passes first it
/// reports the cell's operations as failed and ends the process with
/// [`WATCHDOG_EXIT`].
pub struct Watchdog {
    disarm: Option<mpsc::Sender<()>>,
    timer: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Starts the clock for `label`, which is about to attempt `ops`
    /// operations.
    pub fn arm(label: String, ops: u64, limit: Duration) -> Watchdog {
        let (disarm, armed) = mpsc::channel::<()>();
        let timer = std::thread::spawn(move || {
            if armed.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout) {
                eprintln!(
                    "watchdog: {label} did not finish within {:.0} s; its {ops} operations failed",
                    limit.as_secs_f64()
                );
                std::process::exit(WATCHDOG_EXIT);
            }
        });
        Watchdog {
            disarm: Some(disarm),
            timer: Some(timer),
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        // Dropping the sender wakes the timer, which then returns.
        self.disarm.take();
        if let Some(timer) = self.timer.take() {
            let _ = timer.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_window_runs_at_least_twice_and_until_the_deadline() {
        let quick = measured_window(0.0, || 0.0);
        assert_eq!(quick.len(), 2);
        let start = Instant::now();
        let passes = measured_window(0.05, || {
            timed(|| std::thread::sleep(Duration::from_millis(10))).1
        });
        assert!(start.elapsed() >= Duration::from_millis(50));
        assert!(passes.len() >= 3);
        assert!(passes.iter().all(|s| *s >= 0.01));
    }

    #[test]
    fn short_setups_repeat_and_long_ones_do_not() {
        let mut calls = 0;
        let (_, seconds) = timed_setup(|| calls += 1);
        assert_eq!(calls, 3);
        assert!(seconds < SHORT_SETUP_SECONDS);
    }

    #[test]
    fn a_disarmed_watchdog_lets_the_process_live() {
        let dog = Watchdog::arm("test".to_owned(), 1, Duration::from_secs(3600));
        drop(dog);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
