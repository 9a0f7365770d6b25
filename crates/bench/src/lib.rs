//! The measurement library behind the `reproduce` binary.
//!
//! * [`passes`] — one function per measurement (Table 1, Fig. 8 / 9, suite
//!   pool-vs-sequential, load, persistence, exploration, the instrumented
//!   pass), each writing its section of one `obs::json::Value` ledger;
//! * [`ledger`] — the `GATES` table every mode's ledger is held to, and the
//!   `DIFF` table `reproduce diff` compares two ledgers under;
//! * this module — the saturation measurement of Fig. 8 / Fig. 9:
//!   [`measure_benchmark`] runs one (benchmark, thread-count) point and
//!   reports microseconds per monitor operation of each series.

pub mod ledger;
pub mod passes;

use expresso_core::{AnalysisOutcome, Expresso};
use expresso_monitor_lang::ExplicitMonitor;
use expresso_runtime::{run_saturation, AutoSynchRuntime, ExplicitRuntime, MonitorRuntime};
use expresso_suite::Benchmark;

/// One measured point of a figure: microseconds per monitor operation of the
/// two series at one thread count. (The paper's third series, hand-written
/// explicit signalling, has no engine of its own here: agreement with
/// hand-written code is shown by placement identity,
/// `benchmark/expected/placements.tsv`, not by timing the same engine twice.)
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Number of worker threads.
    pub threads: usize,
    /// Expresso-generated explicit-signal code.
    pub expresso_us_per_op: f64,
    /// The AutoSynch-style run-time system (per-waiter predicate evaluation).
    pub autosynch_us_per_op: f64,
}

/// Analyses a benchmark once in a private context.
pub fn analyze(benchmark: &Benchmark) -> AnalysisOutcome {
    Expresso::new()
        .analyze(&benchmark.monitor())
        .unwrap_or_else(|e| panic!("{} failed analysis: {e}", benchmark.name))
}

/// Runs the saturation test of a benchmark with `threads` workers, once per
/// series.
pub fn measure_benchmark(
    benchmark: &Benchmark,
    expresso_monitor: &ExplicitMonitor,
    threads: usize,
    ops_per_thread: usize,
) -> Measurement {
    let ctor = (benchmark.ctor_args)(threads);
    let plans = (benchmark.plans)(threads, ops_per_thread);
    let us_per_op = |runtime: &dyn MonitorRuntime| run_saturation(runtime, &plans).micros_per_op();
    let expresso = ExplicitRuntime::new(expresso_monitor.clone(), &ctor)
        .unwrap_or_else(|e| panic!("{}: {e}", benchmark.name));
    let autosynch = AutoSynchRuntime::new(benchmark.monitor(), &ctor)
        .unwrap_or_else(|e| panic!("{}: {e}", benchmark.name));
    Measurement {
        benchmark: benchmark.name,
        threads,
        expresso_us_per_op: us_per_op(&expresso),
        autosynch_us_per_op: us_per_op(&autosynch),
    }
}

/// Formats the measurements of one benchmark as a plot-like text table
/// (threads on the rows, one column per series), mirroring the figures.
pub fn format_figure(benchmark: &str, measurements: &[Measurement]) -> String {
    let mut out = format!(
        "{benchmark} (us/op)\n{:>8} {:>12} {:>12}\n",
        "threads", "Expresso", "AutoSynch"
    );
    for m in measurements {
        out += &format!(
            "{:>8} {:>12.2} {:>12.2}\n",
            m.threads, m.expresso_us_per_op, m.autosynch_us_per_op
        );
    }
    out
}

/// The geometric-mean speed-up of Expresso over AutoSynch across the points
/// — the paper's headline "1.56× faster than AutoSynch on average" aggregate.
pub fn geometric_speedup(measurements: &[Measurement]) -> f64 {
    let ratios: Vec<f64> = measurements
        .iter()
        .filter(|m| m.expresso_us_per_op > 0.0 && m.autosynch_us_per_op > 0.0)
        .map(|m| m.autosynch_us_per_op / m.expresso_us_per_op)
        .collect();
    if ratios.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = ratios.iter().map(|r| r.ln()).sum();
    (log_sum / ratios.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(threads: usize, expresso_us_per_op: f64, autosynch_us_per_op: f64) -> Measurement {
        Measurement {
            benchmark: "X",
            threads,
            expresso_us_per_op,
            autosynch_us_per_op,
        }
    }

    #[test]
    fn geometric_speedup_of_identical_series_is_one() {
        let speedup = geometric_speedup(&[point(2, 5.0, 10.0), point(4, 2.0, 4.0)]);
        assert!((speedup - 2.0).abs() < 1e-9);
        assert!((geometric_speedup(&[point(2, 5.0, 5.0)]) - 1.0).abs() < 1e-9);
        assert!((geometric_speedup(&[]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn figure_formatting_lists_thread_counts() {
        let text = format_figure("X", &[point(4, 1.25, 2.5)]);
        assert!(text.contains("threads"));
        assert!(text.contains("1.25"));
    }
}
