//! Service-scale load runs against the suite monitors from the command line.
//!
//! ```text
//! loadgen [--benchmark NAME] [--engine implicit|static|targeted|all]
//!         [--workers N] [--sessions N] [--rounds N] [--seed N]
//!         [--pace-ns N] [--trace PATH]
//! ```
//!
//! With `--pace-ns 0` (the default) the run is a closed loop and the latency
//! columns are per-operation service time; with a positive gap sessions
//! arrive on a fixed schedule and the columns are per-session response time
//! including queueing. Session counts in the millions are fine: sessions are
//! generated lazily and latencies are folded into constant-memory histograms.

use expresso_core::Expresso;
use expresso_loadgen::{measure, EngineKind, LoadConfig, LoadReport};
use expresso_suite::benchmarks::all;
use std::path::PathBuf;

struct Options {
    benchmark: Option<String>,
    engines: Vec<EngineKind>,
    config: LoadConfig,
    trace: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--benchmark NAME] [--engine implicit|static|targeted|all] \
         [--workers N] [--sessions N] [--rounds N] [--seed N] [--pace-ns N] [--trace PATH]"
    );
    std::process::exit(2)
}

fn parse_options() -> Options {
    let mut options = Options {
        benchmark: None,
        engines: EngineKind::all().to_vec(),
        config: LoadConfig::closed_loop(4, 1024, 2, 42),
        trace: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                usage()
            })
        };
        match flag.as_str() {
            "--benchmark" => options.benchmark = Some(value()),
            "--engine" => {
                let v = value();
                options.engines = if v == "all" {
                    EngineKind::all().to_vec()
                } else {
                    vec![EngineKind::parse(&v).unwrap_or_else(|| {
                        eprintln!("unknown engine {v}");
                        usage()
                    })]
                };
            }
            "--workers" => options.config.workers = parse_number(&flag, &value()) as usize,
            "--sessions" => options.config.sessions = parse_number(&flag, &value()),
            "--rounds" => options.config.rounds = parse_number(&flag, &value()) as usize,
            "--seed" => options.config.seed = parse_number(&flag, &value()),
            "--pace-ns" => options.config.pacing_nanos = parse_number(&flag, &value()),
            "--trace" => options.trace = Some(PathBuf::from(value())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    if options.config.workers == 0 {
        eprintln!("--workers must be at least 1");
        usage();
    }
    // A zero-session or zero-round run performs no operations at all, then
    // prints a degenerate all-zero report that reads like a passing run —
    // reject the shape up front instead.
    if options.config.sessions == 0 {
        eprintln!("--sessions must be at least 1");
        usage();
    }
    if options.config.rounds == 0 {
        eprintln!("--rounds must be at least 1");
        usage();
    }
    options
}

fn parse_number(flag: &str, text: &str) -> u64 {
    text.parse().unwrap_or_else(|_| {
        eprintln!("invalid number for {flag}: {text}");
        usage()
    })
}

fn micros(nanos: u64) -> f64 {
    nanos as f64 / 1_000.0
}

fn print_report(name: &str, report: &LoadReport) {
    println!(
        "{:<28} {:<18} {:>10} {:>12.0} {:>9.2} {:>9.2} {:>9.2} {:>9} {:>9} {:>8} {:>7}",
        name,
        report.engine.label(),
        report.operations,
        report.ops_per_sec(),
        micros(report.latency.p50()),
        micros(report.latency.p99()),
        micros(report.latency.p999()),
        report.wakeups,
        report.predicate_evaluations,
        report.avoided_wakeups,
        report.elided_notifications,
    );
    if report.call_errors > 0 {
        expresso_obs::log!(
            expresso_obs::Level::Warn,
            "{name}: {} calls failed",
            report.call_errors
        );
    }
}

fn main() {
    let options = parse_options();
    if options.trace.is_some() {
        expresso_obs::set_enabled(true);
    }
    let benchmarks: Vec<_> = all()
        .into_iter()
        .filter(|b| {
            options
                .benchmark
                .as_deref()
                .map(|name| b.name == name)
                .unwrap_or(true)
        })
        .collect();
    if benchmarks.is_empty() {
        eprintln!(
            "no benchmark named {:?}; known: {}",
            options.benchmark.as_deref().unwrap_or(""),
            all().iter().map(|b| b.name).collect::<Vec<_>>().join(", ")
        );
        std::process::exit(2);
    }
    println!(
        "workers={} sessions={} rounds={} seed={} pacing={}ns ({})",
        options.config.workers,
        options.config.effective_sessions(),
        options.config.rounds,
        options.config.seed,
        options.config.pacing_nanos,
        if options.config.pacing_nanos == 0 {
            "closed loop, per-op latency"
        } else {
            "open loop, per-session latency"
        }
    );
    println!(
        "{:<28} {:<18} {:>10} {:>12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>7}",
        "benchmark",
        "engine",
        "ops",
        "ops/sec",
        "p50us",
        "p99us",
        "p999us",
        "wakeups",
        "evals",
        "avoided",
        "elided"
    );
    let mut reports: Vec<(String, LoadReport)> = Vec::new();
    for benchmark in &benchmarks {
        let explicit = match Expresso::new().analyze(&benchmark.monitor()) {
            Ok(outcome) => outcome.explicit,
            Err(e) => {
                eprintln!("{}: analysis failed: {e}", benchmark.name);
                std::process::exit(1);
            }
        };
        for &kind in &options.engines {
            let report = measure(benchmark, &explicit, kind, &options.config);
            print_report(benchmark.name, &report);
            reports.push((benchmark.name.to_string(), report));
        }
    }
    // The quantile table (and every other column) is also available through
    // the unified metrics snapshot; print it when the run is being traced so
    // the artifact and the numbers land together.
    if let Some(path) = &options.trace {
        let snapshot = expresso_loadgen::metrics_registry(reports).snapshot();
        print!(
            "metrics = {}",
            expresso_obs::json::write(&snapshot.to_value())
        );
        expresso_obs::set_enabled(false);
        let traces = expresso_obs::drain();
        if let Err(e) = expresso_obs::write_chrome_trace(path, &traces) {
            eprintln!("failed to write trace {path:?}: {e}");
            std::process::exit(1);
        }
        let spans: usize = traces.iter().map(|t| t.records.len()).sum();
        println!("trace = {} ({spans} records)", path.display());
    }
}
