//! The repository's benchmark: six workloads over the Expresso stack, a fixed
//! list of end-to-end metrics measured with tracing off, and per-layer
//! metrics from a traced run. `BENCHMARK.json` at the repository root is the
//! contract; `README.md` beside this package says what each part means.
//!
//! ```text
//! expresso-benchmark --workload W --seed N --seconds S --trace 0|1   one run, result on the last line
//! expresso-benchmark run   [--workload W] [--seed N] [--seconds S]    every workload, each in a child process
//! expresso-benchmark trace [--workload W] [--seed N] [--seconds S]    the same with the traced pass
//! expresso-benchmark aa    [--workload W] [--seed N] [--seconds S]    two sets of ten runs, compared to the bounds
//! ```
//!
//! A run uses every CPU the process is allowed: the analysis pool, the
//! explorer and the load threads run side by side as they would for a user.

mod aa;
mod affinity;
mod analysis;
mod exploration;
mod harness;
mod metrics;
mod runtime;
mod selftime;
mod stats;

use harness::Opts;
use metrics::{Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// Length of the measured window when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;

/// The six workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table1Cold,
    CorpusCold,
    CorpusWarmEdit,
    Explore3x2,
    RuntimeSaturation,
    RuntimeSessions,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Table1Cold,
        Workload::CorpusCold,
        Workload::CorpusWarmEdit,
        Workload::Explore3x2,
        Workload::RuntimeSaturation,
        Workload::RuntimeSessions,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Cold => "table1_cold",
            Workload::CorpusCold => "corpus_cold",
            Workload::CorpusWarmEdit => "corpus_warm_edit",
            Workload::Explore3x2 => "explore_3x2",
            Workload::RuntimeSaturation => "runtime_saturation",
            Workload::RuntimeSessions => "runtime_sessions",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn run(self, opts: &Opts) -> Report {
        match self {
            Workload::Table1Cold => analysis::table1_cold(opts),
            Workload::CorpusCold => analysis::corpus_cold(opts),
            Workload::CorpusWarmEdit => analysis::corpus_warm_edit(opts),
            Workload::Explore3x2 => exploration::explore_3x2(opts),
            Workload::RuntimeSaturation => runtime::runtime(runtime::Mode::Saturation, opts),
            Workload::RuntimeSessions => runtime::runtime(runtime::Mode::Sessions, opts),
        }
    }
}

/// The flags every mode shares.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<Workload>,
    pub opts: Opts,
}

fn zero_or_one(value: &str) -> Option<bool> {
    match value {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        opts: Opts {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload `{value}`; the workloads are {}",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => parsed.opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.opts.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.opts.seconds > 0.0 && parsed.opts.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => parsed.opts.trace = zero_or_one(value).ok_or_else(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

/// One run of one workload in this process: table above, result line last.
fn run_here(workload: Workload, opts: &Opts) -> ExitCode {
    // Printed first: a runtime workload can leave this thread on one CPU.
    println!(
        "workload {} seed {} seconds {} trace {} cpus {} load threads {}",
        workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        harness::cpus(),
        harness::load_threads()
    );
    let mut report = workload.run(opts);
    report.set("peak_rss_mb", harness::peak_rss_mb());
    report.set(
        "failed_share",
        stats::failed_share(report.failed, report.attempted),
    );
    let list = if opts.trace { PER_LAYER } else { END_TO_END };
    print!("{}", report.table(list));
    println!("{}", report.json_line(list));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, flags) = match argv.first().map(String::as_str) {
        Some(mode @ ("run" | "trace" | "aa")) => (mode, &argv[1..]),
        _ => ("", &argv[..]),
    };
    let args = match parse_args(flags) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("error: {why}");
            eprintln!(
                "usage: expresso-benchmark [run|trace|aa] [--workload W] [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    match mode {
        "run" => aa::run_all(&args, false),
        "trace" => aa::run_all(&args, true),
        "aa" => aa::compare_two_sets(&args),
        _ => match args.workload {
            Some(workload) => run_here(workload, &args.opts),
            None => {
                eprintln!("error: --workload is required (or use `run`, `trace` or `aa`)");
                ExitCode::from(2)
            }
        },
    }
}
