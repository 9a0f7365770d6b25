//! The modes that run workloads in child processes: `run`, `trace` and `aa`.
//!
//! Each workload gets a process of its own so that one workload's caches,
//! pool threads and peak memory never leak into the next one's numbers.

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::{harness, stats, Args, Workload};
use expresso_repro::obs::json::{self, Value};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// Runs per workload in each of `aa`'s two sets: what the acceptance check
/// of the benchmark takes its quartiles over.
const AA_RUNS: usize = 10;

/// Counters that must repeat exactly between two runs of the same code on
/// the same seed; `aa` compares them on one traced run per workload and set.
const EXACT: [&str; 9] = [
    "notifications_emitted",
    "failed_share",
    "core.triples_checked",
    "core.pairs_considered",
    "core.signals",
    "core.broadcasts",
    "abduction.conjuncts_kept",
    "explore.executions",
    "explore.transitions",
];

/// What a child printed on its last line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: BTreeMap<String, f64>,
    /// Everything the child printed, for `run` and `trace` to pass on.
    stdout: String,
}

fn run_child(
    workload: Workload,
    seed: u64,
    args: &Args,
    trace: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child for {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        print!("{stdout}");
        return Err(format!("{} exited with {}", workload.name(), output.status));
    }
    let line = stdout.lines().last().unwrap_or("");
    let doc =
        json::parse(line).map_err(|e| format!("{}: bad result line: {e}", workload.name()))?;
    let number = |key: &str| doc.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    let mut values = BTreeMap::new();
    let list = if trace { PER_LAYER } else { END_TO_END };
    for m in list {
        let value = doc
            .get("metrics")
            .and_then(|metrics| metrics.get(m.name))
            .and_then(|entry| entry.get("value"))
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{}: no value for {}", workload.name(), m.name))?;
        values.insert(m.name.to_owned(), value);
    }
    Ok(ChildResult {
        correct: matches!(doc.get("correct"), Some(Value::Bool(true))),
        attempted: number("attempted") as u64,
        failed: number("failed") as u64,
        values,
        stdout,
    })
}

fn selected(args: &Args) -> Vec<Workload> {
    match args.workload {
        Some(workload) => vec![workload],
        None => Workload::ALL.to_vec(),
    }
}

/// `run` and `trace`: every selected workload once, output passed through.
pub fn run_all(args: &Args, trace: bool) -> ExitCode {
    let mut ok = true;
    for workload in selected(args) {
        match run_child(workload, args.opts.seed, args, trace) {
            Ok(child) => {
                print!("{}", child.stdout);
                println!();
                if !child.correct {
                    eprintln!(
                        "error: {}: {} of {} operations failed",
                        workload.name(),
                        child.failed,
                        child.attempted
                    );
                    ok = false;
                }
            }
            Err(why) => {
                eprintln!("error: {why}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// How much worse `b` is than `a`, as a share of `a`; negative when better.
fn worsening(m: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match m.better {
        "higher" => (a - b) / a.abs(),
        _ => (b - a) / a.abs(),
    }
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `aa`: the same code measured twice. Two sets, back to back, of ten runs
/// per workload (run `i` of either set uses seed `seed + i`), plus one traced
/// run per workload and set for the exact counters. Every end-to-end
/// metric's second median must not be worse than its first by more than the
/// metric's bound, and the spread of each set (interquartile range over
/// median) must stay inside the bound too — except that of `setup_s`, which
/// the contract's acceptance rule leaves out of the spread check. That is
/// the check this benchmark has to pass to be accepted.
pub fn compare_two_sets(args: &Args) -> ExitCode {
    let workloads = selected(args);
    let mut breaches: Vec<String> = Vec::new();
    // [set][workload][metric] -> one value per run.
    let mut sets: Vec<BTreeMap<&'static str, BTreeMap<String, Vec<f64>>>> = Vec::new();
    let mut exact: Vec<BTreeMap<&'static str, BTreeMap<String, f64>>> = Vec::new();
    for set in 0..2 {
        let mut timed: BTreeMap<&'static str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
        let mut counted: BTreeMap<&'static str, BTreeMap<String, f64>> = BTreeMap::new();
        for &workload in &workloads {
            for run in 0..AA_RUNS {
                let seed = args.opts.seed + run as u64;
                eprintln!(
                    "set {} of 2: {} run {} of {}",
                    set + 1,
                    workload.name(),
                    run + 1,
                    AA_RUNS
                );
                match run_child(workload, seed, args, false) {
                    Ok(child) => {
                        if !child.correct {
                            breaches.push(format!(
                                "{} (set {}, seed {seed}): {} of {} operations failed",
                                workload.name(),
                                set + 1,
                                child.failed,
                                child.attempted
                            ));
                        }
                        let by_metric = timed.entry(workload.name()).or_default();
                        for (name, value) in child.values {
                            by_metric.entry(name).or_default().push(value);
                        }
                    }
                    Err(why) => breaches.push(why),
                }
            }
            match run_child(workload, args.opts.seed, args, true) {
                Ok(child) => {
                    let kept = child
                        .values
                        .into_iter()
                        .filter(|(name, _)| EXACT.contains(&name.as_str()))
                        .collect();
                    counted.insert(workload.name(), kept);
                }
                Err(why) => breaches.push(why),
            }
        }
        sets.push(timed);
        exact.push(counted);
    }

    println!(
        "{:<20} {:<14} {:>14} {:>8} {:>14} {:>8} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "spread", "median B", "spread", "B worse", "bound"
    );
    let mut rows_json: Vec<String> = Vec::new();
    for &workload in &workloads {
        for m in END_TO_END {
            let values = |set: usize| -> Vec<f64> {
                sets[set]
                    .get(workload.name())
                    .and_then(|by_metric| by_metric.get(m.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (a, b) = (values(0), values(1));
            let (median_a, median_b) = (stats::median(&a), stats::median(&b));
            let (spread_a, spread_b) = (stats::relative_spread(&a), stats::relative_spread(&b));
            let bound = m.bound.unwrap_or(0.0);
            let worse = worsening(m, median_a, median_b);
            let mut verdict = "ok";
            if worse > bound {
                verdict = "SHIFTED";
                breaches.push(format!(
                    "{} {}: second median {median_b} is {:.1} % worse than the first {median_a} (bound {:.0} %)",
                    workload.name(),
                    m.name,
                    worse * 100.0,
                    bound * 100.0
                ));
            }
            let widest = spread_a.unwrap_or(0.0).max(spread_b.unwrap_or(0.0));
            if m.name != "setup_s" && widest > bound {
                verdict = "WIDE";
                breaches.push(format!(
                    "{} {}: spread {:.1} % exceeds the bound {:.0} %",
                    workload.name(),
                    m.name,
                    widest * 100.0,
                    bound * 100.0
                ));
            }
            let pct = |s: Option<f64>| s.map_or("-".to_owned(), |s| format!("{:.1}%", s * 100.0));
            println!(
                "{:<20} {:<14} {:>14.4} {:>8} {:>14.4} {:>8} {:>8.1}% {:>6.0}%  {}",
                workload.name(),
                m.name,
                median_a,
                pct(spread_a),
                median_b,
                pct(spread_b),
                worse * 100.0,
                bound * 100.0,
                verdict
            );
            let list = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(", ");
            let quartiles = |v: &[f64]| match stats::quartiles(v) {
                Some((q1, q3)) => format!("[{q1}, {q3}]"),
                None => "null".to_owned(),
            };
            rows_json.push(format!(
                "    {{\"workload\": \"{}\", \"metric\": \"{}\", \"unit\": \"{}\", \"bound\": {bound}, \"a\": [{}], \"b\": [{}], \"median_a\": {median_a}, \"median_b\": {median_b}, \"quartiles_a\": {}, \"quartiles_b\": {}, \"b_worse_by\": {worse}}}",
                workload.name(),
                m.name,
                m.unit,
                list(&a),
                list(&b),
                quartiles(&a),
                quartiles(&b)
            ));
        }
    }

    println!(
        "\nexact counters (one traced run per workload and set, seed {}):",
        args.opts.seed
    );
    let mut exact_json: Vec<String> = Vec::new();
    for &workload in &workloads {
        for name in EXACT {
            let value = |set: usize| {
                exact[set]
                    .get(workload.name())
                    .and_then(|c| c.get(name))
                    .copied()
            };
            let (Some(a), Some(b)) = (value(0), value(1)) else {
                continue;
            };
            let same = a == b;
            println!(
                "{:<20} {:<28} {:>14} {:>14}  {}",
                workload.name(),
                name,
                a,
                b,
                if same { "same" } else { "DIFFERENT" }
            );
            if !same {
                breaches.push(format!("{} {name}: {a} then {b}", workload.name()));
            }
            exact_json.push(format!(
                "    {{\"workload\": \"{}\", \"metric\": \"{name}\", \"a\": {a}, \"b\": {b}}}",
                workload.name()
            ));
        }
    }

    let record = format!(
        "{{\n  \"cpus\": {},\n  \"load_threads\": {},\n  \"seed\": {},\n  \"runs_per_set\": {},\n  \"seconds\": {},\n  \"frozen\": {{\"corpus_size\": {}, \"explore_threads\": {}, \"explore_ops_per_thread\": {}, \"saturation_ops_per_thread\": {}, \"sessions_per_cell\": {}}},\n  \"git_commit\": \"{}\",\n  \"rustc\": \"{}\",\n  \"end_to_end\": [\n{}\n  ],\n  \"exact\": [\n{}\n  ],\n  \"breaches\": {}\n}}\n",
        harness::cpus(),
        harness::load_threads(),
        args.opts.seed,
        AA_RUNS,
        args.opts.seconds,
        crate::analysis::CORPUS_SIZE,
        crate::exploration::THREADS,
        crate::exploration::OPS_PER_THREAD,
        crate::runtime::SATURATION_OPS_PER_THREAD,
        crate::runtime::SESSIONS_PER_CELL,
        tool_version("git", &["rev-parse", "HEAD"]),
        tool_version("rustc", &["--version"]),
        rows_json.join(",\n"),
        exact_json.join(",\n"),
        breaches.len()
    );
    let path = harness::out_dir().join("aa.json");
    match std::fs::create_dir_all(harness::out_dir()).and_then(|()| std::fs::write(&path, record)) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }

    if breaches.is_empty() {
        println!("A/A: every metric repeats within its bound");
        ExitCode::SUCCESS
    } else {
        for breach in &breaches {
            eprintln!("breach: {breach}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        let higher = END_TO_END.iter().find(|m| m.name == "ops_per_s").unwrap();
        assert!((worsening(lower, 1.0, 1.2) - 0.2).abs() < 1e-12);
        assert!((worsening(lower, 1.0, 0.8) + 0.2).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!(worsening(higher, 100.0, 120.0) < 0.0);
        assert_eq!(worsening(higher, 0.0, 5.0), 0.0);
    }

    #[test]
    fn exact_counters_are_declared_metrics() {
        for name in EXACT {
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }
}
