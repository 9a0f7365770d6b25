//! Regenerates the paper's evaluation artefacts.
//!
//! ```text
//! reproduce table1     Table 1: analysis time per benchmark
//! reproduce fig8       Fig. 8: saturation sweep, AutoSynch benchmarks
//! reproduce fig9       Fig. 9: saturation sweep, GitHub monitors
//! reproduce json       every pass over the whole suite -> BENCH_results.json
//! reproduce persist    cold -> warm -> edit-one over a 64-monitor corpus
//! reproduce explore    representative subset, 3 threads x 3 ops, preemption bound 5
//! reproduce load       representative subset under the session load generator
//! reproduce trace      representative subset with spans on -> $EXPRESSO_TRACE
//! reproduce diff <old.json> <new.json>
//! ```
//!
//! Every mode runs passes of `expresso_bench::passes`, which write one
//! ledger; `json` writes it to `BENCH_results.json` (500-monitor corpus,
//! exploration at 3 threads x 2 ops against naive enumeration), the four
//! gates after it print theirs. The ledger is then held to the rows of
//! `expresso_bench::ledger::GATES` for the mode: every violated row is
//! printed, each with why its bound is what it is, and the exit status is 1.
//! `diff` holds the new ledger to the `json` rows and to the old one under
//! `ledger::DIFF` (counters equal, gated timings within 3x) — CI runs it
//! against the committed file. There are no environment knobs: the shape of
//! each mode is a constant, so two ledgers of one mode always compare.

use expresso_bench::ledger::{diff, gates_of, violated_gates};
use expresso_bench::passes::{self, representative_subset, Ledger};
use expresso_core::TRACE_ENV;
use expresso_obs::json::{self, Value};
use expresso_suite::all;
use std::path::PathBuf;

const LEDGER_PATH: &str = "BENCH_results.json";

const USAGE: &str = "usage: reproduce table1 | fig8 | fig9 | json | persist | explore | load | \
                     trace | diff <old.json> <new.json>";

fn read_ledger(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{path} is not JSON: {e}"))
}

fn print_table1(ledger: &Ledger) {
    println!("=== Table 1: analysis time per benchmark ===\n");
    println!(
        "{:<28} {:>12} {:>10} {:>12}",
        "Benchmark", "time (s)", "triples", "invariant"
    );
    for row in ledger["benchmarks"].as_arr().into_iter().flatten() {
        let number = |key: &str| row.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
        println!(
            "{:<28} {:>12.3} {:>10} {:>12}",
            row.get("name").and_then(Value::as_str).unwrap_or("?"),
            number("analysis_ms") / 1e3,
            number("triples_checked"),
            number("invariant_conjuncts"),
        );
    }
}

/// Holds `ledger` to the `mode` rows of `GATES`, on top of the `violations`
/// already found: prints every one and exits 1 if there is any.
fn hold(mode: &str, ledger: &Value, mut violations: Vec<String>) {
    violations.extend(violated_gates(mode, ledger));
    for violation in &violations {
        eprintln!("error: {violation}");
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }
    let gates = gates_of(mode).count();
    if gates > 0 {
        println!("all {gates} `{mode}` gates hold");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let trace_path = std::env::var_os(TRACE_ENV).map(PathBuf::from);
    let mut ledger = Ledger::new();
    match args[..] {
        ["table1"] => {
            passes::benchmarks(&mut ledger);
            print_table1(&ledger);
        }
        [figure @ ("fig8" | "fig9")] => passes::figures(&mut ledger, Some(figure)),
        ["json"] => {
            passes::figures(&mut ledger, None);
            passes::benchmarks(&mut ledger);
            passes::scheduler_suite(&mut ledger);
            passes::runtime_load(&mut ledger, &all());
            passes::exploration(&mut ledger, &all(), (3, 2), None, true);
            passes::persistence(&mut ledger, 500);
            passes::instrumented(&mut ledger, &all(), trace_path);
        }
        ["persist"] => passes::persistence(&mut ledger, 64),
        ["explore"] => passes::exploration(
            &mut ledger,
            &representative_subset(),
            (3, 3),
            Some(5),
            false,
        ),
        ["load"] => passes::runtime_load(&mut ledger, &representative_subset()),
        ["trace"] => {
            let path = trace_path.unwrap_or_else(|| PathBuf::from("expresso-trace.json"));
            passes::instrumented(&mut ledger, &representative_subset(), Some(path));
        }
        ["diff", old, new] => {
            let new = read_ledger(new);
            return hold("json", &new, diff(&read_ledger(old), &new));
        }
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
    let ledger = Value::Obj(ledger);
    match args[0] {
        // Written before the gates are evaluated, so the file of a failing
        // run still shows what happened.
        "json" => {
            std::fs::write(LEDGER_PATH, json::write(&ledger))
                .unwrap_or_else(|e| panic!("cannot write {LEDGER_PATH}: {e}"));
            println!("wrote {LEDGER_PATH}");
        }
        "persist" | "explore" | "load" | "trace" => print!("{}", json::write(&ledger)),
        _ => {}
    }
    hold(args[0], &ledger, Vec::new());
}
