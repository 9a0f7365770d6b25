//! Bounded buffer: inspect every stage of the pipeline on the classic
//! producer/consumer monitor — the inferred invariant, the generated code,
//! and Definition 3.4 checked by the schedule explorer on every schedule of
//! two producers and two consumers. Exits 1 when the explorer reports a
//! divergence.
//!
//! Run with `cargo run --example bounded_buffer_pipeline`.

use expresso_repro::core::{to_java, Expresso};
use expresso_repro::explore::{explore, render_trace, ExploreConfig, Workload};
use expresso_repro::logic::Valuation;
use expresso_repro::monitor_lang::{check_monitor, initial_state, parse_monitor};
use expresso_repro::semantics::ThreadSpec;

const SOURCE: &str = r#"
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

fn main() {
    let monitor = parse_monitor(SOURCE).expect("parses");
    let table = check_monitor(&monitor).expect("type-checks");
    let outcome = Expresso::new().analyze(&monitor).expect("analyses");

    println!("Inferred invariant: {}", outcome.invariant);
    println!(
        "\nGenerated explicit-signal code:\n{}",
        to_java(&outcome.explicit)
    );

    // Definition 3.4 on every schedule of two producers and two consumers.
    let mut ctor = Valuation::new();
    ctor.set_int("capacity", 3);
    let initial = initial_state(&monitor, &table, &ctor).expect("initial state");
    let mut producer_locals = Valuation::new();
    producer_locals.set_int("item", 42);
    let put = vec![ThreadSpec::with_locals("put", producer_locals)];
    let take = vec![ThreadSpec::new("take")];
    let workload = Workload {
        initial,
        programs: vec![put.clone(), put, take.clone(), take],
    };
    let report = explore(
        &monitor,
        &table,
        &outcome.explicit,
        &workload,
        &ExploreConfig::default(),
    )
    .expect("exploration runs");
    println!(
        "Definition 3.4 exploration: {} implicit-driven and {} explicit-driven executions, {} divergences.",
        report.implicit.executions,
        report.explicit.executions,
        report.divergences.len()
    );
    for divergence in &report.divergences {
        println!(
            "{:?}-driven divergence: {}\n{}",
            divergence.driver,
            divergence.reason,
            render_trace(&monitor, &divergence.trace)
        );
    }
    if !report.holds() {
        std::process::exit(1);
    }
}
