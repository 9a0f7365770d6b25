//! The unified tracing + metrics layer, exercised end to end: the span
//! recorder under an instrumented analysis run and an 8-thread stress
//! workload, the Chrome trace exporter validated through its own parser,
//! the unified metrics registry over a real analysis and a real load run,
//! and the leveled log capture hook.
//!
//! Span recording and log capture are process-global (one `AtomicBool`, one
//! capture slot), so every test that toggles them serialises on [`GLOBALS`].

use expresso_repro::core::{Expresso, SharedAnalysisContext};
use expresso_repro::loadgen::{measure, EngineKind, LoadConfig};
use expresso_repro::obs;
use expresso_repro::suite::all;
use std::sync::Mutex;

/// Serialises tests that touch the global recorder / log state.
static GLOBALS: Mutex<()> = Mutex::new(());

fn benchmark(name: &str) -> expresso_repro::suite::Benchmark {
    all()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("suite contains {name}"))
}

#[test]
fn enabled_run_exports_a_wellformed_nested_chrome_trace() {
    let _guard = GLOBALS.lock().unwrap();
    obs::set_enabled(false);
    let _ = obs::drain();

    obs::set_enabled(true);
    let traces = {
        let pipeline = Expresso::new();
        let context = SharedAnalysisContext::new(pipeline.config());
        let root = obs::SpanGuard::enter("test.root");
        for name in ["ReadersWriters", "BoundedBuffer"] {
            pipeline
                .analyze_with_context(&context, &benchmark(name).monitor())
                .unwrap_or_else(|e| panic!("{name} failed analysis: {e}"));
        }
        drop(root);
        obs::set_enabled(false);
        obs::drain()
    };
    assert!(!traces.is_empty(), "instrumented run recorded no threads");

    // Per-thread record order is monotone in end time (records are pushed at
    // guard drop), and every span is well-formed before export.
    for trace in &traces {
        let mut prev_end = 0;
        for record in &trace.records {
            assert!(record.end_ns >= record.start_ns, "negative-length span");
            assert!(record.end_ns >= prev_end, "drop order lost monotonicity");
            prev_end = record.end_ns;
        }
    }

    // Round-trip through the artifact exactly as Perfetto would read it.
    let path = std::env::temp_dir().join(format!("xp-obs-trace-{}.json", std::process::id()));
    obs::write_chrome_trace(&path, &traces).expect("writing the trace artifact");
    let text = std::fs::read_to_string(&path).expect("re-reading the trace artifact");
    let _ = std::fs::remove_file(&path);

    let events = obs::parse_chrome_trace(&text).expect("artifact parses as Chrome trace JSON");
    assert!(!events.is_empty());
    obs::check_nesting(&events).expect("spans are balanced and properly nested");

    // The analysis pipeline must show up across subsystem lanes: the parse
    // already happened above, but analysis spans core, smt and vcgen.
    let mut cats: Vec<&str> = events.iter().map(|e| e.cat.as_str()).collect();
    cats.sort_unstable();
    cats.dedup();
    for required in ["core", "smt", "vcgen", "test"] {
        assert!(
            cats.contains(&required),
            "no span from `{required}` in {cats:?}"
        );
    }

    // The named children must account for (almost) the whole root window.
    let coverage = obs::trace_coverage(&events, "test.root").expect("root span present");
    assert!(
        coverage > 0.8,
        "named spans cover only {:.1}% of the root window",
        coverage * 100.0
    );
}

#[test]
fn eight_thread_stress_loses_no_record() {
    const THREADS: usize = 8;
    const SPANS: usize = 250;

    let _guard = GLOBALS.lock().unwrap();
    obs::set_enabled(false);
    let _ = obs::drain();
    obs::set_enabled(true);

    let handles: Vec<_> = (0..THREADS)
        .map(|i| {
            std::thread::Builder::new()
                .name(format!("obs-stress-{i}"))
                .spawn(|| {
                    for _ in 0..SPANS {
                        let _outer = obs::span!("stress.outer");
                        let _inner = obs::span!("stress.inner");
                        obs::instant!("stress.tick");
                    }
                })
                .expect("spawning a stress thread")
        })
        .collect();
    for handle in handles {
        handle.join().expect("stress thread panicked");
    }
    obs::set_enabled(false);

    let traces: Vec<_> = obs::drain()
        .into_iter()
        .filter(|t| t.thread_name.starts_with("obs-stress-"))
        .collect();
    assert_eq!(traces.len(), THREADS, "a thread's buffer went missing");
    let mut seen: Vec<&str> = traces.iter().map(|t| t.thread_name.as_str()).collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), THREADS, "duplicate or lost thread lanes");

    for trace in &traces {
        // 2 spans + 1 instant per iteration, nothing lost or torn.
        assert_eq!(
            trace.records.len(),
            3 * SPANS,
            "{}: lost records",
            trace.thread_name
        );
        let mut prev_end = 0;
        for record in &trace.records {
            assert!(record.start_ns <= record.end_ns);
            assert!(
                record.end_ns >= prev_end,
                "{}: record order not monotone in end time",
                trace.thread_name
            );
            prev_end = record.end_ns;
        }
        let spans = trace
            .records
            .iter()
            .filter(|r| r.kind == obs::RecordKind::Span)
            .count();
        assert_eq!(spans, 2 * SPANS, "{}: span/instant mix", trace.thread_name);
    }

    // A second drain must find the buffers empty.
    assert!(
        obs::drain().iter().all(|t| t.records.is_empty()),
        "drain did not flush the stress buffers"
    );
}

#[test]
fn metrics_registry_unifies_the_analysis_stats() {
    // The registry is instance-scoped, but the analysis below opens spans:
    // running it while another test has recording on would leave records in
    // this thread's buffer for that test's drains to find.
    let _guard = GLOBALS.lock().unwrap();
    let pipeline = Expresso::new();
    let context = SharedAnalysisContext::new(pipeline.config());
    pipeline
        .analyze_with_context(&context, &benchmark("ReadersWriters").monitor())
        .expect("analysis succeeds");

    let snapshot = context.metrics_registry().snapshot();
    for group in [
        "core.scheduler",
        "logic.interner",
        "smt.solver",
        "vcgen.disjointness",
        "vcgen.wp_store",
    ] {
        assert!(
            snapshot.groups.iter().any(|g| g.name == group),
            "snapshot is missing the {group} group"
        );
    }
    assert!(
        snapshot.counter("smt.solver", "sat_queries").unwrap_or(0) > 0,
        "an analysed monitor must have issued sat queries"
    );
    assert!(
        snapshot
            .counter("logic.interner", "formula_nodes")
            .unwrap_or(0)
            > 0,
        "an analysed monitor must have interned formulas"
    );
    assert!(
        snapshot.gauge("smt.solver", "cache_hit_rate").is_some(),
        "derived gauges must ride the same snapshot"
    );

    // The JSON rendering reads back (the `reproduce json` ledger embeds it).
    let value = snapshot.to_value();
    assert_eq!(obs::json::parse(&obs::json::write(&value)), Ok(value));
}

#[test]
fn loadgen_report_exposes_the_quantile_table_as_metrics() {
    // Analyses a monitor, hence the lock (see the registry test above).
    let _guard = GLOBALS.lock().unwrap();
    let bench = benchmark("ReadersWriters");
    let explicit = Expresso::new()
        .analyze(&bench.monitor())
        .expect("analysis succeeds")
        .explicit;
    let report = measure(
        &bench,
        &explicit,
        EngineKind::Implicit,
        &LoadConfig::closed_loop(2, 8, 1, 7),
    );
    let snapshot =
        expresso_repro::loadgen::metrics_registry([("ReadersWriters".to_string(), report)])
            .snapshot();

    let group = "loadgen.ReadersWriters.implicit";
    assert!(snapshot.counter(group, "operations").unwrap_or(0) > 0);
    assert!(snapshot.gauge(group, "ops_per_sec").unwrap_or(0.0) > 0.0);
    let p50 = snapshot.gauge(group, "latency_p50_us").expect("p50 gauge");
    let p90 = snapshot.gauge(group, "latency_p90_us").expect("p90 gauge");
    let p99 = snapshot.gauge(group, "latency_p99_us").expect("p99 gauge");
    let max = snapshot.gauge(group, "latency_max_us").expect("max gauge");
    assert!(
        p50 <= p90 && p90 <= p99 && p99 <= max,
        "quantile table is not monotone: p50={p50} p90={p90} p99={p99} max={max}"
    );
}

#[test]
fn log_capture_hook_honours_the_level_gate() {
    let _guard = GLOBALS.lock().unwrap();
    let captured = obs::CaptureBuffer::default();
    obs::set_capture(Some(captured.clone()));
    obs::set_max_level(obs::Level::Info);

    obs::log!(obs::Level::Debug, "below the gate: {}", 1);
    obs::log!(obs::Level::Info, "at the gate: {}", 2);
    obs::log!(obs::Level::Error, "above the gate: {}", 3);

    obs::set_capture(None);
    obs::set_max_level(obs::Level::Warn);

    let lines = captured.lock().unwrap();
    assert_eq!(
        lines
            .iter()
            .map(|(level, message)| (*level, message.as_str()))
            .collect::<Vec<_>>(),
        vec![
            (obs::Level::Info, "at the gate: 2"),
            (obs::Level::Error, "above the gate: 3"),
        ]
    );
}

#[test]
fn an_edit_shows_in_spans_counters_and_one_log_line() {
    // "Why was this one re-analysed" must be answerable from what a run
    // leaves behind: a `core.replay` span per monitor replayed, the
    // `core.outcomes` counters, and one debug line per monitor analysed,
    // naming it and saying what the lookup found.
    use expresso_repro::core::ExpressoConfig;
    use expresso_repro::monitor_lang::parse_monitor;
    use expresso_repro::suite::corpusgen::{generate, mutate_source, CorpusSpec};

    let _guard = GLOBALS.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("xp-obs-outcomes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ExpressoConfig {
        cache_dir: Some(dir.clone()),
        ..ExpressoConfig::default()
    };
    let pipeline = Expresso::with_config(config.clone());
    let corpus = generate(&CorpusSpec { size: 6, seed: 31 });
    let mut monitors: Vec<_> = corpus.iter().map(|v| v.monitor()).collect();
    let cold = SharedAnalysisContext::new(&config);
    assert!(pipeline
        .analyze_suite(&cold, &monitors)
        .iter()
        .all(Result::is_ok));
    cold.persist().unwrap().unwrap();
    const EDITED: usize = 2;
    monitors[EDITED] = parse_monitor(&mutate_source(&corpus[EDITED].source)).unwrap();

    obs::set_enabled(false);
    let _ = obs::drain();
    let captured = obs::CaptureBuffer::default();
    obs::set_capture(Some(captured.clone()));
    obs::set_max_level(obs::Level::Debug);
    obs::set_enabled(true);
    let context = SharedAnalysisContext::new(&config);
    let outcomes = pipeline.analyze_suite(&context, &monitors);
    obs::set_enabled(false);
    obs::set_capture(None);
    obs::set_max_level(obs::Level::Warn);
    let traces = obs::drain();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(outcomes.iter().all(Result::is_ok));

    let mut replayed: Vec<&str> = traces
        .iter()
        .flat_map(|trace| &trace.records)
        .filter(|record| record.name == "core.replay")
        .map(|record| {
            record
                .detail
                .as_deref()
                .expect("the span names its monitor")
        })
        .collect();
    replayed.sort_unstable();
    let mut expected: Vec<&str> = monitors
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != EDITED)
        .map(|(_, monitor)| monitor.name.as_str())
        .collect();
    expected.sort_unstable();
    assert_eq!(replayed, expected);

    let snapshot = context.metrics_registry().snapshot();
    let counter = |name| snapshot.counter("core.outcomes", name);
    assert_eq!(counter("outcome_hits"), Some(5));
    assert_eq!(counter("outcome_misses"), Some(1));
    assert_eq!(counter("seed_forced"), Some(1));

    let lines = captured.lock().unwrap();
    let analysed: Vec<&str> = lines
        .iter()
        .filter(|(level, message)| {
            *level == obs::Level::Debug && message.starts_with("analysing monitor ")
        })
        .map(|(_, message)| message.as_str())
        .collect();
    assert_eq!(
        analysed,
        [format!(
            "analysing monitor {}: the artifact has no record under its key",
            monitors[EDITED].name
        )]
    );
}
