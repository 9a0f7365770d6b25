//! The measurement passes. Each writes its section of the ledger and nothing
//! else: what the numbers must satisfy is `ledger::GATES`, and the shape of
//! every run is a constant here, so two ledgers of one mode are comparable.

use crate::{analyze, format_figure, geometric_speedup, measure_benchmark};
use expresso_core::{
    to_java, AnalysisOutcome, Expresso, ExpressoConfig, Scheduler, SchedulerStats,
    SharedAnalysisContext,
};
use expresso_explore::{
    benchmark_workload, explore, render_trace, ExploreConfig, ExploreReport, RefinedIndependence,
    Strategy,
};
use expresso_loadgen::{measure as measure_load, EngineKind, LoadConfig, LoadReport};
use expresso_monitor_lang::{check_monitor, parse_monitor, ExplicitMonitor, Monitor};
use expresso_obs::json::Value;
use expresso_obs::obj;
use expresso_suite::{
    all, autosynch_benchmarks, github_benchmarks, scaled_thread_counts, Benchmark, CorpusSpec,
};
use expresso_vcgen::refine_independence;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The top-level object the passes of one mode fill in.
pub type Ledger = BTreeMap<String, Value>;

/// A measured float, rounded so the committed file stays readable.
fn fixed(x: f64, decimals: i32) -> Value {
    let scale = 10f64.powi(decimals);
    Value::Num((x * scale).round() / scale)
}

fn ms(duration: Duration) -> Value {
    fixed(duration.as_secs_f64() * 1e3, 3)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// A per-process directory for a pass that persists: whatever the user keeps
/// in `./.expresso-cache` or `$EXPRESSO_CACHE_DIR` is not ours to delete.
fn scratch_dir(pass: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("expresso-{pass}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Representative 6-benchmark subset for the CI-budgeted gates: a blocking
/// buffer, a barrier, an order-sensitive token ring, the paper's motivating
/// readers-writers, a stop-flagged dispatcher and the multi-reader broadcast
/// ring — one of every synchronization shape in the suite.
pub fn representative_subset() -> Vec<Benchmark> {
    const NAMES: [&str; 6] = [
        "BoundedBuffer",
        "H2OBarrier",
        "RoundRobin",
        "ReadersWriters",
        "AsyncDispatch",
        "BroadcastRing",
    ];
    all()
        .into_iter()
        .filter(|b| NAMES.contains(&b.name))
        .collect()
}

/// Analyses per benchmark of [`benchmarks`]; the fastest is reported. The
/// minimum of a deterministic workload converges quickly, and the extra
/// samples keep scheduler noise out of the tracked total.
const ANALYSIS_SAMPLES: usize = 5;

/// Table 1: every suite monitor analysed alone, in a private context.
/// Writes `benchmarks` and `total_analysis_ms`.
pub fn benchmarks(ledger: &mut Ledger) {
    let mut total = Duration::ZERO;
    let rows: Vec<Value> = all()
        .iter()
        .map(|benchmark| {
            let best = (0..ANALYSIS_SAMPLES)
                .map(|_| analyze(benchmark))
                .min_by_key(|outcome| outcome.stats.total_time)
                .expect("at least one sample");
            total += best.stats.total_time;
            let solver = &best.stats.solver;
            obj! {
                "name" => benchmark.name,
                "group" => format!("{:?}", benchmark.group),
                "analysis_ms" => ms(best.stats.total_time),
                "invariant_ms" => ms(best.stats.invariant_time),
                "placement_ms" => ms(best.stats.placement_time),
                "quantifier_eliminations" => solver.quantifier_eliminations,
                "qe_cache_hits" => solver.qe_cache_hits,
                "invariant_conjuncts" => best.stats.invariant_conjuncts,
                "invariant_refuted" => best.stats.invariant_refuted,
                "invariant_truncated" => best.stats.invariant_truncated,
                "triples_checked" => best.report.triples_checked,
                "pairs_considered" => best.report.pairs_considered,
                "commutativity_pairs" => best.report.commutativity_pairs,
                "cache_hits" => solver.cache_hits,
                "cache_misses" => solver.cache_misses,
                "cache_hit_rate" => fixed(solver.cache_hit_rate(), 4),
                "wp_cache_hits" => best.stats.wp_cache.hits,
                "wp_cache_misses" => best.stats.wp_cache.misses,
                "notifications" => best.explicit.notification_count(),
                "broadcasts" => best.explicit.broadcast_count(),
            }
        })
        .collect();
    ledger.insert("benchmarks".into(), rows.into());
    ledger.insert("total_analysis_ms".into(), ms(total));
}

/// Largest thread count and operations per thread of the saturation sweep.
/// A call is a fraction of a microsecond, so a thread needs thousands of
/// them before its own start-up stops being what is measured.
const FIGURE_MAX_THREADS: usize = 16;
const FIGURE_OPS: usize = 2000;

/// The geometric-mean speed-up over AutoSynch the paper reports.
const PAPER_SPEEDUP_VS_AUTOSYNCH: f64 = 1.56;

type Figure = (&'static str, &'static str, fn() -> Vec<Benchmark>);
const FIGURES: [Figure; 2] = [
    (
        "fig8",
        "Figure 8: AutoSynch benchmarks",
        autosynch_benchmarks,
    ),
    ("fig9", "Figure 9: GitHub monitors", github_benchmarks),
];

/// Fig. 8 / Fig. 9 (`only` one of them, or both): the saturation sweep of
/// each benchmark under both series, printed as it is measured. Writes
/// `figures`. Recorded, not gated: 16 threads on a CI runner's cores say
/// little about the ratio.
pub fn figures(ledger: &mut Ledger, only: Option<&str>) {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let paper = obj! { "speedup_vs_autosynch" => PAPER_SPEEDUP_VS_AUTOSYNCH };
    let mut section = Ledger::from([
        ("cpus".to_string(), cpus.into()),
        ("max_threads".to_string(), FIGURE_MAX_THREADS.into()),
        ("ops_per_thread".to_string(), FIGURE_OPS.into()),
        ("paper".to_string(), paper),
    ]);
    for (key, title, benchmarks) in FIGURES {
        if only.is_some_and(|only| only != key) {
            continue;
        }
        println!("=== {title} (saturation tests, {FIGURE_OPS} ops/thread) ===\n");
        let mut measurements = Vec::new();
        for benchmark in benchmarks() {
            let outcome = analyze(&benchmark);
            let from = measurements.len();
            measurements.extend(scaled_thread_counts(FIGURE_MAX_THREADS).into_iter().map(
                |threads| measure_benchmark(&benchmark, &outcome.explicit, threads, FIGURE_OPS),
            ));
            println!("{}", format_figure(benchmark.name, &measurements[from..]));
        }
        let speedup = geometric_speedup(&measurements);
        println!(
            "Expresso speed-up over AutoSynch (geomean): {speedup:.2}x \
             (paper: {PAPER_SPEEDUP_VS_AUTOSYNCH:.2}x)\n"
        );
        let rows = measurements.iter().map(|m| {
            obj! {
                "benchmark" => m.benchmark,
                "threads" => m.threads,
                "expresso_us_per_op" => fixed(m.expresso_us_per_op, 3),
                "autosynch_us_per_op" => fixed(m.autosynch_us_per_op, 3),
            }
        });
        section.insert(
            key.to_string(),
            obj! { "speedup_vs_autosynch" => fixed(speedup, 3), "series" => Value::from_iter(rows) },
        );
    }
    ledger.insert("figures".into(), Value::Obj(section));
}

/// Everything the analysis decides, none of what it merely times.
fn outcomes_equal(a: &[AnalysisOutcome], b: &[AnalysisOutcome]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.explicit == y.explicit
                && x.invariant == y.invariant
                && x.report.decisions == y.report.decisions
                && x.report.triples_checked == y.report.triples_checked
                && x.report.pairs_considered == y.report.pairs_considered
                && x.report.skipped == y.report.skipped
        })
}

/// One suite analysed in a fresh shared context.
struct SuiteRun {
    context: SharedAnalysisContext,
    outcomes: Vec<AnalysisOutcome>,
    /// From before the context is built: a warm context loads and seeds its
    /// artifact inside this time, and `context_wall` is that part of it.
    wall: Duration,
    context_wall: Duration,
}

fn analyze_suite(config: &ExpressoConfig, monitors: &[Monitor]) -> SuiteRun {
    let start = Instant::now();
    let context = SharedAnalysisContext::new(config);
    let context_wall = start.elapsed();
    let outcomes = Expresso::with_config(config.clone())
        .analyze_suite(&context, monitors)
        .into_iter()
        .enumerate()
        .map(|(i, o)| o.unwrap_or_else(|e| panic!("monitor {i} failed suite analysis: {e}")))
        .collect();
    SuiteRun {
        context,
        outcomes,
        wall: start.elapsed(),
        context_wall,
    }
}

/// Wall-clock samples per scheduler mode; the minimum is reported.
const SCHEDULER_SUITE_SAMPLES: usize = 5;

/// The whole suite analysed on the default (auto-sized) scheduler against
/// the sequential (`analysis_threads = 1`) configuration, one fresh shared
/// context per pass. Writes `scheduler_suite`.
pub fn scheduler_suite(ledger: &mut Ledger) {
    let monitors: Vec<Monitor> = all().iter().map(|b| b.monitor()).collect();
    let run = |analysis_threads: usize| {
        let config = ExpressoConfig {
            analysis_threads,
            ..ExpressoConfig::default()
        };
        analyze_suite(&config, &monitors)
    };

    // Interleave the two modes so process-level warm-up (allocator growth,
    // page faults, lazy statics) biases neither. The scheduler counters are
    // summed over the pool samples.
    let mut pool_wall = Duration::MAX;
    let mut sequential_wall = Duration::MAX;
    let mut scheduler = SchedulerStats::default();
    let mut kept = None;
    for _ in 0..SCHEDULER_SUITE_SAMPLES {
        let sequential = run(1);
        sequential_wall = sequential_wall.min(sequential.wall);
        // The default configuration shares the process-wide pool, whose
        // counters accumulate across everything this binary has run; the
        // before/after delta attributes exactly this pass.
        let before = Scheduler::global().stats();
        let pool = run(0);
        scheduler.merge(&Scheduler::global().stats().delta_since(&before));
        pool_wall = pool_wall.min(pool.wall);
        kept = Some((sequential, pool));
    }
    let (sequential, pool) = kept.expect("at least one sample");
    // One thread and a fresh context: the sequential pass's counters are
    // exact, so the work-count gates read them. The pool pass's are not: two
    // workers can both miss one key and both compute it.
    let solver = sequential.context.stats();
    let wp = sequential.context.wp_stats();
    let fm_runs_per_conflict = ratio(solver.fm_runs as f64, solver.fm_fast_conflicts as f64);
    let per_uncached_query =
        |count: usize| fixed(ratio(count as f64, solver.cache_misses as f64), 3);
    let utilization = scheduler.worker_utilization();
    let section = obj! {
        "suite_size" => monitors.len(),
        "pool_wall_ms" => ms(pool_wall),
        "sequential_wall_ms" => ms(sequential_wall),
        "sequential_fm_runs" => solver.fm_runs,
        "sequential_fm_fast_conflicts" => solver.fm_fast_conflicts,
        "sequential_fm_runs_per_conflict" => fixed(fm_runs_per_conflict, 3),
        "sequential_uncached_queries" => solver.cache_misses,
        "sequential_dpll_rounds" => solver.sat_solver_calls,
        "sequential_dpll_rounds_per_uncached_query" => per_uncached_query(solver.sat_solver_calls),
        "sequential_fm_runs_per_uncached_query" => per_uncached_query(solver.fm_runs),
        "sequential_qe_steps" => solver.qe_steps,
        "sequential_qe_step_hits" => solver.qe_step_hits,
        "sequential_cross_monitor_cache_hits" => solver.cross_analysis_hits,
        "sequential_wp_cache_hits" => wp.hits,
        "workers" => scheduler.workers,
        "tasks_executed" => scheduler.tasks_executed,
        "per_worker_executed" => Value::from_iter(scheduler.per_worker_executed.iter().copied()),
        "worker_utilization" => Value::from_iter(utilization.iter().map(|&u| fixed(u, 4))),
        "wp_cache_hits" => wp.hits,
        "wp_cache_misses" => wp.misses,
        "wp_cross_monitor_hits" => wp.cross_monitor_hits,
        "outputs_identical" => outcomes_equal(&pool.outcomes, &sequential.outcomes),
    };
    ledger.insert("scheduler_suite".into(), section);
}

/// Shape of every load cell. 4096 sessions keep a cell at 5–8 ms (~17 000
/// calls) now that a call is a few hundred nanoseconds — at 256 sessions a
/// quarter of a cell was thread start-up and the wakeup gates saw sixteen
/// times as many outliers.
const LOAD_WORKERS: usize = 4;
const LOAD_SESSIONS: u64 = 4096;
const LOAD_ROUNDS: usize = 2;

/// Load-run samples per (benchmark, engine). The sample with the median
/// throughput is the one reported, whole (its latencies and counters are
/// those of one real run), and the samples of a cell are taken a whole pass
/// over the suite apart.
///
/// Both choices come from 16 runs of 9 samples per cell on the 2-CPU
/// reference box. A cell's throughput is what the lock's cache line costs to
/// cross cores, and that has a heavy *upper* tail: now and then the four
/// workers barely overlap and a cell reads 5–10 M calls/s instead of its
/// usual 2–3 M. The best of N latches onto that sample, and a later run then
/// sits 3x below the committed value: of 210 ordered pairs of runs, 44
/// tripped the per-cell `DIFF` rule on the best of 3 and 50 on the best of 9;
/// back-to-back samples share whatever mode the scheduler is in for those
/// few milliseconds (median of 9 back-to-back: 57 of 210). The median of
/// samples spread over the pass tripped it in 0 of 210; the widest ratio
/// between two runs of one cell was 2.29 with 5 samples.
const LOAD_SAMPLES: usize = 5;

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Nanoseconds per call of a run, failed calls included.
fn ns_per_call(report: &LoadReport) -> f64 {
    let calls = (report.operations + report.call_errors).max(1);
    report.elapsed.as_secs_f64() * 1e9 / calls as f64
}

/// Targeted minus implicit wakeups per call, after the constant part of the
/// slack: which threads find their guard already true at start-up and never
/// block is a coin flip, a few per worker between any two runs. What may
/// remain per call is the bound of the `targeted_wakeups_*` gates.
fn excess_wakeups_per_call(targeted: usize, implicit: usize, operations: u64) -> f64 {
    let startup_race = 16.max(4 * LOAD_WORKERS) as f64;
    (targeted as f64 - implicit as f64 - startup_race) / operations.max(1) as f64
}

/// Every benchmark's session script through all three engines:
/// `LOAD_SAMPLES` passes over `benchmarks`, each measuring every cell once
/// with `LOAD_WORKERS` workers and once with a single worker (nobody to
/// contend with, nobody to wake); per cell the median-throughput sample and
/// the cheapest uncontended call are kept. The targeted engine's excess
/// wakeups over the implicit one are taken pass by pass, and the median of
/// those differences is reported, per benchmark and for the whole suite.
/// Writes `runtime_load`.
pub fn runtime_load(ledger: &mut Ledger, benchmarks: &[Benchmark]) {
    let config = LoadConfig::closed_loop(LOAD_WORKERS, LOAD_SESSIONS, LOAD_ROUNDS, 42);
    let one_worker = LoadConfig::closed_loop(1, LOAD_SESSIONS, LOAD_ROUNDS, 42);
    let analysed: Vec<_> = benchmarks.iter().map(|b| (b, analyze(b))).collect();
    let engines = EngineKind::all();
    // Per (benchmark, engine): the samples, the cheapest uncontended call,
    // and the call errors of *every* run, which go onto the kept report:
    // keeping one sample must not discard a faulting one.
    let mut cells: Vec<(Vec<LoadReport>, f64, u64)> = (0..analysed.len() * engines.len())
        .map(|_| (Vec::new(), f64::INFINITY, 0))
        .collect();
    for _ in 0..LOAD_SAMPLES {
        let mut cell = cells.iter_mut();
        for (benchmark, outcome) in &analysed {
            for kind in engines {
                let (samples, fastest, errors) = cell.next().expect("one cell per engine");
                let report = measure_load(benchmark, &outcome.explicit, kind, &config);
                let alone = measure_load(benchmark, &outcome.explicit, kind, &one_worker);
                *errors += report.call_errors + alone.call_errors;
                *fastest = fastest.min(ns_per_call(&alone));
                samples.push(report);
            }
        }
    }

    let mut cells = cells.into_iter();
    let mut measurements = Vec::new();
    let mut alone_ns = Vec::new();
    // Per sample pass, summed over the benchmarks: targeted wakeups,
    // implicit wakeups and targeted operations.
    let mut passes = [(0, 0, 0); LOAD_SAMPLES];
    let (mut avoided, mut elided) = (0, 0);
    let mut worst = ("", f64::NEG_INFINITY);
    for (benchmark, _) in &analysed {
        let cells: Vec<_> = cells.by_ref().take(engines.len()).collect();
        // Within one sample pass a benchmark's engines run back to back, so
        // the implicit and targeted runs of one pass are a pair; two kept
        // samples of different passes are not.
        let samples = |kind| &cells[engines.iter().position(|&k| k == kind).expect("an engine")].0;
        let implicit = samples(EngineKind::Implicit);
        let targeted = samples(EngineKind::ExplicitTargeted);
        let mut excess: Vec<f64> = implicit
            .iter()
            .zip(targeted)
            .zip(&mut passes)
            .map(|((implicit, targeted), pass)| {
                pass.0 += targeted.wakeups;
                pass.1 += implicit.wakeups;
                pass.2 += targeted.operations;
                excess_wakeups_per_call(targeted.wakeups, implicit.wakeups, targeted.operations)
            })
            .collect();
        let excess = median(&mut excess);
        if excess > worst.1 {
            worst = (benchmark.name, excess);
        }
        for (mut samples, fastest, errors) in cells {
            samples.sort_by(|a, b| a.ops_per_sec().total_cmp(&b.ops_per_sec()));
            let report = samples.swap_remove(samples.len() / 2);
            if report.engine == EngineKind::ExplicitTargeted {
                avoided += report.avoided_wakeups;
                elided += report.elided_notifications;
            }
            alone_ns.push(fastest);
            let us = |ns: u64| fixed(ns as f64 / 1e3, 3);
            measurements.push(obj! {
                "benchmark" => benchmark.name,
                "engine" => report.engine.label(),
                "operations" => report.operations,
                "ops_per_sec" => fixed(report.ops_per_sec(), 1),
                "uncontended_ns_per_call" => fixed(fastest, 1),
                "p50_us" => us(report.latency.p50()),
                "p99_us" => us(report.latency.p99()),
                "p999_us" => us(report.latency.p999()),
                "mean_us" => fixed(report.latency.mean() / 1e3, 3),
                "wakeups" => report.wakeups,
                "predicate_evaluations" => report.predicate_evaluations,
                "avoided_wakeups" => report.avoided_wakeups,
                "elided_notifications" => report.elided_notifications,
                "call_errors" => errors,
            });
        }
    }
    let mut suite_excess: Vec<f64> = passes
        .iter()
        .map(|&(targeted, implicit, operations)| {
            excess_wakeups_per_call(targeted, implicit, operations)
        })
        .collect();
    let suite_excess = median(&mut suite_excess);
    let targeted_wakeups: usize = passes.iter().map(|pass| pass.0).sum();
    let implicit_wakeups: usize = passes.iter().map(|pass| pass.1).sum();
    let section = obj! {
        "config" => obj! {
            "workers" => LOAD_WORKERS,
            "sessions" => config.effective_sessions(),
            "rounds" => LOAD_ROUNDS,
            "samples" => LOAD_SAMPLES,
        },
        "uncontended_ns_per_call" => obj! { "median" => fixed(median(&mut alone_ns), 1) },
        "targeted" => obj! {
            "wakeups" => targeted_wakeups,
            "implicit_wakeups" => implicit_wakeups,
            "excess_wakeups_per_call" => fixed(suite_excess, 4),
            "worst_benchmark" => worst.0,
            "worst_excess_wakeups_per_call" => fixed(worst.1, 4),
            "avoided_wakeups" => avoided,
            "elided_notifications" => elided,
        },
        "measurements" => measurements,
    };
    ledger.insert("runtime_load".into(), section);
}

/// A counter of the `core.outcomes` metric group of `context`.
fn outcome_counter(context: &SharedAnalysisContext, name: &str) -> u64 {
    context
        .metrics_registry()
        .snapshot()
        .counter("core.outcomes", name)
        .unwrap_or_else(|| panic!("no core.outcomes/{name} in the metrics snapshot"))
}

/// The warm-start cache at service scale: `corpus_monitors` seeded generated
/// monitors analysed cold (empty cache directory), warm (a fresh context over
/// the artifact the cold run saved, as a new process would be: every monitor
/// has a record and is replayed), then warm again with exactly one monitor
/// edited (that one is analysed, over the tables seeded for it). Writes
/// `persistence`.
pub fn persistence(ledger: &mut Ledger, corpus_monitors: usize) {
    let spec = CorpusSpec {
        size: corpus_monitors,
        ..CorpusSpec::default()
    };
    let cache_dir = scratch_dir("persist");
    let config = ExpressoConfig {
        cache_dir: Some(cache_dir.clone()),
        ..ExpressoConfig::default()
    };
    let corpus = expresso_suite::generate(&spec);
    let monitors: Vec<Monitor> = corpus.iter().map(|v| v.monitor()).collect();

    let cold = analyze_suite(&config, &monitors);
    assert!(
        cold.context.warm_start().is_none(),
        "cold phase found an artifact in a fresh scratch directory"
    );
    let saved = cold
        .context
        .persist()
        .expect("persisting the cold run's caches")
        .expect("a cache directory is configured");

    let warm = analyze_suite(&config, &monitors);
    let offered = warm
        .context
        .warm_start()
        .expect("warm phase must load the artifact the cold phase saved");
    let replayed = outcome_counter(&warm.context, "outcome_hits");

    // Edit exactly one monitor and warm-start again; only its key can miss,
    // and its analysis is the one thing left that reads the seeded tables.
    let mut edited = monitors.clone();
    edited[0] = parse_monitor(&expresso_suite::mutate_source(&corpus[0].source))
        .expect("mutated corpus source parses");
    let dirty = analyze_suite(&config, &edited);
    let misses = |o: &AnalysisOutcome| o.stats.wp_cache.misses;
    let reanalyzed = dirty.outcomes.iter().filter(|o| misses(o) > 0).count();
    let clean_misses: usize = dirty.outcomes.iter().skip(1).map(misses).sum();
    let solver_disk_hits = dirty.outcomes[0].stats.solver.disk_hits;
    let wp_disk_hits = dirty.outcomes[0].stats.wp_cache.disk_hits;
    let _ = std::fs::remove_dir_all(&cache_dir);

    let section = obj! {
        "corpus_monitors" => corpus.len(),
        "corpus_seed" => spec.seed,
        "cold_ms" => ms(cold.wall),
        "warm_ms" => ms(warm.wall),
        "warm_speedup" => fixed(ratio(cold.wall.as_secs_f64(), warm.wall.as_secs_f64()), 3),
        "dirty_ms" => ms(dirty.wall),
        // The part of `warm_ms` spent reading and validating the artifact.
        "load_ms" => ms(warm.context_wall),
        "artifact_bytes" => saved.bytes,
        "artifact_entries" => obj! {
            "sat" => saved.sat,
            "qe" => saved.qe,
            "wp" => saved.wp,
            "outcomes" => saved.outcomes,
        },
        "offered_entries" => offered.total(),
        "outcomes_replayed" => replayed,
        "outcomes_replayed_share" => fixed(ratio(replayed as f64, corpus.len() as f64), 4),
        "outcomes_identical" => outcomes_equal(&cold.outcomes, &warm.outcomes),
        "dirty_outcomes_replayed" => outcome_counter(&dirty.context, "outcome_hits"),
        "dirty_reanalyzed" => reanalyzed,
        "dirty_clean_misses" => clean_misses,
        "dirty_solver_disk_hits" => solver_disk_hits,
        "dirty_wp_disk_hits" => wp_disk_hits,
        "dirty_disk_hits" => solver_disk_hits.min(wp_disk_hits),
    };
    ledger.insert("persistence".into(), section);
}

/// One benchmark's exploration: the DPOR report and wall time, and the naive
/// enumerator's execution count and wall time if it ran.
type Explored = (ExploreReport, Duration, Option<(usize, Duration)>);

/// Explores `benchmark`'s workload of `shape` (threads, operations per
/// thread) on the shared pool: DPOR with lockstep conformance checking under
/// the solver-refined independence relation (its pairwise guard-disjointness
/// / commutation proofs go through the context's memoizing solver, once per
/// monitor, and are counted in its `disjointness()`), then, if `naive`,
/// plain enumeration counting only. A divergence is printed with its
/// minimised schedule.
fn explore_benchmark(
    context: &SharedAnalysisContext,
    benchmark: &Benchmark,
    explicit: &ExplicitMonitor,
    (threads, ops_per_thread): (usize, usize),
    preemption_bound: Option<usize>,
    naive: bool,
) -> Explored {
    let monitor = benchmark.monitor();
    let table = check_monitor(&monitor).expect("benchmark checks");
    let workload = benchmark_workload(benchmark, &monitor, &table, threads, ops_per_thread)
        .unwrap_or_else(|e| panic!("{} failed workload construction: {e}", benchmark.name));
    let refined = refine_independence(&monitor, &table, context.solver(), context.disjointness());
    let dpor_config = ExploreConfig {
        preemption_bound,
        scheduler: Some(Arc::clone(Scheduler::global())),
        independence: Some(Arc::new(RefinedIndependence {
            table: refined,
            ..RefinedIndependence::default()
        })),
        ..ExploreConfig::default()
    };
    let naive_config = ExploreConfig {
        strategy: Strategy::Naive,
        check: false,
        independence: None,
        ..dpor_config.clone()
    };
    let run = |config: &ExploreConfig| {
        let start = Instant::now();
        let report = explore(&monitor, &table, explicit, &workload, config)
            .unwrap_or_else(|e| panic!("{} failed exploration: {e}", benchmark.name));
        (report, start.elapsed())
    };
    let (dpor, dpor_wall) = run(&dpor_config);
    for divergence in &dpor.divergences {
        eprintln!(
            "{}: implicit/explicit divergence ({:?} driver): {}\n{}",
            benchmark.name,
            divergence.driver,
            divergence.reason,
            render_trace(&monitor, &divergence.trace),
        );
    }
    let naive = naive
        .then(|| run(&naive_config))
        .map(|(r, wall)| (r.executions(), wall));
    (dpor, dpor_wall, naive)
}

/// Bounded schedule exploration of `benchmarks` at `shape`, each as
/// `explore_benchmark` does it; without `naive` the naive columns are
/// `null`. Writes `explore`.
pub fn exploration(
    ledger: &mut Ledger,
    benchmarks: &[Benchmark],
    shape: (usize, usize),
    preemption_bound: Option<usize>,
    naive: bool,
) {
    let pipeline = Expresso::new();
    let context = SharedAnalysisContext::new(pipeline.config());
    let mut rows = Vec::new();
    let (mut dpor_total, mut naive_total, mut reduction_sum) = (0, 0, 0.0);
    let (mut blocked, mut divergences) = (0, 0);
    let (mut dpor_time, mut transitions) = (Duration::ZERO, 0);
    for benchmark in benchmarks {
        let outcome = pipeline
            .analyze_with_context(&context, &benchmark.monitor())
            .unwrap_or_else(|e| panic!("{} failed analysis: {e}", benchmark.name));
        let before = context.disjointness_stats().queries;
        let (dpor, dpor_wall, naive_run) = explore_benchmark(
            &context,
            benchmark,
            &outcome.explicit,
            shape,
            preemption_bound,
            naive,
        );
        let proofs = context.disjointness_stats().queries - before;
        let naive_executions = naive_run.map(|(executions, _)| executions);
        let reduction = naive_executions.map(|n| ratio(n as f64, dpor.executions() as f64));
        dpor_time += dpor_wall;
        transitions += dpor.transitions();
        dpor_total += dpor.executions();
        naive_total += naive_executions.unwrap_or(0);
        reduction_sum += reduction.unwrap_or(0.0);
        blocked += dpor.sleep_set_blocked();
        divergences += dpor.divergences.len();
        rows.push(obj! {
            "name" => benchmark.name,
            "dpor_executions" => dpor.executions(),
            "naive_executions" => naive_executions,
            "reduction" => reduction.map(|r| fixed(r, 3)),
            "transitions" => dpor.transitions(),
            "sleep_prunes" => dpor.implicit.sleep_prunes + dpor.explicit.sleep_prunes,
            "sleep_set_blocked" => dpor.sleep_set_blocked(),
            "disjointness_queries" => proofs,
            "capped_subtrees" => dpor.implicit.capped_roots + dpor.explicit.capped_roots,
            "divergences" => dpor.divergences.len(),
            "dpor_ms" => ms(dpor_wall),
            "naive_ms" => naive_run.map(|(_, wall)| ms(wall)),
        });
    }
    // The aggregate factor is dominated by whichever monitor has the largest
    // naive schedule space; the mean weights every benchmark equally, so it
    // is the one gated.
    let reduction_factor = ratio(naive_total as f64, dpor_total as f64);
    let mean_reduction = ratio(reduction_sum, rows.len() as f64);
    let section = obj! {
        "threads" => shape.0,
        "ops_per_thread" => shape.1,
        "preemption_bound" => preemption_bound,
        "total_dpor_executions" => dpor_total,
        "total_dpor_ms" => ms(dpor_time),
        "ns_per_transition" => fixed(ratio(dpor_time.as_secs_f64() * 1e9, transitions as f64), 1),
        "total_naive_executions" => naive.then_some(naive_total),
        "reduction_factor" => naive.then(|| fixed(reduction_factor, 3)),
        "mean_reduction" => naive.then(|| fixed(mean_reduction, 3)),
        "sleep_set_blocked" => blocked,
        "disjointness_queries" => context.disjointness_stats().queries,
        "divergences" => divergences,
        "per_benchmark" => rows,
    };
    ledger.insert("explore".into(), section);
}

/// The span every other span of [`instrumented`] is measured against.
const ROOT_SPAN: &str = "bench.instrumented";

/// One pass with span recording on, run after every timed pass so those keep
/// measuring the tracing-disabled path: `benchmarks` analysed as a suite,
/// translated, the first two explored at 2 threads x 1 operation, the caches
/// saved and loaded back. The Chrome trace goes to `trace_path` (a scratch
/// file when `None`) and everything reported is read back from that file, as
/// a consumer would. Writes `observability`.
pub fn instrumented(ledger: &mut Ledger, benchmarks: &[Benchmark], trace_path: Option<PathBuf>) {
    let was_enabled = expresso_obs::enabled();
    let scratch = scratch_dir("instrumented");
    let trace_path = trace_path.unwrap_or_else(|| scratch.join("trace.json"));
    let config = ExpressoConfig {
        cache_dir: Some(scratch.clone()),
        trace_path: Some(trace_path.clone()),
        ..ExpressoConfig::default()
    };
    let _ = expresso_obs::drain();
    // Constructing a context with a trace path turns span recording on.
    let pipeline = Expresso::with_config(config.clone());
    let context = SharedAnalysisContext::new(&config);
    let root = expresso_obs::SpanGuard::enter(ROOT_SPAN);
    let outcomes: Vec<AnalysisOutcome> = {
        let _span = expresso_obs::span!("bench.analysis");
        let monitors: Vec<Monitor> = benchmarks.iter().map(|b| b.monitor()).collect();
        pipeline
            .analyze_suite(&context, &monitors)
            .into_iter()
            .zip(benchmarks)
            .map(|(o, b)| o.unwrap_or_else(|e| panic!("{} failed analysis: {e}", b.name)))
            .collect()
    };
    {
        let _span = expresso_obs::span!("bench.codegen");
        for outcome in &outcomes {
            assert!(
                !to_java(&outcome.explicit).is_empty(),
                "codegen produced an empty translation"
            );
        }
    }
    {
        let _span = expresso_obs::span!("bench.explore");
        for (benchmark, outcome) in benchmarks.iter().zip(&outcomes).take(2) {
            let (report, ..) =
                explore_benchmark(&context, benchmark, &outcome.explicit, (2, 1), None, false);
            assert!(
                report.divergences.is_empty(),
                "{} diverged under the instrumented pass",
                benchmark.name
            );
        }
    }
    {
        let _span = expresso_obs::span!("bench.persist");
        context
            .persist()
            .expect("persisting the instrumented pass's caches")
            .expect("a cache directory is configured");
        match expresso_persist::load(&scratch) {
            expresso_persist::LoadResult::Loaded(_) => {}
            other => panic!("the saved artifact failed to round-trip: {other:?}"),
        }
    }
    drop(root);
    expresso_obs::set_enabled(was_enabled);
    let traces = expresso_obs::drain();
    expresso_obs::write_chrome_trace(&trace_path, &traces)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", trace_path.display()));
    let metrics = context.metrics_registry().snapshot().to_value();

    let text = std::fs::read_to_string(&trace_path)
        .unwrap_or_else(|e| panic!("cannot re-read {}: {e}", trace_path.display()));
    let _ = std::fs::remove_dir_all(&scratch);
    let parsed = expresso_obs::parse_chrome_trace(&text);
    if let Err(e) = &parsed {
        eprintln!("{}: not a Chrome trace: {e}", trace_path.display());
    }
    let well_formed = parsed.is_ok();
    let events = parsed.unwrap_or_default();
    let nesting = expresso_obs::check_nesting(&events);
    if let Err(e) = &nesting {
        eprintln!("{}: spans are not nested: {e}", trace_path.display());
    }
    let mut subsystems: Vec<&str> = events.iter().map(|e| e.cat.as_str()).collect();
    subsystems.sort_unstable();
    subsystems.dedup();
    let missing = ["smt", "vcgen", "core", "explore"]
        .iter()
        .filter(|required| !subsystems.contains(required))
        .count();
    let wall_us = events
        .iter()
        .filter(|e| e.name == ROOT_SPAN)
        .map(|e| e.dur_us)
        .fold(0.0, f64::max);
    let phases = expresso_obs::attribute_phases(&traces)
        .into_iter()
        .map(|phase| {
            obj! {
                "phase" => phase.name,
                "total_ms" => fixed(phase.total_ns as f64 / 1e6, 3),
                "count" => phase.count,
            }
        });
    let coverage = expresso_obs::trace_coverage(&events, ROOT_SPAN).unwrap_or(0.0);
    let section = obj! {
        "traced_during_profiling" => was_enabled,
        "instrumented_wall_ms" => fixed(wall_us / 1e3, 3),
        "span_count" => events.len(),
        "thread_count" => traces.len(),
        "trace_well_formed" => well_formed,
        "nesting_balanced" => nesting.is_ok(),
        "subsystems" => Value::from_iter(subsystems.iter().copied()),
        "subsystem_count" => subsystems.len(),
        "missing_subsystems" => missing,
        "span_coverage" => fixed(coverage, 4),
        "phases" => Value::from_iter(phases),
        "metrics" => metrics,
    };
    ledger.insert("observability".into(), section);
}
