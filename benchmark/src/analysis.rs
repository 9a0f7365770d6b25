//! The three analysis workloads: `table1_cold`, `corpus_cold` and
//! `corpus_warm_edit`. The operation is one monitor analysed, source text in,
//! explicit-signal monitor (and, for Table 1, Java) out.

use crate::harness::{self, pool_delta, report_pool, shuffled_suite, traced_rng, Opts, Traced};
use crate::metrics::Report;
use crate::stats;
use expresso_repro::abduction::{infer_monitor_invariant_configured, AbductionConfig};
use expresso_repro::core::{
    place_signals_with, to_java, AnalysisOutcome, Expresso, ExpressoConfig, PlacementConfig,
    SchedulerStats, SharedAnalysisContext,
};
use expresso_repro::exec::Executor;
use expresso_repro::logic::{Formula, Lcg};
use expresso_repro::monitor_lang::{check_monitor, parse_monitor, ExplicitMonitor, Monitor};
use expresso_repro::obs;
use expresso_repro::persist;
use expresso_repro::suite::{self, Benchmark};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Monitors in the generated corpus.
pub const CORPUS_SIZE: usize = 500;

// ---------------------------------------------------------------------------
// Expected placements
// ---------------------------------------------------------------------------

/// One row of `expected/placements.tsv`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub notifications: usize,
    pub broadcasts: usize,
    pub conditional: usize,
    pub invariant_conjuncts: usize,
    /// Methods none of whose CCRs may notify anybody.
    pub silent: Vec<String>,
}

/// The hand-checked placements, by suite monitor name.
pub fn expected_placements() -> BTreeMap<String, Expected> {
    let text = include_str!("../expected/placements.tsv");
    text.lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .map(|line| {
            let cols: Vec<&str> = line.split('\t').collect();
            let num = |i: usize| -> usize {
                cols[i]
                    .parse()
                    .unwrap_or_else(|_| panic!("placements.tsv: bad count in `{line}`"))
            };
            assert!(cols.len() >= 6, "placements.tsv: short row `{line}`");
            let silent = match cols[5] {
                "-" => Vec::new(),
                names => names.split(',').map(str::to_owned).collect(),
            };
            (
                cols[0].to_owned(),
                Expected {
                    notifications: num(1),
                    broadcasts: num(2),
                    conditional: num(3),
                    invariant_conjuncts: num(4),
                    silent,
                },
            )
        })
        .collect()
}

/// Why `explicit` is not the expected placement, if it is not.
pub fn placement_mismatch(
    explicit: &ExplicitMonitor,
    invariant_conjuncts: usize,
    expected: &Expected,
) -> Option<String> {
    let got = (
        explicit.notification_count(),
        explicit.broadcast_count(),
        explicit.conditional_count(),
        invariant_conjuncts,
    );
    let want = (
        expected.notifications,
        expected.broadcasts,
        expected.conditional,
        expected.invariant_conjuncts,
    );
    if got != want {
        return Some(format!(
            "(notifications, broadcasts, conditional, conjuncts) = {got:?}, expected {want:?}"
        ));
    }
    expected.silent.iter().find_map(|name| {
        let method = explicit.monitor.method(name)?;
        let noisy = method
            .ccrs
            .iter()
            .any(|ccr| !explicit.notifications_for(*ccr).is_empty());
        noisy.then(|| format!("method {name} must not notify"))
    })
}

// ---------------------------------------------------------------------------
// The pipeline, re-composed from public calls (traced run only)
// ---------------------------------------------------------------------------

/// What the staged pipeline produces for one monitor.
struct Staged {
    explicit: ExplicitMonitor,
    invariant: Formula,
    candidates: usize,
    conjuncts: usize,
    triples: usize,
    pairs: usize,
    /// Weakest preconditions this monitor's own cache session had to compute.
    wp_misses: usize,
}

impl Staged {
    /// Fails unless the staged pipeline produced what `Expresso` did.
    fn agrees_with(&self, outcome: &AnalysisOutcome) -> Result<(), String> {
        if self.explicit == outcome.explicit && self.invariant == outcome.invariant {
            Ok(())
        } else {
            Err("staged pipeline disagrees with Expresso::analyze".to_owned())
        }
    }
}

/// `Expresso::analyze_with_context`, spelled out call by call so that each
/// public entry point gets a `bench.<layer>.<fn>` span of its own. The
/// caller checks the result against what `Expresso` itself produced.
fn staged_analysis(
    context: &SharedAnalysisContext,
    name: &str,
    source: &str,
) -> Result<Staged, String> {
    let _op = obs::span!("bench.op", "{name}");
    let monitor = {
        let _span = obs::span!("bench.monitor-lang.parse");
        parse_monitor(source).map_err(|e| format!("{name}: {e}"))?
    };
    let table = {
        let _span = obs::span!("bench.monitor-lang.check");
        check_monitor(&monitor).map_err(|e| format!("{name}: {e:?}"))?
    };
    let solver = context.solver();
    solver.begin_analysis_epoch();
    let wp_cache = context.wp_store().session();
    let inferred = {
        let _span = obs::span!("bench.abduction.invariant");
        let abduction = AbductionConfig {
            executor: Some(Arc::clone(context.scheduler()) as Arc<dyn Executor>),
            wp_cache: Some(Arc::clone(&wp_cache)),
            ..AbductionConfig::default()
        };
        infer_monitor_invariant_configured(&monitor, &table, solver, &abduction)
    };
    let (explicit, report) = {
        let _span = obs::span!("bench.core.placement");
        let placement = PlacementConfig {
            wp_cache: Some(Arc::clone(&wp_cache)),
            scheduler: Some(Arc::clone(context.scheduler())),
            ..PlacementConfig::default()
        };
        place_signals_with(&monitor, &table, solver, &inferred.invariant, &placement)
    };
    Ok(Staged {
        explicit,
        invariant: inferred.invariant,
        candidates: inferred.candidates,
        conjuncts: inferred.kept,
        triples: report.triples_checked,
        pairs: report.pairs_considered,
        wp_misses: wp_cache.stats().misses,
    })
}

fn staged_codegen(explicit: &ExplicitMonitor) -> String {
    let _span = obs::span!("bench.core.codegen");
    to_java(explicit)
}

fn staged_context(config: &ExpressoConfig) -> SharedAnalysisContext {
    let _span = obs::span!("bench.core.context_new");
    SharedAnalysisContext::new(config)
}

// ---------------------------------------------------------------------------
// Work counters of a traced pass
// ---------------------------------------------------------------------------

/// Deterministic work counts of one traced pass, summed over the contexts
/// and monitors it touched.
#[derive(Debug, Default)]
struct Work {
    monitors: usize,
    source_bytes: usize,
    formula_nodes: usize,
    term_nodes: usize,
    lock_contentions: usize,
    sat_queries: usize,
    validity_queries: usize,
    cache_hits: usize,
    cache_misses: usize,
    memo_hits: usize,
    memo_lookups: usize,
    qe_calls: usize,
    cross_analysis_hits: usize,
    solver_disk_hits: usize,
    wp_hits: usize,
    wp_misses: usize,
    wp_cross: usize,
    wp_disk: usize,
    disjointness_queries: usize,
    disjointness_hits: usize,
    candidates: usize,
    conjuncts: usize,
    triples: usize,
    pairs: usize,
    notifications: usize,
    broadcasts: usize,
    conditional: usize,
    codegen_bytes: usize,
}

impl Work {
    fn add_context(&mut self, context: &SharedAnalysisContext) {
        let arena = context.interner_stats();
        self.formula_nodes += arena.formula_nodes;
        self.term_nodes += arena.term_nodes;
        self.lock_contentions += arena.lock_contentions;
        let s = context.stats();
        self.sat_queries += s.sat_queries;
        self.validity_queries += s.validity_queries;
        self.cache_hits += s.cache_hits;
        self.cache_misses += s.cache_misses;
        let hits = s.cache_hits + s.qe_cache_hits + s.theory_cache_hits;
        self.memo_hits += hits;
        self.memo_lookups += hits + s.cache_misses + s.qe_cache_misses + s.theory_cache_misses;
        self.qe_calls += s.quantifier_eliminations;
        self.cross_analysis_hits += s.cross_analysis_hits;
        self.solver_disk_hits += s.disk_hits;
        let wp = context.wp_stats();
        self.wp_hits += wp.hits;
        self.wp_misses += wp.misses;
        self.wp_cross += wp.cross_monitor_hits;
        self.wp_disk += wp.disk_hits;
        let d = context.disjointness_stats();
        self.disjointness_queries += d.queries;
        self.disjointness_hits += d.hits;
    }

    fn add_monitor(&mut self, source: &str, staged: &Staged, java: Option<&str>) {
        self.monitors += 1;
        self.source_bytes += source.len();
        self.candidates += staged.candidates;
        self.conjuncts += staged.conjuncts;
        self.triples += staged.triples;
        self.pairs += staged.pairs;
        self.notifications += staged.explicit.notification_count();
        self.broadcasts += staged.explicit.broadcast_count();
        self.conditional += staged.explicit.conditional_count();
        self.codegen_bytes += java.map_or(0, str::len);
    }

    fn report(&self, report: &mut Report, pool: &SchedulerStats, traced: &Traced) {
        let ratio = |num: usize, den: usize| stats::ratio(num as f64, den as f64);
        report.set("monitor-lang.source_bytes", self.source_bytes as f64);
        report.set(
            "monitor-lang.parse_ms",
            traced.inclusive_ms("bench.monitor-lang.parse"),
        );
        report.set(
            "monitor-lang.check_ms",
            traced.inclusive_ms("bench.monitor-lang.check"),
        );
        report.set("logic.formula_nodes", self.formula_nodes as f64);
        report.set("logic.term_nodes", self.term_nodes as f64);
        report.set(
            "logic.nodes_per_monitor",
            ratio(self.formula_nodes + self.term_nodes, self.monitors),
        );
        report.set("logic.lock_contentions", self.lock_contentions as f64);
        report.set("smt.sat_queries", self.sat_queries as f64);
        report.set("smt.validity_queries", self.validity_queries as f64);
        report.set("smt.cache_hits", self.cache_hits as f64);
        report.set("smt.cache_misses", self.cache_misses as f64);
        report.set("smt.hit_rate", ratio(self.memo_hits, self.memo_lookups));
        report.set("smt.qe_calls", self.qe_calls as f64);
        report.set("smt.cross_analysis_hits", self.cross_analysis_hits as f64);
        report.set("smt.disk_hits", self.solver_disk_hits as f64);
        report.set("vcgen.wp_hits", self.wp_hits as f64);
        report.set("vcgen.wp_misses", self.wp_misses as f64);
        report.set(
            "vcgen.wp_hit_rate",
            ratio(self.wp_hits, self.wp_hits + self.wp_misses),
        );
        report.set("vcgen.wp_cross_monitor_hits", self.wp_cross as f64);
        report.set("vcgen.wp_disk_hits", self.wp_disk as f64);
        report.set(
            "vcgen.disjointness_queries",
            self.disjointness_queries as f64,
        );
        report.set("vcgen.disjointness_hits", self.disjointness_hits as f64);
        let invariant_ms = traced.inclusive_ms("bench.abduction.invariant");
        report.set("abduction.invariant_ms", invariant_ms);
        report.set("abduction.candidates", self.candidates as f64);
        report.set("abduction.conjuncts_kept", self.conjuncts as f64);
        report.set("abduction.tasks", pool.abduction_tasks as f64);
        let op_ms = traced.inclusive_ms("bench.op");
        report.set(
            "abduction.share_of_analysis",
            stats::ratio(invariant_ms, op_ms),
        );
        report.set(
            "core.placement_ms",
            traced.inclusive_ms("bench.core.placement"),
        );
        report.set("core.triples_checked", self.triples as f64);
        report.set("core.pairs_considered", self.pairs as f64);
        report.set(
            "core.signals",
            (self.notifications - self.broadcasts) as f64,
        );
        report.set("core.broadcasts", self.broadcasts as f64);
        report.set("core.conditional_notifications", self.conditional as f64);
        report.set("core.codegen_ms", traced.inclusive_ms("bench.core.codegen"));
        report.set("core.codegen_bytes", self.codegen_bytes as f64);
        report.set(
            "core.context_new_ms",
            traced.inclusive_ms("bench.core.context_new"),
        );
        report_pool(report, pool);
    }
}

// ---------------------------------------------------------------------------
// table1_cold
// ---------------------------------------------------------------------------

/// One Table 1 operation: parse, analyse in a private context, emit Java.
fn table1_operation(benchmark: &Benchmark) -> Result<(AnalysisOutcome, String), String> {
    let monitor = parse_monitor(benchmark.source).map_err(|e| e.to_string())?;
    let outcome = Expresso::new()
        .analyze(&monitor)
        .map_err(|e| e.to_string())?;
    let java = to_java(&outcome.explicit);
    Ok((outcome, java))
}

/// Paper Table 1: every suite monitor analysed from its source text with no
/// sharing between monitors, each call timed from outside.
pub fn table1_cold(opts: &Opts) -> Report {
    let mut report = Report::default();

    // Set-up: read the expected placements and analyse the suite once, which
    // also starts the analysis pool and fills the process's lazy state.
    let ((expected, reference), setup_s) = harness::timed_setup(|| {
        let expected = expected_placements();
        let reference: BTreeMap<&'static str, (AnalysisOutcome, String)> = suite::all()
            .iter()
            .map(|b| {
                let done = table1_operation(b)
                    .unwrap_or_else(|e| panic!("set-up: {} failed analysis: {e}", b.name));
                (b.name, done)
            })
            .collect();
        (expected, reference)
    });
    report.set("setup_s", setup_s);

    let mut rng = Lcg::new(opts.seed);
    let mut op_ms: Vec<f64> = Vec::new();
    let mut notifications = 0usize;
    let passes = harness::measured_window(opts.window_seconds(), || {
        notifications = 0;
        let pass = Instant::now();
        for benchmark in shuffled_suite(&mut rng) {
            let start = Instant::now();
            let done = table1_operation(&benchmark);
            op_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let verdict = done.and_then(|(outcome, java)| {
                std::hint::black_box(&java);
                notifications += outcome.explicit.notification_count();
                let row = expected
                    .get(benchmark.name)
                    .ok_or_else(|| "no row in expected/placements.tsv".to_owned())?;
                match placement_mismatch(&outcome.explicit, outcome.stats.invariant_conjuncts, row)
                {
                    Some(why) => Err(why),
                    None => Ok(()),
                }
            });
            report.record(
                1,
                verdict.map_err(|why| format!("{}: {why}", benchmark.name)),
            );
        }
        pass.elapsed().as_secs_f64()
    });
    let ops_per_pass = suite::all().len() as f64;
    report.set_pass_rate(ops_per_pass, &passes);
    report.set("analysis_monitors_per_s", report.get("ops_per_s"));
    let (tail_ms, pct) = stats::tail(&op_ms);
    report.set("analysis_p50_ms", stats::median(&op_ms));
    report.set("analysis_p99_ms", tail_ms);
    report.rows.push(format!(
        "analysis latency per monitor: p50 {:.3} ms, p{pct:.1} {tail_ms:.3} ms ({} samples)",
        stats::median(&op_ms),
        op_ms.len()
    ));
    report.set("notifications_emitted", notifications as f64);

    if opts.trace {
        let mut work = Work::default();
        let config = ExpressoConfig::default();
        let mut pool = SchedulerStats::default();
        let mut rng = traced_rng(opts);
        let traced = harness::traced_pass("table1_cold", || {
            pool = pool_delta(|| {
                for benchmark in shuffled_suite(&mut rng) {
                    let context = staged_context(&config);
                    let staged = staged_analysis(&context, benchmark.name, benchmark.source);
                    let verdict = staged.and_then(|staged| {
                        let java = staged_codegen(&staged.explicit);
                        work.add_context(&context);
                        work.add_monitor(benchmark.source, &staged, Some(&java));
                        let (outcome, reference_java) = &reference[benchmark.name];
                        staged.agrees_with(outcome)?;
                        if &java != reference_java {
                            return Err("staged code generation disagrees with to_java".into());
                        }
                        Ok(())
                    });
                    report.record(
                        1,
                        verdict.map_err(|why| format!("{} (traced): {why}", benchmark.name)),
                    );
                }
            });
        });
        harness::report_trace(&mut report, &traced, stats::median(&passes));
        work.report(&mut report, &pool, &traced);
    }

    report
}

// ---------------------------------------------------------------------------
// corpus_cold and corpus_warm_edit
// ---------------------------------------------------------------------------

/// The scratch cache directory of one corpus workload, emptied.
fn fresh_cache_dir(workload: &str) -> PathBuf {
    let dir = harness::out_dir().join(format!("cache-{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create cache directory {}: {e}", dir.display()));
    dir
}

fn remove_artifact(dir: &std::path::Path) {
    match std::fs::remove_file(persist::artifact_path(dir)) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => panic!("cannot remove the artifact in {}: {e}", dir.display()),
    }
}

/// Analyses the suite once in a throw-away shared context: starts the pool
/// and fills lazy process state, so the first measured pass is not the one
/// that pays for them.
fn warm_up_process() {
    let pipeline = Expresso::new();
    let context = SharedAnalysisContext::new(pipeline.config());
    let monitors: Vec<Monitor> = suite::all().iter().map(Benchmark::monitor).collect();
    for outcome in pipeline.analyze_suite(&context, &monitors) {
        outcome.unwrap_or_else(|e| panic!("set-up: suite monitor failed analysis: {e}"));
    }
}

/// The configuration of a corpus workload: the default one, caching in `dir`.
fn cached_config(dir: &std::path::Path) -> ExpressoConfig {
    ExpressoConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..ExpressoConfig::default()
    }
}

/// Names and sources of the seeded corpus.
fn generate_corpus(seed: u64) -> (Vec<String>, Vec<String>) {
    suite::generate(&suite::CorpusSpec {
        size: CORPUS_SIZE,
        seed,
    })
    .into_iter()
    .map(|m| (m.name, m.source))
    .unzip()
}

fn parse_all(sources: &[String]) -> Result<Vec<Monitor>, String> {
    sources
        .iter()
        .map(|s| parse_monitor(s).map_err(|e| e.to_string()))
        .collect()
}

fn analyze_corpus(
    pipeline: &Expresso,
    context: &SharedAnalysisContext,
    monitors: &[Monitor],
) -> Vec<Result<AnalysisOutcome, String>> {
    pipeline
        .analyze_suite(context, monitors)
        .into_iter()
        .map(|o| o.map_err(|e| e.to_string()))
        .collect()
}

/// The traced counterpart of `analyze_suite`: one pool task per monitor, each
/// running the staged pipeline from source text.
fn staged_suite(
    context: &SharedAnalysisContext,
    names: &[String],
    sources: &[String],
) -> Vec<Result<Staged, String>> {
    let slots: Vec<Mutex<Option<Result<Staged, String>>>> =
        sources.iter().map(|_| Mutex::new(None)).collect();
    context.scheduler().scope(|scope| {
        for ((name, source), slot) in names.iter().zip(sources).zip(&slots) {
            scope.spawn(move || {
                let staged = staged_analysis(context, name, source);
                *slot.lock().expect("slot lock is never poisoned") = Some(staged);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock is never poisoned")
                .expect("every monitor was analysed")
        })
        .collect()
}

fn report_save(report: &mut Report, saved: &persist::SaveReport) {
    report.set("persist.artifact_bytes", saved.bytes as f64);
    report.set("artifact_mb", saved.bytes as f64 / (1024.0 * 1024.0));
    report.set("persist.entries_sat", saved.sat as f64);
    report.set("persist.entries_qe", saved.qe as f64);
    report.set("persist.entries_theory", saved.theory as f64);
    report.set("persist.entries_wp", saved.wp as f64);
}

/// 500 seeded variants of the 16 templates analysed in one shared context
/// that starts empty, then persisted.
pub fn corpus_cold(opts: &Opts) -> Report {
    let mut report = Report::default();
    let dir = fresh_cache_dir("corpus_cold");
    let config = cached_config(&dir);
    let pipeline = Expresso::with_config(config.clone());

    let ((names, sources), setup_s) = harness::timed_setup(|| {
        warm_up_process();
        generate_corpus(opts.seed)
    });
    report.set("setup_s", setup_s);

    let mut saved = None;
    let mut persist_error = None;
    // What `Expresso` produced in the last pass: the traced pass's reference.
    let mut last: Vec<Result<AnalysisOutcome, String>> = Vec::new();
    let passes = harness::measured_window(opts.window_seconds(), || {
        remove_artifact(&dir);
        let (outcomes, seconds) = harness::timed(|| match parse_all(&sources) {
            Ok(monitors) => {
                let context = SharedAnalysisContext::new(&config);
                let outcomes = analyze_corpus(&pipeline, &context, &monitors);
                match context.persist() {
                    Ok(written) => saved = written,
                    Err(e) => persist_error = Some(e.to_string()),
                }
                outcomes
            }
            Err(e) => vec![Err(e); sources.len()],
        });
        for (name, outcome) in names.iter().zip(&outcomes) {
            let verdict = outcome.as_ref().map(drop);
            report.record(1, verdict.map_err(|why| format!("{name}: {why}")));
        }
        last = outcomes;
        seconds
    });
    report.set_pass_rate(sources.len() as f64, &passes);
    report.set("analysis_monitors_per_s", report.get("ops_per_s"));
    let notifications: usize = last
        .iter()
        .flatten()
        .map(|o| o.explicit.notification_count())
        .sum();
    report.set("notifications_emitted", notifications as f64);
    match (&saved, persist_error) {
        (Some(saved), None) => report_save(&mut report, saved),
        (_, error) => report.fail(
            1,
            format!("no artifact was written: {}", error.unwrap_or_default()),
        ),
    }

    if opts.trace {
        let mut work = Work::default();
        let mut pool = SchedulerStats::default();
        let traced = harness::traced_pass("corpus_cold", || {
            pool = pool_delta(|| {
                remove_artifact(&dir);
                let context = staged_context(&config);
                let staged = staged_suite(&context, &names, &sources);
                let artifact = {
                    let _span = obs::span!("bench.persist.export");
                    persist::export_artifact(
                        context.solver(),
                        context.wp_store(),
                        context.disjointness(),
                    )
                };
                let written = {
                    let _span = obs::span!("bench.persist.save");
                    persist::save_artifact(&dir, &artifact)
                };
                if let Err(e) = written {
                    report.fail(1, format!("traced save: {e}"));
                }
                work.add_context(&context);
                let rows = names.iter().zip(&sources).zip(staged).zip(&last);
                for (((name, source), staged), reference) in rows {
                    let verdict = staged.and_then(|staged| {
                        work.add_monitor(source, &staged, None);
                        match reference {
                            Ok(outcome) => staged.agrees_with(outcome),
                            Err(_) => Err("no untraced outcome to compare with".to_owned()),
                        }
                    });
                    report.record(1, verdict.map_err(|why| format!("{name} (traced): {why}")));
                }
            });
        });
        harness::report_trace(&mut report, &traced, stats::median(&passes));
        work.report(&mut report, &pool, &traced);
        report.set(
            "persist.export_ms",
            traced.inclusive_ms("bench.persist.export"),
        );
        report.set("persist.save_ms", traced.inclusive_ms("bench.persist.save"));
    }

    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// The edit-one-file rebuild: the corpus re-analysed from the artifact a
/// cold run left behind, with one seeded monitor edited per pass.
pub fn corpus_warm_edit(opts: &Opts) -> Report {
    let mut report = Report::default();
    let dir = fresh_cache_dir("corpus_warm_edit");
    let config = cached_config(&dir);
    let pipeline = Expresso::with_config(config.clone());

    // Set-up: generate the corpus, analyse it cold and leave the artifact in
    // the cache directory; the cold outcomes are the reference every warm
    // pass is checked against.
    let ((names, sources, cold, saved), setup_s) = harness::timed_setup(|| {
        warm_up_process();
        remove_artifact(&dir);
        let (names, sources) = generate_corpus(opts.seed);
        let monitors = parse_all(&sources).unwrap_or_else(|e| panic!("set-up: {e}"));
        let context = SharedAnalysisContext::new(&config);
        let cold: Vec<AnalysisOutcome> = analyze_corpus(&pipeline, &context, &monitors)
            .into_iter()
            .map(|o| o.unwrap_or_else(|e| panic!("set-up: cold analysis failed: {e}")))
            .collect();
        let saved = context
            .persist()
            .unwrap_or_else(|e| panic!("set-up: cannot write the artifact: {e}"))
            .expect("a cache directory is configured");
        (names, sources, cold, saved)
    });
    report.set("setup_s", setup_s);
    report_save(&mut report, &saved);

    // Checks one warm outcome list against the cold reference: the unedited
    // monitors must come out identical, and exactly the edited one may have
    // recomputed a weakest precondition.
    let check = |edited: usize,
                 warm: Vec<Option<(&ExplicitMonitor, &Formula, usize)>>,
                 report: &mut Report,
                 tag: &str| {
        let mut reanalysed = 0usize;
        for (i, (name, warm)) in names.iter().zip(warm).enumerate() {
            let verdict = match warm {
                None => Err("analysis failed".to_owned()),
                Some((monitor, invariant, wp_misses)) => {
                    reanalysed += usize::from(wp_misses > 0);
                    if i != edited
                        && (*monitor != cold[i].explicit || *invariant != cold[i].invariant)
                    {
                        Err("warm outcome differs from the cold outcome".to_owned())
                    } else {
                        Ok(())
                    }
                }
            };
            report.record(1, verdict.map_err(|why| format!("{name}{tag}: {why}")));
        }
        if reanalysed != 1 {
            report.fail(
                1,
                format!("warm pass{tag} re-analysed {reanalysed} monitors, expected 1"),
            );
        }
    };

    let edit = |rng: &mut Lcg| {
        let edited = rng.index(sources.len());
        let mut edited_sources = sources.clone();
        edited_sources[edited] = suite::mutate_source(&sources[edited]);
        (edited, edited_sources)
    };
    let mut rng = Lcg::new(opts.seed);

    let mut seeded = None;
    let passes = harness::measured_window(opts.window_seconds(), || {
        let (edited, edited_sources) = edit(&mut rng);
        let (outcomes, seconds) = harness::timed(|| match parse_all(&edited_sources) {
            Ok(monitors) => {
                let context = SharedAnalysisContext::new(&config);
                seeded = context.warm_start();
                analyze_corpus(&pipeline, &context, &monitors)
            }
            Err(e) => vec![Err(e); sources.len()],
        });
        let warm = outcomes
            .iter()
            .map(|o| {
                let o = o.as_ref().ok()?;
                Some((&o.explicit, &o.invariant, o.stats.wp_cache.misses))
            })
            .collect();
        check(edited, warm, &mut report, "");
        seconds
    });
    report.set_pass_rate(sources.len() as f64, &passes);
    report.set("analysis_monitors_per_s", report.get("ops_per_s"));
    let seeded_entries = seeded.map_or(0, |s| s.total());
    report.set("persist.seeded_entries", seeded_entries as f64);
    if seeded_entries == 0 {
        report.fail(1, "warm passes did not load the artifact".to_owned());
    }

    if opts.trace {
        let mut work = Work::default();
        let mut pool = SchedulerStats::default();
        let traced = harness::traced_pass("corpus_warm_edit", || {
            pool = pool_delta(|| {
                let (edited, edited_sources) = edit(&mut traced_rng(opts));
                let context = staged_context(&config);
                let staged = staged_suite(&context, &names, &edited_sources);
                work.add_context(&context);
                for (source, staged) in edited_sources.iter().zip(&staged) {
                    if let Ok(staged) = staged {
                        work.add_monitor(source, staged, None);
                    }
                }
                let warm = staged
                    .iter()
                    .map(|s| {
                        let s = s.as_ref().ok()?;
                        Some((&s.explicit, &s.invariant, s.wp_misses))
                    })
                    .collect();
                check(edited, warm, &mut report, " (traced)");
            });
        });
        harness::report_trace(&mut report, &traced, stats::median(&passes));
        work.report(&mut report, &pool, &traced);
        let disk_hits = (work.solver_disk_hits + work.wp_disk) as f64;
        report.set(
            "persist.disk_hit_rate",
            stats::ratio(disk_hits, seeded_entries as f64),
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_placements_cover_the_suite_and_encode_section_2() {
        let expected = expected_placements();
        let suite = suite::all();
        assert_eq!(expected.len(), suite.len());
        for b in &suite {
            let row = expected
                .get(b.name)
                .unwrap_or_else(|| panic!("no row for {}", b.name));
            assert!(row.broadcasts <= row.notifications, "{}", b.name);
            assert!(row.conditional <= row.notifications, "{}", b.name);
            let monitor = b.monitor();
            for name in &row.silent {
                assert!(
                    monitor.method(name).is_some(),
                    "{}: no method {name}",
                    b.name
                );
            }
        }
        // Paper section 2: in the readers-writers lock, entering never signals.
        let rw = &expected["ReadersWriters"];
        assert_eq!(rw.silent, ["enterReader", "enterWriter"]);
        assert_eq!((rw.notifications, rw.broadcasts), (3, 1));
    }

    #[test]
    fn a_broadcast_everything_placement_is_a_mismatch() {
        let expected = expected_placements();
        let b = suite::all()
            .into_iter()
            .find(|b| b.name == "ReadersWriters")
            .unwrap();
        let naive = ExplicitMonitor::broadcast_all(b.monitor());
        assert!(placement_mismatch(&naive, 3, &expected["ReadersWriters"]).is_some());
    }

    #[test]
    fn seeded_suite_order_is_a_repeatable_permutation() {
        let order = |seed| -> Vec<&'static str> {
            shuffled_suite(&mut Lcg::new(seed))
                .iter()
                .map(|b| b.name)
                .collect()
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
        let mut sorted = order(7);
        sorted.sort_unstable();
        let mut all: Vec<&str> = suite::all().iter().map(|b| b.name).collect();
        all.sort_unstable();
        assert_eq!(sorted, all);
    }
}
