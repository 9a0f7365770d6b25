//! Cache/parallelism correctness: the shared memo tables, the analysis
//! fan-out, the on-disk warm start and span recording are pure optimisations.
//! For every monitor in the benchmark suite (and generated corpora), every
//! scheduling mode and every cache temperature must produce exactly the same
//! explicit-signal monitor, invariant and placement counters; any observable
//! divergence here is a soundness bug in the arena, the cache keying or the
//! parallel work split.

use expresso_repro::abduction::{infer_monitor_invariant_configured, AbductionConfig};
use expresso_repro::core::{
    place_signals_with, AnalysisOutcome, Expresso, ExpressoConfig, PlacementConfig,
    PlacementReport, SharedAnalysisContext,
};
use expresso_repro::logic::{EvalError, Formula, FormulaId, Valuation};
use expresso_repro::monitor_lang::{check_monitor, parse_monitor, ExplicitMonitor, Monitor};
use expresso_repro::persist::{self, Artifact, FormulaRow, LoadResult, Row};
use expresso_repro::smt::{SatResult, SolverStats};
use expresso_repro::suite::all;
use expresso_repro::suite::corpusgen::{generate, mutate_source, CorpusSpec};
use expresso_repro::vcgen::{WpCacheStats, WpError};
use std::sync::Arc;

/// Asserts that two analyses of one monitor agree on everything that is a
/// pure function of the monitor: the explicit monitor, the invariant, the
/// abduction candidate counts and every placement counter.
fn assert_same_analysis(label: &str, a: &AnalysisOutcome, b: &AnalysisOutcome) {
    assert_eq!(a.explicit, b.explicit, "{label}: explicit");
    assert_eq!(a.invariant, b.invariant, "{label}: invariant");
    assert_eq!(
        a.stats.invariant_candidates, b.stats.invariant_candidates,
        "{label}: invariant_candidates"
    );
    assert_eq!(
        a.stats.invariant_conjuncts, b.stats.invariant_conjuncts,
        "{label}: invariant_conjuncts"
    );
    assert_eq!(a.report.decisions, b.report.decisions, "{label}: decisions");
    assert_eq!(
        a.report.pairs_considered, b.report.pairs_considered,
        "{label}: pairs_considered"
    );
    assert_eq!(
        a.report.triples_checked, b.report.triples_checked,
        "{label}: triples_checked"
    );
    assert_eq!(a.report.skipped, b.report.skipped, "{label}: skipped");
    assert_eq!(
        a.stats.triples_checked, b.stats.triples_checked,
        "{label}: stats.triples_checked"
    );
}

/// Asserts that an analysis reproduces the monitor's row of the committed,
/// hand-checked `benchmark/expected/placements.tsv`: notification, broadcast,
/// conditional and invariant-conjunct counts, and the methods that must stay
/// silent. The solver is free to visit different conflict cores and SAT
/// models from one version to the next; this is what may not move with them.
fn assert_expected_placement(name: &str, outcome: &AnalysisOutcome) {
    let table = include_str!("../benchmark/expected/placements.tsv");
    let row: Vec<&str> = table
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| line.split('\t').collect::<Vec<_>>())
        .find(|cols| cols[0] == name)
        .unwrap_or_else(|| panic!("{name}: no row in placements.tsv"));
    let want: Vec<usize> = row[1..5]
        .iter()
        .map(|n| n.parse().expect("placements.tsv: count"))
        .collect();
    let got = [
        outcome.explicit.notification_count(),
        outcome.explicit.broadcast_count(),
        outcome.explicit.conditional_count(),
        outcome.stats.invariant_conjuncts,
    ];
    assert_eq!(
        got[..],
        want[..],
        "{name}: (notifications, broadcasts, conditional, conjuncts)"
    );
    for silent in row[5].split(',').filter(|&m| m != "-") {
        let method = outcome
            .explicit
            .monitor
            .method(silent)
            .unwrap_or_else(|| panic!("{name}: placements.tsv names unknown method {silent}"));
        for ccr in &method.ccrs {
            assert!(
                outcome.explicit.notifications_for(*ccr).is_empty(),
                "{name}: method {silent} must not notify"
            );
        }
    }
}

/// How `scheduler_modes_are_bit_identical_across_the_suite` hands the suite
/// to the pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Route {
    /// `analyze_with_context`, monitor by monitor, on the calling thread:
    /// the scheduler sees nothing.
    OneByOne,
    /// One `analyze_suite` call per monitor: a single fan-out task each.
    OneElementSuites,
    /// One `analyze_suite` call for all sixteen.
    WholeSuite,
}

#[test]
fn scheduler_modes_are_bit_identical_across_the_suite() {
    // The scheduler is a pure scheduling substrate: for every suite
    // monitor, `analysis_threads ∈ {1, 8}` × every route into the pipeline
    // must all produce bit-identical outcomes, candidate counts and
    // placement counters — both against each other and against a
    // stand-alone private-context analysis (inline, on this thread), which
    // in turn must reproduce the committed expected placement.
    let benchmarks = all();
    let monitors: Vec<_> = benchmarks.iter().map(|b| b.monitor()).collect();
    let reference: Vec<_> = monitors
        .iter()
        .zip(&benchmarks)
        .map(|(monitor, b)| {
            let outcome = Expresso::new()
                .analyze(monitor)
                .unwrap_or_else(|e| panic!("{}: reference analysis failed: {e}", b.name));
            assert_expected_placement(b.name, &outcome);
            outcome
        })
        .collect();
    for threads in [1usize, 8] {
        for route in [Route::OneByOne, Route::OneElementSuites, Route::WholeSuite] {
            let pipeline = Expresso::with_config(ExpressoConfig {
                analysis_threads: threads,
                ..ExpressoConfig::default()
            });
            // `analysis_threads != 0` builds a scheduler of its own, so its
            // counters are this arm's traffic and nobody else's.
            let context = SharedAnalysisContext::new(pipeline.config());
            let outcomes: Vec<_> = match route {
                Route::OneByOne => monitors
                    .iter()
                    .map(|m| pipeline.analyze_with_context(&context, m))
                    .collect(),
                Route::OneElementSuites => monitors
                    .iter()
                    .flat_map(|m| pipeline.analyze_suite(&context, std::slice::from_ref(m)))
                    .collect(),
                Route::WholeSuite => pipeline.analyze_suite(&context, &monitors),
            };
            for ((outcome, expected), b) in outcomes.iter().zip(&reference).zip(&benchmarks) {
                let label = format!("{}: analysis_threads={threads} {route:?}", b.name);
                let outcome = outcome
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{label}: analysis failed: {e}"));
                assert_same_analysis(&label, outcome, expected);
            }
            let pool = context.scheduler_stats();
            if route == Route::OneByOne {
                // A monitor on its own is analysed where it was asked for.
                assert_eq!(
                    pool.tasks_executed, 0,
                    "analysis_threads={threads} {route:?}: the scheduler was handed work"
                );
            } else {
                // Under a suite, one task per monitor and nothing nested: a
                // monitor's own analysis is sequential code.
                assert_eq!(
                    pool.tasks_executed,
                    monitors.len(),
                    "analysis_threads={threads} {route:?}: {pool:?}"
                );
            }
        }
    }
}

#[test]
fn suite_run_shares_wp_work_across_monitors() {
    // The fingerprinted suite-wide WP store must serve at least one monitor
    // from another monitor's entries (the suite contains structurally
    // overlapping counter and lock bodies by construction).
    let monitors: Vec<_> = all().iter().map(|b| b.monitor()).collect();
    let pipeline = Expresso::new();
    let context = SharedAnalysisContext::new(pipeline.config());
    let outcomes = pipeline.analyze_suite(&context, &monitors);
    assert!(outcomes.iter().all(|o| o.is_ok()));
    let store = context.wp_stats();
    assert!(store.hits > 0, "suite WP store saw no hits: {store:?}");
    assert!(
        store.cross_monitor_hits > 0,
        "no WP entry crossed a monitor boundary: {store:?}"
    );
    // Session counters partition the store counters exactly.
    let (hits, misses, cross) = outcomes.iter().fold((0, 0, 0), |acc, o| {
        let s = o.as_ref().unwrap().stats.wp_cache;
        (
            acc.0 + s.hits,
            acc.1 + s.misses,
            acc.2 + s.cross_monitor_hits,
        )
    });
    assert_eq!(hits, store.hits);
    assert_eq!(misses, store.misses);
    assert_eq!(cross, store.cross_monitor_hits);
}

#[test]
fn cached_run_reports_a_nonzero_hit_rate() {
    let rw = all()
        .into_iter()
        .find(|b| b.name == "ReadersWriters")
        .expect("suite contains the readers-writers benchmark");
    let outcome = Expresso::new().analyze(&rw.monitor()).unwrap();
    assert!(outcome.stats.solver.cache_hits > 0);
    assert!(outcome.stats.solver.cache_hit_rate() > 0.0);
}

// -------------------------------------------------------------------------
// Persistent warm starts: the on-disk artifact is a pure optimisation too.
// -------------------------------------------------------------------------

/// A unique scratch cache directory, removed and recreated per call.
fn scratch_cache_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xp-cache-eq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn persistent_config(dir: &std::path::Path) -> ExpressoConfig {
    ExpressoConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..ExpressoConfig::default()
    }
}

fn load_artifact(dir: &std::path::Path) -> Box<Artifact> {
    match persist::load(dir) {
        LoadResult::Loaded(artifact) => artifact,
        other => panic!("expected a loadable artifact, got {other:?}"),
    }
}

/// Every memo-table section in tree form: one `Debug`-printed line per
/// entry, sorted, with statements as their canonical bytes (nothing decodes
/// them). Row numbers, arena ids and store keys are all gone from it, so an
/// artifact, the arena that exported it and an arena seeded from it can be
/// compared entry for entry.
struct TreeView {
    sat: Vec<String>,
    qe: Vec<String>,
    wp: Vec<String>,
    disjointness: Vec<String>,
}

impl TreeView {
    fn sorted(mut self) -> Self {
        for section in [
            &mut self.sat,
            &mut self.qe,
            &mut self.wp,
            &mut self.disjointness,
        ] {
            section.sort_unstable();
        }
        self
    }

    /// Whether every entry of `self` is also an entry of `other`; the error
    /// names the first one that is not (the views are too big to print).
    fn is_within(&self, other: &TreeView) -> Result<(), String> {
        for (name, mine, theirs) in [
            ("sat", &self.sat, &other.sat),
            ("qe", &self.qe, &other.qe),
            ("wp", &self.wp, &other.wp),
            ("disjointness", &self.disjointness, &other.disjointness),
        ] {
            if let Some(lost) = mine.iter().find(|e| theirs.binary_search(e).is_err()) {
                return Err(format!("{name} entry without a counterpart: {lost}"));
            }
        }
        Ok(())
    }

    /// Whether the two views hold exactly the same entries.
    fn same_as(&self, other: &TreeView) -> Result<(), String> {
        self.is_within(other)?;
        other.is_within(self)
    }
}

fn wp_line(stmt: &[u8], post: Formula, result: Result<Formula, WpError>) -> String {
    format!("{stmt:?} {post:?} => {result:?}")
}

fn pair_line(a: (Formula, &[u8]), b: (Formula, &[u8]), independent: bool) -> String {
    format!("{a:?} | {b:?} => {independent}")
}

/// The tree view of an artifact, through [`Artifact::formula`].
fn view_of_artifact(artifact: &Artifact) -> TreeView {
    let tree = |row: Row| artifact.formula(row);
    TreeView {
        sat: artifact
            .sat()
            .iter()
            .map(|(key, verdict)| format!("{:?} => {verdict:?}", tree(*key)))
            .collect(),
        qe: artifact
            .qe()
            .iter()
            .map(|(key, result)| format!("{:?} => {:?}", tree(*key), result.clone().map(tree)))
            .collect(),
        wp: artifact
            .wp()
            .iter()
            .map(|(stmt, post, result)| {
                wp_line(
                    &artifact.statements()[*stmt as usize],
                    tree(*post),
                    result.clone().map(tree),
                )
            })
            .collect(),
        disjointness: artifact
            .disjointness()
            .iter()
            .map(|e| {
                let body = |row: Row| &*artifact.statements()[row as usize];
                pair_line(
                    (tree(e.guard_a), body(e.body_a)),
                    (tree(e.guard_b), body(e.body_b)),
                    e.independent,
                )
            })
            .collect(),
    }
    .sorted()
}

/// The tree view of a context's live memo tables, through its own arena.
fn view_of_context(context: &SharedAnalysisContext) -> TreeView {
    let interner = context.interner();
    let tree = |id: FormulaId| interner.formula(id);
    let solver = context.solver();
    TreeView {
        sat: solver
            .export_sat_cache()
            .into_iter()
            .map(|(key, verdict)| format!("{:?} => {verdict:?}", tree(key)))
            .collect(),
        qe: solver
            .export_qe_cache()
            .into_iter()
            .map(|(key, result)| format!("{:?} => {:?}", tree(key), result.map(tree)))
            .collect(),
        wp: {
            let wp = context.wp_store().export();
            wp.entries
                .into_iter()
                .map(|(stmt, post, result)| {
                    wp_line(&wp.statements[stmt], tree(post), result.map(tree))
                })
                .collect()
        },
        disjointness: context
            .disjointness()
            .export_entries()
            .into_iter()
            .map(|(ga, ba, gb, bb, independent)| {
                pair_line((tree(ga), &ba), (tree(gb), &bb), independent)
            })
            .collect(),
    }
    .sorted()
}

/// What the pipeline decides for one monitor, composed call by call from the
/// leaf API — `context.solver()`, `context.wp_store().session()` — as
/// `benchmark/src/analysis.rs::staged_analysis` does. No outcome record is
/// looked up or filed on this route, so it is what keeps the leaf tables
/// honest now that `Expresso` no longer reads them on a hit.
struct Staged {
    explicit: ExplicitMonitor,
    invariant: Formula,
    candidates: usize,
    conjuncts: usize,
    report: PlacementReport,
    wp: WpCacheStats,
}

fn staged_analysis(context: &SharedAnalysisContext, monitor: &Monitor) -> Staged {
    let table = check_monitor(monitor).expect("corpus monitors check");
    let solver = context.solver();
    solver.begin_analysis_epoch();
    let wp_cache = context.wp_store().session();
    let abduction = AbductionConfig {
        wp_cache: Some(Arc::clone(&wp_cache)),
        ..AbductionConfig::default()
    };
    let inferred = infer_monitor_invariant_configured(monitor, &table, solver, &abduction);
    let placement = PlacementConfig {
        wp_cache: Some(Arc::clone(&wp_cache)),
        ..PlacementConfig::default()
    };
    let (explicit, report) =
        place_signals_with(monitor, &table, solver, &inferred.invariant, &placement);
    Staged {
        explicit,
        invariant: inferred.invariant,
        candidates: inferred.candidates,
        conjuncts: inferred.kept,
        report,
        wp: wp_cache.stats(),
    }
}

/// The arena of a context nothing was interned into.
fn fresh_arena() -> (usize, usize) {
    let fresh = SharedAnalysisContext::new(&ExpressoConfig::default()).interner_stats();
    assert_eq!((fresh.formula_nodes, fresh.term_nodes), (2, 0));
    (fresh.formula_nodes, fresh.term_nodes)
}

fn arena_of(context: &SharedAnalysisContext) -> (usize, usize) {
    let arena = context.interner_stats();
    (arena.formula_nodes, arena.term_nodes)
}

/// The three counters of the `core.outcomes` metric group.
fn outcome_counters(context: &SharedAnalysisContext) -> (u64, u64, u64) {
    let snapshot = context.metrics_registry().snapshot();
    let read = |name| {
        snapshot
            .counter("core.outcomes", name)
            .unwrap_or_else(|| panic!("no core.outcomes/{name} in the snapshot"))
    };
    (
        read("outcome_hits"),
        read("outcome_misses"),
        read("seed_forced"),
    )
}

#[test]
fn warm_start_from_artifact_is_bit_identical_and_served_from_disk() {
    // A generated corpus spanning every template, analysed cold on the
    // staged route into an empty cache directory, persisted, then
    // re-analysed the same way by a fresh context (fresh arena — the
    // on-disk rows must re-intern): the warm run must reproduce every
    // outcome, candidate count and placement counter bit-for-bit, and must
    // actually be served from disk. If seeding goes dead this fails loudly;
    // `Expresso` itself would only replay records and never notice.
    let dir = scratch_cache_dir("warm");
    let corpus = generate(&CorpusSpec { size: 18, seed: 11 });
    let monitors: Vec<_> = corpus.iter().map(|v| v.monitor()).collect();
    let config = persistent_config(&dir);

    let cold_context = SharedAnalysisContext::new(&config);
    assert!(
        cold_context.warm_start().is_none(),
        "first run must be cold"
    );
    let cold: Vec<_> = monitors
        .iter()
        .map(|m| staged_analysis(&cold_context, m))
        .collect();
    let saved = cold_context
        .persist()
        .expect("saving the artifact")
        .expect("cache directory configured");
    assert!(
        saved.wp > 0 && saved.sat > 0,
        "artifact must carry entries: {saved:?}"
    );
    assert_eq!(saved.outcomes, 0, "the staged route files no record");

    let warm_context = SharedAnalysisContext::new(&config);
    let offered = warm_context
        .warm_start()
        .expect("second context must warm-start from the artifact");
    assert_eq!(
        (
            offered.sat,
            offered.qe,
            offered.wp,
            offered.disjointness,
            offered.outcomes
        ),
        (
            saved.sat,
            saved.qe,
            saved.wp,
            saved.disjointness,
            saved.outcomes
        ),
        "every saved entry of every table must be on offer"
    );
    // Loading, and asking what was loaded, seeds nothing: the arena is a
    // fresh one until an accessor of the leaf tables is touched.
    let fresh = fresh_arena();
    assert_eq!(arena_of(&warm_context), fresh);
    assert_eq!(outcome_counters(&warm_context), (0, 0, 0));
    // Touching one interns one arena node per table row and nothing else:
    // the arena now holds exactly the rows plus what any fresh arena holds
    // (the two constants, which the formula table names as well).
    warm_context.solver();
    let artifact = load_artifact(&dir);
    let constants = artifact
        .formulas()
        .iter()
        .filter(|row| matches!(row, FormulaRow::True | FormulaRow::False))
        .count();
    assert_eq!(
        arena_of(&warm_context),
        (
            artifact.formulas().len() + fresh.0 - constants,
            artifact.terms().len()
        )
    );
    assert_eq!(outcome_counters(&warm_context), (0, 0, 1));

    for ((c, m), v) in cold.iter().zip(&monitors).zip(&corpus) {
        let w = staged_analysis(&warm_context, m);
        assert_eq!(c.explicit, w.explicit, "{}: explicit", v.name);
        assert_eq!(c.invariant, w.invariant, "{}: invariant", v.name);
        assert_eq!(
            (c.candidates, c.conjuncts),
            (w.candidates, w.conjuncts),
            "{}: abduction counts",
            v.name
        );
        assert_eq!(c.report.decisions, w.report.decisions, "{}", v.name);
        assert_eq!(
            (
                c.report.triples_checked,
                c.report.pairs_considered,
                c.report.skipped
            ),
            (
                w.report.triples_checked,
                w.report.pairs_considered,
                w.report.skipped
            ),
            "{}: placement counters",
            v.name
        );
        assert!(c.wp.misses > 0, "{}: cold run computed no wp", v.name);
        assert_eq!(
            w.wp.misses, 0,
            "{}: warm run recomputed a weakest precondition",
            v.name
        );
    }
    // Disk-hit floors: every monitor asks at least one WP and one solver
    // query, and warm all of them come from the artifact.
    assert!(
        warm_context.wp_stats().disk_hits >= corpus.len(),
        "warm WP disk hits below one per monitor: {:?}",
        warm_context.wp_stats()
    );
    assert!(
        warm_context.stats().disk_hits >= corpus.len(),
        "warm solver disk hits below one per monitor: {:?}",
        warm_context.stats()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replaying_a_saved_corpus_touches_no_solver() {
    // The other half of the warm start: every monitor of the saved corpus
    // has an outcome record, so `analyze_suite` rebuilds 18 outcomes equal
    // to the cold ones without a solver query, a weakest precondition, an
    // interned node or a seeded entry.
    let dir = scratch_cache_dir("replay");
    let corpus = generate(&CorpusSpec { size: 18, seed: 11 });
    let monitors: Vec<_> = corpus.iter().map(|v| v.monitor()).collect();
    let config = persistent_config(&dir);
    let pipeline = Expresso::with_config(config.clone());

    let cold_context = SharedAnalysisContext::new(&config);
    let cold: Vec<_> = pipeline
        .analyze_suite(&cold_context, &monitors)
        .into_iter()
        .map(|o| o.expect("cold corpus analysis succeeds"))
        .collect();
    assert_eq!(
        outcome_counters(&cold_context),
        (0, corpus.len() as u64, 0),
        "nothing to replay from, nothing to seed from"
    );
    let saved = cold_context.persist().unwrap().unwrap();
    assert_eq!(saved.outcomes, corpus.len());

    let warm_context = SharedAnalysisContext::new(&config);
    assert_eq!(
        warm_context.warm_start().map(|offered| offered.outcomes),
        Some(corpus.len())
    );
    let warm: Vec<_> = pipeline
        .analyze_suite(&warm_context, &monitors)
        .into_iter()
        .map(|o| o.expect("warm corpus analysis succeeds"))
        .collect();
    for ((c, w), v) in cold.iter().zip(&warm).zip(&corpus) {
        assert_same_analysis(&v.name, c, w);
        assert_eq!(w.stats.solver, SolverStats::default(), "{}", v.name);
        assert_eq!(w.stats.wp_cache, WpCacheStats::default(), "{}", v.name);
    }
    assert_eq!(warm_context.stats().sat_queries, 0);
    let wp = warm_context.wp_stats();
    assert_eq!(wp.hits + wp.misses, 0, "{wp:?}");
    assert_eq!(arena_of(&warm_context), fresh_arena());
    assert_eq!(
        outcome_counters(&warm_context),
        (corpus.len() as u64, 0, 0),
        "every monitor replayed, the seed never forced"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One line per outcome record — key bytes, invariant tree, counters,
/// decisions — sorted: like [`TreeView`], free of row numbers.
fn outcome_lines(artifact: &Artifact) -> Vec<String> {
    let mut lines: Vec<String> = artifact
        .outcomes()
        .iter()
        .map(|(key, record)| {
            format!(
                "{:?} => {:?} {} {} {} {:?}",
                key.bytes(),
                artifact.formula(record.invariant),
                record.candidates,
                record.conjuncts,
                record.triples_checked,
                record.decisions
            )
        })
        .collect();
    lines.sort_unstable();
    lines
}

#[test]
fn resaving_a_warm_context_loses_no_entry_and_keeps_warm_starting() {
    // persist → load → analyse → persist must be (at least) monotone: the
    // re-saved artifact contains every leaf entry and every outcome record
    // of the first one. Three generations. The second comes out of a context
    // that replayed everything and never seeded — `persist` has to force the
    // seed or it would write the leaf tables back empty — and is the first
    // one byte for byte. The third comes out of a context that analysed one
    // edited monitor: placement sorts its triple batches by cached validity
    // and short-circuits, so a warm analysis may ask a few queries the cold
    // one skipped (extra entries, never changed outcomes), and the edit adds
    // one record beside the eight it found. Losing an entry, though, means
    // seeding mis-keyed or a record was dropped on the way through: that is
    // the regression this pins. A fourth context must replay both versions
    // of the edited monitor.
    let dir = scratch_cache_dir("monotone");
    let corpus = generate(&CorpusSpec { size: 8, seed: 3 });
    let monitors: Vec<_> = corpus.iter().map(|v| v.monitor()).collect();
    let config = persistent_config(&dir);
    let pipeline = Expresso::with_config(config.clone());
    let analyze = |context: &SharedAnalysisContext, monitors: &[Monitor]| -> Vec<_> {
        pipeline
            .analyze_suite(context, monitors)
            .into_iter()
            .map(|o| o.expect("analysis succeeds"))
            .collect()
    };
    let artifact_bytes = || std::fs::read(persist::artifact_path(&dir)).unwrap();

    let cold_context = SharedAnalysisContext::new(&config);
    let cold = analyze(&cold_context, &monitors);
    cold_context.persist().unwrap().unwrap();
    let first = load_artifact(&dir);
    let (first_view, first_outcomes) = (view_of_artifact(&first), outcome_lines(&first));
    let first_bytes = artifact_bytes();
    assert_eq!(first_outcomes.len(), corpus.len());

    let warm_context = SharedAnalysisContext::new(&config);
    analyze(&warm_context, &monitors);
    assert_eq!(
        (arena_of(&warm_context), outcome_counters(&warm_context)),
        (fresh_arena(), (corpus.len() as u64, 0, 0)),
        "the second generation must not have seeded before it saves"
    );
    let resaved = warm_context.persist().unwrap().unwrap();
    assert_eq!(resaved.outcomes, corpus.len());
    assert!(
        artifact_bytes() == first_bytes,
        "re-saving what was loaded, with nothing analysed, changed the file"
    );

    const EDITED: usize = 5;
    let mut edited = monitors.clone();
    edited[EDITED] = parse_monitor(&mutate_source(&corpus[EDITED].source)).unwrap();
    let dirty_context = SharedAnalysisContext::new(&config);
    let dirty = analyze(&dirty_context, &edited);
    assert_eq!(
        outcome_counters(&dirty_context),
        (corpus.len() as u64 - 1, 1, 1)
    );
    let resaved = dirty_context.persist().unwrap().unwrap();
    assert_eq!(resaved.outcomes, corpus.len() + 1, "eight old, one new");
    // Row numbers differ between the artifacts (the third has more nodes to
    // number); the entries, as trees, must not.
    let third = load_artifact(&dir);
    first_view
        .is_within(&view_of_artifact(&third))
        .unwrap_or_else(|why| panic!("re-save lost an entry: {why}"));
    let third_outcomes = outcome_lines(&third);
    for record in &first_outcomes {
        assert!(
            third_outcomes.binary_search(record).is_ok(),
            "re-save dropped an outcome record"
        );
    }

    let fourth_context = SharedAnalysisContext::new(&config);
    let replayed_edit = analyze(&fourth_context, &edited);
    let replayed_original = analyze(&fourth_context, &monitors);
    assert_eq!(
        outcome_counters(&fourth_context),
        (2 * corpus.len() as u64, 0, 0)
    );
    for (i, v) in corpus.iter().enumerate() {
        assert_same_analysis(&v.name, &dirty[i], &replayed_edit[i]);
        assert_same_analysis(&v.name, &cold[i], &replayed_original[i]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn node_tables_agree_with_the_trees_of_both_arenas() {
    // The table-vs-tree oracle. For the 16 suite monitors (with their
    // independence tables, so the disjointness section is populated) plus a
    // 32-monitor corpus, every entry of every section must read the same
    // three ways: as the tree the exporting arena gives for the source id,
    // as the tree the artifact's tables spell for the row, and as the tree a
    // freshly seeded arena gives for the seeded id.
    use expresso_repro::monitor_lang::check_monitor;
    use expresso_repro::vcgen::refine_independence;

    let dir = scratch_cache_dir("oracle");
    let benchmarks = all();
    let mut monitors: Vec<_> = benchmarks.iter().map(|b| b.monitor()).collect();
    let corpus = generate(&CorpusSpec { size: 32, seed: 7 });
    monitors.extend(corpus.iter().map(|v| v.monitor()));
    let config = persistent_config(&dir);

    let cold_context = SharedAnalysisContext::new(&config);
    for outcome in Expresso::with_config(config.clone()).analyze_suite(&cold_context, &monitors) {
        outcome.expect("cold analysis succeeds");
    }
    for monitor in &monitors[..benchmarks.len()] {
        let table = check_monitor(monitor).expect("suite monitors check");
        refine_independence(
            monitor,
            &table,
            cold_context.solver(),
            cold_context.disjointness(),
        );
    }
    let saved = cold_context.persist().unwrap().unwrap();
    assert!(saved.qe > 0 && saved.disjointness > 0);
    assert_eq!(saved.theory, 0, "format v5 has no theory section");

    let artifact = load_artifact(&dir);
    let from_tables = view_of_artifact(&artifact);
    assert_eq!(from_tables.sat.len(), saved.sat);
    assert_eq!(from_tables.wp.len(), saved.wp);
    view_of_context(&cold_context)
        .same_as(&from_tables)
        .unwrap_or_else(|why| panic!("tables vs the exporting arena's trees: {why}"));

    let warm_context = SharedAnalysisContext::new(&config);
    assert_eq!(warm_context.warm_start().unwrap().total(), artifact.len());
    // The first accessor of a leaf table seeds; the view below reads through
    // them, so take the seeded node count after one and before the other.
    warm_context.solver();
    let seeded_nodes = warm_context.interner_stats();
    view_of_context(&warm_context)
        .same_as(&from_tables)
        .unwrap_or_else(|why| panic!("tables vs the seeded arena's trees: {why}"));
    // And the seeded ids are the ones tree interning computes: interning
    // every key tree finds its node already there.
    for (key, _) in artifact.sat() {
        warm_context.interner().intern(&artifact.formula(*key));
    }
    assert_eq!(warm_context.interner_stats(), seeded_nodes);

    // No verdict carries a model any more; the solver finds one on request,
    // by solving again past the seeded verdict. Every model it returns for a
    // `Sat` entry must satisfy that entry's key (a sample: model search is
    // the slow part of a debug build).
    let mut models = 0;
    let satisfiable = artifact.sat().iter().filter(|(_, v)| *v == SatResult::Sat);
    for (key, _) in satisfiable.step_by(8) {
        let query = artifact.formula(*key);
        let solver = warm_context.solver();
        let Some(model) = solver.model_id(solver.interner().intern(&query)) else {
            continue;
        };
        // Variables normalization dropped are bound to anything.
        let mut valuation = Valuation::new();
        for name in query.int_vars() {
            valuation.set_int(name, 0);
        }
        for name in query.bool_vars() {
            valuation.set_bool(name, false);
        }
        valuation.extend_with(&model);
        match valuation.eval(&query) {
            Ok(holds) => assert!(holds, "model {model:?} does not satisfy {query}"),
            // The model is one of the query's quantifier-free equivalent.
            Err(EvalError::Quantified) => continue,
            Err(e) => panic!("model {model:?} cannot evaluate {query}: {e:?}"),
        }
        models += 1;
    }
    assert!(models > 0, "no sampled Sat entry produced a model");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_start_serves_every_disjointness_verdict_from_disk() {
    // The queue-disjointness refinement is persisted alongside the solver
    // caches (since artifact v2): building the independence tables for the whole
    // benchmark suite against a warm-started context must issue *zero* fresh
    // disjointness computations — every fire×fire verdict comes back from
    // the store seeded off disk — and must reproduce the cold tables
    // bit-for-bit.
    use expresso_repro::monitor_lang::check_monitor;
    use expresso_repro::vcgen::refine_independence;

    let dir = scratch_cache_dir("disjoint");
    let benchmarks = all();
    let monitors: Vec<_> = benchmarks.iter().map(|b| b.monitor()).collect();
    let tables: Vec<_> = monitors
        .iter()
        .map(|m| check_monitor(m).expect("suite monitors check"))
        .collect();
    let config = persistent_config(&dir);

    let cold_context = SharedAnalysisContext::new(&config);
    let cold: Vec<_> = monitors
        .iter()
        .zip(&tables)
        .map(|(m, t)| refine_independence(m, t, cold_context.solver(), cold_context.disjointness()))
        .collect();
    let cold_stats = cold_context.disjointness_stats();
    assert!(
        cold_stats.queries > 0,
        "cold run must compute disjointness verdicts: {cold_stats:?}"
    );
    cold_context.persist().unwrap().unwrap();

    let warm_context = SharedAnalysisContext::new(&config);
    assert!(
        warm_context.warm_start().is_some(),
        "second context must warm-start from the artifact"
    );
    let warm: Vec<_> = monitors
        .iter()
        .zip(&tables)
        .map(|(m, t)| refine_independence(m, t, warm_context.solver(), warm_context.disjointness()))
        .collect();
    let warm_stats = warm_context.disjointness_stats();
    assert_eq!(
        warm_stats.queries, 0,
        "warm run recomputed a disjointness verdict: {warm_stats:?}"
    );
    assert!(
        warm_stats.hits >= cold_stats.queries,
        "warm run must serve at least the cold query volume from the store: \
         cold {cold_stats:?} vs warm {warm_stats:?}"
    );
    for ((c, w), b) in cold.iter().zip(&warm).zip(&benchmarks) {
        assert_eq!(c, w, "{}: independence table diverged warm", b.name);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn span_recording_cannot_change_results_and_disabled_mode_records_nothing() {
    // The span recorder is observation only: a fully sequential run (so every
    // counter is deterministic) with recording globally enabled must be
    // bit-identical — outcomes, invariants, placement and cache counters —
    // to the same run with recording off, and the disabled run must leave
    // zero records behind (the hot-path guard is a single relaxed load).
    use expresso_repro::obs;

    let sequential = ExpressoConfig {
        analysis_threads: 1,
        ..ExpressoConfig::default()
    };
    let run = |name: &str| {
        let monitor = all()
            .into_iter()
            .find(|b| b.name == "ReadersWriters")
            .expect("suite contains the readers-writers benchmark")
            .monitor();
        Expresso::with_config(sequential.clone())
            .analyze(&monitor)
            .unwrap_or_else(|e| panic!("{name} run failed: {e}"))
    };

    obs::set_enabled(false);
    let _ = obs::drain();
    let off = run("recording-off");
    assert_eq!(
        obs::drain().iter().map(|t| t.records.len()).sum::<usize>(),
        0,
        "disabled-mode analysis must record zero spans"
    );

    obs::set_enabled(true);
    let on = run("recording-on");
    obs::set_enabled(false);
    let recorded: usize = obs::drain().iter().map(|t| t.records.len()).sum();
    assert!(
        recorded > 0,
        "enabled-mode analysis must record pipeline spans"
    );

    assert_same_analysis("tracing on vs off", &off, &on);
    assert_eq!(off.stats.solver.cache_hits, on.stats.solver.cache_hits);
    assert_eq!(off.stats.solver.cache_misses, on.stats.solver.cache_misses);
    assert_eq!(off.stats.wp_cache.hits, on.stats.wp_cache.hits);
    assert_eq!(off.stats.wp_cache.misses, on.stats.wp_cache.misses);
}

#[test]
fn mutating_one_monitor_reanalyzes_exactly_that_monitor() {
    // The incremental-invalidation pin: after a one-monitor edit, the
    // warm-started suite recomputes weakest preconditions for the mutated
    // monitor only — content-addressing must not spill invalidation across
    // monitor boundaries, and the untouched monitors must keep their cold
    // outcomes.
    let dir = scratch_cache_dir("dirty");
    let corpus = generate(&CorpusSpec { size: 12, seed: 5 });
    let monitors: Vec<_> = corpus.iter().map(|v| v.monitor()).collect();
    let config = persistent_config(&dir);
    let pipeline = Expresso::with_config(config.clone());

    let cold_context = SharedAnalysisContext::new(&config);
    let cold: Vec<_> = pipeline
        .analyze_suite(&cold_context, &monitors)
        .into_iter()
        .map(|o| o.expect("cold analysis succeeds"))
        .collect();
    cold_context.persist().unwrap().unwrap();

    const MUTATED: usize = 4;
    let mut dirty_monitors = monitors.clone();
    dirty_monitors[MUTATED] =
        expresso_repro::monitor_lang::parse_monitor(&mutate_source(&corpus[MUTATED].source))
            .expect("mutated source parses");

    let dirty_context = SharedAnalysisContext::new(&config);
    assert!(dirty_context.warm_start().is_some());
    let dirty: Vec<_> = pipeline
        .analyze_suite(&dirty_context, &dirty_monitors)
        .into_iter()
        .map(|o| o.expect("dirty analysis succeeds"))
        .collect();
    assert_eq!(
        outcome_counters(&dirty_context),
        (corpus.len() as u64 - 1, 1, 1),
        "eleven replays, one analysis, one seed"
    );

    let reanalyzed: Vec<usize> = dirty
        .iter()
        .enumerate()
        .filter(|(_, o)| o.stats.wp_cache.misses > 0)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(
        reanalyzed,
        vec![MUTATED],
        "exactly the mutated monitor must recompute weakest preconditions"
    );
    for (i, (c, d)) in cold.iter().zip(&dirty).enumerate() {
        if i != MUTATED {
            assert_same_analysis(&corpus[i].name, c, d);
        }
    }
    // The edited monitor was analysed for real, over the seeded tables: its
    // outcome is the one an unshared cold analysis computes, and what it
    // shares with its former self came off the disk.
    let alone = Expresso::new()
        .analyze(&dirty_monitors[MUTATED])
        .expect("cold analysis of the edited monitor");
    assert_same_analysis("edited monitor", &alone, &dirty[MUTATED]);
    assert!(dirty[MUTATED].stats.wp_cache.disk_hits > 0);
    assert!(dirty[MUTATED].stats.solver.disk_hits > 0);
    // The mutated monitor gained a CCR, so its placement grid must grow.
    assert!(
        dirty[MUTATED].report.pairs_considered > cold[MUTATED].report.pairs_considered,
        "the mutation must enlarge the mutated monitor's pair grid"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_and_loaded_wp_keys_agree_on_the_staged_route() {
    // The key a live analysis computes for a statement and the key a loaded
    // artifact seeds must be the same bytes. Cold: the 16 suite monitors
    // through `analyze_suite` on a cache directory, persisted. Warm: a fresh
    // context on that directory runs the staged pipeline — what the traced
    // warm-edit benchmark pass runs, on the context's scheduler — over every
    // monitor, one of them edited. Every unchanged monitor must find every
    // weakest precondition it asks for on disk and the edited one must
    // compute some: an encoder that drifted between the live key and the
    // artifact would show here as misses in every monitor.
    let dir = scratch_cache_dir("keys");
    let config = persistent_config(&dir);
    let suite = all();
    let monitors: Vec<_> = suite.iter().map(|b| b.monitor()).collect();
    let cold_context = SharedAnalysisContext::new(&config);
    for outcome in Expresso::with_config(config.clone()).analyze_suite(&cold_context, &monitors) {
        outcome.expect("cold analysis succeeds");
    }
    cold_context
        .persist()
        .expect("saving the artifact")
        .expect("cache directory configured");

    const EDITED: usize = 5;
    let mut warm_monitors = monitors.clone();
    warm_monitors[EDITED] =
        parse_monitor(&mutate_source(suite[EDITED].source)).expect("edited source parses");
    let warm_context = SharedAnalysisContext::new(&config);
    assert!(
        warm_context.warm_start().is_some(),
        "the artifact must load"
    );
    let slots: Vec<std::sync::Mutex<Option<WpCacheStats>>> =
        warm_monitors.iter().map(|_| Default::default()).collect();
    warm_context.scheduler().scope(|scope| {
        for (monitor, slot) in warm_monitors.iter().zip(&slots) {
            let context = &warm_context;
            scope.spawn(move || {
                *slot.lock().unwrap() = Some(staged_analysis(context, monitor).wp);
            });
        }
    });
    for (i, (benchmark, slot)) in suite.iter().zip(slots).enumerate() {
        let wp = slot
            .into_inner()
            .unwrap()
            .expect("every monitor was analysed");
        if i == EDITED {
            assert!(
                wp.misses > 0,
                "{}: the edited monitor computed no wp",
                benchmark.name
            );
        } else {
            assert_eq!(
                wp.misses, 0,
                "{}: a live key missed the artifact",
                benchmark.name
            );
            assert!(
                wp.disk_hits > 0,
                "{}: nothing was served from disk",
                benchmark.name
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn outcome_keys_follow_the_monitor_and_the_configuration_and_nothing_else() {
    // Key sensitivity, both ways. Every edit that changes the parsed monitor
    // — one constant, one renamed local or field, two methods swapped, a
    // field initialiser, the `requires` clause, the monitor's name — and
    // either of the two configuration fields the analysis answers to must
    // miss the record and be analysed afresh, equal to an unshared cold
    // analysis; an edit the parser does not see (layout, comments) must hit
    // and re-analyse nothing.
    const SELL: &str = "atomic void sell(int want) {
            waituntil (sold + want <= limit && open == 1) {
                int next = sold + want;
                sold = next;
            }
        }";
    const REFUND: &str = "atomic void refund() { waituntil (sold > 0) { sold = sold - 1; } }";
    let source = |header: &str, fields: &str, first: &str, second: &str| {
        format!("{header} {{\n    {fields}\n    {first}\n    {second}\n}}\n")
    };
    const HEADER: &str = "monitor Ticket(int limit) requires limit > 0";
    const FIELDS: &str = "int sold = 0; int open = 1;";
    let base = source(HEADER, FIELDS, SELL, REFUND);

    let dir = scratch_cache_dir("keys");
    let config = persistent_config(&dir);
    let monitor = parse_monitor(&base).expect("the base monitor parses");
    let context = SharedAnalysisContext::new(&config);
    let cold = Expresso::with_config(config.clone())
        .analyze_with_context(&context, &monitor)
        .expect("the base monitor analyses");
    assert_eq!(context.persist().unwrap().unwrap().outcomes, 1);

    // Analyses `source` in a fresh context over the saved directory and
    // holds the result to an unshared analysis under the same configuration.
    let analyze = |label: &str, source: &str, config: &ExpressoConfig| {
        let monitor = parse_monitor(source).unwrap_or_else(|e| panic!("{label}: {e}"));
        let context = SharedAnalysisContext::new(config);
        let outcome = Expresso::with_config(config.clone())
            .analyze_with_context(&context, &monitor)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let unshared = ExpressoConfig {
            cache_dir: None,
            ..config.clone()
        };
        let alone = Expresso::with_config(unshared)
            .analyze(&monitor)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_same_analysis(label, &alone, &outcome);
        (outcome, outcome_counters(&context))
    };

    let edits = [
        (
            "one constant",
            source(
                HEADER,
                FIELDS,
                SELL,
                &REFUND.replace("sold - 1", "sold - 2"),
            ),
        ),
        (
            "a renamed local",
            source(HEADER, FIELDS, &SELL.replace("next", "after"), REFUND),
        ),
        ("a renamed field", base.replace("open", "live")),
        ("two methods swapped", source(HEADER, FIELDS, REFUND, SELL)),
        (
            "a field initialiser",
            source(HEADER, "int sold = 0; int open = 0;", SELL, REFUND),
        ),
        (
            "the requires clause",
            source(
                &HEADER.replace("limit > 0", "limit > 1"),
                FIELDS,
                SELL,
                REFUND,
            ),
        ),
        ("the monitor's name", base.replace("Ticket", "Ticket2")),
    ];
    for (label, edited) in &edits {
        assert_ne!(*edited, base, "{label}: the edit did nothing");
        let (outcome, counters) = analyze(label, edited, &config);
        assert_eq!(counters, (0, 1, 1), "{label}: must miss and seed");
        assert!(outcome.stats.solver.sat_queries > 0, "{label}");
    }
    for (label, flipped) in [
        (
            "infer_invariant",
            ExpressoConfig {
                infer_invariant: false,
                ..config.clone()
            },
        ),
        (
            "use_commutativity",
            ExpressoConfig {
                use_commutativity: false,
                ..config.clone()
            },
        ),
    ] {
        let (_, counters) = analyze(label, &base, &flipped);
        assert_eq!(counters, (0, 1, 1), "{label}: must miss and seed");
    }

    let relaid = format!(
        "// a comment ahead of everything\n{}",
        base.replace("{\n", "{\n\n  /* and one inside */\n")
            .replace("int sold = 0;", "int   sold=0 ;")
    );
    assert_ne!(relaid, base);
    let (outcome, counters) = analyze("layout and comments", &relaid, &config);
    assert_eq!(counters, (1, 0, 0), "layout and comments: must hit");
    assert_eq!(outcome.stats.solver, SolverStats::default());
    assert_same_analysis("layout and comments", &cold, &outcome);
    let _ = std::fs::remove_dir_all(&dir);
}
