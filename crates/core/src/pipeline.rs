//! The end-to-end Expresso pipeline: check → infer invariant → place signals.

use crate::placement::{
    assemble, place_signals_with, PlacementConfig, PlacementReport, SignalDecision,
};
use crate::scheduler::{Scheduler, SchedulerStats};
use expresso_abduction::{infer_monitor_invariant_configured, AbductionConfig, InvariantOutcome};
use expresso_logic::{Formula, FormulaId, Interner, InternerStats};
use expresso_monitor_lang::{check_monitor, CheckError, ExplicitMonitor, Monitor, VarTable};
use expresso_persist::{
    Artifact, DecisionRecord, LoadResult, OutcomeKey, OutcomeRecord, SaveReport, SeedReport,
};
use expresso_smt::{Solver, SolverStats};
use expresso_vcgen::{DisjointnessStats, DisjointnessStore, WpCacheStats, WpStore};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

/// Environment variable naming the warm-start cache directory, consulted when
/// [`ExpressoConfig::cache_dir`] is `None`. Unset (and no configured path)
/// means persistence is off — the pre-persistence in-process behaviour.
pub const CACHE_DIR_ENV: &str = "EXPRESSO_CACHE_DIR";

/// Environment variable naming a Chrome trace-event output file, consulted
/// when [`ExpressoConfig::trace_path`] is `None`. With a path in effect,
/// span recording is switched on when the [`SharedAnalysisContext`] is
/// constructed, and [`SharedAnalysisContext::write_trace`] drains the
/// recorded spans into a Perfetto-loadable artifact at that path.
pub const TRACE_ENV: &str = "EXPRESSO_TRACE";

/// Configuration of the [`Expresso`] pipeline.
#[derive(Debug, Clone)]
pub struct ExpressoConfig {
    /// Infer a monitor invariant before placement (paper §5). When disabled
    /// the invariant `true` is used — the ablation the paper motivates in §2.
    pub infer_invariant: bool,
    /// Apply the §4.3 commutativity improvement.
    pub use_commutativity: bool,
    /// Number of threads a *suite* is analysed on
    /// ([`Expresso::analyze_suite`]). `0` uses the process-wide
    /// [`Scheduler::global`] (one thread per available core); `1` is the
    /// sequential analysis (every task runs inline on the calling thread, in
    /// submission order); `n >= 2` fans the monitors out on `n` threads.
    /// Results are bit-identical across all settings. One monitor on its own
    /// ([`Expresso::analyze`], [`Expresso::analyze_with_context`]) is
    /// analysed on the calling thread whatever this says.
    pub analysis_threads: usize,
    /// Directory of the persistent warm-start cache. `None` (the default)
    /// consults the `EXPRESSO_CACHE_DIR` environment variable; when that is
    /// unset too, persistence is disabled and every run starts cold. With a
    /// directory in effect, [`SharedAnalysisContext::new`] loads the on-disk
    /// artifact, a monitor it holds an outcome record for is replayed
    /// instead of analysed, and [`SharedAnalysisContext::persist`] writes
    /// records and memo tables back.
    pub cache_dir: Option<PathBuf>,
    /// Chrome trace-event output file. `None` (the default) consults the
    /// `EXPRESSO_TRACE` environment variable; when that is unset too, span
    /// recording stays off and the instrumentation costs one relaxed atomic
    /// load per span site. With a path in effect,
    /// [`SharedAnalysisContext::new`] enables recording and
    /// [`SharedAnalysisContext::write_trace`] writes the Perfetto-loadable
    /// artifact. Tracing never changes analysis results or counters (pinned
    /// by the equivalence tests).
    pub trace_path: Option<PathBuf>,
}

impl Default for ExpressoConfig {
    fn default() -> Self {
        ExpressoConfig {
            infer_invariant: true,
            use_commutativity: true,
            analysis_threads: 0,
            cache_dir: None,
            trace_path: None,
        }
    }
}

/// One formula arena, one memoizing solver, one suite-wide WP store and one
/// scheduler shared across many analyses.
///
/// `Expresso::analyze` builds a private context per monitor, which is the
/// right default for isolated runs — but a suite harness that analyses many
/// monitors leaves cache value on the table: structurally common
/// verification conditions (guard shapes, invariant fragments), theory
/// lemmas over shared atoms and weakest preconditions of identical CCR
/// bodies recur across monitors. Constructing one `SharedAnalysisContext` and passing it to
/// [`Expresso::analyze_with_context`] (or handing the whole suite to
/// [`Expresso::analyze_suite`]) lets every analysis intern into the same
/// arena, hit the same memo tables and share the fingerprinted WP
/// store; each analysis still reports a per-monitor [`SolverStats`] delta,
/// and [`SolverStats::cross_analysis_hits`] /
/// [`WpCacheStats::cross_monitor_hits`] count the hits served from another
/// monitor's work.
///
/// **Accounting contract:** per-monitor *solver* deltas and the epoch-based
/// cross-analysis attribution are exact only when the analyses sharing the
/// context run one at a time.
/// [`Expresso::analyze_suite`] runs them concurrently: results are still
/// bit-identical and context-wide totals remain exact, but the per-monitor
/// solver deltas overlap and become approximate. The per-monitor *WP* stats
/// are session-scoped and stay exact even under suite-level concurrency.
#[derive(Debug)]
pub struct SharedAnalysisContext {
    solver: Arc<Solver>,
    wp_store: Arc<WpStore>,
    disjointness: Arc<DisjointnessStore>,
    scheduler: Arc<Scheduler>,
    cache_dir: Option<PathBuf>,
    trace_path: Option<PathBuf>,
    /// The validated artifact this context started from. Outcome records are
    /// served from it as it is; its leaf sections are moved into the caches
    /// above when `seed` runs — the one writer there is.
    artifact: Option<RwLock<Box<Artifact>>>,
    /// What `artifact` had on offer when it was loaded.
    offered: Option<SeedReport>,
    /// Set by the one seed: the arena id of every formula row of `artifact`.
    seeded: OnceLock<Vec<FormulaId>>,
    /// Records of the monitors analysed (not replayed) here, for `persist`;
    /// analysing a monitor again overwrites its record.
    analysed: Mutex<BTreeMap<OutcomeKey, OutcomeRecord<FormulaId>>>,
    outcome_counters: Arc<OutcomeCounters>,
}

/// What became of the outcome lookups of one context (the `core.outcomes`
/// metric group).
#[derive(Debug, Default)]
struct OutcomeCounters {
    hits: AtomicUsize,
    misses: AtomicUsize,
    seed_forced: AtomicBool,
}

/// What a recorded outcome says of the monitor in hand.
struct Replayed {
    invariant: Formula,
    explicit: ExplicitMonitor,
    report: PlacementReport,
    candidates: usize,
    conjuncts: usize,
}

/// Rebuilds what `record` holds for `monitor`; `None` when the record names
/// a CCR or guard the monitor does not have (or a count this platform cannot
/// hold) — the record is then not this monitor's, whatever its key says.
fn rebuild(artifact: &Artifact, record: &OutcomeRecord, monitor: &Monitor) -> Option<Replayed> {
    let guards = monitor.guards();
    let mut decisions = Vec::with_capacity(record.decisions.len());
    for d in &record.decisions {
        decisions.push(SignalDecision {
            ccr: monitor.ccrs.get(usize::try_from(d.ccr).ok()?)?.id,
            predicate: Arc::clone(guards.get(usize::try_from(d.guard).ok()?)?),
            needed: d.needed,
            condition: d.condition,
            kind: d.kind,
            used_commutativity: d.used_commutativity,
            conservative_fallback: d.conservative_fallback,
        });
    }
    let triples = usize::try_from(record.triples_checked).ok()?;
    let (explicit, report) = assemble(monitor, decisions, triples);
    Some(Replayed {
        invariant: artifact.formula(record.invariant),
        explicit,
        report,
        candidates: usize::try_from(record.candidates).ok()?,
        conjuncts: usize::try_from(record.conjuncts).ok()?,
    })
}

impl SharedAnalysisContext {
    /// Creates a context with a fresh arena, solver and WP store. With
    /// [`ExpressoConfig::analysis_threads`] `== 0` the context shares
    /// [`Scheduler::global`]; any other value builds a scheduler of its own.
    /// Neither starts a thread.
    ///
    /// When a cache directory is in effect ([`ExpressoConfig::cache_dir`],
    /// else the `EXPRESSO_CACHE_DIR` environment variable), the on-disk
    /// artifact is read, checksummed and validated in full here — and
    /// nothing more. Its outcome records answer for the monitors they were
    /// computed from without any cache being filled. Its leaf sections are
    /// **seeded on first use**: [`solver`](Self::solver),
    /// [`wp_store`](Self::wp_store) and [`persist`](Self::persist) intern the
    /// node tables through this context's own arena — each distinct node
    /// once, so arena-local ids never cross processes — and fill the memo
    /// tables by row, once, before they return; whoever gets there first
    /// pays, everybody else waits for it or never asks. A pass in which every monitor is replayed
    /// therefore never seeds, and anything built on those three accessors
    /// sees exactly the caches an eager seed would have left. A corrupt
    /// artifact (truncated, bit-flipped, wrong format version, dangling row
    /// reference) degrades to a cold start with a warning on stderr — it
    /// never panics and never seeds a partial table. [`Expresso::analyze`]
    /// builds a private context per call, so with the environment variable
    /// set each such call loads the artifact individually (and replays a
    /// monitor it knows without seeding); suite harnesses should build one
    /// context and use [`Expresso::analyze_suite`].
    pub fn new(config: &ExpressoConfig) -> Self {
        let scheduler = if config.analysis_threads == 0 {
            Arc::clone(Scheduler::global())
        } else {
            Arc::new(Scheduler::with_analysis_threads(config.analysis_threads))
        };
        let cache_dir = config
            .cache_dir
            .clone()
            .or_else(|| std::env::var_os(CACHE_DIR_ENV).map(PathBuf::from));
        let trace_path = config
            .trace_path
            .clone()
            .or_else(|| std::env::var_os(TRACE_ENV).map(PathBuf::from));
        if trace_path.is_some() {
            expresso_obs::set_enabled(true);
        }
        let artifact = cache_dir
            .as_deref()
            .and_then(|dir| match expresso_persist::load(dir) {
                LoadResult::Loaded(artifact) => Some(artifact),
                LoadResult::Absent => None,
                LoadResult::Corrupt(reason) => {
                    expresso_obs::log!(
                        expresso_obs::Level::Warn,
                        "ignoring unusable warm-start cache, starting cold: {reason}"
                    );
                    None
                }
            });
        SharedAnalysisContext {
            solver: Arc::new(Solver::new()),
            wp_store: Arc::new(WpStore::new()),
            disjointness: Arc::new(DisjointnessStore::new()),
            scheduler,
            cache_dir,
            trace_path,
            offered: artifact.as_ref().map(|artifact| artifact.offers()),
            artifact: artifact.map(RwLock::new),
            seeded: OnceLock::new(),
            analysed: Mutex::default(),
            outcome_counters: Arc::default(),
        }
    }

    /// Seeds the artifact's leaf sections into the caches, once, and says
    /// which arena id each of its formula rows got (none without an
    /// artifact).
    fn force_seed(&self) -> &[FormulaId] {
        self.seeded.get_or_init(|| {
            let Some(artifact) = &self.artifact else {
                return Vec::new();
            };
            let (_, ids) = artifact
                .write()
                .expect("no reader of the artifact panics")
                .seed_into(&self.solver, &self.wp_store);
            self.outcome_counters
                .seed_forced
                .store(true, Ordering::Relaxed);
            ids
        })
    }

    /// The loaded artifact, for reading its outcome records and node tables.
    fn artifact(&self) -> Option<RwLockReadGuard<'_, Box<Artifact>>> {
        let artifact = self.artifact.as_ref()?;
        Some(artifact.read().expect("seeding the artifact did not panic"))
    }

    /// The Chrome-trace output path in effect for this context, if any
    /// ([`ExpressoConfig::trace_path`], else the `EXPRESSO_TRACE` environment
    /// variable).
    pub fn trace_path(&self) -> Option<&std::path::Path> {
        self.trace_path.as_deref()
    }

    /// Drains every span recorded so far (all threads, process-wide) and
    /// writes them to the context's trace path as Chrome trace-event JSON.
    /// Returns `None` when no trace path is in effect; otherwise the path
    /// written and the number of span records flushed.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures writing the artifact.
    pub fn write_trace(&self) -> io::Result<Option<(PathBuf, usize)>> {
        let Some(path) = self.trace_path.as_deref() else {
            return Ok(None);
        };
        let traces = expresso_obs::drain();
        let spans = traces.iter().map(|t| t.records.len()).sum();
        expresso_obs::write_chrome_trace(path, &traces)?;
        Ok(Some((path.to_path_buf(), spans)))
    }

    /// A [`expresso_obs::MetricsRegistry`] with every one of this context's
    /// subsystems pre-registered: solver, arena, WP store, the refinement's
    /// pair-proof counter, scheduler and the outcome lookups
    /// (`core.outcomes`: monitors replayed, monitors analysed for want of a
    /// record, whether the deferred seed ran). Snapshots read live values — reading forces
    /// nothing — so one registry built up front can be sampled before,
    /// during and after analyses.
    pub fn metrics_registry(&self) -> expresso_obs::MetricsRegistry {
        let registry = expresso_obs::MetricsRegistry::new();
        let solver = Arc::clone(&self.solver);
        registry.register("smt.solver", move || solver.stats().metrics());
        let interner = Arc::clone(self.solver.interner());
        registry.register("logic.interner", move || interner.stats().metrics());
        let wp_store = Arc::clone(&self.wp_store);
        registry.register("vcgen.wp_store", move || wp_store.stats().metrics());
        let disjointness = Arc::clone(&self.disjointness);
        registry.register("vcgen.disjointness", move || disjointness.stats().metrics());
        let scheduler = Arc::clone(&self.scheduler);
        registry.register("core.scheduler", move || scheduler.stats().metrics());
        let outcomes = Arc::clone(&self.outcome_counters);
        registry.register("core.outcomes", move || {
            use expresso_obs::Metric;
            let count = |n: &AtomicUsize| n.load(Ordering::Relaxed) as u64;
            let forced = outcomes.seed_forced.load(Ordering::Relaxed);
            vec![
                Metric::counter("outcome_hits", count(&outcomes.hits)),
                Metric::counter("outcome_misses", count(&outcomes.misses)),
                Metric::counter("seed_forced", u64::from(forced)),
            ]
        });
        registry
    }

    /// The warm-start cache directory in effect for this context, if any.
    pub fn cache_dir(&self) -> Option<&std::path::Path> {
        self.cache_dir.as_deref()
    }

    /// What the validated artifact this context loaded has on offer, per
    /// section: `None` for a cold start (no cache directory, no artifact yet,
    /// or a corrupt one). Reports, never seeds: the leaf counts are what the
    /// first call of [`solver`](Self::solver) and its kin will insert, the
    /// `outcomes` count what replay can answer from.
    pub fn warm_start(&self) -> Option<SeedReport> {
        self.offered
    }

    /// Writes the context's current memo tables and outcome records — those
    /// the artifact came with and those of the monitors analysed here — to
    /// the warm-start cache directory (atomically — temp file plus rename —
    /// so concurrent writers sharing the directory never produce a torn
    /// artifact). Forces the deferred seed first, so a pass that replayed
    /// everything writes back every leaf entry it was given. Returns `None`
    /// when no cache directory is in effect.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures creating the directory or writing the file.
    pub fn persist(&self) -> io::Result<Option<SaveReport>> {
        let Some(dir) = self.cache_dir.as_deref() else {
            return Ok(None);
        };
        let ids = self.force_seed();
        // The carried records first: a monitor analysed here although the
        // artifact had a record under its key answers for itself.
        let mut outcomes: BTreeMap<_, _> = self
            .artifact()
            .iter()
            .flat_map(|artifact| artifact.outcomes())
            .map(|(key, record)| {
                let invariant = ids[record.invariant as usize];
                (key.clone(), record.clone().with_invariant(invariant))
            })
            .collect();
        let analysed = self.analysed.lock().expect("filing a record cannot panic");
        outcomes.extend(analysed.iter().map(|(k, r)| (k.clone(), r.clone())));
        drop(analysed);
        let (solver, wp_store) = (&self.solver, &self.wp_store);
        expresso_persist::save(dir, solver, wp_store, outcomes).map(Some)
    }

    /// The key `monitor`'s outcome is recorded under — when a cache
    /// directory is in effect; without one nothing is looked up or filed.
    fn outcome_key(&self, monitor: &Monitor, config: &ExpressoConfig) -> Option<OutcomeKey> {
        self.cache_dir.as_ref()?;
        Some(OutcomeKey::of(
            monitor,
            config.infer_invariant,
            config.use_commutativity,
        ))
    }

    /// Whether the loaded artifact holds a record under `key`.
    fn holds(&self, key: &OutcomeKey) -> bool {
        self.artifact()
            .is_some_and(|artifact| artifact.outcome(key).is_some())
    }

    /// The recorded outcome of `monitor`, rebuilt — touching neither the
    /// solver nor the arena — or `None` and a line in the debug log saying
    /// why this monitor is analysed.
    fn replay(&self, key: &OutcomeKey, monitor: &Monitor) -> Option<Replayed> {
        let (replayed, why_not) = match self.artifact() {
            None => (None, "no artifact was loaded"),
            Some(artifact) => match artifact.outcome(key) {
                None => (None, "the artifact has no record under its key"),
                Some(record) => {
                    let _span = expresso_obs::span!("core.replay", "{}", monitor.name);
                    (
                        rebuild(&artifact, record, monitor),
                        "its record names a CCR or guard it does not have",
                    )
                }
            },
        };
        let counters = &self.outcome_counters;
        if replayed.is_some() {
            counters.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            counters.misses.fetch_add(1, Ordering::Relaxed);
            expresso_obs::log!(
                expresso_obs::Level::Debug,
                "analysing monitor {}: {why_not}",
                monitor.name
            );
        }
        replayed
    }

    /// Files what the analysis of `monitor` answered, for [`Self::persist`].
    fn file(&self, key: OutcomeKey, monitor: &Monitor, outcome: &AnalysisOutcome) {
        let index = |i: usize| u32::try_from(i).expect("a monitor has fewer than 2^32 CCRs");
        let guards = monitor.guards();
        let decisions = outcome
            .report
            .decisions
            .iter()
            .map(|d| DecisionRecord {
                ccr: index(d.ccr.0),
                guard: index(
                    guards
                        .iter()
                        .position(|guard| *guard == d.predicate)
                        .expect("placement decides guards of the monitor"),
                ),
                needed: d.needed,
                condition: d.condition,
                kind: d.kind,
                used_commutativity: d.used_commutativity,
                conservative_fallback: d.conservative_fallback,
            })
            .collect();
        let record = OutcomeRecord {
            invariant: self.solver.interner().intern(&outcome.invariant),
            candidates: outcome.stats.invariant_candidates as u64,
            conjuncts: outcome.stats.invariant_conjuncts as u64,
            triples_checked: outcome.report.triples_checked as u64,
            decisions,
        };
        self.analysed
            .lock()
            .expect("filing a record cannot panic")
            .insert(key, record);
    }

    /// The shared memoizing solver, seeded from the artifact (see
    /// [`Self::new`]).
    pub fn solver(&self) -> &Arc<Solver> {
        self.force_seed();
        &self.solver
    }

    /// The shared formula arena. Does not force the deferred seed: interning
    /// before or after it yields the same ids for the same nodes.
    pub fn interner(&self) -> &Arc<Interner> {
        self.solver.interner()
    }

    /// The suite-wide fingerprinted WP store, seeded from the artifact (see
    /// [`Self::new`]).
    pub fn wp_store(&self) -> &Arc<WpStore> {
        self.force_seed();
        &self.wp_store
    }

    /// The counter of the pair proofs `expresso_vcgen::refine_independence`
    /// runs against this context (the `vcgen.disjointness` metric group). It
    /// holds no verdict and nothing seeds it. Hidden: any store counts as
    /// well, and this one stays only so existing callers compile; it leaves
    /// with ROADMAP item 6(b2).
    #[doc(hidden)]
    pub fn disjointness(&self) -> &Arc<DisjointnessStore> {
        &self.disjointness
    }

    /// The pair proofs counted by `disjointness()` so far. Kept only so
    /// existing callers compile; leaves with ROADMAP item 6(b2).
    #[doc(hidden)]
    pub fn disjointness_stats(&self) -> DisjointnessStats {
        self.disjointness.stats()
    }

    /// The scheduler [`Expresso::analyze_suite`] fans this context's
    /// monitors out on.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.scheduler
    }

    /// Cumulative solver statistics across every analysis run so far.
    pub fn stats(&self) -> SolverStats {
        self.solver.stats()
    }

    /// Node counts and lock-contention counters of the shared arena.
    pub fn interner_stats(&self) -> InternerStats {
        self.solver.interner().stats()
    }

    /// Cumulative WP-store counters across every analysis run so far,
    /// including the cross-monitor hit attribution.
    pub fn wp_stats(&self) -> WpCacheStats {
        self.wp_store.stats()
    }

    /// Counters of the context's scheduler (cumulative; it may be the
    /// process-wide one).
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.scheduler.stats()
    }
}

/// Errors from the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExpressoError {
    /// The monitor failed static checking.
    Check(Vec<CheckError>),
}

impl fmt::Display for ExpressoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpressoError::Check(errors) => {
                writeln!(f, "the monitor failed static checking:")?;
                for e in errors {
                    writeln!(f, "  - {e}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ExpressoError {}

/// Timing and counter statistics for one analysis run (Table 1 reports the
/// total duration per benchmark). An outcome replayed from a record reports
/// the recorded triple, candidate and conjunct counts, and zero phase times,
/// solver counters and WP counters: none of that work was done.
#[derive(Debug, Clone)]
pub struct AnalysisStats {
    /// Wall-clock time spent inferring the monitor invariant.
    pub invariant_time: Duration,
    /// Wall-clock time spent in signal placement.
    pub placement_time: Duration,
    /// Total analysis time.
    pub total_time: Duration,
    /// Number of Hoare triples discharged during placement.
    pub triples_checked: usize,
    /// Number of candidate invariants abduction proposed.
    pub invariant_candidates: usize,
    /// Number of candidates that survived the fixpoint.
    pub invariant_conjuncts: usize,
    /// Number of candidates a concretely reached state refuted before the
    /// solver was asked (0 for a replayed outcome: not recorded).
    pub invariant_refuted: usize,
    /// Whether abduction offered more candidates than the cap keeps (`false`
    /// for a replayed outcome: not recorded).
    pub invariant_truncated: bool,
    /// Solver statistics accumulated across the whole run. Exact for
    /// stand-alone runs; approximate (overlapping deltas) when many analyses
    /// run concurrently against one shared context via
    /// [`Expresso::analyze_suite`].
    pub solver: expresso_smt::SolverStats,
    /// Hit/miss counters of this analysis's WP session, including the hits
    /// served from another monitor's entries in a suite-wide store. Exact
    /// even under suite-level concurrency.
    pub wp_cache: WpCacheStats,
    /// Snapshot of the shared arena after this analysis (node counts and
    /// contended-lock counter). For a shared context the counters are
    /// cumulative across every analysis run against it so far.
    pub interner: InternerStats,
    /// Snapshot of the context's scheduler after this analysis (tasks
    /// executed, per-thread counts). Cumulative for the scheduler, which may
    /// be shared across contexts.
    pub scheduler: SchedulerStats,
}

impl AnalysisStats {
    /// Adapt the per-analysis timing and counters into a metric group for
    /// [`expresso_obs::MetricsRegistry`] (the nested subsystem snapshots have
    /// their own groups — see
    /// [`SharedAnalysisContext::metrics_registry`]).
    pub fn metrics(&self) -> Vec<expresso_obs::Metric> {
        use expresso_obs::Metric;
        vec![
            Metric::gauge("invariant_ms", self.invariant_time.as_secs_f64() * 1e3),
            Metric::gauge("placement_ms", self.placement_time.as_secs_f64() * 1e3),
            Metric::gauge("total_ms", self.total_time.as_secs_f64() * 1e3),
            Metric::counter("triples_checked", self.triples_checked as u64),
            Metric::counter("invariant_candidates", self.invariant_candidates as u64),
            Metric::counter("invariant_conjuncts", self.invariant_conjuncts as u64),
        ]
    }
}

/// The result of analysing a monitor.
#[derive(Debug, Clone)]
pub struct AnalysisOutcome {
    /// The synthesized explicit-signal monitor.
    pub explicit: ExplicitMonitor,
    /// The inferred monitor invariant.
    pub invariant: Formula,
    /// The symbol table of the checked monitor.
    pub table: VarTable,
    /// The per-pair decision report.
    pub report: PlacementReport,
    /// Timing and counters.
    pub stats: AnalysisStats,
}

/// The Expresso analysis: transforms an implicit-signal monitor into an
/// efficient explicit-signal monitor.
#[derive(Debug, Default)]
pub struct Expresso {
    config: ExpressoConfig,
}

impl Expresso {
    /// Creates a pipeline with the default configuration (invariant inference
    /// and the commutativity improvement both enabled).
    pub fn new() -> Self {
        Expresso::default()
    }

    /// Creates a pipeline with an explicit configuration.
    pub fn with_config(config: ExpressoConfig) -> Self {
        Expresso { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ExpressoConfig {
        &self.config
    }

    /// Analyses `monitor` and synthesizes its explicit-signal version.
    ///
    /// Builds a private [`SharedAnalysisContext`] for this one monitor; use
    /// [`Expresso::analyze_with_context`] to share an arena and solver across
    /// a whole suite.
    ///
    /// **One monitor is sequential code.** This and
    /// [`analyze_with_context`](Self::analyze_with_context) run on the
    /// calling thread: abduction scans its subsets and placement decides its
    /// pairs one after the other (fanning those out made a Table 1 pass half
    /// as long again; 2 CPUs). Only [`analyze_suite`](Self::analyze_suite),
    /// one-element suites included, fans out, one task per monitor.
    ///
    /// # Errors
    ///
    /// Returns [`ExpressoError::Check`] when the monitor is ill-formed
    /// (undeclared variables, type errors, duplicate names).
    pub fn analyze(&self, monitor: &Monitor) -> Result<AnalysisOutcome, ExpressoError> {
        let context = SharedAnalysisContext::new(&self.config);
        self.analyze_with_context(&context, monitor)
    }

    /// Analyses `monitor` against a shared arena and solver — or, when the
    /// context's artifact holds the outcome of this very monitor under this
    /// configuration, rebuilds that outcome without touching either.
    ///
    /// Starts a new analysis epoch on the shared solver, so the reported
    /// [`AnalysisStats::solver`] is the *delta* attributable to this monitor
    /// alone and its `cross_analysis_hits` counts memo hits served from
    /// earlier analyses in the same context.
    ///
    /// Runs on the calling thread, like [`Expresso::analyze`] (which says
    /// why): the context's arena, solver — its verdicts and theory lemmas —
    /// and WP store are shared, its scheduler is not used.
    ///
    /// # Errors
    ///
    /// Returns [`ExpressoError::Check`] when the monitor is ill-formed.
    pub fn analyze_with_context(
        &self,
        context: &SharedAnalysisContext,
        monitor: &Monitor,
    ) -> Result<AnalysisOutcome, ExpressoError> {
        let key = context.outcome_key(monitor, &self.config);
        self.analyze_keyed(context, monitor, key)
    }

    /// Analyses every monitor of a suite concurrently on the context's
    /// scheduler: one task per monitor, analysed sequentially inside it.
    /// Results are index-aligned with `monitors`
    /// and bit-identical to analysing each monitor alone against the same
    /// kind of context — the thread count only changes wall-clock time,
    /// never outcomes. With `analysis_threads == 1` the monitors run one
    /// after the other on the calling thread, in the order below.
    ///
    /// Monitors the context holds no outcome record for are submitted first,
    /// in suite order: they are the long poles, and the replays of the rest
    /// fill the other workers meanwhile. If there is one, the deferred seed
    /// runs here, on the submitting thread, before any task starts:
    /// the caches then live in the heap of the thread that will free them
    /// and the other threads' heaps are left alone. The replays are not a
    /// small share to hide the seed behind — over a 500-monitor corpus with
    /// one edit, the 499 replays take about 0.7 of the seed's time (3.7 vs
    /// 5.4 ms on one thread) — and still, letting the edited monitor's task
    /// seed while the other worker replays was slower: 0.89 of this order's
    /// edit passes per second (median of 10 alternating pairs, 2 CPUs).
    pub fn analyze_suite(
        &self,
        context: &SharedAnalysisContext,
        monitors: &[Monitor],
    ) -> Vec<Result<AnalysisOutcome, ExpressoError>> {
        let mut slots: Vec<Option<Result<AnalysisOutcome, ExpressoError>>> = Vec::new();
        slots.resize_with(monitors.len(), || None);
        let mut tasks: Vec<_> = monitors
            .iter()
            .zip(slots.iter_mut())
            .map(|(monitor, slot)| {
                let key = context.outcome_key(monitor, &self.config);
                let recorded = key.as_ref().is_some_and(|key| context.holds(key));
                (recorded, monitor, key, slot)
            })
            .collect();
        tasks.sort_by_key(|&(recorded, ..)| recorded);
        if tasks.first().is_some_and(|&(recorded, ..)| !recorded) {
            context.force_seed();
        }
        let pool = context.scheduler();
        pool.scope(|scope| {
            for (_, monitor, key, slot) in tasks {
                scope.spawn(move || *slot = Some(self.analyze_keyed(context, monitor, key)));
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every monitor analyzed"))
            .collect()
    }

    /// One monitor, on the calling thread, with `key` what its outcome is
    /// looked up and filed under (`None`: neither).
    fn analyze_keyed(
        &self,
        context: &SharedAnalysisContext,
        monitor: &Monitor,
        key: Option<OutcomeKey>,
    ) -> Result<AnalysisOutcome, ExpressoError> {
        let _analyze_span = expresso_obs::span!("core.analyze", "{}", monitor.name);
        let start = Instant::now();
        let table = {
            let _span = expresso_obs::span!("core.check");
            check_monitor(monitor).map_err(ExpressoError::Check)?
        };
        // Before the context is asked for its solver: that is what seeds.
        if let Some(replayed) = key.as_ref().and_then(|key| context.replay(key, monitor)) {
            let stats = AnalysisStats {
                invariant_time: Duration::ZERO,
                placement_time: Duration::ZERO,
                total_time: start.elapsed(),
                triples_checked: replayed.report.triples_checked,
                invariant_candidates: replayed.candidates,
                invariant_conjuncts: replayed.conjuncts,
                invariant_refuted: 0,
                invariant_truncated: false,
                solver: SolverStats::default(),
                wp_cache: WpCacheStats::default(),
                interner: context.interner_stats(),
                scheduler: context.scheduler_stats(),
            };
            return Ok(AnalysisOutcome {
                explicit: replayed.explicit,
                invariant: replayed.invariant,
                table,
                report: replayed.report,
                stats,
            });
        }
        let solver = context.solver();
        solver.begin_analysis_epoch();
        let stats_before = solver.stats();
        // One WP session per analysis, shared between the invariant fixpoint
        // and placement. The underlying store is suite-wide: keys carry the
        // statement's lowering fingerprint, so entries inserted by other
        // monitors are shared exactly when that is sound.
        let wp_cache = context.wp_store().session();

        let invariant_start = Instant::now();
        let inferred = if self.config.infer_invariant {
            let _span = expresso_obs::span!("core.invariant", "{}", monitor.name);
            let abduction = AbductionConfig {
                wp_cache: Some(Arc::clone(&wp_cache)),
                ..AbductionConfig::default()
            };
            infer_monitor_invariant_configured(monitor, &table, solver, &abduction)
        } else {
            InvariantOutcome {
                invariant: Formula::True,
                candidates: 0,
                refuted: 0,
                truncated: false,
                kept: 0,
                rounds: 0,
            }
        };
        let invariant = inferred.invariant;
        let invariant_time = invariant_start.elapsed();

        let placement_start = Instant::now();
        let placement_span = expresso_obs::span!("core.placement", "{}", monitor.name);
        let (explicit, report) = place_signals_with(
            monitor,
            &table,
            solver,
            &invariant,
            &PlacementConfig {
                use_commutativity: self.config.use_commutativity,
                wp_cache: Some(Arc::clone(&wp_cache)),
                ..PlacementConfig::default()
            },
        );
        drop(placement_span);
        let placement_time = placement_start.elapsed();

        let stats = AnalysisStats {
            invariant_time,
            placement_time,
            total_time: start.elapsed(),
            triples_checked: report.triples_checked,
            invariant_candidates: inferred.candidates,
            invariant_conjuncts: inferred.kept,
            invariant_refuted: inferred.refuted,
            invariant_truncated: inferred.truncated,
            solver: solver.stats().delta_since(&stats_before),
            wp_cache: wp_cache.stats(),
            interner: context.interner_stats(),
            scheduler: context.scheduler_stats(),
        };
        let outcome = AnalysisOutcome {
            explicit,
            invariant,
            table,
            report,
            stats,
        };
        if let Some(key) = key {
            context.file(key, monitor, &outcome);
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expresso_monitor_lang::parse_monitor;

    const RW: &str = r#"
        monitor RWLock {
            int readers = 0;
            bool writerIn = false;
            atomic void enterReader() { waituntil (!writerIn) { readers++; } }
            atomic void exitReader() { if (readers > 0) readers--; }
            atomic void enterWriter() { waituntil (readers == 0 && !writerIn) { writerIn = true; } }
            atomic void exitWriter() { writerIn = false; }
        }
    "#;

    #[test]
    fn full_pipeline_produces_fewer_notifications_than_broadcast_all() {
        let monitor = parse_monitor(RW).unwrap();
        let outcome = Expresso::new().analyze(&monitor).unwrap();
        let naive = ExplicitMonitor::broadcast_all(monitor);
        assert!(outcome.explicit.notification_count() < naive.notification_count());
        assert!(outcome.stats.triples_checked > 0);
        assert!(outcome.stats.solver.validity_queries > 0);
    }

    #[test]
    fn disabling_invariant_inference_costs_signals() {
        let monitor = parse_monitor(RW).unwrap();
        let with_inv = Expresso::new().analyze(&monitor).unwrap();
        let without_inv = Expresso::with_config(ExpressoConfig {
            infer_invariant: false,
            ..ExpressoConfig::default()
        })
        .analyze(&monitor)
        .unwrap();
        // The paper notes enterReader's no-signal proof requires readers >= 0;
        // without the invariant the pipeline must emit at least one extra
        // notification.
        assert!(without_inv.explicit.notification_count() > with_inv.explicit.notification_count());
    }

    #[test]
    fn static_errors_are_reported() {
        let monitor =
            parse_monitor("monitor Bad { int x = 0; atomic void f() { y = 1; } }").unwrap();
        let err = Expresso::new().analyze(&monitor).unwrap_err();
        assert!(matches!(err, ExpressoError::Check(ref errors) if !errors.is_empty()));
        assert!(err.to_string().contains("undeclared"));
    }

    #[test]
    fn readers_writers_pipeline_reports_cache_hits() {
        let monitor = parse_monitor(RW).unwrap();
        let outcome = Expresso::new().analyze(&monitor).unwrap();
        // Abduction's fixpoint and the O(n²) placement loop re-ask many
        // structurally identical queries; the memo cache must catch them.
        assert!(outcome.stats.solver.cache_hits > 0);
        assert!(outcome.stats.solver.cache_hit_rate() > 0.0);
        assert!(outcome.report.pairs_considered > 0);
        assert!(outcome.report.triples_per_pair() > 0.0);
    }

    #[test]
    fn stats_report_timing() {
        let monitor = parse_monitor(RW).unwrap();
        let outcome = Expresso::new().analyze(&monitor).unwrap();
        assert!(outcome.stats.total_time >= outcome.stats.placement_time);
        assert!(outcome.stats.invariant_candidates >= outcome.stats.invariant_conjuncts);
    }

    #[test]
    fn shared_context_reuses_cache_across_monitors() {
        let monitor = parse_monitor(RW).unwrap();
        let pipeline = Expresso::new();
        let context = SharedAnalysisContext::new(pipeline.config());

        let first = pipeline.analyze_with_context(&context, &monitor).unwrap();
        // The very first analysis cannot reuse earlier epochs' entries.
        assert_eq!(first.stats.solver.cross_analysis_hits, 0);

        let second = pipeline.analyze_with_context(&context, &monitor).unwrap();
        // Re-analysing the same monitor must be answered largely from the
        // first epoch's memo entries.
        assert!(second.stats.solver.cross_analysis_hits > 0);
        assert!(second.stats.solver.cross_analysis_hit_rate() > 0.0);
        assert_eq!(first.explicit, second.explicit);
        assert_eq!(first.invariant, second.invariant);

        // Per-monitor deltas sum to the context-wide counters.
        let total = context.stats();
        assert_eq!(
            total.sat_queries,
            first.stats.solver.sat_queries + second.stats.solver.sat_queries
        );
        assert_eq!(
            total.cross_analysis_hits,
            first.stats.solver.cross_analysis_hits + second.stats.solver.cross_analysis_hits
        );
    }

    #[test]
    fn shared_context_matches_private_context_results() {
        let monitor = parse_monitor(RW).unwrap();
        let pipeline = Expresso::new();
        let context = SharedAnalysisContext::new(pipeline.config());
        let shared = pipeline.analyze_with_context(&context, &monitor).unwrap();
        let private = pipeline.analyze(&monitor).unwrap();
        assert_eq!(shared.explicit, private.explicit);
        assert_eq!(shared.invariant, private.invariant);
        assert_eq!(
            shared.report.pairs_considered,
            private.report.pairs_considered
        );
    }

    #[test]
    fn analyze_suite_matches_individual_analyses() {
        let sources = [
            RW,
            r#"
            monitor Counter {
                int count = 0;
                atomic void release() { count++; }
                atomic void acquire() { waituntil (count > 0) { count--; } }
            }
            "#,
        ];
        let monitors: Vec<Monitor> = sources.iter().map(|s| parse_monitor(s).unwrap()).collect();
        let pipeline = Expresso::new();
        let reference: Vec<_> = monitors
            .iter()
            .map(|m| pipeline.analyze(m).unwrap())
            .collect();
        for threads in [1usize, 4] {
            let pipeline = Expresso::with_config(ExpressoConfig {
                analysis_threads: threads,
                ..ExpressoConfig::default()
            });
            let context = SharedAnalysisContext::new(pipeline.config());
            let outcomes = pipeline.analyze_suite(&context, &monitors);
            assert_eq!(outcomes.len(), monitors.len());
            for (outcome, expected) in outcomes.iter().zip(&reference) {
                let outcome = outcome.as_ref().unwrap();
                assert_eq!(outcome.explicit, expected.explicit, "threads={threads}");
                assert_eq!(outcome.invariant, expected.invariant, "threads={threads}");
                assert_eq!(
                    outcome.report.triples_checked, expected.report.triples_checked,
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn suite_shares_wp_entries_across_monitors() {
        // RWLock and its ticketed sibling share structurally identical CCR
        // bodies (`readers++`, the guarded decrement); the suite-wide WP
        // store must serve the second monitor from the first one's entries.
        let ticketed = r#"
            monitor TicketedRWLock {
                int readers = 0;
                bool writerIn = false;
                int serving = 0;
                atomic void enterReader() { waituntil (!writerIn) { readers++; } }
                atomic void exitReader() { if (readers > 0) readers--; }
                atomic void enterWriter(int ticket) {
                    waituntil (readers == 0 && !writerIn && serving == ticket) { writerIn = true; }
                }
                atomic void exitWriter() { writerIn = false; serving = serving + 1; }
            }
        "#;
        let monitors = vec![parse_monitor(RW).unwrap(), parse_monitor(ticketed).unwrap()];
        let pipeline = Expresso::new();
        let context = SharedAnalysisContext::new(pipeline.config());
        let outcomes = pipeline.analyze_suite(&context, &monitors);
        assert!(outcomes.iter().all(|o| o.is_ok()));
        let store = context.wp_stats();
        assert!(
            store.cross_monitor_hits > 0,
            "expected cross-monitor WP reuse, got {store:?}"
        );
        // The per-session attribution sums to the store totals.
        let per_monitor: usize = outcomes
            .iter()
            .map(|o| o.as_ref().unwrap().stats.wp_cache.cross_monitor_hits)
            .sum();
        assert_eq!(per_monitor, store.cross_monitor_hits);
    }

    #[test]
    fn analysis_thread_count_does_not_change_results() {
        let monitor = parse_monitor(RW).unwrap();
        let reference = Expresso::new().analyze(&monitor).unwrap();
        for threads in [1usize, 2, 8] {
            let outcome = Expresso::with_config(ExpressoConfig {
                analysis_threads: threads,
                ..ExpressoConfig::default()
            })
            .analyze(&monitor)
            .unwrap();
            assert_eq!(outcome.explicit, reference.explicit, "threads={threads}");
            assert_eq!(outcome.invariant, reference.invariant, "threads={threads}");
            assert_eq!(
                outcome.report.triples_checked, reference.report.triples_checked,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn config_surface_is_exactly_five_fields() {
        // Destructured without `..`: adding or removing a field fails to
        // compile here, so the settable surface cannot grow unnoticed.
        let ExpressoConfig {
            infer_invariant,
            use_commutativity,
            analysis_threads,
            cache_dir,
            trace_path,
        } = ExpressoConfig::default();
        assert!(infer_invariant && use_commutativity);
        assert_eq!(analysis_threads, 0);
        assert!(cache_dir.is_none() && trace_path.is_none());
    }
}
