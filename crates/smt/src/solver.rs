//! The lazy DPLL(T) driver: boolean abstraction, SAT enumeration, theory checks.

use crate::cooper;
use crate::fourier_motzkin::{refute, Constraint, RationalFeasibility};
use crate::linear::{LinExpr, TranslateError};
use crate::sat::{neg, pos, Lit, SatOutcome, SatSolver};
use expresso_logic::{
    CmpOp, Formula, FormulaId, FormulaNode, FxHasher, Ident, Interner, Term, Valuation,
};
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Resource limits of a [`Solver`].
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Maximum number of SAT-model / theory-check rounds before giving up.
    pub max_theory_rounds: usize,
    /// Maximum intermediate system size for the Fourier–Motzkin pre-check.
    pub fourier_motzkin_limit: usize,
    /// Maximum number of candidate assignments explored when extracting a
    /// concrete counter-model (model extraction is best-effort).
    pub model_search_limit: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_theory_rounds: 300,
            fourier_motzkin_limit: 400,
            model_search_limit: 20_000,
        }
    }
}

/// Counters describing the work a [`Solver`] has performed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Satisfiability queries answered.
    pub sat_queries: usize,
    /// Validity queries answered.
    pub validity_queries: usize,
    /// Satisfiability queries answered from the memo cache.
    pub cache_hits: usize,
    /// Satisfiability queries that had to be solved and were then cached.
    pub cache_misses: usize,
    /// Memo hits (across both tables) served by entries inserted during
    /// an *earlier* analysis epoch — i.e. work one monitor's analysis reused
    /// from a previous monitor when the solver is shared across a suite (see
    /// [`Solver::begin_analysis_epoch`]). Always 0 for a single-epoch solver.
    pub cross_analysis_hits: usize,
    /// Memo hits (across both tables) served by entries seeded from a
    /// persisted artifact of an earlier process (see [`Solver::seed_sat_cache`]
    /// and friends) — the warm-start reuse `expresso-persist` buys. Always 0
    /// for a cold-started solver.
    pub disk_hits: usize,
    /// Quantifier eliminations answered from the memo cache.
    pub qe_cache_hits: usize,
    /// Quantifier eliminations that had to be computed and were then cached.
    pub qe_cache_misses: usize,
    /// Always 0: the exact-key theory-verdict cache this counted hits of is
    /// gone (the lemma store of [`Solver`] covers what it caught). The field
    /// stays because the frozen `benchmark/` package names it; it leaves with
    /// the next PR that owns that package (ROADMAP 6(b)).
    pub theory_cache_hits: usize,
    /// Always 0, kept for the same reason as
    /// [`theory_cache_hits`](Self::theory_cache_hits).
    pub theory_cache_misses: usize,
    /// Propositional SAT calls issued by the DPLL(T) loop.
    pub sat_solver_calls: usize,
    /// Theory-consistency checks of candidate propositional models.
    pub theory_checks: usize,
    /// Quantifier eliminations performed (including those used for theory checks).
    pub quantifier_eliminations: usize,
    /// Single-variable eliminations Cooper's procedure ran: one per binder of
    /// every quantifier it eliminated, unless the step memo answered it.
    pub qe_steps: usize,
    /// Single-variable eliminations answered by the step memo: the same
    /// variable eliminated from the same matrix earlier on this solver.
    pub qe_step_hits: usize,
    /// Conflicts detected by the Fourier–Motzkin rational pre-check alone.
    pub fm_fast_conflicts: usize,
    /// Fourier–Motzkin elimination runs: one per pre-check plus every re-run
    /// that shrinks a conflict's Farkas set to a minimal core.
    pub fm_runs: usize,
    /// Queries where non-linear or array atoms were abstracted as opaque booleans.
    pub abstracted_queries: usize,
}

impl SolverStats {
    /// Fraction of cacheable work (satisfiability queries and quantifier
    /// eliminations) answered from the memo caches; 0.0 when the caches saw
    /// no traffic.
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.cache_hits + self.qe_cache_hits;
        let total = hits + self.cache_misses + self.qe_cache_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Fraction of all memo hits that crossed an analysis-epoch boundary —
    /// the cross-monitor reuse a shared suite-wide solver buys. 0.0 when the
    /// caches saw no hits at all.
    pub fn cross_analysis_hit_rate(&self) -> f64 {
        let hits = self.cache_hits + self.qe_cache_hits;
        if hits == 0 {
            0.0
        } else {
            self.cross_analysis_hits as f64 / hits as f64
        }
    }

    /// Adapt into a metric group for [`expresso_obs::MetricsRegistry`].
    pub fn metrics(&self) -> Vec<expresso_obs::Metric> {
        use expresso_obs::Metric;
        vec![
            Metric::counter("sat_queries", self.sat_queries as u64),
            Metric::counter("validity_queries", self.validity_queries as u64),
            Metric::counter("cache_hits", self.cache_hits as u64),
            Metric::counter("cache_misses", self.cache_misses as u64),
            Metric::counter("cross_analysis_hits", self.cross_analysis_hits as u64),
            Metric::counter("disk_hits", self.disk_hits as u64),
            Metric::counter("qe_cache_hits", self.qe_cache_hits as u64),
            Metric::counter("qe_cache_misses", self.qe_cache_misses as u64),
            Metric::counter("sat_solver_calls", self.sat_solver_calls as u64),
            Metric::counter("theory_checks", self.theory_checks as u64),
            Metric::counter(
                "quantifier_eliminations",
                self.quantifier_eliminations as u64,
            ),
            Metric::counter("qe_steps", self.qe_steps as u64),
            Metric::counter("qe_step_hits", self.qe_step_hits as u64),
            Metric::counter("fm_fast_conflicts", self.fm_fast_conflicts as u64),
            Metric::counter("fm_runs", self.fm_runs as u64),
            Metric::counter("abstracted_queries", self.abstracted_queries as u64),
            Metric::gauge("cache_hit_rate", self.cache_hit_rate()),
            Metric::gauge("cross_analysis_hit_rate", self.cross_analysis_hit_rate()),
        ]
    }

    /// Field-wise difference `self - earlier` (saturating), used to attribute
    /// a shared solver's counters to the single analysis that ran in between
    /// two snapshots.
    pub fn delta_since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            sat_queries: self.sat_queries.saturating_sub(earlier.sat_queries),
            validity_queries: self
                .validity_queries
                .saturating_sub(earlier.validity_queries),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            cross_analysis_hits: self
                .cross_analysis_hits
                .saturating_sub(earlier.cross_analysis_hits),
            disk_hits: self.disk_hits.saturating_sub(earlier.disk_hits),
            qe_cache_hits: self.qe_cache_hits.saturating_sub(earlier.qe_cache_hits),
            qe_cache_misses: self.qe_cache_misses.saturating_sub(earlier.qe_cache_misses),
            theory_cache_hits: 0,
            theory_cache_misses: 0,
            sat_solver_calls: self
                .sat_solver_calls
                .saturating_sub(earlier.sat_solver_calls),
            theory_checks: self.theory_checks.saturating_sub(earlier.theory_checks),
            quantifier_eliminations: self
                .quantifier_eliminations
                .saturating_sub(earlier.quantifier_eliminations),
            qe_steps: self.qe_steps.saturating_sub(earlier.qe_steps),
            qe_step_hits: self.qe_step_hits.saturating_sub(earlier.qe_step_hits),
            fm_fast_conflicts: self
                .fm_fast_conflicts
                .saturating_sub(earlier.fm_fast_conflicts),
            fm_runs: self.fm_runs.saturating_sub(earlier.fm_runs),
            abstracted_queries: self
                .abstracted_queries
                .saturating_sub(earlier.abstracted_queries),
        }
    }
}

/// Errors reported through [`SatResult::Unknown`] / [`ValidityResult::Unknown`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverError {
    /// The formula left the decidable fragment (non-linear term or array read
    /// under a quantifier).
    OutsideFragment(String),
    /// The configured resource limit was exceeded.
    ResourceLimit(String),
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::OutsideFragment(m) => write!(f, "outside decidable fragment: {m}"),
            SolverError::ResourceLimit(m) => write!(f, "resource limit exceeded: {m}"),
        }
    }
}

impl std::error::Error for SolverError {}

impl From<TranslateError> for SolverError {
    fn from(e: TranslateError) -> Self {
        match e {
            TranslateError::Overflow(_) => SolverError::ResourceLimit(e.to_string()),
            TranslateError::NonLinear(_) | TranslateError::ArrayRead(_) => {
                SolverError::OutsideFragment(e.to_string())
            }
        }
    }
}

/// Result of a satisfiability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable. The verdict carries no model — nothing in the analysis
    /// reads one; [`Solver::model`] finds one for whoever does.
    Sat,
    /// Unsatisfiable.
    Unsat,
    /// The solver could not decide the query.
    Unknown(SolverError),
}

impl SatResult {
    /// Returns `true` for [`SatResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat)
    }

    /// Returns `true` for [`SatResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatResult::Unsat)
    }
}

/// Result of a validity query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidityResult {
    /// The formula holds in every model.
    Valid,
    /// The formula has a counter-model: [`Solver::model`] of its negation.
    Invalid,
    /// The solver could not decide the query.
    Unknown(SolverError),
}

impl From<SatResult> for ValidityResult {
    /// The validity of `f` from the satisfiability of `¬f`.
    fn from(negation: SatResult) -> Self {
        match negation {
            SatResult::Unsat => ValidityResult::Valid,
            SatResult::Sat => ValidityResult::Invalid,
            SatResult::Unknown(e) => ValidityResult::Unknown(e),
        }
    }
}

impl ValidityResult {
    /// Returns `true` only for [`ValidityResult::Valid`]; `Unknown` is treated
    /// as "not proven", which is the conservative reading every caller needs.
    pub fn is_valid(&self) -> bool {
        matches!(self, ValidityResult::Valid)
    }
}

/// Live statistics counters. Every counter is a relaxed atomic so the hot
/// query paths never serialize on a stats mutex; [`StatsCells::snapshot`]
/// produces the public [`SolverStats`] view.
#[derive(Debug, Default)]
struct StatsCells {
    sat_queries: AtomicUsize,
    validity_queries: AtomicUsize,
    cache_hits: AtomicUsize,
    cache_misses: AtomicUsize,
    cross_analysis_hits: AtomicUsize,
    disk_hits: AtomicUsize,
    qe_cache_hits: AtomicUsize,
    qe_cache_misses: AtomicUsize,
    sat_solver_calls: AtomicUsize,
    theory_checks: AtomicUsize,
    quantifier_eliminations: AtomicUsize,
    fm_fast_conflicts: AtomicUsize,
    fm_runs: AtomicUsize,
    abstracted_queries: AtomicUsize,
}

impl StatsCells {
    fn snapshot(&self) -> SolverStats {
        let load = |c: &AtomicUsize| c.load(Ordering::Relaxed);
        SolverStats {
            sat_queries: load(&self.sat_queries),
            validity_queries: load(&self.validity_queries),
            cache_hits: load(&self.cache_hits),
            cache_misses: load(&self.cache_misses),
            cross_analysis_hits: load(&self.cross_analysis_hits),
            disk_hits: load(&self.disk_hits),
            qe_cache_hits: load(&self.qe_cache_hits),
            qe_cache_misses: load(&self.qe_cache_misses),
            theory_cache_hits: 0,
            theory_cache_misses: 0,
            sat_solver_calls: load(&self.sat_solver_calls),
            theory_checks: load(&self.theory_checks),
            quantifier_eliminations: load(&self.quantifier_eliminations),
            // Counted by Cooper's procedure; see `Solver::stats`.
            qe_steps: 0,
            qe_step_hits: 0,
            fm_fast_conflicts: load(&self.fm_fast_conflicts),
            fm_runs: load(&self.fm_runs),
            abstracted_queries: load(&self.abstracted_queries),
        }
    }
}

fn bump(counter: &AtomicUsize) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// One memoized value plus its provenance: the analysis epoch it was inserted
/// in (cross-analysis accounting) and whether it was seeded from a persisted
/// artifact of an earlier process rather than computed here (disk-hit
/// accounting).
#[derive(Debug, Clone)]
struct CacheEntry<V> {
    value: V,
    epoch: u32,
    from_disk: bool,
}

/// A memo table behind one lock. Entries remember the analysis epoch they
/// were inserted in, which funds the cross-monitor reuse accounting of a
/// suite-shared solver. Two workers that miss the same cold key both compute
/// it, and the first to finish files its value; the values are equal.
#[derive(Debug)]
struct MemoCache<K, V> {
    map: Mutex<HashMap<K, CacheEntry<V>>>,
}

impl<K: Hash + Eq + Clone, V: Clone> MemoCache<K, V> {
    fn new() -> Self {
        MemoCache {
            map: Mutex::new(HashMap::new()),
        }
    }

    /// The entry memoized for `key`, if any.
    fn get(&self, key: &K) -> Option<CacheEntry<V>> {
        self.map.lock().unwrap().get(key).cloned()
    }

    /// Files `entry` under `key` unless the key has one already: a racing
    /// worker's equal value, or a disk-seeded entry, is never clobbered.
    /// Returns whether it was filed.
    fn file(&self, key: K, entry: CacheEntry<V>) -> bool {
        match self.map.lock().unwrap().entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(entry);
                true
            }
            Entry::Occupied(_) => false,
        }
    }

    /// Reads a cached value without epoch bookkeeping (used by the batch
    /// scheduler to order obligations; never counted as a hit).
    fn peek(&self, key: &K) -> Option<V> {
        self.get(key).map(|entry| entry.value)
    }

    /// Snapshot of every memoized `(key, value)` pair, in no particular
    /// order. The persistence layer serializes this; callers wanting a
    /// deterministic artifact sort the result themselves.
    fn export(&self) -> Vec<(K, V)> {
        let map = self.map.lock().unwrap();
        map.iter()
            .map(|(k, entry)| (k.clone(), entry.value.clone()))
            .collect()
    }

    /// Files externally computed entries, marked as disk-seeded for the
    /// [`SolverStats::disk_hits`] accounting. Keys already present are left
    /// untouched: a live computation is never clobbered by stale artifact
    /// data. Returns the number of entries filed.
    fn seed(&self, entries: Vec<(K, V)>, epoch: u32) -> usize {
        let file = |(key, value)| {
            let entry = CacheEntry {
                value,
                epoch,
                from_disk: true,
            };
            self.file(key, entry)
        };
        entries.into_iter().map(file).filter(|&filed| filed).count()
    }
}

/// The workspace SMT solver and memoizing query context.
///
/// See the crate-level documentation for the architecture. A `Solver` carries
/// configuration, statistics, a shared formula [`Interner`], two memo tables
/// keyed on normalized interned formulas (verdicts and quantifier
/// eliminations) and a store of theory lemmas. Each memo table has one lock,
/// held for a lookup or an insert and never while a query is solved, and the
/// statistics are atomics, so a single solver can be shared by reference
/// across the worker threads that discharge independent placement
/// obligations in parallel.
///
/// # Theory lemmas
///
/// The queries of one monitor (and of the monitors of a suite) are built
/// from the same few atoms, so the DPLL(T) loop of one query keeps proposing
/// assignments that the theory refuted in an earlier query. Every
/// refutation Fourier–Motzkin certifies is therefore kept: a **lemma** is the
/// minimal core of such a refutation — a set of `(atom, polarity)` literals,
/// atoms named by [`FormulaId`] and hence the same in every query on this
/// arena, whose conjunction has no rational and so no integer solution. It
/// is filed once, and a later query whose atoms include all of a lemma's
/// starts with the lemma as a clause, before its first propositional model
/// is asked for (see `dpll_t`).
///
/// * **Only Farkas-certified cores qualify.** A core is what an elimination
///   run with checked arithmetic returned `Infeasible` on, cut down by
///   re-running inside it; a run that overflowed or outgrew its limit
///   concludes nothing and contributes nothing, and a conflict Cooper's
///   procedure finds has no core to keep.
/// * **Verdicts cannot change.** The negation of a theory-inconsistent
///   conjunction holds in every model of the theory, so a lemma removes only
///   propositional assignments the theory check would have refuted itself:
///   a query is `Sat` with lemmas exactly when it is without. What changes is
///   how many rounds that takes — so a query that ran out of
///   [`SolverConfig::max_theory_rounds`] on a fresh solver can get its
///   verdict here; `Unknown` can only become more definite, never the
///   reverse.
/// * **Nothing is persisted.** The store lives and dies with the solver. A
///   lemma is cheap to find again (a monitor re-learns its own in well under
///   a millisecond) and means nothing without the arena that named its atoms.
///
/// The same store remembers what each atom *is* — boolean, linear or
/// opaque — so an atom is classified by the first query that mentions it and
/// by no other. A linear atom is kept compiled: its Fourier–Motzkin rows for
/// both polarities, and what the integer witness search needs (its exact
/// test `e ⋈ 0` or `d | e`, its variables and the constants it adds to the
/// search grid).
///
/// One mutex guards the store: it is taken once per uncached query and once
/// per conflict, each for a handful of hash lookups. The store replaced an
/// exact-key cache of theory verdicts that, with lemmas in, answered 43 of
/// 917 lookups on the Table 1 suite and cost more than it saved on a
/// 500-monitor corpus.
///
/// # Quantifier elimination
///
/// Cooper's procedure keeps an arena of its own beside the shared one, the
/// atoms of it that it has compiled, and a memo of the single-variable
/// eliminations it has run: (variable, negation-normal matrix) → answer, a
/// ∀-step being the ∃-step of the negated matrix. Abduction asks for
/// `∀ V. P ⇒ C` over many variable subsets `V`, and subsets that share their
/// innermost binders share their first steps. Like the lemma store, none of
/// it is persisted; the whole-formula memo beside it (`qe_cache`) is what the
/// artifact carries.
#[derive(Debug)]
pub struct Solver {
    config: SolverConfig,
    stats: StatsCells,
    interner: Arc<Interner>,
    /// The current analysis epoch; bumped by [`Solver::begin_analysis_epoch`].
    epoch: AtomicU32,
    cache: MemoCache<FormulaId, SatResult>,
    qe_cache: MemoCache<FormulaId, Result<FormulaId, TranslateError>>,
    qe: cooper::Qe,
    atoms: Mutex<AtomStore>,
}

/// A set of `(atom, assigned polarity)` theory literals, sorted.
type Literals = Vec<(FormulaId, bool)>;

/// Why locking the atom store cannot fail: no holder of the lock panics
/// (classifying an atom and filing a lemma are total).
const ATOM_STORE_LOCK: &str = "no holder of the atom store panics";

/// A hash map keyed on arena ids, which need no DoS-resistant hashing.
type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// What one [`Solver`] remembers about the atoms it has met (see its
/// documentation), all of it keyed by the atom's [`FormulaId`].
#[derive(Debug, Default)]
struct AtomStore {
    /// The classification of an atom, compiled as far as the theory check
    /// needs, worked out the first time any query mentions it.
    kinds: FxMap<FormulaId, Arc<AtomKind>>,
    /// The theory lemmas, each filed under its first atom, so a query meets
    /// a lemma at most once.
    lemmas: FxMap<FormulaId, Vec<Literals>>,
}

impl AtomStore {
    /// Classifies the atoms `atoms` numbered, each on first sight.
    fn classify(&mut self, interner: &Interner, atoms: &mut AtomTable) {
        let AtomTable { ids, kinds, .. } = atoms;
        kinds.clear();
        kinds.extend(ids.iter().map(|&id| {
            let kind = self.kinds.entry(id);
            Arc::clone(kind.or_insert_with(|| Arc::new(AtomKind::of(interner, id))))
        }));
    }

    /// Files `core` as a lemma unless it is there already.
    fn learn(&mut self, mut core: Literals) {
        core.sort_unstable();
        let Some(&(first, _)) = core.first() else {
            return;
        };
        let filed = self.lemmas.entry(first).or_default();
        if !filed.contains(&core) {
            filed.push(core);
        }
    }

    /// Adds to `sat` the clause of every lemma whose atoms all occur in
    /// `atoms`, in the order of `atoms` and, under one atom, in the order
    /// they were filed. `clause` is scratch space.
    fn add_lemma_clauses(&self, atoms: &AtomTable, sat: &mut SatSolver, clause: &mut Vec<Lit>) {
        for filed in atoms.ids.iter().filter_map(|id| self.lemmas.get(id)) {
            for lemma in filed {
                clause.clear();
                let over_atoms = lemma.iter().all(|&(id, value)| {
                    let idx = atoms.index.get(&id);
                    clause.extend(idx.map(|&idx| refuting(idx, value)));
                    idx.is_some()
                });
                if over_atoms {
                    sat.add_clause(clause);
                }
            }
        }
    }
}

impl Default for Solver {
    fn default() -> Self {
        Solver::with_config(SolverConfig::default())
    }
}

impl Solver {
    /// Creates a solver with the default configuration and a fresh arena.
    pub fn new() -> Self {
        Solver::default()
    }

    /// Creates a solver with explicit resource limits and a fresh arena.
    pub fn with_config(config: SolverConfig) -> Self {
        let interner = Arc::new(Interner::new());
        Solver {
            config,
            stats: StatsCells::default(),
            qe: cooper::Qe::new(Arc::clone(&interner)),
            interner,
            epoch: AtomicU32::new(0),
            cache: MemoCache::new(),
            qe_cache: MemoCache::new(),
            atoms: Mutex::default(),
        }
    }

    /// The formula arena this solver interns and caches on.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// Returns a snapshot of the statistics counters.
    pub fn stats(&self) -> SolverStats {
        let (qe_steps, qe_step_hits) = self.qe.step_counts();
        SolverStats {
            qe_steps,
            qe_step_hits,
            ..self.stats.snapshot()
        }
    }

    /// Starts a new analysis epoch and returns it.
    ///
    /// Epochs partition the solver's lifetime into per-analysis segments:
    /// memo hits on entries inserted during an earlier epoch are counted as
    /// [`SolverStats::cross_analysis_hits`]. A suite harness that reuses one
    /// solver across many monitors calls this once per monitor, turning the
    /// counter into the measured cross-monitor cache reuse.
    pub fn begin_analysis_epoch(&self) -> u32 {
        self.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn current_epoch(&self) -> u32 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// `cache`'s value for `key`, counted in `hits`, or else `compute`'s,
    /// counted in `misses` and filed.
    fn memoized<V: Clone>(
        &self,
        cache: &MemoCache<FormulaId, V>,
        key: FormulaId,
        [hits, misses]: [&AtomicUsize; 2],
        compute: impl FnOnce() -> V,
    ) -> V {
        let epoch = self.current_epoch();
        if let Some(entry) = cache.get(&key) {
            bump(hits);
            if entry.epoch != epoch {
                bump(&self.stats.cross_analysis_hits);
            }
            if entry.from_disk {
                bump(&self.stats.disk_hits);
            }
            return entry.value;
        }
        let value = compute();
        bump(misses);
        let entry = CacheEntry {
            value: value.clone(),
            epoch,
            from_disk: false,
        };
        cache.file(key, entry);
        value
    }

    /// Every lemma in the store, each as its sorted literals. For the solver
    /// oracle (`tests/solver_stress.rs`), which holds each one against a
    /// brute-force box; nothing in the analysis reads lemmas back.
    #[doc(hidden)]
    pub fn lemmas(&self) -> Vec<Vec<(FormulaId, bool)>> {
        let store = self.atoms.lock().expect(ATOM_STORE_LOCK);
        store.lemmas.values().flatten().cloned().collect()
    }

    /// Files `literals` as a lemma **without any certificate**. For the
    /// oracle's sabotage self-test only: a lemma over satisfiable literals
    /// makes this solver answer `Unsat` wrongly, which is the failure the
    /// oracle must be seen to catch.
    #[doc(hidden)]
    pub fn plant_lemma(&self, literals: Vec<(FormulaId, bool)>) {
        self.atoms.lock().expect(ATOM_STORE_LOCK).learn(literals);
    }

    // ------------------------------------------------------------------
    // Persistence hooks (`expresso-persist`)
    // ------------------------------------------------------------------

    /// Snapshot of the satisfiability memo table as `(normalized query id,
    /// verdict)` pairs, for serialization by the persistence layer.
    pub fn export_sat_cache(&self) -> Vec<(FormulaId, SatResult)> {
        self.cache.export()
    }

    /// Snapshot of the quantifier-elimination memo table as `(normalized
    /// input id, result)` pairs.
    pub fn export_qe_cache(&self) -> Vec<(FormulaId, Result<FormulaId, TranslateError>)> {
        self.qe_cache.export()
    }

    /// Seeds the satisfiability memo table with entries re-interned from a
    /// persisted artifact. Keys must be the exact ids the warm run's own
    /// normalization would produce — the persistence layer guarantees this by
    /// serializing the post-normalization formula nodes and re-interning
    /// them, node by node, through this solver's arena. Existing entries win over seeded ones.
    /// Hits on seeded entries count into [`SolverStats::disk_hits`].
    pub fn seed_sat_cache(&self, entries: Vec<(FormulaId, SatResult)>) -> usize {
        self.cache.seed(entries, self.current_epoch())
    }

    /// Seeds the quantifier-elimination memo table; see
    /// [`Solver::seed_sat_cache`] for the key contract.
    pub fn seed_qe_cache(
        &self,
        entries: Vec<(FormulaId, Result<FormulaId, TranslateError>)>,
    ) -> usize {
        self.qe_cache.seed(entries, self.current_epoch())
    }

    /// Eliminates all quantifiers from `formula`.
    ///
    /// Tree-boundary convenience wrapper over
    /// [`Solver::eliminate_quantifiers_id`].
    ///
    /// # Errors
    ///
    /// Fails when an atom mentioning a quantified variable is non-linear or
    /// reads from an array.
    pub fn eliminate_quantifiers(&self, formula: &Formula) -> Result<Formula, TranslateError> {
        let id = self.interner.intern(formula);
        self.eliminate_quantifiers_id(id)
            .map(|f| self.interner.formula(f))
    }

    /// Eliminates all quantifiers from an interned formula, staying on ids.
    ///
    /// The input is normalized through the arena and the (simplified input →
    /// result) pair is memoized: abduction runs dozens of eliminations over
    /// overlapping implications, and Cooper's procedure is by far the most
    /// expensive step in the whole pipeline. Quantifier-free input returns
    /// its normal form immediately.
    ///
    /// # Errors
    ///
    /// Fails when an atom mentioning a quantified variable is non-linear or
    /// reads from an array.
    pub fn eliminate_quantifiers_id(&self, id: FormulaId) -> Result<FormulaId, TranslateError> {
        let norm = self.interner.simplify(id);
        if !self.interner.has_quantifier(norm) {
            return Ok(norm);
        }
        let counters = [&self.stats.qe_cache_hits, &self.stats.qe_cache_misses];
        self.memoized(&self.qe_cache, norm, counters, || {
            bump(&self.stats.quantifier_eliminations);
            let _span = expresso_obs::span!("smt.qe");
            self.qe.eliminate_quantifiers(norm)
        })
    }

    /// Checks satisfiability of `formula`.
    pub fn check_sat(&self, formula: &Formula) -> SatResult {
        let id = self.interner.intern(formula);
        self.check_sat_id(id)
    }

    /// Checks satisfiability of an interned formula.
    ///
    /// The query is normalized (memoized arena simplification) and the result
    /// is served from / recorded in the query cache keyed on the normalized
    /// id.
    pub fn check_sat_id(&self, id: FormulaId) -> SatResult {
        bump(&self.stats.sat_queries);
        let norm = self.interner.simplify(id);
        if self.interner.is_true(norm) {
            return SatResult::Sat;
        }
        if self.interner.is_false(norm) {
            return SatResult::Unsat;
        }
        let counters = [&self.stats.cache_hits, &self.stats.cache_misses];
        self.memoized(&self.cache, norm, counters, || self.solve_uncached(norm))
    }

    /// Solves a normalized query (cache miss path).
    fn solve_uncached(&self, norm: FormulaId) -> SatResult {
        let _span = expresso_obs::span!("smt.sat");
        let solved = self
            .ground_nnf(norm)
            .map(|nnf| with_workspace(|ws| self.dpll_t(nnf, ws)));
        match solved {
            Ok(Dpll::Sat(_)) => SatResult::Sat,
            Ok(Dpll::Unsat) => SatResult::Unsat,
            Ok(Dpll::Unknown(e)) | Err(e) => SatResult::Unknown(e),
        }
    }

    /// The quantifier-free negation normal form of a normalized query, which
    /// is what the DPLL(T) loop runs on. Quantifier elimination stays on ids
    /// end to end; quantifier-free subtrees are never reconstructed.
    fn ground_nnf(&self, norm: FormulaId) -> Result<FormulaId, SolverError> {
        let qf = if self.interner.has_quantifier(norm) {
            self.eliminate_quantifiers_id(norm)?
        } else {
            norm
        };
        Ok(self.interner.nnf(self.interner.simplify(qf)))
    }

    /// A model of `formula`, for whoever wants to see one: `None` when the
    /// formula is not satisfiable — or when it is and no model was found,
    /// extraction being best-effort (see [`Solver::model_id`]).
    pub fn model(&self, formula: &Formula) -> Option<Valuation> {
        self.model_id(self.interner.intern(formula))
    }

    /// A model of an interned formula. No verdict carries one
    /// ([`SatResult::Sat`], [`ValidityResult::Invalid`]): placement and
    /// abduction read verdicts only, so this solves the query again, past the
    /// verdict cache, and looks for values under the propositional model the
    /// DPLL(T) loop ends on. The booleans come from that model; the integers
    /// from the witness search the theory check runs, over the theory
    /// literals that model asserts, on a grid derived from the constants of
    /// the formula ([`SolverConfig::model_search_limit`] points at most).
    /// `None` when the query is not `Sat`, when it contains atoms the solver
    /// treats as opaque, or when the grid holds no model. Counts as no query
    /// in [`SolverStats`], though the rounds it runs are counted.
    pub fn model_id(&self, id: FormulaId) -> Option<Valuation> {
        let nnf = self.ground_nnf(self.interner.simplify(id)).ok()?;
        with_workspace(|ws| {
            let Dpll::Sat(model) = self.dpll_t(nnf, ws) else {
                return None;
            };
            let atoms = &ws.atoms;
            if atoms.abstracted() {
                return None;
            }
            let literals = atoms.theory_literals(&model);
            let found = witness(&literals, self.config.model_search_limit)?;
            let mut valuation = Valuation::new();
            for (idx, kind) in atoms.kinds.iter().enumerate() {
                if let AtomKind::Bool(name) = &**kind {
                    let value = model.get(idx).copied().unwrap_or(false);
                    valuation.set_bool(name.clone(), value);
                }
            }
            for (var, &value) in found.vars.iter().zip(&found.point) {
                valuation.set_int(*var, value);
            }
            Some(valuation)
        })
    }

    /// Checks validity of `formula` (truth in every model).
    pub fn check_valid(&self, formula: &Formula) -> ValidityResult {
        let id = self.interner.intern(formula);
        self.check_valid_id(id)
    }

    /// Checks validity of an interned formula.
    pub fn check_valid_id(&self, id: FormulaId) -> ValidityResult {
        bump(&self.stats.validity_queries);
        self.check_sat_id(self.interner.mk_not(id)).into()
    }

    /// Checks validity of a batch of interned formulas.
    ///
    /// Results are index-aligned with the input, but the batch is exploited:
    /// duplicate ids are discharged once, and the distinct queries run in
    /// expected-cost order — already-cached verdicts first (they are free),
    /// then ascending structural size, so cheap refutations fill the lemma
    /// store and the QE memo table before the expensive obligations meet the
    /// overlapping cores. Ordering never changes a verdict (each query is a
    /// pure function of its formula); it only shifts cache traffic.
    pub fn check_valid_batch(&self, ids: &[FormulaId]) -> Vec<ValidityResult> {
        self.check_valid_batch_with(ids, |_, _| true)
            .into_iter()
            .map(|r| r.expect("uncancelled batch answers every query"))
            .collect()
    }

    /// Cancellable variant of [`Solver::check_valid_batch`]: the speculative
    /// discharge path of signal placement submits a pair's no-signal and
    /// conditional obligations together and cancels the loser once the
    /// early-exit verdict lands.
    ///
    /// `keep_going` is invoked once per *input position* as its verdict
    /// becomes available (duplicates of one formula are reported together,
    /// in input order, after the single solve). Returning `false` cancels
    /// every query that has not been solved yet; cancelled positions come
    /// back as `None`. The solve order is the batch schedule of
    /// [`Solver::check_valid_batch`] — cached verdicts first (they are
    /// free), then ascending structural size — so a cancellation typically
    /// saves exactly the expensive tail of the batch.
    pub fn check_valid_batch_with(
        &self,
        ids: &[FormulaId],
        mut keep_going: impl FnMut(usize, &ValidityResult) -> bool,
    ) -> Vec<Option<ValidityResult>> {
        let mut distinct: Vec<FormulaId> = Vec::new();
        let mut seen = HashSet::new();
        for &id in ids {
            if seen.insert(id) {
                distinct.push(id);
            }
        }
        distinct
            .sort_by_cached_key(|&id| (self.cached_validity(id).is_none(), self.interner.size(id)));
        let mut verdicts: HashMap<FormulaId, ValidityResult> = HashMap::new();
        'solve: for id in distinct {
            let verdict = self.check_valid_id(id);
            let mut cancelled = false;
            for (position, &input) in ids.iter().enumerate() {
                if input == id && !keep_going(position, &verdict) {
                    cancelled = true;
                }
            }
            verdicts.insert(id, verdict);
            if cancelled {
                break 'solve;
            }
        }
        ids.iter().map(|id| verdicts.get(id).cloned()).collect()
    }

    /// Peeks at the memo cache for the validity of `id` without solving,
    /// without counting a query and without epoch bookkeeping. `None` when
    /// the verdict is unknown to the cache.
    ///
    /// The batch discharge paths use this to schedule already-answered
    /// obligations first.
    pub fn cached_validity(&self, id: FormulaId) -> Option<ValidityResult> {
        let norm = self.interner.simplify(self.interner.mk_not(id));
        if self.interner.is_false(norm) {
            return Some(ValidityResult::Valid);
        }
        if self.interner.is_true(norm) {
            return Some(ValidityResult::Invalid);
        }
        self.cache.peek(&norm).map(ValidityResult::from)
    }

    /// Convenience wrapper: `true` exactly when `formula` is proven valid.
    pub fn is_valid(&self, formula: &Formula) -> bool {
        self.check_valid(formula).is_valid()
    }

    /// Checks validity of the implication `premise ⇒ conclusion`.
    pub fn check_implies(&self, premise: &Formula, conclusion: &Formula) -> ValidityResult {
        let p = self.interner.intern(premise);
        let c = self.interner.intern(conclusion);
        self.check_valid_id(self.interner.mk_implies(p, c))
    }

    /// Checks validity of `premise ⇒ conclusion` over interned formulas.
    pub fn check_implies_ids(&self, premise: FormulaId, conclusion: FormulaId) -> ValidityResult {
        self.check_valid_id(self.interner.mk_implies(premise, conclusion))
    }

    /// Checks whether two formulas are logically equivalent.
    ///
    /// The query is canonicalized by interned id (`iff` is commutative), so
    /// `check_equiv(a, b)` and `check_equiv(b, a)` share one cache entry —
    /// the commutativity precomputation asks both orders for every CCR pair.
    pub fn check_equiv(&self, lhs: &Formula, rhs: &Formula) -> ValidityResult {
        let l = self.interner.intern(lhs);
        let r = self.interner.intern(rhs);
        self.check_equiv_ids(l, r)
    }

    /// Checks logical equivalence of two interned formulas (canonicalized by
    /// id like [`Solver::check_equiv`]).
    pub fn check_equiv_ids(&self, lhs: FormulaId, rhs: FormulaId) -> ValidityResult {
        let (l, r) = if rhs < lhs { (rhs, lhs) } else { (lhs, rhs) };
        self.check_valid_id(self.interner.mk_iff(l, r))
    }

    // ------------------------------------------------------------------
    // DPLL(T)
    // ------------------------------------------------------------------

    /// The lazy DPLL(T) loop over a quantifier-free NNF formula: abstract the
    /// atoms to propositional variables, ask the SAT solver for a model, ask
    /// the theory whether the literals that model asserts are consistent, and
    /// block the conflict if not.
    ///
    /// Before the first round every stored lemma over this query's atoms is
    /// added as a clause, and every conflict core Fourier–Motzkin certifies
    /// here is filed for the queries to come ([`Solver`] says what a lemma is
    /// and why this changes the number of rounds and nothing else). A conflict
    /// without a certified core — Cooper found it — blocks the one assignment
    /// it refuted and is not kept.
    ///
    /// Runs in `ws`, whose atom table holds the query's atoms afterwards.
    fn dpll_t(&self, nnf: FormulaId, ws: &mut Workspace) -> Dpll {
        let Workspace { atoms, sat, clause } = ws;
        number_atoms(&self.interner, nnf, atoms);
        sat.clear(atoms.ids.len());
        let root = encode(&self.interner, nnf, atoms, sat, clause);
        {
            let mut store = self.atoms.lock().expect(ATOM_STORE_LOCK);
            store.classify(&self.interner, atoms);
            if let Encoded::Lit(l) = root {
                sat.add_clause(&[l]);
                store.add_lemma_clauses(atoms, sat, clause);
            }
        }
        if atoms.abstracted() {
            bump(&self.stats.abstracted_queries);
        }
        match root {
            Encoded::Constant(true) => return Dpll::Sat(Vec::new()),
            Encoded::Constant(false) => return Dpll::Unsat,
            Encoded::Lit(_) => {}
        }

        for _ in 0..self.config.max_theory_rounds {
            bump(&self.stats.sat_solver_calls);
            let model = match sat.solve() {
                SatOutcome::Unsat => return Dpll::Unsat,
                SatOutcome::Sat(m) => m,
            };
            bump(&self.stats.theory_checks);
            let theory_literals = atoms.theory_literals(&model);
            clause.clear();
            match self.theory_consistent(&theory_literals) {
                TheoryVerdict::Consistent => return Dpll::Sat(model),
                // The short clause prunes every propositional model that
                // contains the core, here and in every later query.
                TheoryVerdict::Inconsistent(Some(core)) => {
                    clause.extend(
                        core.iter()
                            .map(|&(id, value)| refuting(atoms.index[&id], value)),
                    );
                    self.atoms.lock().expect(ATOM_STORE_LOCK).learn(core);
                }
                // No core: block the full assignment.
                TheoryVerdict::Inconsistent(None) => {
                    clause.extend(theory_literals.iter().map(|l| refuting(l.idx, l.value)))
                }
                TheoryVerdict::Unknown(e) => return Dpll::Unknown(e),
            }
            if clause.is_empty() {
                // No theory literal to block: the conflict is spurious.
                return Dpll::Unknown(SolverError::ResourceLimit(
                    "theory conflict without theory literals".into(),
                ));
            }
            sat.add_clause(clause);
        }
        Dpll::Unknown(SolverError::ResourceLimit(format!(
            "exceeded {} theory rounds",
            self.config.max_theory_rounds
        )))
    }

    /// Decides whether a conjunction of theory literals is satisfiable over
    /// the integers.
    fn theory_consistent(&self, literals: &[TheoryLit]) -> TheoryVerdict {
        if literals.is_empty() {
            return TheoryVerdict::Consistent;
        }
        let _span = expresso_obs::span!("smt.theory");
        // Fast path: rational relaxation via Fourier–Motzkin, one constraint
        // group per convex literal so a refutation names the literals it used.
        let convex: Vec<(&TheoryLit, &[Constraint])> = literals
            .iter()
            .filter_map(|l| l.rows().map(|rows| (l, rows)))
            .collect();
        let groups: Vec<&[Constraint]> = convex.iter().map(|&(_, rows)| rows).collect();
        if !groups.is_empty() {
            if let RationalFeasibility::Infeasible(farkas) = self.fm_run(&groups) {
                bump(&self.stats.fm_fast_conflicts);
                let core = self
                    .minimize_core(&groups, farkas)
                    .into_iter()
                    .map(|g| (convex[g].0.id, convex[g].0.value))
                    .collect();
                return TheoryVerdict::Inconsistent(Some(core));
            }
        }
        // Cheap completeness attempt: a concrete integer witness found by
        // bounded search proves consistency without quantifier elimination.
        if witness(literals, THEORY_GRID_LIMIT).is_some() {
            return TheoryVerdict::Consistent;
        }
        // Complete check: existentially quantify every integer variable and
        // run Cooper's procedure; the result is ground. The literals are
        // imported into the procedure's own arena, so the check leaves the
        // shared one as it found it. Guard against blow-up on very large
        // literal sets: conservatively report "consistent", which at worst
        // costs an extra signal downstream, never soundness of the generated
        // monitor.
        let arena = self.qe.arena();
        let conjunction = arena.mk_and(
            literals
                .iter()
                .map(|l| {
                    let atom = self.qe.import(l.id);
                    if l.value {
                        atom
                    } else {
                        arena.mk_not(atom)
                    }
                })
                .collect(),
        );
        let mut vars: Vec<&Ident> = literals.iter().flat_map(|l| &l.atom.vars).collect();
        vars.sort_unstable();
        vars.dedup();
        if vars.len() > 6 || arena.size(conjunction) > 160 {
            return TheoryVerdict::Consistent;
        }
        // The innermost binder is eliminated first, so the variables are
        // eliminated in name order. How many instances an elimination builds,
        // and so whether it stays within its budget, depends on that order:
        // taken from a hash set, the verdict on one formula could differ
        // from one solver to the next.
        let closed = arena.mk_exists(vars.into_iter().rev().cloned().collect(), conjunction);
        bump(&self.stats.quantifier_eliminations);
        match self.qe.decide(closed) {
            Ok(ground) if arena.is_true(ground) => TheoryVerdict::Consistent,
            Ok(ground) if arena.is_false(ground) => TheoryVerdict::Inconsistent(None),
            Ok(residue) => TheoryVerdict::Unknown(SolverError::OutsideFragment(format!(
                "quantifier elimination left a non-ground residue (formula #{} of its arena)",
                residue.index()
            ))),
            Err(e) => TheoryVerdict::Unknown(e.into()),
        }
    }

    /// One Fourier–Motzkin elimination run over `groups`.
    fn fm_run(&self, groups: &[&[Constraint]]) -> RationalFeasibility {
        bump(&self.stats.fm_runs);
        refute(groups, self.config.fourier_motzkin_limit)
    }

    /// Shrinks the Farkas set of an FM refutation (indices into `groups`,
    /// ascending) to a minimal core: infeasible on its own, and dropping any
    /// member makes the rest rationally feasible. Rational infeasibility
    /// implies integer infeasibility, so blocking just the core is sound —
    /// and the short clause prunes every propositional model containing the
    /// core, which collapses the DPLL(T) model-enumeration loop from
    /// thousands of rounds to a handful.
    ///
    /// Only members of the Farkas set are candidates for deletion (the other
    /// groups are already known to be unnecessary), and a successful deletion
    /// continues from the Farkas set of *its* refutation, so this costs at
    /// most one elimination run per member of the incoming set.
    fn minimize_core(&self, groups: &[&[Constraint]], mut core: Vec<usize>) -> Vec<usize> {
        let mut i = 0;
        // A single group has nothing to drop: the empty system is feasible.
        while core.len() > 1 && i < core.len() {
            let mut trial = core.clone();
            let dropped = trial.remove(i);
            let rows: Vec<&[Constraint]> = trial.iter().map(|&g| groups[g]).collect();
            match self.fm_run(&rows) {
                RationalFeasibility::Infeasible(farkas) => {
                    core = farkas.into_iter().map(|k| trial[k]).collect();
                    // Everything before `dropped` has been found necessary.
                    i = core.partition_point(|&g| g < dropped);
                }
                // The group is needed for infeasibility; keep it.
                RationalFeasibility::Feasible | RationalFeasibility::TooLarge => i += 1,
            }
        }
        core
    }
}

/// The SAT literal a blocking clause needs to forbid atom `idx` being `value`.
fn refuting(idx: usize, value: bool) -> Lit {
    if value {
        neg(idx)
    } else {
        pos(idx)
    }
}

/// One theory literal of a candidate propositional model: the atom's index in
/// the query's atom table, its interned id (stable across queries — what
/// conflict cores and lemmas name it by), its assigned polarity and the
/// atom's compiled form.
struct TheoryLit<'a> {
    idx: usize,
    id: FormulaId,
    value: bool,
    atom: &'a TheoryAtom,
}

impl<'a> TheoryLit<'a> {
    /// The Fourier–Motzkin rows of the atom under this polarity (`None` when
    /// the literal is non-convex, e.g. a disequality).
    fn rows(&self) -> Option<&'a [Constraint]> {
        self.atom.rows[usize::from(self.value)].as_deref()
    }
}

/// Verdict of a theory-consistency check over a conjunction of literals.
#[derive(Debug)]
enum TheoryVerdict {
    /// The literal set has an integer model.
    Consistent,
    /// Theory-inconsistent; carries the minimal inconsistent core when a
    /// Fourier–Motzkin certificate produced one (`None` for Cooper-derived
    /// conflicts).
    Inconsistent(Option<Literals>),
    /// The check left the decidable fragment or exceeded a budget.
    Unknown(SolverError),
}

/// What the DPLL(T) loop ends on.
enum Dpll {
    /// Satisfiable: the propositional model the theory accepted (empty when
    /// the skeleton is constant).
    Sat(Vec<bool>),
    Unsat,
    Unknown(SolverError),
}

// ----------------------------------------------------------------------
// Integer witnesses
// ----------------------------------------------------------------------

/// Most grid points a theory check's witness search may try before it
/// leaves the literals to Cooper's procedure.
const THEORY_GRID_LIMIT: usize = 4096;

/// The test a linear atom makes of its expression `e`.
#[derive(Debug, Clone, Copy)]
enum Test {
    /// `e op 0`.
    Cmp(CmpOp),
    /// `d | e`.
    Divides(u64),
}

/// A point found by [`witness`]: the grid's axes, sorted by name, and the
/// value on each.
struct Witness<'a> {
    vars: Vec<&'a str>,
    point: Vec<i64>,
}

/// One literal of a witness search, compiled against the grid's axes: its
/// test and polarity, the constant of its expression and the range of its
/// `(axis, coefficient)` terms in the search's flat term list.
struct Probe {
    test: Test,
    value: bool,
    constant: i128,
    terms: Range<usize>,
}

impl Probe {
    /// Whether the literal holds at `point`. Exact: a point at which the
    /// expression leaves `i128` is no witness.
    fn holds(&self, terms: &[(usize, i128)], point: &[i64]) -> bool {
        let e = terms[self.terms.clone()]
            .iter()
            .try_fold(self.constant, |sum, &(axis, coeff)| {
                sum.checked_add(coeff.checked_mul(i128::from(point[axis]))?)
            });
        let Some(e) = e else {
            return false;
        };
        let atom = match self.test {
            Test::Cmp(op) => match op {
                CmpOp::Eq => e == 0,
                CmpOp::Ne => e != 0,
                CmpOp::Lt => e < 0,
                CmpOp::Le => e <= 0,
                CmpOp::Gt => e > 0,
                CmpOp::Ge => e >= 0,
            },
            Test::Divides(d) => e.checked_rem_euclid(i128::from(d)) == Some(0),
        };
        atom == self.value
    }
}

/// Bounded search for an integer point at which every literal of `literals`
/// holds.
///
/// The grid is `candidates^vars`: `vars` are the integer variables the
/// literals' terms mention, sorted by name, and `candidates` every constant
/// in those terms with both its neighbours (and a divisor as it is), plus
/// `-3..=3`. It is walked in odometer order, first variable fastest, and
/// nothing is tried when it has more than `limit` points. Each literal is its
/// atom's compiled test under its polarity, evaluated in exact arithmetic: a
/// literal whose translation clamped never holds, nor does one whose
/// expression leaves `i128` at a point. So a point found is an integer model
/// of the literals — not of their 64-bit wraparound.
fn witness<'a>(literals: &[TheoryLit<'a>], limit: usize) -> Option<Witness<'a>> {
    let exprs: Vec<&Affine> = literals
        .iter()
        .map(|l| l.atom.expr.as_ref())
        .collect::<Option<_>>()?;
    let mut vars: Vec<&str> = literals
        .iter()
        .flat_map(|l| l.atom.vars.iter().map(String::as_str))
        .collect();
    vars.sort_unstable();
    vars.dedup();
    let mut candidates: Vec<i64> = (-3..=3).collect();
    candidates.extend(
        literals
            .iter()
            .flat_map(|l| l.atom.constants.iter().copied()),
    );
    candidates.sort_unstable();
    candidates.dedup();
    let in_budget = candidates
        .len()
        .checked_pow(vars.len() as u32)
        .is_some_and(|total| total <= limit);
    if !in_budget {
        return None;
    }
    let mut terms: Vec<(usize, i128)> = Vec::new();
    let probes: Vec<Probe> = literals
        .iter()
        .zip(exprs)
        .map(|(l, expr)| {
            let start = terms.len();
            terms.extend(expr.terms.iter().map(|&(var, coeff)| {
                let axis = vars
                    .binary_search(&l.atom.vars[var].as_str())
                    .expect("an atom's variables are axes");
                (axis, i128::from(coeff))
            }));
            Probe {
                test: l.atom.test,
                value: l.value,
                constant: i128::from(expr.constant),
                terms: start..terms.len(),
            }
        })
        .collect();
    let mut indices = vec![0usize; vars.len()];
    let mut point = vec![candidates[0]; vars.len()];
    loop {
        if probes.iter().all(|p| p.holds(&terms, &point)) {
            return Some(Witness { vars, point });
        }
        // Advance the odometer.
        let mut axis = 0;
        loop {
            if axis == indices.len() {
                return None;
            }
            indices[axis] = (indices[axis] + 1) % candidates.len();
            point[axis] = candidates[indices[axis]];
            if indices[axis] != 0 {
                break;
            }
            axis += 1;
        }
    }
}

/// Adds every integer literal of `term`, and both its neighbours, to `out`.
fn term_constants(term: &Term, out: &mut Vec<i64>) {
    match term {
        Term::Int(v) => out.extend([*v, v.saturating_add(1), v.saturating_sub(1)]),
        Term::Var(_) => {}
        Term::Add(parts) => parts.iter().for_each(|p| term_constants(p, out)),
        Term::Sub(a, b) | Term::Mul(a, b) => {
            term_constants(a, out);
            term_constants(b, out);
        }
        Term::Neg(a) => term_constants(a, out),
        Term::Select(_, idx) => term_constants(idx, out),
    }
}

// ----------------------------------------------------------------------
// Boolean abstraction
// ----------------------------------------------------------------------

/// The kinds of propositional atoms the abstraction distinguishes.
#[derive(Debug)]
enum AtomKind {
    /// A boolean monitor variable.
    Bool(Ident),
    /// A linear-arithmetic atom the theory solver understands.
    Theory(TheoryAtom),
    /// An atom outside the linear fragment (array read or non-linear term),
    /// treated as an opaque boolean.
    Opaque,
}

/// A linear-arithmetic atom, compiled once per solver for the theory check.
#[derive(Debug)]
struct TheoryAtom {
    /// The Fourier–Motzkin rows when asserted false (index 0) and true
    /// (index 1); `None` where that polarity is non-convex (a disequality)
    /// or invisible to the rational relaxation (divisibility).
    rows: [Option<Vec<Constraint>>; 2],
    /// What the atom says of `expr`.
    test: Test,
    /// The atom as one expression: `lhs - rhs` of a comparison, the term of
    /// a divisibility. `None` when translating it clamped: no point satisfies
    /// a clamped expression exactly.
    expr: Option<Affine>,
    /// The integer variables its terms mention, sorted: the witness grid's
    /// axes (a variable that cancels out of `expr` is an axis all the same).
    vars: Vec<Ident>,
    /// What it adds to the witness grid's candidates: every integer literal
    /// of its terms with both neighbours, and a divisor as it is.
    constants: Vec<i64>,
}

/// `Σ coeff · vars[i] + constant` over a [`TheoryAtom`]'s own variables.
#[derive(Debug)]
struct Affine {
    terms: Vec<(usize, i64)>,
    constant: i64,
}

impl AtomKind {
    fn of(interner: &Interner, id: FormulaId) -> AtomKind {
        let (test, terms) = match interner.node_ref(id) {
            FormulaNode::BoolVar(name) => return AtomKind::Bool(name.clone()),
            FormulaNode::Cmp(op, lhs, rhs) => (
                Test::Cmp(*op),
                vec![interner.term(*lhs), interner.term(*rhs)],
            ),
            FormulaNode::Divides(d, t) => (Test::Divides(*d), vec![interner.term(*t)]),
            _ => return AtomKind::Opaque,
        };
        let Ok(linear) = terms
            .iter()
            .map(LinExpr::from_term)
            .collect::<Result<Vec<_>, _>>()
        else {
            return AtomKind::Opaque;
        };
        let mut constants = Vec::new();
        let (rows, expr) = match test {
            Test::Cmp(op) => {
                let e = linear[0].sub(&linear[1]);
                ([cmp_rows(op.negate(), &e), cmp_rows(op, &e)], e)
            }
            Test::Divides(d) => {
                constants.push(d as i64);
                ([None, None], linear[0].clone())
            }
        };
        terms.iter().for_each(|t| term_constants(t, &mut constants));
        constants.sort_unstable();
        constants.dedup();
        let mut vars: Vec<Ident> = terms.iter().flat_map(Term::vars).collect();
        vars.sort_unstable();
        vars.dedup();
        let expr = (!expr.clamped()).then(|| Affine {
            terms: expr
                .terms()
                .map(|(var, coeff)| {
                    let i = vars.binary_search(var).expect("its terms mention it");
                    (i, coeff)
                })
                .collect(),
            constant: expr.constant_part(),
        });
        AtomKind::Theory(TheoryAtom {
            rows,
            test,
            expr,
            vars,
            constants,
        })
    }
}

/// The buffers of one DPLL(T) run: the query's atoms, its clauses, and
/// scratch space for the clauses built on the way. Each thread keeps one and
/// lends it to every query it solves (see [`with_workspace`]), so once the
/// buffers have grown to the largest query met, a query's set-up allocates
/// nothing.
#[derive(Debug, Default)]
struct Workspace {
    atoms: AtomTable,
    sat: SatSolver,
    clause: Vec<Lit>,
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::default();
}

/// Runs `f` in this thread's [`Workspace`], its atom table emptied before
/// and after (the table holds on to the solver's classifications).
///
/// # Panics
///
/// When `f` asks for the workspace again: nothing a DPLL(T) run calls
/// issues a query of its own.
fn with_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    WORKSPACE.with_borrow_mut(|ws| {
        ws.atoms.clear();
        let result = f(ws);
        ws.atoms.clear();
        result
    })
}

/// The atoms of one query, numbered in first-occurrence order; the number is
/// the atom's SAT variable.
#[derive(Debug, Default)]
struct AtomTable {
    ids: Vec<FormulaId>,
    index: FxMap<FormulaId, usize>,
    /// What each atom is, by number: shared with every other query of the
    /// solver that mentions it ([`AtomStore::classify`] fills this in).
    kinds: Vec<Arc<AtomKind>>,
}

impl AtomTable {
    fn clear(&mut self) {
        self.ids.clear();
        self.index.clear();
        self.kinds.clear();
    }

    /// Returns the number of atom `id`, numbering it on first sight.
    fn number(&mut self, id: FormulaId) -> usize {
        *self.index.entry(id).or_insert_with(|| {
            self.ids.push(id);
            self.ids.len() - 1
        })
    }

    /// Whether some atom is treated as an opaque boolean.
    fn abstracted(&self) -> bool {
        self.kinds
            .iter()
            .any(|kind| matches!(**kind, AtomKind::Opaque))
    }

    /// The theory atoms under the polarities a propositional model assigns
    /// (none for the empty model of a constant skeleton).
    fn theory_literals(&self, model: &[bool]) -> Vec<TheoryLit<'_>> {
        self.kinds
            .iter()
            .zip(model)
            .enumerate()
            .filter_map(|(idx, (kind, &value))| match &**kind {
                AtomKind::Theory(atom) => Some(TheoryLit {
                    idx,
                    id: self.ids[idx],
                    value,
                    atom,
                }),
                _ => None,
            })
            .collect()
    }
}

/// The Fourier–Motzkin rows of `e op 0` (`None` for a disequality, which is
/// not convex).
pub(crate) fn cmp_rows(op: CmpOp, e: &LinExpr) -> Option<Vec<Constraint>> {
    Some(match op {
        CmpOp::Le => vec![Constraint::le_zero(e.clone())],
        CmpOp::Lt => vec![Constraint::lt_zero(e.clone())],
        CmpOp::Ge => vec![Constraint::le_zero(e.scale(-1))],
        CmpOp::Gt => vec![Constraint::lt_zero(e.scale(-1))],
        CmpOp::Eq => vec![
            Constraint::le_zero(e.clone()),
            Constraint::le_zero(e.scale(-1)),
        ],
        CmpOp::Ne => return None,
    })
}

/// Numbers the atoms of an interned NNF formula in first-occurrence order,
/// walking it as a tree: children left to right, every child of every
/// connective (even past one [`encode`] finds decides it), a shared
/// subformula once per occurrence.
fn number_atoms(interner: &Interner, f: FormulaId, atoms: &mut AtomTable) {
    match interner.node_ref(f) {
        FormulaNode::True | FormulaNode::False => {}
        FormulaNode::And(parts) | FormulaNode::Or(parts) => {
            for &part in parts {
                number_atoms(interner, part, atoms);
            }
        }
        FormulaNode::Not(inner) if interner.is_true(*inner) || interner.is_false(*inner) => {}
        FormulaNode::Not(inner) => {
            atoms.number(*inner);
        }
        // NNF leaves implications/iffs/quantifiers out; should one appear it
        // is numbered like any atom and later classified opaque.
        _ => {
            atoms.number(f);
        }
    }
}

/// What a subformula's Tseitin encoding stands for.
#[derive(Debug, Clone, Copy)]
enum Encoded {
    Constant(bool),
    Lit(Lit),
}

/// Tseitin-encodes an interned NNF formula straight into `sat`, whose first
/// variables are the atoms [`number_atoms`] numbered in `atoms`; returns what
/// stands for the root. `stack` holds the literals of a connective's
/// children while it is encoded, and each gate's long clause.
fn encode(
    interner: &Interner,
    f: FormulaId,
    atoms: &AtomTable,
    sat: &mut SatSolver,
    stack: &mut Vec<Lit>,
) -> Encoded {
    match interner.node_ref(f) {
        FormulaNode::True => Encoded::Constant(true),
        FormulaNode::False => Encoded::Constant(false),
        FormulaNode::And(parts) => encode_gate(interner, parts, true, atoms, sat, stack),
        FormulaNode::Or(parts) => encode_gate(interner, parts, false, atoms, sat, stack),
        FormulaNode::Not(inner) if interner.is_true(*inner) => Encoded::Constant(false),
        FormulaNode::Not(inner) if interner.is_false(*inner) => Encoded::Constant(true),
        FormulaNode::Not(inner) => Encoded::Lit(neg(atoms.index[inner])),
        _ => Encoded::Lit(pos(atoms.index[&f])),
    }
}

/// Encodes a conjunction (`conjunction`) or disjunction of `parts`. A child
/// that decides it (`false` in a conjunction, `true` in a disjunction) ends
/// the encoding there; the other constants drop out. Two or more literals
/// left get a fresh gate `g`: for a conjunction `¬g ∨ lᵢ` for each child,
/// then `¬l₁ ∨ … ∨ ¬lₙ ∨ g`; for a disjunction `¬g ∨ l₁ ∨ … ∨ lₙ`, then
/// `¬lᵢ ∨ g` for each child.
fn encode_gate(
    interner: &Interner,
    parts: &[FormulaId],
    conjunction: bool,
    atoms: &AtomTable,
    sat: &mut SatSolver,
    stack: &mut Vec<Lit>,
) -> Encoded {
    let base = stack.len();
    for &part in parts {
        match encode(interner, part, atoms, sat, stack) {
            Encoded::Constant(value) if value != conjunction => {
                stack.truncate(base);
                return Encoded::Constant(value);
            }
            Encoded::Constant(_) => {}
            Encoded::Lit(l) => stack.push(l),
        }
    }
    let children = base..stack.len();
    match children.len() {
        0 => return Encoded::Constant(conjunction),
        1 => return Encoded::Lit(stack.pop().expect("one child literal")),
        _ => {}
    }
    let g = sat.new_var();
    if conjunction {
        for i in children.clone() {
            sat.add_clause(&[neg(g), stack[i]]);
        }
        for i in children.clone() {
            stack.push(-stack[i]);
        }
        stack.push(pos(g));
        sat.add_clause(&stack[children.end..]);
    } else {
        stack.push(neg(g));
        stack.extend_from_within(children.clone());
        sat.add_clause(&stack[children.end..]);
        for i in children.clone() {
            sat.add_clause(&[-stack[i], pos(g)]);
        }
    }
    stack.truncate(base);
    Encoded::Lit(pos(g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use expresso_logic::{Lcg, Term};

    fn solver() -> Solver {
        Solver::new()
    }

    #[test]
    fn trivial_constants() {
        assert!(solver().check_sat(&Formula::True).is_sat());
        assert!(solver().check_sat(&Formula::False).is_unsat());
        assert_eq!(solver().check_valid(&Formula::True), ValidityResult::Valid);
    }

    #[test]
    fn pure_boolean_reasoning() {
        let p = Formula::bool_var("p");
        let q = Formula::bool_var("q");
        // (p -> q) && p && !q  is unsat.
        let f = Formula::and(vec![
            Formula::implies(p.clone(), q.clone()),
            p.clone(),
            Formula::not(q.clone()),
        ]);
        assert!(solver().check_sat(&f).is_unsat());
        // p || !p is valid.
        assert!(solver().is_valid(&Formula::or(vec![p.clone(), Formula::not(p)])));
    }

    #[test]
    fn arithmetic_conflicts_are_found() {
        // x > 0 && x < 0
        let f = Formula::and(vec![
            Term::var("x").gt(Term::int(0)),
            Term::var("x").lt(Term::int(0)),
        ]);
        assert!(solver().check_sat(&f).is_unsat());
    }

    #[test]
    fn integer_gaps_are_detected() {
        // 0 < 2x && 2x < 2 has no integer solution (x would be 1/2).
        let two_x = Term::int(2).mul(Term::var("x"));
        let f = Formula::and(vec![Term::int(0).lt(two_x.clone()), two_x.lt(Term::int(2))]);
        assert!(solver().check_sat(&f).is_unsat());
    }

    #[test]
    fn models_are_extracted_for_simple_formulas() {
        let f = Formula::and(vec![
            Term::var("x").gt(Term::int(2)),
            Term::var("x").lt(Term::int(5)),
            Formula::bool_var("flag"),
        ]);
        let s = solver();
        assert_eq!(s.check_sat(&f), SatResult::Sat);
        let model = s.model(&f).expect("a model in the grid");
        let x = model.int("x").expect("x bound");
        assert!(x > 2 && x < 5);
        assert_eq!(model.boolean("flag"), Some(true));
        // Asking for a model is not a query, and an unsatisfiable formula has
        // none.
        assert_eq!(s.stats().sat_queries, 1);
        assert_eq!(
            s.model(&Formula::and(vec![f.clone(), Formula::not(f)])),
            None
        );
        assert_eq!(s.model(&Formula::True), Some(Valuation::new()));
    }

    #[test]
    fn readers_writers_enter_reader_vc_is_valid() {
        // Paper §2: {readers>=0 && !writerIn && !Pw} readers++ {!Pw}
        let pw = Formula::and(vec![
            Term::var("readers").eq(Term::int(0)),
            Formula::not(Formula::bool_var("writerIn")),
        ]);
        let pw_after = Formula::and(vec![
            Term::var("readers").add(Term::int(1)).eq(Term::int(0)),
            Formula::not(Formula::bool_var("writerIn")),
        ]);
        let pre = Formula::and(vec![
            Term::var("readers").ge(Term::int(0)),
            Formula::not(Formula::bool_var("writerIn")),
            Formula::not(pw.clone()),
        ]);
        let vc = Formula::implies(pre, Formula::not(pw_after.clone()));
        assert_eq!(solver().check_valid(&vc), ValidityResult::Valid);

        // Dropping the invariant readers >= 0 must make the triple fail —
        // exactly the observation the paper makes.
        let weak_pre = Formula::and(vec![
            Formula::not(Formula::bool_var("writerIn")),
            Formula::not(pw),
        ]);
        let vc = Formula::implies(weak_pre, Formula::not(pw_after));
        assert_eq!(solver().check_valid(&vc), ValidityResult::Invalid);
    }

    #[test]
    fn quantified_validity() {
        // forall x. x >= 0 || x < 0
        let f = Formula::forall(
            vec!["x".into()],
            Formula::or(vec![
                Term::var("x").ge(Term::int(0)),
                Term::var("x").lt(Term::int(0)),
            ]),
        );
        assert!(solver().is_valid(&f));
        // forall x. x >= 0 is invalid.
        let f = Formula::forall(vec!["x".into()], Term::var("x").ge(Term::int(0)));
        assert!(!solver().is_valid(&f));
    }

    #[test]
    fn opaque_atoms_are_conservative() {
        // Array atoms cannot be proven valid, only refuted conservatively.
        let f = Term::select("buf", Term::int(0)).ge(Term::int(0));
        let result = solver().check_valid(&f);
        assert!(!result.is_valid());
        // But propositionally-contradictory combinations are still caught.
        let contradiction = Formula::and(vec![f.clone(), Formula::not(f)]);
        assert!(solver().check_sat(&contradiction).is_unsat());
    }

    #[test]
    fn implication_helper() {
        let premise = Term::var("n").ge(Term::int(1));
        let conclusion = Term::var("n").ge(Term::int(0));
        assert_eq!(
            solver().check_implies(&premise, &conclusion),
            ValidityResult::Valid
        );
        assert_eq!(
            solver().check_implies(&conclusion, &premise),
            ValidityResult::Invalid
        );
    }

    #[test]
    fn equivalence_helper() {
        let a = Term::var("x").gt(Term::int(0));
        let b = Term::var("x").ge(Term::int(1));
        assert_eq!(solver().check_equiv(&a, &b), ValidityResult::Valid);
        let c = Term::var("x").ge(Term::int(2));
        assert_eq!(solver().check_equiv(&a, &c), ValidityResult::Invalid);
    }

    #[test]
    fn stats_are_recorded() {
        let s = solver();
        let _ = s.check_valid(&Term::var("x").ge(Term::var("x")));
        let stats = s.stats();
        assert_eq!(stats.validity_queries, 1);
        assert!(stats.sat_queries >= 1);
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let s = solver();
        let f = Formula::and(vec![
            Term::var("x").gt(Term::int(0)),
            Term::var("x").lt(Term::int(10)),
        ]);
        let first = s.check_sat(&f);
        let second = s.check_sat(&f);
        assert_eq!(first, second);
        let stats = s.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        // The combined hit rate also counts QE memo traffic, so only its
        // sign is stable here.
        assert!(stats.cache_hit_rate() > 0.0);
        // Validity piggybacks on the sat cache: !f was not asked yet, but
        // asking it twice hits once.
        let _ = s.check_valid(&f);
        let _ = s.check_valid(&f);
        assert_eq!(s.stats().cache_hits, 2);
    }

    #[test]
    fn structurally_equal_queries_share_one_cache_entry() {
        // Two separately constructed but structurally identical formulas must
        // intern to the same id and therefore share a cache slot.
        let s = solver();
        let build = || {
            Formula::and(vec![
                Term::var("readers").ge(Term::int(0)),
                Formula::not(Formula::bool_var("writerIn")),
            ])
        };
        let _ = s.check_sat(&build());
        let _ = s.check_sat(&build());
        assert_eq!(s.stats().cache_hits, 1);
    }

    #[test]
    fn solver_is_shareable_across_threads() {
        let s = solver();
        std::thread::scope(|scope| {
            for i in 0..4i64 {
                let s = &s;
                scope.spawn(move || {
                    let f = Formula::and(vec![
                        Term::var("x").gt(Term::int(i)),
                        Term::var("x").lt(Term::int(i + 2)),
                    ]);
                    assert!(s.check_sat(&f).is_sat());
                });
            }
        });
        assert_eq!(s.stats().sat_queries, 4);
    }

    #[test]
    fn batched_validity_is_index_aligned() {
        let s = solver();
        let interner = s.interner().clone();
        let valid = interner.intern(&Term::var("x").ge(Term::var("x")));
        let invalid = interner.intern(&Term::var("x").ge(Term::int(0)));
        let results = s.check_valid_batch(&[valid, invalid, valid]);
        assert!(results[0].is_valid());
        assert!(!results[1].is_valid());
        assert!(results[2].is_valid());
    }

    #[test]
    fn cancelled_batch_queries_come_back_as_none() {
        let s = solver();
        let interner = s.interner().clone();
        // The tautology is tiny, so the cost-ordered schedule solves it first;
        // cancelling on it must leave the bigger query unanswered.
        let valid = interner.intern(&Term::var("x").ge(Term::var("x")));
        let big = interner.intern(&Formula::and(vec![
            Term::var("x").ge(Term::int(0)),
            Term::var("y").ge(Term::int(1)),
            Term::var("z").ge(Term::int(2)),
        ]));
        let results = s.check_valid_batch_with(&[big, valid], |_, verdict| !verdict.is_valid());
        assert_eq!(results[1], Some(ValidityResult::Valid));
        assert_eq!(results[0], None);
        // An uncancelled run answers everything, duplicates included.
        let results = s.check_valid_batch_with(&[big, valid, big], |_, _| true);
        assert!(results.iter().all(|r| r.is_some()));
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn mixed_bool_and_int_model() {
        // (p && x == 3) || (!p && x == -1)
        let f = Formula::or(vec![
            Formula::and(vec![
                Formula::bool_var("p"),
                Term::var("x").eq(Term::int(3)),
            ]),
            Formula::and(vec![
                Formula::not(Formula::bool_var("p")),
                Term::var("x").eq(Term::int(-1)),
            ]),
        ]);
        let m = solver().model(&f).expect("a model in the grid");
        let p = m.boolean("p").unwrap();
        let x = m.int("x").unwrap();
        assert!(if p { x == 3 } else { x == -1 });
    }

    #[test]
    fn divisibility_atoms_in_satisfiability() {
        // 2 | x && x > 0 && x < 3  forces x == 2.
        let f = Formula::and(vec![
            Formula::divides(2, Term::var("x")),
            Term::var("x").gt(Term::int(0)),
            Term::var("x").lt(Term::int(3)),
        ]);
        assert!(solver().check_sat(&f).is_sat());
        if let Some(m) = solver().model(&f) {
            assert_eq!(m.int("x"), Some(2));
        }
        // 2 | x && x == 1 is unsat.
        let f = Formula::and(vec![
            Formula::divides(2, Term::var("x")),
            Term::var("x").eq(Term::int(1)),
        ]);
        assert!(solver().check_sat(&f).is_unsat());
    }

    // ------------------------------------------------------------------
    // The lemma store
    // ------------------------------------------------------------------

    /// `(x > 0 && x < 0) || y > bound`: satisfiable, and the first
    /// propositional model the SAT solver proposes takes the left disjunct.
    fn detour(bound: i64) -> Formula {
        Formula::or(vec![
            Formula::and(vec![
                Term::var("x").gt(Term::int(0)),
                Term::var("x").lt(Term::int(0)),
            ]),
            Term::var("y").gt(Term::int(bound)),
        ])
    }

    #[test]
    fn a_refutation_learned_in_one_query_is_not_derived_again_in_the_next() {
        let fresh = solver();
        assert!(fresh.check_sat(&detour(7)).is_sat());
        let alone = fresh.stats();
        assert_eq!((alone.sat_solver_calls, alone.fm_fast_conflicts), (2, 1));

        let s = solver();
        assert!(s.check_sat(&detour(5)).is_sat());
        let first = s.stats();
        assert_eq!((first.sat_solver_calls, first.fm_fast_conflicts), (2, 1));
        assert_eq!(s.lemmas().len(), 1, "x > 0 && x < 0, once");
        // A different query (no verdict to reuse) over the same two atoms
        // starts from the lemma: one round, no conflict.
        assert!(s.check_sat(&detour(7)).is_sat());
        let second = s.stats().delta_since(&first);
        assert_eq!(second.cache_hits, 0);
        assert_eq!((second.sat_solver_calls, second.fm_fast_conflicts), (1, 0));
        assert_eq!(s.lemmas().len(), 1);
        // Queries that do not mention both atoms are not handed the lemma,
        // and are decided as ever.
        assert!(s.check_sat(&Term::var("x").gt(Term::int(0))).is_sat());
        assert!(s.model(&detour(9)).is_some());
        assert_eq!(s.lemmas().len(), 1, "filed once, however often it is met");
    }

    #[test]
    fn only_certified_cores_become_lemmas() {
        // 0 < 2x && 2x < 2 is feasible over the rationals (x = 1/2), so
        // Fourier–Motzkin certifies nothing; Cooper's procedure finds the
        // conflict and has no core to offer. The verdict stands, the store
        // stays empty.
        let two_x = Term::int(2).mul(Term::var("x"));
        let gap = Formula::and(vec![Term::int(0).lt(two_x.clone()), two_x.lt(Term::int(2))]);
        let s = solver();
        assert!(s.check_sat(&gap).is_unsat());
        assert_eq!(s.stats().fm_fast_conflicts, 0);
        assert!(s.lemmas().is_empty());
    }

    // ------------------------------------------------------------------
    // Property test: FM cores against brute force and the old minimiser
    // ------------------------------------------------------------------

    /// The delete-one-group-at-a-time minimiser `minimize_core` was before
    /// cores came from provenance: every group is a candidate and each trial
    /// re-solves all that remain. Kept as the oracle for the new one.
    fn delete_one_at_a_time(groups: &[&[Constraint]], limit: usize) -> Vec<usize> {
        let mut active = vec![true; groups.len()];
        for i in 0..groups.len() {
            active[i] = false;
            let remaining: Vec<&[Constraint]> = groups
                .iter()
                .zip(&active)
                .filter_map(|(g, &keep)| keep.then_some(*g))
                .collect();
            if !matches!(
                refute(&remaining, limit),
                RationalFeasibility::Infeasible(_)
            ) {
                active[i] = true;
            }
        }
        (0..groups.len()).filter(|&i| active[i]).collect()
    }

    /// One literal's worth of rows over `vars`: a strict or non-strict
    /// inequality, or an equality as its two halves.
    fn random_group(rng: &mut Lcg, vars: &[&str]) -> Vec<Constraint> {
        let mut e = LinExpr::constant(rng.below(13) as i64 - 6);
        for v in vars {
            if rng.below(3) > 0 {
                e.add_coeff((*v).into(), rng.below(7) as i64 - 3);
            }
        }
        match rng.below(4) {
            0 => vec![
                Constraint::le_zero(e.clone()),
                Constraint::le_zero(e.scale(-1)),
            ],
            1 => vec![Constraint::lt_zero(e)],
            _ => vec![Constraint::le_zero(e)],
        }
    }

    /// Is there an integer point of `[-bound, bound]^n` satisfying every row?
    fn has_integer_point(groups: &[&[Constraint]], vars: &[&str], bound: i64) -> bool {
        let mut point = vec![-bound; vars.len()];
        loop {
            let holds = groups.iter().flat_map(|g| g.iter()).all(|c| {
                let value = c.expr.constant_part()
                    + vars
                        .iter()
                        .zip(&point)
                        .map(|(v, x)| c.expr.coeff(v) * x)
                        .sum::<i64>();
                if c.strict {
                    value < 0
                } else {
                    value <= 0
                }
            });
            if holds {
                return true;
            }
            let Some(pos) = point.iter().position(|&x| x < bound) else {
                return false;
            };
            point[..pos].fill(-bound);
            point[pos] += 1;
        }
    }

    #[test]
    fn fm_cores_are_sound_minimal_and_agree_with_the_old_minimiser() {
        const ALL_VARS: [&str; 4] = ["w", "x", "y", "z"];
        let limit = SolverConfig::default().fourier_motzkin_limit;
        let subset = |groups: &[&[Constraint]], keep: &[usize]| -> RationalFeasibility {
            let kept: Vec<&[Constraint]> = keep.iter().map(|&g| groups[g]).collect();
            refute(&kept, limit)
        };
        let mut rng = Lcg::new(0x5EED_F00D);
        let (mut infeasible, mut feasible, mut shrunk) = (0, 0, 0);
        for case in 0..600 {
            let vars = &ALL_VARS[..1 + rng.index(4)];
            let owned: Vec<Vec<Constraint>> = (0..2 + rng.index(7))
                .map(|_| random_group(&mut rng, vars))
                .collect();
            let groups: Vec<&[Constraint]> = owned.iter().map(Vec::as_slice).collect();
            let oracle = delete_one_at_a_time(&groups, limit);
            let oracle_refutes =
                matches!(subset(&groups, &oracle), RationalFeasibility::Infeasible(_));
            let farkas = match refute(&groups, limit) {
                RationalFeasibility::Infeasible(farkas) => farkas,
                RationalFeasibility::Feasible => {
                    assert!(!oracle_refutes, "case {case}: verdicts differ");
                    feasible += 1;
                    continue;
                }
                RationalFeasibility::TooLarge => panic!("case {case}: small system too large"),
            };
            infeasible += 1;
            assert!(oracle_refutes, "case {case}: verdicts differ");
            assert!(
                !has_integer_point(&groups, vars, 4),
                "case {case}: refuted a system with an integer point"
            );
            assert!(
                farkas.windows(2).all(|w| w[0] < w[1]) && farkas.iter().all(|&g| g < groups.len()),
                "case {case}: {farkas:?} is not a set of input groups"
            );
            let s = solver();
            let core = s.minimize_core(&groups, farkas.clone());
            shrunk += usize::from(core.len() < farkas.len());
            assert!(
                s.stats().fm_runs <= farkas.len(),
                "case {case}: {} re-runs for a Farkas set of {}",
                s.stats().fm_runs,
                farkas.len()
            );
            assert!(
                core.iter().all(|g| farkas.contains(g)),
                "case {case}: core {core:?} left the Farkas set {farkas:?}"
            );
            for refuted in [&farkas, &core, &oracle] {
                assert!(
                    matches!(subset(&groups, refuted), RationalFeasibility::Infeasible(_)),
                    "case {case}: {refuted:?} is feasible on its own"
                );
            }
            for minimal in [&core, &oracle] {
                for drop in 0..minimal.len() {
                    let mut rest = minimal.clone();
                    rest.remove(drop);
                    assert_eq!(
                        subset(&groups, &rest),
                        RationalFeasibility::Feasible,
                        "case {case}: {minimal:?} is not minimal (drop position {drop})"
                    );
                }
            }
        }
        assert!(
            infeasible > 100 && feasible > 100 && shrunk > 0,
            "generator is lopsided: {infeasible} infeasible ({shrunk} with a non-minimal \
             Farkas set), {feasible} feasible"
        );
    }
}
