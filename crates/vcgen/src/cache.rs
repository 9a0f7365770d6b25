//! Memoization of weakest-precondition results, shared across a whole suite.
//!
//! Signal placement and the invariant fixpoint recompute `wp(body, post)` for
//! the same `(CCR body, postcondition)` pair over and over: every fixpoint
//! round re-proves consecution for each surviving candidate, the §4.3
//! commutativity improvement asks for the same sequential compositions under
//! both orders, and the `while` havoc path rebuilds an identical quantified
//! exit condition each time. The same recomputation also happens *across*
//! monitors: structurally identical CCR bodies (`readers++`,
//! `if (readers > 0) readers--`) recur throughout a benchmark suite.
//!
//! Two layers implement the memo:
//!
//! * [`WpStore`] is the suite-wide table. Entries are keyed on
//!   `(lowering fingerprint, body, post-id)`, where the **fingerprint** is
//!   the slice of the symbol table that `wp` actually consults for that
//!   statement — the sorted `(variable, type)` pairs of every variable the
//!   statement reads or writes, used verbatim as the key, so distinct
//!   slices can never alias. `wp` is a pure function of that triple
//!   (fresh-name generation depends only on the formulas involved, and
//!   lowering consults nothing but variable types), so a hit is always the
//!   exact id a recomputation would produce — even when the hit was
//!   inserted by a *different* monitor's analysis. Restricting the
//!   fingerprint to the statement's own variables (instead of hashing the
//!   whole table) is what makes that cross-monitor reuse possible: two
//!   monitors rarely share a whole symbol table, but they frequently share a
//!   counter update.
//! * [`WpCache`] is a per-analysis **session** over a store: it carries the
//!   analysis id used to attribute cross-monitor reuse and its own exact
//!   hit/miss counters, which stay meaningful even when many analyses run
//!   concurrently against one store on the work-stealing pool.
//!
//! The store is one table behind one mutex, held for a lookup or an insert
//! and never while `wp` runs, and statistics are relaxed atomics. One store
//! is only ever valid for **one formula arena**:
//! the cached [`FormulaId`]s are only meaningful in the arena that minted
//! them. `SharedAnalysisContext` therefore owns one store next to its arena
//! and hands a fresh session to every analysis.

use crate::wp::WpError;
use expresso_logic::FormulaId;
use expresso_monitor_lang::{Stmt, Type, VarTable};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The session id recorded on entries seeded from a persisted artifact of an
/// earlier process ([`WpStore::seed_group`]). Real sessions count up from
/// 0, so the marker never collides in practice; a hit on a disk-seeded entry
/// is therefore always attributed as cross-monitor *and* counted into
/// [`WpCacheStats::disk_hits`].
const DISK_SESSION: u32 = u32::MAX;

/// A memoized result plus the id of the analysis session that inserted it
/// (which funds the cross-monitor reuse accounting).
type WpEntry = (Result<FormulaId, WpError>, u32);

/// The memoized results of one `(fingerprint, statement)` pair, in the shape
/// the persistence layer serializes: the pair once, then every `(post-id,
/// result)` recorded under it — the store's own nesting, so a statement that
/// was asked about forty postconditions is exported and seeded once, not
/// forty times. The [`FormulaId`]s are only meaningful in the arena the store
/// was filled against; `expresso-persist` swaps them for node-table rows on
/// disk.
pub type WpExportGroup = (
    LoweringFingerprint,
    Stmt,
    Vec<(FormulaId, Result<FormulaId, WpError>)>,
);

/// The store's table: lowering fingerprint → statement → (post-id →
/// entry). The statement level lets lookups borrow the caller's `&Stmt`
/// instead of cloning it per query; the clone happens once, on first insert.
type WpTable = HashMap<LoweringFingerprint, HashMap<Stmt, HashMap<FormulaId, WpEntry>>>;

/// The exact slice of a symbol table that `wp(stmt, _)` consults: the sorted
/// `(variable, type)` pairs of every variable the statement reads or writes
/// (guard expressions included). This is used *verbatim* as a cache-key
/// component — not merely hashed — so two different table slices can never
/// alias a store entry. Cheap to clone (it is an `Arc`), which is what lets
/// [`VcGen`](crate::VcGen) memoize it per statement.
///
/// Two statements with equal ASTs and equal fingerprints have identical
/// `wp` results for every postcondition, regardless of which monitor they
/// came from — the soundness condition for sharing one [`WpStore`] across a
/// suite.
pub type LoweringFingerprint = Arc<[(String, Option<Type>)]>;

/// Computes the [`LoweringFingerprint`] of `stmt` against `table`.
pub fn lowering_fingerprint(stmt: &Stmt, table: &VarTable) -> LoweringFingerprint {
    let mut vars: Vec<String> = stmt.assigned_vars().into_iter().collect();
    for v in stmt.read_vars() {
        if !vars.contains(&v) {
            vars.push(v);
        }
    }
    vars.sort_unstable();
    vars.into_iter()
        .map(|v| {
            let ty = table.ty(&v);
            (v, ty)
        })
        .collect()
}

/// Hit/miss counters of one [`WpCache`] session (or, via
/// [`WpStore::stats`], of a whole store).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WpCacheStats {
    /// `wp` computations answered from the cache.
    pub hits: usize,
    /// `wp` computations that had to run and were then cached.
    pub misses: usize,
    /// Hits served by an entry inserted by a *different* analysis session —
    /// the cross-monitor reuse a suite-wide store buys. Always 0 for a
    /// private per-analysis store.
    pub cross_monitor_hits: usize,
    /// Hits served by an entry seeded from a persisted artifact of an earlier
    /// process ([`WpStore::seed_group`]) — the warm-start reuse
    /// `expresso-persist` buys. Disk hits are also counted as cross-monitor
    /// hits (the inserting "session" is never the current one), so this is a
    /// refinement of `cross_monitor_hits`, not a separate population. Always
    /// 0 for a cold-started store.
    pub disk_hits: usize,
}

impl WpCacheStats {
    /// Fraction of lookups answered from the cache (0.0 with no traffic).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Adapt into a metric group for [`expresso_obs::MetricsRegistry`].
    pub fn metrics(&self) -> Vec<expresso_obs::Metric> {
        use expresso_obs::Metric;
        vec![
            Metric::counter("hits", self.hits as u64),
            Metric::counter("misses", self.misses as u64),
            Metric::counter("cross_monitor_hits", self.cross_monitor_hits as u64),
            Metric::counter("disk_hits", self.disk_hits as u64),
            Metric::gauge("hit_rate", self.hit_rate()),
        ]
    }
}

#[derive(Debug, Default)]
struct WpCounters {
    hits: AtomicUsize,
    misses: AtomicUsize,
    cross_monitor_hits: AtomicUsize,
    disk_hits: AtomicUsize,
}

impl WpCounters {
    fn snapshot(&self) -> WpCacheStats {
        WpCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            cross_monitor_hits: self.cross_monitor_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
        }
    }

    fn record(&self, hit: bool, cross: bool, disk: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if cross {
                self.cross_monitor_hits.fetch_add(1, Ordering::Relaxed);
            }
            if disk {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The suite-wide `(fingerprint, body, post-id) → wp` memo table. See the
/// module documentation.
#[derive(Debug, Default)]
pub struct WpStore {
    table: Mutex<WpTable>,
    counters: WpCounters,
    next_session: AtomicU32,
}

impl WpStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        WpStore::default()
    }

    /// Opens a per-analysis session. Sessions share the store's entries but
    /// carry their own exact counters and a fresh analysis id for the
    /// cross-monitor attribution.
    pub fn session(self: &Arc<Self>) -> Arc<WpCache> {
        let analysis = self.next_session.fetch_add(1, Ordering::Relaxed);
        Arc::new(WpCache {
            store: Arc::clone(self),
            analysis,
            counters: WpCounters::default(),
        })
    }

    /// Store-wide counters, cumulative across every session.
    pub fn stats(&self) -> WpCacheStats {
        self.counters.snapshot()
    }

    // ------------------------------------------------------------------
    // Persistence hooks (`expresso-persist`)
    // ------------------------------------------------------------------

    /// Snapshot of every memoized entry (whoever inserted it), grouped by
    /// `(fingerprint, statement)` in no particular order, for serialization
    /// by the persistence layer. Callers wanting a deterministic artifact
    /// sort the result themselves.
    pub fn export_groups(&self) -> Vec<WpExportGroup> {
        let table = self.table.lock().unwrap();
        let mut out = Vec::new();
        for (fingerprint, by_stmt) in table.iter() {
            for (stmt, by_post) in by_stmt {
                let entries = by_post
                    .iter()
                    .map(|(&post, (result, _session))| (post, result.clone()))
                    .collect();
                out.push((Arc::clone(fingerprint), stmt.clone(), entries));
            }
        }
        out
    }

    /// Seeds the store with one group of a persisted artifact, its ids
    /// already translated into this store's arena. Entries are marked with
    /// the reserved disk session id so hits on them count as cross-monitor
    /// reuse *and* into [`WpCacheStats::disk_hits`]. Existing entries win
    /// over seeded ones. Returns the number of entries inserted.
    pub fn seed_group(&self, (fingerprint, stmt, entries): WpExportGroup) -> usize {
        let mut table = self.table.lock().unwrap();
        let by_post = table
            .entry(fingerprint)
            .or_default()
            .entry(stmt)
            .or_default();
        let mut inserted = 0;
        for (post, result) in entries {
            if let Entry::Vacant(slot) = by_post.entry(post) {
                slot.insert((result, DISK_SESSION));
                inserted += 1;
            }
        }
        inserted
    }

    /// Total number of memoized entries currently in the store.
    pub fn entry_count(&self) -> usize {
        self.table
            .lock()
            .unwrap()
            .values()
            .flat_map(|by_stmt| by_stmt.values())
            .map(|by_post| by_post.len())
            .sum()
    }
}

/// A per-analysis session over a [`WpStore`]; this is the handle the
/// pipeline threads through abduction and placement. See the module
/// documentation.
#[derive(Debug, Default)]
pub struct WpCache {
    store: Arc<WpStore>,
    analysis: u32,
    counters: WpCounters,
}

impl WpCache {
    /// Creates a session over a fresh private store — the configuration of a
    /// standalone (non-suite) analysis.
    pub fn new() -> Self {
        WpCache::default()
    }

    /// Snapshot of this session's counters (exact even when other sessions
    /// hammer the same store concurrently).
    pub fn stats(&self) -> WpCacheStats {
        self.counters.snapshot()
    }

    /// The store this session reads and writes.
    pub fn store(&self) -> &Arc<WpStore> {
        &self.store
    }

    /// Returns the memoized `wp(stmt, post)` under `stmt`'s lowering
    /// fingerprint for `table`, computing and recording it on a miss. The
    /// computation runs outside the store's lock; a racing duplicate computes
    /// the same pure result, so last-write-wins is harmless.
    pub fn get_or_compute(
        &self,
        stmt: &Stmt,
        table: &VarTable,
        post: FormulaId,
        compute: impl FnOnce() -> Result<FormulaId, WpError>,
    ) -> Result<FormulaId, WpError> {
        self.get_or_compute_fingerprinted(&lowering_fingerprint(stmt, table), stmt, post, compute)
    }

    /// [`WpCache::get_or_compute`] with a precomputed fingerprint — the hot
    /// path for callers that memoize the fingerprint per statement (the
    /// fingerprint of a given `(stmt, table)` pair never changes, and a
    /// `VcGen` is bound to one table for its whole life).
    pub fn get_or_compute_fingerprinted(
        &self,
        fingerprint: &LoweringFingerprint,
        stmt: &Stmt,
        post: FormulaId,
        compute: impl FnOnce() -> Result<FormulaId, WpError>,
    ) -> Result<FormulaId, WpError> {
        let table = &self.store.table;
        let hit = table
            .lock()
            .unwrap()
            .get(fingerprint)
            .and_then(|by_stmt| by_stmt.get(stmt))
            .and_then(|by_post| by_post.get(&post))
            .cloned();
        if let Some((cached, inserted_by)) = hit {
            let cross = inserted_by != self.analysis;
            let disk = inserted_by == DISK_SESSION;
            self.counters.record(true, cross, disk);
            self.store.counters.record(true, cross, disk);
            return cached;
        }
        let result = {
            let _span = expresso_obs::span!("vcgen.wp");
            compute()
        };
        self.counters.record(false, false, false);
        self.store.counters.record(false, false, false);
        table
            .lock()
            .unwrap()
            .entry(Arc::clone(fingerprint))
            .or_default()
            .entry(stmt.clone())
            .or_default()
            .insert(post, (result.clone(), self.analysis));
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expresso_logic::Interner;
    use expresso_monitor_lang::{check_monitor, parse_monitor};

    fn skip() -> Stmt {
        Stmt::Skip
    }

    fn table() -> VarTable {
        let monitor = parse_monitor(
            "monitor M { int count = 0; bool stopped = false; atomic void nop() { skip; } }",
        )
        .unwrap();
        check_monitor(&monitor).unwrap()
    }

    #[test]
    fn second_lookup_is_a_hit() {
        let interner = Interner::new();
        let post = interner.true_id();
        let table = table();
        let cache = WpCache::new();
        let mut computed = 0;
        for _ in 0..3 {
            let got = cache.get_or_compute(&skip(), &table, post, || {
                computed += 1;
                Ok(post)
            });
            assert_eq!(got, Ok(post));
        }
        assert_eq!(computed, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert_eq!(stats.cross_monitor_hits, 0);
        assert!(stats.hit_rate() > 0.5);
    }

    #[test]
    fn errors_are_cached_too() {
        let interner = Interner::new();
        let post = interner.false_id();
        let table = table();
        let cache = WpCache::new();
        let mut computed = 0;
        for _ in 0..2 {
            let got = cache.get_or_compute(&skip(), &table, post, || {
                computed += 1;
                Err(WpError::ArrayWrite("buf".into()))
            });
            assert_eq!(got, Err(WpError::ArrayWrite("buf".into())));
        }
        assert_eq!(computed, 1);
    }

    #[test]
    fn distinct_posts_are_distinct_entries() {
        let interner = Interner::new();
        let cache = WpCache::new();
        let table = table();
        let t = interner.true_id();
        let f = interner.false_id();
        assert_eq!(cache.get_or_compute(&skip(), &table, t, || Ok(t)), Ok(t));
        assert_eq!(cache.get_or_compute(&skip(), &table, f, || Ok(f)), Ok(f));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn fingerprint_separates_conflicting_tables() {
        // The same statement AST lowers differently when the assigned
        // variable changes type; the fingerprint must keep the entries apart.
        let int_table = check_monitor(
            &parse_monitor("monitor A { int x = 0; atomic void nop() { skip; } }").unwrap(),
        )
        .unwrap();
        let bool_table = check_monitor(
            &parse_monitor("monitor B { bool x = false; atomic void nop() { skip; } }").unwrap(),
        )
        .unwrap();
        let stmt = Stmt::Assign("x".into(), expresso_monitor_lang::parse_expr("x").unwrap());
        assert_ne!(
            lowering_fingerprint(&stmt, &int_table),
            lowering_fingerprint(&stmt, &bool_table)
        );

        let interner = Interner::new();
        let post = interner.true_id();
        let store = Arc::new(WpStore::new());
        let a = store.session();
        let b = store.session();
        let one = interner.intern(&expresso_logic::Formula::bool_var("one"));
        let two = interner.intern(&expresso_logic::Formula::bool_var("two"));
        assert_eq!(
            a.get_or_compute(&stmt, &int_table, post, || Ok(one)),
            Ok(one)
        );
        // Same statement, conflicting table: must not see A's entry.
        assert_eq!(
            b.get_or_compute(&stmt, &bool_table, post, || Ok(two)),
            Ok(two)
        );
        assert_eq!(store.stats().hits, 0);
        assert_eq!(store.stats().misses, 2);
    }

    #[test]
    fn cross_monitor_hits_are_attributed_to_sessions() {
        // Two monitors sharing a structurally identical statement over
        // identically typed variables share one store entry; the second
        // session's hit is counted as cross-monitor.
        let table_a = check_monitor(
            &parse_monitor("monitor A { int readers = 0; atomic void nop() { skip; } }").unwrap(),
        )
        .unwrap();
        let table_b = check_monitor(
            &parse_monitor(
                "monitor B { int readers = 0; bool extra = false; atomic void nop() { skip; } }",
            )
            .unwrap(),
        )
        .unwrap();
        let stmt = Stmt::Assign(
            "readers".into(),
            expresso_monitor_lang::parse_expr("readers + 1").unwrap(),
        );
        assert_eq!(
            lowering_fingerprint(&stmt, &table_a),
            lowering_fingerprint(&stmt, &table_b)
        );

        let interner = Interner::new();
        let post = interner.true_id();
        let store = Arc::new(WpStore::new());
        let a = store.session();
        let b = store.session();
        let value = interner.intern(&expresso_logic::Formula::bool_var("wp"));
        assert_eq!(
            a.get_or_compute(&stmt, &table_a, post, || Ok(value)),
            Ok(value)
        );
        assert_eq!(
            b.get_or_compute(&stmt, &table_b, post, || {
                panic!("must be served from A's entry")
            }),
            Ok(value)
        );
        assert_eq!(a.stats().cross_monitor_hits, 0);
        assert_eq!(b.stats().hits, 1);
        assert_eq!(b.stats().cross_monitor_hits, 1);
        let store_stats = store.stats();
        assert_eq!(store_stats.hits, 1);
        assert_eq!(store_stats.cross_monitor_hits, 1);
        assert_eq!(store_stats.misses, 1);
    }
}
