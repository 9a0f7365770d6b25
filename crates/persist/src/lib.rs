//! On-disk persistence of the analysis: its memo caches and its answers
//! (`expresso-persist`).
//!
//! Suite analysis is fast *within* a process because the hash-consed arena,
//! the solver's sat/QE caches and the suite-wide [`WpStore`] are all keyed on
//! content — interned formula structure and canonical statement bytes — not
//! on identity. This crate
//! makes that content-addressing outlive the process, at two levels. It
//! serializes the memo tables — the *leaf sections* — into a version-stamped,
//! checksummed artifact that the next run can seed them back from, so an
//! analysis that has to run finds its lemmas proved. And beside them it
//! writes one *outcome record* per monitor analysed — the invariant, every
//! placement decision, the counters — keyed on the whole parsed monitor, so
//! an analysis whose monitor has not changed does not run at all: the next
//! run rebuilds its outcome from the record without a solver, an arena node
//! or a seeded entry (see [`outcome`](OutcomeRecord) and
//! `SharedAnalysisContext` in `expresso-core`, which loads the artifact,
//! replays what it can and seeds only when something has to be analysed).
//!
//! # What format v7 holds
//!
//! [`FormulaId`]s are arena-local — dense indices minted in interning order
//! — so the artifact names formulas by rows, one per distinct arena node:
//!
//! * a **term table** and a **formula table** hold one row per distinct node
//!   ([`TermRow`], [`FormulaRow`]); a row names its children by the number of
//!   a strictly earlier row, so the tables are acyclic by construction;
//! * a **statement section** holds one byte string per distinct statement
//!   an entry names, ascending: its canonical bytes — lowering fingerprint,
//!   then the statement (`expresso_vcgen::statement_bytes`) — exactly the
//!   bytes the live WP store keys on. The loader checksums them with the
//!   rest of the payload and never decodes them: a statement is a key to
//!   compare, not a tree to rebuild;
//! * the sat / QE / WP sections are row numbers plus verdicts. A sat
//!   verdict is a tag and carries no model. There is no theory section: the
//!   solver's lemmas are re-learned in well under a millisecond per monitor.
//!   There is no section for the explorer's fire-independence refinement
//!   either: each of its verdicts is a conjunction of solver queries, which
//!   the sat section holds. The WP section is flat `(statement row,
//!   postcondition row, result)` triples, ascending;
//! * the outcome section is one record per monitor: its key — a hash and
//!   the canonical bytes of the monitor's AST plus the two configuration
//!   fields that change the answer — the invariant as a row of the same
//!   formula table, the counters, and the decisions as `(CCR index, guard
//!   index, flags)`, in ascending key order.
//!
//! **Export** ([`export_artifact`]) walks the arena DAG once from the cache
//! roots and numbers the nodes it meets by `(height, row)`: level by level,
//! each node is written as a row over its children's already-assigned numbers
//! and the level is sorted. Numbers, and with them every byte of the file,
//! are a function of the cached *content* alone — not of arena ids or
//! `HashMap` iteration order — so saving the same caches twice, or
//! saving a context that was only seeded, reproduces the file byte for byte.
//!
//! **Seed** ([`seed`], [`Artifact::seed_into`]) interns each row exactly
//! once, in row order, through
//! [`Interner::intern_formula_node`](expresso_logic::Interner::intern_formula_node),
//! and fills the memo tables by row number. Why the ids come out right:
//! interning a tree performs exactly one
//! `put` per tree node, bottom-up, with no normalisation in between, so
//! interning the rows bottom-up performs the same `put`s (once each instead
//! of once per occurrence) and every row ends up with the id its tree would
//! have received. The keys were captured **post-normalization** — the sat/QE
//! tables key on `interner.simplify(..)` images, the WP store on `(statement
//! bytes, post-id)`, the statement interned once into a dense key of the
//! receiving store and its entries inserted into one table grown once for
//! all of them — and every
//! normalization is a deterministic structural function, so a seeded key is
//! exactly the id the warm run's own lookup computes: a seeded entry can only
//! be found via a key the cold run proved, and a warm hit returns the
//! bit-identical verdict the warm run would have derived. Trees survive only
//! as [`Artifact::formula`], the view the tests check the tables against and
//! a replayed invariant is rebuilt through.
//!
//! Seeding is **deferred**. [`load`] validates everything and seeds nothing;
//! a `SharedAnalysisContext` keeps the artifact and seeds — once, moving the
//! leaf entries out of it rather than copying them — the first time its
//! `solver()`, `wp_store()` or `persist()` is called, or
//! when `analyze_suite` finds a monitor it has to analyse. A run that
//! replays every monitor never pays for the leaf sections beyond loading
//! them; anything built on those accessors sees what an eager seed would
//! have left.
//!
//! # Invalidation is content-addressing, at both levels
//!
//! There is no out-of-band invalidation protocol. An outcome record is found
//! under the bytes of the monitor it was computed from: any edit the parser
//! sees — a constant, a renamed local, two methods swapped, the `requires`
//! clause — spells a different key, and so does flipping `infer_invariant`
//! or `use_commutativity`; layout and comments are not in the AST and change
//! nothing. The lookup finds by hash and confirms by comparing the bytes, so
//! a collision is a miss. The monitor that misses is analysed, and below it
//! the leaf sections do the same thing one level down: editing one CCR
//! changes its statement bytes (and hence its WP keys) and every VC formula
//! built from it (and hence the solver keys); the stale entries simply never
//! match again, and what the edited monitor still shares with its former
//! self is served from disk. The `reproduce persist` harness measures
//! exactly this: after mutating one monitor of a 500-monitor corpus, the
//! warm re-run replays 499 records and misses only in that monitor's
//! analysis.
//!
//! What content-addressing cannot see is a change to the *analysis*. A leaf
//! entry is a lemma — a verdict about a formula, true whoever asks — and
//! survives a new placement rule; a record is an answer, and does not. So
//! [`FORMAT_VERSION`] is bumped not only when the layout changes but whenever
//! the analysis would answer differently for an unchanged monitor — and since
//! nobody remembers that, `tests/persistence.rs` pins the version together
//! with a digest of the answers for a fixed set of monitors
//! (`changed_answers_need_a_format_version_bump`): answers that move under
//! an unmoved version fail there, with the instruction.
//!
//! # Robustness
//!
//! * **Corruption:** the payload is guarded by a magic, a format version, its
//!   length and a word-wise, folded FNV-1a checksum, all verified *before*
//!   decoding; a truncated, bit-flipped or version-mismatched file (any
//!   artifact of v2 to v6 included: there is one format) loads as
//!   [`LoadResult::Corrupt`] and the caller falls back to a cold start with
//!   a warning — never a panic, never a wrong verdict.
//! * **Hostile payloads:** a file whose checksum is *right* still cannot
//!   abort the process. Rows decode iteratively; every row reference is read
//!   through one bounds check that rejects forward references, self
//!   references (hence cycles) and entries pointing past a table (a
//!   statement row included); sequence lengths are capped by the bytes that
//!   remain; an outcome record must name an invariant row inside
//!   the table, carry no unknown decision flag and sort strictly after the
//!   record before it (so no key is filed twice). Replay is the one place
//!   that turns rows back into a tree — recursively, a shared row once per
//!   occurrence — so the invariant's tree must also be small: height and
//!   node count of every row are measured in one iterative pass over the
//!   tables, and a record over a row past [`MAX_NESTING`] levels or
//!   [`MAX_TREE_NODES`] nodes (forty rows can spell 2^40) refuses the file;
//!   the exporter leaves such a record out. [`load`] returns an
//!   [`Artifact`] only if all of that held, and nothing is seeded or replayed
//!   from one that did not. Neither a statement nor an outcome key is ever
//!   decoded — both are bytes to compare — so neither has a nesting to cap:
//!   a hostile statement blob is filed as it is and matches no statement a
//!   live analysis encodes. A record's CCR and guard indices mean nothing
//!   until there is a monitor to hold them against: whoever replays checks
//!   them, and a record that does not fit is a miss.
//!   What the decoder cannot catch is a payload that is well formed and
//!   *wrong* — a verdict flipped, a decision's flag changed, under a checksum
//!   recomputed to agree. That is a forged file, and forgery is what the
//!   checksum is there for, not the decoder.
//! * **Concurrent writers:** [`save`] writes to a process-unique temp file in
//!   the cache directory and atomically renames it over the artifact, so two
//!   processes sharing one cache directory can never interleave partial
//!   writes; readers always observe a complete artifact (last writer wins).

mod codec;
mod encode;
mod outcome;
mod table;

pub use codec::{checksum, DecodeError};
pub use expresso_monitor_lang::MAX_NESTING;
pub use outcome::{DecisionRecord, OutcomeKey, OutcomeRecord};
pub use table::{FormulaRow, Row, TermRow, MAX_TREE_NODES};

use codec::{Reader, Writer};
use encode::{
    read_formula_row, read_sat_result, read_term_row, read_translate_error, read_wp_error,
    write_formula_row, write_sat_result, write_term_row, write_translate_error, write_wp_error,
};
use expresso_logic::{Formula, FormulaId};
use expresso_smt::{SatResult, Solver, TranslateError};
use expresso_vcgen::{DisjointnessStore, WpError, WpExport, WpStore};
use outcome::{read_outcome, write_outcome};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Default cache directory, relative to the working directory, used when no
/// explicit path is configured (see `ExpressoConfig::cache_dir` and the
/// `EXPRESSO_CACHE_DIR` environment variable in `expresso-core`).
pub const DEFAULT_CACHE_DIR: &str = ".expresso-cache";

/// File name of the artifact inside the cache directory.
pub const ARTIFACT_FILE: &str = "analysis-cache.bin";

const MAGIC: &[u8; 8] = b"XPRESSOC";

/// Bytes before the payload: magic, format version, payload length.
const HEADER_LEN: usize = MAGIC.len() + 4 + 8;

/// Format version; bump on any codec or layout change **and on any change
/// to what the analysis would answer** for an unchanged monitor (a new
/// placement rule, a different abduction search): an outcome record is an
/// answer, not a lemma, and nothing re-derives it on a hit
/// (`tests/persistence.rs::changed_answers_need_a_format_version_bump` holds
/// this constant against a digest of the answers). A mismatch loads as
/// [`LoadResult::Corrupt`] (cold start), never as garbage.
///
/// v2 added the CCR-pair disjointness section (the independence verdicts
/// behind the explorer's refined dependence relation). v3 replaced the
/// per-entry formula trees by the shared node tables and grouped the WP
/// section by `(fingerprint, statement)`. v4 added the monitor-level outcome
/// section. v5 dropped the theory-verdict section (the cache it held is gone
/// from the solver, and the lemma store that replaced it is not persisted)
/// and the models of the sat section (a verdict no longer carries one), and
/// taught the QE section `TranslateError::Overflow`. v6 stores statements as
/// opaque canonical bytes in one section that the WP and disjointness
/// sections name by row, and writes the WP section as flat `(statement,
/// postcondition, result)` triples instead of per-statement groups. v7
/// dropped the disjointness section again: its verdicts are conjunctions of
/// solver queries that the sat section already holds.
pub const FORMAT_VERSION: u32 = 7;

/// One persisted WP-store entry: the statement's row in the statement
/// section, the postcondition's row and the memoized `wp(stmt, post)`.
pub type WpArtifactEntry = (Row, Row, Result<Row, WpError>);

/// The process-independent snapshot of every memo table, as written to and
/// read from disk.
///
/// The fields are private because [`seed`] indexes the tables without
/// checking: an `Artifact` only comes out of [`export_artifact`] or [`load`],
/// and both guarantee that every row reference names an existing, strictly
/// earlier row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Artifact {
    terms: Vec<TermRow>,
    formulas: Vec<FormulaRow>,
    sat: Vec<(Row, SatResult)>,
    qe: Vec<(Row, Result<Row, TranslateError>)>,
    /// Canonical statement bytes, never decoded.
    statements: Vec<Box<[u8]>>,
    wp: Vec<WpArtifactEntry>,
    /// Strictly ascending by key; every invariant names a row
    /// [`table::small_trees`] vouches for.
    outcomes: Vec<(OutcomeKey, OutcomeRecord)>,
}

impl Artifact {
    /// Total number of entries across every section (table rows are not
    /// entries).
    pub fn len(&self) -> usize {
        self.offers().total()
    }

    /// Entries per section: what seeding this artifact into fresh caches
    /// inserts, plus the outcome records, which are served from the artifact
    /// itself and never seeded anywhere.
    pub fn offers(&self) -> SeedReport {
        SeedReport {
            sat: self.sat.len(),
            qe: self.qe.len(),
            wp: self.wp.len(),
            outcomes: self.outcomes.len(),
        }
    }

    /// Whether the artifact carries no entries at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The term table.
    pub fn terms(&self) -> &[TermRow] {
        &self.terms
    }

    /// The formula table.
    pub fn formulas(&self) -> &[FormulaRow] {
        &self.formulas
    }

    /// Satisfiability verdicts keyed on normalized query rows.
    pub fn sat(&self) -> &[(Row, SatResult)] {
        &self.sat
    }

    /// Quantifier-elimination results keyed on normalized input rows.
    pub fn qe(&self) -> &[(Row, Result<Row, TranslateError>)] {
        &self.qe
    }

    /// The statement section: the canonical bytes of every statement an
    /// entry names (`expresso_vcgen::statement_bytes`), ascending. The
    /// loader hands them over as they are; nothing decodes them.
    pub fn statements(&self) -> &[Box<[u8]>] {
        &self.statements
    }

    /// WP-store entries, ascending by `(statement row, postcondition row)`.
    pub fn wp(&self) -> &[WpArtifactEntry] {
        &self.wp
    }

    /// Monitor-level outcome records, ascending by key.
    pub fn outcomes(&self) -> &[(OutcomeKey, OutcomeRecord)] {
        &self.outcomes
    }

    /// The outcome recorded under `key`: found by hash, confirmed by
    /// comparing the key bytes.
    pub fn outcome(&self, key: &OutcomeKey) -> Option<&OutcomeRecord> {
        outcome::find(&self.outcomes, key)
    }

    /// The formula tree a row stands for. This is the view tests hold the
    /// tables against (it is what format v2 stored per entry) and what a
    /// replayed outcome's invariant is rebuilt through; nothing on the
    /// export/load/seed path builds trees. Recurses once per level and spells
    /// shared rows out once per occurrence, so it is bounded only for rows
    /// known to be small — the invariant of every [outcome](Self::outcomes)
    /// is (at most [`MAX_NESTING`] levels and [`MAX_TREE_NODES`] nodes:
    /// [`load`] refuses a file and the exporter leaves out a record where it
    /// is not); for any other row of a loaded file it is not.
    pub fn formula(&self, row: Row) -> Formula {
        table::formula_tree(&self.terms, &self.formulas, row)
    }
}

/// What [`save`] wrote.
#[derive(Debug, Clone)]
pub struct SaveReport {
    /// Satisfiability entries written.
    pub sat: usize,
    /// Quantifier-elimination entries written.
    pub qe: usize,
    /// Always 0: the format has no theory section (the solver's theory lemmas
    /// are not persisted). The field stays because the frozen `benchmark/`
    /// package reads it; it leaves with the next PR that owns that package
    /// (ROADMAP 6(b)).
    pub theory: usize,
    /// WP-store entries written.
    pub wp: usize,
    /// Monitor-level outcome records written.
    pub outcomes: usize,
    /// Size of the artifact file in bytes.
    pub bytes: u64,
    /// Path of the artifact file.
    pub path: PathBuf,
}

/// Entries per section: what [`seed`] inserted into the receiving caches, or
/// what an artifact [offers](Artifact::offers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeedReport {
    /// Satisfiability entries seeded.
    pub sat: usize,
    /// Quantifier-elimination entries seeded.
    pub qe: usize,
    /// WP-store entries seeded.
    pub wp: usize,
    /// Monitor-level outcome records on offer. [`seed`] reports none: a
    /// record is looked up in the artifact, not copied into a cache.
    pub outcomes: usize,
}

impl SeedReport {
    /// Total entries across every section.
    pub fn total(&self) -> usize {
        self.sat + self.qe + self.wp + self.outcomes
    }
}

impl fmt::Display for SeedReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} entries (sat {}, qe {}, wp {}, outcomes {})",
            self.total(),
            self.sat,
            self.qe,
            self.wp,
            self.outcomes
        )
    }
}

/// Outcome of [`load`].
#[derive(Debug)]
pub enum LoadResult {
    /// A complete, checksum-verified, reference-checked artifact.
    Loaded(Box<Artifact>),
    /// No artifact exists at the path — a plain cold start.
    Absent,
    /// The file exists but is unusable (truncated, bit-flipped, version
    /// mismatch, dangling reference, unreadable). The caller should warn and
    /// start cold.
    Corrupt(String),
}

// ---------------------------------------------------------------------------
// Export: memo tables → artifact (ids → canonical rows)
// ---------------------------------------------------------------------------

/// Snapshots the solver's two memo tables and the WP store into a
/// process-independent [`Artifact`]: one walk of the arena DAG from the
/// cached ids numbers every reachable node (see the module documentation),
/// and every section is put in an order that depends on its content alone.
///
/// The store is ignored: it holds a counter, not a verdict. The parameter
/// stays only so existing callers compile; it leaves with ROADMAP item 6(b2).
pub fn export_artifact(solver: &Solver, wp_store: &WpStore, _: &DisjointnessStore) -> Artifact {
    export_with_outcomes(solver, wp_store, BTreeMap::new())
}

/// [`export_artifact`] plus the outcome section: `outcomes` name their
/// invariants by ids of `solver`'s arena, which join the roots of the
/// numbering walk. A record whose invariant is a larger tree than replay
/// will rebuild ([`MAX_NESTING`] levels, [`MAX_TREE_NODES`] nodes) is left
/// out: the loader would refuse the file over it.
pub fn export_with_outcomes(
    solver: &Solver,
    wp_store: &WpStore,
    outcomes: BTreeMap<OutcomeKey, OutcomeRecord<FormulaId>>,
) -> Artifact {
    let sat = solver.export_sat_cache();
    let qe = solver.export_qe_cache();
    let wp = wp_store.export();

    let mut roots: Vec<FormulaId> = Vec::new();
    roots.extend(sat.iter().map(|(key, _)| *key));
    for (key, result) in &qe {
        roots.push(*key);
        roots.extend(result.as_ref().ok());
    }
    for (_, post, result) in &wp.entries {
        roots.push(*post);
        roots.extend(result.as_ref().ok());
    }
    roots.extend(outcomes.values().map(|record| record.invariant));
    let numbering = table::number(solver.interner(), roots);
    let row = |id: FormulaId| numbering.row(id);

    // The statement section: every statement an entry names, once,
    // ascending by its bytes, so its rows depend on content alone.
    let mut named: Vec<&[u8]> = wp
        .entries
        .iter()
        .map(|(stmt, _, _)| &*wp.statements[*stmt])
        .collect();
    named.sort_unstable();
    named.dedup();
    let rows_by_key: Vec<Option<Row>> = wp
        .statements
        .iter()
        .map(|bytes| named.binary_search(&&**bytes).ok().map(|at| at as Row))
        .collect();

    let mut sat: Vec<_> = sat.into_iter().map(|(key, v)| (row(key), v)).collect();
    sat.sort_unstable_by_key(|(key, _)| *key);
    let mut qe: Vec<_> = qe
        .into_iter()
        .map(|(key, result)| (row(key), result.map(row)))
        .collect();
    qe.sort_unstable_by_key(|(key, _)| *key);
    let mut wp_entries: Vec<WpArtifactEntry> = wp
        .entries
        .iter()
        .map(|(stmt, post, result)| {
            let stmt = rows_by_key[*stmt].expect("an entry's statement is named");
            (stmt, row(*post), result.clone().map(row))
        })
        .collect();
    wp_entries.sort_unstable_by_key(|(stmt, post, _)| (*stmt, *post));
    let statements = named.into_iter().map(Box::from).collect();
    let small = table::small_trees(&numbering.terms, &numbering.formulas);
    let outcomes = outcomes
        .into_iter()
        .map(|(key, record)| {
            let invariant = row(record.invariant);
            (key, record.with_invariant(invariant))
        })
        .filter(|(_, record)| small[record.invariant as usize])
        .collect();

    Artifact {
        terms: numbering.terms,
        formulas: numbering.formulas,
        sat,
        qe,
        statements,
        wp: wp_entries,
        outcomes,
    }
}

// ---------------------------------------------------------------------------
// Seed: artifact → memo tables (rows → ids, through the receiving arena)
// ---------------------------------------------------------------------------

/// Interns the artifact's node tables into `solver`'s arena — each row once,
/// in row order — and seeds the solver's caches and the WP store by row
/// number. Entries already present (a live run that got there first) are
/// never overwritten. Returns per-table insert counts. The artifact is left as it was: this seeds from a copy, which is
/// what a test wants; a context seeds with [`Artifact::seed_into`].
pub fn seed(artifact: &Artifact, solver: &Solver, wp_store: &WpStore) -> SeedReport {
    artifact.clone().seed_into(solver, wp_store).0
}

impl Artifact {
    /// [`seed`], moving the entries instead of copying them: statement
    /// bytes go into the WP store as they are, and the leaf sections are
    /// left empty — a seeded cache and the section it came from would hold
    /// the same thing twice for as long as both live. The node tables and
    /// the outcome records stay. Also returns the arena id every formula row
    /// was interned as, by row: what turns an outcome record's invariant
    /// into a root of the next export.
    pub fn seed_into(
        &mut self,
        solver: &Solver,
        wp_store: &WpStore,
    ) -> (SeedReport, Vec<FormulaId>) {
        let _span = expresso_obs::span!("persist.seed");
        let ids = table::intern(solver.interner(), &self.terms, &self.formulas);
        let id = |row: Row| ids[row as usize];
        let report = SeedReport {
            outcomes: 0,
            sat: solver.seed_sat_cache(
                std::mem::take(&mut self.sat)
                    .into_iter()
                    .map(|(key, verdict)| (id(key), verdict))
                    .collect(),
            ),
            qe: solver.seed_qe_cache(
                std::mem::take(&mut self.qe)
                    .into_iter()
                    .map(|(key, result)| (id(key), result.map(id)))
                    .collect(),
            ),
            wp: wp_store.seed(WpExport {
                statements: std::mem::take(&mut self.statements),
                entries: std::mem::take(&mut self.wp)
                    .into_iter()
                    .map(|(stmt, post, result)| (stmt as usize, id(post), result.map(id)))
                    .collect(),
            }),
        };
        (report, ids)
    }
}

// ---------------------------------------------------------------------------
// Binary layout
// ---------------------------------------------------------------------------
//
//   magic(8) version(u32) payload_len(u64) payload checksum(u64)
//
//   payload = terms    seq of term rows
//             formulas seq of formula rows
//             sat      seq of (row, sat result)
//             qe       seq of (row, Ok row | Err translate error)
//             stmts    seq of byte strings (canonical statement bytes), ascending
//             wp       seq of (stmt row, row, Ok row | Err wp error), ascending
//             outcomes seq of (key hash, key bytes, invariant row, candidates, conjuncts,
//                              triples, seq of (ccr, guard, flags)), ascending by key

fn write_result<E>(
    w: &mut Writer,
    result: &Result<Row, E>,
    write_error: impl FnOnce(&mut Writer, &E),
) {
    match result {
        Ok(row) => {
            w.u8(0);
            w.u32(*row);
        }
        Err(e) => {
            w.u8(1);
            write_error(w, e);
        }
    }
}

fn read_result<E>(
    r: &mut Reader,
    formulas: usize,
    read_error: impl FnOnce(&mut Reader) -> Result<E, DecodeError>,
) -> Result<Result<Row, E>, DecodeError> {
    Ok(match r.u8()? {
        0 => Ok(r.row(formulas)?),
        1 => Err(read_error(r)?),
        other => return codec::err(format!("invalid result tag {other}")),
    })
}

/// Frames a payload: magic, version, length, payload, checksum.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut file = Writer::new();
    file.raw(MAGIC);
    file.u32(FORMAT_VERSION);
    file.u64(payload.len() as u64);
    file.raw(payload);
    file.u64(checksum(payload));
    file.into_bytes()
}

/// Writes the artifact as it stands; the canonical order is
/// [`export_artifact`]'s doing.
fn encode_artifact(artifact: &Artifact) -> Vec<u8> {
    let mut w = Writer::new();
    w.seq(artifact.terms.len());
    artifact
        .terms
        .iter()
        .for_each(|row| write_term_row(&mut w, row));
    w.seq(artifact.formulas.len());
    artifact
        .formulas
        .iter()
        .for_each(|row| write_formula_row(&mut w, row));
    w.seq(artifact.sat.len());
    for (key, verdict) in &artifact.sat {
        w.u32(*key);
        write_sat_result(&mut w, verdict);
    }
    w.seq(artifact.qe.len());
    for (key, result) in &artifact.qe {
        w.u32(*key);
        write_result(&mut w, result, write_translate_error);
    }
    w.seq(artifact.statements.len());
    artifact.statements.iter().for_each(|bytes| w.bytes(bytes));
    w.seq(artifact.wp.len());
    for (stmt, post, result) in &artifact.wp {
        w.u32(*stmt);
        w.u32(*post);
        write_result(&mut w, result, write_wp_error);
    }
    w.seq(artifact.outcomes.len());
    artifact
        .outcomes
        .iter()
        .for_each(|(key, record)| write_outcome(&mut w, key, record));
    frame(&w.into_bytes())
}

/// The fewest bytes one row of each section encodes to: a term `Neg`, a
/// formula `True`, a sat key and verdict tag, a qe key and `Ok` row (every
/// error is longer), a statement's length prefix, a wp entry's two rows and
/// `Ok` row, an outcome record with empty key bytes and no decision.
struct MinRowBytes {
    term: usize,
    formula: usize,
    sat: usize,
    qe: usize,
    statement: usize,
    wp: usize,
    outcome: usize,
}

const MIN_ROW_BYTES: MinRowBytes = MinRowBytes {
    term: 1 + 4,
    formula: 1,
    sat: 4 + 1,
    qe: 4 + 1 + 4,
    statement: 4,
    wp: 4 + 4 + 1 + 4,
    outcome: 8 + 4 + 4 + 3 * 8 + 4,
};

/// Reads the row count a section announces and reserves `rows` for it —
/// but for no more rows than the rest of the payload can hold at `min_row`
/// bytes a row, so a hostile count costs an allocation the size of the
/// file, not of the count.
fn section_len<T>(r: &mut Reader, rows: &mut Vec<T>, min_row: usize) -> Result<usize, DecodeError> {
    let count = r.seq()?;
    rows.reserve(count.min(r.remaining() / min_row));
    Ok(count)
}

/// Decodes and validates a payload: every row reference must name a strictly
/// earlier row of its table (children) or a row inside the table (entries:
/// a statement row one of the statement section, whose bytes are taken as
/// they are),
/// the outcome records must ascend strictly by key (so no key is filed
/// twice) and each must name an invariant whose tree is small enough to
/// rebuild.
fn decode_artifact(payload: &[u8]) -> Result<Artifact, DecodeError> {
    let mut r = Reader::new(payload);
    let mut artifact = Artifact::default();
    for i in 0..section_len(&mut r, &mut artifact.terms, MIN_ROW_BYTES.term)? {
        artifact.terms.push(read_term_row(&mut r, i)?);
    }
    let terms = artifact.terms.len();
    for i in 0..section_len(&mut r, &mut artifact.formulas, MIN_ROW_BYTES.formula)? {
        artifact.formulas.push(read_formula_row(&mut r, i, terms)?);
    }
    let formulas = artifact.formulas.len();
    for _ in 0..section_len(&mut r, &mut artifact.sat, MIN_ROW_BYTES.sat)? {
        let key = r.row(formulas)?;
        artifact.sat.push((key, read_sat_result(&mut r)?));
    }
    for _ in 0..section_len(&mut r, &mut artifact.qe, MIN_ROW_BYTES.qe)? {
        let key = r.row(formulas)?;
        let result = read_result(&mut r, formulas, read_translate_error)?;
        artifact.qe.push((key, result));
    }
    for _ in 0..section_len(&mut r, &mut artifact.statements, MIN_ROW_BYTES.statement)? {
        artifact.statements.push(r.bytes()?.into_boxed_slice());
    }
    let statements = artifact.statements.len();
    for _ in 0..section_len(&mut r, &mut artifact.wp, MIN_ROW_BYTES.wp)? {
        let stmt = r.row(statements)?;
        let post = r.row(formulas)?;
        let result = read_result(&mut r, formulas, read_wp_error)?;
        artifact.wp.push((stmt, post, result));
    }
    let small = table::small_trees(&artifact.terms, &artifact.formulas);
    for _ in 0..section_len(&mut r, &mut artifact.outcomes, MIN_ROW_BYTES.outcome)? {
        let (key, record) = read_outcome(&mut r, formulas)?;
        if artifact
            .outcomes
            .last()
            .is_some_and(|(last, _)| *last >= key)
        {
            return codec::err("outcome records are not in ascending key order");
        }
        if !small[record.invariant as usize] {
            return codec::err(format!(
                "outcome invariant (row {}) is too large a tree to rebuild",
                record.invariant
            ));
        }
        artifact.outcomes.push((key, record));
    }
    if !r.is_empty() {
        return codec::err("trailing bytes after last section");
    }
    Ok(artifact)
}

// ---------------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------------

/// Path of the artifact file inside `dir`.
pub fn artifact_path(dir: &Path) -> PathBuf {
    dir.join(ARTIFACT_FILE)
}

/// Serializes `artifact` into `dir`, creating the directory if needed.
///
/// The bytes are written to a process-unique temp file in the same directory
/// and atomically renamed over the artifact, so concurrent writers sharing
/// one cache directory never interleave partial writes (last writer wins)
/// and readers never observe a torn file.
pub fn save_artifact(dir: &Path, artifact: &Artifact) -> io::Result<(u64, PathBuf)> {
    fs::create_dir_all(dir)?;
    let bytes = encode_artifact(artifact);
    let final_path = artifact_path(dir);
    let tmp_path = dir.join(format!(".{}.tmp.{}", ARTIFACT_FILE, std::process::id()));
    fs::write(&tmp_path, &bytes)?;
    match fs::rename(&tmp_path, &final_path) {
        Ok(()) => Ok((bytes.len() as u64, final_path)),
        Err(e) => {
            let _ = fs::remove_file(&tmp_path);
            Err(e)
        }
    }
}

/// Exports the caches of `solver` and `wp_store` together with `outcomes`
/// (see [`export_with_outcomes`]) and writes them to `dir`.
pub fn save(
    dir: &Path,
    solver: &Solver,
    wp_store: &WpStore,
    outcomes: BTreeMap<OutcomeKey, OutcomeRecord<FormulaId>>,
) -> io::Result<SaveReport> {
    let _span = expresso_obs::span!("persist.save");
    let artifact = export_with_outcomes(solver, wp_store, outcomes);
    let (bytes, path) = save_artifact(dir, &artifact)?;
    let written = artifact.offers();
    let report = SaveReport {
        sat: written.sat,
        qe: written.qe,
        theory: 0,
        wp: written.wp,
        outcomes: written.outcomes,
        bytes,
        path,
    };
    expresso_obs::log!(
        expresso_obs::Level::Debug,
        "saved warm-start artifact to {:?}: {bytes} bytes ({} term + {} formula rows; {written})",
        report.path,
        artifact.terms.len(),
        artifact.formulas.len(),
    );
    Ok(report)
}

/// Loads the artifact from `dir`.
///
/// Magic, format version, payload length and checksum are all verified
/// *before* any row is decoded, and decoding checks every row reference;
/// every malformation — including a file that passes the header checks but
/// trips a decoder — comes back as [`LoadResult::Corrupt`] rather than a
/// panic or a silently wrong entry.
pub fn load(dir: &Path) -> LoadResult {
    let _span = expresso_obs::span!("persist.load");
    let path = artifact_path(dir);
    let bytes = match fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            expresso_obs::log!(
                expresso_obs::Level::Debug,
                "no warm-start artifact at {path:?}, starting cold"
            );
            return LoadResult::Absent;
        }
        Err(e) => return LoadResult::Corrupt(format!("unreadable artifact {path:?}: {e}")),
    };
    if bytes.len() < HEADER_LEN + 8 {
        return LoadResult::Corrupt(format!(
            "artifact {path:?} too short ({} bytes)",
            bytes.len()
        ));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return LoadResult::Corrupt(format!("artifact {path:?} has wrong magic"));
    }
    let mut header = Reader::new(&bytes[MAGIC.len()..HEADER_LEN]);
    let version = header.u32().expect("header length checked");
    if version != FORMAT_VERSION {
        return LoadResult::Corrupt(format!(
            "artifact {path:?} has format version {version}, expected {FORMAT_VERSION}"
        ));
    }
    let claimed = header.u64().expect("header length checked");
    let payload = &bytes[HEADER_LEN..bytes.len() - 8];
    if claimed != payload.len() as u64 {
        return LoadResult::Corrupt(format!(
            "artifact {path:?} length mismatch: header claims {claimed} payload bytes, file has {}",
            payload.len()
        ));
    }
    let stored = u64::from_le_bytes(
        bytes[bytes.len() - 8..]
            .try_into()
            .expect("trailer is 8 bytes"),
    );
    if checksum(payload) != stored {
        return LoadResult::Corrupt(format!("artifact {path:?} failed its checksum"));
    }
    match decode_artifact(payload) {
        Ok(artifact) => LoadResult::Loaded(Box::new(artifact)),
        Err(e) => LoadResult::Corrupt(format!("artifact {path:?}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expresso_logic::{CmpOp, FormulaNode, Term};
    use expresso_monitor_lang::{
        check_monitor, parse_expr, parse_monitor, Ccr, CcrId, Expr, Field, Method, Monitor,
        NotificationKind, SignalCondition, Stmt, Type, UnOp, VarTable,
    };
    use expresso_vcgen::statement_bytes;
    use std::sync::Arc;

    struct Caches {
        solver: Solver,
        wp: WpStore,
    }

    impl Caches {
        fn new() -> Self {
            Caches {
                solver: Solver::new(),
                wp: WpStore::new(),
            }
        }

        fn export(&self) -> Artifact {
            export_with_outcomes(&self.solver, &self.wp, BTreeMap::new())
        }

        fn seeded_from(artifact: &Artifact) -> (Self, SeedReport) {
            let caches = Caches::new();
            let report = seed(artifact, &caches.solver, &caches.wp);
            (caches, report)
        }
    }

    fn count_lt(bound: i64) -> Formula {
        Formula::Cmp(CmpOp::Lt, Term::Var("count".into()), Term::Int(bound))
    }

    fn bump(delta: &str) -> Stmt {
        Stmt::Assign(
            "count".into(),
            parse_expr(&format!("count {delta}")).unwrap(),
        )
    }

    /// The symbol table of a monitor with the one field `int <var>`.
    fn table_of(var: &str) -> VarTable {
        let source = format!("monitor M {{ int {var} = 0; atomic void nop() {{ skip; }} }}");
        check_monitor(&parse_monitor(&source).unwrap()).unwrap()
    }

    /// Seeds `wp` with one statement and its `(post, result)` entries, as a
    /// loaded artifact would.
    fn seed_statement(
        wp: &WpStore,
        stmt: &Stmt,
        table: &VarTable,
        entries: Vec<(FormulaId, Result<FormulaId, WpError>)>,
    ) {
        let entries = entries
            .into_iter()
            .map(|(post, result)| (0, post, result))
            .collect();
        let statements = vec![statement_bytes(stmt, table).into()];
        wp.seed(WpExport {
            statements,
            entries,
        });
    }

    /// One entry per section over a handful of shared nodes. `shuffled`
    /// fills the same caches through a differently populated arena and in
    /// the opposite order: other ids, other insertion order, same content.
    fn sample_caches(shuffled: bool) -> Caches {
        let caches = Caches::new();
        let interner = caches.solver.interner();
        if shuffled {
            for i in 0..64 {
                interner.intern(&Formula::BoolVar(format!("junk{i}")));
            }
        }
        let mut trees = [
            count_lt(4),
            Formula::Cmp(CmpOp::Ge, Term::Var("count".into()), Term::Int(0)),
            Formula::exists(vec!["x".into()], count_lt(4)),
            count_lt(3),
            Formula::True,
        ];
        if shuffled {
            trees.reverse();
        }
        let mut ids: Vec<_> = trees.iter().map(|t| interner.intern(t)).collect();
        if shuffled {
            ids.reverse();
        }
        let [guard, nonneg, exists, shifted, truth] = ids[..] else {
            unreachable!()
        };
        let mut sat = vec![(guard, SatResult::Unsat), (nonneg, SatResult::Sat)];
        if shuffled {
            sat.reverse();
        }
        caches.solver.seed_sat_cache(sat);
        caches.solver.seed_qe_cache(vec![(exists, Ok(truth))]);
        let table = table_of("count");
        let mut posts = vec![(guard, Ok(shifted)), (nonneg, Ok(nonneg))];
        if shuffled {
            posts.reverse();
        }
        seed_statement(&caches.wp, &bump("+ 1"), &table, posts);
        caches
    }

    fn payload_of(file: &[u8]) -> &[u8] {
        &file[HEADER_LEN..file.len() - 8]
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xp-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Writes `file` as the artifact of a scratch directory and loads it.
    fn load_bytes(tag: &str, file: &[u8]) -> LoadResult {
        let dir = scratch(tag);
        fs::create_dir_all(&dir).unwrap();
        fs::write(artifact_path(&dir), file).unwrap();
        let result = load(&dir);
        fs::remove_dir_all(&dir).unwrap();
        result
    }

    fn assert_corrupt(tag: &str, file: &[u8], needle: &str) {
        match load_bytes(tag, file) {
            LoadResult::Corrupt(why) => {
                assert!(why.contains(needle), "{tag}: unexpected reason: {why}")
            }
            other => panic!("{tag}: expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let artifact = sample_caches(false).export();
        assert_eq!(artifact.len(), 5);
        assert_eq!(artifact.wp().len(), 2);
        // The WP entries' statement, once.
        assert_eq!(artifact.statements().len(), 1);
        // count, 0, 3, 4 — each once, however many formulas mention them.
        assert_eq!(artifact.terms().len(), 4);
        let bytes = encode_artifact(&artifact);
        assert_eq!(decode_artifact(payload_of(&bytes)).unwrap(), artifact);
        // The tree view names what the caches held.
        let (key, verdict) = &artifact.sat()[0];
        assert!(
            (artifact.formula(*key) == count_lt(4)) == (*verdict == SatResult::Unsat),
            "sat entry lost its key"
        );
        assert!(artifact
            .wp()
            .iter()
            .any(|(_, post, wp)| artifact.formula(*post) == count_lt(4)
                && wp.as_ref().map(|r| artifact.formula(*r)) == Ok(count_lt(3))));
    }

    #[test]
    fn encoding_is_deterministic_regardless_of_entry_order() {
        // Same content through different arena ids, insertion orders and
        // `HashMap` seeds: same rows, same bytes.
        let plain = sample_caches(false).export();
        let shuffled = sample_caches(true).export();
        assert_eq!(plain, shuffled);
        assert_eq!(encode_artifact(&plain), encode_artifact(&shuffled));
    }

    #[test]
    fn reexporting_a_seeded_arena_is_byte_identical() {
        // export → seed a fresh arena → export again, with no analysis in
        // between: a numbering that leaked arena ids would differ here.
        let cold = sample_caches(true);
        let contradiction = Formula::And(vec![
            count_lt(4),
            Formula::Cmp(CmpOp::Gt, Term::Var("count".into()), Term::Int(9)),
        ]);
        assert!(cold
            .solver
            .check_sat_id(cold.solver.interner().intern(&contradiction))
            .is_unsat());
        let first = cold.export();
        let (warm, report) = Caches::seeded_from(&first);
        assert_eq!(report.total(), first.len());
        let second = warm.export();
        assert_eq!(first, second);
        assert_eq!(encode_artifact(&first), encode_artifact(&second));
    }

    #[test]
    fn save_load_round_trips_through_disk() {
        let dir = scratch("rt");
        let artifact = sample_caches(false).export();
        let (bytes, path) = save_artifact(&dir, &artifact).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), bytes);
        match load(&dir) {
            LoadResult::Loaded(loaded) => assert_eq!(*loaded, artifact),
            other => panic!("expected Loaded, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn absent_artifact_loads_as_absent() {
        assert!(matches!(load(&scratch("absent")), LoadResult::Absent));
    }

    #[test]
    fn truncated_artifact_is_corrupt_not_a_panic() {
        let dir = scratch("trunc");
        save_artifact(&dir, &sample_caches(false).export()).unwrap();
        let path = artifact_path(&dir);
        let bytes = fs::read(&path).unwrap();
        for keep in [0, 5, HEADER_LEN + 3, bytes.len() - 1] {
            fs::write(&path, &bytes[..keep]).unwrap();
            assert!(
                matches!(load(&dir), LoadResult::Corrupt(_)),
                "truncation to {keep} bytes must be detected"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let dir = scratch("flip");
        save_artifact(&dir, &sample_caches(false).export()).unwrap();
        let path = artifact_path(&dir);
        let bytes = fs::read(&path).unwrap();
        // Flip one bit in every byte position: header flips break the magic/
        // version/length checks, payload flips break the checksum, trailer
        // flips break the stored checksum itself.
        for i in 0..bytes.len() {
            let mut mangled = bytes.clone();
            mangled[i] ^= 0x10;
            fs::write(&path, &mangled).unwrap();
            assert!(
                matches!(load(&dir), LoadResult::Corrupt(_)),
                "bit flip at byte {i} must be detected"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_mismatch_is_corrupt() {
        // A future version, the format with a disjointness section, the one
        // that decoded statements, the one with a theory section and models,
        // the one without outcome records and the tree format before it: each
        // is a cold start, none is decoded.
        let bytes = encode_artifact(&sample_caches(false).export());
        for version in [FORMAT_VERSION + 1, 6, 5, 4, 3, 2] {
            let mut bytes = bytes.clone();
            bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&version.to_le_bytes());
            assert_corrupt("ver", &bytes, "format version");
        }
    }

    #[test]
    fn dangling_row_references_are_corrupt_despite_a_valid_checksum() {
        // `encode_artifact` stamps a correct checksum over whatever it is
        // given, so each of these reaches the decoder.
        let pristine = sample_caches(false).export();
        let not_row = pristine
            .formulas
            .iter()
            .position(|row| matches!(row, FormulaRow::Cmp(..)))
            .unwrap();
        let formulas = pristine.formulas.len() as Row;
        let terms = pristine.terms.len() as Row;
        type Mangle = fn(&mut Artifact, usize, Row, Row);
        let mangles: [(&str, Mangle); 6] = [
            ("forward", |a, at, _, _| {
                a.formulas[at] = FormulaRow::Not(at as Row + 1)
            }),
            ("self", |a, at, _, _| {
                a.formulas[at] = FormulaRow::And(vec![0, at as Row])
            }),
            ("term-self", |a, _, _, _| a.terms[0] = TermRow::Neg(0)),
            ("term-range", |a, at, _, terms| {
                a.formulas[at] = FormulaRow::Divides(2, terms)
            }),
            ("entry", |a, _, formulas, _| a.sat[0].0 = formulas),
            ("wp-result", |a, _, formulas, _| a.wp[0].2 = Ok(formulas)),
        ];
        for (tag, mangle) in mangles {
            let mut artifact = pristine.clone();
            mangle(&mut artifact, not_row, formulas, terms);
            assert_corrupt(tag, &encode_artifact(&artifact), "row reference");
        }
    }

    /// A payload whose only entry is a WP entry over the statement `blob`,
    /// for the postcondition `true` and with the result `true`.
    fn payload_with_statement(blob: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        w.seq(0); // terms
        w.seq(1);
        write_formula_row(&mut w, &FormulaRow::True);
        w.seq(0); // sat
        w.seq(0); // qe
        w.seq(1);
        w.bytes(blob);
        w.seq(1);
        w.u32(0); // statement row
        w.u32(0); // postcondition row
        write_result(&mut w, &Ok::<Row, WpError>(0), write_wp_error);
        w.seq(0); // outcomes
        w.into_bytes()
    }

    /// `levels` unary negations around `x`, assigned to `x`.
    fn nested(levels: usize) -> Stmt {
        let mut expr = Expr::Var("x".into());
        (0..levels).for_each(|_| expr = Expr::Unary(UnOp::Neg, Box::new(expr.clone())));
        Stmt::Assign("x".into(), expr)
    }

    #[test]
    fn statement_blobs_load_undecoded_and_match_no_live_statement() {
        // Statements are bytes to compare, not trees to rebuild: a blob no
        // encoder wrote — random bytes, a tag no statement has, a tower of
        // 100 000 one-byte `Unary` tags that a recursive decoder would
        // overflow the stack on — loads as it is, under a checksum that
        // agrees, and seeds an entry no live statement ever finds.
        let mut tower = Writer::new();
        tower.u8(2); // Assign
        tower.str("x");
        (0..100_000).for_each(|_| tower.raw(&[4, 0])); // Unary(Neg, …
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let random: Vec<u8> = (0..4096)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                (state >> 56) as u8
            })
            .collect();
        let live_table = table_of("x");
        let live = [Stmt::Skip, nested(3), nested(MAX_NESTING + 50)];
        for (tag, blob) in [
            ("tower", tower.into_bytes()),
            ("random", random),
            ("bad-tag", vec![0xff; 16]),
            ("empty", Vec::new()),
        ] {
            let loaded = match load_bytes(tag, &frame(&payload_with_statement(&blob))) {
                LoadResult::Loaded(loaded) => loaded,
                other => panic!("{tag}: expected Loaded, got {other:?}"),
            };
            assert_eq!(loaded.statements(), [blob.into_boxed_slice()], "{tag}");
            let (warm, report) = Caches::seeded_from(&loaded);
            assert_eq!(report.wp, 1, "{tag}");
            let session = Arc::new(warm.wp).session();
            let truth = warm.solver.interner().true_id();
            for stmt in &live {
                let got = session.get_or_compute(stmt, &live_table, truth, || {
                    Err(WpError::ArrayWrite("computed".into()))
                });
                assert!(got.is_err(), "{tag}: {stmt:?} was served the blob's entry");
            }
            assert_eq!(session.stats().hits, 0, "{tag}");
        }
        // A statement row is a row reference like any other: one past the
        // section is refused.
        let mut artifact = sample_caches(false).export();
        artifact.wp[0].0 = artifact.statements().len() as Row;
        assert_corrupt("wp-statement", &encode_artifact(&artifact), "row reference");
    }

    #[test]
    fn statements_past_the_parser_nesting_round_trip_as_bytes() {
        // Nothing decodes a statement, so nothing caps its nesting: one far
        // deeper than the parser accepts is exported with its entry, loads,
        // and is served from disk to a live lookup of the same statement.
        let table = table_of("x");
        let deep = nested(MAX_NESTING + 50);
        let cold = Caches::new();
        let truth = cold.solver.interner().true_id();
        seed_statement(&cold.wp, &deep, &table, vec![(truth, Ok(truth))]);
        let artifact = cold.export();
        assert_eq!(artifact.wp().len(), 1);
        assert_eq!(
            artifact.statements(),
            [statement_bytes(&deep, &table).into_boxed_slice()]
        );
        let loaded = match load_bytes("deep", &encode_artifact(&artifact)) {
            LoadResult::Loaded(loaded) => loaded,
            other => panic!("expected Loaded, got {other:?}"),
        };
        assert_eq!(*loaded, artifact);
        let (warm, _) = Caches::seeded_from(&loaded);
        let session = Arc::new(warm.wp).session();
        let truth = warm.solver.interner().true_id();
        let served = session.get_or_compute(&deep, &table, truth, || {
            panic!("the deep statement must be served from disk")
        });
        assert_eq!(served, Ok(truth));
        assert_eq!(session.stats().disk_hits, 1);
    }

    const COUNTER: &str = "monitor Counter {
        int count = 0;
        atomic void release() { count++; }
        atomic void acquire() { waituntil (count > 0) { count--; } }
    }";

    /// A record whose invariant is `invariant` in some table or arena.
    #[test]
    fn the_smallest_row_of_each_section_is_min_row_bytes_long() {
        fn len(write: impl FnOnce(&mut Writer)) -> usize {
            let mut w = Writer::new();
            write(&mut w);
            w.into_bytes().len()
        }
        let min = MIN_ROW_BYTES;
        assert_eq!(len(|w| write_term_row(w, &TermRow::Neg(0))), min.term);
        assert_eq!(
            len(|w| write_formula_row(w, &FormulaRow::True)),
            min.formula
        );
        let sat = |w: &mut Writer| {
            w.u32(0);
            write_sat_result(w, &SatResult::Sat);
        };
        assert_eq!(len(sat), min.sat);
        let qe = |w: &mut Writer| {
            w.u32(0);
            write_result(w, &Ok::<_, TranslateError>(0), write_translate_error);
        };
        assert_eq!(len(qe), min.qe);
        assert_eq!(len(|w| w.bytes(&[])), min.statement);
        let wp = |w: &mut Writer| {
            w.u32(0);
            w.u32(0);
            write_result(w, &Ok::<_, WpError>(0), write_wp_error);
        };
        assert_eq!(len(wp), min.wp);
        let key = OutcomeKey::of(&parse_monitor("monitor M { }").unwrap(), true, true);
        let record = OutcomeRecord {
            decisions: Vec::new(),
            ..record_of(0)
        };
        let outcome = len(|w| write_outcome(w, &key, &record));
        assert_eq!(outcome - key.bytes().len(), min.outcome);
    }

    fn record_of<F>(invariant: F) -> OutcomeRecord<F> {
        OutcomeRecord {
            invariant,
            candidates: 5,
            conjuncts: 1,
            triples_checked: 9,
            decisions: vec![DecisionRecord {
                ccr: 1,
                guard: 0,
                needed: true,
                condition: SignalCondition::Conditional,
                kind: NotificationKind::Signal,
                used_commutativity: true,
                conservative_fallback: false,
            }],
        }
    }

    fn key_of(source: &str) -> OutcomeKey {
        OutcomeKey::of(&parse_monitor(source).unwrap(), true, true)
    }

    /// [`sample_caches`] exported with a record each for [`COUNTER`] and a
    /// renamed copy of it, both with the invariant `count < 4`.
    fn sample_with_outcomes(shuffled: bool) -> Artifact {
        let caches = sample_caches(shuffled);
        let invariant = caches.solver.interner().intern(&count_lt(4));
        let records = [COUNTER.to_owned(), COUNTER.replace("count", "n")]
            .iter()
            .map(|source| (key_of(source), record_of(invariant)))
            .collect();
        export_with_outcomes(&caches.solver, &caches.wp, records)
    }

    #[test]
    fn outcome_records_round_trip_in_key_order() {
        let artifact = sample_with_outcomes(false);
        assert_eq!(artifact.outcomes().len(), 2);
        assert_eq!(artifact.len(), 5 + 2);
        assert!(artifact.outcomes()[0].0 < artifact.outcomes()[1].0);
        let bytes = encode_artifact(&artifact);
        assert_eq!(decode_artifact(payload_of(&bytes)).unwrap(), artifact);
        // Content decides the bytes here too, not the arena an invariant was
        // interned in.
        assert_eq!(bytes, encode_artifact(&sample_with_outcomes(true)));

        let counter = parse_monitor(COUNTER).unwrap();
        let key = OutcomeKey::of(&counter, true, true);
        let found = artifact.outcome(&key).expect("filed under its key");
        assert_eq!(artifact.formula(found.invariant), count_lt(4));
        assert!(artifact
            .outcome(&OutcomeKey::of(&counter, true, false))
            .is_none());
    }

    #[test]
    fn hostile_outcome_sections_are_corrupt_despite_a_valid_checksum() {
        let pristine = sample_with_outcomes(false);
        let formulas = pristine.formulas.len() as Row;
        type Mangle = fn(&mut Artifact, Row);
        let mangles: [(&str, Mangle, &str); 3] = [
            (
                "invariant",
                |a, formulas| a.outcomes[0].1.invariant = formulas,
                "row reference",
            ),
            (
                "duplicate",
                |a, _| a.outcomes.insert(1, a.outcomes[0].clone()),
                "ascending key order",
            ),
            (
                "unsorted",
                |a, _| a.outcomes.swap(0, 1),
                "ascending key order",
            ),
        ];
        for (tag, mangle, needle) in mangles {
            let mut artifact = pristine.clone();
            mangle(&mut artifact, formulas);
            assert_corrupt(tag, &encode_artifact(&artifact), needle);
        }
        // The outcome section is the last one: a payload that stops inside
        // its last record, under a checksum that agrees.
        let file = encode_artifact(&pristine);
        let payload = payload_of(&file);
        assert_corrupt("cut", &frame(&payload[..payload.len() - 5]), "truncated");
    }

    /// [`sample_with_outcomes`] with a tower of `levels` rows on top of its
    /// first record's invariant (`count < 4`: three nodes on two levels),
    /// each row built from the number of the row below it, and the invariant
    /// moved to the top of the tower.
    fn with_invariant_under(levels: usize, row_over: fn(Row) -> FormulaRow) -> Artifact {
        let mut artifact = sample_with_outcomes(false);
        let mut top = artifact.outcomes[0].1.invariant;
        for _ in 0..levels {
            artifact.formulas.push(row_over(top));
            top = artifact.formulas.len() as Row - 1;
        }
        artifact.outcomes[0].1.invariant = top;
        artifact
    }

    #[test]
    fn invariants_too_large_to_rebuild_are_corrupt_not_an_abort() {
        // Replay turns a record's invariant row into a tree, which recurses
        // once per level and spells a shared row out once per occurrence.
        // Both files are a few hundred kilobytes at most, well formed row by
        // row, under a correct checksum, and file their record under the key
        // of a real monitor: 20 000 negations would overflow the stack of the
        // worker that replays, forty doublings are 2^42 tree nodes.
        let negate: fn(Row) -> FormulaRow = FormulaRow::Not;
        let double: fn(Row) -> FormulaRow = |below| FormulaRow::And(vec![below, below]);
        for (tag, levels, row_over) in [("chain", 20_000, negate), ("doubling", 40, double)] {
            let artifact = with_invariant_under(levels, row_over);
            assert_corrupt(tag, &encode_artifact(&artifact), "too large a tree");
        }
        // The caps themselves. `count < 4` is one level above its terms.
        let at_cap = |tag: &str, levels: usize, row_over: fn(Row) -> FormulaRow| {
            let artifact = with_invariant_under(levels, row_over);
            let loaded = match load_bytes(tag, &encode_artifact(&artifact)) {
                LoadResult::Loaded(loaded) => loaded,
                other => panic!("{tag}: expected Loaded, got {other:?}"),
            };
            let past = with_invariant_under(levels + 1, row_over);
            assert_corrupt(tag, &encode_artifact(&past), "too large a tree");
            loaded.formula(loaded.outcomes()[0].1.invariant)
        };
        let mut tallest = at_cap("tallest", MAX_NESTING - 1, negate);
        let mut levels = 0;
        while let Formula::Not(inner) = tallest {
            (tallest, levels) = (*inner, levels + 1);
        }
        assert_eq!((tallest, levels), (count_lt(4), MAX_NESTING - 1));
        // 3 nodes doubled ten times and the ten `And`s over them: 2^12 - 1.
        let mut largest = &at_cap("largest", 10, double);
        let mut nodes = 3;
        while let Formula::And(halves) = largest {
            assert_eq!(halves[0], halves[1]);
            (largest, nodes) = (&halves[0], 2 * nodes + 1);
        }
        assert_eq!(nodes, MAX_TREE_NODES - 1);
    }

    #[test]
    fn the_exporter_leaves_out_a_record_it_could_not_reload() {
        // The same doubling tower, built in an arena this time: an invariant
        // no abduction run produces, but if one did, writing its record would
        // cost every later run the whole file.
        let caches = sample_caches(false);
        let interner = caches.solver.interner();
        let small = interner.intern(&count_lt(4));
        let mut huge = small;
        for _ in 0..40 {
            huge = interner.intern_formula_node(FormulaNode::And(vec![huge, huge]));
        }
        let (kept, dropped) = (key_of(COUNTER), key_of(&COUNTER.replace("count", "n")));
        let records = BTreeMap::from([
            (kept.clone(), record_of(small)),
            (dropped.clone(), record_of(huge)),
        ]);
        let artifact = export_with_outcomes(&caches.solver, &caches.wp, records);
        assert!(artifact.outcome(&kept).is_some());
        assert!(artifact.outcome(&dropped).is_none());
        match load_bytes("huge", &encode_artifact(&artifact)) {
            LoadResult::Loaded(loaded) => assert_eq!(*loaded, artifact),
            other => panic!("expected Loaded, got {other:?}"),
        }
    }

    #[test]
    fn a_monitor_nested_past_the_statement_cap_keeps_its_record() {
        // An outcome key and a statement are both bytes the loader copies
        // and compares, never decodes, so there is nothing for it to refuse
        // in a body nested past the parser's cap: the WP entry of the body
        // and the record of the monitor around it both stay, and the next
        // run replays the record.
        let body = nested(MAX_NESTING + 50);
        let monitor = Monitor {
            name: "Deep".into(),
            params: [].into(),
            requires: None,
            fields: [Field {
                name: "x".into(),
                ty: Type::Int,
                init: None,
                array_len: None,
            }]
            .into(),
            methods: [Method {
                name: "flip".into(),
                params: Vec::new(),
                ccrs: vec![CcrId(0)],
            }]
            .into(),
            ccrs: [Ccr {
                id: CcrId(0),
                method: 0,
                position: 0,
                guard: Expr::Bool(true).into(),
                body: body.clone(),
            }]
            .into(),
        };
        let caches = Caches::new();
        let truth = caches.solver.interner().true_id();
        seed_statement(&caches.wp, &body, &table_of("x"), vec![(truth, Ok(truth))]);
        let key = OutcomeKey::of(&monitor, true, true);
        let records = BTreeMap::from([(key.clone(), record_of(truth))]);
        let artifact = export_with_outcomes(&caches.solver, &caches.wp, records);
        assert_eq!(artifact.wp().len(), 1);
        match load_bytes("deep-monitor", &encode_artifact(&artifact)) {
            LoadResult::Loaded(loaded) => assert!(loaded.outcome(&key).is_some()),
            other => panic!("expected Loaded, got {other:?}"),
        }
    }

    #[test]
    fn seed_round_trips_through_a_fresh_arena() {
        // Fill a solver's caches by solving, export, then seed a *fresh*
        // solver (fresh arena — ids cannot survive) and check the entry
        // counts, the arena's size and a served verdict.
        let cold = Caches::new();
        let guard = count_lt(4);
        let contradiction = Formula::And(vec![
            guard.clone(),
            Formula::Cmp(CmpOp::Gt, Term::Var("count".into()), Term::Int(9)),
        ]);
        assert!(cold
            .solver
            .check_sat_id(cold.solver.interner().intern(&contradiction))
            .is_unsat());
        assert!(cold
            .solver
            .check_sat_id(cold.solver.interner().intern(&guard))
            .is_sat());
        let artifact = cold.export();
        assert!(!artifact.sat().is_empty());

        let (warm, report) = Caches::seeded_from(&artifact);
        assert_eq!(report.sat, artifact.sat().len());
        // One arena node per row, plus the two constants every arena holds.
        let stats = warm.solver.interner().stats();
        assert_eq!(stats.term_nodes, artifact.terms().len());
        assert!(stats.formula_nodes <= artifact.formulas().len() + 2);
        assert!(warm
            .solver
            .check_sat_id(warm.solver.interner().intern(&contradiction))
            .is_unsat());
        assert!(
            warm.solver.stats().disk_hits > 0,
            "warm query must hit a seeded entry"
        );
        assert_eq!(
            warm.solver.stats().sat_solver_calls,
            0,
            "warm query must not re-solve"
        );
    }
}
