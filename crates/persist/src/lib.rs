//! On-disk persistence of the analysis memo caches (`expresso-persist`).
//!
//! PRs 1–4 made suite analysis fast *within* a process: the hash-consed
//! arena, the solver's sharded sat/QE/theory verdict caches and the
//! fingerprinted suite-wide [`WpStore`] are all keyed on content — interned
//! formula structure and lowering fingerprints — not on identity. This crate
//! makes that content-addressing outlive the process: it serializes the memo
//! tables into a version-stamped, checksummed artifact and seeds them back
//! before the next run's `analyze_suite` starts, so every `reproduce` run and
//! CI job begins warm.
//!
//! # Why the artifact stores trees, not ids
//!
//! [`FormulaId`](expresso_logic::FormulaId)s are arena-local: they are dense
//! indices minted in interning order and mean nothing in another process. The
//! artifact therefore stores full formula trees (and statement ASTs for the
//! WP keys) and [`seed`] re-interns them through the *receiving* arena. The
//! keys were captured **post-normalization** — the sat/QE tables key on
//! `interner.simplify(..)` images, the theory table on raw interned atoms,
//! the WP store on `(fingerprint, stmt, post-id)` — and every normalization
//! is a deterministic structural function, so re-interning a stored key tree
//! yields exactly the id the warm run's own lookup computes. That is the
//! whole correctness argument: a seeded entry can only be found via a key the
//! cold run proved, and a warm hit returns the bit-identical verdict the warm
//! run would have derived.
//!
//! # Invalidation is content-addressing
//!
//! There is no out-of-band invalidation protocol. Editing one CCR changes its
//! statement AST (and hence its WP keys) and every VC formula built from it
//! (and hence the solver keys); the stale entries simply never match again
//! and only the changed monitor recomputes. The `reproduce persist` harness
//! measures exactly this: after mutating one monitor of a 500-monitor corpus,
//! the warm re-run misses only in that monitor's analysis.
//!
//! # Robustness
//!
//! * **Corruption:** the payload is guarded by a magic, a format version and
//!   an FNV-1a checksum, all verified *before* decoding; a truncated,
//!   bit-flipped or version-mismatched file loads as
//!   [`LoadResult::Corrupt`] and the caller falls back to a cold start with a
//!   warning — never a panic, never a wrong verdict.
//! * **Concurrent writers:** [`save`] writes to a process-unique temp file in
//!   the cache directory and atomically renames it over the artifact, so two
//!   processes sharing one cache directory can never interleave partial
//!   writes; readers always observe a complete artifact (last writer wins).

mod codec;
mod encode;

pub use codec::{checksum, DecodeError};

use codec::{Reader, Writer};
use encode::{
    read_formula, read_opt_type, read_sat_result, read_stmt, read_translate_error, read_wp_error,
    write_formula, write_opt_type, write_sat_result, write_stmt, write_translate_error,
    write_wp_error,
};
use expresso_logic::Formula;
use expresso_monitor_lang::{Stmt, Type};
use expresso_smt::{SatResult, Solver, TheoryVerdict, TranslateError};
use expresso_vcgen::{DisjointnessStore, WpError, WpExportEntry, WpStore};
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

/// Format version; bump on any codec or layout change. A mismatch loads as
/// [`LoadResult::Corrupt`] (cold start), never as garbage.
///
/// v2 added the CCR-pair disjointness section (the independence verdicts
/// behind the explorer's refined dependence relation).
pub const FORMAT_VERSION: u32 = 2;

/// A theory verdict in process-independent form: the inconsistent-core atoms
/// are stored as formula trees instead of arena-local ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TheoryVerdictData {
    /// The literal set has an integer model.
    Consistent,
    /// Theory-inconsistent, optionally with its minimal core.
    Inconsistent(Option<Vec<(Formula, bool)>>),
    /// The check left the decidable fragment or exceeded a budget.
    Unknown(String),
}

/// One persisted WP-store entry: the content-addressed key triple plus the
/// memoized result, all in tree form.
#[derive(Debug, Clone, PartialEq)]
pub struct WpArtifactEntry {
    /// The lowering fingerprint — the exact symbol-table slice the statement
    /// reads or writes, which is the dirty-statement invalidation unit: a
    /// type or name change anywhere in this slice re-keys the entry.
    pub fingerprint: Vec<(String, Option<Type>)>,
    /// The statement AST (the second key component).
    pub stmt: Stmt,
    /// The postcondition (the third key component), as a tree.
    pub post: Formula,
    /// The memoized `wp(stmt, post)` result.
    pub result: Result<Formula, WpError>,
}

/// One persisted CCR-pair independence verdict: both sides' guard trees,
/// lowering fingerprints and body ASTs (the content-addressed key), plus the
/// verdict. Any edit to either CCR re-keys the pair, so stale verdicts never
/// match again.
#[derive(Debug, Clone, PartialEq)]
pub struct DisjointnessArtifactEntry {
    /// Lowered guard of the first CCR, as a tree.
    pub guard_a: Formula,
    /// Lowering fingerprint of the first CCR's body.
    pub fingerprint_a: Vec<(String, Option<Type>)>,
    /// Body AST of the first CCR.
    pub body_a: Stmt,
    /// Lowered guard of the second CCR, as a tree.
    pub guard_b: Formula,
    /// Lowering fingerprint of the second CCR's body.
    pub fingerprint_b: Vec<(String, Option<Type>)>,
    /// Body AST of the second CCR.
    pub body_b: Stmt,
    /// Whether the pair was proven conditionally independent.
    pub independent: bool,
}

/// The process-independent snapshot of every memo table, as written to and
/// read from disk.
#[derive(Debug, Clone, Default)]
pub struct Artifact {
    /// Satisfiability verdicts keyed on normalized query trees.
    pub sat: Vec<(Formula, SatResult)>,
    /// Quantifier-elimination results keyed on normalized input trees.
    pub qe: Vec<(Formula, Result<Formula, TranslateError>)>,
    /// Theory-consistency verdicts keyed on sorted literal sets.
    pub theory: Vec<(Vec<(Formula, bool)>, TheoryVerdictData)>,
    /// WP-store entries keyed on `(fingerprint, statement, postcondition)`.
    pub wp: Vec<WpArtifactEntry>,
    /// CCR-pair independence verdicts keyed on both sides' guard + body
    /// content.
    pub disjointness: Vec<DisjointnessArtifactEntry>,
}

impl Artifact {
    /// Total number of entries across every section.
    pub fn len(&self) -> usize {
        self.sat.len() + self.qe.len() + self.theory.len() + self.wp.len() + self.disjointness.len()
    }

    /// Whether the artifact carries no entries at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What [`save`] wrote.
#[derive(Debug, Clone)]
pub struct SaveReport {
    /// Satisfiability entries written.
    pub sat: usize,
    /// Quantifier-elimination entries written.
    pub qe: usize,
    /// Theory-verdict entries written.
    pub theory: usize,
    /// WP-store entries written.
    pub wp: usize,
    /// Disjointness verdicts written.
    pub disjointness: usize,
    /// Size of the artifact file in bytes.
    pub bytes: u64,
    /// Path of the artifact file.
    pub path: PathBuf,
}

/// What [`seed`] inserted into the receiving caches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeedReport {
    /// Satisfiability entries seeded.
    pub sat: usize,
    /// Quantifier-elimination entries seeded.
    pub qe: usize,
    /// Theory-verdict entries seeded.
    pub theory: usize,
    /// WP-store entries seeded.
    pub wp: usize,
    /// Disjointness verdicts seeded.
    pub disjointness: usize,
}

impl SeedReport {
    /// Total entries seeded across every table.
    pub fn total(&self) -> usize {
        self.sat + self.qe + self.theory + self.wp + self.disjointness
    }
}

impl fmt::Display for SeedReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} entries (sat {}, qe {}, theory {}, wp {}, disjointness {})",
            self.total(),
            self.sat,
            self.qe,
            self.theory,
            self.wp,
            self.disjointness
        )
    }
}

/// Outcome of [`load`].
#[derive(Debug)]
pub enum LoadResult {
    /// A complete, checksum-verified artifact.
    Loaded(Box<Artifact>),
    /// No artifact exists at the path — a plain cold start.
    Absent,
    /// The file exists but is unusable (truncated, bit-flipped, version
    /// mismatch, unreadable). The caller should warn and start cold.
    Corrupt(String),
}

// ---------------------------------------------------------------------------
// Export: memo tables → artifact (ids → trees)
// ---------------------------------------------------------------------------

/// Snapshots the solver's three memo tables, the WP store and the
/// disjointness store into a process-independent [`Artifact`], translating
/// every arena-local id into its formula tree.
pub fn export_artifact(
    solver: &Solver,
    wp_store: &WpStore,
    disjointness: &DisjointnessStore,
) -> Artifact {
    let interner = solver.interner();
    let tree = |id| interner.formula(id);
    Artifact {
        sat: solver
            .export_sat_cache()
            .into_iter()
            .map(|(id, verdict)| (tree(id), verdict))
            .collect(),
        qe: solver
            .export_qe_cache()
            .into_iter()
            .map(|(id, result)| (tree(id), result.map(&tree)))
            .collect(),
        theory: solver
            .export_theory_cache()
            .into_iter()
            .map(|(literals, verdict)| {
                let literals = literals
                    .into_iter()
                    .map(|(id, polarity)| (tree(id), polarity))
                    .collect();
                let verdict = match verdict {
                    TheoryVerdict::Consistent => TheoryVerdictData::Consistent,
                    TheoryVerdict::Inconsistent(core) => TheoryVerdictData::Inconsistent(
                        core.map(|c| c.into_iter().map(|(id, p)| (tree(id), p)).collect()),
                    ),
                    TheoryVerdict::Unknown(reason) => TheoryVerdictData::Unknown(reason),
                };
                (literals, verdict)
            })
            .collect(),
        wp: wp_store
            .export_entries()
            .into_iter()
            .map(|(fingerprint, stmt, post, result)| WpArtifactEntry {
                fingerprint: fingerprint.to_vec(),
                stmt,
                post: tree(post),
                result: result.map(&tree),
            })
            .collect(),
        disjointness: disjointness
            .export_entries()
            .into_iter()
            .map(
                |(ga, fa, ba, gb, fb, bb, independent)| DisjointnessArtifactEntry {
                    guard_a: tree(ga),
                    fingerprint_a: fa.to_vec(),
                    body_a: ba,
                    guard_b: tree(gb),
                    fingerprint_b: fb.to_vec(),
                    body_b: bb,
                    independent,
                },
            )
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Seed: artifact → memo tables (trees → ids, through the receiving arena)
// ---------------------------------------------------------------------------

/// Re-interns every artifact entry through `solver`'s arena and seeds the
/// sharded caches, the WP store and the disjointness store. Entries already
/// present (a live run that got there first) are never overwritten. Returns
/// per-table insert counts.
pub fn seed(
    artifact: &Artifact,
    solver: &Solver,
    wp_store: &WpStore,
    disjointness: &DisjointnessStore,
) -> SeedReport {
    let _span = expresso_obs::span!("persist.seed");
    let interner = solver.interner();
    let intern = |f: &Formula| interner.intern(f);
    SeedReport {
        sat: solver.seed_sat_cache(
            artifact
                .sat
                .iter()
                .map(|(key, verdict)| (intern(key), verdict.clone()))
                .collect(),
        ),
        qe: solver.seed_qe_cache(
            artifact
                .qe
                .iter()
                .map(|(key, result)| {
                    (
                        intern(key),
                        result.as_ref().map(&intern).map_err(Clone::clone),
                    )
                })
                .collect(),
        ),
        theory: solver.seed_theory_cache(
            artifact
                .theory
                .iter()
                .map(|(literals, verdict)| {
                    // The DPLL(T) loop sorts + dedups its key by id, and id
                    // order is arena-local — re-sort after re-interning.
                    let mut key: Vec<_> = literals.iter().map(|(f, p)| (intern(f), *p)).collect();
                    key.sort_unstable();
                    key.dedup();
                    let verdict = match verdict {
                        TheoryVerdictData::Consistent => TheoryVerdict::Consistent,
                        TheoryVerdictData::Inconsistent(core) => TheoryVerdict::Inconsistent(
                            core.as_ref()
                                .map(|c| c.iter().map(|(f, p)| (intern(f), *p)).collect()),
                        ),
                        TheoryVerdictData::Unknown(reason) => {
                            TheoryVerdict::Unknown(reason.clone())
                        }
                    };
                    (key, verdict)
                })
                .collect(),
        ),
        wp: wp_store.seed_entries(
            artifact
                .wp
                .iter()
                .map(|entry| -> WpExportEntry {
                    (
                        entry.fingerprint.clone().into(),
                        entry.stmt.clone(),
                        intern(&entry.post),
                        entry.result.as_ref().map(&intern).map_err(Clone::clone),
                    )
                })
                .collect(),
        ),
        disjointness: disjointness.seed_entries(
            artifact
                .disjointness
                .iter()
                .map(|entry| {
                    (
                        intern(&entry.guard_a),
                        entry.fingerprint_a.clone().into(),
                        entry.body_a.clone(),
                        intern(&entry.guard_b),
                        entry.fingerprint_b.clone().into(),
                        entry.body_b.clone(),
                        entry.independent,
                    )
                })
                .collect(),
        ),
    }
}

// ---------------------------------------------------------------------------
// Binary layout
// ---------------------------------------------------------------------------

fn encode_artifact(artifact: &Artifact) -> Vec<u8> {
    // Encode each entry to its own buffer and sort the section bytewise:
    // the memo tables iterate in nondeterministic HashMap order, and a
    // canonical artifact makes repeated saves of the same caches
    // byte-identical (stable checksums, diffable trajectories).
    fn section(entries: Vec<Vec<u8>>, payload: &mut Writer) {
        let mut entries = entries;
        entries.sort_unstable();
        entries.dedup();
        payload.seq(entries.len());
        entries.iter().for_each(|e| payload.raw(e));
    }

    let mut payload = Writer::new();
    section(
        artifact
            .sat
            .iter()
            .map(|(key, verdict)| {
                let mut w = Writer::new();
                write_formula(&mut w, key);
                write_sat_result(&mut w, verdict);
                w.into_bytes()
            })
            .collect(),
        &mut payload,
    );
    section(
        artifact
            .qe
            .iter()
            .map(|(key, result)| {
                let mut w = Writer::new();
                write_formula(&mut w, key);
                match result {
                    Ok(f) => {
                        w.u8(0);
                        write_formula(&mut w, f);
                    }
                    Err(e) => {
                        w.u8(1);
                        write_translate_error(&mut w, e);
                    }
                }
                w.into_bytes()
            })
            .collect(),
        &mut payload,
    );
    section(
        artifact
            .theory
            .iter()
            .map(|(literals, verdict)| {
                let mut w = Writer::new();
                // The in-memory key is sorted by arena-local id, which
                // differs between the arena that computed an entry and one
                // that was seeded with it; canonicalize on the literals'
                // encoded bytes so equal semantic keys serialize equally
                // (re-saving a warm context reproduces the artifact
                // byte-for-byte).
                let mut encoded: Vec<Vec<u8>> = literals
                    .iter()
                    .map(|(f, p)| {
                        let mut lw = Writer::new();
                        write_formula(&mut lw, f);
                        lw.bool(*p);
                        lw.into_bytes()
                    })
                    .collect();
                encoded.sort_unstable();
                w.seq(encoded.len());
                encoded.iter().for_each(|l| w.raw(l));
                match verdict {
                    TheoryVerdictData::Consistent => w.u8(0),
                    TheoryVerdictData::Inconsistent(core) => {
                        w.u8(1);
                        match core {
                            None => w.u8(0),
                            Some(core) => {
                                w.u8(1);
                                w.seq(core.len());
                                for (f, p) in core {
                                    write_formula(&mut w, f);
                                    w.bool(*p);
                                }
                            }
                        }
                    }
                    TheoryVerdictData::Unknown(reason) => {
                        w.u8(2);
                        w.str(reason);
                    }
                }
                w.into_bytes()
            })
            .collect(),
        &mut payload,
    );
    section(
        artifact
            .wp
            .iter()
            .map(|entry| {
                let mut w = Writer::new();
                w.seq(entry.fingerprint.len());
                for (name, ty) in &entry.fingerprint {
                    w.str(name);
                    write_opt_type(&mut w, *ty);
                }
                write_stmt(&mut w, &entry.stmt);
                write_formula(&mut w, &entry.post);
                match &entry.result {
                    Ok(f) => {
                        w.u8(0);
                        write_formula(&mut w, f);
                    }
                    Err(e) => {
                        w.u8(1);
                        write_wp_error(&mut w, e);
                    }
                }
                w.into_bytes()
            })
            .collect(),
        &mut payload,
    );
    section(
        artifact
            .disjointness
            .iter()
            .map(|entry| {
                let mut w = Writer::new();
                write_formula(&mut w, &entry.guard_a);
                w.seq(entry.fingerprint_a.len());
                for (name, ty) in &entry.fingerprint_a {
                    w.str(name);
                    write_opt_type(&mut w, *ty);
                }
                write_stmt(&mut w, &entry.body_a);
                write_formula(&mut w, &entry.guard_b);
                w.seq(entry.fingerprint_b.len());
                for (name, ty) in &entry.fingerprint_b {
                    w.str(name);
                    write_opt_type(&mut w, *ty);
                }
                write_stmt(&mut w, &entry.body_b);
                w.bool(entry.independent);
                w.into_bytes()
            })
            .collect(),
        &mut payload,
    );

    let payload = payload.into_bytes();
    let mut file = Writer::new();
    file.raw(MAGIC);
    file.u32(FORMAT_VERSION);
    file.u64(payload.len() as u64);
    file.raw(&payload);
    file.u64(checksum(&payload));
    file.into_bytes()
}

fn decode_artifact(payload: &[u8]) -> Result<Artifact, DecodeError> {
    let mut r = Reader::new(payload);
    let mut artifact = Artifact::default();
    for _ in 0..r.seq()? {
        let key = read_formula(&mut r)?;
        let verdict = read_sat_result(&mut r)?;
        artifact.sat.push((key, verdict));
    }
    for _ in 0..r.seq()? {
        let key = read_formula(&mut r)?;
        let result = match r.u8()? {
            0 => Ok(read_formula(&mut r)?),
            1 => Err(read_translate_error(&mut r)?),
            other => return codec::err(format!("invalid result tag {other}")),
        };
        artifact.qe.push((key, result));
    }
    for _ in 0..r.seq()? {
        let n = r.seq()?;
        let mut literals = Vec::with_capacity(n);
        for _ in 0..n {
            let f = read_formula(&mut r)?;
            let p = r.bool()?;
            literals.push((f, p));
        }
        let verdict = match r.u8()? {
            0 => TheoryVerdictData::Consistent,
            1 => TheoryVerdictData::Inconsistent(match r.u8()? {
                0 => None,
                1 => {
                    let n = r.seq()?;
                    let mut core = Vec::with_capacity(n);
                    for _ in 0..n {
                        let f = read_formula(&mut r)?;
                        let p = r.bool()?;
                        core.push((f, p));
                    }
                    Some(core)
                }
                other => return codec::err(format!("invalid option tag {other}")),
            }),
            2 => TheoryVerdictData::Unknown(r.str()?),
            other => return codec::err(format!("invalid theory-verdict tag {other}")),
        };
        artifact.theory.push((literals, verdict));
    }
    for _ in 0..r.seq()? {
        let n = r.seq()?;
        let mut fingerprint = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.str()?;
            let ty = read_opt_type(&mut r)?;
            fingerprint.push((name, ty));
        }
        let stmt = read_stmt(&mut r)?;
        let post = read_formula(&mut r)?;
        let result = match r.u8()? {
            0 => Ok(read_formula(&mut r)?),
            1 => Err(read_wp_error(&mut r)?),
            other => return codec::err(format!("invalid result tag {other}")),
        };
        artifact.wp.push(WpArtifactEntry {
            fingerprint,
            stmt,
            post,
            result,
        });
    }
    for _ in 0..r.seq()? {
        let side = |r: &mut Reader| -> Result<_, DecodeError> {
            let guard = read_formula(r)?;
            let n = r.seq()?;
            let mut fingerprint = Vec::with_capacity(n);
            for _ in 0..n {
                let name = r.str()?;
                let ty = read_opt_type(r)?;
                fingerprint.push((name, ty));
            }
            let body = read_stmt(r)?;
            Ok((guard, fingerprint, body))
        };
        let (guard_a, fingerprint_a, body_a) = side(&mut r)?;
        let (guard_b, fingerprint_b, body_b) = side(&mut r)?;
        let independent = r.bool()?;
        artifact.disjointness.push(DisjointnessArtifactEntry {
            guard_a,
            fingerprint_a,
            body_a,
            guard_b,
            fingerprint_b,
            body_b,
            independent,
        });
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

/// Exports the caches of `solver`, `wp_store` and `disjointness` and writes
/// them to `dir`.
pub fn save(
    dir: &Path,
    solver: &Solver,
    wp_store: &WpStore,
    disjointness: &DisjointnessStore,
) -> io::Result<SaveReport> {
    let _span = expresso_obs::span!("persist.save");
    let artifact = export_artifact(solver, wp_store, disjointness);
    let (bytes, path) = save_artifact(dir, &artifact)?;
    expresso_obs::log!(
        expresso_obs::Level::Debug,
        "saved warm-start artifact to {path:?}: {bytes} bytes ({} sat, {} qe, {} theory, {} wp, {} disjointness entries)",
        artifact.sat.len(),
        artifact.qe.len(),
        artifact.theory.len(),
        artifact.wp.len(),
        artifact.disjointness.len()
    );
    Ok(SaveReport {
        sat: artifact.sat.len(),
        qe: artifact.qe.len(),
        theory: artifact.theory.len(),
        wp: artifact.wp.len(),
        disjointness: artifact.disjointness.len(),
        bytes,
        path,
    })
}

/// Loads the artifact from `dir`.
///
/// Magic, format version, payload length and checksum are all verified
/// *before* any tree is decoded; every malformation — including a file that
/// passes the header checks but trips a decoder — comes back as
/// [`LoadResult::Corrupt`] rather than a panic or a silently wrong entry.
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
    let header_len = MAGIC.len() + 4 + 8;
    if bytes.len() < header_len + 8 {
        return LoadResult::Corrupt(format!(
            "artifact {path:?} too short ({} bytes)",
            bytes.len()
        ));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return LoadResult::Corrupt(format!("artifact {path:?} has wrong magic"));
    }
    let mut header = Reader::new(&bytes[MAGIC.len()..header_len]);
    let version = header.u32().expect("header length checked");
    if version != FORMAT_VERSION {
        return LoadResult::Corrupt(format!(
            "artifact {path:?} has format version {version}, expected {FORMAT_VERSION}"
        ));
    }
    let payload_len = header.u64().expect("header length checked") as usize;
    if bytes.len() != header_len + payload_len + 8 {
        return LoadResult::Corrupt(format!(
            "artifact {path:?} length mismatch: header claims {payload_len} payload bytes, file has {}",
            bytes.len() - header_len - 8.min(bytes.len() - header_len)
        ));
    }
    let payload = &bytes[header_len..header_len + payload_len];
    let stored = u64::from_le_bytes(bytes[header_len + payload_len..].try_into().unwrap());
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
    use expresso_logic::{CmpOp, Term};

    fn sample_artifact() -> Artifact {
        let guard = Formula::Cmp(CmpOp::Lt, Term::Var("count".into()), Term::Int(4));
        let nonneg = Formula::Cmp(CmpOp::Ge, Term::Var("count".into()), Term::Int(0));
        Artifact {
            sat: vec![
                (guard.clone(), SatResult::Unsat),
                (nonneg.clone(), SatResult::Sat(None)),
            ],
            qe: vec![(
                Formula::exists(vec!["x".into()], guard.clone()),
                Ok(Formula::True),
            )],
            theory: vec![(
                vec![(guard.clone(), true), (nonneg.clone(), false)],
                TheoryVerdictData::Inconsistent(Some(vec![(nonneg, false)])),
            )],
            wp: vec![WpArtifactEntry {
                fingerprint: vec![("count".into(), Some(Type::Int))],
                stmt: Stmt::Assign(
                    "count".into(),
                    expresso_monitor_lang::parse_expr("count + 1").unwrap(),
                ),
                post: guard.clone(),
                result: Ok(Formula::Cmp(
                    CmpOp::Lt,
                    Term::Var("count".into()),
                    Term::Int(3),
                )),
            }],
            disjointness: vec![DisjointnessArtifactEntry {
                guard_a: guard,
                fingerprint_a: vec![("count".into(), Some(Type::Int))],
                body_a: Stmt::Assign(
                    "count".into(),
                    expresso_monitor_lang::parse_expr("count + 1").unwrap(),
                ),
                guard_b: Formula::True,
                fingerprint_b: vec![("count".into(), Some(Type::Int))],
                body_b: Stmt::Assign(
                    "count".into(),
                    expresso_monitor_lang::parse_expr("count - 1").unwrap(),
                ),
                independent: true,
            }],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let artifact = sample_artifact();
        let bytes = encode_artifact(&artifact);
        let header_len = MAGIC.len() + 4 + 8;
        let payload = &bytes[header_len..bytes.len() - 8];
        let decoded = decode_artifact(payload).unwrap();
        assert_eq!(decoded.len(), artifact.len());
        // Sections are sorted on encode; compare as sets.
        for (key, verdict) in &artifact.sat {
            assert!(decoded.sat.iter().any(|(k, v)| k == key && v == verdict));
        }
        assert_eq!(decoded.wp[0], artifact.wp[0]);
        assert_eq!(decoded.disjointness[0], artifact.disjointness[0]);
    }

    #[test]
    fn encoding_is_deterministic_regardless_of_entry_order() {
        let mut reversed = sample_artifact();
        reversed.sat.reverse();
        assert_eq!(
            encode_artifact(&sample_artifact()),
            encode_artifact(&reversed)
        );
    }

    #[test]
    fn save_load_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("xp-persist-rt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let artifact = sample_artifact();
        let (bytes, path) = save_artifact(&dir, &artifact).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), bytes);
        match load(&dir) {
            LoadResult::Loaded(loaded) => assert_eq!(loaded.len(), artifact.len()),
            other => panic!("expected Loaded, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn absent_artifact_loads_as_absent() {
        let dir = std::env::temp_dir().join(format!("xp-persist-absent-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        assert!(matches!(load(&dir), LoadResult::Absent));
    }

    #[test]
    fn truncated_artifact_is_corrupt_not_a_panic() {
        let dir = std::env::temp_dir().join(format!("xp-persist-trunc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        save_artifact(&dir, &sample_artifact()).unwrap();
        let path = artifact_path(&dir);
        let bytes = fs::read(&path).unwrap();
        for keep in [0, 5, MAGIC.len() + 4 + 8 + 3, bytes.len() - 1] {
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
        let dir = std::env::temp_dir().join(format!("xp-persist-flip-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        save_artifact(&dir, &sample_artifact()).unwrap();
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
        let dir = std::env::temp_dir().join(format!("xp-persist-ver-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        save_artifact(&dir, &sample_artifact()).unwrap();
        let path = artifact_path(&dir);
        let mut bytes = fs::read(&path).unwrap();
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        match load(&dir) {
            LoadResult::Corrupt(msg) => assert!(msg.contains("format version")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seed_round_trips_through_a_fresh_arena() {
        // Fill a solver's caches by solving, export, then seed a *fresh*
        // solver (fresh arena — ids cannot survive) and check the entry
        // counts and a served verdict.
        let cold = Solver::new();
        let store = WpStore::new();
        let disjointness = DisjointnessStore::new();
        let guard = Formula::Cmp(CmpOp::Lt, Term::Var("count".into()), Term::Int(4));
        let contradiction = Formula::And(vec![
            guard.clone(),
            Formula::Cmp(CmpOp::Gt, Term::Var("count".into()), Term::Int(9)),
        ]);
        assert!(cold.check_sat(&contradiction).is_unsat());
        assert!(cold.check_sat(&guard).is_sat());
        let artifact = export_artifact(&cold, &store, &disjointness);
        assert!(!artifact.sat.is_empty());

        let warm = Solver::new();
        let warm_store = WpStore::new();
        let warm_disjointness = DisjointnessStore::new();
        let report = seed(&artifact, &warm, &warm_store, &warm_disjointness);
        assert_eq!(report.sat, artifact.sat.len());
        assert!(warm.check_sat(&contradiction).is_unsat());
        assert!(
            warm.stats().disk_hits > 0,
            "warm query must hit a seeded entry"
        );
        assert_eq!(
            warm.stats().sat_solver_calls,
            0,
            "warm query must not re-solve"
        );
    }
}
