//! Robustness of the persistent warm-start cache: corrupt artifacts must
//! degrade to a cold start (never a panic, never a wrong verdict), and
//! concurrent writers sharing one cache directory must never produce a torn
//! artifact.

use expresso_repro::core::{AnalysisOutcome, Expresso, ExpressoConfig, SharedAnalysisContext};
use expresso_repro::logic::Lcg;
use expresso_repro::persist::{self, LoadResult, OutcomeKey};
use expresso_repro::smt::SolverStats;
use expresso_repro::suite::corpusgen::{generate, CorpusSpec};
use std::path::{Path, PathBuf};
use std::process::Command;

/// A unique scratch cache directory, cleared per call.
fn scratch_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xp-persist-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn persistent_config(dir: &Path) -> ExpressoConfig {
    ExpressoConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..ExpressoConfig::default()
    }
}

/// Analyses a small corpus against `dir` and saves the artifact.
fn populate(dir: &Path, size: usize, seed: u64) {
    populate_with(persistent_config(dir), size, seed);
}

/// [`populate`] under an explicit configuration (which names the directory).
fn populate_with(config: ExpressoConfig, size: usize, seed: u64) {
    let corpus = generate(&CorpusSpec { size, seed });
    let monitors: Vec<_> = corpus.iter().map(|v| v.monitor()).collect();
    let context = SharedAnalysisContext::new(&config);
    for outcome in Expresso::with_config(config.clone()).analyze_suite(&context, &monitors) {
        outcome.expect("corpus analysis succeeds");
    }
    context
        .persist()
        .expect("saving the artifact")
        .expect("cache directory configured");
}

#[test]
fn mangled_artifacts_cold_start_instead_of_panicking() {
    let dir = scratch_cache_dir("mangle");
    populate(&dir, 4, 17);
    let path = persist::artifact_path(&dir);
    let pristine = std::fs::read(&path).unwrap();
    let config = persistent_config(&dir);
    let corpus = generate(&CorpusSpec { size: 4, seed: 17 });
    let monitor = corpus[0].monitor();

    // Sanity: the pristine artifact warm-starts.
    assert!(SharedAnalysisContext::new(&config).warm_start().is_some());

    let mangles: Vec<(&str, Vec<u8>)> = vec![
        ("truncated to 10 bytes", pristine[..10].to_vec()),
        (
            "truncated mid-payload",
            pristine[..pristine.len() / 2].to_vec(),
        ),
        ("bit-flipped payload", {
            let mut b = pristine.clone();
            let mid = b.len() / 2;
            b[mid] ^= 0x40;
            b
        }),
        ("wrong magic", {
            let mut b = pristine.clone();
            b[0] = b'Y';
            b
        }),
        ("future format version", {
            let mut b = pristine.clone();
            b[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
            b
        }),
        // The format before this one (a theory section, models in the sat
        // section): refused by its number, never decoded as v5.
        ("previous format version", {
            let mut b = pristine.clone();
            b[8..12].copy_from_slice(&(persist::FORMAT_VERSION - 1).to_le_bytes());
            b
        }),
        ("empty file", Vec::new()),
        ("garbage", b"not an artifact at all".to_vec()),
    ];
    for (label, bytes) in mangles {
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            matches!(persist::load(&dir), LoadResult::Corrupt(_)),
            "{label}: load must report corruption"
        );
        // The pipeline itself must shrug: cold start, correct analysis.
        let context = SharedAnalysisContext::new(&config);
        assert!(
            context.warm_start().is_none(),
            "{label}: a corrupt artifact must not seed anything"
        );
        Expresso::with_config(config.clone())
            .analyze_with_context(&context, &monitor)
            .unwrap_or_else(|e| panic!("{label}: analysis after corruption failed: {e}"));
    }

    // Recovery: persisting over the corrupt file heals the cache.
    populate(&dir, 4, 17);
    assert!(SharedAnalysisContext::new(&config).warm_start().is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Frames `payload` as an artifact file of the current format: magic,
/// version, length, payload and a *correct* checksum — so what a mangled
/// payload meets is the decoder, not the checksum.
fn stamp(pristine: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut file = pristine[..12].to_vec();
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(payload);
    file.extend_from_slice(&persist::checksum(payload).to_le_bytes());
    file
}

#[test]
fn mutated_payloads_with_valid_checksums_load_or_cold_start_but_never_abort() {
    // The checksum guards against bit rot, not against a payload that was
    // damaged (or crafted) before it was stamped. Seeded mutation fuzz over a
    // real artifact — leaf tables and outcome records — every mutant
    // re-stamped: the loader must answer `Corrupt` or `Loaded` — no panic,
    // no stack overflow, no runaway allocation — and whatever it does hand
    // out must seed a fresh context without panicking (every row reference
    // was checked on the way in) and carry the corpus through
    // `analyze_suite`: a record the mutation reached is replayed if it still
    // fits its monitor and is a miss if it does not. What comes out may be
    // wrong — a mutant that lands inside a well-formed record or verdict is
    // a forged file, and forgery is the checksum's to catch, not the
    // decoder's — but it comes out.
    const MUTANTS: usize = 2_000;
    let dir = scratch_cache_dir("fuzz");
    populate(&dir, 8, 29);
    let config = persistent_config(&dir);
    let monitors: Vec<_> = generate(&CorpusSpec { size: 8, seed: 29 })
        .iter()
        .map(|v| v.monitor())
        .collect();
    let path = persist::artifact_path(&dir);
    let pristine = std::fs::read(&path).unwrap();
    let payload = &pristine[20..pristine.len() - 8];
    assert_eq!(
        stamp(&pristine, payload),
        pristine,
        "stamp() drifted from the format"
    );

    let mut rng = Lcg::new(0x5eed_f00d);
    let (mut loaded, mut corrupt) = (0usize, 0usize);
    for mutant in 0..MUTANTS {
        let mut bytes = payload.to_vec();
        match rng.below(6) {
            // One flipped bit.
            0 => {
                let at = rng.index(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
            // One byte replaced.
            1 => {
                let at = rng.index(bytes.len());
                bytes[at] = rng.below(256) as u8;
            }
            // A 32-bit field replaced by a small number: a plausible tag,
            // length or row reference rather than an absurd one.
            2 => {
                let at = rng.index(bytes.len() - 4);
                let value = rng.below(4096) as u32;
                bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
            }
            // Several bytes replaced at once.
            3 => {
                for _ in 0..2 + rng.below(7) {
                    let at = rng.index(bytes.len());
                    bytes[at] = rng.below(256) as u8;
                }
            }
            // The tail cut off (the stamped length agrees with the cut).
            4 => bytes.truncate(rng.index(bytes.len())),
            // A run of one repeated byte: nesting and length bombs.
            _ => {
                let at = rng.index(bytes.len());
                let run = (1 + rng.index(4096)).min(bytes.len() - at);
                let fill = rng.below(12) as u8;
                bytes[at..at + run].fill(fill);
            }
        }
        std::fs::write(&path, stamp(&pristine, &bytes)).unwrap();
        match persist::load(&dir) {
            LoadResult::Corrupt(_) => corrupt += 1,
            LoadResult::Loaded(artifact) => {
                loaded += 1;
                let fresh = SharedAnalysisContext::new(&ExpressoConfig::default());
                let seeded = persist::seed(
                    &artifact,
                    fresh.solver(),
                    fresh.wp_store(),
                    fresh.disjointness(),
                );
                assert!(seeded.total() <= artifact.len(), "mutant {mutant}");
                let context = SharedAnalysisContext::new(&config);
                for outcome in
                    Expresso::with_config(config.clone()).analyze_suite(&context, &monitors)
                {
                    outcome.unwrap_or_else(|e| panic!("mutant {mutant}: {e}"));
                }
            }
            LoadResult::Absent => panic!("mutant {mutant}: the file was just written"),
        }
    }
    // The fuzz is only worth its name if it reaches both answers.
    assert!(loaded > MUTANTS / 20, "only {loaded} mutants loaded");
    assert!(
        corrupt > MUTANTS / 20,
        "only {corrupt} mutants were refused"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sequential_cold_runs_write_identical_artifacts() {
    // With one analysis thread nothing about a cold run is left to the
    // scheduler, so two of them over the same corpus must agree on every
    // byte: `HashMap` iteration order and arena ids differ between the
    // runs' tables and neither may reach the file.
    let write = |tag: &str| {
        let dir = scratch_cache_dir(tag);
        let config = ExpressoConfig {
            analysis_threads: 1,
            ..persistent_config(&dir)
        };
        populate_with(config, 16, 41);
        let bytes = std::fs::read(persist::artifact_path(&dir)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    };
    let (first, second) = (write("canon-a"), write("canon-b"));
    assert!(
        first == second,
        "two sequential cold runs wrote different artifacts"
    );
}

#[test]
fn absent_directory_is_a_plain_cold_start() {
    let dir = scratch_cache_dir("absent");
    let config = persistent_config(&dir);
    let context = SharedAnalysisContext::new(&config);
    assert!(context.warm_start().is_none());
    // persist() creates the directory on demand.
    let saved = context.persist().unwrap().unwrap();
    assert!(saved.path.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn contexts_without_a_cache_dir_neither_load_nor_save() {
    let context = SharedAnalysisContext::new(&ExpressoConfig::default());
    assert!(context.cache_dir().is_none());
    assert!(context.warm_start().is_none());
    assert!(context.persist().unwrap().is_none());
}

/// Child-process entry point for the two-process smoke test: when the env
/// var names a cache directory, analyse a small corpus and persist into it.
/// Without the env var (the normal test run) this is a no-op.
#[test]
fn two_process_writer_helper() {
    let Some(dir) = std::env::var_os("EXPRESSO_TEST_WRITER_DIR") else {
        return;
    };
    populate(Path::new(&dir), 3, 23);
}

#[test]
fn concurrent_writers_never_tear_the_artifact() {
    // Two real processes race persist() into one cache directory. The
    // temp-file-plus-rename protocol guarantees every observable artifact is
    // a complete one (last writer wins) — so after both exit, the file must
    // load cleanly and warm-start a fresh context.
    let dir = scratch_cache_dir("race");
    std::fs::create_dir_all(&dir).unwrap();
    let exe = std::env::current_exe().unwrap();
    let spawn = || {
        Command::new(&exe)
            .args(["two_process_writer_helper", "--exact", "--nocapture"])
            .env("EXPRESSO_TEST_WRITER_DIR", &dir)
            .spawn()
            .expect("spawning writer process")
    };
    let mut a = spawn();
    let mut b = spawn();
    assert!(a.wait().unwrap().success(), "first writer failed");
    assert!(b.wait().unwrap().success(), "second writer failed");
    match persist::load(&dir) {
        LoadResult::Loaded(artifact) => assert!(!artifact.is_empty()),
        other => panic!("artifact after concurrent writes must load, got {other:?}"),
    }
    assert!(
        SharedAnalysisContext::new(&persistent_config(&dir))
            .warm_start()
            .is_some(),
        "the surviving artifact must warm-start"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `(outcome_hits, outcome_misses, seed_forced)` of the `core.outcomes`
/// metric group.
fn outcome_counters(context: &SharedAnalysisContext) -> (u64, u64, u64) {
    let snapshot = context.metrics_registry().snapshot();
    let read = |name| snapshot.counter("core.outcomes", name).unwrap();
    (
        read("outcome_hits"),
        read("outcome_misses"),
        read("seed_forced"),
    )
}

fn assert_same_outcome(label: &str, a: &AnalysisOutcome, b: &AnalysisOutcome) {
    assert_eq!(a.explicit, b.explicit, "{label}: explicit");
    assert_eq!(a.invariant, b.invariant, "{label}: invariant");
    assert_eq!(a.report.decisions, b.report.decisions, "{label}: decisions");
    assert_eq!(
        a.report.triples_checked, b.report.triples_checked,
        "{label}: triples_checked"
    );
}

#[test]
fn forged_outcome_records_are_misses_never_replays() {
    // Three files with a correct checksum and a well-formed outcome section
    // in which one record is not what its place says. The key found under
    // the right hash spells some other monitor: the lookup compares the
    // bytes, so a hash collision — here a planted one — is a miss. The
    // record names a CCR, or a guard, the monitor in hand does not have:
    // replay checks both before it builds anything, so that is a miss too.
    // Each miss is a fresh analysis equal to the cold one; the pristine file
    // replays.
    let dir = scratch_cache_dir("forge");
    populate(&dir, 4, 17);
    let config = persistent_config(&dir);
    let monitor = generate(&CorpusSpec { size: 4, seed: 17 })[2].monitor();
    let cold = Expresso::new().analyze(&monitor).unwrap();
    let analyze = |label: &str| {
        let context = SharedAnalysisContext::new(&config);
        assert!(context.warm_start().is_some(), "{label}: must load");
        let outcome = Expresso::with_config(config.clone())
            .analyze_with_context(&context, &monitor)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_same_outcome(label, &cold, &outcome);
        outcome_counters(&context)
    };
    assert_eq!(analyze("pristine"), (1, 0, 0));

    let path = persist::artifact_path(&dir);
    let pristine = std::fs::read(&path).unwrap();
    let payload = &pristine[20..pristine.len() - 8];
    // A record is: hash, key length, key bytes, invariant row (u32), three
    // counters (u64), decision count (u32), then per decision CCR index
    // (u32), guard index (u32), flags (u8).
    let key = OutcomeKey::of(&monitor, true, true);
    let key_at = payload
        .windows(key.bytes().len())
        .position(|window| window == key.bytes())
        .expect("the monitor's key is in the artifact");
    let key_end = key_at + key.bytes().len();
    let first_decision = key_end + 4 + 3 * 8 + 4;
    let patches: [(&str, usize, &[u8]); 3] = [
        ("key bytes", key_end - 1, &[payload[key_end - 1] ^ 1]),
        ("ccr index", first_decision, &1000u32.to_le_bytes()),
        ("guard index", first_decision + 4, &1000u32.to_le_bytes()),
    ];
    for (label, at, bytes) in patches {
        let mut forged = payload.to_vec();
        forged[at..at + bytes.len()].copy_from_slice(bytes);
        std::fs::write(&path, stamp(&pristine, &forged)).unwrap();
        assert_eq!(analyze(label), (0, 1, 1), "{label}: must be a miss");
    }
    // A monitor analysed over a record that would not replay answers for
    // itself from then on: what that context writes back holds its record in
    // the forged one's place, not beside it.
    let context = SharedAnalysisContext::new(&config);
    Expresso::with_config(config.clone())
        .analyze_with_context(&context, &monitor)
        .unwrap();
    let saved = context.persist().unwrap().expect("a cache directory");
    assert_eq!(saved.outcomes, 4);
    assert_eq!(analyze("written back"), (1, 0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Child-process entry point of the test below: `Expresso::analyze` with no
/// configured cache directory, under whatever `EXPRESSO_CACHE_DIR` says.
#[test]
fn analyze_under_env_helper() {
    if std::env::var_os("EXPRESSO_TEST_ANALYZE_UNDER_ENV").is_none() {
        return;
    }
    let corpus = generate(&CorpusSpec { size: 3, seed: 23 });
    let known = Expresso::new().analyze(&corpus[1].monitor()).unwrap();
    assert_eq!(
        known.stats.solver,
        SolverStats::default(),
        "a monitor the artifact knows must be replayed"
    );
    assert_eq!(
        known.stats.interner.formula_nodes, 2,
        "a replay seeds nothing"
    );
    assert!(known.explicit.notification_count() > 0);
    let unknown = generate(&CorpusSpec { size: 1, seed: 99 })[0].monitor();
    let analysed = Expresso::new().analyze(&unknown).unwrap();
    assert!(analysed.stats.solver.sat_queries > 0);
}

#[test]
fn analyze_under_the_cache_dir_variable_replays_a_known_monitor() {
    // `Expresso::analyze` builds a private context per call; with
    // `EXPRESSO_CACHE_DIR` naming a saved corpus each call used to pay a full
    // load and seed for a few milliseconds of analysis. The variable is
    // process-wide, so the calls are made in a child process.
    let dir = scratch_cache_dir("env");
    populate(&dir, 3, 23);
    let status = Command::new(std::env::current_exe().unwrap())
        .args(["analyze_under_env_helper", "--exact", "--nocapture"])
        .env("EXPRESSO_CACHE_DIR", &dir)
        .env("EXPRESSO_TEST_ANALYZE_UNDER_ENV", "1")
        .status()
        .expect("spawning the child process");
    assert!(status.success(), "the child's assertions failed");
    let _ = std::fs::remove_dir_all(&dir);
}

/// [`persist::FORMAT_VERSION`] and a digest of what the analysis answers —
/// everything an outcome record holds — for the Table 1 suite and a small
/// generated corpus.
///
/// v4 → v5 moved the version and **not** the digest, and that is the point:
/// v5 is a layout change (no theory section, no models in the sat section),
/// made with a solver that learns theory lemmas across queries and a
/// pipeline that analyses a single monitor inline — neither of which may
/// change one answer. The digest standing still under both is the pin.
const ANSWERS_PINNED: (u32, u64) = (5, 0x4dad_8620_fe9c_0537);

#[test]
fn changed_answers_need_a_format_version_bump() {
    // A record is replayed with nothing re-derived, and its key covers the
    // monitor and the configuration, not the analysis: after a change to a
    // placement rule or to the abduction search, records written by the
    // build before it keep answering for every unchanged monitor unless the
    // format version moved. Nothing but this test notices.
    use std::fmt::Write;
    let monitors: Vec<_> = expresso_repro::suite::benchmarks::all()
        .iter()
        .map(|benchmark| benchmark.monitor())
        .chain(
            generate(&CorpusSpec { size: 8, seed: 29 })
                .iter()
                .map(|variant| variant.monitor()),
        )
        .collect();
    let config = ExpressoConfig::default();
    let context = SharedAnalysisContext::new(&config);
    let mut answers = String::new();
    for (monitor, outcome) in monitors
        .iter()
        .zip(Expresso::with_config(config.clone()).analyze_suite(&context, &monitors))
    {
        let outcome = outcome.unwrap_or_else(|e| panic!("{}: {e}", monitor.name));
        writeln!(
            answers,
            "{}: {:?} {} {} {} {:?}",
            monitor.name,
            outcome.invariant,
            outcome.stats.invariant_candidates,
            outcome.stats.invariant_conjuncts,
            outcome.report.triples_checked,
            outcome.report.decisions
        )
        .unwrap();
    }
    let current = (
        persist::FORMAT_VERSION,
        persist::checksum(answers.as_bytes()),
    );
    assert_eq!(
        current, ANSWERS_PINNED,
        "(format version, digest of the analysis' answers) moved. If the digest did, the \
         analysis now answers differently for a monitor that did not change, and artifacts \
         written before would replay the old answer: bump `persist::FORMAT_VERSION` first, \
         then pin the new pair in `ANSWERS_PINNED`. If only the version did, pin it."
    );
}
