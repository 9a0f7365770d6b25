//! The solver's oracle. A shared solver carries state from one query into
//! the next — the verdict caches and the theory-lemma store — and none of
//! it may change an answer: every verdict of a shared solver must agree with
//! a fresh solver built per query and with brute-force evaluation over a
//! small box, whatever ran before it and whatever runs beside it.
//! 8 scoped threads hammer one solver with heavily overlapping formula
//! batches (overlap is the point — it forces distinct threads onto the same
//! cache entries and the same atoms, so the cache locks, epoch tagging, the
//! atomic counters and the lemma store all see real contention); the lemma
//! store is also filled in two orders on one thread, every lemma it ends up
//! with is held against the box, and a planted wrong lemma shows that the
//! oracle sees the failure it is there for.

use expresso_repro::logic::{Formula, Lcg, Term, Valuation};
use expresso_repro::smt::{SatResult, Solver, SolverConfig, ValidityResult};
use std::sync::Arc;

const THREADS: usize = 8;
/// Distinct formulas in the pool; every thread visits an overlapping window.
const POOL: usize = 48;

fn var(rng: &mut Lcg) -> Term {
    Term::var(["x", "y", "z"][rng.below(3) as usize])
}

fn term(rng: &mut Lcg, depth: usize) -> Term {
    if depth == 0 {
        return match rng.below(2) {
            0 => Term::int(rng.below(9) as i64 - 4),
            _ => var(rng),
        };
    }
    match rng.below(5) {
        0 => term(rng, depth - 1).add(term(rng, depth - 1)),
        1 => term(rng, depth - 1).sub(term(rng, depth - 1)),
        // Keep one factor a small constant so every atom stays linear and
        // Cooper's coefficient-lcm normalisation stays cheap.
        2 => Term::int(rng.below(2) as i64 + 1).mul(var(rng)),
        3 => Term::int(rng.below(9) as i64 - 4),
        _ => var(rng),
    }
}

fn atom(rng: &mut Lcg) -> Formula {
    let lhs = term(rng, 1);
    let rhs = term(rng, 1);
    match rng.below(6) {
        0 => lhs.lt(rhs),
        1 => lhs.le(rhs),
        2 => lhs.gt(rhs),
        3 => lhs.ge(rhs),
        4 => lhs.eq(rhs),
        _ => Formula::divides(2, term(rng, 1)),
    }
}

fn formula(rng: &mut Lcg, depth: usize) -> Formula {
    if depth == 0 {
        return match rng.below(4) {
            0 => Formula::bool_var(["p", "q"][rng.below(2) as usize]),
            _ => atom(rng),
        };
    }
    match rng.below(5) {
        0 => Formula::not(formula(rng, depth - 1)),
        1 => Formula::and(vec![formula(rng, depth - 1), formula(rng, depth - 1)]),
        2 => Formula::or(vec![formula(rng, depth - 1), formula(rng, depth - 1)]),
        3 => Formula::implies(formula(rng, depth - 1), formula(rng, depth - 1)),
        _ => atom(rng),
    }
}

fn pool() -> Vec<Formula> {
    let mut rng = Lcg::new(0x5EED);
    (0..POOL).map(|_| formula(&mut rng, 2)).collect()
}

fn sat_verdict(result: &SatResult) -> &'static str {
    match result {
        SatResult::Sat => "sat",
        SatResult::Unsat => "unsat",
        SatResult::Unknown(_) => "unknown",
    }
}

fn validity_verdict(result: &ValidityResult) -> &'static str {
    match result {
        ValidityResult::Valid => "valid",
        ValidityResult::Invalid => "invalid",
        ValidityResult::Unknown(_) => "unknown",
    }
}

/// Bound of the brute-force box: every int variable ranges over
/// `[-BOX, BOX]`, every bool variable over both values.
const BOX: i64 = 6;

/// A valuation of the pool's variables inside the box satisfying `f`, if any.
/// Independent of the solver: plain evaluation of the formula tree.
fn witness_in_box(f: &Formula) -> Option<Valuation> {
    let range = -BOX..=BOX;
    for x in range.clone() {
        for y in range.clone() {
            for z in range.clone() {
                for bits in 0..4u8 {
                    let mut v = Valuation::new();
                    v.set_int("x", x).set_int("y", y).set_int("z", z);
                    v.set_bool("p", bits & 1 != 0).set_bool("q", bits & 2 != 0);
                    if v.eval(f).expect("pool formulas evaluate") {
                        return Some(v);
                    }
                }
            }
        }
    }
    None
}

/// Evaluates `f` under a solver-produced model. The model only binds the
/// variables that survive normalization; the others are irrelevant to the
/// truth value, so they default to `0` / `false`.
fn holds_under(model: &Valuation, f: &Formula) -> bool {
    let mut v = Valuation::new();
    v.set_int("x", 0).set_int("y", 0).set_int("z", 0);
    v.set_bool("p", false).set_bool("q", false);
    v.extend_with(model);
    v.eval(f).expect("pool formulas evaluate")
}

/// Checks one shared-solver sat answer against a memo-free solver and the
/// brute-force box, and every model either of them finds on request against
/// the formula. `Err` says what disagreed.
fn sat_against_oracles(shared: &Solver, f: &Formula, what: &str) -> Result<(), String> {
    let memoized = shared.check_sat(f);
    let fresh_solver = Solver::new();
    let fresh = fresh_solver.check_sat(f);
    if sat_verdict(&memoized) != sat_verdict(&fresh) {
        return Err(format!(
            "{what}: shared verdict {} diverged from a fresh solver's {}: {f}",
            sat_verdict(&memoized),
            sat_verdict(&fresh)
        ));
    }
    for solver in [shared, &fresh_solver] {
        if let Some(model) = solver.model(f) {
            if !holds_under(&model, f) {
                return Err(format!("{what}: model {model:?} does not satisfy {f}"));
            }
        }
    }
    match memoized {
        SatResult::Sat => Ok(()),
        SatResult::Unsat => match witness_in_box(f) {
            None => Ok(()),
            Some(witness) => Err(format!("{what}: unsat, yet {witness:?} satisfies {f}")),
        },
        SatResult::Unknown(e) => Err(format!(
            "{what}: linear pool formula came back unknown ({e}): {f}"
        )),
    }
}

fn check_sat_against_oracles(shared: &Solver, f: &Formula, what: &str) {
    if let Err(disagreement) = sat_against_oracles(shared, f, what) {
        panic!("{disagreement}");
    }
}

/// Holds every lemma `solver` has learned against the box: the literals of a
/// lemma are jointly unsatisfiable, so no point of the box may satisfy them
/// all. (That a core is *minimal* is pinned where cores are made, in
/// `fm_cores_are_sound_minimal_and_agree_with_the_old_minimiser`.)
fn lemmas_have_no_point_in_the_box(solver: &Solver) -> usize {
    let interner = solver.interner();
    let lemmas = solver.lemmas();
    for lemma in &lemmas {
        let literals = lemma.iter().map(|&(atom, value)| {
            let atom = interner.formula(atom);
            if value {
                atom
            } else {
                Formula::not(atom)
            }
        });
        let conjunction = Formula::and(literals.collect());
        let witness = witness_in_box(&conjunction);
        assert!(
            witness.is_none(),
            "lemma {conjunction} is refuted by {witness:?}"
        );
    }
    lemmas.len()
}

#[test]
fn shared_solver_agrees_with_fresh_solvers_and_brute_force() {
    let formulas = Arc::new(pool());
    // A small model-extraction budget keeps the model checks fast; it only
    // controls whether `model` finds a witness, never a verdict.
    let shared = Solver::with_config(SolverConfig {
        model_search_limit: 64,
        ..SolverConfig::default()
    });

    // Each thread owns an overlapping window of the pool (stride < window) so
    // most queries collide with at least one other thread, plus conjunctions
    // of neighbours so compound entries overlap too.
    let window = POOL / 3;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let formulas = Arc::clone(&formulas);
            let shared = &shared;
            scope.spawn(move || {
                for i in 0..window {
                    let idx = (t * (POOL / THREADS) + i) % POOL;
                    let f = &formulas[idx];
                    let g = &formulas[(idx + 1) % POOL];
                    let _ = shared.check_sat(f);
                    let _ = shared.check_valid(f);
                    let _ = shared.check_sat(&Formula::and(vec![f.clone(), g.clone()]));
                }
            });
        }
    });

    // Every memoized verdict must agree with a solver that has never seen
    // another query, and with plain evaluation over the box: sat models
    // satisfy the formula, unsat formulas have no witness in the box, valid
    // formulas have no counter-example in it.
    for (idx, f) in formulas.iter().enumerate() {
        let g = &formulas[(idx + 1) % POOL];
        check_sat_against_oracles(&shared, f, &format!("formula {idx}"));
        let conj = Formula::and(vec![f.clone(), g.clone()]);
        check_sat_against_oracles(&shared, &conj, &format!("conjunction {idx}"));

        let fresh = Solver::new().check_valid(f);
        assert_eq!(
            validity_verdict(&shared.check_valid(f)),
            validity_verdict(&fresh),
            "validity verdict diverged for formula {idx}: {f}"
        );
        match &fresh {
            ValidityResult::Valid => {
                let counter = witness_in_box(&Formula::not(f.clone()));
                assert!(
                    counter.is_none(),
                    "formula {idx}: valid, yet {counter:?} falsifies {f}"
                );
            }
            ValidityResult::Invalid => {
                if let Some(model) = shared.model(&Formula::not(f.clone())) {
                    assert!(
                        !holds_under(&model, f),
                        "formula {idx}: counter-model {model:?} satisfies {f}"
                    );
                }
            }
            ValidityResult::Unknown(e) => panic!("formula {idx}: unknown validity ({e}): {f}"),
        }
    }

    // No lock was poisoned: the shared solver still answers fresh queries and
    // its counters are coherent.
    assert!(shared.check_sat(&Formula::True).is_sat());
    let stats = shared.stats();
    assert!(
        stats.cache_hits > 0,
        "overlapping batches must hit the cache"
    );
    assert!(stats.cache_misses > 0);
    assert!(stats.cache_hit_rate() > 0.0);
    // Every validity query was re-asked once sequentially above.
    assert_eq!(
        stats.validity_queries,
        THREADS * (POOL / 3) + POOL,
        "validity query count drifted under contention"
    );
    // What the eight threads filed while racing each other is sound.
    assert!(lemmas_have_no_point_in_the_box(&shared) > 0);
}

/// The queries of the lemma tests: every pool formula, its negation, and its
/// conjunction with each of the next two — streams whose members share most
/// of their atoms, as the queries of one monitor do.
///
/// No two normalize to the same query, so on one solver none is answered by
/// the verdict cache: whatever a shared solver saves over fresh ones, it
/// saves through its lemmas.
fn stream() -> Vec<Formula> {
    let formulas = pool();
    let interner = Solver::new().interner().clone();
    let mut seen = std::collections::HashSet::new();
    let mut stream = Vec::new();
    let mut push = |f: Formula| {
        if seen.insert(interner.simplify(interner.intern(&f))) {
            stream.push(f);
        }
    };
    for (idx, f) in formulas.iter().enumerate() {
        push(f.clone());
        push(Formula::not(f.clone()));
        for step in [1, 2] {
            let g = &formulas[(idx + step) % POOL];
            push(Formula::and(vec![f.clone(), g.clone()]));
        }
    }
    stream
}

#[test]
fn lemmas_learned_from_other_queries_change_no_verdict() {
    // One solver per order: a query meets the lemmas of everything before it
    // in the stream in one, of everything after it in the other, so between
    // them every query runs over a store filled by all the others.
    let stream = stream();
    let forward: Vec<&Formula> = stream.iter().collect();
    let backward: Vec<&Formula> = stream.iter().rev().collect();
    let mut fresh_rounds = 0;
    for f in &stream {
        let fresh = Solver::new();
        let _ = fresh.check_sat(f);
        fresh_rounds += fresh.stats().sat_solver_calls;
    }
    for (order, queries) in [("forward", forward), ("backward", backward)] {
        let shared = Solver::with_config(SolverConfig {
            model_search_limit: 64,
            ..SolverConfig::default()
        });
        for (i, f) in queries.iter().enumerate() {
            check_sat_against_oracles(&shared, f, &format!("{order} query {i}"));
        }
        assert!(lemmas_have_no_point_in_the_box(&shared) > 0);
        // All of this would pass over a store nothing reads. The same order
        // without the oracle (whose model requests solve again): the lemmas
        // must have saved rounds.
        let plain = Solver::new();
        for f in queries {
            let _ = plain.check_sat(f);
        }
        assert_eq!(plain.stats().cache_hits, 0);
        let rounds = plain.stats().sat_solver_calls;
        assert!(
            rounds < fresh_rounds,
            "{order}: {rounds} DPLL rounds on one solver, {fresh_rounds} on fresh ones"
        );
    }
}

#[test]
fn a_wrong_lemma_is_caught_by_the_oracle() {
    // Sabotage self-test: `x > 0` and `y > 0` are satisfiable together, so a
    // "lemma" over the two is the bug class the oracle exists for — a solver
    // holding it answers `Unsat` for a satisfiable query — and the oracle
    // must say so, by both of its comparisons.
    let (a, b) = (
        Term::var("x").gt(Term::int(0)),
        Term::var("y").gt(Term::int(0)),
    );
    let query = Formula::and(vec![a.clone(), b.clone()]);
    let honest = Solver::new();
    assert_eq!(sat_against_oracles(&honest, &query, "honest"), Ok(()));

    let sabotaged = Solver::new();
    let interner = sabotaged.interner().clone();
    let atom = |f: &Formula| (interner.nnf(interner.simplify(interner.intern(f))), true);
    sabotaged.plant_lemma(vec![atom(&a), atom(&b)]);
    assert_eq!(sabotaged.check_sat(&query), SatResult::Unsat);
    let caught = sat_against_oracles(&sabotaged, &query, "sabotaged").unwrap_err();
    assert!(caught.contains("diverged from a fresh solver"), "{caught}");
    // With the fresh-solver comparison out of the way (a bug in how cores
    // are made would fool a fresh solver too), the box still sees it.
    assert!(witness_in_box(&query).is_some());
    let planted = std::panic::catch_unwind(|| lemmas_have_no_point_in_the_box(&sabotaged));
    assert!(planted.is_err(), "the planted lemma has a point in the box");
}

/// Every thread `t` asks `solver` about `query(i, t)` for each `i` in
/// `0..POOL`, all threads meeting at a barrier before each `i`; each verdict
/// must be the one a fresh solver gives.
fn race_against_fresh_solvers(solver: &Solver, query: impl Fn(usize, usize) -> Formula + Sync) {
    let barrier = std::sync::Barrier::new(THREADS);
    let verdicts: Vec<Vec<&'static str>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (barrier, query) = (&barrier, &query);
                scope.spawn(move || {
                    (0..POOL)
                        .map(|i| {
                            barrier.wait();
                            sat_verdict(&solver.check_sat(&query(i, t)))
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (t, verdicts) in verdicts.iter().enumerate() {
        for (i, verdict) in verdicts.iter().enumerate() {
            let f = query(i, t);
            assert_eq!(
                *verdict,
                sat_verdict(&Solver::new().check_sat(&f)),
                "thread {t}, query {i}: raced verdict diverged from a fresh solver: {f}"
            );
        }
    }
}

#[test]
fn racing_queries_over_shared_atoms_agree_with_fresh_solvers() {
    // Unlike `racing_cold_keys_agree_and_count_every_lookup` below, the
    // threads ask *different* queries at each barrier over the same atoms:
    // thread `t` conjoins formula `i` with formula `i + t + 1`. Each files
    // lemmas the others are reading at that moment.
    let formulas = pool();
    let solver = Solver::with_config(SolverConfig {
        model_search_limit: 64,
        ..SolverConfig::default()
    });
    race_against_fresh_solvers(&solver, |i, t| {
        Formula::and(vec![
            formulas[i].clone(),
            formulas[(i + t + 1) % POOL].clone(),
        ])
    });
    assert!(lemmas_have_no_point_in_the_box(&solver) > 0);
}

#[test]
fn racing_cold_keys_agree_and_count_every_lookup() {
    // Every thread issues the same query sequence, synchronised per key with
    // a barrier so cold keys are raced as hard as the harness can manage.
    // Racing threads may each solve a cold key, but every verdict must be a
    // fresh solver's, every distinct normalized query is solved at least
    // once, and every non-constant query counts as exactly one hit or miss.
    let formulas = pool();
    let solver = Solver::with_config(SolverConfig {
        model_search_limit: 64,
        ..SolverConfig::default()
    });
    let interner = solver.interner().clone();
    let mut distinct = std::collections::HashSet::new();
    let mut constants = 0usize;
    for f in &formulas {
        let norm = interner.simplify(interner.intern(f));
        if interner.is_true(norm) || interner.is_false(norm) {
            // Constant queries are answered before the cache is consulted.
            constants += 1;
        } else {
            distinct.insert(norm);
        }
    }
    race_against_fresh_solvers(&solver, |i, _| formulas[i].clone());
    let stats = solver.stats();
    assert!(
        stats.cache_misses >= distinct.len(),
        "every distinct cold key is solved at least once"
    );
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        THREADS * (POOL - constants),
        "every non-constant query is one hit or one miss"
    );
}

#[test]
fn epoch_accounting_survives_contention() {
    let formulas = pool();
    let solver = Solver::with_config(SolverConfig {
        model_search_limit: 64,
        ..SolverConfig::default()
    });
    solver.begin_analysis_epoch();
    std::thread::scope(|scope| {
        for t in 0..4 {
            let solver = &solver;
            let formulas = &formulas;
            scope.spawn(move || {
                for f in formulas.iter().skip(t).step_by(4) {
                    let _ = solver.check_sat(f);
                }
            });
        }
    });
    // Same epoch: nothing crossed an epoch boundary yet.
    assert_eq!(solver.stats().cross_analysis_hits, 0);

    solver.begin_analysis_epoch();
    std::thread::scope(|scope| {
        for t in 0..4 {
            let solver = &solver;
            let formulas = &formulas;
            scope.spawn(move || {
                for f in formulas.iter().skip(t).step_by(4) {
                    let _ = solver.check_sat(f);
                }
            });
        }
    });
    let stats = solver.stats();
    assert!(
        stats.cross_analysis_hits > 0,
        "second epoch must reuse the first epoch's entries"
    );
    assert!(stats.cross_analysis_hit_rate() > 0.0);
    assert!(stats.cross_analysis_hits <= stats.cache_hits + stats.qe_cache_hits);
}

#[test]
fn overflowing_elimination_never_proves_unsat() {
    // x <= 6e18*z && 2*x >= 6e18*z + 6e18 && z <= 1 holds at x = 6e18,
    // z = 1. Eliminating x multiplies 6e18 by 2; a clamped product turns the
    // implied z >= 1 into z >= 1.86 and "refutes" the formula against
    // z <= 1. A proof of unsatisfiability is the one wrong answer the solver
    // may never give; Sat and Unknown are both acceptable here.
    const BIG: i64 = 6_000_000_000_000_000_000;
    let big_z = || Term::int(BIG).mul(Term::var("z"));
    let f = Formula::and(vec![
        Term::var("x").le(big_z()),
        Term::int(2)
            .mul(Term::var("x"))
            .ge(big_z().add(Term::int(BIG))),
        Term::var("z").le(Term::int(1)),
    ]);
    let mut witness = Valuation::new();
    witness.set_int("x", BIG).set_int("z", 1);
    assert_eq!(witness.eval(&f), Ok(true), "the witness is a model");
    let result = Solver::new().check_sat(&f);
    assert_ne!(sat_verdict(&result), "unsat", "false proof for {f}");
    assert!(!Solver::new().check_valid(&Formula::not(f)).is_valid());

    // The same shape with coprime coefficients, so no common factor can be
    // divided out before the product 3 * 3.1e18 is formed: the elimination
    // itself must notice the overflow. Holds at x = 3e18, z = 1, where
    // every term of the formula still fits.
    const COPRIME: i64 = 3_100_000_000_000_000_000;
    let g = Formula::and(vec![
        Term::var("x").le(Term::int(COPRIME).mul(Term::var("z"))),
        Term::int(3).mul(Term::var("x")).ge(Term::int(COPRIME + 1)
            .mul(Term::var("z"))
            .add(Term::int(COPRIME + 1))),
        Term::var("z").le(Term::int(1)),
    ]);
    witness.set_int("x", 3_000_000_000_000_000_000);
    assert_eq!(witness.eval(&g), Ok(true), "the witness is a model");
    let result = Solver::new().check_sat(&g);
    assert_ne!(sat_verdict(&result), "unsat", "false proof for {g}");

    // An atom whose own translation overflows: 5e18*x + 5e18*x >= y + z
    // holds at x = 1, y = z = 5e18, but its coefficient 1e19 does not fit
    // and reaches the elimination negated (`>=` flips the row), i.e. off
    // the i64 limit. The clamped row would "refute" it against the bounds.
    const HALF: i64 = 5_000_000_000_000_000_000;
    let half_x = || Term::int(HALF).mul(Term::var("x"));
    let h = Formula::and(vec![
        half_x()
            .add(half_x())
            .ge(Term::var("y").add(Term::var("z"))),
        Term::var("y").ge(Term::int(HALF)),
        Term::var("z").ge(Term::int(HALF)),
        Term::var("x").le(Term::int(1)),
    ]);
    let result = Solver::new().check_sat(&h);
    assert_ne!(sat_verdict(&result), "unsat", "false proof for {h}");

    // One variable with small coefficients, so Fourier–Motzkin gives up on
    // its first product and Cooper's procedure — whose instance loop is short
    // here — gets to decide: 2x >= 6e18 && 3x <= 9.1e18 holds at x = 3e18.
    // Cooper scales both atoms to 6x; it used to trust the clamped 3 * 6e18
    // and answer `Unsat`, and `Valid` for the negation. A clamped
    // coefficient yields `Unknown`, never a verdict.
    let k = Formula::and(vec![
        Term::int(2)
            .mul(Term::var("x"))
            .ge(Term::int(6_000_000_000_000_000_000)),
        Term::int(3)
            .mul(Term::var("x"))
            .le(Term::int(9_100_000_000_000_000_000)),
    ]);
    witness.set_int("x", 3_000_000_000_000_000_000);
    assert_eq!(witness.eval(&k), Ok(true), "the witness is a model");
    let quantified = Formula::exists(vec!["x".into()], k.clone());
    for query in [&k, &quantified] {
        let result = Solver::new().check_sat(query);
        assert_eq!(sat_verdict(&result), "unknown", "{query}: {result:?}");
    }
    let negation = Solver::new().check_valid(&Formula::not(k));
    assert_eq!(validity_verdict(&negation), "unknown", "{negation:?}");
}

#[test]
fn a_wrapped_witness_never_proves_sat() {
    // x == 4e18 && 3*x == -6446744073709551616 has no integer model:
    // 3 * 4e18 is 1.2e19, which only its 64-bit wraparound equals.
    // Fourier–Motzkin overflows and concludes nothing, so the witness search
    // meets x = 4e18 on its grid, a point 64-bit wrapping arithmetic would
    // take for a model. `Unsat` and `Unknown` are both acceptable.
    const X: i64 = 4_000_000_000_000_000_000;
    const WRAPPED: i64 = -6_446_744_073_709_551_616;
    assert_eq!(X.wrapping_mul(3), WRAPPED);
    let f = Formula::and(vec![
        Term::var("x").eq(Term::int(X)),
        Term::int(3).mul(Term::var("x")).eq(Term::int(WRAPPED)),
    ]);
    let closed = Formula::exists(vec!["x".into()], f.clone());
    for query in [&f, &closed] {
        let result = Solver::new().check_sat(query);
        assert_ne!(sat_verdict(&result), "sat", "false model for {query}");
        let negation = Solver::new().check_valid(&Formula::not(query.clone()));
        assert_ne!(
            validity_verdict(&negation),
            "invalid",
            "false counter-model for {query}"
        );
        assert_eq!(Solver::new().model(query), None, "{query}");
    }
}

#[test]
fn a_huge_coefficient_answers_unknown_in_time() {
    // The instance loop of Cooper's procedure runs divisor-lcm times, and a
    // coefficient of 6e18 is its own lcm: 6e18 rounds, unless the instance
    // budget stops it first and the solver answers `Unknown`, the
    // conservative answer.
    const BIG: i64 = 6_000_000_000_000_000_000;
    let big_z = || Term::int(BIG).mul(Term::var("z"));
    let f = Formula::and(vec![big_z().ge(Term::int(1)), big_z().le(Term::int(5))]);
    let closed = Formula::exists(vec!["z".into()], f.clone());
    for query in [&f, &closed] {
        let started = std::time::Instant::now();
        let result = Solver::new().check_sat(query);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(1),
            "{query} took {:?}",
            started.elapsed()
        );
        assert_eq!(sat_verdict(&result), "unknown", "{query}: {result:?}");
    }
}

#[test]
fn the_cooper_fallback_answers_the_same_on_every_solver() {
    // `700 | y && 2x == y + 1 && 0 < y && y < 2` is rationally feasible
    // (y = 1, x = 1) and has no point on the witness grid, so the theory
    // check falls back to Cooper's procedure over x and y. Eliminating x
    // first decides it; eliminating y first asks for 700 × 3 instances and
    // then some, past the budget. The order used to be a hash set's, which
    // differs from one set to the next: 40 fresh solvers in one process
    // answered `Unsat` 24 times and `Unknown` 16 times.
    let y = || Term::var("y");
    let f = Formula::and(vec![
        Formula::divides(700, y()),
        Term::int(2).mul(Term::var("x")).eq(y().add(Term::int(1))),
        Term::int(0).lt(y()),
        y().lt(Term::int(2)),
    ]);
    let verdicts: std::collections::BTreeSet<&str> = (0..40)
        .map(|_| sat_verdict(&Solver::new().check_sat(&f)))
        .collect();
    assert_eq!(verdicts, ["unsat"].into(), "{f}");
}
