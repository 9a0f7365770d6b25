//! Concurrency stress for the sharded solver caches: 8 scoped threads hammer
//! one shared solver with heavily overlapping formula batches, and every
//! verdict must agree with a fresh memo-free solver built per query and with
//! brute-force evaluation over a small box. Overlap is the point — it forces
//! distinct threads onto the same cache entries so stripe handoff, epoch
//! tagging and the atomic counters all see real contention.

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

/// Collapses a result to a comparable verdict (models are best-effort and may
/// legitimately differ between runs).
fn sat_verdict(result: &SatResult) -> &'static str {
    match result {
        SatResult::Sat(_) => "sat",
        SatResult::Unsat => "unsat",
        SatResult::Unknown(_) => "unknown",
    }
}

fn validity_verdict(result: &ValidityResult) -> &'static str {
    match result {
        ValidityResult::Valid => "valid",
        ValidityResult::Invalid(_) => "invalid",
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
/// brute-force box.
fn check_sat_against_oracles(shared: &Solver, f: &Formula, what: &str) {
    let memoized = shared.check_sat(f);
    let fresh = Solver::new().check_sat(f);
    assert_eq!(
        sat_verdict(&memoized),
        sat_verdict(&fresh),
        "{what}: memoized verdict diverged from a fresh solver: {f}"
    );
    for result in [&memoized, &fresh] {
        if let SatResult::Sat(Some(model)) = result {
            assert!(
                holds_under(model, f),
                "{what}: sat model {model:?} does not satisfy {f}"
            );
        }
    }
    match fresh {
        SatResult::Sat(_) => {}
        SatResult::Unsat => {
            let witness = witness_in_box(f);
            assert!(
                witness.is_none(),
                "{what}: unsat, yet {witness:?} satisfies {f}"
            );
        }
        SatResult::Unknown(e) => panic!("{what}: linear pool formula came back unknown ({e}): {f}"),
    }
}

#[test]
fn shared_solver_agrees_with_fresh_solvers_and_brute_force() {
    let formulas = Arc::new(pool());
    // A small model-extraction budget keeps the contended phase fast; it only
    // controls whether a witness is attached to `Sat`, never the verdict.
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
            ValidityResult::Invalid(Some(model)) => assert!(
                !holds_under(model, f),
                "formula {idx}: counter-model {model:?} satisfies {f}"
            ),
            ValidityResult::Invalid(None) => {}
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
}

#[test]
fn racing_cold_keys_compute_once() {
    // Every thread issues the same query sequence, synchronised per key with
    // a barrier so cold keys are raced as hard as the harness can manage.
    // The in-flight guard must collapse each distinct normalized query to
    // exactly ONE solve: the miss counter equals the number of distinct
    // normalized non-constant formulas, deterministically, no matter how the
    // races resolve.
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
    let barrier = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let barrier = &barrier;
            let solver = &solver;
            let formulas = &formulas;
            scope.spawn(move || {
                for f in formulas {
                    barrier.wait();
                    let _ = solver.check_sat(f);
                }
            });
        }
    });
    let stats = solver.stats();
    assert_eq!(
        stats.cache_misses,
        distinct.len(),
        "each distinct cold key must be solved exactly once"
    );
    assert_eq!(
        stats.cache_hits,
        THREADS * (POOL - constants) - distinct.len(),
        "every other query must be a hit (deduped waits included)"
    );
    assert!(stats.deduped_races <= stats.cache_hits);
}

#[test]
fn racing_threads_share_one_expensive_solve() {
    // A quantifier alternation heavy enough (~hundreds of ms of Cooper
    // elimination) that the racing threads are guaranteed to catch the first
    // one mid-solve: they must wait on the in-flight entry — counted as
    // deduped races — rather than burn the same CPU seconds in parallel.
    use expresso_repro::logic::Term;
    let sum = Term::int(2)
        .mul(Term::var("y"))
        .add(Term::int(3).mul(Term::var("z")))
        .add(Term::int(5).mul(Term::var("w")));
    let body = Formula::and(vec![
        Term::var("x").lt(sum.clone()),
        sum.lt(Term::var("x").add(Term::int(9))),
        Formula::divides(4, Term::var("y").add(Term::var("z"))),
        Formula::divides(3, Term::var("w")),
        Term::var("y").ge(Term::int(0)),
        Term::var("z").ge(Term::int(0)),
        Term::var("w").ge(Term::int(0)),
    ]);
    let f = Formula::forall(
        vec!["x".into()],
        Formula::implies(
            Formula::and(vec![
                Term::var("x").ge(Term::int(0)),
                Term::var("x").le(Term::int(40)),
            ]),
            Formula::exists(vec!["y".into(), "z".into(), "w".into()], body),
        ),
    );
    let solver = Solver::new();
    std::thread::scope(|scope| {
        let solver = &solver;
        let f = &f;
        scope.spawn(move || {
            assert!(solver.check_sat(f).is_sat());
        });
        for _ in 0..3 {
            scope.spawn(move || {
                // Stagger the followers into the middle of the first
                // thread's solve (orders of magnitude shorter than the
                // elimination), so they deterministically find the key
                // in-flight rather than racing scheduler timing.
                std::thread::sleep(std::time::Duration::from_millis(25));
                assert!(solver.check_sat(f).is_sat());
            });
        }
    });
    let stats = solver.stats();
    assert_eq!(stats.cache_misses, 1, "one solve serves all four threads");
    assert_eq!(stats.cache_hits, 3);
    assert!(
        stats.deduped_races >= 1,
        "late arrivals must wait out the in-flight solve, not recompute it"
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
    assert!(
        stats.cross_analysis_hits
            <= stats.cache_hits + stats.theory_cache_hits + stats.qe_cache_hits
    );
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
}
