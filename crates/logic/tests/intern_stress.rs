//! Concurrency stress for the lock-free-read interner: 8 scoped threads
//! intern heavily overlapping formula populations into one arena while also
//! exercising the memoized derived queries (simplify, NNF, free vars,
//! sizes). Overlap is the point — it forces distinct threads to race for the
//! same dedup-index entries and memo slots, so the index locks, id
//! publication and the benign memo races all see real contention.
//!
//! Afterwards everything is cross-checked: ids must be stable (re-interning
//! returns the same id and the tree round-trips), dedup must be structural
//! (the same node counts as a fresh arena populated sequentially), and the
//! memoized var sets / sizes must agree with the tree implementations and
//! the normal forms with the same arena operations run sequentially.

use expresso_logic::{Formula, FormulaId, Interner, Lcg, Term};

const THREADS: usize = 8;
/// Distinct formulas in the pool; every thread visits an overlapping window.
const POOL: usize = 96;

fn term(rng: &mut Lcg, depth: usize) -> Term {
    if depth == 0 {
        return match rng.below(2) {
            0 => Term::int(rng.below(9) as i64 - 4),
            _ => Term::var(["x", "y", "z", "n"][rng.below(4) as usize]),
        };
    }
    match rng.below(6) {
        0 => term(rng, depth - 1).add(term(rng, depth - 1)),
        1 => term(rng, depth - 1).sub(term(rng, depth - 1)),
        2 => term(rng, depth - 1).neg(),
        3 => term(rng, depth - 1).mul(term(rng, depth - 1)),
        4 => Term::select("buf", term(rng, depth - 1)),
        _ => term(rng, 0),
    }
}

fn atom(rng: &mut Lcg) -> Formula {
    let lhs = term(rng, 2);
    let rhs = term(rng, 2);
    match rng.below(7) {
        0 => lhs.lt(rhs),
        1 => lhs.le(rhs),
        2 => lhs.gt(rhs),
        3 => lhs.ge(rhs),
        4 => lhs.eq(rhs),
        5 => lhs.ne(rhs),
        _ => Formula::divides(rng.below(4) + 1, term(rng, 1)),
    }
}

fn formula(rng: &mut Lcg, depth: usize) -> Formula {
    if depth == 0 {
        return match rng.below(6) {
            0 => Formula::True,
            1 => Formula::False,
            2 => Formula::bool_var(["p", "q", "r"][rng.below(3) as usize]),
            _ => atom(rng),
        };
    }
    let arity = 2 + rng.below(2) as usize;
    match rng.below(8) {
        0 => Formula::not(formula(rng, depth - 1)),
        1 => Formula::and((0..arity).map(|_| formula(rng, depth - 1)).collect()),
        2 => Formula::or((0..arity).map(|_| formula(rng, depth - 1)).collect()),
        3 => Formula::implies(formula(rng, depth - 1), formula(rng, depth - 1)),
        4 => Formula::iff(formula(rng, depth - 1), formula(rng, depth - 1)),
        5 => Formula::forall(
            vec![["x", "y", "k"][rng.below(3) as usize].into()],
            formula(rng, depth - 1),
        ),
        6 => Formula::exists(
            vec![["x", "z"][rng.below(2) as usize].into()],
            formula(rng, depth - 1),
        ),
        _ => atom(rng),
    }
}

fn pool() -> Vec<Formula> {
    let mut rng = Lcg::new(0x517A_11E7);
    (0..POOL).map(|i| formula(&mut rng, 1 + i % 3)).collect()
}

#[test]
fn concurrent_interning_is_stable_deduped_and_memo_consistent() {
    let formulas = pool();
    let arena = Interner::new();

    // 8 threads, each interning an overlapping window (stride < window) so
    // most formulas are interned by several threads at once. Every thread
    // also runs the memoized derived queries to race the memo tables.
    let window = POOL / 2;
    let per_thread: Vec<Vec<(usize, FormulaId)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let formulas = &formulas;
                let arena = &arena;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for i in 0..window {
                        let idx = (t * (POOL / THREADS) + i) % POOL;
                        let id = arena.intern(&formulas[idx]);
                        let _ = arena.simplify(id);
                        let _ = arena.nnf(id);
                        let _ = arena.free_vars(id);
                        let _ = arena.size(id);
                        out.push((idx, id));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("interning worker panicked"))
            .collect()
    });

    // Id stability: re-interning any formula sequentially returns exactly the
    // id the concurrent phase handed out, and every thread that interned the
    // same formula got the same id.
    let mut canonical: Vec<Option<FormulaId>> = vec![None; POOL];
    for thread in &per_thread {
        for &(idx, id) in thread {
            match canonical[idx] {
                None => canonical[idx] = Some(id),
                Some(existing) => assert_eq!(
                    existing, id,
                    "formula {idx} got distinct ids from concurrent threads"
                ),
            }
        }
    }
    for (idx, f) in formulas.iter().enumerate() {
        let re = arena.intern(f);
        if let Some(id) = canonical[idx] {
            assert_eq!(re, id, "formula {idx} changed id on re-intern");
        }
        assert_eq!(arena.formula(re), *f, "formula {idx} roundtrip mangled");
    }

    // Structural dedup under races: a fresh arena running the same operations
    // sequentially holds exactly the same node set (every node — raw or
    // derived by simplify/NNF — is a pure function of the pool, so thread
    // interleaving cannot change the closure), and the counts match.
    let sequential = Interner::new();
    for f in &formulas {
        let id = sequential.intern(f);
        let _ = sequential.simplify(id);
        let _ = sequential.nnf(id);
    }
    assert_eq!(
        arena.formula_count(),
        sequential.formula_count(),
        "racing threads deduplicated differently from a sequential run"
    );
    assert_eq!(arena.term_count(), sequential.term_count());

    // Memoized derived queries agree with the tree implementations, and the
    // normal forms the races memoized with the ones the sequential arena
    // computed undisturbed (the crate's unit tests hold those to the tree
    // references), even after the concurrent races populated the memo tables.
    for (idx, f) in formulas.iter().enumerate() {
        let id = canonical[idx].unwrap_or_else(|| arena.intern(f));
        assert_eq!(arena.free_vars(id), f.free_vars(), "formula {idx}");
        assert_eq!(arena.int_vars(id), f.int_vars(), "formula {idx}");
        assert_eq!(arena.size(id), f.size(), "formula {idx}");
        let alone = sequential.intern(f);
        assert_eq!(
            arena.formula(arena.simplify(id)),
            sequential.formula(sequential.simplify(alone)),
            "formula {idx}: simplify diverged under contention"
        );
        assert_eq!(
            arena.formula(arena.nnf(id)),
            sequential.formula(sequential.nnf(alone)),
            "formula {idx}: nnf diverged under contention"
        );
    }
}

#[test]
fn contention_counter_only_moves_under_parallel_load() {
    // Sequential interning never waits on a lock.
    let arena = Interner::new();
    for f in pool() {
        let id = arena.intern(&f);
        let _ = arena.simplify(id);
    }
    assert_eq!(arena.stats().lock_contentions, 0);
}
