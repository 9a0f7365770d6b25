//! Property-style cross-checks of the interned (arena) memo tables over
//! ~200 generated formulas (`common/mod.rs`): the memoized per-node
//! free-variable sets and sizes must match a recomputed tree baseline —
//! including after the memo tables are warm — and shared subtrees must be
//! stored once. The arena's simplification and negation normal form are
//! held to the tree versions by the crate's own unit tests, where those
//! test-only references live.

use expresso_logic::{Formula, Interner, Lcg, Term};

mod common;
use common::{formula, samples};

#[test]
fn memoized_free_variable_sets_match_recomputed_baseline() {
    let arena = Interner::new();
    let pool = samples();
    // First pass populates the memo tables; second pass must read identical
    // answers back out of them.
    for pass in 0..2 {
        for (i, f) in pool.iter().enumerate() {
            let id = arena.intern(f);
            assert_eq!(
                arena.int_vars(id),
                f.int_vars(),
                "pass {pass}, sample {i}: int_vars mismatch for {f}"
            );
            assert_eq!(
                arena.bool_vars(id),
                f.bool_vars(),
                "pass {pass}, sample {i}: bool_vars mismatch for {f}"
            );
            assert_eq!(
                arena.free_vars(id),
                f.free_vars(),
                "pass {pass}, sample {i}: free_vars mismatch for {f}"
            );
            // The derived forms produced by normalisation agree with a tree
            // recomputation too — these are the ids the solver actually
            // queries on its hot path.
            let norm = arena.simplify(id);
            let norm_tree = arena.formula(norm);
            assert_eq!(
                arena.free_vars(norm),
                norm_tree.free_vars(),
                "pass {pass}, sample {i}: free_vars mismatch for simplified {norm_tree}"
            );
        }
    }
}

#[test]
fn memoized_sizes_match_tree_sizes() {
    let arena = Interner::new();
    for (i, f) in samples().iter().enumerate() {
        let id = arena.intern(f);
        assert_eq!(
            arena.size(id),
            f.size(),
            "sample {i}: size mismatch for {f}"
        );
        // Warm-memo read agrees.
        assert_eq!(arena.size(id), f.size(), "sample {i}: warm size mismatch");
    }
}

#[test]
fn shared_subtrees_share_memo_entries() {
    // Interning N formulas that all contain the same large shared subtree
    // must not blow the arena up: the shared part is stored once.
    let arena = Interner::new();
    let mut rng = Lcg::new(0xBEEF);
    let shared = formula(&mut rng, 3);
    let shared_id = arena.intern(&shared);
    let baseline = arena.formula_count();
    for i in 0..20 {
        let wrapper = Formula::and(vec![shared.clone(), Term::var("w").ge(Term::int(i))]);
        arena.intern(&wrapper);
    }
    // Each wrapper adds at most a handful of fresh nodes (the comparison and
    // the And), never a copy of the shared subtree.
    assert!(
        arena.formula_count() <= baseline + 2 * 20 + 1,
        "arena grew by {} nodes for 20 thin wrappers",
        arena.formula_count() - baseline
    );
    assert_eq!(arena.intern(&shared), shared_id);
}
