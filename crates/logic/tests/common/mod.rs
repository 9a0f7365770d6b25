//! Seeded random formulas (~200 of them) for the arena's property tests:
//! every connective and quantifier, comparisons and divisibility over a few
//! integer variables, non-linear products and array reads. Shared by
//! `tests/interned_props.rs` and the crate's own unit tests, which hold the
//! arena's simplification and negation normal form to the test-only tree
//! versions; both include it as a module whose parent has `Formula`, `Lcg`
//! and `Term` in scope.
//!
//! The workspace vendors no `rand`, so generation uses the crate's seeded
//! [`Lcg`]; failures therefore reproduce deterministically.

use super::{Formula, Lcg, Term};

const SAMPLES: usize = 200;

fn term(rng: &mut Lcg, depth: usize) -> Term {
    if depth == 0 {
        return match rng.below(3) {
            0 => Term::int(rng.below(11) as i64 - 5),
            1 => Term::var(["x", "y", "z", "n"][rng.below(4) as usize]),
            _ => Term::var(["x", "y"][rng.below(2) as usize]),
        };
    }
    match rng.below(7) {
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

/// A random formula of the given connective depth.
pub fn formula(rng: &mut Lcg, depth: usize) -> Formula {
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

/// The fixed sample every property test walks.
pub fn samples() -> Vec<Formula> {
    let mut rng = Lcg::new(0x1A7E57);
    (0..SAMPLES).map(|i| formula(&mut rng, 1 + i % 3)).collect()
}
