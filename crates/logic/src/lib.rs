//! Terms, formulas and symbolic manipulation for the Expresso reproduction.
//!
//! This crate provides the logical core shared by every other crate in the
//! workspace: integer-sorted [`Term`]s, boolean [`Formula`]s over linear integer
//! arithmetic with uninterpreted array reads, substitution, free-variable
//! computation, concrete evaluation, and the hash-consed [`Interner`] whose
//! memoized simplification and negation normal form every solver query runs
//! on. The tree versions of those two passes are test-only references.
//!
//! The fragment deliberately mirrors what the paper's verification conditions
//! need: quantified linear integer arithmetic plus boolean variables
//! (Presburger arithmetic), with array reads treated as opaque values.
//!
//! # Example
//!
//! ```
//! use expresso_logic::{Formula, Term};
//!
//! // readers >= 0 && !writerIn
//! let inv = Formula::and(vec![
//!     Term::var("readers").ge(Term::int(0)),
//!     Formula::not(Formula::bool_var("writerIn")),
//! ]);
//! assert_eq!(inv.to_string(), "(readers >= 0 && !writerIn)");
//! ```

mod eval;
mod formula;
mod intern;
mod lcg;
// The tree passes are the references the arena's memoized ones are held to
// (`intern.rs` tests); nothing else runs on trees.
#[cfg(test)]
mod nnf;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod random_formulas;
#[cfg(test)]
mod simplify;
mod subst;
mod term;

pub use eval::{Env, EvalError, Valuation};
pub use formula::{CmpOp, Formula, Quantifier};
pub use intern::{FormulaId, FormulaNode, FxHasher, Interner, InternerStats, TermId, TermNode};
// Test-support only: the deterministic generator every workspace harness
// shares (the workspace vendors no `rand`). Hidden from the documented API.
#[doc(hidden)]
pub use lcg::Lcg;
#[cfg(test)]
use nnf::to_nnf;
#[cfg(test)]
use simplify::simplify;
pub use subst::Subst;
pub use term::Term;

/// A variable or array name.
///
/// Names are plain strings; the workspace operates on small monitors where
/// interning would add complexity without measurable benefit.
pub type Ident = String;

/// Creates a fresh identifier based on `base` that does not collide with any
/// name in `taken`.
///
/// The result is `base` itself when it is free, otherwise `base!k` for the
/// smallest `k` making the name fresh. The `!` separator cannot appear in
/// parsed monitor programs, so freshened names never collide with user names.
///
/// # Example
///
/// ```
/// use std::collections::HashSet;
/// let taken: HashSet<String> = ["x".to_string()].into_iter().collect();
/// assert_eq!(expresso_logic::fresh_name("x", &taken), "x!1");
/// assert_eq!(expresso_logic::fresh_name("y", &taken), "y");
/// ```
pub fn fresh_name(base: &str, taken: &std::collections::HashSet<Ident>) -> Ident {
    if !taken.contains(base) {
        return base.to_string();
    }
    let mut k = 1usize;
    loop {
        let candidate = format!("{base}!{k}");
        if !taken.contains(&candidate) {
            return candidate;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn fresh_name_avoids_collisions() {
        let mut taken: HashSet<String> = HashSet::new();
        taken.insert("x".into());
        taken.insert("x!1".into());
        assert_eq!(fresh_name("x", &taken), "x!2");
    }

    #[test]
    fn fresh_name_returns_base_when_free() {
        let taken: HashSet<String> = HashSet::new();
        assert_eq!(fresh_name("turn", &taken), "turn");
    }
}
