//! Negation normal form of formula trees: the test-only reference
//! [`crate::Interner::nnf`] is held to.

use crate::formula::{CmpOp, Formula, Quantifier};

/// Converts a formula to negation normal form.
///
/// In the result, negation appears only directly above boolean variables;
/// implications and bi-implications are eliminated; negated comparisons are
/// rewritten by flipping the comparison operator (e.g. `!(a < b)` becomes
/// `a >= b`); negated quantifiers are pushed through by dualising the
/// quantifier; negated divisibility atoms are kept as `Not(Divides(..))`
/// because Presburger arithmetic has no positive dual for them (Cooper's
/// procedure in `expresso-smt` handles both polarities).
pub fn to_nnf(formula: &Formula) -> Formula {
    nnf(formula, false)
}

fn nnf(formula: &Formula, negate: bool) -> Formula {
    match formula {
        Formula::True => {
            if negate {
                Formula::False
            } else {
                Formula::True
            }
        }
        Formula::False => {
            if negate {
                Formula::True
            } else {
                Formula::False
            }
        }
        Formula::BoolVar(_) => {
            if negate {
                Formula::Not(Box::new(formula.clone()))
            } else {
                formula.clone()
            }
        }
        Formula::Cmp(op, lhs, rhs) => {
            let op = if negate { op.negate() } else { *op };
            rewrite_cmp(op, lhs.clone(), rhs.clone())
        }
        Formula::Divides(..) => {
            if negate {
                Formula::Not(Box::new(formula.clone()))
            } else {
                formula.clone()
            }
        }
        Formula::Not(inner) => nnf(inner, !negate),
        Formula::And(parts) => {
            let converted: Vec<Formula> = parts.iter().map(|p| nnf(p, negate)).collect();
            if negate {
                Formula::or(converted)
            } else {
                Formula::and(converted)
            }
        }
        Formula::Or(parts) => {
            let converted: Vec<Formula> = parts.iter().map(|p| nnf(p, negate)).collect();
            if negate {
                Formula::and(converted)
            } else {
                Formula::or(converted)
            }
        }
        Formula::Implies(a, b) => {
            // a ==> b  ===  !a || b
            if negate {
                // !(a ==> b) === a && !b
                Formula::and(vec![nnf(a, false), nnf(b, true)])
            } else {
                Formula::or(vec![nnf(a, true), nnf(b, false)])
            }
        }
        Formula::Iff(a, b) => {
            // a <=> b === (a && b) || (!a && !b)
            // !(a <=> b) === (a && !b) || (!a && b)
            if negate {
                Formula::or(vec![
                    Formula::and(vec![nnf(a, false), nnf(b, true)]),
                    Formula::and(vec![nnf(a, true), nnf(b, false)]),
                ])
            } else {
                Formula::or(vec![
                    Formula::and(vec![nnf(a, false), nnf(b, false)]),
                    Formula::and(vec![nnf(a, true), nnf(b, true)]),
                ])
            }
        }
        Formula::Quant(q, vars, body) => {
            let q = if negate {
                match q {
                    Quantifier::Forall => Quantifier::Exists,
                    Quantifier::Exists => Quantifier::Forall,
                }
            } else {
                *q
            };
            Formula::Quant(q, vars.clone(), Box::new(nnf(body, negate)))
        }
    }
}

/// Rewrites comparisons so NNF output uses a canonical operator set.
///
/// `Ne` is expanded to `< || >` so that downstream theory reasoning only sees
/// convex atoms; all other operators are kept.
fn rewrite_cmp(op: CmpOp, lhs: crate::Term, rhs: crate::Term) -> Formula {
    match op {
        CmpOp::Ne => Formula::or(vec![
            Formula::Cmp(CmpOp::Lt, lhs.clone(), rhs.clone()),
            Formula::Cmp(CmpOp::Gt, lhs, rhs),
        ]),
        other => Formula::Cmp(other, lhs, rhs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Term;

    #[test]
    fn negated_and_becomes_or() {
        let f = Formula::not(Formula::and(vec![
            Formula::bool_var("a"),
            Formula::bool_var("b"),
        ]));
        assert_eq!(
            to_nnf(&f),
            Formula::or(vec![
                Formula::not(Formula::bool_var("a")),
                Formula::not(Formula::bool_var("b"))
            ])
        );
    }

    #[test]
    fn negated_comparison_flips_operator() {
        let f = Formula::not(Term::var("x").lt(Term::int(3)));
        assert_eq!(to_nnf(&f), Term::var("x").ge(Term::int(3)));
    }

    #[test]
    fn ne_is_expanded_to_disjunction() {
        let f = Term::var("x").ne(Term::int(0));
        assert_eq!(
            to_nnf(&f),
            Formula::or(vec![
                Term::var("x").lt(Term::int(0)),
                Term::var("x").gt(Term::int(0))
            ])
        );
    }

    #[test]
    fn negated_eq_expands_via_ne() {
        let f = Formula::not(Term::var("x").eq(Term::int(0)));
        assert_eq!(
            to_nnf(&f),
            Formula::or(vec![
                Term::var("x").lt(Term::int(0)),
                Term::var("x").gt(Term::int(0))
            ])
        );
    }

    #[test]
    fn implication_is_eliminated() {
        let f = Formula::Implies(
            Box::new(Formula::bool_var("a")),
            Box::new(Formula::bool_var("b")),
        );
        assert_eq!(
            to_nnf(&f),
            Formula::or(vec![
                Formula::not(Formula::bool_var("a")),
                Formula::bool_var("b")
            ])
        );
    }

    #[test]
    fn negated_forall_becomes_exists() {
        let f = Formula::not(Formula::forall(
            vec!["x".into()],
            Term::var("x").ge(Term::int(0)),
        ));
        match to_nnf(&f) {
            Formula::Quant(Quantifier::Exists, vars, body) => {
                assert_eq!(vars, vec!["x".to_string()]);
                assert_eq!(*body, Term::var("x").lt(Term::int(0)));
            }
            other => panic!("expected existential, got {other}"),
        }
    }

    #[test]
    fn iff_expansion_covers_both_polarities() {
        let a = Formula::bool_var("a");
        let b = Formula::bool_var("b");
        let f = Formula::iff(a.clone(), b.clone());
        let nnf_pos = to_nnf(&f);
        let nnf_neg = to_nnf(&Formula::not(f));
        assert!(matches!(nnf_pos, Formula::Or(_)));
        assert!(matches!(nnf_neg, Formula::Or(_)));
        assert_ne!(nnf_pos, nnf_neg);
    }
}
