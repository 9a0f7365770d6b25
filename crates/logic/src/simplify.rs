//! Light-weight structural simplification of formula trees: the test-only
//! reference [`crate::Interner::simplify`] is held to.

use crate::formula::{CmpOp, Formula};
use crate::term::Term;

/// Simplifies a formula without changing its models.
///
/// The simplifier performs constant folding in terms, evaluates comparisons
/// between constants, removes `true`/`false` from connectives, collapses
/// double negation, deduplicates conjuncts/disjuncts and detects the trivial
/// contradiction / tautology `p && !p` / `p || !p`.
pub fn simplify(formula: &Formula) -> Formula {
    match formula {
        Formula::True | Formula::False | Formula::BoolVar(_) => formula.clone(),
        Formula::Cmp(op, lhs, rhs) => simplify_cmp(*op, lhs, rhs),
        Formula::Divides(d, t) => {
            let t = t.const_fold();
            if *d == 1 {
                return Formula::True;
            }
            if let Some(v) = t.as_int() {
                return if v.rem_euclid(*d as i64) == 0 {
                    Formula::True
                } else {
                    Formula::False
                };
            }
            Formula::Divides(*d, t)
        }
        Formula::Not(inner) => Formula::not(simplify(inner)),
        Formula::And(parts) => {
            let simplified: Vec<Formula> = parts.iter().map(simplify).collect();
            let flat = Formula::and(simplified);
            match flat {
                Formula::And(items) => {
                    let dedup = dedup_preserving_order(items);
                    if has_complementary_pair(&dedup) {
                        Formula::False
                    } else {
                        Formula::and(dedup)
                    }
                }
                other => other,
            }
        }
        Formula::Or(parts) => {
            let simplified: Vec<Formula> = parts.iter().map(simplify).collect();
            let flat = Formula::or(simplified);
            match flat {
                Formula::Or(items) => {
                    let dedup = dedup_preserving_order(items);
                    if has_complementary_pair(&dedup) {
                        Formula::True
                    } else {
                        Formula::or(dedup)
                    }
                }
                other => other,
            }
        }
        Formula::Implies(a, b) => {
            let a = simplify(a);
            let b = simplify(b);
            match (&a, &b) {
                (Formula::True, _) => b,
                (Formula::False, _) => Formula::True,
                (_, Formula::True) => Formula::True,
                (_, Formula::False) => Formula::not(a),
                _ if a == b => Formula::True,
                _ => Formula::Implies(Box::new(a), Box::new(b)),
            }
        }
        Formula::Iff(a, b) => {
            let a = simplify(a);
            let b = simplify(b);
            match (&a, &b) {
                (Formula::True, _) => b,
                (_, Formula::True) => a,
                (Formula::False, _) => Formula::not(b),
                (_, Formula::False) => Formula::not(a),
                _ if a == b => Formula::True,
                _ => Formula::Iff(Box::new(a), Box::new(b)),
            }
        }
        Formula::Quant(q, vars, body) => {
            let body = simplify(body);
            if body.is_true() || body.is_false() {
                return body;
            }
            // Drop binders that no longer occur free in the body.
            let free = body.int_vars();
            let still_bound: Vec<_> = vars.iter().filter(|v| free.contains(*v)).cloned().collect();
            if still_bound.is_empty() {
                body
            } else {
                Formula::Quant(*q, still_bound, Box::new(body))
            }
        }
    }
}

fn simplify_cmp(op: CmpOp, lhs: &Term, rhs: &Term) -> Formula {
    let lhs = lhs.const_fold();
    let rhs = rhs.const_fold();
    if let (Some(a), Some(b)) = (lhs.as_int(), rhs.as_int()) {
        return if op.eval(a, b) {
            Formula::True
        } else {
            Formula::False
        };
    }
    if lhs == rhs {
        return match op {
            CmpOp::Eq | CmpOp::Le | CmpOp::Ge => Formula::True,
            CmpOp::Ne | CmpOp::Lt | CmpOp::Gt => Formula::False,
        };
    }
    Formula::Cmp(op, lhs, rhs)
}

fn dedup_preserving_order(items: Vec<Formula>) -> Vec<Formula> {
    let mut seen = Vec::new();
    for item in items {
        if !seen.contains(&item) {
            seen.push(item);
        }
    }
    seen
}

fn has_complementary_pair(items: &[Formula]) -> bool {
    items.iter().any(|f| {
        let negated = Formula::not(f.clone());
        items.contains(&negated)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Term;

    #[test]
    fn constant_comparisons_fold() {
        assert_eq!(simplify(&Term::int(1).lt(Term::int(2))), Formula::True);
        assert_eq!(simplify(&Term::int(5).eq(Term::int(6))), Formula::False);
    }

    #[test]
    fn syntactically_equal_sides_fold() {
        let x = Term::var("x");
        assert_eq!(simplify(&x.clone().le(x.clone())), Formula::True);
        assert_eq!(simplify(&x.clone().lt(x)), Formula::False);
    }

    #[test]
    fn duplicate_conjuncts_removed() {
        let p = Formula::bool_var("p");
        let f = Formula::And(vec![p.clone(), p.clone()]);
        assert_eq!(simplify(&f), p);
    }

    #[test]
    fn contradiction_detected() {
        let p = Formula::bool_var("p");
        let f = Formula::And(vec![p.clone(), Formula::not(p)]);
        assert_eq!(simplify(&f), Formula::False);
    }

    #[test]
    fn excluded_middle_detected() {
        let p = Formula::bool_var("p");
        let f = Formula::Or(vec![p.clone(), Formula::not(p)]);
        assert_eq!(simplify(&f), Formula::True);
    }

    #[test]
    fn implication_simplifies() {
        let p = Formula::bool_var("p");
        assert_eq!(
            simplify(&Formula::Implies(Box::new(p.clone()), Box::new(p))),
            Formula::True
        );
    }

    #[test]
    fn quantifier_over_unused_variable_is_dropped() {
        let f = Formula::forall(vec!["z".into()], Term::var("x").ge(Term::int(0)));
        assert_eq!(simplify(&f), Term::var("x").ge(Term::int(0)));
    }

    #[test]
    fn divides_folds_on_constants() {
        assert_eq!(simplify(&Formula::divides(2, Term::int(4))), Formula::True);
        assert_eq!(simplify(&Formula::divides(2, Term::int(5))), Formula::False);
        assert_eq!(
            simplify(&Formula::divides(1, Term::var("x"))),
            Formula::True
        );
    }
}
