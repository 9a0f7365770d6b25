//! Cooper's quantifier-elimination procedure for Presburger arithmetic.
//!
//! Given `∃x. φ` where `φ` is a quantifier-free formula of linear integer
//! arithmetic (plus divisibility atoms and boolean variables that do not
//! mention `x`), the procedure produces an equivalent quantifier-free formula.
//! Universal quantifiers are handled through the dual `∀x.φ ≡ ¬∃x.¬φ`.
//!
//! The implementation follows the textbook presentation (e.g. Harrison,
//! *Handbook of Practical Logic*, §5.7): normalise the coefficient of the
//! eliminated variable to ±1 by scaling to the least common multiple,
//! then build the disjunction of the "minus-infinity" instance and the
//! instances at each lower bound plus an offset `1..D`, where `D` is the
//! least common multiple of the divisibility divisors.
//!
//! Scaling multiplies coefficients, and [`LinExpr`] arithmetic saturates. A
//! clamped coefficient is a different constraint, so nothing here concludes
//! from one: every expression the procedure builds is checked
//! ([`LinExpr::clamped`]), the two least common multiples and the scaled
//! divisors are computed with checked arithmetic, and any overflow ends the
//! elimination with [`TranslateError::Overflow`] — which the solver reports
//! as `Unknown`, the conservative answer, never as a verdict. So does an
//! elimination whose disjunction of instances would be longer than
//! `MAX_INSTANCES`: its length grows with the divisor lcm, which a single
//! huge coefficient makes huge, however small the formula.

use crate::linear::{lcm, LinExpr, TranslateError};
use expresso_logic::{
    simplify, to_nnf, CmpOp, Formula, FormulaId, FormulaNode, Interner, Quantifier, Term,
};
use std::collections::HashMap;

/// Eliminates every quantifier in `formula`, producing an equivalent
/// quantifier-free formula.
///
/// # Errors
///
/// Returns a [`TranslateError`] if an atom that mentions a quantified variable
/// is non-linear or reads from an array; such formulas fall outside Presburger
/// arithmetic and the caller must treat the query conservatively.
pub fn eliminate_quantifiers(formula: &Formula) -> Result<Formula, TranslateError> {
    let f = eliminate_rec(formula)?;
    Ok(simplify(&f))
}

/// Eliminates every quantifier in an interned formula, staying on ids.
///
/// The propositional skeleton is traversed as a DAG over the arena — shared
/// quantifier-free subtrees are visited once and never materialized as trees.
/// Only a quantified subtree is reconstructed (once, at its binder) so the
/// textbook tree-based [`eliminate_exists`] can run on its matrix; the result
/// is interned straight back.
///
/// # Errors
///
/// Same contract as [`eliminate_quantifiers`].
pub fn eliminate_quantifiers_id(
    interner: &Interner,
    f: FormulaId,
) -> Result<FormulaId, TranslateError> {
    let mut memo = HashMap::new();
    let eliminated = eliminate_rec_id(interner, f, &mut memo)?;
    Ok(interner.simplify(eliminated))
}

fn eliminate_rec_id(
    interner: &Interner,
    f: FormulaId,
    memo: &mut HashMap<FormulaId, FormulaId>,
) -> Result<FormulaId, TranslateError> {
    if let Some(&done) = memo.get(&f) {
        return Ok(done);
    }
    let out = match interner.node(f) {
        FormulaNode::True
        | FormulaNode::False
        | FormulaNode::BoolVar(_)
        | FormulaNode::Cmp(..)
        | FormulaNode::Divides(..) => f,
        FormulaNode::Not(inner) => {
            let i = eliminate_rec_id(interner, inner, memo)?;
            interner.mk_not(i)
        }
        FormulaNode::And(parts) => {
            let ids = parts
                .into_iter()
                .map(|p| eliminate_rec_id(interner, p, memo))
                .collect::<Result<Vec<_>, _>>()?;
            interner.mk_and(ids)
        }
        FormulaNode::Or(parts) => {
            let ids = parts
                .into_iter()
                .map(|p| eliminate_rec_id(interner, p, memo))
                .collect::<Result<Vec<_>, _>>()?;
            interner.mk_or(ids)
        }
        FormulaNode::Implies(a, b) => {
            let sa = eliminate_rec_id(interner, a, memo)?;
            let sb = eliminate_rec_id(interner, b, memo)?;
            interner.mk_implies(sa, sb)
        }
        FormulaNode::Iff(a, b) => {
            let sa = eliminate_rec_id(interner, a, memo)?;
            let sb = eliminate_rec_id(interner, b, memo)?;
            interner.mk_iff(sa, sb)
        }
        FormulaNode::Quant(q, vars, body) => {
            let body_qf = eliminate_rec_id(interner, body, memo)?;
            // The quantified matrix is the one place the procedure needs a
            // tree; materialize it once and intern the result back.
            let mut current = interner.formula(body_qf);
            for var in vars.iter().rev() {
                current = match q {
                    Quantifier::Exists => eliminate_exists(var, &current)?,
                    Quantifier::Forall => {
                        let negated = Formula::not(current);
                        Formula::not(eliminate_exists(var, &negated)?)
                    }
                };
            }
            interner.intern(&current)
        }
    };
    memo.insert(f, out);
    Ok(out)
}

fn eliminate_rec(formula: &Formula) -> Result<Formula, TranslateError> {
    match formula {
        Formula::True
        | Formula::False
        | Formula::BoolVar(_)
        | Formula::Cmp(..)
        | Formula::Divides(..) => Ok(formula.clone()),
        Formula::Not(inner) => Ok(Formula::not(eliminate_rec(inner)?)),
        Formula::And(parts) => Ok(Formula::and(
            parts
                .iter()
                .map(eliminate_rec)
                .collect::<Result<Vec<_>, _>>()?,
        )),
        Formula::Or(parts) => Ok(Formula::or(
            parts
                .iter()
                .map(eliminate_rec)
                .collect::<Result<Vec<_>, _>>()?,
        )),
        Formula::Implies(a, b) => Ok(Formula::implies(eliminate_rec(a)?, eliminate_rec(b)?)),
        Formula::Iff(a, b) => Ok(Formula::iff(eliminate_rec(a)?, eliminate_rec(b)?)),
        Formula::Quant(q, vars, body) => {
            let mut current = eliminate_rec(body)?;
            // Eliminate the innermost binder first.
            for var in vars.iter().rev() {
                current = match q {
                    Quantifier::Exists => eliminate_exists(var, &current)?,
                    Quantifier::Forall => {
                        let negated = Formula::not(current);
                        Formula::not(eliminate_exists(var, &negated)?)
                    }
                };
            }
            Ok(current)
        }
    }
}

/// Eliminates a single existential quantifier `∃var. formula`.
pub fn eliminate_exists(var: &str, formula: &Formula) -> Result<Formula, TranslateError> {
    let nnf = to_nnf(&simplify(formula));
    if !nnf.int_vars().contains(var) {
        return Ok(simplify(&nnf));
    }
    let shape = CooperFormula::build(var, &nnf)?;
    Ok(simplify(&shape.eliminate()?))
}

/// Most instances one elimination may build: the disjunction has
/// `divisor_lcm × (1 + bounds)` of them, and the variable's own coefficient
/// enters the lcm, so `∃z. 6e18·z ≥ 1 ∧ 6e18·z ≤ 5` would ask for about
/// 1.2·10¹⁹. An elimination over budget ends like one that overflowed:
/// `Unknown`, never a verdict. The Table 1 suite and two seeded 500-monitor
/// corpora need at most 5.
const MAX_INSTANCES: i64 = 4096;

fn overflow<T>(step: &str) -> Result<T, TranslateError> {
    Err(TranslateError::Overflow(format!(
        "Cooper's procedure ({step})"
    )))
}

/// `e` as it is, unless a step that built it clamped.
fn exact(e: LinExpr, step: &str) -> Result<LinExpr, TranslateError> {
    if e.clamped() {
        overflow(step)
    } else {
        Ok(e)
    }
}

/// Internal representation of the matrix of `∃x. φ` with atoms classified by
/// their relationship to `x`.
#[derive(Debug, Clone)]
enum CooperFormula {
    True,
    False,
    /// An atom (or literal) that does not mention the eliminated variable.
    Other(Formula),
    /// `x < e` — an upper bound on the (scaled) variable.
    Upper(LinExpr),
    /// `e < x` — a lower bound on the (scaled) variable.
    Lower(LinExpr),
    /// `d | x + e` (positive) or `¬(d | x + e)` (negative).
    Div(u64, LinExpr, bool),
    And(Vec<CooperFormula>),
    Or(Vec<CooperFormula>),
}

impl CooperFormula {
    /// Classifies the NNF formula `f` with respect to `var`, scaling so the
    /// coefficient of `var` is ±1 everywhere.
    fn build(var: &str, f: &Formula) -> Result<CooperFormula, TranslateError> {
        // First pass: find the least common multiple of |coefficient of var|.
        let mut l = 1i64;
        collect_coeff_lcm(var, f, &mut l)?;
        // Second pass: classify atoms, scaling each so the coefficient is ±l,
        // then treating `y = l*x` as the new variable (adding `l | y`).
        let classified = classify(var, f, l)?;
        if l == 1 {
            Ok(classified)
        } else {
            Ok(CooperFormula::And(vec![
                classified,
                CooperFormula::Div(l as u64, LinExpr::zero(), true),
            ]))
        }
    }

    /// Applies Cooper's theorem to produce a quantifier-free equivalent.
    fn eliminate(&self) -> Result<Formula, TranslateError> {
        let divisor_lcm = self.divisor_lcm()?;
        let lowers = self.lower_bounds();
        let uppers = self.upper_bounds();
        // Use whichever side has fewer bound terms (the dual form via upper
        // bounds is symmetric); this keeps the output small.
        let use_lower = lowers.len() <= uppers.len();
        let bounds = if use_lower { &lowers } else { &uppers };
        let instances = i64::try_from(bounds.len() + 1)
            .ok()
            .and_then(|per_offset| per_offset.checked_mul(divisor_lcm));
        if instances.is_none_or(|n| n > MAX_INSTANCES) {
            return overflow("more instances than its budget");
        }

        let mut disjuncts = Vec::new();
        for j in 1..=divisor_lcm {
            disjuncts.push(self.instantiate_infinity(j, use_lower)?);
            for b in bounds {
                // x := b + j (lower-bound form)  or  x := b - j (upper-bound form)
                let offset = if use_lower { j } else { -j };
                let mut point = b.clone();
                point.add_constant(offset);
                disjuncts.push(self.instantiate_at(&exact(point, "instance point")?)?);
            }
        }
        Ok(Formula::or(disjuncts))
    }

    /// The least common multiple of the divisors (which [`classify_divides`]
    /// keeps inside `i64`).
    fn divisor_lcm(&self) -> Result<i64, TranslateError> {
        match self {
            CooperFormula::Div(d, _, _) => Ok(*d as i64),
            CooperFormula::And(parts) | CooperFormula::Or(parts) => {
                parts
                    .iter()
                    .try_fold(1i64, |acc, p| match lcm(acc, p.divisor_lcm()?) {
                        Some(l) => Ok(l.max(1)),
                        None => overflow("least common multiple of the divisors"),
                    })
            }
            _ => Ok(1),
        }
    }

    fn lower_bounds(&self) -> Vec<LinExpr> {
        let mut out = Vec::new();
        self.collect_bounds(true, &mut out);
        out.sort();
        out.dedup();
        out
    }

    fn upper_bounds(&self) -> Vec<LinExpr> {
        let mut out = Vec::new();
        self.collect_bounds(false, &mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_bounds(&self, lower: bool, out: &mut Vec<LinExpr>) {
        match self {
            CooperFormula::Lower(e) if lower => out.push(e.clone()),
            CooperFormula::Upper(e) if !lower => out.push(e.clone()),
            CooperFormula::And(parts) | CooperFormula::Or(parts) => {
                for p in parts {
                    p.collect_bounds(lower, out);
                }
            }
            _ => {}
        }
    }

    /// The `φ_{±∞}[x := j]` instance: upper/lower bound atoms collapse to a
    /// constant truth value and divisibility atoms are evaluated at `x = j`.
    fn instantiate_infinity(
        &self,
        j: i64,
        minus_infinity: bool,
    ) -> Result<Formula, TranslateError> {
        let parts_at = |parts: &[CooperFormula]| {
            parts
                .iter()
                .map(|p| p.instantiate_infinity(j, minus_infinity))
                .collect::<Result<Vec<_>, _>>()
        };
        Ok(match self {
            CooperFormula::True => Formula::True,
            CooperFormula::False => Formula::False,
            CooperFormula::Other(f) => f.clone(),
            CooperFormula::Upper(_) => {
                if minus_infinity {
                    Formula::True
                } else {
                    Formula::False
                }
            }
            CooperFormula::Lower(_) => {
                if minus_infinity {
                    Formula::False
                } else {
                    Formula::True
                }
            }
            CooperFormula::Div(d, e, positive) => {
                let mut inst = e.clone();
                inst.add_constant(j);
                divides_formula(*d, &exact(inst, "divisibility instance")?, *positive)
            }
            CooperFormula::And(parts) => Formula::and(parts_at(parts)?),
            CooperFormula::Or(parts) => Formula::or(parts_at(parts)?),
        })
    }

    /// The `φ[x := point]` instance.
    fn instantiate_at(&self, point: &LinExpr) -> Result<Formula, TranslateError> {
        let parts_at = |parts: &[CooperFormula]| {
            parts
                .iter()
                .map(|p| p.instantiate_at(point))
                .collect::<Result<Vec<_>, _>>()
        };
        Ok(match self {
            CooperFormula::True => Formula::True,
            CooperFormula::False => Formula::False,
            CooperFormula::Other(f) => f.clone(),
            CooperFormula::Upper(e) => {
                // point < e
                Formula::Cmp(CmpOp::Lt, point.to_term(), e.to_term())
            }
            CooperFormula::Lower(e) => {
                // e < point
                Formula::Cmp(CmpOp::Lt, e.to_term(), point.to_term())
            }
            CooperFormula::Div(d, e, positive) => {
                let inst = exact(e.add(point), "divisibility instance")?;
                divides_formula(*d, &inst, *positive)
            }
            CooperFormula::And(parts) => Formula::and(parts_at(parts)?),
            CooperFormula::Or(parts) => Formula::or(parts_at(parts)?),
        })
    }
}

fn divides_formula(d: u64, e: &LinExpr, positive: bool) -> Formula {
    let f = if d == 1 {
        Formula::True
    } else if e.is_constant() {
        if e.constant_part().rem_euclid(d as i64) == 0 {
            Formula::True
        } else {
            Formula::False
        }
    } else {
        Formula::Divides(d, e.to_term())
    };
    if positive {
        f
    } else {
        Formula::not(f)
    }
}

/// Computes the least common multiple of the absolute coefficients of `var`
/// across all atoms of `f`.
fn collect_coeff_lcm(var: &str, f: &Formula, l: &mut i64) -> Result<(), TranslateError> {
    match f {
        Formula::True | Formula::False | Formula::BoolVar(_) => Ok(()),
        Formula::Not(inner) => collect_coeff_lcm(var, inner, l),
        Formula::And(parts) | Formula::Or(parts) => {
            for p in parts {
                collect_coeff_lcm(var, p, l)?;
            }
            Ok(())
        }
        Formula::Implies(a, b) | Formula::Iff(a, b) => {
            collect_coeff_lcm(var, a, l)?;
            collect_coeff_lcm(var, b, l)
        }
        Formula::Cmp(_, lhs, rhs) => {
            if !term_mentions(lhs, var) && !term_mentions(rhs, var) {
                return Ok(());
            }
            let e = LinExpr::from_term(lhs)?.sub(&LinExpr::from_term(rhs)?);
            fold_coeff(e.coeff(var), l)
        }
        Formula::Divides(_, t) => {
            if !term_mentions(t, var) {
                return Ok(());
            }
            fold_coeff(LinExpr::from_term(t)?.coeff(var), l)
        }
        Formula::Quant(_, _, body) => collect_coeff_lcm(var, body, l),
    }
}

/// `l := lcm(l, |c|)` for a non-zero coefficient `c`.
fn fold_coeff(c: i64, l: &mut i64) -> Result<(), TranslateError> {
    if c != 0 {
        match c.checked_abs().and_then(|c| lcm(*l, c)) {
            Some(folded) => *l = folded.max(1),
            None => return overflow("least common multiple of the coefficients"),
        }
    }
    Ok(())
}

fn term_mentions(t: &Term, var: &str) -> bool {
    t.vars().contains(var)
}

/// Classifies an NNF formula with respect to the scaled variable `y = l·var`.
fn classify(var: &str, f: &Formula, l: i64) -> Result<CooperFormula, TranslateError> {
    match f {
        Formula::True => Ok(CooperFormula::True),
        Formula::False => Ok(CooperFormula::False),
        Formula::BoolVar(_) => Ok(CooperFormula::Other(f.clone())),
        Formula::Not(inner) => match inner.as_ref() {
            Formula::BoolVar(_) => Ok(CooperFormula::Other(f.clone())),
            Formula::Divides(d, t) => classify_divides(var, *d, t, l, false),
            // NNF guarantees negation only appears over boolean variables and
            // divisibility atoms, but be defensive about comparisons.
            Formula::Cmp(op, lhs, rhs) => {
                let flipped = Formula::Cmp(op.negate(), lhs.clone(), rhs.clone());
                classify(var, &to_nnf(&flipped), l)
            }
            _ => Ok(CooperFormula::Other(f.clone())),
        },
        Formula::Divides(d, t) => classify_divides(var, *d, t, l, true),
        Formula::Cmp(op, lhs, rhs) => classify_cmp(var, *op, lhs, rhs, l),
        Formula::And(parts) => Ok(CooperFormula::And(
            parts
                .iter()
                .map(|p| classify(var, p, l))
                .collect::<Result<Vec<_>, _>>()?,
        )),
        Formula::Or(parts) => Ok(CooperFormula::Or(
            parts
                .iter()
                .map(|p| classify(var, p, l))
                .collect::<Result<Vec<_>, _>>()?,
        )),
        Formula::Implies(a, b) => {
            let rewritten = Formula::or(vec![Formula::not(a.as_ref().clone()), b.as_ref().clone()]);
            classify(var, &to_nnf(&rewritten), l)
        }
        Formula::Iff(a, b) => {
            let rewritten = Formula::and(vec![
                Formula::implies(a.as_ref().clone(), b.as_ref().clone()),
                Formula::implies(b.as_ref().clone(), a.as_ref().clone()),
            ]);
            classify(var, &to_nnf(&rewritten), l)
        }
        // Inner quantifiers must have been eliminated before classification.
        Formula::Quant(..) => Ok(CooperFormula::Other(f.clone())),
    }
}

fn classify_divides(
    var: &str,
    d: u64,
    t: &Term,
    l: i64,
    positive: bool,
) -> Result<CooperFormula, TranslateError> {
    if !term_mentions(t, var) {
        let f = Formula::Divides(d, t.clone());
        return Ok(CooperFormula::Other(if positive {
            f
        } else {
            Formula::not(f)
        }));
    }
    let mut e = LinExpr::from_term(t)?;
    let c = e.remove_var(var);
    if c == 0 {
        let f = Formula::Divides(d, t.clone());
        return Ok(CooperFormula::Other(if positive {
            f
        } else {
            Formula::not(f)
        }));
    }
    // Scale so the coefficient of var becomes ±l, then express in y = l*var
    // (`l` is a multiple of `|c|`, which `collect_coeff_lcm` saw fit `i64`).
    let factor = l / c.abs();
    let Some(scaled_d) = i64::try_from(d).ok().and_then(|d| d.checked_mul(factor)) else {
        return overflow("scaled divisor");
    };
    // d | c*x + e  ==  scaled_d | y + factor*e, and for c = -c' < 0
    // d | -c'*x + e  ==  d | c'*x - e (divisibility is symmetric under negation).
    let rest = e.scale(if c > 0 { factor } else { -factor });
    Ok(CooperFormula::Div(
        scaled_d as u64,
        exact(rest, "scaled divisibility atom")?,
        positive,
    ))
}

fn classify_cmp(
    var: &str,
    op: CmpOp,
    lhs: &Term,
    rhs: &Term,
    l: i64,
) -> Result<CooperFormula, TranslateError> {
    if !term_mentions(lhs, var) && !term_mentions(rhs, var) {
        return Ok(CooperFormula::Other(Formula::Cmp(
            op,
            lhs.clone(),
            rhs.clone(),
        )));
    }
    // Equality and disequality are expanded so only strict bounds remain.
    match op {
        CmpOp::Eq => {
            let le = classify_cmp(var, CmpOp::Le, lhs, rhs, l)?;
            let ge = classify_cmp(var, CmpOp::Ge, lhs, rhs, l)?;
            return Ok(CooperFormula::And(vec![le, ge]));
        }
        CmpOp::Ne => {
            let lt = classify_cmp(var, CmpOp::Lt, lhs, rhs, l)?;
            let gt = classify_cmp(var, CmpOp::Gt, lhs, rhs, l)?;
            return Ok(CooperFormula::Or(vec![lt, gt]));
        }
        _ => {}
    }
    // Normalise to `e < 0` / `e <= 0` with e = lhs - rhs (Gt/Ge swap sides).
    let (lhs, rhs, op) = match op {
        CmpOp::Gt => (rhs, lhs, CmpOp::Lt),
        CmpOp::Ge => (rhs, lhs, CmpOp::Le),
        other => (lhs, rhs, other),
    };
    let mut e = LinExpr::from_term(lhs)?.sub(&LinExpr::from_term(rhs)?);
    // Integer tightening: e <= 0  ==  e - 1 < 0.
    if op == CmpOp::Le {
        e.add_constant(-1);
    }
    let mut e = exact(e, "comparison atom")?;
    // Now the atom is e < 0 with e = c*var + rest.
    let c = e.remove_var(var);
    if c == 0 {
        return Ok(CooperFormula::Other(Formula::Cmp(
            CmpOp::Lt,
            e.to_term(),
            Term::int(0),
        )));
    }
    let factor = l / c.abs();
    if c > 0 {
        // c*x + rest < 0  ==  y < -rest   (y = l*x)
        let bound = exact(e.scale(-factor), "scaled upper bound")?;
        Ok(CooperFormula::Upper(bound))
    } else {
        // -c'*x + rest < 0  ==  rest < y
        let bound = exact(e.scale(factor), "scaled lower bound")?;
        Ok(CooperFormula::Lower(bound))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expresso_logic::Valuation;

    fn ground_truth(f: &Formula) -> bool {
        match simplify(f) {
            Formula::True => true,
            Formula::False => false,
            other => panic!("formula is not ground: {other}"),
        }
    }

    #[test]
    fn exists_with_satisfiable_bounds() {
        // ∃x. 0 < x && x < 10
        let f = Formula::exists(
            vec!["x".into()],
            Formula::and(vec![
                Term::int(0).lt(Term::var("x")),
                Term::var("x").lt(Term::int(10)),
            ]),
        );
        let res = eliminate_quantifiers(&f).expect("linear");
        assert!(ground_truth(&res));
    }

    #[test]
    fn exists_with_empty_interval() {
        // ∃x. 5 < x && x < 6   (no integer strictly between 5 and 6)
        let f = Formula::exists(
            vec!["x".into()],
            Formula::and(vec![
                Term::int(5).lt(Term::var("x")),
                Term::var("x").lt(Term::int(6)),
            ]),
        );
        let res = eliminate_quantifiers(&f).expect("linear");
        assert!(!ground_truth(&res));
    }

    #[test]
    fn divisibility_constraints_are_respected() {
        // ∃x. 2|x && 3|x && 0 < x && x < 6  — only multiples of 6; none in (0,6).
        let f = Formula::exists(
            vec!["x".into()],
            Formula::and(vec![
                Formula::divides(2, Term::var("x")),
                Formula::divides(3, Term::var("x")),
                Term::int(0).lt(Term::var("x")),
                Term::var("x").lt(Term::int(6)),
            ]),
        );
        let res = eliminate_quantifiers(&f).expect("linear");
        assert!(!ground_truth(&res));

        // Widening the interval to include 6 makes it satisfiable.
        let f = Formula::exists(
            vec!["x".into()],
            Formula::and(vec![
                Formula::divides(2, Term::var("x")),
                Formula::divides(3, Term::var("x")),
                Term::int(0).lt(Term::var("x")),
                Term::var("x").le(Term::int(6)),
            ]),
        );
        let res = eliminate_quantifiers(&f).expect("linear");
        assert!(ground_truth(&res));
    }

    #[test]
    fn scaled_coefficients() {
        // ∃x. 2x == 3  is unsatisfiable over the integers.
        let f = Formula::exists(
            vec!["x".into()],
            Term::int(2).mul(Term::var("x")).eq(Term::int(3)),
        );
        assert!(!ground_truth(&eliminate_quantifiers(&f).expect("linear")));
        // ∃x. 2x == 4 is satisfiable.
        let f = Formula::exists(
            vec!["x".into()],
            Term::int(2).mul(Term::var("x")).eq(Term::int(4)),
        );
        assert!(ground_truth(&eliminate_quantifiers(&f).expect("linear")));
    }

    #[test]
    fn forall_is_dualised() {
        // ∀x. x >= 0  is false; ∀x. x + 1 > x is true.
        let f = Formula::forall(vec!["x".into()], Term::var("x").ge(Term::int(0)));
        assert!(!ground_truth(&eliminate_quantifiers(&f).expect("linear")));
        let f = Formula::forall(
            vec!["x".into()],
            Term::var("x").add(Term::int(1)).gt(Term::var("x")),
        );
        assert!(ground_truth(&eliminate_quantifiers(&f).expect("linear")));
    }

    #[test]
    fn free_variables_survive_elimination() {
        // ∃x. y < x && x < y + 2   ==  exactly x = y+1 exists, so True for all y.
        let f = Formula::exists(
            vec!["x".into()],
            Formula::and(vec![
                Term::var("y").lt(Term::var("x")),
                Term::var("x").lt(Term::var("y").add(Term::int(2))),
            ]),
        );
        let res = eliminate_quantifiers(&f).expect("linear");
        // The result must be ground-equivalent to true for a few sample values of y.
        for y in [-3i64, 0, 7] {
            let mut v = Valuation::new();
            v.set_int("y", y);
            assert_eq!(v.eval(&res), Ok(true), "failed for y={y}, result={res}");
        }
    }

    #[test]
    fn unsat_with_free_variables() {
        // ∃x. x < y && y < x  is false for all y.
        let f = Formula::exists(
            vec!["x".into()],
            Formula::and(vec![
                Term::var("x").lt(Term::var("y")),
                Term::var("y").lt(Term::var("x")),
            ]),
        );
        let res = eliminate_quantifiers(&f).expect("linear");
        for y in [-1i64, 0, 5] {
            let mut v = Valuation::new();
            v.set_int("y", y);
            assert_eq!(v.eval(&res), Ok(false), "failed for y={y}, result={res}");
        }
    }

    #[test]
    fn nested_quantifiers() {
        // ∀x. ∃y. y > x   — true.
        let f = Formula::forall(
            vec!["x".into()],
            Formula::exists(vec!["y".into()], Term::var("y").gt(Term::var("x"))),
        );
        assert!(ground_truth(&eliminate_quantifiers(&f).expect("linear")));
        // ∃y. ∀x. y > x   — false.
        let f = Formula::exists(
            vec!["y".into()],
            Formula::forall(vec!["x".into()], Term::var("y").gt(Term::var("x"))),
        );
        assert!(!ground_truth(&eliminate_quantifiers(&f).expect("linear")));
    }

    #[test]
    fn boolean_variables_pass_through() {
        // ∃x. p && x > 0   ==  p
        let f = Formula::exists(
            vec!["x".into()],
            Formula::and(vec![
                Formula::bool_var("p"),
                Term::var("x").gt(Term::int(0)),
            ]),
        );
        let res = eliminate_quantifiers(&f).expect("linear");
        assert_eq!(res, Formula::bool_var("p"));
    }

    #[test]
    fn array_reads_inside_scope_are_rejected() {
        let f = Formula::exists(
            vec!["x".into()],
            Term::select("buf", Term::var("x")).gt(Term::int(0)),
        );
        assert!(eliminate_quantifiers(&f).is_err());
    }

    #[test]
    fn a_clamped_coefficient_ends_the_elimination_instead_of_deciding_it() {
        let overflows = |matrix: Formula| {
            let closed = Formula::exists(vec!["x".into()], matrix);
            match eliminate_quantifiers(&closed) {
                Err(TranslateError::Overflow(_)) => {}
                other => panic!("expected an overflow for {closed}, got {other:?}"),
            }
        };
        // 2x >= 6e18 && 3x <= 9.1e18 holds at x = 3e18. Scaling both atoms
        // to 6x multiplies 6e18 by 3: the clamped bounds read MAX < 6x < MAX
        // and the elimination used to answer `False` — a proof of
        // unsatisfiability for a satisfiable formula.
        let matrix = Formula::and(vec![
            Term::int(2)
                .mul(Term::var("x"))
                .ge(Term::int(6_000_000_000_000_000_000)),
            Term::int(3)
                .mul(Term::var("x"))
                .le(Term::int(9_100_000_000_000_000_000)),
        ]);
        let mut witness = Valuation::new();
        witness.set_int("x", 3_000_000_000_000_000_000);
        assert_eq!(witness.eval(&matrix), Ok(true), "the witness is a model");
        overflows(matrix);
        // Coprime coefficients whose least common multiple, 2^64 - 1, does
        // not fit: the saturated one scaled each atom by a different wrong
        // factor (and then sent the instance loop towards 2^63 rounds).
        let (a, b) = ((1i64 << 32) + 1, (1i64 << 32) - 1);
        overflows(Formula::and(vec![
            Term::int(a).mul(Term::var("x")).le(Term::int(5 * a - 1)),
            Term::int(b).mul(Term::var("x")).ge(Term::int(4 * b + 1)),
        ]));
        // 2^62 | x beside 4x = y: in y' = 4x the divisor is 2^64.
        overflows(Formula::and(vec![
            Formula::divides(1 << 62, Term::var("x")),
            Term::int(4).mul(Term::var("x")).eq(Term::var("y")),
        ]));
        // The same shapes where everything fits are still decided.
        let small = Formula::exists(
            vec!["x".into()],
            Formula::and(vec![
                Term::int(2).mul(Term::var("x")).ge(Term::int(6)),
                Term::int(3).mul(Term::var("x")).le(Term::int(10)),
                Formula::divides(3, Term::var("x")),
            ]),
        );
        assert!(ground_truth(&eliminate_quantifiers(&small).expect("fits")));
    }

    #[test]
    fn an_elimination_over_its_instance_budget_stops() {
        // 6e18·z scales z to the coefficient itself, so the divisor lcm is
        // 6e18 and the instance loop would run that many times.
        const BIG: i64 = 6_000_000_000_000_000_000;
        let f = Formula::exists(
            vec!["z".into()],
            Formula::and(vec![
                Term::int(BIG).mul(Term::var("z")).ge(Term::int(1)),
                Term::int(BIG).mul(Term::var("z")).le(Term::int(5)),
            ]),
        );
        match eliminate_quantifiers(&f) {
            Err(TranslateError::Overflow(step)) => assert!(step.contains("budget"), "{step}"),
            other => panic!("expected the budget to stop {f}, got {other:?}"),
        }
        // The same shape with a coefficient whose instances fit is decided:
        // 4096 = 2048 × (1 + one bound) is the budget exactly.
        let fits = Formula::exists(
            vec!["z".into()],
            Formula::and(vec![
                Term::int(2048).mul(Term::var("z")).ge(Term::int(1)),
                Term::int(2048).mul(Term::var("z")).le(Term::int(5)),
            ]),
        );
        assert!(!ground_truth(
            &eliminate_quantifiers(&fits).expect("within budget")
        ));
    }

    #[test]
    fn exhaustive_crosscheck_small_domain() {
        // Compare Cooper's output against brute force over a small domain for
        // a formula with one free variable.
        // ∃x. (x >= y && x <= y + 1 && 2 | x)
        let body = Formula::and(vec![
            Term::var("x").ge(Term::var("y")),
            Term::var("x").le(Term::var("y").add(Term::int(1))),
            Formula::divides(2, Term::var("x")),
        ]);
        let f = Formula::exists(vec!["x".into()], body.clone());
        let res = eliminate_quantifiers(&f).expect("linear");
        for y in -6i64..=6 {
            let mut v = Valuation::new();
            v.set_int("y", y);
            let expected = (-20i64..=20).any(|x| {
                let mut vv = v.clone();
                vv.set_int("x", x);
                vv.eval(&body).unwrap()
            });
            assert_eq!(v.eval(&res), Ok(expected), "mismatch at y={y}: {res}");
        }
    }
}
