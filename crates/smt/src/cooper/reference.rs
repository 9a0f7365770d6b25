//! The textbook procedure over formula trees, as the solver ran it before it
//! moved to the arena: the reference the arena version is held to, step by
//! step (`intern(tree answer) == id answer`, errors included). Its
//! simplification and negation normal form go through an arena of their own
//! (`Interner::simplify_as_tree`, `Interner::nnf`), since the tree versions
//! of those passes are test-only in their crate, whose tests hold the arena
//! passes to them.

use super::{exact, fold_coeff, overflow, MAX_INSTANCES};
use crate::linear::{lcm, LinExpr, TranslateError};
use expresso_logic::{CmpOp, Formula, Interner, Quantifier, Term};

thread_local! {
    static ARENA: Interner = Interner::new();
}

fn simplify(f: &Formula) -> Formula {
    ARENA.with(|arena| arena.formula(arena.simplify_as_tree(arena.intern(f))))
}

fn to_nnf(f: &Formula) -> Formula {
    ARENA.with(|arena| arena.formula(arena.nnf(arena.intern(f))))
}

/// Eliminates every quantifier in `formula`, producing an equivalent
/// quantifier-free formula.
pub(super) fn eliminate_quantifiers(formula: &Formula) -> Result<Formula, TranslateError> {
    let f = eliminate_rec(formula)?;
    Ok(simplify(&f))
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
fn eliminate_exists(var: &str, formula: &Formula) -> Result<Formula, TranslateError> {
    let nnf = to_nnf(&simplify(formula));
    if !nnf.int_vars().contains(var) {
        return Ok(simplify(&nnf));
    }
    let shape = CooperFormula::build(var, &nnf)?;
    Ok(simplify(&shape.eliminate()?))
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
