//! Lowering of monitor expressions into the logical fragment of `expresso-logic`.

use crate::ast::{BinOp, Expr, UnOp};
use crate::check::VarTable;
use crate::Type;
use expresso_logic::{CmpOp, Formula, Term};
use std::fmt;

/// Errors produced while lowering an expression to a term or formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// A boolean expression appeared where an integer term was expected, or
    /// vice versa.
    SortMismatch(String),
    /// An unsupported construct (e.g. `%` with a non-constant divisor).
    Unsupported(String),
    /// An undeclared variable.
    Undeclared(String),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::SortMismatch(m) => write!(f, "sort mismatch: {m}"),
            LowerError::Unsupported(m) => write!(f, "unsupported construct: {m}"),
            LowerError::Undeclared(m) => write!(f, "undeclared variable `{m}`"),
        }
    }
}

impl std::error::Error for LowerError {}

/// Lowers an integer-typed expression to a [`Term`].
///
/// # Errors
///
/// Fails when the expression is boolean-typed, mentions an undeclared
/// variable, or uses an unsupported construct.
pub fn expr_to_term(expr: &Expr, table: &VarTable) -> Result<Term, LowerError> {
    match expr {
        Expr::Int(v) => Ok(Term::int(*v)),
        Expr::Bool(_) => Err(LowerError::SortMismatch(format!(
            "boolean literal `{expr}` used as an integer"
        ))),
        Expr::Var(name) => match table.ty(name) {
            Some(Type::Int) => Ok(Term::var(name.clone())),
            Some(Type::Bool) => Err(LowerError::SortMismatch(format!(
                "boolean variable `{name}` used as an integer"
            ))),
            Some(Type::IntArray) => Err(LowerError::SortMismatch(format!(
                "array `{name}` used as a scalar"
            ))),
            None => Err(LowerError::Undeclared(name.clone())),
        },
        Expr::Index(array, index) => Ok(Term::select(array.clone(), expr_to_term(index, table)?)),
        Expr::Unary(UnOp::Neg, inner) => Ok(expr_to_term(inner, table)?.neg()),
        Expr::Unary(UnOp::Not, _) => Err(LowerError::SortMismatch(format!(
            "boolean expression `{expr}` used as an integer"
        ))),
        Expr::Binary(op, lhs, rhs) => match op {
            BinOp::Add => Ok(expr_to_term(lhs, table)?.add(expr_to_term(rhs, table)?)),
            BinOp::Sub => Ok(expr_to_term(lhs, table)?.sub(expr_to_term(rhs, table)?)),
            BinOp::Mul => Ok(expr_to_term(lhs, table)?.mul(expr_to_term(rhs, table)?)),
            BinOp::Rem => Err(LowerError::Unsupported(format!(
                "`%` is only supported in comparisons against a constant: `{expr}`"
            ))),
            _ => Err(LowerError::SortMismatch(format!(
                "boolean expression `{expr}` used as an integer"
            ))),
        },
    }
}

/// Lowers a boolean-typed expression to a [`Formula`].
///
/// The special pattern `e % k == c` (and its `!=` variant) is translated to a
/// divisibility atom so that guards like "every second item" stay within
/// Presburger arithmetic.
///
/// # Errors
///
/// Fails when the expression is integer-typed, mentions an undeclared
/// variable, or uses an unsupported construct.
pub fn expr_to_formula(expr: &Expr, table: &VarTable) -> Result<Formula, LowerError> {
    match expr {
        Expr::Bool(b) => Ok(if *b { Formula::True } else { Formula::False }),
        Expr::Int(_) => Err(LowerError::SortMismatch(format!(
            "integer literal `{expr}` used as a boolean"
        ))),
        Expr::Var(name) => match table.ty(name) {
            Some(Type::Bool) => Ok(Formula::bool_var(name.clone())),
            Some(Type::Int) => Err(LowerError::SortMismatch(format!(
                "integer variable `{name}` used as a boolean"
            ))),
            Some(Type::IntArray) => Err(LowerError::SortMismatch(format!(
                "array `{name}` used as a boolean"
            ))),
            None => Err(LowerError::Undeclared(name.clone())),
        },
        Expr::Index(..) => Err(LowerError::SortMismatch(format!(
            "array element `{expr}` used as a boolean"
        ))),
        Expr::Unary(UnOp::Not, inner) => Ok(Formula::not(expr_to_formula(inner, table)?)),
        Expr::Unary(UnOp::Neg, _) => Err(LowerError::SortMismatch(format!(
            "integer expression `{expr}` used as a boolean"
        ))),
        Expr::Binary(op, lhs, rhs) => match op {
            BinOp::And => Ok(Formula::and(vec![
                expr_to_formula(lhs, table)?,
                expr_to_formula(rhs, table)?,
            ])),
            BinOp::Or => Ok(Formula::or(vec![
                expr_to_formula(lhs, table)?,
                expr_to_formula(rhs, table)?,
            ])),
            BinOp::Eq | BinOp::Ne => {
                // Boolean equality becomes (negated) bi-implication.
                let lhs_is_bool = matches!(crate::check::infer_type(lhs, table), Ok(Type::Bool));
                if lhs_is_bool {
                    let f =
                        Formula::iff(expr_to_formula(lhs, table)?, expr_to_formula(rhs, table)?);
                    return Ok(if *op == BinOp::Eq { f } else { Formula::not(f) });
                }
                // e % k == c  →  divisibility atom.
                if let Some(div) = rem_pattern(lhs, rhs, table)? {
                    return Ok(if *op == BinOp::Eq {
                        div
                    } else {
                        Formula::not(div)
                    });
                }
                let cmp = if *op == BinOp::Eq {
                    CmpOp::Eq
                } else {
                    CmpOp::Ne
                };
                Ok(Formula::cmp(
                    cmp,
                    expr_to_term(lhs, table)?,
                    expr_to_term(rhs, table)?,
                ))
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let cmp = match op {
                    BinOp::Lt => CmpOp::Lt,
                    BinOp::Le => CmpOp::Le,
                    BinOp::Gt => CmpOp::Gt,
                    _ => CmpOp::Ge,
                };
                Ok(Formula::cmp(
                    cmp,
                    expr_to_term(lhs, table)?,
                    expr_to_term(rhs, table)?,
                ))
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Rem => Err(LowerError::SortMismatch(
                format!("integer expression `{expr}` used as a boolean"),
            )),
        },
    }
}

/// Recognises `a % k` compared against a constant `c`, returning `k | (a - c)`.
/// The remainder is Euclidean (in `0..k`, as the interpreter computes it), so
/// a `c` outside that range is never equal to it: the atom is `false`.
fn rem_pattern(lhs: &Expr, rhs: &Expr, table: &VarTable) -> Result<Option<Formula>, LowerError> {
    if let Expr::Binary(BinOp::Rem, a, k) = lhs {
        if let (Expr::Int(k), Expr::Int(c)) = (k.as_ref(), rhs) {
            if *k > 0 {
                let dividend = expr_to_term(a, table)?;
                if !(0..*k).contains(c) {
                    return Ok(Some(Formula::False));
                }
                let dividend = dividend.sub(Term::int(*c));
                return Ok(Some(Formula::divides(*k as u64, dividend)));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_monitor;
    use crate::parser::{parse_expr, parse_monitor};

    fn table() -> VarTable {
        let m = parse_monitor(
            r#"
            monitor M(int capacity) {
                int count = 0;
                bool stopped = false;
                int[] buf = new int[capacity];
                atomic void f(int item) { count = count + item; }
            }
            "#,
        )
        .unwrap();
        check_monitor(&m).unwrap()
    }

    #[test]
    fn lowers_arithmetic_comparisons() {
        let t = table();
        let e = parse_expr("count + 1 < capacity").unwrap();
        let f = expr_to_formula(&e, &t).unwrap();
        assert_eq!(f.to_string(), "(count + 1) < capacity");
    }

    #[test]
    fn lowers_boolean_structure() {
        let t = table();
        let e = parse_expr("count == 0 && !stopped").unwrap();
        let f = expr_to_formula(&e, &t).unwrap();
        assert_eq!(f.to_string(), "(count == 0 && !stopped)");
    }

    #[test]
    fn boolean_equality_becomes_iff() {
        let t = table();
        let e = parse_expr("stopped == false").unwrap();
        let f = expr_to_formula(&e, &t).unwrap();
        assert!(matches!(f, Formula::Iff(..)));
    }

    #[test]
    fn rem_comparison_becomes_divisibility() {
        let t = table();
        let e = parse_expr("count % 2 == 0").unwrap();
        let f = expr_to_formula(&e, &t).unwrap();
        assert!(matches!(f, Formula::Divides(2, _)));
        let e = parse_expr("count % 3 != 1").unwrap();
        let f = expr_to_formula(&e, &t).unwrap();
        assert!(matches!(f, Formula::Not(_)));
    }

    /// The lowered `%` comparison means what the interpreter computes, also
    /// for a constant outside the remainder's range `0..k`.
    #[test]
    fn rem_comparison_agrees_with_the_interpreter() {
        let t = table();
        let interp = crate::interp::Interpreter::new(&t);
        for k in 1..=4 {
            for c in 0..=6 {
                for op in ["==", "!="] {
                    let e = parse_expr(&format!("count % {k} {op} {c}")).unwrap();
                    let f = expr_to_formula(&e, &t).unwrap();
                    for x in -6..=6 {
                        let mut state = expresso_logic::Valuation::new();
                        state.set_int("count", x);
                        assert_eq!(
                            state.eval(&f).unwrap(),
                            interp.eval_bool(&e, &state).unwrap(),
                            "`{e}` lowered to `{f}` at count = {x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn array_reads_become_selects() {
        let t = table();
        let e = parse_expr("buf[count] > 0").unwrap();
        let f = expr_to_formula(&e, &t).unwrap();
        assert_eq!(f.to_string(), "buf[count] > 0");
    }

    #[test]
    fn sort_mismatches_are_rejected() {
        let t = table();
        let e = parse_expr("count && stopped").unwrap();
        assert!(matches!(
            expr_to_formula(&e, &t),
            Err(LowerError::SortMismatch(_))
        ));
        let e = parse_expr("stopped + 1").unwrap();
        assert!(matches!(
            expr_to_term(&e, &t),
            Err(LowerError::SortMismatch(_))
        ));
    }

    #[test]
    fn undeclared_variables_are_rejected() {
        let t = table();
        let e = parse_expr("ghost > 0").unwrap();
        assert!(matches!(
            expr_to_formula(&e, &t),
            Err(LowerError::Undeclared(_))
        ));
    }
}
