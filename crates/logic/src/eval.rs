//! Concrete evaluation of terms and formulas.

use crate::formula::{Formula, Quantifier};
use crate::intern::{FormulaId, FormulaNode, Interner, TermId, TermNode};
use crate::term::Term;
use crate::Ident;
use std::collections::HashMap;
use std::fmt;

/// Errors produced while evaluating a term or formula under a [`Valuation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// An integer variable had no value in the valuation.
    UnboundInt(Ident),
    /// A boolean variable had no value in the valuation.
    UnboundBool(Ident),
    /// An array read referenced an unknown array or an out-of-bounds index.
    BadArrayAccess(Ident, i64),
    /// The formula contained a quantifier; concrete evaluation only supports
    /// quantifier-free formulas.
    Quantified,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundInt(v) => write!(f, "unbound integer variable `{v}`"),
            EvalError::UnboundBool(v) => write!(f, "unbound boolean variable `{v}`"),
            EvalError::BadArrayAccess(a, i) => write!(f, "invalid array access `{a}[{i}]`"),
            EvalError::Quantified => write!(f, "cannot evaluate a quantified formula"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A concrete assignment of values to integer variables, boolean variables
/// and arrays.
///
/// Valuations model a single thread's view of the monitor state: the shared
/// fields plus that thread's local variables. They are used by the trace
/// semantics (`expresso-semantics`), the runtime interpreter
/// (`expresso-runtime`) and by tests that cross-check the SMT solver against
/// brute-force evaluation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Valuation {
    ints: HashMap<Ident, i64>,
    bools: HashMap<Ident, bool>,
    arrays: HashMap<Ident, Vec<i64>>,
}

impl Valuation {
    /// Creates an empty valuation.
    pub fn new() -> Self {
        Valuation::default()
    }

    /// Sets an integer variable, returning `&mut self` for chaining.
    pub fn set_int(&mut self, var: impl Into<Ident>, value: i64) -> &mut Self {
        self.ints.insert(var.into(), value);
        self
    }

    /// Sets a boolean variable, returning `&mut self` for chaining.
    pub fn set_bool(&mut self, var: impl Into<Ident>, value: bool) -> &mut Self {
        self.bools.insert(var.into(), value);
        self
    }

    /// Sets an array, returning `&mut self` for chaining.
    pub fn set_array(&mut self, var: impl Into<Ident>, values: Vec<i64>) -> &mut Self {
        self.arrays.insert(var.into(), values);
        self
    }

    /// Looks up an integer variable.
    pub fn int(&self, var: &str) -> Option<i64> {
        self.ints.get(var).copied()
    }

    /// Looks up a boolean variable.
    pub fn boolean(&self, var: &str) -> Option<bool> {
        self.bools.get(var).copied()
    }

    /// Looks up an array.
    pub fn array(&self, var: &str) -> Option<&Vec<i64>> {
        self.arrays.get(var)
    }

    /// Returns a mutable reference to an array, if present.
    pub fn array_mut(&mut self, var: &str) -> Option<&mut Vec<i64>> {
        self.arrays.get_mut(var)
    }

    /// Iterates over the integer bindings.
    pub fn ints(&self) -> impl Iterator<Item = (&Ident, &i64)> {
        self.ints.iter()
    }

    /// Iterates over the boolean bindings.
    pub fn bools(&self) -> impl Iterator<Item = (&Ident, &bool)> {
        self.bools.iter()
    }

    /// Iterates over the array bindings.
    pub fn arrays(&self) -> impl Iterator<Item = (&Ident, &Vec<i64>)> {
        self.arrays.iter()
    }

    /// Merges `other` into `self`, with `other` taking precedence on conflicts.
    pub fn extend_with(&mut self, other: &Valuation) {
        for (k, v) in &other.ints {
            self.ints.insert(k.clone(), *v);
        }
        for (k, v) in &other.bools {
            self.bools.insert(k.clone(), *v);
        }
        for (k, v) in &other.arrays {
            self.arrays.insert(k.clone(), v.clone());
        }
    }

    /// Evaluates an integer term.
    ///
    /// # Errors
    ///
    /// Returns an error if the term mentions an unbound variable or performs
    /// an invalid array access.
    pub fn eval_term(&self, term: &Term) -> Result<i64, EvalError> {
        match term {
            Term::Int(v) => Ok(*v),
            Term::Var(v) => self
                .ints
                .get(v)
                .copied()
                .ok_or_else(|| EvalError::UnboundInt(v.clone())),
            Term::Add(parts) => {
                let mut sum = 0i64;
                for p in parts {
                    sum = sum.wrapping_add(self.eval_term(p)?);
                }
                Ok(sum)
            }
            Term::Sub(a, b) => Ok(self.eval_term(a)?.wrapping_sub(self.eval_term(b)?)),
            Term::Neg(a) => Ok(self.eval_term(a)?.wrapping_neg()),
            Term::Mul(a, b) => Ok(self.eval_term(a)?.wrapping_mul(self.eval_term(b)?)),
            Term::Select(arr, idx) => {
                let i = self.eval_term(idx)?;
                let values = self
                    .arrays
                    .get(arr)
                    .ok_or_else(|| EvalError::BadArrayAccess(arr.clone(), i))?;
                usize::try_from(i)
                    .ok()
                    .and_then(|i| values.get(i).copied())
                    .ok_or_else(|| EvalError::BadArrayAccess(arr.clone(), i))
            }
        }
    }

    /// Evaluates a quantifier-free formula.
    ///
    /// # Errors
    ///
    /// Returns an error if the formula mentions an unbound variable, performs
    /// an invalid array access, or contains a quantifier.
    pub fn eval(&self, formula: &Formula) -> Result<bool, EvalError> {
        match formula {
            Formula::True => Ok(true),
            Formula::False => Ok(false),
            Formula::BoolVar(b) => self
                .bools
                .get(b)
                .copied()
                .ok_or_else(|| EvalError::UnboundBool(b.clone())),
            Formula::Cmp(op, lhs, rhs) => Ok(op.eval(self.eval_term(lhs)?, self.eval_term(rhs)?)),
            Formula::Divides(d, t) => Ok(self.eval_term(t)?.rem_euclid(*d as i64) == 0),
            Formula::Not(inner) => Ok(!self.eval(inner)?),
            Formula::And(parts) => {
                for p in parts {
                    if !self.eval(p)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Formula::Or(parts) => {
                for p in parts {
                    if self.eval(p)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Formula::Implies(a, b) => Ok(!self.eval(a)? || self.eval(b)?),
            Formula::Iff(a, b) => Ok(self.eval(a)? == self.eval(b)?),
            Formula::Quant(Quantifier::Forall, _, _) | Formula::Quant(Quantifier::Exists, _, _) => {
                Err(EvalError::Quantified)
            }
        }
    }
}

/// Variable values an interned formula is evaluated under by
/// [`Interner::eval`]. `None` is "no value": the evaluation of whatever reads
/// it is unknown, never a guess.
pub trait Env {
    /// The value of an integer variable.
    fn int(&self, var: &str) -> Option<i64>;
    /// The value of a boolean variable.
    fn boolean(&self, var: &str) -> Option<bool>;
    /// The element `array[index]`.
    fn select(&self, array: &str, index: i64) -> Option<i64>;
}

impl Env for Valuation {
    fn int(&self, var: &str) -> Option<i64> {
        Valuation::int(self, var)
    }

    fn boolean(&self, var: &str) -> Option<bool> {
        Valuation::boolean(self, var)
    }

    fn select(&self, array: &str, index: i64) -> Option<i64> {
        let values = self.arrays.get(array)?;
        values.get(usize::try_from(index).ok()?).copied()
    }
}

impl Interner {
    /// Evaluates an interned formula under `env` in Kleene's three-valued
    /// logic, walking the arena's nodes (no tree is rebuilt). `None` means
    /// unknown: an unbound variable, an array read out of bounds, integer
    /// overflow (arithmetic is exact, not wrapping) or a quantifier. A
    /// connective still decides when its known operands do — `false && ?` is
    /// `false` — so `Some(false)` is a proof that `env` falsifies `f`.
    pub fn eval(&self, f: FormulaId, env: &dyn Env) -> Option<bool> {
        match self.node_ref(f) {
            FormulaNode::True => Some(true),
            FormulaNode::False => Some(false),
            FormulaNode::BoolVar(b) => env.boolean(b),
            FormulaNode::Cmp(op, lhs, rhs) => {
                Some(op.eval(self.eval_term(*lhs, env)?, self.eval_term(*rhs, env)?))
            }
            FormulaNode::Divides(d, t) => {
                let d = i64::try_from(*d).ok().filter(|&d| d > 0)?;
                Some(self.eval_term(*t, env)?.rem_euclid(d) == 0)
            }
            FormulaNode::Not(inner) => self.eval(*inner, env).map(|b| !b),
            FormulaNode::And(parts) => self.eval_all(parts.iter().copied(), false, env),
            FormulaNode::Or(parts) => self.eval_all(parts.iter().copied(), true, env),
            FormulaNode::Implies(a, b) => match (self.eval(*a, env), self.eval(*b, env)) {
                (Some(false), _) | (_, Some(true)) => Some(true),
                (Some(true), Some(false)) => Some(false),
                _ => None,
            },
            FormulaNode::Iff(a, b) => Some(self.eval(*a, env)? == self.eval(*b, env)?),
            FormulaNode::Quant(..) => None,
        }
    }

    /// A conjunction (`decisive == false`) or disjunction (`decisive ==
    /// true`): the decisive value wins over unknown operands.
    fn eval_all(
        &self,
        parts: impl Iterator<Item = FormulaId>,
        decisive: bool,
        env: &dyn Env,
    ) -> Option<bool> {
        let mut known = true;
        for part in parts {
            match self.eval(part, env) {
                Some(value) if value == decisive => return Some(decisive),
                Some(_) => {}
                None => known = false,
            }
        }
        known.then_some(!decisive)
    }

    /// Evaluates an interned term under `env`; `None` as in
    /// [`Interner::eval`].
    fn eval_term(&self, t: TermId, env: &dyn Env) -> Option<i64> {
        match self.term_node_ref(t) {
            TermNode::Int(v) => Some(*v),
            TermNode::Var(v) => env.int(v),
            TermNode::Add(parts) => parts
                .iter()
                .try_fold(0i64, |sum, &p| sum.checked_add(self.eval_term(p, env)?)),
            TermNode::Sub(a, b) => self
                .eval_term(*a, env)?
                .checked_sub(self.eval_term(*b, env)?),
            TermNode::Neg(a) => self.eval_term(*a, env)?.checked_neg(),
            TermNode::Mul(a, b) => self
                .eval_term(*a, env)?
                .checked_mul(self.eval_term(*b, env)?),
            TermNode::Select(array, index) => env.select(array, self.eval_term(*index, env)?),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Term;

    fn valuation() -> Valuation {
        let mut v = Valuation::new();
        v.set_int("readers", 2)
            .set_bool("writerIn", false)
            .set_array("buf", vec![10, 20, 30]);
        v
    }

    #[test]
    fn evaluates_arithmetic() {
        let v = valuation();
        let t = Term::var("readers").add(Term::int(3)).mul(Term::int(2));
        assert_eq!(v.eval_term(&t), Ok(10));
    }

    #[test]
    fn evaluates_comparisons_and_connectives() {
        let v = valuation();
        let f = Formula::and(vec![
            Term::var("readers").gt(Term::int(0)),
            Formula::not(Formula::bool_var("writerIn")),
        ]);
        assert_eq!(v.eval(&f), Ok(true));
    }

    #[test]
    fn evaluates_array_reads() {
        let v = valuation();
        let f = Term::select("buf", Term::int(1)).eq(Term::int(20));
        assert_eq!(v.eval(&f), Ok(true));
    }

    #[test]
    fn reports_unbound_variables() {
        let v = valuation();
        assert_eq!(
            v.eval(&Formula::bool_var("missing")),
            Err(EvalError::UnboundBool("missing".into()))
        );
        assert_eq!(
            v.eval_term(&Term::var("missing")),
            Err(EvalError::UnboundInt("missing".into()))
        );
    }

    #[test]
    fn reports_out_of_bounds_array_access() {
        let v = valuation();
        assert_eq!(
            v.eval_term(&Term::select("buf", Term::int(9))),
            Err(EvalError::BadArrayAccess("buf".into(), 9))
        );
    }

    #[test]
    fn refuses_quantifiers() {
        let v = valuation();
        let f = Formula::forall(vec!["x".into()], Term::var("x").ge(Term::int(0)));
        assert_eq!(v.eval(&f), Err(EvalError::Quantified));
    }

    /// On every sample formula and a grid of small states, the arena
    /// evaluator gives the tree evaluator's value wherever the tree evaluator
    /// gives one (no arithmetic here comes near overflow).
    #[test]
    fn interned_evaluation_agrees_with_the_tree_evaluator() {
        let arena = Interner::new();
        let mut decided = 0;
        for f in crate::random_formulas::samples() {
            let id = arena.intern(&f);
            for x in -2..=2 {
                for y in -1..=1 {
                    let mut v = Valuation::new();
                    v.set_int("x", x)
                        .set_int("y", y)
                        .set_int("z", x - y)
                        .set_int("n", 3)
                        .set_bool("p", x > 0)
                        .set_bool("q", y == 0)
                        .set_bool("r", true)
                        .set_array("buf", vec![4, -1, 0]);
                    if let Ok(tree) = v.eval(&f) {
                        assert_eq!(arena.eval(id, &v), Some(tree), "{f} at x={x}, y={y}");
                        decided += 1;
                    }
                }
            }
        }
        assert!(decided > 1000, "only {decided} evaluations decided");
    }

    #[test]
    fn interned_evaluation_is_three_valued_and_exact() {
        let arena = Interner::new();
        let mut v = Valuation::new();
        v.set_int("x", i64::MAX);
        let unbound = Term::var("missing").ge(Term::int(0));
        let falsified = Formula::and(vec![unbound.clone(), Formula::False]);
        assert_eq!(arena.eval(arena.intern(&falsified), &v), Some(false));
        let unknown = Formula::and(vec![unbound.clone(), Formula::True]);
        assert_eq!(arena.eval(arena.intern(&unknown), &v), None);
        let satisfied = Formula::or(vec![unbound, Formula::True]);
        assert_eq!(arena.eval(arena.intern(&satisfied), &v), Some(true));
        // Wrapping would make `x + 1 > x` false; exact arithmetic refuses.
        let overflow = Term::var("x").add(Term::int(1)).gt(Term::var("x"));
        assert_eq!(v.eval(&overflow), Ok(false));
        assert_eq!(arena.eval(arena.intern(&overflow), &v), None);
    }

    #[test]
    fn divides_evaluation_uses_euclidean_remainder() {
        let mut v = Valuation::new();
        v.set_int("x", -4);
        assert_eq!(v.eval(&Formula::divides(2, Term::var("x"))), Ok(true));
        v.set_int("x", -3);
        assert_eq!(v.eval(&Formula::divides(2, Term::var("x"))), Ok(false));
    }
}
