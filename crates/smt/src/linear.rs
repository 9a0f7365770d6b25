//! Linear integer expressions and translation from [`Term`]s.

use expresso_logic::{Ident, Interner, Term, TermId, TermNode, Valuation};
use std::collections::BTreeMap;
use std::fmt;

/// Errors produced while translating a [`Term`] or formula into the linear
/// fragment handled by the solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslateError {
    /// The term contains a product of two non-constant terms.
    NonLinear(String),
    /// The term reads from an array; array reads are uninterpreted and cannot
    /// be reasoned about by the arithmetic core.
    ArrayRead(Ident),
    /// A coefficient, constant or divisor left `i64` while the named step was
    /// scaling or combining atoms: whatever was computed past that point is
    /// not what was meant, so the procedure stops instead of answering.
    Overflow(String),
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::NonLinear(t) => write!(f, "non-linear term `{t}`"),
            TranslateError::ArrayRead(a) => write!(f, "uninterpreted array read from `{a}`"),
            TranslateError::Overflow(step) => write!(f, "64-bit overflow in {step}"),
        }
    }
}

impl std::error::Error for TranslateError {}

/// A linear expression `Σ coeffᵢ·varᵢ + constant` with integer coefficients.
///
/// The coefficient map never stores zero coefficients, which makes structural
/// equality coincide with semantic equality of the normal form.
///
/// Arithmetic saturates at the `i64` limits; an expression remembers whether
/// any step that built it did (see [`LinExpr::clamped`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct LinExpr {
    coeffs: BTreeMap<Ident, i64>,
    constant: i64,
    clamped: bool,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant(value: i64) -> Self {
        LinExpr {
            constant: value,
            ..LinExpr::default()
        }
    }

    /// The expression `1·var`.
    pub fn var(name: impl Into<Ident>) -> Self {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(name.into(), 1);
        LinExpr {
            coeffs,
            ..LinExpr::default()
        }
    }

    /// The expression with the given non-zero coefficients, constant and
    /// [`clamped`](Self::clamped) flag: how a compiled row turns back into
    /// the expression it was compiled from.
    pub(crate) fn from_parts(
        coeffs: impl IntoIterator<Item = (Ident, i64)>,
        constant: i64,
        clamped: bool,
    ) -> Self {
        LinExpr {
            coeffs: coeffs.into_iter().filter(|&(_, c)| c != 0).collect(),
            constant,
            clamped,
        }
    }

    /// Whether a step that built this expression overflowed `i64` and was
    /// clamped, so the stored coefficients may not be the intended ones. A
    /// procedure that must not conclude from a wrong row checks this first.
    pub fn clamped(&self) -> bool {
        self.clamped
    }

    /// Returns the constant part.
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    /// Returns the coefficient of `var` (zero when absent).
    pub fn coeff(&self, var: &str) -> i64 {
        self.coeffs.get(var).copied().unwrap_or(0)
    }

    /// Iterates over `(variable, coefficient)` pairs with non-zero coefficients.
    pub fn terms(&self) -> impl Iterator<Item = (&Ident, i64)> {
        self.coeffs.iter().map(|(v, c)| (v, *c))
    }

    /// Returns `true` when the expression has no variables.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Returns the variables with non-zero coefficients.
    pub fn vars(&self) -> Vec<Ident> {
        self.coeffs.keys().cloned().collect()
    }

    /// Adds another linear expression.
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        out.clamped |= other.clamped;
        out.add_constant(other.constant);
        for (v, c) in &other.coeffs {
            out.add_coeff(v.clone(), *c);
        }
        out
    }

    /// Subtracts another linear expression.
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        self.add(&other.scale(-1))
    }

    /// Multiplies every coefficient and the constant by `factor`.
    pub fn scale(&self, factor: i64) -> LinExpr {
        if factor == 0 {
            return LinExpr::zero();
        }
        let mut clamped = self.clamped;
        let mut mul = |c: i64| {
            c.checked_mul(factor).unwrap_or_else(|| {
                clamped = true;
                c.saturating_mul(factor)
            })
        };
        let coeffs = self
            .coeffs
            .iter()
            .map(|(v, c)| (v.clone(), mul(*c)))
            .collect();
        let constant = mul(self.constant);
        LinExpr {
            coeffs,
            constant,
            clamped,
        }
    }

    /// Adds `delta` to the coefficient of `var`, dropping it when it becomes zero.
    pub fn add_coeff(&mut self, var: Ident, delta: i64) {
        let entry = self.coeffs.entry(var).or_insert(0);
        self.clamped |= entry.checked_add(delta).is_none();
        *entry = entry.saturating_add(delta);
        if *entry == 0 {
            self.coeffs.retain(|_, c| *c != 0);
        }
    }

    /// Adds `delta` to the constant part.
    pub fn add_constant(&mut self, delta: i64) {
        self.clamped |= self.constant.checked_add(delta).is_none();
        self.constant = self.constant.saturating_add(delta);
    }

    /// Removes `var` from the expression, returning its former coefficient.
    pub fn remove_var(&mut self, var: &str) -> i64 {
        self.coeffs.remove(var).unwrap_or(0)
    }

    /// The greatest common divisor of the variable coefficients (zero when
    /// there are none).
    pub fn coeff_gcd(&self) -> i64 {
        self.coeffs.values().fold(0i64, |acc, c| gcd(acc, c.abs()))
    }

    /// Evaluates the expression under a valuation.
    ///
    /// # Errors
    ///
    /// Returns the name of the first unbound variable.
    pub fn eval(&self, valuation: &Valuation) -> Result<i64, Ident> {
        let mut total = self.constant;
        for (v, c) in &self.coeffs {
            let value = valuation.int(v).ok_or_else(|| v.clone())?;
            total = total.saturating_add(c.saturating_mul(value));
        }
        Ok(total)
    }

    /// Converts the expression back to a [`Term`].
    pub fn to_term(&self) -> Term {
        let mut parts: Vec<Term> = Vec::new();
        for (v, c) in &self.coeffs {
            let var = Term::var(v.clone());
            let part = match *c {
                1 => var,
                -1 => var.neg(),
                c => Term::int(c).mul(var),
            };
            parts.push(part);
        }
        if self.constant != 0 || parts.is_empty() {
            parts.push(Term::int(self.constant));
        }
        match parts.len() {
            1 => parts.pop().expect("len checked"),
            _ => Term::Add(parts),
        }
    }

    /// Translates a [`Term`] into a linear expression.
    ///
    /// # Errors
    ///
    /// Returns [`TranslateError::NonLinear`] for products of two non-constant
    /// terms and [`TranslateError::ArrayRead`] for array reads.
    pub fn from_term(term: &Term) -> Result<LinExpr, TranslateError> {
        match term {
            Term::Int(v) => Ok(LinExpr::constant(*v)),
            Term::Var(v) => Ok(LinExpr::var(v.clone())),
            Term::Add(parts) => {
                let mut out = LinExpr::zero();
                for p in parts {
                    out = out.add(&LinExpr::from_term(p)?);
                }
                Ok(out)
            }
            Term::Sub(a, b) => Ok(LinExpr::from_term(a)?.sub(&LinExpr::from_term(b)?)),
            Term::Neg(a) => Ok(LinExpr::from_term(a)?.scale(-1)),
            Term::Mul(a, b) => {
                let la = LinExpr::from_term(a)?;
                let lb = LinExpr::from_term(b)?;
                if la.is_constant() {
                    Ok(lb.scale(la.constant))
                } else if lb.is_constant() {
                    Ok(la.scale(lb.constant))
                } else {
                    Err(TranslateError::NonLinear(term.to_string()))
                }
            }
            Term::Select(arr, _) => Err(TranslateError::ArrayRead(arr.clone())),
        }
    }

    /// [`LinExpr::from_term`] of the interned term `t`, without building its
    /// tree (but for the message of a non-linear product).
    ///
    /// # Errors
    ///
    /// As [`LinExpr::from_term`].
    pub(crate) fn from_term_id(interner: &Interner, t: TermId) -> Result<LinExpr, TranslateError> {
        Ok(match interner.term_node_ref(t) {
            TermNode::Int(v) => LinExpr::constant(*v),
            TermNode::Var(v) => LinExpr::var(v.clone()),
            TermNode::Add(parts) => {
                let mut out = LinExpr::zero();
                for &p in parts {
                    out = out.add(&LinExpr::from_term_id(interner, p)?);
                }
                out
            }
            TermNode::Sub(a, b) => {
                let la = LinExpr::from_term_id(interner, *a)?;
                la.sub(&LinExpr::from_term_id(interner, *b)?)
            }
            TermNode::Neg(a) => LinExpr::from_term_id(interner, *a)?.scale(-1),
            TermNode::Mul(a, b) => {
                let la = LinExpr::from_term_id(interner, *a)?;
                let lb = LinExpr::from_term_id(interner, *b)?;
                if la.is_constant() {
                    lb.scale(la.constant)
                } else if lb.is_constant() {
                    la.scale(lb.constant)
                } else {
                    return Err(TranslateError::NonLinear(interner.term(t).to_string()));
                }
            }
            TermNode::Select(arr, _) => return Err(TranslateError::ArrayRead(arr.clone())),
        })
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_term())
    }
}

/// Greatest common divisor of two non-negative integers.
pub fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Least common multiple of two non-negative integers (zero when either is);
/// `None` when it does not fit in `i64`.
pub fn lcm(a: i64, b: i64) -> Option<i64> {
    if a == 0 || b == 0 {
        return Some(0);
    }
    (a / gcd(a, b)).checked_mul(b)
}

/// Floor division (rounds towards negative infinity).
pub fn div_floor(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_term_normalizes() {
        // 2*x + 3 - x  ==  x + 3
        let t = Term::int(2)
            .mul(Term::var("x"))
            .add(Term::int(3))
            .sub(Term::var("x"));
        let e = LinExpr::from_term(&t).expect("linear");
        assert_eq!(e.coeff("x"), 1);
        assert_eq!(e.constant_part(), 3);
    }

    #[test]
    fn zero_coefficients_are_dropped() {
        let t = Term::var("x").sub(Term::var("x"));
        let e = LinExpr::from_term(&t).expect("linear");
        assert!(e.is_constant());
        assert_eq!(e, LinExpr::constant(0));
    }

    #[test]
    fn nonlinear_products_are_rejected() {
        let t = Term::var("x").mul(Term::var("y"));
        assert!(matches!(
            LinExpr::from_term(&t),
            Err(TranslateError::NonLinear(_))
        ));
    }

    #[test]
    fn array_reads_are_rejected() {
        let t = Term::select("buf", Term::var("i"));
        assert_eq!(
            LinExpr::from_term(&t),
            Err(TranslateError::ArrayRead("buf".into()))
        );
    }

    #[test]
    fn eval_matches_term_eval() {
        let t = Term::int(3)
            .mul(Term::var("x"))
            .add(Term::var("y"))
            .sub(Term::int(7));
        let e = LinExpr::from_term(&t).expect("linear");
        let mut v = Valuation::new();
        v.set_int("x", 4).set_int("y", -2);
        assert_eq!(e.eval(&v), Ok(3 * 4 - 2 - 7));
        assert_eq!(v.eval_term(&t).unwrap(), e.eval(&v).unwrap());
    }

    #[test]
    fn to_term_round_trips() {
        let t = Term::int(2).mul(Term::var("x")).add(Term::int(5));
        let e = LinExpr::from_term(&t).expect("linear");
        let back = LinExpr::from_term(&e.to_term()).expect("linear");
        assert_eq!(e, back);
    }

    #[test]
    fn gcd_lcm_div_floor() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(lcm(4, 6), Some(12));
        assert_eq!(lcm(0, 6), Some(0));
        assert_eq!(lcm(i64::MAX, i64::MAX - 1), None);
        assert_eq!(div_floor(7, 2), 3);
        assert_eq!(div_floor(-7, 2), -4);
        assert_eq!(div_floor(7, -2), -4);
    }

    #[test]
    fn interned_terms_translate_as_their_trees_do() {
        use expresso_logic::Lcg;
        fn term(rng: &mut Lcg, depth: usize) -> Term {
            let leaf = |rng: &mut Lcg| match rng.below(4) {
                0 => Term::int(rng.below(7) as i64 - 3),
                1 => Term::int([i64::MAX, i64::MIN, 1 << 62][rng.index(3)]),
                _ => Term::var(["x", "y"][rng.index(2)]),
            };
            if depth == 0 {
                return leaf(rng);
            }
            let sub = |rng: &mut Lcg| term(rng, depth - 1);
            match rng.below(6) {
                0 => Term::Add((0..1 + rng.index(3)).map(|_| sub(rng)).collect()),
                1 => sub(rng).sub(sub(rng)),
                2 => sub(rng).neg(),
                3 => sub(rng).mul(sub(rng)),
                4 => Term::select("buf", sub(rng)),
                _ => leaf(rng),
            }
        }
        let interner = Interner::new();
        let mut rng = Lcg::new(0x7E_4A5);
        for _ in 0..500 {
            let t = term(&mut rng, 3);
            let id = interner.intern_term(&t);
            assert_eq!(
                LinExpr::from_term_id(&interner, id),
                LinExpr::from_term(&t),
                "{t}"
            );
        }
    }

    #[test]
    fn coeff_gcd_ignores_constant() {
        let t = Term::int(4)
            .mul(Term::var("x"))
            .add(Term::int(6).mul(Term::var("y")))
            .add(Term::int(3));
        let e = LinExpr::from_term(&t).expect("linear");
        assert_eq!(e.coeff_gcd(), 2);
    }
}
