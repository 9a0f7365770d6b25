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
//! # On ids, one variable at a time
//!
//! The procedure runs on interned formulas end to end; no formula tree is
//! built, at a binder or anywhere else. Quantifier-free subformulas are
//! walked as a DAG, and a quantifier's binders are eliminated one at a time,
//! innermost first. A *step* eliminates one variable `x` from the negation
//! normal form of its simplified matrix, both memoized per node
//! (`Interner::simplify_as_tree`, `Interner::nnf`):
//!
//! * only the atoms that mention `x` are read, and each is compiled once per
//!   solver to the linear forms of its terms — so finding `x`'s coefficient
//!   in an atom is a lookup, and an atom whose terms leave the linear
//!   fragment answers with its translation error;
//! * a subformula that does not mention `x` stays one id, in every instance;
//! * the instances are built with the arena's constructors, and the step's
//!   answer is their `Interner::simplify_as_tree`.
//!
//! Steps simplify as a pass over the tree would, never with
//! `Interner::simplify`, which takes every answer it records for a normal
//! form: a step re-simplifies the answer of the step before, and a second
//! pass can fold further than the first (`(g + 1) + 1` becomes `g + 1 + 1`,
//! then `g + 2`). Every step is the id the textbook procedure over trees
//! gives: a test-only tree version is kept as the reference, and a seeded
//! property test holds the two to each other and to brute force.
//!
//! # An arena of its own, and a memo of steps
//!
//! The matrices, instances and intermediate answers live in an arena the
//! solver keeps for the procedure ([`Qe`]), not in the one its queries are
//! interned in. A quantifier's matrix is imported into it, and only the
//! answer goes back, created node by node as interning the answer's tree
//! would create it. The shared arena thus sees exactly what it saw when the
//! procedure ran on trees, and that matters beyond memory: an id's number is
//! its creation order, and the DPLL(T) loop files a theory lemma under its
//! lowest-numbered atom and adds lemma clauses in that order, so atoms
//! created in another order change the rounds later queries take (the
//! Table 1 suite pass, 1 348 rounds today, took 1 367 instead of 1 355
//! over an earlier query stream when an id's low bits still held a hash of
//! its node).
//!
//! The solver remembers each step it ran, (variable, matrix) → answer, and
//! runs no step twice: abduction eliminates over many variable subsets, and
//! subsets that share their innermost binders share their first steps. The
//! memo is not persisted — a step is a function of the procedure's arena,
//! which lives and dies with the solver, and the solver's whole-formula
//! elimination memo is what the artifact carries.
//!
//! # Overflow
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
    CmpOp, FormulaId, FormulaNode, FxHasher, Ident, Interner, Quantifier, TermId, TermNode,
};
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Hash tables keyed on arena ids, which need no DoS-resistant hashing.
type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
type FxSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// What Cooper's procedure keeps in a solver from one elimination to the
/// next: its arena beside the solver's (`home`), the atoms of its arena it
/// has compiled, and the steps it has run (see the module documentation).
#[derive(Debug)]
pub(crate) struct Qe {
    home: Arc<Interner>,
    arena: Interner,
    atoms: Mutex<FxMap<FormulaId, Arc<LinearAtom>>>,
    steps: Mutex<StepMemo>,
    steps_run: AtomicUsize,
    step_hits: AtomicUsize,
}

/// The single-variable eliminations run, by matrix and then variable (a
/// matrix is eliminated over a handful of variables at most).
type StepMemo = FxMap<FormulaId, Vec<(String, Result<FormulaId, TranslateError>)>>;

/// Why locking [`Qe`]'s tables cannot fail: no holder of a lock panics.
const QE_LOCK: &str = "no holder of a Cooper table panics";

impl Qe {
    /// The procedure's state for a solver whose formulas live in `home`.
    pub(crate) fn new(home: Arc<Interner>) -> Self {
        Qe {
            home,
            arena: Interner::new(),
            atoms: Mutex::default(),
            steps: Mutex::default(),
            steps_run: AtomicUsize::new(0),
            step_hits: AtomicUsize::new(0),
        }
    }

    /// The arena the procedure works in.
    pub(crate) fn arena(&self) -> &Interner {
        &self.arena
    }

    /// The formula `f` of the solver's arena, in the procedure's.
    pub(crate) fn import(&self, f: FormulaId) -> FormulaId {
        self.arena.import(&self.home, f)
    }

    /// Single-variable eliminations run, and answered by the step memo.
    pub(crate) fn step_counts(&self) -> (usize, usize) {
        let load = |c: &AtomicUsize| c.load(Ordering::Relaxed);
        (load(&self.steps_run), load(&self.step_hits))
    }

    /// Eliminates every quantifier of `f`, a formula of the solver's arena,
    /// producing an equivalent quantifier-free one there, normalised by
    /// that arena's `Interner::simplify`.
    ///
    /// # Errors
    ///
    /// Returns a [`TranslateError`] if an atom that mentions a quantified
    /// variable is non-linear or reads from an array — such formulas fall
    /// outside Presburger arithmetic and the caller must treat the query
    /// conservatively — or if an elimination overflowed or outgrew its
    /// budget.
    pub(crate) fn eliminate_quantifiers(&self, f: FormulaId) -> Result<FormulaId, TranslateError> {
        let eliminated = self.eliminate_rec(&self.home, f, &mut FxMap::default())?;
        Ok(self.home.simplify(eliminated))
    }

    /// Eliminates every quantifier of `closed`, a formula of the procedure's
    /// own arena, for the theory check, which only reads whether the answer
    /// is `true` or `false`. Like every step, the answer is normalised by
    /// `Interner::simplify_as_tree`.
    ///
    /// # Errors
    ///
    /// As [`Qe::eliminate_quantifiers`].
    pub(crate) fn decide(&self, closed: FormulaId) -> Result<FormulaId, TranslateError> {
        let eliminated = self.eliminate_rec(&self.arena, closed, &mut FxMap::default())?;
        Ok(self.arena.simplify_as_tree(eliminated))
    }

    /// Eliminates the quantifiers of `f`, a formula of `home`: the solver's
    /// arena or the procedure's own.
    fn eliminate_rec(
        &self,
        home: &Interner,
        f: FormulaId,
        memo: &mut FxMap<FormulaId, FormulaId>,
    ) -> Result<FormulaId, TranslateError> {
        if let Some(&done) = memo.get(&f) {
            return Ok(done);
        }
        let out = match home.node_ref(f) {
            FormulaNode::True
            | FormulaNode::False
            | FormulaNode::BoolVar(_)
            | FormulaNode::Cmp(..)
            | FormulaNode::Divides(..) => f,
            FormulaNode::Not(inner) => {
                let i = self.eliminate_rec(home, *inner, memo)?;
                home.mk_not(i)
            }
            FormulaNode::And(parts) => {
                let ids = parts
                    .iter()
                    .map(|&p| self.eliminate_rec(home, p, memo))
                    .collect::<Result<Vec<_>, _>>()?;
                home.mk_and(ids)
            }
            FormulaNode::Or(parts) => {
                let ids = parts
                    .iter()
                    .map(|&p| self.eliminate_rec(home, p, memo))
                    .collect::<Result<Vec<_>, _>>()?;
                home.mk_or(ids)
            }
            FormulaNode::Implies(a, b) => {
                let sa = self.eliminate_rec(home, *a, memo)?;
                let sb = self.eliminate_rec(home, *b, memo)?;
                home.mk_implies(sa, sb)
            }
            FormulaNode::Iff(a, b) => {
                let sa = self.eliminate_rec(home, *a, memo)?;
                let sb = self.eliminate_rec(home, *b, memo)?;
                home.mk_iff(sa, sb)
            }
            FormulaNode::Quant(q, vars, body) => {
                let body = self.eliminate_rec(home, *body, memo)?;
                let arena = &self.arena;
                let mut current = arena.import(home, body);
                // Eliminate the innermost binder first.
                for var in vars.iter().rev() {
                    current = match q {
                        Quantifier::Exists => self.exists_step(var, current)?,
                        Quantifier::Forall => {
                            let negated = arena.mk_not(current);
                            arena.mk_not(self.exists_step(var, negated)?)
                        }
                    };
                }
                home.import(arena, current)
            }
        };
        memo.insert(f, out);
        Ok(out)
    }

    /// Eliminates `var` from the quantifier-free `matrix` (`∃var. matrix`),
    /// unless the step memo holds the answer.
    fn exists_step(&self, var: &str, matrix: FormulaId) -> Result<FormulaId, TranslateError> {
        let nnf = self.arena.nnf(self.arena.simplify_as_tree(matrix));
        let steps = self.steps.lock().expect(QE_LOCK);
        let filed = steps
            .get(&nnf)
            .and_then(|s| s.iter().find(|(v, _)| v == var));
        if let Some((_, done)) = filed {
            self.step_hits.fetch_add(1, Ordering::Relaxed);
            return done.clone();
        }
        drop(steps);
        self.steps_run.fetch_add(1, Ordering::Relaxed);
        let done = Step::new(self, var).eliminate(nnf);
        let mut steps = self.steps.lock().expect(QE_LOCK);
        let filed = steps.entry(nnf).or_default();
        // A racing thread may have filed the same step meanwhile.
        if !filed.iter().any(|(v, _)| v == var) {
            filed.push((var.to_string(), done.clone()));
        }
        done
    }

    /// The comparison and divisibility atoms `ids` of the procedure's arena,
    /// each compiled on first sight.
    fn linear_atoms(&self, ids: &[FormulaId]) -> Vec<Arc<LinearAtom>> {
        let mut atoms = self.atoms.lock().expect(QE_LOCK);
        ids.iter()
            .map(|&id| {
                let atom = atoms.entry(id);
                Arc::clone(atom.or_insert_with(|| Arc::new(LinearAtom::of(&self.arena, id))))
            })
            .collect()
    }
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

/// One single-variable elimination in progress: the variable, which nodes of
/// the matrix mention it, and the compiled atoms that do.
struct Step<'s> {
    qe: &'s Qe,
    interner: &'s Interner,
    var: &'s str,
    mentions: FxMap<FormulaId, bool>,
    atoms: FxMap<FormulaId, Arc<LinearAtom>>,
}

impl<'s> Step<'s> {
    fn new(qe: &'s Qe, var: &'s str) -> Self {
        Step {
            qe,
            interner: &qe.arena,
            var,
            mentions: FxMap::default(),
            atoms: FxMap::default(),
        }
    }

    /// `∃var. nnf`, for a quantifier-free `nnf` in negation normal form.
    fn eliminate(mut self, nnf: FormulaId) -> Result<FormulaId, TranslateError> {
        if !self.mentions(nnf) {
            return Ok(self.interner.simplify_as_tree(nnf));
        }
        // First pass: the least common multiple of |coefficient of var|,
        // over the atoms that mention it in the order the formula lists them,
        // so the first atom to fail is the one a walk of its tree would meet
        // first.
        let mut order = Vec::new();
        self.atoms_mentioning(nnf, &mut FxSet::default(), &mut order);
        let atoms = self.qe.linear_atoms(&order);
        let mut l = 1i64;
        for atom in &atoms {
            fold_coeff(atom.coeff(self.var)?, &mut l)?;
        }
        self.atoms = order.into_iter().zip(atoms).collect();
        // Second pass: classify atoms, scaling each so the coefficient is ±l,
        // then treating `y = l*x` as the new variable (adding `l | y`).
        let classified = self.classify(nnf, l)?;
        let shape = if l == 1 {
            classified
        } else {
            Shape::And(vec![
                classified,
                Shape::Div(l as u64, LinExpr::zero(), true),
            ])
        };
        let instances = shape.eliminate(self.interner)?;
        Ok(self.interner.simplify_as_tree(instances))
    }

    /// Whether `f` mentions the variable free (memoized for the step).
    fn mentions(&mut self, f: FormulaId) -> bool {
        if let Some(&known) = self.mentions.get(&f) {
            return known;
        }
        let (interner, var) = (self.interner, self.var);
        let term = |t| term_mentions(interner, t, var);
        let found = match interner.node_ref(f) {
            FormulaNode::True | FormulaNode::False | FormulaNode::BoolVar(_) => false,
            FormulaNode::Cmp(_, lhs, rhs) => term(*lhs) || term(*rhs),
            FormulaNode::Divides(_, t) => term(*t),
            FormulaNode::Not(inner) => self.mentions(*inner),
            FormulaNode::And(parts) | FormulaNode::Or(parts) => {
                parts.iter().any(|&p| self.mentions(p))
            }
            FormulaNode::Implies(a, b) | FormulaNode::Iff(a, b) => {
                self.mentions(*a) || self.mentions(*b)
            }
            FormulaNode::Quant(_, binders, body) => {
                !binders.iter().any(|b| b == self.var) && self.mentions(*body)
            }
        };
        self.mentions.insert(f, found);
        found
    }

    /// Appends to `out` the atoms below `f` that mention the variable, each
    /// once, in first-occurrence order of a left-to-right walk.
    fn atoms_mentioning(
        &mut self,
        f: FormulaId,
        seen: &mut FxSet<FormulaId>,
        out: &mut Vec<FormulaId>,
    ) {
        if !self.mentions(f) || !seen.insert(f) {
            return;
        }
        match self.interner.node_ref(f) {
            FormulaNode::Cmp(..) | FormulaNode::Divides(..) => out.push(f),
            FormulaNode::Not(inner) => self.atoms_mentioning(*inner, seen, out),
            FormulaNode::And(parts) | FormulaNode::Or(parts) => {
                for &p in parts {
                    self.atoms_mentioning(p, seen, out);
                }
            }
            other => outside_nnf(other),
        }
    }

    /// Classifies the subformula `f` with respect to the scaled variable
    /// `y = l·var`.
    fn classify(&mut self, f: FormulaId, l: i64) -> Result<Shape, TranslateError> {
        if !self.mentions(f) {
            return Ok(Shape::Other(f));
        }
        let classify_all = |step: &mut Self, parts: &[FormulaId]| {
            parts
                .iter()
                .map(|&p| step.classify(p, l))
                .collect::<Result<Vec<_>, _>>()
        };
        match self.interner.node_ref(f) {
            FormulaNode::Cmp(op, ..) => self.classify_cmp(f, *op, l),
            FormulaNode::Divides(d, _) => self.classify_divides(f, *d, true, l),
            FormulaNode::Not(inner) => match self.interner.node_ref(*inner) {
                FormulaNode::Divides(d, _) => self.classify_divides(*inner, *d, false, l),
                other => outside_nnf(other),
            },
            FormulaNode::And(parts) => Ok(Shape::And(classify_all(self, parts)?)),
            FormulaNode::Or(parts) => Ok(Shape::Or(classify_all(self, parts)?)),
            other => outside_nnf(other),
        }
    }

    fn classify_divides(
        &self,
        atom: FormulaId,
        d: u64,
        positive: bool,
        l: i64,
    ) -> Result<Shape, TranslateError> {
        let mut e = self.atoms[&atom].form(0)?;
        let c = e.remove_var(self.var);
        if c == 0 {
            let other = if positive {
                atom
            } else {
                self.interner.mk_not(atom)
            };
            return Ok(Shape::Other(other));
        }
        // Scale so the coefficient of var becomes ±l, then express in y = l*var
        // (`l` is a multiple of `|c|`, which the first pass saw fit `i64`).
        let factor = l / c.abs();
        let Some(scaled_d) = i64::try_from(d).ok().and_then(|d| d.checked_mul(factor)) else {
            return overflow("scaled divisor");
        };
        // d | c*x + e  ==  scaled_d | y + factor*e, and for c = -c' < 0
        // d | -c'*x + e  ==  d | c'*x - e (divisibility is symmetric under negation).
        let rest = e.scale(if c > 0 { factor } else { -factor });
        Ok(Shape::Div(
            scaled_d as u64,
            exact(rest, "scaled divisibility atom")?,
            positive,
        ))
    }

    fn classify_cmp(&self, atom: FormulaId, op: CmpOp, l: i64) -> Result<Shape, TranslateError> {
        let linear = &self.atoms[&atom];
        // Equality and disequality are expanded so only strict bounds remain.
        match op {
            CmpOp::Eq => Ok(Shape::And(vec![
                self.bound(linear, CmpOp::Le, l)?,
                self.bound(linear, CmpOp::Ge, l)?,
            ])),
            CmpOp::Ne => Ok(Shape::Or(vec![
                self.bound(linear, CmpOp::Lt, l)?,
                self.bound(linear, CmpOp::Gt, l)?,
            ])),
            op => self.bound(linear, op, l),
        }
    }

    /// The bound an inequality `lhs op rhs` puts on the scaled variable.
    fn bound(&self, atom: &LinearAtom, op: CmpOp, l: i64) -> Result<Shape, TranslateError> {
        // Normalise to `e < 0` / `e <= 0`: e = lhs - rhs (form 0), or
        // rhs - lhs (form 1) for `>` and `>=`.
        let (form, strict) = match op {
            CmpOp::Lt => (0, true),
            CmpOp::Le => (0, false),
            CmpOp::Gt => (1, true),
            CmpOp::Ge => (1, false),
            CmpOp::Eq | CmpOp::Ne => unreachable!("expanded by classify_cmp"),
        };
        let mut e = atom.form(form)?;
        // Integer tightening: e <= 0  ==  e - 1 < 0.
        if !strict {
            e.add_constant(-1);
        }
        let mut e = exact(e, "comparison atom")?;
        // Now the atom is e < 0 with e = c*var + rest.
        let c = e.remove_var(self.var);
        if c == 0 {
            let zero = self.interner.intern_term_node(TermNode::Int(0));
            return Ok(Shape::Other(lt(
                self.interner,
                lin_term(self.interner, &e),
                zero,
            )));
        }
        let factor = l / c.abs();
        let (lower, bound) = if c > 0 {
            // c*x + rest < 0  ==  y < -rest   (y = l*x)
            (false, exact(e.scale(-factor), "scaled upper bound")?)
        } else {
            // -c'*x + rest < 0  ==  rest < y
            (true, exact(e.scale(factor), "scaled lower bound")?)
        };
        let term = lin_term(self.interner, &bound);
        Ok(Shape::Bound { lower, bound, term })
    }
}

/// What no step meets: its matrix is the negation normal form of a
/// quantifier-free formula, made of atoms, negated boolean variables and
/// divisibility atoms, conjunctions and disjunctions.
fn outside_nnf<T>(node: &FormulaNode) -> T {
    unreachable!("a matrix in negation normal form has no {node:?} node")
}

/// Whether the term `t` mentions `var`.
fn term_mentions(interner: &Interner, t: TermId, var: &str) -> bool {
    match interner.term_node_ref(t) {
        TermNode::Int(_) => false,
        TermNode::Var(v) => v == var,
        TermNode::Add(parts) => parts.iter().any(|&p| term_mentions(interner, p, var)),
        TermNode::Sub(a, b) | TermNode::Mul(a, b) => {
            term_mentions(interner, *a, var) || term_mentions(interner, *b, var)
        }
        TermNode::Neg(a) | TermNode::Select(_, a) => term_mentions(interner, *a, var),
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

/// A comparison or divisibility atom as the procedure reads it, compiled
/// once per solver: the integer variables its terms mention, sorted, and its
/// linear forms over them — `lhs - rhs` and `rhs - lhs` of a comparison (the
/// procedure normalises `>` and `>=` to the second), the term of a
/// divisibility — or why its terms have none (an array read, a product of
/// two variables).
#[derive(Debug)]
struct LinearAtom {
    vars: Vec<Ident>,
    forms: Result<Vec<Form>, TranslateError>,
}

/// A linear form over a [`LinearAtom`]'s variables exactly as [`LinExpr`]
/// arithmetic computed it, clamps included: `Σ coeff · vars[i] + constant`.
#[derive(Debug)]
struct Form {
    terms: Vec<(usize, i64)>,
    constant: i64,
    clamped: bool,
}

impl LinearAtom {
    fn of(interner: &Interner, atom: FormulaId) -> LinearAtom {
        let sides = match interner.node_ref(atom) {
            FormulaNode::Cmp(_, lhs, rhs) => vec![*lhs, *rhs],
            FormulaNode::Divides(_, t) => vec![*t],
            other => unreachable!("{other:?} is no comparison or divisibility atom"),
        };
        let mut vars = Vec::new();
        for &side in &sides {
            term_vars(interner, side, &mut vars);
        }
        vars.sort_unstable();
        vars.dedup();
        let forms = sides
            .iter()
            .map(|&t| LinExpr::from_term_id(interner, t))
            .collect::<Result<Vec<_>, _>>()
            .map(|sides| match &sides[..] {
                [lhs, rhs] => vec![
                    Form::of(&lhs.sub(rhs), &vars),
                    Form::of(&rhs.sub(lhs), &vars),
                ],
                [t] => vec![Form::of(t, &vars)],
                _ => unreachable!("one or two sides"),
            });
        LinearAtom { vars, forms }
    }

    /// Form `i`, or why the atom has none.
    fn form(&self, i: usize) -> Result<LinExpr, TranslateError> {
        let form = &self.forms.as_ref().map_err(Clone::clone)?[i];
        let coeffs = form.terms.iter().map(|&(v, c)| (self.vars[v].clone(), c));
        Ok(LinExpr::from_parts(coeffs, form.constant, form.clamped))
    }

    /// The coefficient of `var` in form 0, or why the atom has none.
    fn coeff(&self, var: &str) -> Result<i64, TranslateError> {
        let forms = self.forms.as_ref().map_err(Clone::clone)?;
        let Ok(v) = self.vars.binary_search_by(|name| name.as_str().cmp(var)) else {
            return Ok(0);
        };
        let found = forms[0].terms.iter().find(|&&(w, _)| w == v);
        Ok(found.map_or(0, |&(_, c)| c))
    }
}

impl Form {
    fn of(e: &LinExpr, vars: &[Ident]) -> Form {
        Form {
            terms: e
                .terms()
                .map(|(var, c)| (vars.binary_search(var).expect("its terms mention it"), c))
                .collect(),
            constant: e.constant_part(),
            clamped: e.clamped(),
        }
    }
}

/// Appends the integer variables the term `t` mentions to `out`.
fn term_vars(interner: &Interner, t: TermId, out: &mut Vec<Ident>) {
    match interner.term_node_ref(t) {
        TermNode::Int(_) => {}
        TermNode::Var(v) => out.push(v.clone()),
        TermNode::Add(parts) => parts.iter().for_each(|&p| term_vars(interner, p, out)),
        TermNode::Sub(a, b) | TermNode::Mul(a, b) => {
            term_vars(interner, *a, out);
            term_vars(interner, *b, out);
        }
        TermNode::Neg(a) | TermNode::Select(_, a) => term_vars(interner, *a, out),
    }
}

/// The matrix of `∃x. φ` with the atoms that mention `x` classified by their
/// relationship to it.
#[derive(Debug)]
enum Shape {
    /// A subformula that does not mention the eliminated variable.
    Other(FormulaId),
    /// `e < y` (`lower`) or `y < e`: a bound on the (scaled) variable, with
    /// `e` as an arena term.
    Bound {
        lower: bool,
        bound: LinExpr,
        term: TermId,
    },
    /// `d | y + e` (positive) or `¬(d | y + e)` (negative).
    Div(u64, LinExpr, bool),
    And(Vec<Shape>),
    Or(Vec<Shape>),
}

impl Shape {
    /// Applies Cooper's theorem to produce a quantifier-free equivalent.
    fn eliminate(&self, interner: &Interner) -> Result<FormulaId, TranslateError> {
        let divisor_lcm = self.divisor_lcm()?;
        let lowers = self.bounds(true);
        let uppers = self.bounds(false);
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
            let infinity = self.at_infinity(interner, j, use_lower)?;
            #[cfg(test)]
            let infinity = if tests::dropping_infinity() {
                interner.false_id()
            } else {
                infinity
            };
            disjuncts.push(infinity);
            for b in bounds {
                // x := b + j (lower-bound form)  or  x := b - j (upper-bound form)
                let offset = if use_lower { j } else { -j };
                let mut point = b.clone();
                point.add_constant(offset);
                let point = exact(point, "instance point")?;
                let term = lin_term(interner, &point);
                disjuncts.push(self.at(interner, &point, term)?);
            }
        }
        Ok(interner.mk_or(disjuncts))
    }

    /// The least common multiple of the divisors (which
    /// [`Step::classify_divides`] keeps inside `i64`).
    fn divisor_lcm(&self) -> Result<i64, TranslateError> {
        match self {
            Shape::Div(d, _, _) => Ok(*d as i64),
            Shape::And(parts) | Shape::Or(parts) => {
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

    /// The lower (or upper) bound terms, sorted and deduplicated.
    fn bounds(&self, lower: bool) -> Vec<LinExpr> {
        let mut out = Vec::new();
        self.collect_bounds(lower, &mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_bounds(&self, lower: bool, out: &mut Vec<LinExpr>) {
        match self {
            Shape::Bound {
                lower: is_lower,
                bound,
                ..
            } if *is_lower == lower => out.push(bound.clone()),
            Shape::And(parts) | Shape::Or(parts) => {
                for p in parts {
                    p.collect_bounds(lower, out);
                }
            }
            _ => {}
        }
    }

    /// The `φ_{±∞}[x := j]` instance: upper/lower bound atoms collapse to a
    /// constant truth value and divisibility atoms are evaluated at `x = j`.
    fn at_infinity(
        &self,
        interner: &Interner,
        j: i64,
        minus_infinity: bool,
    ) -> Result<FormulaId, TranslateError> {
        let parts_at = |parts: &[Shape]| {
            parts
                .iter()
                .map(|p| p.at_infinity(interner, j, minus_infinity))
                .collect::<Result<Vec<_>, _>>()
        };
        Ok(match self {
            Shape::Other(f) => *f,
            // At -∞ every upper bound holds and no lower bound does.
            Shape::Bound { lower, .. } => {
                if *lower == minus_infinity {
                    interner.false_id()
                } else {
                    interner.true_id()
                }
            }
            Shape::Div(d, e, positive) => {
                let mut inst = e.clone();
                inst.add_constant(j);
                divides(
                    interner,
                    *d,
                    &exact(inst, "divisibility instance")?,
                    *positive,
                )
            }
            Shape::And(parts) => interner.mk_and(parts_at(parts)?),
            Shape::Or(parts) => interner.mk_or(parts_at(parts)?),
        })
    }

    /// The `φ[x := point]` instance, `term` being `point` as an arena term.
    fn at(
        &self,
        interner: &Interner,
        point: &LinExpr,
        term: TermId,
    ) -> Result<FormulaId, TranslateError> {
        let parts_at = |parts: &[Shape]| {
            parts
                .iter()
                .map(|p| p.at(interner, point, term))
                .collect::<Result<Vec<_>, _>>()
        };
        Ok(match self {
            Shape::Other(f) => *f,
            // e < point
            Shape::Bound {
                lower: true,
                term: e,
                ..
            } => lt(interner, *e, term),
            // point < e
            Shape::Bound { term: e, .. } => lt(interner, term, *e),
            Shape::Div(d, e, positive) => {
                let inst = exact(e.add(point), "divisibility instance")?;
                divides(interner, *d, &inst, *positive)
            }
            Shape::And(parts) => interner.mk_and(parts_at(parts)?),
            Shape::Or(parts) => interner.mk_or(parts_at(parts)?),
        })
    }
}

/// The atom `lhs < rhs`.
fn lt(interner: &Interner, lhs: TermId, rhs: TermId) -> FormulaId {
    interner.intern_formula_node(FormulaNode::Cmp(CmpOp::Lt, lhs, rhs))
}

/// `d | e`, or its negation, folded when it is constant.
fn divides(interner: &Interner, d: u64, e: &LinExpr, positive: bool) -> FormulaId {
    let f = if d == 1 {
        interner.true_id()
    } else if e.is_constant() {
        if e.constant_part().rem_euclid(d as i64) == 0 {
            interner.true_id()
        } else {
            interner.false_id()
        }
    } else {
        interner.intern_formula_node(FormulaNode::Divides(d, lin_term(interner, e)))
    };
    if positive {
        f
    } else {
        interner.mk_not(f)
    }
}

/// `e` as an arena term, shaped as [`LinExpr::to_term`] shapes it: one
/// summand per variable in name order (`v`, `-v` or `c * v`), then the
/// constant unless it is zero, as a sum when there is more than one.
fn lin_term(interner: &Interner, e: &LinExpr) -> TermId {
    let node = |n| interner.intern_term_node(n);
    let mut parts: Vec<TermId> = e
        .terms()
        .map(|(v, c)| {
            let var = node(TermNode::Var(v.clone()));
            match c {
                1 => var,
                -1 => node(TermNode::Neg(var)),
                c => node(TermNode::Mul(node(TermNode::Int(c)), var)),
            }
        })
        .collect();
    if e.constant_part() != 0 || parts.is_empty() {
        parts.push(node(TermNode::Int(e.constant_part())));
    }
    match parts.len() {
        1 => parts[0],
        _ => node(TermNode::Add(parts)),
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fourier_motzkin::{refute, Constraint, RationalFeasibility};
    use crate::solver::cmp_rows;
    use crate::Solver;
    use expresso_logic::{Formula, Lcg, Term, Valuation};
    use std::cell::Cell;

    thread_local! {
        static DROP_INFINITY: Cell<bool> = const { Cell::new(false) };
    }

    /// Whether the sabotage test has this thread's eliminations drop their
    /// `±∞` instances.
    pub(super) fn dropping_infinity() -> bool {
        DROP_INFINITY.get()
    }

    /// Eliminates the quantifiers of `f` with `qe`, in its own arena, and
    /// with the tree reference: they must give the same id, or the same
    /// error. Returns the id answer.
    fn eliminate_on(qe: &Qe, f: &Formula) -> Result<FormulaId, TranslateError> {
        let arena = qe.arena();
        let by_id = qe.decide(arena.intern(f));
        let by_tree = reference::eliminate_quantifiers(f).map(|tree| arena.intern(&tree));
        assert_eq!(
            by_id, by_tree,
            "the id and the tree procedures differ on {f}"
        );
        by_id
    }

    /// [`eliminate_on`] a fresh procedure, the answer as a tree.
    fn eliminate_quantifiers(f: &Formula) -> Result<Formula, TranslateError> {
        let qe = Qe::new(Arc::default());
        eliminate_on(&qe, f).map(|id| qe.arena().formula(id))
    }

    fn ground_truth(f: &Formula) -> bool {
        match f {
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

    // ------------------------------------------------------------------
    // Property test: the arena against the tree reference and brute force
    // ------------------------------------------------------------------

    /// The free integer variable of the generated formulas; `x` and `z` are
    /// only ever bound, and `p` is a free boolean.
    const FREE: i64 = 2;
    /// `z` is only ever bound under `-GUARD <= z <= GUARD`, so evaluating it
    /// over that range is exact.
    const GUARD: i64 = 3;
    /// `x` may be bound with no guard. An atom is `Σ cᵢ·vᵢ + k ⋈ rhs` with
    /// `|cᵢ| <= 2`, `|k| <= 3` and `rhs` a constant in `[-3, 3]` or one
    /// variable, so once the other variables are fixed inside their ranges
    /// (`|y| <= 2`, `|z| <= 3`) every atom's truth in `x` changes below
    /// `|x| = 16`, and past it repeats with period 6 (the lcm of the
    /// divisors 2 and 3): a witness for `x`, or a counterexample, exists
    /// exactly when one exists in `[-24, 24]`.
    const WIDE: i64 = 24;

    fn pick<T: Copy>(rng: &mut Lcg, items: &[T]) -> T {
        items[rng.index(items.len())]
    }

    /// `Σ cᵢ·vᵢ + k` over one or two of `scope`.
    fn linear(rng: &mut Lcg, scope: &[&str]) -> Term {
        let mut sum = Term::int(rng.below(7) as i64 - 3);
        for _ in 0..1 + rng.index(2) {
            let v = Term::var(pick(rng, scope));
            sum = match pick(rng, &[-2, -1, 1, 2]) {
                1 => sum.add(v),
                c => sum.add(Term::int(c).mul(v)),
            };
        }
        sum
    }

    fn atom(rng: &mut Lcg, scope: &[&str]) -> Formula {
        let lhs = linear(rng, scope);
        let rhs = match rng.below(3) {
            0 => Term::var(pick(rng, scope)),
            _ => Term::int(rng.below(7) as i64 - 3),
        };
        match rng.below(9) {
            0 => lhs.lt(rhs),
            1 => lhs.le(rhs),
            2 => lhs.gt(rhs),
            3 => lhs.ge(rhs),
            4 => lhs.eq(rhs),
            5 => lhs.ne(rhs),
            6 => Formula::divides(pick(rng, &[2, 3]), lhs),
            7 => Formula::not(Formula::divides(pick(rng, &[2, 3]), lhs)),
            _ => Formula::bool_var("p"),
        }
    }

    fn quantifier_free(rng: &mut Lcg, depth: usize, scope: &[&str]) -> Formula {
        if depth == 0 {
            return atom(rng, scope);
        }
        let sub = |rng: &mut Lcg| quantifier_free(rng, depth - 1, scope);
        match rng.below(6) {
            0 => Formula::not(sub(rng)),
            1 => Formula::and(vec![sub(rng), sub(rng)]),
            2 => Formula::or(vec![sub(rng), sub(rng)]),
            3 => Formula::implies(sub(rng), sub(rng)),
            4 => Formula::iff(sub(rng), sub(rng)),
            _ => atom(rng, scope),
        }
    }

    fn guard(v: &str, bound: i64) -> Formula {
        Formula::and(vec![
            Term::int(-bound).le(Term::var(v)),
            Term::var(v).le(Term::int(bound)),
        ])
    }

    /// `∃z. guard ∧ φ` or `∀z. guard ⇒ φ` for a quantifier-free `φ` over
    /// `scope` and `z`.
    fn guarded(rng: &mut Lcg, scope: &[&str]) -> Formula {
        let inner: Vec<&str> = scope.iter().copied().chain(["z"]).collect();
        let matrix = quantifier_free(rng, 2, &inner);
        if rng.below(2) == 0 {
            Formula::exists(
                vec!["z".into()],
                Formula::and(vec![guard("z", GUARD), matrix]),
            )
        } else {
            Formula::forall(
                vec!["z".into()],
                Formula::implies(guard("z", GUARD), matrix),
            )
        }
    }

    /// A quantifier-free formula over `scope`, or one with a guarded `z`
    /// quantifier in it.
    fn body(rng: &mut Lcg, scope: &[&str]) -> Formula {
        match rng.below(4) {
            0 => guarded(rng, scope),
            1 => Formula::and(vec![quantifier_free(rng, 1, scope), guarded(rng, scope)]),
            2 => Formula::or(vec![guarded(rng, scope), quantifier_free(rng, 1, scope)]),
            _ => quantifier_free(rng, 2, scope),
        }
    }

    /// A [`body`] over `y` and `x` under an unguarded `x` quantifier, two
    /// binders at once (`z` guarded), an unguarded quantifier beside a
    /// quantifier-free formula, or a body over `y` alone.
    fn presburger(rng: &mut Lcg) -> Formula {
        const FREE_AND_X: [&str; 2] = ["y", "x"];
        const ALL: [&str; 3] = ["y", "x", "z"];
        match rng.below(6) {
            0 => Formula::exists(vec!["x".into()], body(rng, &FREE_AND_X)),
            1 => Formula::forall(vec!["x".into()], body(rng, &FREE_AND_X)),
            2 => Formula::exists(
                vec!["x".into(), "z".into()],
                Formula::and(vec![guard("z", GUARD), quantifier_free(rng, 2, &ALL)]),
            ),
            3 => Formula::forall(
                vec!["z".into(), "x".into()],
                Formula::implies(guard("z", GUARD), quantifier_free(rng, 2, &ALL)),
            ),
            4 => Formula::or(vec![
                Formula::exists(vec!["x".into()], body(rng, &FREE_AND_X)),
                quantifier_free(rng, 1, &["y"]),
            ]),
            _ => body(rng, &["y"]),
        }
    }

    fn presburger_sample() -> Vec<Formula> {
        let mut rng = Lcg::new(0xC00_9E5);
        (0..160).map(|_| presburger(&mut rng)).collect()
    }

    /// `f` at `point`, quantifiers by enumeration: `x` over `[-WIDE, WIDE]`,
    /// `z` over `[-GUARD, GUARD]` (see the two constants).
    fn brute_force(f: &Formula, point: &mut Valuation) -> bool {
        match f {
            Formula::Quant(q, vars, body) => quantified(*q, vars, body, point),
            Formula::Not(inner) => !brute_force(inner, point),
            Formula::And(parts) => parts.iter().all(|p| brute_force(p, point)),
            Formula::Or(parts) => parts.iter().any(|p| brute_force(p, point)),
            Formula::Implies(a, b) => !brute_force(a, point) || brute_force(b, point),
            Formula::Iff(a, b) => brute_force(a, point) == brute_force(b, point),
            atom => point.eval(atom).expect("every variable is bound"),
        }
    }

    /// `q vars. body` at `point`, one binder at a time.
    fn quantified(q: Quantifier, vars: &[String], body: &Formula, point: &mut Valuation) -> bool {
        let Some((var, rest)) = vars.split_first() else {
            return brute_force(body, point);
        };
        let range = if var == "x" { WIDE } else { GUARD };
        let mut holds = (-range..=range).map(|v| {
            point.set_int(var.clone(), v);
            quantified(q, rest, body, point)
        });
        match q {
            Quantifier::Exists => holds.any(|h| h),
            Quantifier::Forall => holds.all(|h| h),
        }
    }

    /// The first point of the free variables' box (`y` in `[-FREE, FREE]`,
    /// `p` either way) where one of `answers` and `f` disagree.
    ///
    /// An eliminated variable can survive in the answer with coefficient 0
    /// (`3 | 2z - 2z + 1` keeps `z`), so the answer is evaluated with `x` and
    /// `z` set two ways, and must not care.
    fn disagreement(f: &Formula, answers: &[&Formula]) -> Option<Valuation> {
        for y in -FREE..=FREE {
            for p in [false, true] {
                let mut point = Valuation::new();
                point.set_int("y", y).set_bool("p", p);
                let expected = brute_force(f, &mut point.clone());
                for (x, z) in [(0, 0), (5, -7)] {
                    point.set_int("x", x).set_int("z", z);
                    if answers.iter().any(|a| point.eval(a) != Ok(expected)) {
                        return Some(point);
                    }
                }
            }
        }
        None
    }

    #[test]
    fn the_id_procedure_is_the_tree_procedure_and_agrees_with_brute_force() {
        // One procedure for the whole sample, so later formulas meet the
        // atoms and the steps of earlier ones: a step answered by the memo
        // must be the id the tree procedure computes all the same. A solver
        // eliminates each formula too, through its shared arena.
        let qe = Qe::new(Arc::default());
        let solver = Solver::new();
        let sample = presburger_sample();
        let mut quantified = 0;
        for (i, f) in sample.iter().enumerate() {
            quantified += usize::from(f.has_quantifier());
            let answer = eliminate_on(&qe, f).unwrap_or_else(|e| panic!("{i}: {e}: {f}"));
            let answer = qe.arena().formula(answer);
            let shared = solver
                .eliminate_quantifiers_id(solver.interner().intern(f))
                .expect("the same answer");
            let shared = solver.interner().formula(shared);
            for answer in [&answer, &shared] {
                assert!(!answer.has_quantifier(), "{i}: {answer}");
            }
            if let Some(point) = disagreement(f, &[&answer, &shared]) {
                panic!("{i}: {f} eliminates to {answer} and {shared}, one wrong at {point:?}");
            }
        }
        let (steps, hits) = qe.step_counts();
        assert!(
            quantified > sample.len() / 2 && steps > 100 && hits > 0,
            "the sample is lopsided: {quantified} quantified formulas of {}, {steps} steps, \
             {hits} repeated",
            sample.len()
        );
        assert!(solver.stats().qe_step_hits > 0);
    }

    #[test]
    fn dropping_the_infinity_instance_is_caught_by_the_box() {
        // Sabotage self-test: `∃x. x < y` has no lower bound on `x`, so its
        // only witnesses are the -∞ instance's. An elimination that drops
        // those instances answers `false` for formulas like it, and the box
        // must see that on the same sample the property test passes.
        let sample = presburger_sample();
        let qe = Qe::new(Arc::default());
        DROP_INFINITY.set(true);
        let caught = sample.iter().any(|f| {
            let Ok(answer) = qe.decide(qe.arena().intern(f)) else {
                return false;
            };
            disagreement(f, &[&qe.arena().formula(answer)]).is_some()
        });
        DROP_INFINITY.set(false);
        assert!(caught, "no formula of the sample noticed");
    }

    // ------------------------------------------------------------------
    // Property test: Cooper against Fourier–Motzkin on conjunctions
    // ------------------------------------------------------------------

    /// A conjunction of two to four literals `Σ cᵢ·vᵢ + k ⋈ 0` over `x`, `y`
    /// and `z` (`|cᵢ| <= 2`, `|k| <= 4`, `⋈` convex): as a formula, and as
    /// the constraint groups, one per literal, that Fourier–Motzkin reads.
    fn linear_conjunction(rng: &mut Lcg) -> (Formula, Vec<Vec<Constraint>>) {
        let (mut literals, mut groups) = (Vec::new(), Vec::new());
        for _ in 0..2 + rng.index(3) {
            let mut lhs = Term::int(rng.below(9) as i64 - 4);
            for v in ["x", "y", "z"] {
                match pick(rng, &[-2, -1, 0, 0, 1, 2]) {
                    0 => {}
                    c => lhs = lhs.add(Term::int(c).mul(Term::var(v))),
                }
            }
            let op = pick(
                rng,
                &[CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq],
            );
            let e = LinExpr::from_term(&lhs).expect("linear");
            groups.push(cmp_rows(op, &e).expect("convex"));
            literals.push(Formula::cmp(op, lhs, Term::int(0)));
        }
        (Formula::and(literals), groups)
    }

    /// A point of the box `[-6, 6]³` where `f`, over `x`, `y` and `z`, holds.
    fn point_in_box(f: &Formula) -> Option<Valuation> {
        let range = || -6i64..=6;
        range()
            .flat_map(|x| range().flat_map(move |y| range().map(move |z| (x, y, z))))
            .map(|(x, y, z)| {
                let mut point = Valuation::new();
                point.set_int("x", x).set_int("y", y).set_int("z", z);
                point
            })
            .find(|point| point.eval(f) == Ok(true))
    }

    /// Holds `fm` and Cooper's procedure to each other over a seeded sample
    /// of [`linear_conjunction`]s: when `fm` refutes one, the procedure must
    /// decide its existential closure `false`, and when the procedure does,
    /// no point of the box may satisfy it. Returns how many conjunctions the
    /// procedure decided, how many `fm` refuted and how many the procedure
    /// decided `false`, or the first disagreement.
    fn cooper_against(
        fm: impl Fn(&[&[Constraint]]) -> RationalFeasibility,
    ) -> Result<[usize; 3], String> {
        let qe = Qe::new(Arc::default());
        let arena = qe.arena();
        let mut rng = Lcg::new(0xF0_0E1);
        let (mut decided, mut refuted, mut empty) = (0, 0, 0);
        for i in 0..200 {
            let (conjunction, groups) = linear_conjunction(&mut rng);
            let groups: Vec<&[Constraint]> = groups.iter().map(Vec::as_slice).collect();
            let vars = ["x", "y", "z"].map(Into::into).to_vec();
            let closed = arena.intern(&Formula::exists(vars, conjunction.clone()));
            // An elimination over its instance budget concludes nothing.
            let Ok(answer) = qe.decide(closed) else {
                continue;
            };
            decided += 1;
            if matches!(fm(&groups), RationalFeasibility::Infeasible(_)) {
                refuted += 1;
                if !arena.is_false(answer) {
                    return Err(format!("{i}: FM refutes {conjunction}, Cooper does not"));
                }
            }
            if arena.is_false(answer) {
                empty += 1;
                if let Some(point) = point_in_box(&conjunction) {
                    return Err(format!(
                        "{i}: Cooper refutes {conjunction}, true at {point:?}"
                    ));
                }
            }
        }
        Ok([decided, refuted, empty])
    }

    #[test]
    fn cooper_refutes_what_fourier_motzkin_refutes() {
        let [decided, refuted, empty] =
            cooper_against(|groups| refute(groups, 400)).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            decided >= 180 && refuted >= 20 && empty > refuted,
            "the sample is lopsided: of 200, Cooper decided {decided} and refuted {empty}, \
             FM refuted {refuted}"
        );
    }

    #[test]
    fn a_fourier_motzkin_that_refutes_too_much_is_caught() {
        // Sabotage self-test: an elimination that reads every `<= 0` row as
        // `< 0` refutes `e == 0`, which is satisfiable whenever `e` has an
        // integer root. The property test must see that.
        let strict = |groups: &[&[Constraint]]| {
            let strict: Vec<Vec<Constraint>> = groups
                .concat()
                .into_iter()
                .map(|row| vec![Constraint::lt_zero(row.expr)])
                .collect();
            refute(&strict.iter().map(Vec::as_slice).collect::<Vec<_>>(), 400)
        };
        let caught = cooper_against(strict);
        assert!(
            matches!(&caught, Err(e) if e.contains("FM refutes")),
            "{caught:?}"
        );
    }
}
