//! An in-repo SMT solver for the Expresso reproduction.
//!
//! The paper discharges its verification conditions with Z3; this crate plays
//! that role inside the workspace. It decides the exact fragment the
//! signal-placement algorithm and the invariant-inference engine need:
//! **Presburger arithmetic with free boolean variables** — i.e. quantified
//! linear integer arithmetic plus propositional structure.
//!
//! Architecture (classic lazy SMT):
//!
//! 1. [`linear`] — linear integer expressions and the translation from
//!    [`expresso_logic::Term`]s (rejecting non-linear products and array reads).
//! 2. `cooper` (internal) — Cooper's quantifier-elimination procedure for
//!    Presburger arithmetic, used both to remove quantifiers before ground
//!    solving and as the complete integer feasibility check. It runs on
//!    interned formulas, one variable at a time, in an arena the solver
//!    keeps for it, and remembers every single-variable step it ran.
//! 3. [`fourier_motzkin`] — a rational-relaxation feasibility pre-check; a
//!    rationally infeasible conjunction is integer-infeasible, which avoids
//!    running Cooper on the common easy cases. Every derived row carries the
//!    set of literals it was combined from, so a refutation returns its own
//!    conflict core; arithmetic is checked, and an overflow is "no
//!    conclusion", never a clamped row.
//! 4. [`sat`] — a small DPLL SAT solver over CNF produced by Tseitin encoding.
//! 5. [`solver`] — the DPLL(T) loop: boolean abstraction of the atoms, SAT
//!    enumeration of propositional models, theory consistency of the implied
//!    linear-arithmetic literals, and blocking clauses on conflicts. The
//!    abstraction is built from arena ids: an atom *is* its `FormulaId`, and
//!    it is compiled once per solver — its constraint rows for both
//!    polarities and the exact test the integer witness search evaluates.
//!    Because an atom is the same id in every query, a conflict core that
//!    Fourier–Motzkin certified is a lemma any later query over those atoms
//!    can start from: the [`Solver`] keeps them (see its documentation).
//!    Verdicts carry no model; [`Solver::model_id`] finds one on request.
//!
//! # Example
//!
//! ```
//! use expresso_logic::{Formula, Term};
//! use expresso_smt::{Solver, ValidityResult};
//!
//! let solver = Solver::new();
//! // The enterReader verification condition from Section 2 of the paper:
//! // {readers >= 0 && !writerIn && !Pw} readers++ {!Pw}
//! // where Pw = (readers == 0 && !writerIn).
//! let pw = Formula::and(vec![
//!     Term::var("readers").eq(Term::int(0)),
//!     Formula::not(Formula::bool_var("writerIn")),
//! ]);
//! let pw_after = Formula::and(vec![
//!     Term::var("readers").add(Term::int(1)).eq(Term::int(0)),
//!     Formula::not(Formula::bool_var("writerIn")),
//! ]);
//! let pre = Formula::and(vec![
//!     Term::var("readers").ge(Term::int(0)),
//!     Formula::not(Formula::bool_var("writerIn")),
//!     Formula::not(pw),
//! ]);
//! let vc = Formula::implies(pre, Formula::not(pw_after));
//! let vc = solver.interner().intern(&vc);
//! assert_eq!(solver.check_valid_id(vc), ValidityResult::Valid);
//! ```

mod cooper;
pub mod fourier_motzkin;
pub mod linear;
pub mod sat;
pub mod solver;

pub use linear::{LinExpr, TranslateError};
pub use solver::{SatResult, Solver, SolverConfig, SolverError, SolverStats, ValidityResult};
