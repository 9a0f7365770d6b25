//! Abductive inference and monitor-invariant inference (paper §5).
//!
//! The paper infers *monitor invariants* — assertions that hold whenever a
//! thread enters or leaves the monitor — by (1) using abduction to propose
//! candidate predicates that would make failing Hoare triples provable and
//! (2) running a monomial predicate-abstraction fixpoint that keeps only the
//! candidates that are genuine invariants (they hold after the constructor and
//! are preserved by every CCR).
//!
//! Between the two, the monitor is run concretely for a few seeded walks,
//! and every candidate that a reached state falsifies is dropped: it cannot
//! be an invariant, so it needs no proof. The order is therefore abduce →
//! refute on walked states → initiation, once per survivor → consecution
//! rounds (see [`infer_with_triples`]). On the Table 1 suite the walks
//! refute 275 of the 322 candidates, and the answers are those of the
//! fixpoint alone.
//!
//! # Example
//!
//! ```
//! use expresso_abduction::infer_monitor_invariant;
//! use expresso_monitor_lang::{check_monitor, parse_monitor};
//! use expresso_smt::Solver;
//!
//! let monitor = parse_monitor(r#"
//!     monitor RWLock {
//!         int readers = 0;
//!         bool writerIn = false;
//!         atomic void enterReader() { waituntil (!writerIn) { readers++; } }
//!         atomic void exitReader()  { if (readers > 0) readers--; }
//!         atomic void enterWriter() { waituntil (readers == 0 && !writerIn) { writerIn = true; } }
//!         atomic void exitWriter()  { writerIn = false; }
//!     }
//! "#).unwrap();
//! let table = check_monitor(&monitor).unwrap();
//! let solver = Solver::new();
//! let outcome = infer_monitor_invariant(&monitor, &table, &solver);
//! // The inferred invariant must at least imply readers >= 0, the fact the
//! // paper highlights as essential for the readers-writers example.
//! use expresso_logic::Term;
//! let interner = solver.interner();
//! let invariant = interner.intern(&outcome.invariant);
//! let nonnegative = interner.intern(&Term::var("readers").ge(Term::int(0)));
//! assert!(solver.check_implies_ids(invariant, nonnegative).is_valid());
//! ```

pub mod abduce;
pub mod invariant;
mod refute;

pub use abduce::{abduce_ids, AbductionConfig};
#[doc(hidden)]
pub use invariant::{abduce_candidates, Candidates};
pub use invariant::{
    infer_monitor_invariant, infer_monitor_invariant_configured, infer_with_triples,
    infer_with_triples_configured, InvariantOutcome,
};
#[doc(hidden)]
pub use refute::ReachableStates;
