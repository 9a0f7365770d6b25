//! Trace semantics for implicit- and explicit-signal monitors (paper §3) and
//! the Definition 3.4 equivalence check used by the differential tests.
//!
//! A *trace* is a sequence of events `(thread, ccr, fired)`; `fired = false`
//! records that the thread attempted the CCR and blocked, `fired = true` that
//! it executed the body. The implicit transition relation (Fig. 4) wakes every
//! blocked thread whose predicate became true; the explicit relation
//! (Figs. 5–6) wakes only the threads selected by the CCR's `signal` /
//! `broadcast` annotations.
//!
//! Because monitors are infinite-state, the equivalence of Definition 3.4 is
//! checked on *sampled* traces: the [`Simulator`] generates feasible
//! (normalized) traces of one semantics and replays them under the other,
//! comparing feasibility and final states. Generation and replay share no
//! evaluator: the [`Stepper`] behind the simulator (and behind the schedule
//! explorer) runs compiled code over flat state, [`run_implicit`] /
//! [`run_explicit`] the tree-walking interpreter over named state.

pub mod equivalence;
pub mod minimize;
pub mod step;
pub mod trace;

pub use equivalence::{check_equivalence, EquivalenceConfig, EquivalenceReport};
pub use minimize::{minimize_schedule, ReplayVerdict};
pub use step::{SemanticsMode, Stepper, ThreadProgram};
pub use trace::{
    run_explicit, run_implicit, Event, ExecError, Simulator, ThreadSpec, Trace, TraceOutcome,
};
