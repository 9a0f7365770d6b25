//! Trace semantics for implicit- and explicit-signal monitors (paper §3).
//!
//! A *trace* is a sequence of events `(thread, ccr, fired)`; `fired = false`
//! records that the thread attempted the CCR and blocked, `fired = true` that
//! it executed the body. The implicit transition relation (Fig. 4) wakes every
//! blocked thread whose predicate became true; the explicit relation
//! (Figs. 5–6) wakes only the threads selected by the CCR's `signal` /
//! `broadcast` annotations.
//!
//! Both relations are one type, the [`Stepper`], which runs compiled code over
//! flat state. Definition 3.4 is checked on it by the schedule explorer
//! (`expresso-explore`), which steps both relations over every schedule of a
//! bounded workload; `tests/stepper_lockstep` holds the stepper to a
//! tree-walking reference on every configuration it reaches.

pub mod minimize;
pub mod step;

pub use minimize::{minimize_schedule, ReplayVerdict};
pub use step::{Event, ExecError, SemanticsMode, Stepper, ThreadProgram, ThreadSpec, Trace};
