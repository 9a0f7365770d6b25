//! Umbrella crate for the Expresso reproduction workspace.
//!
//! This crate re-exports the public surface of the individual workspace members so
//! that the workspace-level examples (`examples/`) and integration tests (`tests/`)
//! can exercise the whole system through a single dependency.
//!
//! The primary entry point for users is [`expresso_core::Expresso`], re-exported
//! here as [`core::Expresso`].

pub use expresso_abduction as abduction;
pub use expresso_core as core;
pub use expresso_explore as explore;
pub use expresso_loadgen as loadgen;
pub use expresso_logic as logic;
pub use expresso_monitor_lang as monitor_lang;
pub use expresso_obs as obs;
pub use expresso_persist as persist;
pub use expresso_runtime as runtime;
pub use expresso_semantics as semantics;
pub use expresso_smt as smt;
pub use expresso_suite as suite;
pub use expresso_vcgen as vcgen;

/// A leftover so that callers that name `exec::Executor` still compile; the
/// trait has no methods and nothing reads it. Leaves with ROADMAP item 6(b2).
#[doc(hidden)]
pub mod exec {
    pub use expresso_abduction::Executor;
}
