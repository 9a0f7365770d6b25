//! Verification-condition generation for monitor bodies.
//!
//! The signal-placement algorithm (paper §4) reduces every decision — "does
//! this CCR need to signal?", "can the signal be unconditional?", "is a
//! broadcast required?" — to the validity of Hoare triples over CCR bodies.
//! This crate computes weakest preconditions for the statement language of
//! Fig. 3, discharges triples with the workspace SMT solver, and provides the
//! commutativity check used by the §4.3 improvement.

pub mod cache;
pub mod hoare;
pub mod independence;
pub mod wp;

pub use cache::{statement_bytes, StmtKey, WpCache, WpCacheStats, WpExport, WpStore};
pub use hoare::{HoareTriple, TripleStatus, VcGen};
pub use independence::{
    refine_independence, DisjointnessStats, DisjointnessStore, IndependenceTable,
};
pub use wp::{wp_id, WpError};
