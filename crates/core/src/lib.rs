//! The Expresso reproduction's core: the signal-placement algorithm
//! (paper §4), the end-to-end analysis pipeline and explicit-signal code
//! generation (paper §6).
//!
//! # Example
//!
//! ```
//! use expresso_core::Expresso;
//! use expresso_monitor_lang::parse_monitor;
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
//! let outcome = Expresso::new().analyze(&monitor).unwrap();
//! // Matching the paper's §2 walk-through, enterReader and enterWriter never signal.
//! let enter_reader = outcome.explicit.monitor.method("enterReader").unwrap().ccrs[0];
//! assert!(outcome.explicit.notifications_for(enter_reader).is_empty());
//! ```

pub mod codegen;
pub mod pipeline;
pub mod placement;
pub mod scheduler;

pub use codegen::to_java;
pub use pipeline::{
    AnalysisOutcome, AnalysisStats, Expresso, ExpressoConfig, ExpressoError, SharedAnalysisContext,
    CACHE_DIR_ENV, TRACE_ENV,
};
pub use placement::{
    place_signals, place_signals_with, PlacementConfig, PlacementReport, SignalDecision,
};
pub use scheduler::{Scheduler, SchedulerStats, Scope};
