//! The implicit-signal monitor language of the paper (Fig. 3) and its
//! explicit-signal target (§3.3), with a lexer, parser, static checker,
//! lowering to logic, a concrete interpreter, a compiler of guards and
//! bodies to slot-indexed programs for the concurrent engines ([`compile`]),
//! and the canonical bytes of the AST that caches key on ([`canon`]).
//!
//! # Quick tour
//!
//! ```
//! use expresso_monitor_lang::{check_monitor, parse_monitor};
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
//! "#).expect("parse");
//! let table = check_monitor(&monitor).expect("well-typed");
//! assert!(table.is_shared("readers"));
//! assert_eq!(monitor.guards().len(), 2);
//! ```

pub mod ast;
pub mod canon;
pub mod check;
pub mod compile;
pub mod interp;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod target;

pub use ast::{BinOp, Ccr, CcrId, Expr, Field, Method, Monitor, Param, Stmt, Type, UnOp};
pub use check::{check_monitor, infer_type, CheckError, Scope, VarInfo, VarTable};
pub use compile::{CodeId, Frame, Layout, Locals, Program, Slot};
pub use interp::{initial_state, Interpreter, RuntimeError, LOOP_BUDGET};
pub use lexer::{tokenize, LexError};
pub use lower::{expr_to_formula, expr_to_term, LowerError};
pub use parser::{parse_expr, parse_monitor, ParseError, MAX_NESTING};
pub use target::{
    canonical_guard_key, ExplicitMonitor, GuardId, GuardInfo, Notification, NotificationKind,
    NotificationPlan, ResolvedNotification, SignalCondition,
};
