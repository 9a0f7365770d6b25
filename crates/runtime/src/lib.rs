//! Concurrent monitor runtime used by the performance evaluation.
//!
//! The paper's evaluation compares three implementations of every benchmark
//! monitor under JMH saturation tests: Expresso-generated explicit-signal
//! code, the AutoSynch run-time system, and hand-written explicit-signal code.
//! This crate provides the equivalent engines as **one compiled program and
//! three signalling strategies**, so that the *only* difference between the
//! series is the signalling strategy:
//!
//! * [`ExplicitRuntime`] executes an [`ExplicitMonitor`] (either synthesized
//!   by `expresso-core` or hand-written by the suite) with one condition
//!   variable per guard and the `signal` / `broadcast` annotations decided
//!   statically — literally ([`SignalMode::Static`], the paper's generated
//!   code) or with the targeted-wakeup fast path ([`SignalMode::Targeted`]).
//! * [`AutoSynchRuntime`] executes the implicit-signal monitor directly: every
//!   waiter registers its predicate and a snapshot of its local variables, and
//!   after every CCR the runtime evaluates the predicates of all waiters and
//!   wakes exactly those whose predicate became true — the AutoSynch model.
//!
//! # What runs under the lock
//!
//! When an engine is built, the monitor is checked and compiled once
//! ([`expresso_monitor_lang::compile`]): variables get dense slots, and every
//! CCR guard and body, every guard-class representative and every
//! notification predicate becomes slot-indexed code. The shared state is a
//! flat frame behind one mutex. A call finds its method and turns the
//! caller's [`Valuation`](expresso_logic::Valuation) into a locals frame
//! *before* it takes that mutex; under it, guards are evaluated in place,
//! bodies run with commit-on-success (a faulting body leaves the state as it
//! was and the mutex unpoisoned), and a waiter registers a code index and its
//! locals frame. No name is hashed, no tree is walked or cloned and nothing
//! is allocated while the mutex is held, unless the call blocks. The
//! tree-walking `Interpreter` is not used here at all; it remains the
//! semantics' and the explorer's evaluator, the independent side of the
//! conformance checks (`tests/compile_differential.rs` holds the two against
//! each other).
//!
//! A caller may only bind its own thread-locals: a binding that names a
//! shared variable is refused with [`CallError::SharedBinding`] before the
//! lock is taken (it used to shadow the field for the call and be written
//! back into the monitor).
//!
//! # A signal to an empty queue
//!
//! In `Static` mode a placed notification whose condition variable has no
//! waiter does not reach the OS. The waiter count is only changed under the
//! state mutex, which the notifier holds, so "nobody waits" is exact; and
//! that is the paper's semantics, not an optimisation of them: in the
//! generated Java, `Condition.signal()` on an empty wait queue is a no-op,
//! while `std::sync::Condvar::notify_one` is a `futex` system call whoever
//! listens. Conditional predicates are still evaluated and counted, and
//! nothing is reported as elided — eliding the evaluation too is what
//! `Targeted` mode adds.
//!
//! [`workload`] drives either engine with saturation workloads (threads do
//! nothing but call monitor operations) and reports time per operation. Its
//! threads leave a common start line only once all of them are running, and
//! the clock starts there: at ~0.1 µs a call, a thread that starts a fraction
//! of a millisecond late finds the others already done.

pub mod engine;
pub mod workload;

pub use engine::{
    AutoSynchRuntime, CallError, ExplicitRuntime, MonitorRuntime, RuntimeBuildError, SignalMode,
};
pub use workload::{run_saturation, Operation, SaturationResult, ThreadPlan};

pub use expresso_monitor_lang::ExplicitMonitor;
