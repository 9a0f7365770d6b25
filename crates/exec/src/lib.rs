//! The executor abstraction the analysis stack fans work out on.
//!
//! The workspace's analysis scheduler is `expresso_core::Scheduler`, but the
//! crates *below* `core` (notably `expresso_abduction`, whose candidate-subset
//! evaluations dominate analysis wall clock) cannot depend on it without
//! inverting the dependency arrow. This crate breaks the cycle: it defines
//! the minimal [`Executor`] trait those lower crates program against, plus
//! the sequential [`Inline`] implementation. `expresso_core` implements
//! `Executor` for its `Scheduler`, and the pipeline hands abduction the same
//! scheduler its monitor runs on.
//!
//! The contract is batch-shaped: a caller submits one bounded batch at a
//! time (dispatch a wave, harvest it, decide whether the next is worth
//! paying for) and [`Executor::run_batch`] blocks until the whole batch has
//! completed. Tasks within a batch may run concurrently and in any order;
//! the caller owns result ordering (e.g. by giving each task a dedicated
//! output slot).

use std::fmt;

/// One unit of work in a batch. Tasks may borrow from the caller's frame —
/// [`Executor::run_batch`] joins the whole batch before returning, which is
/// what makes the borrow sound (the same structure as `std::thread::scope`).
pub type Task<'a> = Box<dyn FnOnce() + Send + 'a>;

/// A strategy for running batches of independent tasks.
///
/// Implementations must run every task of the batch to completion before
/// returning and must contain nothing that observably depends on execution
/// order: callers are entitled to bit-identical results across every
/// implementation (the equivalence suite pins exactly that across the
/// inline and pool executors).
pub trait Executor: fmt::Debug + Send + Sync {
    /// Executes every task in `tasks`, returning once all have completed.
    /// Tasks may run concurrently and in any order.
    fn run_batch(&self, tasks: Vec<Task<'_>>);

    /// A short human-readable label for reports and test diagnostics.
    fn name(&self) -> &'static str {
        "executor"
    }
}

/// The sequential executor: runs each task on the calling thread, in
/// submission order. Zero dependencies, zero threads — the baseline every
/// parallel executor must be bit-identical to, and the right choice on
/// machines (or configurations) where fanning out buys nothing.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Inline;

impl Executor for Inline {
    fn run_batch(&self, tasks: Vec<Task<'_>>) {
        for task in tasks {
            task();
        }
    }

    fn name(&self) -> &'static str {
        "inline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn inline_runs_every_task_in_submission_order() {
        let order = Mutex::new(Vec::new());
        let tasks: Vec<Task<'_>> = (0..8)
            .map(|i| {
                let order = &order;
                Box::new(move || order.lock().unwrap().push(i)) as Task<'_>
            })
            .collect();
        Inline.run_batch(tasks);
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn inline_is_usable_as_a_trait_object() {
        let executor: &dyn Executor = &Inline;
        let count = AtomicUsize::new(0);
        executor.run_batch(
            (0..4)
                .map(|_| {
                    let count = &count;
                    Box::new(move || {
                        count.fetch_add(1, Ordering::Relaxed);
                    }) as Task<'_>
                })
                .collect(),
        );
        assert_eq!(count.load(Ordering::Relaxed), 4);
        assert_eq!(executor.name(), "inline");
    }

    #[test]
    fn empty_batches_are_fine() {
        Inline.run_batch(Vec::new());
    }
}
