//! Stress tests for the analysis scheduler: deeply nested scopes (which run
//! inline), panic containment under load, many concurrent scopes from
//! several threads, and counter consistency.

use expresso_core::scheduler::Scheduler;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn deeply_nested_scopes_complete() {
    // Each level spawns tasks that themselves open a scope on the same
    // scheduler; every scope below the top one runs inline on the fan-out
    // thread that opened it, however deep the nesting.
    let pool = Scheduler::with_workers(2);
    let count = AtomicUsize::new(0);

    fn fan_out(pool: &Scheduler, count: &AtomicUsize, depth: usize) {
        if depth == 0 {
            count.fetch_add(1, Ordering::Relaxed);
            return;
        }
        pool.scope(|scope| {
            for _ in 0..3 {
                scope.spawn(move || fan_out(pool, count, depth - 1));
            }
        });
    }

    fan_out(&pool, &count, 5);
    // 3^5 leaves.
    assert_eq!(count.load(Ordering::Relaxed), 243);
    let stats = pool.stats();
    // Every non-leaf level spawns tasks too: 3 + 9 + 27 + 81 + 243.
    assert_eq!(stats.tasks_executed, 363);
}

#[test]
fn sequential_pool_nested_scopes_run_inline() {
    let pool = Scheduler::with_workers(0);
    let count = AtomicUsize::new(0);
    pool.scope(|outer| {
        for _ in 0..4 {
            let count = &count;
            let scheduler = &pool;
            outer.spawn(move || {
                scheduler.scope(|inner| {
                    for _ in 0..4 {
                        inner.spawn(|| {
                            count.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            });
        }
    });
    assert_eq!(count.load(Ordering::Relaxed), 16);
    let stats = pool.stats();
    assert_eq!(stats.workers, 0);
    assert_eq!(stats.tasks_executed, 20);
    assert_eq!(stats.per_worker_executed.iter().sum::<usize>(), 0);
}

#[test]
fn panic_in_nested_task_reaches_the_outer_scope_and_pool_survives() {
    let pool = Scheduler::with_workers(3);
    let finished = AtomicUsize::new(0);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.scope(|outer| {
            let finished = &finished;
            let scheduler = &pool;
            outer.spawn(move || {
                scheduler.scope(|inner| {
                    inner.spawn(|| panic!("inner task exploded"));
                    inner.spawn(|| {
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                });
            });
            for _ in 0..8 {
                outer.spawn(move || {
                    finished.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
    }));
    // The inner panic propagates through the nested scope join into the
    // outer task, and from there to the outer scope's caller.
    assert!(result.is_err());
    // Every sibling task still ran to completion.
    assert_eq!(finished.load(Ordering::Relaxed), 9);
    // The pool keeps working afterwards.
    let after = AtomicUsize::new(0);
    pool.scope(|scope| {
        for _ in 0..16 {
            let after = &after;
            scope.spawn(move || {
                after.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(after.load(Ordering::Relaxed), 16);
}

#[test]
fn many_foreign_threads_share_one_pool() {
    // Several OS threads (none of them fan-out threads) each drive their own
    // scopes concurrently — the pattern of multiple SharedAnalysisContexts
    // sharing the global scheduler from different test threads.
    let pool = Arc::new(Scheduler::with_workers(4));
    let total = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let pool = Arc::clone(&pool);
            let total = Arc::clone(&total);
            std::thread::spawn(move || {
                for _ in 0..10 {
                    pool.scope(|scope| {
                        for _ in 0..8 {
                            let total = &total;
                            scope.spawn(move || {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(total.load(Ordering::Relaxed), 6 * 10 * 8);
    let stats = pool.stats();
    assert_eq!(stats.tasks_executed, 480);
    let claimed: usize = stats.per_worker_executed.iter().sum();
    assert_eq!(claimed, stats.tasks_executed);
}

#[test]
fn results_are_deterministic_regardless_of_worker_count() {
    // A slot-writing workload (the placement pattern) must produce the same
    // output vector for every pool size.
    let compute = |workers: usize| -> Vec<usize> {
        let pool = Scheduler::with_workers(workers);
        let mut slots = vec![0usize; 64];
        pool.scope(|scope| {
            for (i, slot) in slots.iter_mut().enumerate() {
                scope.spawn(move || *slot = i.wrapping_mul(2654435761) % 1009);
            }
        });
        slots
    };
    let reference = compute(0);
    for workers in [1, 2, 7] {
        assert_eq!(compute(workers), reference, "workers={workers}");
    }
}

#[test]
fn analysis_threads_maps_to_that_many_workers() {
    // `1` is the inline zero-worker scheduler; every other `n` is `n`
    // fan-out threads — the thread that opens a scope only waits, so it is
    // not the n-th thread.
    for (threads, workers) in [(1usize, 0usize), (2, 2), (8, 8)] {
        assert_eq!(
            Scheduler::with_analysis_threads(threads).workers(),
            workers,
            "analysis_threads={threads}"
        );
    }
}
