//! Abduction executor conformance: routing candidate evaluation through any
//! [`Executor`] — the zero-dep inline one, the analysis scheduler at any
//! thread count (including the zero-worker one a 1-core host gets), or a
//! custom instrumented one — must never change the returned candidates, and
//! dispatch must respect the `max_results` budget instead of speculating
//! over the whole subset space.

use expresso_repro::abduction::{abduce_ids, AbductionConfig};
use expresso_repro::core::Scheduler;
use expresso_repro::exec::{Executor, Inline, Task};
use expresso_repro::logic::{Formula, FormulaId, Term};
use expresso_repro::smt::Solver;
use std::sync::{Arc, Mutex};

/// Delegating executor that records the size of every dispatched batch.
#[derive(Debug, Default)]
struct Recording {
    batches: Mutex<Vec<usize>>,
}

impl Executor for Recording {
    fn run_batch(&self, tasks: Vec<Task<'_>>) {
        self.batches.lock().unwrap().push(tasks.len());
        for task in tasks {
            task();
        }
    }

    fn name(&self) -> &'static str {
        "recording"
    }
}

/// `pre = true`, `goal = x >= 0 ∨ y > 10 ∨ z > 5`, interned on `solver`:
/// three variables give six kept-variable subsets under the default
/// `max_kept_vars = 2`, enough to need two waves and to accept candidates
/// from both subset sizes.
fn three_disjunct_goal(solver: &Solver) -> (FormulaId, FormulaId) {
    let goal = Formula::or(vec![
        Term::var("x").ge(Term::int(0)),
        Term::var("y").gt(Term::int(10)),
        Term::var("z").gt(Term::int(5)),
    ]);
    let interner = solver.interner();
    (interner.intern(&Formula::True), interner.intern(&goal))
}

fn with_executor(executor: Option<Arc<dyn Executor>>) -> AbductionConfig {
    AbductionConfig {
        executor,
        ..AbductionConfig::default()
    }
}

#[test]
fn every_executor_returns_identical_candidates() {
    let solver = Solver::new();
    let (pre, goal) = three_disjunct_goal(&solver);
    let reference = abduce_ids(&solver, pre, goal, &with_executor(None));
    assert!(!reference.is_empty(), "workload produced no candidates");

    let executors: Vec<(&str, Arc<dyn Executor>)> = vec![
        ("inline", Arc::new(Inline)),
        // The zero-worker scheduler is what a 1-core host gets: every task
        // runs on the submitting thread. Abduction must not force extra
        // threads into existence for it.
        ("pool-0", Arc::new(Scheduler::with_workers(0))),
        ("pool-2", Arc::new(Scheduler::with_workers(2))),
        ("recording", Arc::new(Recording::default())),
    ];
    for (name, executor) in executors {
        let candidates = abduce_ids(&solver, pre, goal, &with_executor(Some(executor)));
        assert_eq!(
            candidates, reference,
            "{name}: candidates diverged from the executor-less run"
        );
    }
}

#[test]
fn default_config_dispatches_multi_task_batches() {
    // The split path — one wave carrying several subsets — must actually be
    // exercised by the default configuration, not just degenerate to
    // task-at-a-time dispatch.
    let solver = Solver::new();
    let (pre, goal) = three_disjunct_goal(&solver);
    let recording = Arc::new(Recording::default());
    abduce_ids(
        &solver,
        pre,
        goal,
        &with_executor(Some(Arc::clone(&recording) as Arc<dyn Executor>)),
    );
    let batches = recording.batches.lock().unwrap().clone();
    assert!(!batches.is_empty(), "no batch reached the executor");
    assert!(
        batches.iter().any(|&size| size >= 2),
        "every batch was a single task; the wave split path never ran: {batches:?}"
    );
}

#[test]
fn dispatch_stops_once_the_result_budget_is_met() {
    // Four variables under max_kept_vars = 2 give ten subsets. With
    // max_results = 1 the first subset already yields an accepted candidate,
    // so almost the whole subset space must go undispatched.
    let solver = Solver::new();
    let goal = Formula::or(vec![
        Term::var("x").ge(Term::int(0)),
        Term::var("y").gt(Term::int(10)),
        Term::var("z").gt(Term::int(5)),
        Term::var("w").gt(Term::int(2)),
    ]);
    let recording = Arc::new(Recording::default());
    let config = AbductionConfig {
        max_results: 1,
        executor: Some(Arc::clone(&recording) as Arc<dyn Executor>),
        ..AbductionConfig::default()
    };
    let interner = solver.interner();
    let (pre, goal) = (interner.intern(&Formula::True), interner.intern(&goal));
    let candidates = abduce_ids(&solver, pre, goal, &config);
    assert_eq!(candidates.len(), 1, "budget of one candidate not honoured");
    let dispatched: usize = recording.batches.lock().unwrap().iter().sum();
    assert!(
        dispatched < 10,
        "dispatched {dispatched} of 10 subsets despite a budget of one result"
    );
}
