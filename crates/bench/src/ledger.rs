//! The two tables a ledger is held to. A ledger is the `obs::json::Value`
//! the passes of one `reproduce` mode wrote: the whole of
//! `BENCH_results.json` for `json`, one section of it for the faster modes.
//!
//! * [`GATES`] — what must hold of one ledger on its own, whatever machine
//!   produced it. [`violated_gates`] evaluates every row of a mode and
//!   returns one line per violated row.
//! * [`DIFF`] — how two ledgers may differ: counters exactly equal, gated
//!   timings no more than 3x worse, everything else free. [`diff`] returns
//!   one line per leaf outside its rule.
//!
//! Both tables address leaves by path (`persistence.warm_speedup`,
//! `runtime_load.measurements[7].call_errors`) and `*` in a pattern matches
//! any run of characters. A row that matches no leaf is itself a violation:
//! nothing is skipped because a field went missing.

use expresso_obs::json::Value;
use std::collections::{BTreeMap, BTreeSet};

/// Every leaf of `ledger` (anything but an array or object) with its path.
pub fn leaves(ledger: &Value) -> Vec<(String, &Value)> {
    fn walk<'a>(value: &'a Value, path: String, out: &mut Vec<(String, &'a Value)>) {
        match value {
            Value::Obj(map) => {
                for (key, child) in map {
                    let sep = if path.is_empty() { "" } else { "." };
                    walk(child, format!("{path}{sep}{key}"), out);
                }
            }
            Value::Arr(items) => {
                for (index, child) in items.iter().enumerate() {
                    walk(child, format!("{path}[{index}]"), out);
                }
            }
            leaf => out.push((path, leaf)),
        }
    }
    let mut out = Vec::new();
    walk(ledger, String::new(), &mut out);
    out
}

/// Whether `path` matches `pattern`, where `*` stands for any characters.
fn matches(pattern: &str, path: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == path,
        Some((head, tail)) => path.strip_prefix(head).is_some_and(|rest| {
            (0..=rest.len()).any(|i| rest.is_char_boundary(i) && matches(tail, &rest[i..]))
        }),
    }
}

/// A leaf as a number: booleans read 0 / 1; a string or `null` (which is
/// how a non-finite measurement is written) reads as nothing and fails
/// whatever looked at it.
fn number(leaf: &Value) -> Option<f64> {
    match leaf {
        Value::Num(n) => Some(*n),
        Value::Bool(b) => Some(f64::from(u8::from(*b))),
        _ => None,
    }
}

fn show(leaf: &Value) -> String {
    expresso_obs::json::write(leaf).trim_end().to_string()
}

/// How a gated leaf is compared with its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// The leaf must equal the bound.
    Eq,
    /// The leaf may not exceed the bound.
    Le,
    /// The leaf may not fall below the bound.
    Ge,
}

/// One row of [`GATES`].
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// What a violation is reported under.
    pub name: &'static str,
    /// The `reproduce` modes whose ledger the row is evaluated on.
    pub modes: &'static str,
    /// Pattern of the leaves the row reads; every match must hold.
    pub path: &'static str,
    pub cmp: Cmp,
    pub bound: f64,
    /// What a violation means, and where the bound comes from.
    pub why: &'static str,
}

/// Every tripwire of every mode. A bound changes here or nowhere.
pub const GATES: &[Gate] = &[
    // Suite analysis: pool vs `analysis_threads = 1`, one shared context each.
    Gate {
        name: "pool_matches_sequential",
        modes: "json",
        path: "scheduler_suite.outputs_identical",
        cmp: Cmp::Eq,
        bound: 1.0,
        why: "suite outcomes differ between the default pool and the analysis_threads=1 run: a \
         determinism bug in the scheduler or an unsound cache key, not a pure optimisation",
    },
    Gate {
        name: "abduction_on_pool",
        modes: "json",
        path: "scheduler_suite.abduction_tasks",
        cmp: Cmp::Ge,
        bound: 1.0,
        why: "suite analysis dispatched no abduction task onto the shared scheduler; invariant \
         inference silently fell back to sequential inline evaluation",
    },
    Gate {
        name: "wp_store_shares_across_monitors",
        modes: "json",
        path: "scheduler_suite.wp_cross_monitor_hits",
        cmp: Cmp::Ge,
        bound: 1.0,
        why:
            "the fingerprinted suite-wide WP store served no monitor from another monitor's entries",
    },
    Gate {
        name: "solver_shares_across_monitors",
        modes: "json",
        path: "scheduler_suite.sequential_cross_monitor_cache_hits",
        cmp: Cmp::Ge,
        bound: 1.0,
        why:
            "no solver memo hit crossed a monitor boundary; the suite-wide context stopped sharing",
    },
    Gate {
        name: "wp_cache_alive",
        modes: "json",
        path: "scheduler_suite.sequential_wp_cache_hits",
        cmp: Cmp::Ge,
        bound: 1.0,
        why:
            "the fixpoint and placement always re-ask shared (body, post) pairs, so zero WP-cache \
         hits means the memo layer went dead",
    },
    Gate {
        name: "fm_runs_per_conflict",
        modes: "json",
        path: "scheduler_suite.sequential_fm_runs_per_conflict",
        cmp: Cmp::Le,
        bound: 5.0,
        why: "exact work count, no timing slack needed: a conflict costs its refutation plus one \
         re-run per member of the Farkas set it names (~3 in all); re-solving per literal, as \
         the minimiser once did, costs ~13",
    },
    Gate {
        name: "dpll_rounds_per_uncached_query",
        modes: "json",
        path: "scheduler_suite.sequential_dpll_rounds_per_uncached_query",
        cmp: Cmp::Le,
        bound: 2.0,
        why: "exact work count: with the theory lemmas of earlier queries added before the first \
         round, an uncached query of the suite takes 1.77 propositional models on average (1.51 \
         while the easy invariant candidates that walked states now refute were still asked); \
         re-deriving every refutation per query, as before the lemma store, took 3.1",
    },
    Gate {
        name: "fm_runs_per_uncached_query",
        modes: "json",
        path: "scheduler_suite.sequential_fm_runs_per_uncached_query",
        cmp: Cmp::Le,
        bound: 2.5,
        why: "exact work count: a theory check is one elimination run and a conflict its ~3 \
         re-runs, so this follows the conflicts a query still meets (2.49 with lemmas, 1.79 \
         while the easy invariant candidates that walked states now refute were still asked); \
         5.1 meant refutations learned in one query were being found again in the next",
    },
    Gate {
        name: "qe_steps",
        modes: "json",
        path: "scheduler_suite.sequential_qe_steps",
        cmp: Cmp::Le,
        bound: 264.0,
        why: "exact work count: single-variable eliminations Cooper's procedure ran, each (variable, \
         matrix) once per solver; 134 more are answered by the step memo, so 398 means the memo \
         stopped answering",
    },
    // Bounded exploration: Def. 3.4 on every schedule within the bounds.
    Gate {
        name: "no_divergence",
        modes: "json explore",
        path: "explore.divergences",
        cmp: Cmp::Eq,
        bound: 0.0,
        why:
            "bounded exploration found an implicit/explicit divergence (its minimised schedule is \
         on stderr); the synthesized monitor is not conformant",
    },
    Gate {
        name: "dpor_is_optimal",
        modes: "json explore",
        path: "explore.sleep_set_blocked",
        cmp: Cmp::Eq,
        bound: 0.0,
        why: "source sets + wakeup trees never run an execution to completion with every enabled \
         transition asleep; a nonzero count is classic DPOR wasting executions",
    },
    Gate {
        name: "dpor_reduces",
        modes: "json",
        path: "explore.mean_reduction",
        cmp: Cmp::Ge,
        bound: 3.0,
        why:
            "mean of the per-benchmark naive/DPOR execution ratios (the aggregate is dominated by \
         the biggest schedule space); below 3x the refined dependence relation or the \
         wakeup-tree machinery degenerated on a broad slice of the suite",
    },
    // Session load: 4 workers x 4096 sessions x 2 rounds, median of 5 samples.
    Gate {
        name: "no_failed_call",
        modes: "json load",
        path: "runtime_load.measurements[*].call_errors",
        cmp: Cmp::Eq,
        bound: 0.0,
        why: "a monitor call failed in some sample of this cell (the count sums every sample, not \
         just the reported one); a faulting CCR fails the gate whatever the throughput",
    },
    Gate {
        name: "targeted_wakeups_per_benchmark",
        modes: "json load",
        path: "runtime_load.targeted.worst_excess_wakeups_per_call",
        cmp: Cmp::Le,
        bound: 1.0 / 12.0,
        why: "per benchmark, targeted minus implicit wakeups (less 16 or 4 per worker for the \
         start-up race) per call. Calls that block for real differ run to run on every \
         engine: over 18 144 sampled pairs the difference had sigma 1.8 % of the calls and \
         maximum 7.0 %, so 1/12 is 4.6 sigma; a broadcast storm re-waking every waiter puts \
         half the calls or more above the line",
    },
    Gate {
        name: "targeted_wakeups_suite",
        modes: "json load",
        path: "runtime_load.targeted.excess_wakeups_per_call",
        cmp: Cmp::Le,
        bound: 1.0 / 64.0,
        why: "the same difference summed over the run: most benchmarks never block, so the totals \
         are steadier (maximum 1.2 % of all calls over 40 000 resampled runs)",
    },
    Gate {
        name: "wakeups_avoided",
        modes: "json load",
        path: "runtime_load.targeted.avoided_wakeups",
        cmp: Cmp::Ge,
        bound: 1.0,
        why: "no benchmark avoided a wakeup; targeted-signal coalescing is dead code under load",
    },
    Gate {
        name: "notifications_elided",
        modes: "json load",
        path: "runtime_load.targeted.elided_notifications",
        cmp: Cmp::Ge,
        bound: 1.0,
        why: "no benchmark elided a notification; the empty-slot fast path is dead code under load",
    },
    Gate {
        name: "uncontended_call",
        modes: "json load",
        path: "runtime_load.uncontended_ns_per_call.median",
        cmp: Cmp::Le,
        bound: 1000.0,
        why:
            "one call with nobody to contend with or wake, median over every cell, load generator \
         included (~100 ns): compiled engines read 150-400 ns, engines interpreting syntax \
         trees over string-keyed maps under the state mutex 650-2 600 (median ~1 500)",
    },
    // Warm start: cold -> warm -> edit one monitor (64 monitors in `persist`,
    // 500 in `json`).
    Gate {
        name: "warm_matches_cold",
        modes: "json persist",
        path: "persistence.outcomes_identical",
        cmp: Cmp::Eq,
        bound: 1.0,
        why: "warm-start outcomes differ from the cold run; the persisted cache is not a pure \
         optimisation",
    },
    Gate {
        name: "warm_replays_every_monitor",
        modes: "json persist",
        path: "persistence.outcomes_replayed_share",
        cmp: Cmp::Eq,
        bound: 1.0,
        why: "outcome records replayed over corpus monitors in the warm phase; below 1 a monitor \
         that had not changed was analysed again, so the record was not written, not found or \
         not accepted",
    },
    Gate {
        name: "warm_speedup",
        modes: "json persist",
        path: "persistence.warm_speedup",
        cmp: Cmp::Ge,
        bound: 8.0,
        why: "cold / warm wall time, each clock started before its context is built, so reading \
         and validating the artifact count against the warm run. A warm run that replays reads \
         16-69 at 64 monitors (6-14 ms, so the ratio is noisy) and 27-43 at 500; one that \
         re-walks every monitor over seeded caches read 3.2",
    },
    Gate {
        name: "artifact_size",
        modes: "json",
        path: "persistence.artifact_bytes",
        cmp: Cmp::Le,
        bound: 10.0 * 1024.0 * 1024.0,
        why: "the node-table artifact of the 500-monitor corpus is ~2.4 MB, 0.5 MB of it outcome \
         records (the tree format it replaced: 27 MB); above 10 MiB the tables are not sharing",
    },
    Gate {
        name: "warm_served_from_disk",
        modes: "json persist",
        path: "persistence.dirty_disk_hits",
        cmp: Cmp::Ge,
        bound: 1.0,
        why: "the edited monitor is the one analysis of the cycle that reads the leaf tables, and \
         it shares most of its queries with its former self; the smaller of its own solver and \
         WP disk-hit counts at zero means seeding silently went dead",
    },
    Gate {
        name: "edit_reanalyses_one_monitor",
        modes: "json persist",
        path: "persistence.dirty_reanalyzed",
        cmp: Cmp::Eq,
        bound: 1.0,
        why: "monitors that recomputed a weakest precondition after a one-monitor edit; any other \
         count and invalidation is not content-addressed",
    },
    Gate {
        name: "edit_spills_nowhere",
        modes: "json persist",
        path: "persistence.dirty_clean_misses",
        cmp: Cmp::Eq,
        bound: 0.0,
        why: "WP misses of the unedited monitors; invalidation may not cross a monitor boundary",
    },
    // The instrumented pass: spans on, Chrome trace written and read back.
    Gate {
        name: "trace_well_formed",
        modes: "json trace",
        path: "observability.trace_well_formed",
        cmp: Cmp::Eq,
        bound: 1.0,
        why: "the artifact re-read from disk is not well-formed Chrome trace-event JSON",
    },
    Gate {
        name: "trace_nesting",
        modes: "json trace",
        path: "observability.nesting_balanced",
        cmp: Cmp::Eq,
        bound: 1.0,
        why: "spans of one thread must be disjoint or nested, with monotone timestamps",
    },
    Gate {
        name: "trace_required_subsystems",
        modes: "json trace",
        path: "observability.missing_subsystems",
        cmp: Cmp::Eq,
        bound: 0.0,
        why: "no span from one of smt / vcgen / core / explore; its instrumentation went dark",
    },
    Gate {
        name: "trace_subsystems",
        modes: "json trace",
        path: "observability.subsystem_count",
        cmp: Cmp::Ge,
        bound: 5.0,
        why: "the pass runs analysis, codegen, exploration and a persistence round trip; fewer \
         than five subsystems in the trace means one of them lost its spans",
    },
    Gate {
        name: "span_coverage",
        modes: "json trace",
        path: "observability.span_coverage",
        cmp: Cmp::Ge,
        bound: 0.8,
        why: "share of the pass's wall time under a named span; below 80 % a whole phase lost its \
         instrumentation or a guard is dropped early, and the trace has gone blind",
    },
];

/// The rows of [`GATES`] a ledger of `mode` is held to.
pub fn gates_of(mode: &str) -> impl Iterator<Item = &'static Gate> + '_ {
    GATES
        .iter()
        .filter(move |gate| gate.modes.split(' ').any(|m| m == mode))
}

/// One line per row of `mode` that `ledger` violates (or cannot answer).
pub fn violated_gates(mode: &str, ledger: &Value) -> Vec<String> {
    let leaves = leaves(ledger);
    let mut violations = Vec::new();
    for gate in gates_of(mode) {
        let mut read = leaves
            .iter()
            .filter(|(path, _)| matches(gate.path, path))
            .peekable();
        if read.peek().is_none() {
            violations.push(format!(
                "gate {}: no `{}` in the ledger",
                gate.name, gate.path
            ));
        }
        for (path, leaf) in read {
            let holds = number(leaf).is_some_and(|n| match gate.cmp {
                Cmp::Eq => n == gate.bound,
                Cmp::Le => n <= gate.bound,
                Cmp::Ge => n >= gate.bound,
            });
            if !holds {
                let relation = match gate.cmp {
                    Cmp::Eq => "exactly",
                    Cmp::Le => "at most",
                    Cmp::Ge => "at least",
                };
                violations.push(format!(
                    "gate {}: {path} = {}, must be {relation} {}: {}",
                    gate.name,
                    show(leaf),
                    show(&Value::Num(gate.bound)),
                    gate.why
                ));
            }
        }
    }
    violations
}

/// How a leaf may differ between two ledgers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Equal values: a counter, a shape parameter, a name.
    Exact,
    /// A cost: the new value may be up to 3x the old one.
    AtMost3x,
    /// A rate: the new value may be down to a third of the old one.
    AtLeastThird,
    /// Free to differ (and to be absent from either side).
    Ignore,
}

/// The first pattern that matches a leaf decides its rule, and a leaf no
/// pattern matches is exact, so a new counter is compared from the day it is
/// written. What is listed is what two runs of one tree on one box were seen
/// to disagree on, and what depends on the box.
pub const DIFF: &[(&str, Rule)] = &[
    // The five timings gated against the committed run. The per-cell load
    // pair sees different layers: the one-worker call is the evaluator and
    // the lock with nobody else there and repeats to a few percent; the
    // multi-worker throughput is the only one a slower wake path or a longer
    // critical section under contention moves, and is the noisier (median of
    // 5 samples a pass apart: widest ratio between two runs of a cell 2.29).
    ("total_analysis_ms", Rule::AtMost3x),
    (
        "runtime_load.measurements[*].ops_per_sec",
        Rule::AtLeastThird,
    ),
    (
        "runtime_load.measurements[*].uncontended_ns_per_call",
        Rule::AtMost3x,
    ),
    // The explorer judges every placement; a judge three times slower is a
    // regression even while each of its counters is exact.
    ("explore.total_dpor_ms", Rule::AtMost3x),
    // The edit-one rebuild is what a developer waits for; the all-hit pass
    // beside it is guarded by the `warm_speedup` gate.
    ("persistence.dirty_ms", Rule::AtMost3x),
    // Every other timing, and what is computed from one.
    ("*_ms", Rule::Ignore),
    ("explore.ns_per_transition", Rule::Ignore),
    ("*_us", Rule::Ignore),
    ("*_us_per_op", Rule::Ignore),
    ("*.speedup_vs_autosynch", Rule::Ignore),
    ("persistence.warm_speedup", Rule::Ignore),
    ("runtime_load.uncontended_ns_per_call.median", Rule::Ignore),
    // The box: CPUs, hence pool workers and who ran what.
    ("figures.cpus", Rule::Ignore),
    ("scheduler_suite.workers", Rule::Ignore),
    ("scheduler_suite.per_worker_executed*", Rule::Ignore),
    ("scheduler_suite.worker_utilization*", Rule::Ignore),
    // Real threads: who ran what inline, who blocked, who woke whom.
    ("scheduler_suite.helper_executed", Rule::Ignore),
    ("runtime_load.measurements[*].wakeups", Rule::Ignore),
    (
        "runtime_load.measurements[*].predicate_evaluations",
        Rule::Ignore,
    ),
    ("runtime_load.measurements[*].avoided_wakeups", Rule::Ignore),
    (
        "runtime_load.measurements[*].elided_notifications",
        Rule::Ignore,
    ),
    ("runtime_load.targeted.*", Rule::Ignore),
    // Which of two racing pool workers computed (and memoised) an entry
    // first: the reported sample of a Table 1 row is the fastest of five,
    // and its count of eliminations the other thread's entry did not save
    // differs by one now and then; the corpus artifact likewise.
    ("benchmarks[*].quantifier_eliminations", Rule::Ignore),
    ("benchmarks[*].cache_hit_rate", Rule::Ignore),
    ("persistence.artifact_*", Rule::Ignore),
    ("persistence.offered_entries", Rule::Ignore),
    ("persistence.*disk_hits*", Rule::Ignore),
    // Span counts and the live metrics snapshot follow all of the above;
    // the section's gates are in `GATES`.
    ("observability.*", Rule::Ignore),
];

/// One line per leaf whose values in `old` and `new` are outside its rule.
pub fn diff(old: &Value, new: &Value) -> Vec<String> {
    let rule_of = |path: &str| {
        DIFF.iter()
            .find(|(pattern, _)| matches(pattern, path))
            .map_or(Rule::Exact, |&(_, rule)| rule)
    };
    let old_leaves = leaves(old);
    let new_leaves: BTreeMap<String, &Value> = leaves(new).into_iter().collect();
    let mut violations = Vec::new();
    for &(ref path, was) in &old_leaves {
        let rule = rule_of(path);
        if rule == Rule::Ignore {
            continue;
        }
        let Some(&is) = new_leaves.get(path) else {
            violations.push(format!("diff {path}: only in the old ledger"));
            continue;
        };
        let within = match (rule, number(was), number(is)) {
            (Rule::AtMost3x, Some(was), Some(is)) => is <= 3.0 * was,
            (Rule::AtLeastThird, Some(was), Some(is)) => is >= was / 3.0,
            _ => was == is,
        };
        if !within {
            let allowed = match rule {
                Rule::AtMost3x => "at most 3x the old value",
                Rule::AtLeastThird => "at least a third of the old value",
                _ => "equal",
            };
            violations.push(format!(
                "diff {path}: {} -> {}, must be {allowed}",
                show(was),
                show(is)
            ));
        }
    }
    let old_paths: BTreeSet<&str> = old_leaves.iter().map(|(path, _)| path.as_str()).collect();
    for path in new_leaves.keys() {
        if rule_of(path) != Rule::Ignore && !old_paths.contains(path.as_str()) {
            violations.push(format!("diff {path}: only in the new ledger"));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODES: [&str; 5] = ["json", "persist", "explore", "load", "trace"];

    fn committed() -> Value {
        expresso_obs::json::parse(include_str!("../../../BENCH_results.json"))
            .expect("the committed ledger parses")
    }

    /// `ledger` with its `n`-th leaf (in the order of [`leaves`]) replaced.
    fn doctored(ledger: &Value, mut n: usize, with: Value) -> Value {
        fn nth<'a>(value: &'a mut Value, n: &mut usize) -> Option<&'a mut Value> {
            match value {
                Value::Obj(map) => map.values_mut().find_map(|child| nth(child, n)),
                Value::Arr(items) => items.iter_mut().find_map(|child| nth(child, n)),
                leaf if *n == 0 => Some(leaf),
                _ => {
                    *n -= 1;
                    None
                }
            }
        }
        let mut ledger = ledger.clone();
        *nth(&mut ledger, &mut n).expect("a leaf") = with;
        ledger
    }

    #[test]
    fn the_committed_ledger_answers_and_satisfies_every_row() {
        let ledger = committed();
        let leaves = leaves(&ledger);
        for pattern in GATES.iter().map(|g| g.path).chain(DIFF.iter().map(|r| r.0)) {
            assert!(
                leaves.iter().any(|(path, _)| matches(pattern, path)),
                "`{pattern}` matches no leaf of the committed ledger"
            );
        }
        for gate in GATES {
            assert!(gate.modes.split(' ').all(|mode| MODES.contains(&mode)));
        }
        for mode in MODES {
            assert_eq!(violated_gates(mode, &ledger), Vec::<String>::new());
            let unanswered = violated_gates(mode, &Value::Null);
            assert_eq!(unanswered.len(), gates_of(mode).count(), "{unanswered:?}");
        }
        assert_eq!(diff(&ledger, &ledger), Vec::<String>::new());
    }

    #[test]
    fn a_leaf_past_its_bound_is_reported_by_exactly_its_gate() {
        let ledger = committed();
        let leaves = leaves(&ledger);
        for gate in GATES {
            let read = |(path, _): &(String, &Value)| matches(gate.path, path);
            let n = leaves.iter().position(read).expect("checked above");
            let past = match gate.cmp {
                Cmp::Ge => gate.bound - 1.0,
                Cmp::Eq | Cmp::Le => gate.bound + 1.0,
            };
            for with in [Value::Num(past), Value::Null] {
                let ledger = doctored(&ledger, n, with);
                for mode in gate.modes.split(' ') {
                    let violations = violated_gates(mode, &ledger);
                    let expected = format!("gate {}: {} = ", gate.name, leaves[n].0);
                    assert_eq!(violations.len(), 1, "{violations:?}");
                    assert!(violations[0].starts_with(&expected), "{violations:?}");
                }
            }
        }
    }

    #[test]
    fn a_changed_leaf_is_held_to_the_first_rule_that_matches_it() {
        let ledger = committed();
        let leaves = leaves(&ledger);
        for &(pattern, rule) in DIFF {
            let decided = |(path, _): &(String, &Value)| {
                DIFF.iter().find(|(p, _)| matches(p, path)).map(|r| r.0) == Some(pattern)
            };
            let n = leaves
                .iter()
                .position(decided)
                .unwrap_or_else(|| panic!("`{pattern}` is shadowed by the rows above it"));
            let (path, leaf) = &leaves[n];
            let with = match rule {
                Rule::AtMost3x => Value::Num(number(leaf).expect("a timing") * 4.0),
                Rule::AtLeastThird => Value::Num(number(leaf).expect("a rate") / 4.0),
                Rule::Exact | Rule::Ignore => "doctored".into(),
            };
            let violations = diff(&ledger, &doctored(&ledger, n, with));
            let expected = usize::from(rule != Rule::Ignore);
            assert_eq!(violations.len(), expected, "{pattern}: {violations:?}");
            assert!(violations
                .iter()
                .all(|v| v.starts_with(&format!("diff {path}: "))));
        }
        let unlisted = |(path, _): &(String, &Value)| !DIFF.iter().any(|(p, _)| matches(p, path));
        let n = leaves.iter().position(unlisted).expect("most leaves");
        let violations = diff(&ledger, &doctored(&ledger, n, "doctored".into()));
        assert_eq!(
            violations.len(),
            1,
            "an unlisted leaf is exact: {violations:?}"
        );
    }
}
