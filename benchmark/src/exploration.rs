//! `explore_3x2`: every suite monitor explored exhaustively, three threads
//! times two operations, implicit and explicit semantics each driving the
//! other. The operation is one monitor explored in both directions.
//!
//! This is also the benchmark's independent oracle for Definition 3.4: the
//! explorer replays every schedule of the implicit semantics against the
//! generated explicit monitor and back, so "0 divergences" is checked by
//! code that shares nothing with signal placement.

use crate::harness::{
    self, pool_delta, report_pool, shuffled_suite, traced_rng, Opts, Watchdog, WATCHDOG_LIMIT,
};
use crate::metrics::Report;
use crate::stats;
use expresso_repro::core::{Expresso, Scheduler, SchedulerStats, SharedAnalysisContext};
use expresso_repro::explore::{
    benchmark_workload, explore, ExploreConfig, ExploreReport, RefinedIndependence, Strategy,
    Workload,
};
use expresso_repro::logic::Lcg;
use expresso_repro::monitor_lang::{check_monitor, ExplicitMonitor, Monitor, VarTable};
use expresso_repro::obs;
use expresso_repro::semantics::{ExecError, Stepper};
use expresso_repro::suite;
use expresso_repro::vcgen::refine_independence;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Threads and operations per thread of every exploration.
pub const THREADS: usize = 3;
pub const OPS_PER_THREAD: usize = 2;

/// Random schedules per monitor and semantics in the `semantics` probe.
const PROBE_SCHEDULES: usize = 200;

/// Everything one monitor's exploration needs, built in set-up.
struct Subject {
    monitor: Monitor,
    table: VarTable,
    explicit: ExplicitMonitor,
    workload: Workload,
    config: ExploreConfig,
}

/// The deterministic counters of one exploration, compared across passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counts {
    executions: usize,
    transitions: usize,
    dedup_hits: usize,
    sleep_prunes: usize,
    sleep_set_blocked: usize,
    divergences: usize,
}

impl Counts {
    fn of(report: &ExploreReport) -> Counts {
        Counts {
            executions: report.executions(),
            transitions: report.transitions(),
            dedup_hits: report.implicit.dedup_hits + report.explicit.dedup_hits,
            sleep_prunes: report.implicit.sleep_prunes + report.explicit.sleep_prunes,
            sleep_set_blocked: report.sleep_set_blocked(),
            divergences: report.divergences.len(),
        }
    }

    fn add(&mut self, other: &Counts) {
        self.executions += other.executions;
        self.transitions += other.transitions;
        self.dedup_hits += other.dedup_hits;
        self.sleep_prunes += other.sleep_prunes;
        self.sleep_set_blocked += other.sleep_set_blocked;
        self.divergences += other.divergences;
    }
}

struct Setup {
    subjects: BTreeMap<&'static str, Subject>,
    refine_ms: f64,
    disjointness_queries: usize,
    disjointness_hits: usize,
}

fn set_up() -> Setup {
    let pipeline = Expresso::new();
    let context = SharedAnalysisContext::new(pipeline.config());
    let mut refine_ms = 0.0;
    let subjects = suite::all()
        .iter()
        .map(|b| {
            let monitor = b.monitor();
            let table = check_monitor(&monitor)
                .unwrap_or_else(|e| panic!("set-up: {} fails checking: {e:?}", b.name));
            let outcome = pipeline
                .analyze_with_context(&context, &monitor)
                .unwrap_or_else(|e| panic!("set-up: {} failed analysis: {e}", b.name));
            let before = context.disjointness_stats();
            let (refined, seconds) = harness::timed(|| {
                refine_independence(&monitor, &table, context.solver(), context.disjointness())
            });
            refine_ms += seconds * 1e3;
            let after = context.disjointness_stats();
            let workload = benchmark_workload(b, &monitor, &table, THREADS, OPS_PER_THREAD)
                .unwrap_or_else(|e| panic!("set-up: {} has no workload: {e}", b.name));
            let config = ExploreConfig {
                scheduler: Some(Arc::clone(Scheduler::global())),
                independence: Some(Arc::new(RefinedIndependence {
                    table: refined,
                    queries: after.queries - before.queries,
                    cache_hits: after.hits - before.hits,
                })),
                ..ExploreConfig::default()
            };
            let subject = Subject {
                monitor,
                table,
                explicit: outcome.explicit,
                workload,
                config,
            };
            (b.name, subject)
        })
        .collect();
    let disjointness = context.disjointness_stats();
    Setup {
        subjects,
        refine_ms,
        disjointness_queries: disjointness.queries,
        disjointness_hits: disjointness.hits,
    }
}

/// One operation, under the watchdog: the exploration's report and seconds.
fn explore_one(name: &str, subject: &Subject) -> (Result<ExploreReport, ExecError>, f64) {
    let _dog = Watchdog::arm(format!("exploration of {name}"), 1, WATCHDOG_LIMIT);
    harness::timed(|| {
        let _span = obs::span!("bench.explore.run");
        explore(
            &subject.monitor,
            &subject.table,
            &subject.explicit,
            &subject.workload,
            &subject.config,
        )
    })
}

/// Why an exploration that ran to the end still fails the operation.
fn verdict(report: &ExploreReport) -> Result<(), String> {
    if let Some(divergence) = report.divergences.first() {
        return Err(format!(
            "{} divergence(s), first with the {:?} semantics driving: {}",
            report.divergences.len(),
            divergence.driver,
            divergence.reason
        ));
    }
    let capped = report.implicit.capped_roots + report.explicit.capped_roots;
    if capped > 0 {
        return Err(format!("{capped} subtree(s) hit the execution cap"));
    }
    if report.sleep_set_blocked() > 0 {
        return Err(format!(
            "{} execution(s) completed sleep-set blocked",
            report.sleep_set_blocked()
        ));
    }
    Ok(())
}

/// Drives both semantics' `Stepper`s directly on seeded random schedules and
/// returns `(steps, seconds)` — the one number the `semantics` layer has to
/// itself, since inside `explore` its time is not separately visible.
fn semantics_probe(subjects: &BTreeMap<&'static str, Subject>, seed: u64) -> (usize, f64) {
    let mut rng = Lcg::new(seed);
    let mut steps = 0usize;
    let start = Instant::now();
    for subject in subjects.values() {
        let mut drive = |mut stepper: Stepper<'_>| -> Result<(), ExecError> {
            for _ in 0..subject.config.max_steps {
                let enabled = stepper.enabled_events()?;
                if enabled.is_empty() {
                    break;
                }
                stepper.step(enabled[rng.index(enabled.len())])?;
                steps += 1;
            }
            Ok(())
        };
        for _ in 0..PROBE_SCHEDULES {
            let initial = subject.workload.initial.clone();
            let programs = subject.workload.programs.clone();
            let implicit = Stepper::implicit(
                &subject.monitor,
                &subject.table,
                initial.clone(),
                programs.clone(),
            );
            let explicit = Stepper::explicit(&subject.explicit, &subject.table, initial, programs);
            // A schedule the stepper rejects ends that schedule; the probe
            // measures stepping speed, the explorer above checks verdicts.
            let _ = implicit.and_then(&mut drive);
            let _ = explicit.and_then(&mut drive);
        }
    }
    (steps, start.elapsed().as_secs_f64())
}

pub fn explore_3x2(opts: &Opts) -> Report {
    let mut report = Report::default();

    let (setup, setup_s) = harness::timed_setup(set_up);
    report.set("setup_s", setup_s);
    let subjects = &setup.subjects;

    let mut rng = Lcg::new(opts.seed);
    let mut rng_traced = traced_rng(opts);
    let mut reference: BTreeMap<&'static str, Counts> = BTreeMap::new();
    let mut last_pass = Counts::default();
    let mut run_pass = |report: &mut Report, traced: bool| -> f64 {
        let (tag, rng) = if traced {
            (" (traced)", &mut rng_traced)
        } else {
            ("", &mut rng)
        };
        let mut pass_seconds = 0.0;
        last_pass = Counts::default();
        for benchmark in shuffled_suite(rng) {
            let name = benchmark.name;
            let (explored, seconds) = explore_one(name, &subjects[name]);
            pass_seconds += seconds;
            let verdict = explored.map_err(|e| e.to_string()).and_then(|explored| {
                let counts = Counts::of(&explored);
                last_pass.add(&counts);
                verdict(&explored)?;
                let first = *reference.entry(name).or_insert(counts);
                if first == counts {
                    Ok(())
                } else {
                    Err(format!(
                        "counters changed between passes: {first:?} then {counts:?}"
                    ))
                }
            });
            report.record(1, verdict.map_err(|why| format!("{name}{tag}: {why}")));
        }
        pass_seconds
    };

    let passes = harness::measured_window(opts.window_seconds(), || run_pass(&mut report, false));
    let pass_s = stats::median(&passes);

    let mut traced = None;
    let mut pool = SchedulerStats::default();
    if opts.trace {
        traced = Some(harness::traced_pass("explore_3x2", || {
            pool = pool_delta(|| {
                run_pass(&mut report, true);
            });
        }));
    }

    report.set_pass_rate(subjects.len() as f64, &passes);
    let per_second = |count: usize| stats::ratio(count as f64, pass_s);
    report.set("explore_executions_per_s", per_second(last_pass.executions));

    if let Some(traced) = traced {
        harness::report_trace(&mut report, &traced, pass_s);
        report_pool(&mut report, &pool);
        report.set("explore.executions", last_pass.executions as f64);
        report.set("explore.transitions", last_pass.transitions as f64);
        report.set(
            "explore.transitions_per_s",
            per_second(last_pass.transitions),
        );
        report.set(
            "explore.us_per_execution",
            stats::ratio(pass_s * 1e6, last_pass.executions as f64),
        );
        report.set("explore.dedup_hits", last_pass.dedup_hits as f64);
        report.set("explore.sleep_prunes", last_pass.sleep_prunes as f64);
        report.set(
            "explore.sleep_set_blocked",
            last_pass.sleep_set_blocked as f64,
        );
        report.set("explore.divergences", last_pass.divergences as f64);
        report.set("vcgen.refine_ms", setup.refine_ms);
        report.set(
            "vcgen.disjointness_queries",
            setup.disjointness_queries as f64,
        );
        report.set("vcgen.disjointness_hits", setup.disjointness_hits as f64);

        let (steps, seconds) = semantics_probe(subjects, opts.seed);
        report.set("semantics.steps_per_s", stats::ratio(steps as f64, seconds));

        // Naive enumeration of the same workloads, counted once: what the
        // partial-order reduction is a reduction of.
        let mut naive_executions = 0usize;
        for (name, subject) in subjects {
            let _dog = Watchdog::arm(format!("naive enumeration of {name}"), 0, WATCHDOG_LIMIT);
            let naive = ExploreConfig {
                strategy: Strategy::Naive,
                check: false,
                independence: None,
                ..subject.config.clone()
            };
            match explore(
                &subject.monitor,
                &subject.table,
                &subject.explicit,
                &subject.workload,
                &naive,
            ) {
                Ok(counted) => naive_executions += counted.executions(),
                Err(e) => report.fail(1, format!("{name} (naive count): {e}")),
            }
        }
        report.set(
            "explore.reduction_vs_naive",
            stats::ratio(naive_executions as f64, last_pass.executions as f64),
        );
    }

    report
}
