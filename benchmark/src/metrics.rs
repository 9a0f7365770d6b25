//! The metric catalogue — the single list `BENCHMARK.json` mirrors (a unit
//! test compares the two) — and the result record a workload fills in.

use crate::stats;
use std::collections::BTreeMap;

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound as a share of the parent's median; end-to-end only.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees. The contract runs this one list, each
/// metric with one bound, against every workload and forbids a metric that
/// reads 0 anywhere, so the list holds what every workload has, and
/// `ops_per_s` is phrased in terms of the workload's *operation*: monitors
/// analysed, monitors explored, or calls of the generated explicit-signal
/// monitor (`explicit_static`) — one quantity per workload, never a mean
/// over unlike things. `setup_s` has the widest bound because the contract
/// says so and exempts it from the spread check. `ops_per_s` has it because
/// ten runs on the measuring host spread up to 16 % and two sets half an
/// hour apart differ by up to 41 % (README, "Steadiness"): at the 0.10 the
/// design asked for it is unresolved. The quantities only some workloads
/// have, and the latencies, are in `PER_LAYER` without a bound; the README
/// lists them as not gated.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.10),
];

/// Single-layer numbers from the traced run, plus the workload-specific
/// end-to-end numbers that only some workloads can report (0 elsewhere).
pub const PER_LAYER: &[MetricDef] = &[
    // Workload-specific end-to-end numbers, measured with tracing off.
    layer("analysis_monitors_per_s", "1/s", "higher"),
    layer("analysis_p50_ms", "ms", "lower"),
    layer("analysis_p99_ms", "ms", "lower"),
    layer("explore_executions_per_s", "1/s", "higher"),
    layer("ops_per_s_implicit", "1/s", "higher"),
    layer("ops_per_s_static", "1/s", "higher"),
    layer("ops_per_s_targeted", "1/s", "higher"),
    layer("speedup_vs_autosynch", "ratio", "higher"),
    layer("call_p50_us", "us", "lower"),
    layer("call_p99_us", "us", "lower"),
    layer("artifact_mb", "MB", "lower"),
    layer("notifications_emitted", "count", "lower"),
    layer("failed_share", "share", "lower"),
    // monitor-lang
    layer("monitor-lang.parse_ms", "ms", "lower"),
    layer("monitor-lang.check_ms", "ms", "lower"),
    layer("monitor-lang.source_bytes", "bytes", "lower"),
    // logic
    layer("logic.formula_nodes", "count", "lower"),
    layer("logic.term_nodes", "count", "lower"),
    layer("logic.nodes_per_monitor", "count", "lower"),
    layer("logic.lock_contentions", "count", "lower"),
    // smt
    layer("smt.sat_queries", "count", "lower"),
    layer("smt.validity_queries", "count", "lower"),
    layer("smt.cache_hits", "count", "higher"),
    layer("smt.cache_misses", "count", "lower"),
    layer("smt.hit_rate", "share", "higher"),
    layer("smt.qe_calls", "count", "lower"),
    layer("smt.cross_analysis_hits", "count", "higher"),
    layer("smt.disk_hits", "count", "higher"),
    layer("smt.sat_self_ms", "ms", "lower"),
    layer("smt.theory_self_ms", "ms", "lower"),
    layer("smt.qe_self_ms", "ms", "lower"),
    // vcgen
    layer("vcgen.wp_hits", "count", "higher"),
    layer("vcgen.wp_misses", "count", "lower"),
    layer("vcgen.wp_hit_rate", "share", "higher"),
    layer("vcgen.wp_cross_monitor_hits", "count", "higher"),
    layer("vcgen.wp_disk_hits", "count", "higher"),
    layer("vcgen.wp_self_ms", "ms", "lower"),
    layer("vcgen.disjointness_queries", "count", "lower"),
    layer("vcgen.disjointness_hits", "count", "higher"),
    layer("vcgen.refine_ms", "ms", "lower"),
    // abduction
    layer("abduction.invariant_ms", "ms", "lower"),
    layer("abduction.candidates", "count", "lower"),
    layer("abduction.conjuncts_kept", "count", "higher"),
    layer("abduction.tasks", "count", "lower"),
    layer("abduction.share_of_analysis", "share", "lower"),
    // core: placement, codegen, scheduler
    layer("core.placement_ms", "ms", "lower"),
    layer("core.triples_checked", "count", "lower"),
    layer("core.pairs_considered", "count", "lower"),
    layer("core.signals", "count", "lower"),
    layer("core.broadcasts", "count", "lower"),
    layer("core.conditional_notifications", "count", "lower"),
    layer("core.codegen_ms", "ms", "lower"),
    layer("core.codegen_bytes", "bytes", "lower"),
    layer("core.context_new_ms", "ms", "lower"),
    layer("core.sched_tasks_executed", "count", "lower"),
    layer("core.sched_steals", "count", "lower"),
    layer("core.sched_worker_utilization", "share", "higher"),
    layer("core.sched_workers", "count", "higher"),
    // persist
    layer("persist.load_ms", "ms", "lower"),
    layer("persist.seed_ms", "ms", "lower"),
    layer("persist.export_ms", "ms", "lower"),
    layer("persist.save_ms", "ms", "lower"),
    layer("persist.artifact_bytes", "bytes", "lower"),
    layer("persist.entries_sat", "count", "lower"),
    layer("persist.entries_qe", "count", "lower"),
    layer("persist.entries_theory", "count", "lower"),
    layer("persist.entries_wp", "count", "lower"),
    layer("persist.seeded_entries", "count", "lower"),
    layer("persist.disk_hit_rate", "ratio", "higher"),
    // semantics
    layer("semantics.steps_per_s", "1/s", "higher"),
    // explore
    layer("explore.executions", "count", "lower"),
    layer("explore.transitions", "count", "lower"),
    layer("explore.transitions_per_s", "1/s", "higher"),
    layer("explore.us_per_execution", "us", "lower"),
    layer("explore.dedup_hits", "count", "higher"),
    layer("explore.sleep_prunes", "count", "higher"),
    layer("explore.sleep_set_blocked", "count", "lower"),
    layer("explore.divergences", "count", "lower"),
    layer("explore.reduction_vs_naive", "ratio", "higher"),
    // runtime, per engine
    layer("runtime.implicit.wakeups_per_kop", "count", "lower"),
    layer("runtime.implicit.predicate_evals_per_kop", "count", "lower"),
    layer("runtime.implicit.call_p50_us", "us", "lower"),
    layer("runtime.implicit.call_p99_us", "us", "lower"),
    layer("runtime.implicit.call_p999_us", "us", "lower"),
    layer("runtime.implicit.build_us", "us", "lower"),
    layer("runtime.static.wakeups_per_kop", "count", "lower"),
    layer("runtime.static.predicate_evals_per_kop", "count", "lower"),
    layer("runtime.static.call_p50_us", "us", "lower"),
    layer("runtime.static.call_p99_us", "us", "lower"),
    layer("runtime.static.call_p999_us", "us", "lower"),
    layer("runtime.static.build_us", "us", "lower"),
    layer("runtime.targeted.wakeups_per_kop", "count", "lower"),
    layer("runtime.targeted.predicate_evals_per_kop", "count", "lower"),
    layer("runtime.targeted.call_p50_us", "us", "lower"),
    layer("runtime.targeted.call_p99_us", "us", "lower"),
    layer("runtime.targeted.call_p999_us", "us", "lower"),
    layer("runtime.targeted.build_us", "us", "lower"),
    layer("runtime.targeted.avoided_per_kop", "count", "higher"),
    layer("runtime.targeted.elided_per_kop", "count", "higher"),
    // loadgen
    layer("loadgen.sessions_per_s", "1/s", "higher"),
    layer("loadgen.overhead_ns_per_op", "ns", "lower"),
    // obs
    layer("obs.tracing_overhead", "ratio", "lower"),
    layer("obs.spans_recorded", "count", "lower"),
    layer("obs.span_coverage", "share", "higher"),
    // Exclusive span time of each layer as a share of all layers' span time.
    layer("monitor-lang.self_share", "share", "lower"),
    layer("logic.self_share", "share", "lower"),
    layer("smt.self_share", "share", "lower"),
    layer("vcgen.self_share", "share", "lower"),
    layer("abduction.self_share", "share", "lower"),
    layer("core.self_share", "share", "lower"),
    layer("persist.self_share", "share", "lower"),
    layer("semantics.self_share", "share", "lower"),
    layer("explore.self_share", "share", "lower"),
    layer("runtime.self_share", "share", "lower"),
    layer("loadgen.self_share", "share", "lower"),
    layer("obs.self_share", "share", "lower"),
];

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured window (and the traced pass).
    pub attempted: u64,
    /// Operations that failed their correctness check.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// Free-form rows (per-monitor tables, sample counts, quartiles) printed
    /// above the metric table; not part of the contract.
    pub rows: Vec<String>,
    /// Why operations failed, in the order they did.
    failures: Vec<String>,
}

/// Failure reasons the table prints before it says how many more there are.
const FAILURES_SHOWN: usize = 20;

impl Report {
    /// Records `value` under a declared metric name.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name — a typo here would otherwise silently
    /// report 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric `{name}` is not in the catalogue"
        );
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The recorded value, 0 when the workload does not exercise the metric.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Counts `ops` attempted operations, all of them failed if `verdict`
    /// says why.
    pub fn record(&mut self, ops: u64, verdict: Result<(), String>) {
        self.attempted += ops;
        if let Err(why) = verdict {
            self.fail(ops, why);
        }
    }

    /// Counts `ops` failures among operations already counted as attempted
    /// (or a failure of the run itself that belongs to no single operation).
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.failures.push(why);
    }

    /// Records `ops_per_s` from the median pass, and the passes beside it.
    pub fn set_pass_rate(&mut self, ops_per_pass: f64, pass_seconds: &[f64]) {
        let pass = stats::median(pass_seconds);
        self.set("ops_per_s", stats::ratio(ops_per_pass, pass));
        let (q1, q3) = stats::quartiles(pass_seconds).unwrap_or((pass, pass));
        self.rows.push(format!(
            "passes: {} (median {:.4} s, quartiles {:.4}..{:.4} s)",
            pass_seconds.len(),
            pass,
            q1,
            q3
        ));
    }

    /// The human-readable table: every metric of the chosen list by name,
    /// with its unit.
    pub fn table(&self, list: &[MetricDef]) -> String {
        let mut out = String::new();
        for row in &self.rows {
            out.push_str(row);
            out.push('\n');
        }
        for why in self.failures.iter().take(FAILURES_SHOWN) {
            out.push_str(&format!("FAILED {why}\n"));
        }
        if self.failures.len() > FAILURES_SHOWN {
            out.push_str(&format!(
                "FAILED ... and {} more\n",
                self.failures.len() - FAILURES_SHOWN
            ));
        }
        for m in list {
            out.push_str(&format!(
                "{:<44} {:>18.6} {}\n",
                m.name,
                self.get(m.name),
                m.unit
            ));
        }
        out.push_str(&format!(
            "operations: {} attempted, {} failed (failed_share {})\n",
            self.attempted,
            self.failed,
            stats::failed_share(self.failed, self.attempted)
        ));
        out
    }

    /// The contract's result line.
    pub fn json_line(&self, list: &[MetricDef]) -> String {
        let metrics: Vec<String> = list
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    self.get(m.name),
                    m.unit
                )
            })
            .collect();
        // A run that attempted nothing checked nothing: it is reported as
        // one operation, failed (the contract wants `attempted` >= 1).
        let (attempted, failed) = match self.attempted {
            0 => (1, 1),
            n => (n, self.failed),
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expresso_repro::obs::json;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// catalogue above and exactly the workloads `main` dispatches on.
    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = doc.get(key).and_then(|v| v.as_arr()).expect(key);
            assert_eq!(entries.len(), list.len(), "{key} length");
            for (entry, m) in entries.iter().zip(list) {
                let field = |k: &str| entry.get(k).and_then(|v| v.as_str()).map(str::to_owned);
                assert_eq!(field("name").as_deref(), Some(m.name));
                assert_eq!(field("unit").as_deref(), Some(m.unit), "{}", m.name);
                assert_eq!(field("better").as_deref(), Some(m.better), "{}", m.name);
                assert_eq!(
                    entry.get("bound").and_then(|v| v.as_f64()),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|v| v.as_str())
                    .expect("name")
                    .to_owned()
            })
            .collect();
        let expected: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, expected);
        assert_eq!(
            doc.get("run_seconds").and_then(|v| v.as_f64()),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let mut report = Report::default();
        report.record(10, Ok(()));
        report.set("setup_s", 0.5);
        report.set("ops_per_s", f64::NAN);
        let line = report.json_line(END_TO_END);
        let doc = json::parse(&line).expect("result line parses");
        assert_eq!(doc.get("attempted").and_then(|v| v.as_f64()), Some(10.0));
        assert_eq!(doc.get("failed").and_then(|v| v.as_f64()), Some(0.0));
        let metrics = doc.get("metrics").expect("metrics");
        for m in END_TO_END {
            let entry = metrics.get(m.name).expect(m.name);
            assert!(entry.get("value").and_then(|v| v.as_f64()).is_some());
            assert_eq!(entry.get("unit").and_then(|v| v.as_str()), Some(m.unit));
        }
        let setup = metrics.get("setup_s").and_then(|e| e.get("value"));
        assert_eq!(setup.and_then(|v| v.as_f64()), Some(0.5));
        let nan = metrics.get("ops_per_s").and_then(|e| e.get("value"));
        assert_eq!(
            nan.and_then(|v| v.as_f64()),
            Some(0.0),
            "non-finite values never reach the line"
        );
    }

    #[test]
    fn a_run_that_attempted_nothing_is_not_correct() {
        let line = Report::default().json_line(END_TO_END);
        let doc = json::parse(&line).expect("result line parses");
        assert!(matches!(doc.get("correct"), Some(json::Value::Bool(false))));
        assert_eq!(doc.get("attempted").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(doc.get("failed").and_then(|v| v.as_f64()), Some(1.0));
    }
}
