//! The unified metrics registry: one surface over the per-subsystem `*Stats`
//! structs.
//!
//! Each subsystem registers a named group backed by a closure; taking a
//! [`Snapshot`] reads every group at once. Stats structs stay where they are
//! (this crate is a leaf) — they adapt into groups via small `metrics()`
//! methods in their own crates.

use crate::json::Value;
use std::fmt;
use std::sync::Mutex;

/// A metric sample: monotonically increasing counters vs. point-in-time
/// gauges (means, quantiles, ratios).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
}

impl fmt::Display for MetricValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricValue::Counter(v) => write!(f, "{v}"),
            MetricValue::Gauge(v) => write!(f, "{v:.3}"),
        }
    }
}

/// One named sample inside a group.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: MetricValue,
}

impl Metric {
    pub fn counter(name: &'static str, value: u64) -> Self {
        Metric {
            name,
            value: MetricValue::Counter(value),
        }
    }

    pub fn gauge(name: &'static str, value: f64) -> Self {
        Metric {
            name,
            value: MetricValue::Gauge(value),
        }
    }
}

/// A named group of metrics, e.g. `smt.solver` or `vcgen.wp_store`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricGroup {
    pub name: String,
    pub metrics: Vec<Metric>,
}

type Source = Box<dyn Fn() -> Vec<Metric> + Send + Sync>;

/// Registry of metric sources. Sources are closures so a snapshot always
/// reads live values; registration order is irrelevant (snapshots sort by
/// group name).
#[derive(Default)]
pub struct MetricsRegistry {
    sources: Mutex<Vec<(String, Source)>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a group. Registering the same group name twice keeps both
    /// entries; the snapshot then carries duplicate groups, which the tests
    /// treat as a bug in the caller — pick distinct names.
    pub fn register(
        &self,
        group: impl Into<String>,
        source: impl Fn() -> Vec<Metric> + Send + Sync + 'static,
    ) {
        self.sources
            .lock()
            .unwrap()
            .push((group.into(), Box::new(source)));
    }

    /// Read every registered source into one consistent-ordering snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let sources = self.sources.lock().unwrap();
        let mut groups: Vec<MetricGroup> = sources
            .iter()
            .map(|(name, source)| MetricGroup {
                name: name.clone(),
                metrics: source(),
            })
            .collect();
        groups.sort_by(|a, b| a.name.cmp(&b.name));
        Snapshot { groups }
    }
}

/// A point-in-time reading of every registered metric group.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub groups: Vec<MetricGroup>,
}

impl Snapshot {
    /// Look up one metric by group and name.
    pub fn get(&self, group: &str, name: &str) -> Option<MetricValue> {
        self.groups
            .iter()
            .find(|g| g.name == group)?
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Counter lookup; `None` if absent or a gauge.
    pub fn counter(&self, group: &str, name: &str) -> Option<u64> {
        match self.get(group, name) {
            Some(MetricValue::Counter(v)) => Some(v),
            _ => None,
        }
    }

    /// Gauge lookup; `None` if absent or a counter.
    pub fn gauge(&self, group: &str, name: &str) -> Option<f64> {
        match self.get(group, name) {
            Some(MetricValue::Gauge(v)) => Some(v),
            _ => None,
        }
    }

    /// The snapshot as a JSON object `{group: {metric: value, ...}, ...}`;
    /// gauges are rounded to three decimals.
    pub fn to_value(&self) -> Value {
        let group = |group: &MetricGroup| {
            let metrics = group.metrics.iter().map(|metric| {
                let value = match metric.value {
                    MetricValue::Counter(v) => v as f64,
                    MetricValue::Gauge(v) => (v * 1e3).round() / 1e3,
                };
                (metric.name.to_string(), Value::Num(value))
            });
            (group.name.clone(), Value::Obj(metrics.collect()))
        };
        Value::Obj(self.groups.iter().map(group).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_live_values_sorted() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let registry = MetricsRegistry::new();
        let hits = Arc::new(AtomicU64::new(0));
        let hits_src = Arc::clone(&hits);
        registry.register("z.cache", move || {
            vec![Metric::counter("hits", hits_src.load(Ordering::Relaxed))]
        });
        registry.register("a.latency", || vec![Metric::gauge("p99_us", 12.5)]);

        hits.store(7, Ordering::Relaxed);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.groups[0].name, "a.latency");
        assert_eq!(snapshot.counter("z.cache", "hits"), Some(7));
        assert_eq!(snapshot.gauge("a.latency", "p99_us"), Some(12.5));
        assert_eq!(snapshot.counter("a.latency", "p99_us"), None);
        assert_eq!(snapshot.get("missing", "x"), None);

        let value = snapshot.to_value();
        assert_eq!(
            value.get("z.cache").unwrap().get("hits").unwrap().as_f64(),
            Some(7.0)
        );
    }
}
