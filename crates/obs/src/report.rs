//! Serializable snapshot of a registry: the payload behind every
//! experiment binary's `--metrics <path>` flag.

use serde::{Deserialize, Serialize};

/// One counter's final value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Metric name.
    pub name: String,
    /// Final count.
    pub value: u64,
}

/// One timer's accumulated wall time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimerEntry {
    /// Metric name.
    pub name: String,
    /// Number of recorded durations.
    pub count: u64,
    /// Total recorded nanoseconds.
    pub total_nanos: u64,
    /// Mean nanoseconds per recording.
    pub mean_nanos: f64,
}

/// One Welford gauge's summary statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeEntry {
    /// Metric name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Mean of the observations.
    pub mean: f64,
    /// Sample variance (n−1 denominator).
    pub variance: f64,
    /// Sample standard deviation.
    pub std: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

/// One histogram's bucket layout and counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramEntry {
    /// Metric name.
    pub name: String,
    /// Bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (`bounds.len() + 1` entries; last is overflow).
    pub counts: Vec<u64>,
    /// Sum of all observed values (Prometheus `_sum`).
    pub sum: f64,
}

/// A complete, sorted snapshot of a registry.
///
/// Serializes to JSON through the workspace serde facade; [`MetricsReport::csv_rows`]
/// renders the same data as a flat kind/name table for CSV emission.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsReport {
    /// All counters, sorted by name.
    pub counters: Vec<CounterEntry>,
    /// All timers, sorted by name.
    pub timers: Vec<TimerEntry>,
    /// All non-empty gauges, sorted by name.
    pub gauges: Vec<GaugeEntry>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramEntry>,
}

/// The header row matching [`MetricsReport::csv_rows`].
pub const CSV_HEADERS: [&str; 8] = [
    "kind", "name", "count", "value", "mean", "std", "min", "max",
];

impl MetricsReport {
    /// Looks up a gauge entry by name.
    pub fn gauge(&self, name: &str) -> Option<&GaugeEntry> {
        self.gauges.iter().find(|g| g.name == name)
    }

    /// Looks up a counter entry by name.
    pub fn counter(&self, name: &str) -> Option<&CounterEntry> {
        self.counters.iter().find(|c| c.name == name)
    }

    /// Looks up a timer entry by name.
    pub fn timer(&self, name: &str) -> Option<&TimerEntry> {
        self.timers.iter().find(|t| t.name == name)
    }

    /// Looks up a histogram entry by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramEntry> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Whether nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.timers.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
    }

    /// Renders the snapshot in the Prometheus text exposition format —
    /// the payload behind `ams-serve`'s `/metrics` endpoint.
    ///
    /// Metric names are sanitized (`.` and other non-identifier bytes
    /// become `_`). Counters map to `counter`, timers to `_count`/`_sum`
    /// (seconds) summaries, Welford gauges to `_count`/`_mean`/`_min`/
    /// `_max` gauges, and histograms to cumulative `_bucket{le=...}`
    /// series plus `_sum` and `_count`.
    pub fn prometheus_text(&self) -> String {
        fn sanitize(name: &str) -> String {
            name.chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                        c
                    } else {
                        '_'
                    }
                })
                .collect()
        }
        let mut out = String::new();
        for c in &self.counters {
            let n = sanitize(&c.name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {}\n", c.value));
        }
        for t in &self.timers {
            let n = sanitize(&t.name);
            out.push_str(&format!("# TYPE {n} summary\n"));
            out.push_str(&format!("{n}_count {}\n", t.count));
            out.push_str(&format!("{n}_sum {}\n", t.total_nanos as f64 / 1e9));
        }
        for g in &self.gauges {
            let n = sanitize(&g.name);
            out.push_str(&format!("# TYPE {n}_mean gauge\n"));
            out.push_str(&format!("{n}_count {}\n", g.count));
            out.push_str(&format!("{n}_mean {}\n", g.mean));
            out.push_str(&format!("{n}_min {}\n", g.min));
            out.push_str(&format!("{n}_max {}\n", g.max));
        }
        for h in &self.histograms {
            let n = sanitize(&h.name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cum = 0u64;
            for (i, &count) in h.counts.iter().enumerate() {
                cum += count;
                match h.bounds.get(i) {
                    Some(b) => out.push_str(&format!("{n}_bucket{{le=\"{b}\"}} {cum}\n")),
                    None => out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {cum}\n")),
                }
            }
            out.push_str(&format!("{n}_sum {}\n", h.sum));
            out.push_str(&format!("{n}_count {cum}\n"));
        }
        out
    }

    /// Flattens the report into one row per metric (histogram buckets get
    /// one row each, named `name[le=bound]` / `name[overflow]`), with
    /// columns [`CSV_HEADERS`]. Cells that do not apply to a kind are
    /// empty.
    pub fn csv_rows(&self) -> Vec<Vec<String>> {
        let mut rows = Vec::new();
        for c in &self.counters {
            rows.push(vec![
                "counter".into(),
                c.name.clone(),
                String::new(),
                c.value.to_string(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ]);
        }
        for t in &self.timers {
            rows.push(vec![
                "timer".into(),
                t.name.clone(),
                t.count.to_string(),
                t.total_nanos.to_string(),
                format!("{:.1}", t.mean_nanos),
                String::new(),
                String::new(),
                String::new(),
            ]);
        }
        for g in &self.gauges {
            rows.push(vec![
                "gauge".into(),
                g.name.clone(),
                g.count.to_string(),
                String::new(),
                format!("{:.9e}", g.mean),
                format!("{:.9e}", g.std),
                format!("{:.9e}", g.min),
                format!("{:.9e}", g.max),
            ]);
        }
        for h in &self.histograms {
            for (i, &count) in h.counts.iter().enumerate() {
                let label = match h.bounds.get(i) {
                    Some(b) => format!("{}[le={b}]", h.name),
                    None => format!("{}[overflow]", h.name),
                };
                rows.push(vec![
                    "histogram".into(),
                    label,
                    String::new(),
                    count.to_string(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                ]);
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsSink;

    fn sample_report() -> MetricsReport {
        let sink = MetricsSink::recording();
        sink.inc("exec.dispatch.serial");
        sink.observe("noise.stem", 0.5);
        sink.observe("noise.stem", -0.5);
        sink.record_duration("layer.fc.forward", std::time::Duration::from_nanos(250));
        sink.observe_histogram("sizes", &[1.0, 10.0], 5.0);
        sink.registry().unwrap().report()
    }

    #[test]
    fn lookup_helpers_find_entries() {
        let r = sample_report();
        assert_eq!(r.counter("exec.dispatch.serial").unwrap().value, 1);
        assert_eq!(r.gauge("noise.stem").unwrap().count, 2);
        assert_eq!(r.timer("layer.fc.forward").unwrap().count, 1);
        assert!(r.counter("missing").is_none());
        assert!(!r.is_empty());
        assert!(MetricsReport::default().is_empty());
    }

    #[test]
    fn prometheus_text_renders_every_kind() {
        let r = sample_report();
        let text = r.prometheus_text();
        assert!(text.contains("# TYPE exec_dispatch_serial counter\nexec_dispatch_serial 1\n"));
        assert!(text.contains("layer_fc_forward_count 1\n"));
        assert!(text.contains("noise_stem_mean 0\n"));
        // Cumulative buckets: 1 obs <= 1.0, still 1 <= 10.0, 1 total.
        assert!(text.contains("sizes_bucket{le=\"1\"} 0\n"));
        assert!(text.contains("sizes_bucket{le=\"10\"} 1\n"));
        assert!(text.contains("sizes_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("sizes_sum 5\n"));
        assert!(text.contains("sizes_count 1\n"));
    }

    #[test]
    fn csv_rows_cover_every_metric() {
        let r = sample_report();
        let rows = r.csv_rows();
        // 1 counter + 1 timer + 1 gauge + 3 histogram buckets.
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|row| row.len() == CSV_HEADERS.len()));
        assert!(rows.iter().any(|row| row[1] == "sizes[overflow]"));
    }
}
