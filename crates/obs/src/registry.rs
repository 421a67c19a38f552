//! The metrics registry and the [`MetricsSink`] handle threaded through
//! the stack.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::metric::{Counter, Gauge, Histogram, Timer};
use crate::report::{CounterEntry, GaugeEntry, HistogramEntry, MetricsReport, TimerEntry};
use crate::welford::WelfordState;

/// A named collection of metrics, one map per primitive kind.
///
/// Metrics are created on first use (`counter("x")` returns the existing
/// counter or registers a new one). Names are independent per kind, and
/// reports list each kind sorted by name, so output is deterministic.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    timers: Mutex<BTreeMap<String, Arc<Timer>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

fn get_or_insert<T>(
    map: &Mutex<BTreeMap<String, Arc<T>>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> Arc<T> {
    let mut map = map.lock().expect("registry lock never poisoned");
    if let Some(existing) = map.get(name) {
        return Arc::clone(existing);
    }
    let created = Arc::new(make());
    map.insert(name.to_string(), Arc::clone(&created));
    created
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, registered on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name, Counter::new)
    }

    /// The timer named `name`, registered on first use.
    pub fn timer(&self, name: &str) -> Arc<Timer> {
        get_or_insert(&self.timers, name, Timer::new)
    }

    /// The Welford gauge named `name`, registered on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name, Gauge::new)
    }

    /// The histogram named `name`, registered on first use with the given
    /// bucket upper bounds (later callers' bounds are ignored — the first
    /// registration wins).
    ///
    /// # Panics
    ///
    /// Panics if a first registration passes invalid bounds (see
    /// [`Histogram::new`]).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name, || Histogram::new(bounds))
    }

    /// Snapshots every metric into a serializable, sorted report.
    /// Gauges that never observed anything are omitted (their min/max are
    /// infinities, which JSON cannot represent).
    pub fn report(&self) -> MetricsReport {
        let counters = self
            .counters
            .lock()
            .expect("registry lock never poisoned")
            .iter()
            .map(|(name, c)| CounterEntry {
                name: name.clone(),
                value: c.get(),
            })
            .collect();
        let timers = self
            .timers
            .lock()
            .expect("registry lock never poisoned")
            .iter()
            .map(|(name, t)| TimerEntry {
                name: name.clone(),
                count: t.count(),
                total_nanos: t.total_nanos(),
                mean_nanos: t.mean_nanos(),
            })
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("registry lock never poisoned")
            .iter()
            .filter_map(|(name, g)| {
                let s = g.snapshot();
                (!s.is_empty()).then(|| GaugeEntry {
                    name: name.clone(),
                    count: s.count,
                    mean: s.mean,
                    variance: s.sample_variance(),
                    std: s.sample_std(),
                    min: s.min,
                    max: s.max,
                })
            })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("registry lock never poisoned")
            .iter()
            .map(|(name, h)| HistogramEntry {
                name: name.clone(),
                bounds: h.bounds().to_vec(),
                counts: h.counts(),
                sum: h.sum(),
            })
            .collect();
        MetricsReport {
            counters,
            timers,
            gauges,
            histograms,
        }
    }
}

/// The recording handle threaded through the stack alongside `ExecCtx`.
///
/// A sink is either *disabled* (the default — every operation is a branch
/// on a `None` and returns immediately, so uninstrumented runs pay
/// essentially nothing) or *recording* into a shared [`Registry`]. Clones
/// share the registry, so the handle embedded in an `ExecCtx` and the one
/// kept by the caller that wants the final report see the same metrics.
///
/// # Example
///
/// ```
/// use ams_obs::MetricsSink;
///
/// let sink = MetricsSink::recording();
/// sink.inc("requests");
/// sink.observe("latency_ms", 1.25);
/// let report = sink.registry().unwrap().report();
/// assert_eq!(report.counters[0].value, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsSink {
    registry: Option<Arc<Registry>>,
}

impl MetricsSink {
    /// The no-op sink: records nothing, costs (almost) nothing.
    pub const fn disabled() -> Self {
        MetricsSink { registry: None }
    }

    /// A sink recording into a fresh registry.
    pub fn recording() -> Self {
        MetricsSink {
            registry: Some(Arc::new(Registry::new())),
        }
    }

    /// Whether this sink records anything.
    pub fn enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// The backing registry, if recording.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.registry.as_ref()
    }

    /// Increments counter `name` by one.
    pub fn inc(&self, name: &str) {
        if let Some(r) = &self.registry {
            r.counter(name).inc();
        }
    }

    /// Adds `n` to counter `name`.
    pub fn add(&self, name: &str, n: u64) {
        if let Some(r) = &self.registry {
            r.counter(name).add(n);
        }
    }

    /// Records one observation into gauge `name`.
    pub fn observe(&self, name: &str, x: f64) {
        if let Some(r) = &self.registry {
            r.gauge(name).observe(x);
        }
    }

    /// Sets gauge `name` to the level `x`, dropping earlier observations.
    pub fn set_gauge(&self, name: &str, x: f64) {
        if let Some(r) = &self.registry {
            r.gauge(name).set(x);
        }
    }

    /// Merges a locally accumulated shard into gauge `name`.
    pub fn merge_observations(&self, name: &str, shard: &WelfordState) {
        if let Some(r) = &self.registry {
            r.gauge(name).merge(shard);
        }
    }

    /// Records a duration into timer `name`.
    pub fn record_duration(&self, name: &str, d: Duration) {
        if let Some(r) = &self.registry {
            r.timer(name).record(d);
        }
    }

    /// Records an observation into histogram `name` with the given bucket
    /// bounds (bounds apply on first registration only).
    pub fn observe_histogram(&self, name: &str, bounds: &[f64], x: f64) {
        if let Some(r) = &self.registry {
            r.histogram(name, bounds).observe(x);
        }
    }

    /// Starts a scoped wall-time measurement recorded into the timer named
    /// by `name` when the returned guard drops. When the sink is disabled
    /// the name closure is never evaluated and no clock is read, so hot
    /// paths can build names with `format!` without paying for it in
    /// uninstrumented runs.
    pub fn scope(&self, name: impl FnOnce() -> String) -> ScopedTimer {
        ScopedTimer {
            inner: self
                .registry
                .as_ref()
                .map(|r| (r.timer(&name()), Instant::now())),
        }
    }

    /// Times `f` into timer `name` (when recording) and returns its result.
    pub fn time<R>(&self, name: impl FnOnce() -> String, f: impl FnOnce() -> R) -> R {
        let _guard = self.scope(name);
        f()
    }
}

impl From<Arc<Registry>> for MetricsSink {
    fn from(registry: Arc<Registry>) -> Self {
        MetricsSink {
            registry: Some(registry),
        }
    }
}

/// Guard returned by [`MetricsSink::scope`]; records the elapsed wall time
/// on drop. Inert (and free) when the sink was disabled.
#[derive(Debug)]
pub struct ScopedTimer {
    inner: Option<(Arc<Timer>, Instant)>,
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        if let Some((timer, start)) = self.inner.take() {
            timer.record(start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_inert() {
        let sink = MetricsSink::disabled();
        assert!(!sink.enabled());
        sink.inc("never");
        sink.observe("never", 1.0);
        sink.record_duration("never", Duration::from_secs(1));
        let mut evaluated = false;
        {
            let _g = sink.scope(|| {
                evaluated = true;
                "never".to_string()
            });
        }
        assert!(!evaluated, "name closure must not run when disabled");
        assert!(sink.registry().is_none());
    }

    #[test]
    fn recording_sink_shares_registry_across_clones() {
        let sink = MetricsSink::recording();
        let other = sink.clone();
        sink.inc("hits");
        other.inc("hits");
        let report = sink.registry().unwrap().report();
        assert_eq!(report.counters.len(), 1);
        assert_eq!(report.counters[0].name, "hits");
        assert_eq!(report.counters[0].value, 2);
    }

    #[test]
    fn scope_records_into_named_timer() {
        let sink = MetricsSink::recording();
        {
            let _g = sink.scope(|| "op".to_string());
            std::hint::black_box(3 + 4);
        }
        let report = sink.registry().unwrap().report();
        assert_eq!(report.timers.len(), 1);
        assert_eq!(report.timers[0].count, 1);
    }

    #[test]
    fn get_or_create_returns_same_metric() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn empty_gauges_are_omitted_from_report() {
        let sink = MetricsSink::recording();
        let _ = sink.registry().unwrap().gauge("touched_but_empty");
        sink.observe("real", 2.0);
        let report = sink.registry().unwrap().report();
        assert_eq!(report.gauges.len(), 1);
        assert_eq!(report.gauges[0].name, "real");
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let sink = MetricsSink::recording();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = sink.clone();
                scope.spawn(move || {
                    for i in 0..1000 {
                        s.inc("n");
                        s.observe("g", f64::from(t * 1000 + i));
                    }
                });
            }
        });
        let report = sink.registry().unwrap().report();
        assert_eq!(report.counters[0].value, 4000);
        assert_eq!(report.gauges[0].count, 4000);
    }
}
